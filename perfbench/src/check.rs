//! Output checks made apart from the program: every command completes
//! exactly once with sane timestamps, flushes order after their
//! initiator's earlier writes, and the counters obey their conservation
//! identities.  Any failure marks the run incorrect.

use ossd_block::{Completion, HostQueue};
use ossd_sim::SimTime;

/// Drains every queue's posted completions, tagged with the initiator.
pub fn drain(queues: &mut [HostQueue]) -> Vec<(usize, Completion)> {
    let mut out = Vec::new();
    for (i, q) in queues.iter_mut().enumerate() {
        while let Some(c) = q.poll() {
            out.push((i, c));
        }
    }
    out
}

/// What the benchmark submitted, remembered to check the completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A read of `pages` logical pages.
    Read { pages: u64 },
    /// A write of `pages` logical pages.
    Write { pages: u64 },
    /// A flush fence.
    Flush,
}

/// One submitted command.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// Initiator queue index.
    pub initiator: usize,
    /// Correlation id (unique within the run).
    pub id: u64,
    /// Due time.
    pub arrival: SimTime,
    /// What it was.
    pub kind: Kind,
}

/// Collects check failures and failed-operation counts over a run.
#[derive(Default)]
pub struct Checker {
    failures: Vec<String>,
    /// Commands completed with an error status.
    pub failed_ops: u64,
}

impl Checker {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("CHECK FAILED: {what}");
        }
        self.failures.push(what);
    }

    /// Fails with `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks one served session's `(initiator, completion)` pairs against
    /// `issued`, the session's submissions in submission order with
    /// consecutive ids: each command completes exactly once, on its own
    /// initiator, with its due time as arrival and `arrival <= start <=
    /// finish`, and every flush finishes no earlier than every earlier
    /// write of its initiator in the session.  Returns `(issued,
    /// completion)` pairs in submission order.
    pub fn session(
        &mut self,
        issued: &[Issued],
        completed: Vec<(usize, Completion)>,
    ) -> Vec<(Issued, Completion)> {
        // Ids are consecutive in submission order within a session, so a
        // completion's position is its id's offset from the first.
        let base = issued.first().map_or(0, |c| c.id);
        let mut done: Vec<Option<Completion>> = vec![None; issued.len()];
        for (initiator, c) in completed {
            let i = c.request_id.wrapping_sub(base) as usize;
            let Some(cmd) = issued.get(i).filter(|cmd| cmd.id == c.request_id) else {
                self.fail(format!("completion for unknown command {}", c.request_id));
                continue;
            };
            self.expect(cmd.initiator == initiator, || {
                format!("command {} completed on initiator {initiator}", cmd.id)
            });
            self.expect(done[i].is_none(), || {
                format!("command {} completed twice", cmd.id)
            });
            self.expect(
                c.arrival == cmd.arrival && c.arrival <= c.start && c.start <= c.finish,
                || format!("command {} has arrival/start/finish {c:?}", cmd.id),
            );
            if !c.is_ok() {
                self.failed_ops += 1;
            }
            done[i] = Some(c);
        }
        let initiators = issued.iter().map(|c| c.initiator + 1).max().unwrap_or(0);
        let mut last_write = vec![SimTime::ZERO; initiators];
        let mut out = Vec::with_capacity(issued.len());
        for (cmd, c) in issued.iter().zip(done) {
            let Some(c) = c else {
                self.fail(format!("command {} never completed", cmd.id));
                continue;
            };
            match cmd.kind {
                Kind::Write { .. } => {
                    last_write[cmd.initiator] = last_write[cmd.initiator].max(c.finish);
                }
                Kind::Flush => {
                    let w = last_write[cmd.initiator];
                    self.expect(c.finish >= w, || {
                        format!("flush {} finished before an earlier write", cmd.id)
                    });
                }
                Kind::Read { .. } => {}
            }
            out.push((*cmd, c));
        }
        out
    }
}
