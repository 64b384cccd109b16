//! Pieces every workload shares: the run context, flash-op tallies derived
//! from the program's counters, and the sim-time window summary.

use std::time::Instant;

use ossd_flash::FlashTiming;
use ossd_ssd::SsdStats;

use crate::check::{Checker, Kind};
use crate::report::Metrics;
use crate::stats;

/// What one invocation of the benchmark was asked to do, and what it has
/// gathered so far.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed phase should last.
    pub seconds: f64,
    /// Metrics recorded so far.
    pub metrics: Metrics,
    /// Output checks.
    pub checker: Checker,
    /// Host commands attempted in measured rounds.
    pub attempted: u64,
    /// Where the traced run writes its spans.
    pub span_path: std::path::PathBuf,
    /// When the run started.
    pub started: Instant,
}

/// Flash operations of one device, derived from its counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashCounts {
    /// Host page reads (first attempt).
    pub reads: u64,
    /// ECC read retries.
    pub retries: u64,
    /// Host page programs.
    pub programs: u64,
    /// Copyback moves (foreground and background cleaning, wear levelling).
    pub copybacks: u64,
    /// Block erases (foreground and background cleaning).
    pub erases: u64,
    /// Translation-page reads.
    pub map_reads: u64,
    /// Translation-page programs.
    pub map_writes: u64,
}

impl FlashCounts {
    /// The tallies implied by a device's counters.
    pub fn of(s: &SsdStats) -> Self {
        FlashCounts {
            reads: s.ftl.pages_read_host,
            retries: s.reliability.read_retries,
            programs: s.ftl.pages_programmed_host,
            copybacks: s.ftl.gc_pages_moved + s.ftl.bg_pages_moved + s.ftl.wear_level_moves,
            erases: s.ftl.gc_blocks_erased + s.ftl.bg_blocks_erased,
            map_reads: s.map.map_reads,
            map_writes: s.map.map_writes,
        }
    }

    /// Counts accrued since `before`.
    pub fn since(&self, before: &FlashCounts) -> FlashCounts {
        FlashCounts {
            reads: self.reads - before.reads,
            retries: self.retries - before.retries,
            programs: self.programs - before.programs,
            copybacks: self.copybacks - before.copybacks,
            erases: self.erases - before.erases,
            map_reads: self.map_reads - before.map_reads,
            map_writes: self.map_writes - before.map_writes,
        }
    }

    /// Adds `other` into these counts.
    pub fn add(&mut self, other: &FlashCounts) {
        self.reads += other.reads;
        self.retries += other.retries;
        self.programs += other.programs;
        self.copybacks += other.copybacks;
        self.erases += other.erases;
        self.map_reads += other.map_reads;
        self.map_writes += other.map_writes;
    }

    /// Every flash operation.
    pub fn total(&self) -> u64 {
        self.reads
            + self.retries
            + self.programs
            + self.copybacks
            + self.erases
            + self.map_reads
            + self.map_writes
    }

    /// Pages programmed into the array for any reason.
    pub fn pages_programmed(&self) -> u64 {
        self.programs + self.copybacks + self.map_writes
    }
}

/// Host-visible outcome of a measured window, in simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Window {
    /// Read response times (due time to finish), ns.
    pub read_ns: Vec<u64>,
    /// Write response times, ns.
    pub write_ns: Vec<u64>,
    /// Host commands completed (flushes included).
    pub cmds: u64,
    /// Host bytes read and written.
    pub bytes: u64,
    /// Host logical pages written.
    pub pages_written: u64,
    /// Earliest due time, ns.
    pub start_ns: u64,
    /// Latest finish, ns.
    pub end_ns: u64,
}

impl Window {
    /// Records one completed command that moved `bytes` of host data.
    pub fn record(&mut self, kind: Kind, bytes: u64, arrival_ns: u64, finish_ns: u64) {
        if self.cmds == 0 {
            self.start_ns = arrival_ns;
        }
        self.start_ns = self.start_ns.min(arrival_ns);
        self.end_ns = self.end_ns.max(finish_ns);
        self.cmds += 1;
        let response = finish_ns - arrival_ns;
        match kind {
            Kind::Read { .. } => {
                self.read_ns.push(response);
                self.bytes += bytes;
            }
            Kind::Write { pages } => {
                self.write_ns.push(response);
                self.bytes += bytes;
                self.pages_written += pages;
            }
            Kind::Flush => {}
        }
    }

    /// Simulated seconds the window spans.
    pub fn sim_seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records the sim-time end-to-end metrics of `windows` pooled (bytes over
/// the sum of their sim spans, percentiles over all their samples), with
/// the array work `flash` they caused; fails the run if a class has too
/// few samples for its p99.9.
pub fn report_sim(ctx: &mut Ctx, windows: &[&Window], flash: &FlashCounts) {
    let bytes: u64 = windows.iter().map(|w| w.bytes).sum();
    let seconds: f64 = windows.iter().map(|w| w.sim_seconds()).sum();
    let pages_written: u64 = windows.iter().map(|w| w.pages_written).sum();
    let m = &mut ctx.metrics;
    m.set("sim_mb_s", bytes as f64 / 1e6 / seconds);
    m.set(
        "sim_write_amp",
        flash.pages_programmed() as f64 / pages_written.max(1) as f64,
    );
    for (class, p50_name, p999_name) in [
        ("read", "sim_read_p50_us", "sim_read_p999_us"),
        ("write", "sim_write_p50_us", "sim_write_p999_us"),
    ] {
        let mut sorted: Vec<u64> = windows
            .iter()
            .flat_map(|w| {
                if class == "read" {
                    &w.read_ns
                } else {
                    &w.write_ns
                }
            })
            .copied()
            .collect();
        sorted.sort_unstable();
        match (
            stats::percentile(&sorted, 50.0),
            stats::percentile(&sorted, 99.9),
        ) {
            (Some(p50), Some(p999)) => {
                m.set(p50_name, p50 as f64 / 1e3);
                m.set(p999_name, p999 as f64 / 1e3);
            }
            _ => ctx.checker.fail(format!(
                "{class}: {} samples leave fewer than {} beyond the p99.9",
                sorted.len(),
                stats::MIN_BEYOND
            )),
        }
    }
}

/// The input seed of round `round` of a run seeded `seed`: round 0 uses
/// the run's seed, later rounds derived streams of it.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        ossd_sim::derive_stream_seed(seed, round as u64)
    }
}

/// Checks that the window lasted at least as long as its programs need on
/// `elements` parallel elements: pages programmed x t_prog / elements.
pub fn check_timing_bound(
    checker: &mut Checker,
    window: &Window,
    flash: &FlashCounts,
    timing: &FlashTiming,
    elements: u64,
) {
    let bound_ns =
        flash.pages_programmed() as f64 * timing.program_page.as_nanos() as f64 / elements as f64;
    let span_ns = (window.end_ns - window.start_ns) as f64;
    checker.expect(span_ns >= bound_ns, || {
        format!("window spans {span_ns} ns of sim time, below the program bound {bound_ns} ns")
    });
}

/// Runs `round` repeatedly until `seconds` of wall time have passed, and
/// at least `min_rounds` times.  Each round returns its own measured
/// `(wall seconds, commands, flash ops)`, which are collected.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> (f64, u64, u64),
) -> Vec<(f64, u64, u64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds.max(1) || start.elapsed().as_secs_f64() < seconds {
        out.push(round(out.len()));
    }
    out
}

/// Rounds whose sim-time results are pooled into the end-to-end sim
/// metrics: a fixed count, so those metrics are deterministic for a seed.
pub const SIM_ROUNDS: usize = 4;

/// Records the host-time end-to-end metrics from measured rounds: the
/// median over rounds of commands per second and of ns per flash op.
pub fn report_rounds(ctx: &mut Ctx, rounds: &[(f64, u64, u64)]) {
    let rates: Vec<f64> = rounds.iter().map(|&(s, c, _)| c as f64 / s).collect();
    let per_op: Vec<f64> = rounds
        .iter()
        .map(|&(s, _, ops)| s * 1e9 / ops.max(1) as f64)
        .collect();
    ctx.metrics.set("host_ops_per_s", stats::median(&rates));
    ctx.metrics
        .set("host_ns_per_flash_op", stats::median(&per_op));
    println!(
        "rounds: {} in {:.2} s, {} commands; per round {:.3?} s",
        rounds.len(),
        rounds.iter().map(|r| r.0).sum::<f64>(),
        rounds.iter().map(|r| r.1).sum::<u64>(),
        rounds.iter().map(|r| r.0).collect::<Vec<_>>()
    );
}

/// Runs `setup` `reps` times, recording the median wall time as
/// `setup_s`, and returns the last result.
pub fn timed_setups<T>(ctx: &mut Ctx, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    ctx.metrics.set("setup_s", stats::median(&times));
    println!("setup: {reps} runs, {times:.3?} s");
    last.expect("at least one setup")
}

/// Wall seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// In a traced run, repeats the span window on fresh set-ups (`window(r,
/// checker)` for rounds 1, 2, ...) until the run has lasted `ctx.seconds`,
/// and replaces each named host-time metric round 0 recorded with its
/// median over all rounds.
pub fn repeat_span_windows<const N: usize>(
    ctx: &mut Ctx,
    mut window: impl FnMut(usize, &mut Checker) -> [(&'static str, f64); N],
) {
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut names = [""; N];
    let mut round = 1;
    while ctx.started.elapsed().as_secs_f64() < ctx.seconds {
        let values = window(round, &mut ctx.checker);
        for (k, (name, value)) in values.into_iter().enumerate() {
            if round == 1 {
                names[k] = name;
                let first = ctx.metrics.get(name).expect("round 0 recorded it");
                samples.push(vec![first]);
            }
            samples[k].push(value);
        }
        round += 1;
    }
    for (name, values) in names.iter().zip(&samples) {
        ctx.metrics.set(name, stats::median(values));
    }
    println!("span windows: {round} (medians over them)");
}
