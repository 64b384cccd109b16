//! `oltp_slo`: one device with a demand-paged map whose SRAM budget holds
//! a small fraction of the working set, background GC for idle windows and
//! NCQ depth 8, driven by four initiators replaying a TPC-C-like mix
//! (reads, hot-hinted log writes, periodic flushes) in an open loop on a
//! fixed ladder of offered rates.  Latency metrics come from the nominal
//! step.  Only part of the exported space is written, so the free pool
//! stays above the cleaning watermark and its target: neither foreground
//! nor background cleaning runs, and map misses, fences and queueing set
//! the tail.

use std::hint::black_box;

use ossd_block::{
    arbitrate_round_robin, BlockDevice, ByteRange, HostCommand, HostInterface, HostQueue,
};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::{Ftl, FtlConfig, Lpn, MapCacheConfig, PageFtl, WriteContext};
use ossd_gc::BackgroundGcConfig;
use ossd_mapcache::MapCache;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};
use ossd_telemetry::{BlameCat, BlameRecord, TelemetryHandle};
use ossd_workload::TpccConfig;

use crate::check::{self, Checker, Issued, Kind};
use crate::common::{self, Ctx, FlashCounts, Window, SIM_ROUNDS};
use crate::device::{DeviceDelta, Snapshot};
use crate::stats;
use crate::trace::{self, CountingSink, Tracer};

/// 8 elements x 1024 blocks x 64 pages of 4 KiB (2 GiB raw).
pub const GEOMETRY: FlashGeometry = FlashGeometry {
    packages: 8,
    dies_per_package: 1,
    planes_per_die: 1,
    blocks_per_plane: 1024,
    pages_per_block: 64,
    page_bytes: 4096,
};

/// Map-cache budget in entries: about 13% of the 126k mapped pages.
pub const MAP_BUDGET: u64 = 16_384;

/// Initiator queue pairs.
pub const INITIATORS: usize = 4;

/// TPC-C transactions per ladder step (7 data commands each: 4 page reads,
/// 2 page writes, 1 hot-hinted log append).  Every step's p99.9 read has
/// at least ten samples beyond it; the nominal step has ~80 so its tail
/// repeats from seed to seed.
pub const STEP_TXNS: [usize; 3] = [5_000, 20_000, 5_000];

/// Each initiator issues a Flush after this many of its data commands.
pub const FLUSH_EVERY: u64 = 32;

/// The offered-rate ladder in data commands per simulated second, set once
/// at about 0.5, 0.8 and 0.95 of the closed-loop capacity `--calibrate`
/// measures.
pub const LADDER: [f64; 3] = [2_100.0, 3_350.0, 3_980.0];

/// The ladder step the latency metrics come from.
pub const NOMINAL: usize = 1;

/// The p99.9 read latency a step must meet to count for
/// `block.sim_max_iops_at_slo`, in microseconds.
pub const READ_P999_LIMIT_US: f64 = 30_000.0;

/// Idle gap before each step.
const STEP_GAP: SimDuration = SimDuration::from_millis(50);

fn ftl_config() -> FtlConfig {
    FtlConfig::default()
        .with_overprovisioning(0.12)
        .with_watermarks(0.10, 0.04)
        .with_map_cache(MapCacheConfig::default().with_budget(MAP_BUDGET))
}

fn ssd_config() -> SsdConfig {
    SsdConfig {
        name: "oltp_slo".to_string(),
        geometry: GEOMETRY,
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: ftl_config(),
        reliability: ReliabilityConfig::none(),
        background_gc: Some(BackgroundGcConfig::default()),
        gangs: 2,
        scheduler: SchedulerKind::Swtf,
        queue_depth: 8,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// One generated command with its due time relative to its step's start.
#[derive(Clone, Copy)]
struct Cmd {
    initiator: usize,
    due_ns: u64,
    kind: Kind,
    command: HostCommand,
}

/// The preconditioned device and one ladder pass of generated commands.
struct Oltp {
    ssd: Ssd,
    queues: Vec<HostQueue>,
    /// One command list per ladder step.
    steps: Vec<Vec<Cmd>>,
    /// Logical pages the fill wrote (database and log regions).
    filled_pages: u64,
    clock: SimTime,
    id: u64,
}

/// One step's outcome.
struct StepOut {
    window: Window,
    dev: DeviceDelta,
    growing: bool,
    read_p999_us: Option<f64>,
    serve_s: f64,
}

/// The database region: a quarter of the exported capacity.
fn database_bytes(capacity: u64, page: u64) -> u64 {
    capacity / 4 / page * page
}

/// The log region after it: a fortieth of the exported capacity.
fn log_bytes(capacity: u64, page: u64) -> u64 {
    capacity / 40 / page * page
}

/// Logical pages a byte range touches.
fn pages_of(range: ByteRange, page: u64) -> u64 {
    (range.end() - 1) / page - range.offset / page + 1
}

/// Generates one ladder pass: a seeded TPC-C trace cut into one segment of
/// `STEP_TXNS[s]` transactions per step `s`, each re-timed to Poisson
/// transaction arrivals at its offered rate, dealt round-robin over the
/// initiators, with periodic flushes.
fn generate(seed: u64, capacity: u64, page: u64) -> Vec<Vec<Cmd>> {
    let segments = LADDER.len();
    let tpcc = TpccConfig {
        transactions: STEP_TXNS.iter().sum(),
        database_bytes: database_bytes(capacity, page),
        log_bytes: log_bytes(capacity, page),
        seed: seed ^ 0x7CC0_7CC0,
        ..TpccConfig::default()
    };
    let trace = tpcc.generate();
    let commands = trace.to_commands();
    let mut rng = SimRng::seed_from_u64(seed).fork(0x0175);
    let mut steps: Vec<Vec<Cmd>> = vec![Vec::new(); segments];
    let mut since_flush = [0u64; INITIATORS];
    let mut dealt = 0usize;
    let mut txn = 0usize;
    let mut current = 0usize;
    let mut due = 0u64;
    let mut i = 0usize;
    while i < commands.len() {
        let at = trace.ops[i].at_micros;
        let step = STEP_TXNS
            .iter()
            .scan(0, |end, n| {
                *end += n;
                Some(*end)
            })
            .position(|end| txn < end)
            .unwrap_or(segments - 1);
        if step != current {
            current = step;
            due = 0;
        }
        // Poisson transaction arrivals at the step's rate (7 commands each).
        let mean = SimDuration::from_secs_f64(7.0 / LADDER[step]);
        due += rng.exponential_duration(mean).as_nanos();
        while i < commands.len() && trace.ops[i].at_micros == at {
            let command = commands[i].command;
            let initiator = dealt % INITIATORS;
            dealt += 1;
            let range = command.range().expect("TPC-C commands address data");
            let pages = pages_of(range, page);
            let kind = match command {
                HostCommand::Read { .. } => Kind::Read { pages },
                _ => Kind::Write { pages },
            };
            steps[step].push(Cmd {
                initiator,
                due_ns: due,
                kind,
                command,
            });
            since_flush[initiator] += 1;
            if since_flush[initiator] == FLUSH_EVERY {
                since_flush[initiator] = 0;
                steps[step].push(Cmd {
                    initiator,
                    due_ns: due,
                    kind: Kind::Flush,
                    command: HostCommand::Flush,
                });
            }
            i += 1;
        }
        txn += 1;
    }
    steps
}

fn setup(seed: u64) -> (Oltp, f64) {
    let mut ssd = Ssd::new(ssd_config()).expect("oltp_slo config is valid");
    let page = ssd.logical_page_bytes();
    let capacity = ssd.capacity_bytes();
    let (gen_s, steps) = common::timed(|| generate(seed, capacity, page));
    // Sequential fill of the database and log regions.  The rest of the
    // exported space stays unwritten, so the free pool stays above the
    // cleaning watermark for a whole ladder pass (which writes ~200k
    // pages, map writebacks included, against ~345k pages of headroom).
    let fill_bytes = database_bytes(capacity, page) + log_bytes(capacity, page);
    let mut queues = vec![HostQueue::new(); INITIATORS];
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut offset = 0u64;
    while offset < fill_bytes {
        let len = (64 * page).min(fill_bytes - offset);
        let range = ByteRange::new(offset, len);
        let hint = Default::default();
        queues[0].submit(id, HostCommand::Write { range, hint }, at);
        ssd.serve(&mut queues[..1]).expect("fill write");
        at = queues[0].poll().expect("fill completion").finish;
        offset += len;
        id += 1;
    }
    let oltp = Oltp {
        ssd,
        queues,
        steps,
        filled_pages: fill_bytes / page,
        clock: at,
        id,
    };
    (oltp, gen_s)
}

impl Oltp {
    /// Serves ladder step `s` as one open-loop session starting after an
    /// idle gap.
    fn step(&mut self, s: usize, tracer: &mut Tracer, checker: &mut Checker) -> StepOut {
        let base = self.clock + STEP_GAP;
        let before = Snapshot::of(&self.ssd);
        let cmds = &self.steps[s];
        let first_id = self.id;
        self.id += cmds.len() as u64;
        let issued: Vec<Issued> = cmds
            .iter()
            .enumerate()
            .map(|(k, c)| Issued {
                initiator: c.initiator,
                id: first_id + k as u64,
                arrival: base + SimDuration::from_nanos(c.due_ns),
                kind: c.kind,
            })
            .collect();
        let queues = &mut self.queues;
        tracer.span("block.queue", s as u64, || {
            for (c, i) in cmds.iter().zip(&issued) {
                queues[c.initiator].submit(i.id, c.command, i.arrival);
            }
        });
        if tracer.enabled() {
            tracer.span("block.arbitrate", s as u64, || {
                black_box(arbitrate_round_robin(black_box(queues)))
            });
        }
        let ssd = &mut self.ssd;
        let (serve_s, served) =
            common::timed(|| tracer.span("ssd.serve", s as u64, || ssd.serve(queues)));
        served.expect("oltp_slo serve");
        let completed = tracer.span("block.queue", s as u64, || check::drain(queues));
        let mut window = Window::default();
        let mut arrivals = Vec::with_capacity(issued.len());
        let mut finishes = Vec::with_capacity(issued.len());
        for (i, c) in checker.session(&issued, completed) {
            let cmd = &self.steps[s][(i.id - first_id) as usize];
            let bytes = cmd.command.range().map_or(0, |r| r.len);
            window.record(i.kind, bytes, c.arrival.as_nanos(), c.finish.as_nanos());
            arrivals.push(c.arrival.as_nanos());
            finishes.push(c.finish.as_nanos());
            self.clock = self.clock.max(c.finish);
        }
        let mut reads = window.read_ns.clone();
        reads.sort_unstable();
        StepOut {
            growing: stats::growing_backlog(&arrivals, &finishes),
            read_p999_us: stats::percentile(&reads, 99.9).map(|ns| ns as f64 / 1e3),
            dev: DeviceDelta::between(before, Snapshot::of(&self.ssd), GEOMETRY.elements()),
            window,
            serve_s,
        }
    }

    /// One pass over the ladder.  With `records`, the blame records of the
    /// nominal step are moved there; with `telemetry`, that handle watches
    /// the nominal step only.
    fn pass(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        mut records: Option<&mut Vec<BlameRecord>>,
        telemetry: Option<&TelemetryHandle>,
    ) -> Vec<StepOut> {
        let mut out = Vec::with_capacity(LADDER.len());
        for s in 0..LADDER.len() {
            if let (true, Some(handle)) = (s == NOMINAL, telemetry) {
                self.ssd.set_telemetry(handle.clone());
            }
            out.push(self.step(s, tracer, checker));
            self.ssd.set_telemetry(TelemetryHandle::noop());
            if let Some(records) = records.as_deref_mut() {
                let taken = self.ssd.take_blame_records();
                if s == NOMINAL {
                    *records = taken;
                }
            }
        }
        out
    }
}

/// Checks a pass's steps and returns the highest offered rate whose p99.9
/// read latency meets the limit without a growing backlog (0 if none).
fn judge(checker: &mut Checker, steps: &[StepOut]) -> f64 {
    let mut best = 0.0;
    for (s, out) in steps.iter().enumerate() {
        out.dev.check(checker, &out.window, &FlashTiming::slc());
        println!(
            "step {s}: offered {:.0} cmds/s, achieved {:.0}, read p99.9 {:?} us, \
             growing backlog {}, serve {:.3} s wall",
            LADDER[s],
            out.window.cmds as f64 / out.window.sim_seconds(),
            out.read_p999_us,
            out.growing,
            out.serve_s
        );
        if out.read_p999_us.is_some_and(|p| p <= READ_P999_LIMIT_US) && !out.growing {
            best = LADDER[s];
        }
    }
    let nominal = &steps[NOMINAL];
    checker.expect(!nominal.growing, || {
        format!(
            "the nominal step ({} cmds/s) has a growing backlog",
            LADDER[NOMINAL]
        )
    });
    best
}

fn print_geometry(o: &Oltp) {
    println!(
        "geometry: {} elements x {} blocks x {} pages, {} pages filled, map budget {} entries; \
         ladder {:?} cmds/s (nominal step {}), read p99.9 limit {} us",
        GEOMETRY.elements(),
        GEOMETRY.blocks_per_plane,
        GEOMETRY.pages_per_block,
        o.filled_pages,
        MAP_BUDGET,
        LADDER,
        NOMINAL,
        READ_P999_LIMIT_US
    );
}

/// The untraced run: median-of-nine setup, then whole ladder passes for
/// the requested time, each from a freshly set-up device (set-up is not
/// timed there) with its own derived input seed; sim metrics pool the
/// nominal steps of the first [`SIM_ROUNDS`] passes.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let (oltp, _) = common::timed_setups(ctx, 9, || setup(seed));
    print_geometry(&oltp);
    let mut oltp = Some(oltp);
    let mut tracer = Tracer::new(false);
    let mut nominal: Vec<StepOut> = Vec::new();
    let checker = &mut ctx.checker;
    let rounds = common::timed_rounds(ctx.seconds, SIM_ROUNDS, |r| {
        let mut device = oltp
            .take()
            .unwrap_or_else(|| setup(common::round_seed(seed, r)).0);
        let (wall_s, steps) = common::timed(|| device.pass(&mut tracer, checker, None, None));
        let cmds = steps.iter().map(|s| s.window.cmds).sum();
        let ops = steps.iter().map(|s| s.dev.flash.total()).sum();
        if r < SIM_ROUNDS {
            judge(checker, &steps);
            nominal.extend(steps.into_iter().nth(NOMINAL));
        }
        (wall_s, cmds, ops)
    });
    ctx.attempted += rounds.iter().map(|r| r.1).sum::<u64>();
    common::report_rounds(ctx, &rounds);
    let mut flash = FlashCounts::default();
    for step in &nominal {
        flash.add(&step.dev.flash);
    }
    let windows: Vec<&Window> = nominal.iter().map(|s| &s.window).collect();
    common::report_sim(ctx, &windows, &flash);
}

/// The traced run: one ladder pass from three identical preconditioned
/// devices (untraced, with spans, with the counting sink and blame
/// attribution on the nominal step), then standalone FTL and map-cache
/// replays of the nominal step.
pub fn run_traced(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let (mut oltp, gen_s) = setup(seed);
    let (plain_s, plain) =
        common::timed(|| oltp.pass(&mut Tracer::new(false), &mut ctx.checker, None, None));
    let streams: Vec<Vec<Cmd>> = oltp.steps.clone();
    let filled = oltp.filled_pages;
    drop(oltp);
    let (mut oltp, _) = setup(seed);
    let mut tracer = Tracer::new(true);
    let (spanned_s, spanned) =
        common::timed(|| oltp.pass(&mut tracer, &mut ctx.checker, None, None));
    drop(oltp);
    let (mut oltp, _) = setup(seed);
    oltp.ssd.enable_attribution();
    let (sink, handle) = CountingSink::attach();
    let mut records = Vec::new();
    let (full_s, full) = common::timed(|| {
        oltp.pass(
            &mut Tracer::new(false),
            &mut ctx.checker,
            Some(&mut records),
            Some(&handle),
        )
    });
    drop(oltp);

    for (what, pass) in [("spanned", &spanned), ("counted", &full)] {
        let same = pass.iter().zip(&plain).all(|(a, b)| a.window == b.window);
        ctx.checker.expect(same, || {
            format!("the {what} pass's completions differ from the untraced one")
        });
    }
    ctx.attempted += full.iter().map(|s| s.window.cmds).sum::<u64>();
    let slo_rate = judge(&mut ctx.checker, &full);
    let nominal = &full[NOMINAL];
    let cmds = nominal.window.cmds as f64;
    let flash_ops = nominal.dev.flash.total() as f64;
    let step = NOMINAL as u64;
    let serve_s = tracer.total_for("ssd.serve", step);
    let m = &mut ctx.metrics;
    m.set(
        "block.arbitrate_ns_per_cmd",
        tracer.total_for("block.arbitrate", step) * 1e9 / cmds,
    );
    m.set(
        "block.queue_ns_per_cmd",
        tracer.total_for("block.queue", step) * 1e9 / cmds,
    );
    m.set("block.cmds", cmds);
    m.set("block.sim_max_iops_at_slo", slo_rate);
    m.set("ssd.serve_ns_per_cmd", serve_s * 1e9 / cmds);
    m.set("telemetry.span_overhead", spanned_s / plain_s - 1.0);
    m.set("telemetry.full_overhead", full_s / plain_s - 1.0);
    m.set("workload.gen_s", gen_s);
    nominal.dev.record_layers(ctx, &nominal.window);
    nominal
        .dev
        .record_flash_counts(ctx, &sink.lock().expect("counting sink lock"));
    match trace::read_tail_blame(records.iter()) {
        Some(shares) => {
            for (cat, share) in BlameCat::ALL.iter().zip(shares) {
                ctx.metrics.set(crate::report::blame_metric(*cat), share);
            }
        }
        None => ctx
            .checker
            .fail("too few reads for a p99.9 blame tail".into()),
    }

    let page = u64::from(GEOMETRY.page_bytes);
    let (ftl_s, pages) = replay_ftl(filled, &streams, page);
    ctx.metrics
        .set("ftl.ns_per_host_page", ftl_s * 1e9 / pages as f64);
    ctx.metrics.set(
        "ssd.self_ns_per_flash_op",
        (serve_s - ftl_s) * 1e9 / flash_ops,
    );
    let (map_s, lookups) = replay_map(&streams, page);
    ctx.metrics
        .set("mapcache.ns_per_lookup", map_s * 1e9 / lookups as f64);
    common::repeat_span_windows(ctx, |r, checker| {
        let (mut oltp, _) = setup(common::round_seed(seed, r));
        let mut tracer = Tracer::new(true);
        let steps = oltp.pass(&mut tracer, checker, None, None);
        judge(checker, &steps);
        let cmds = steps[NOMINAL].window.cmds as f64;
        let per_cmd = |name| tracer.total_for(name, step) * 1e9 / cmds;
        [
            ("block.arbitrate_ns_per_cmd", per_cmd("block.arbitrate")),
            ("block.queue_ns_per_cmd", per_cmd("block.queue")),
            ("ssd.serve_ns_per_cmd", per_cmd("ssd.serve")),
        ]
    });
    if let Err(e) = tracer.write_csv(&ctx.span_path) {
        ctx.checker.fail(format!("writing spans: {e}"));
    }
    println!(
        "spans: {} written to {}",
        tracer.len(),
        ctx.span_path.display()
    );
}

/// `(lpn, covered bytes, write)` of every logical page a command touches.
fn page_ops(cmd: &Cmd, page: u64) -> impl Iterator<Item = (u64, u64, bool)> {
    let range = cmd.command.range();
    let write = matches!(cmd.kind, Kind::Write { .. });
    range.into_iter().flat_map(move |r| {
        (r.offset / page..=(r.end() - 1) / page).map(move |lpn| {
            let lo = r.offset.max(lpn * page);
            let hi = r.end().min((lpn + 1) * page);
            (lpn, hi - lo, write)
        })
    })
}

/// Replays the fill and the steps before the nominal one (untimed), then
/// the nominal step's pages (timed, in arrival order) through a standalone
/// demand-paged `PageFtl`.  Returns `(seconds, pages)`.
fn replay_ftl(filled: u64, steps: &[Vec<Cmd>], page: u64) -> (f64, u64) {
    let mut ftl = PageFtl::with_reliability(
        GEOMETRY,
        FlashTiming::slc(),
        ftl_config(),
        ReliabilityConfig::none(),
    )
    .expect("replay FTL config");
    let ctx = WriteContext::idle();
    let mut ops = Vec::new();
    let mut apply = |ftl: &mut PageFtl, lpn: u64, covered: u64, write: bool| {
        ops.clear();
        if write {
            ftl.write_into(Lpn(lpn), covered, &ctx, &mut ops)
                .expect("replay write");
        } else {
            ftl.read_into(Lpn(lpn), covered, &mut ops)
                .expect("replay read");
        }
        black_box(&ops);
    };
    for lpn in 0..filled {
        apply(&mut ftl, lpn, page, true);
    }
    for cmd in steps[..NOMINAL].iter().flatten() {
        for (lpn, covered, write) in page_ops(cmd, page) {
            apply(&mut ftl, lpn, covered, write);
        }
    }
    let mut pages = 0u64;
    let (secs, ()) = common::timed(|| {
        for cmd in &steps[NOMINAL] {
            for (lpn, covered, write) in page_ops(cmd, page) {
                apply(&mut ftl, lpn, covered, write);
                pages += 1;
            }
        }
    });
    (secs, pages)
}

/// Replays the host pages' map lookups through a standalone `MapCache` at
/// the workload's budget: the earlier steps warm it, the nominal step is
/// timed.  A miss inserts the entry (dirty for a write); a write hit marks
/// it dirty.  Returns `(seconds, lookups)`.
fn replay_map(steps: &[Vec<Cmd>], page: u64) -> (f64, u64) {
    let config = MapCacheConfig::default().with_budget(MAP_BUDGET);
    let mut cache = MapCache::new(config, page / 8);
    let touch = |cache: &mut MapCache, lpn: u64, write: bool| {
        if cache.lookup(lpn).is_none() {
            black_box(cache.insert(lpn, lpn, write));
        } else if write {
            cache.update(lpn, lpn, true);
        }
    };
    for cmd in steps[..NOMINAL].iter().flatten() {
        for (lpn, _, write) in page_ops(cmd, page) {
            touch(&mut cache, lpn, write);
        }
    }
    let mut lookups = 0u64;
    let (secs, ()) = common::timed(|| {
        for cmd in &steps[NOMINAL] {
            for (lpn, _, write) in page_ops(cmd, page) {
                touch(&mut cache, lpn, write);
                lookups += 1;
            }
        }
    });
    (secs, lookups)
}

/// Measures the closed-loop capacity the ladder is set against: the four
/// initiators replay the first two steps' commands, each issuing its next
/// command the moment its previous one completes; the second step's rate
/// is the capacity.
pub fn calibrate(seed: u64) {
    let (mut oltp, _) = setup(seed);
    print_geometry(&oltp);
    let mut checker = Checker::default();
    for s in 0..2 {
        let capacity = closed_loop(&mut oltp, s, &mut checker);
        println!("closed loop over step {s}'s commands: {capacity:.0} data cmds/s");
        if s == 1 {
            println!(
                "ladder at 0.5/0.8/0.95 of it: [{:.0}, {:.0}, {:.0}] (checks {})",
                0.5 * capacity,
                0.8 * capacity,
                0.95 * capacity,
                if checker.passed() { "passed" } else { "FAILED" }
            );
        }
    }
}

/// Replays step `s`'s commands in a closed loop (each initiator issues its
/// next command when the previous one completes); returns data commands
/// per simulated second.
fn closed_loop(oltp: &mut Oltp, s: usize, checker: &mut Checker) -> f64 {
    let cmds = oltp.steps[s].clone();
    let mut per_initiator: Vec<Vec<Cmd>> = vec![Vec::new(); INITIATORS];
    for c in cmds {
        per_initiator[c.initiator].push(c);
    }
    let mut cursor = [0usize; INITIATORS];
    let start = oltp.clock + STEP_GAP;
    let mut next = [start; INITIATORS];
    let mut data = 0u64;
    let mut end = start;
    while let Some(i) = (0..INITIATORS)
        .filter(|&i| cursor[i] < per_initiator[i].len())
        .min_by_key(|&i| next[i])
    {
        let c = per_initiator[i][cursor[i]];
        cursor[i] += 1;
        let id = oltp.id;
        oltp.id += 1;
        oltp.queues[i].submit(id, c.command, next[i]);
        oltp.ssd.serve(&mut oltp.queues).expect("calibration serve");
        let issued = Issued {
            initiator: i,
            id,
            arrival: next[i],
            kind: c.kind,
        };
        for (_, done) in checker.session(&[issued], check::drain(&mut oltp.queues)) {
            next[i] = done.finish;
            end = end.max(done.finish);
        }
        data += u64::from(c.kind != Kind::Flush);
    }
    oltp.clock = end;
    data as f64 / end.saturating_since(start).as_secs_f64()
}
