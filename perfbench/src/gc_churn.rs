//! `gc_churn`: one page-mapped SLC device at the paper-scale geometry
//! (2 elements x 8192 blocks x 64 pages), resident map, no faults, no
//! background GC.  A full sequential fill, then a closed loop of one
//! writer (random overwrites) and one reader (random reads), both with a
//! 1/2/4/8-page size mix and exponential think times, so reads queue
//! behind inline relocation and writes behind reads.

use std::hint::black_box;

use ossd_block::{
    arbitrate_round_robin, BlockDevice, ByteRange, HostCommand, HostInterface, HostQueue,
};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::{Ftl, FtlConfig, FtlStats, Lpn, PageFtl, WriteContext};
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};

use crate::check::{self, Checker, Issued, Kind};
use crate::common::{self, Ctx, FlashCounts, Window, SIM_ROUNDS};
use crate::device::{DeviceDelta, Snapshot};
use crate::trace::{self, CountingSink, Tracer};

/// The paper-scale geometry of `sim_throughput`.
pub const GEOMETRY: FlashGeometry = FlashGeometry {
    packages: 2,
    dies_per_package: 1,
    planes_per_die: 1,
    blocks_per_plane: 8192,
    pages_per_block: 64,
    page_bytes: 4096,
};

/// Writer commands per round; round 0 is the measured window.
pub const WRITES_PER_ROUND: u64 = 40_000;

/// Pages per fill command.
const FILL_PAGES: u64 = 64;

/// Mean think times of the writer and the reader between a completion and
/// their next command (exponential), so arrivals fall at random points of
/// the other client's busy periods rather than on a fixed grid.
const WRITER_THINK: SimDuration = SimDuration::from_micros(100);
const READER_THINK: SimDuration = SimDuration::from_micros(20);

/// Command size in pages: 5/8 single pages, 1/8 each of 2, 4 and 8.
fn size_mix(rng: &mut SimRng) -> u64 {
    match rng.next_u64_below(8) {
        0..=4 => 1,
        5 => 2,
        6 => 4,
        _ => 8,
    }
}

fn ftl_config() -> FtlConfig {
    // Modest over-provisioning with watermarks a little above it keeps the
    // device cleaning on the write path for the whole churn.
    FtlConfig::default()
        .with_overprovisioning(0.12)
        .with_watermarks(0.10, 0.04)
}

fn ssd_config() -> SsdConfig {
    SsdConfig {
        name: "gc_churn".to_string(),
        geometry: GEOMETRY,
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: ftl_config(),
        reliability: ReliabilityConfig::none(),
        background_gc: None,
        gangs: 2,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 1,
        controller_overhead: SimDuration::from_micros(20),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// One host page operation as the FTL sees it, for the standalone replay.
#[derive(Clone, Copy)]
struct PageOp {
    write: bool,
    lpn: u64,
}

/// The preconditioned device and the two closed-loop clients.
struct Churn {
    ssd: Ssd,
    queues: Vec<HostQueue>,
    writer: SimRng,
    reader: SimRng,
    logical_pages: u64,
    page: u64,
    /// When each client issues next (writer, reader).
    next: [SimTime; 2],
    id: u64,
}

/// One round's host-visible outcome, device work and wall time.
struct RoundOut {
    window: Window,
    dev: DeviceDelta,
    wall_s: f64,
}

fn setup(seed: u64) -> Churn {
    let mut ssd = Ssd::new(ssd_config()).expect("gc_churn config is valid");
    let page = ssd.logical_page_bytes();
    let logical_pages = ssd.capacity_bytes() / page;
    let mut queues = vec![HostQueue::new(), HostQueue::new()];
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut lpn = 0u64;
    while lpn < logical_pages {
        let pages = FILL_PAGES.min(logical_pages - lpn);
        let range = ByteRange::new(lpn * page, pages * page);
        queues[0].submit(
            id,
            HostCommand::Write {
                range,
                hint: Default::default(),
            },
            at,
        );
        ssd.serve(&mut queues[..1]).expect("fill write");
        at = queues[0].poll().expect("fill completion").finish;
        lpn += pages;
        id += 1;
    }
    let mut root = SimRng::seed_from_u64(seed);
    Churn {
        ssd,
        queues,
        writer: root.fork(1),
        reader: root.fork(2),
        logical_pages,
        page,
        next: [at, at],
        id,
    }
}

impl Churn {
    /// Runs the closed loop until the writer has issued `writes` commands.
    fn round(
        &mut self,
        writes: u64,
        tracer: &mut Tracer,
        checker: &mut Checker,
        mut stream: Option<&mut Vec<PageOp>>,
    ) -> RoundOut {
        let before = Snapshot::of(&self.ssd);
        let mut window = Window::default();
        let mut issued_writes = 0u64;
        let start = std::time::Instant::now();
        while issued_writes < writes {
            let i = usize::from(self.next[1] < self.next[0]);
            let at = self.next[i];
            let rng = if i == 0 {
                &mut self.writer
            } else {
                &mut self.reader
            };
            let pages = size_mix(rng);
            let lpn = rng.next_u64_below(self.logical_pages - pages + 1);
            let range = ByteRange::new(lpn * self.page, pages * self.page);
            let (kind, command) = if i == 0 {
                let hint = Default::default();
                (Kind::Write { pages }, HostCommand::Write { range, hint })
            } else {
                (Kind::Read { pages }, HostCommand::Read { range })
            };
            let id = self.id;
            self.id += 1;
            let issued = Issued {
                initiator: i,
                id,
                arrival: at,
                kind,
            };
            let queues = &mut self.queues;
            tracer.span("block.queue", id, || queues[i].submit(id, command, at));
            if tracer.enabled() {
                tracer.span("block.arbitrate", id, || {
                    black_box(arbitrate_round_robin(black_box(queues)))
                });
            }
            let ssd = &mut self.ssd;
            tracer
                .span("ssd.serve", id, || ssd.serve(queues))
                .expect("gc_churn serve");
            let completed = tracer.span("block.queue", id, || check::drain(queues));
            // A missing completion is already a failed check; stop the
            // round rather than reissue from a client that never returned.
            let Some(&(_, c)) = checker.session(&[issued], completed).first() else {
                break;
            };
            window.record(
                kind,
                pages * self.page,
                c.arrival.as_nanos(),
                c.finish.as_nanos(),
            );
            let (rng, think) = if i == 0 {
                (&mut self.writer, WRITER_THINK)
            } else {
                (&mut self.reader, READER_THINK)
            };
            self.next[i] = c.finish + rng.exponential_duration(think);
            if let Some(stream) = stream.as_deref_mut() {
                let write = i == 0;
                stream.extend((lpn..lpn + pages).map(|lpn| PageOp { write, lpn }));
            }
            issued_writes += u64::from(i == 0);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let dev = DeviceDelta::between(before, Snapshot::of(&self.ssd), GEOMETRY.elements());
        RoundOut {
            window,
            dev,
            wall_s,
        }
    }
}

/// The untraced run: median-of-five setup, then whole rounds for the
/// requested time, each on a freshly filled device (set-up is not timed
/// there) with its own derived seed, so every round measures the same
/// stretch of the churn; sim metrics pool the first [`SIM_ROUNDS`] rounds.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let churn = common::timed_setups(ctx, 5, || setup(seed));
    println!(
        "geometry: {} elements x {} blocks x {} pages, {} logical pages",
        GEOMETRY.elements(),
        GEOMETRY.blocks_per_plane,
        GEOMETRY.pages_per_block,
        churn.logical_pages
    );
    let mut churn = Some(churn);
    let mut tracer = Tracer::new(false);
    let mut pooled: Vec<RoundOut> = Vec::new();
    let checker = &mut ctx.checker;
    let rounds = common::timed_rounds(ctx.seconds, SIM_ROUNDS, |r| {
        let mut device = churn
            .take()
            .unwrap_or_else(|| setup(common::round_seed(seed, r)));
        let out = device.round(WRITES_PER_ROUND, &mut tracer, checker, None);
        let counts = (out.wall_s, out.window.cmds, out.dev.flash.total());
        if r < SIM_ROUNDS {
            out.dev.check(checker, &out.window, &FlashTiming::slc());
            pooled.push(out);
        }
        counts
    });
    ctx.attempted += rounds.iter().map(|r| r.1).sum::<u64>();
    common::report_rounds(ctx, &rounds);
    let mut flash = FlashCounts::default();
    for out in &pooled {
        flash.add(&out.dev.flash);
    }
    let windows: Vec<&Window> = pooled.iter().map(|o| &o.window).collect();
    common::report_sim(ctx, &windows, &flash);
}

/// The traced run: the measured window three times from identical
/// preconditioned devices (untraced, with spans, with the counting sink
/// and blame attribution), then the standalone FTL replays.
pub fn run_traced(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let m = &mut ctx.metrics;
    // A: the untraced reference.
    let mut churn = setup(seed);
    let plain = churn.round(
        WRITES_PER_ROUND,
        &mut Tracer::new(false),
        &mut ctx.checker,
        None,
    );
    drop(churn);
    // B: spans around every layer call.
    let mut churn = setup(seed);
    let mut tracer = Tracer::new(true);
    let spanned = churn.round(WRITES_PER_ROUND, &mut tracer, &mut ctx.checker, None);
    drop(churn);
    // C: counting sink + attribution, recording the page stream.
    let mut churn = setup(seed);
    let (sink, handle) = CountingSink::attach();
    churn.ssd.set_telemetry(handle);
    churn.ssd.enable_attribution();
    let mut stream = Vec::new();
    let full = churn.round(
        WRITES_PER_ROUND,
        &mut Tracer::new(false),
        &mut ctx.checker,
        Some(&mut stream),
    );
    let records = churn.ssd.take_blame_records();
    let device_ftl = churn.ssd.ftl_stats();
    drop(churn);

    for (what, out) in [("spanned", &spanned), ("counted", &full)] {
        ctx.checker.expect(out.window == plain.window, || {
            format!("the {what} window's completions differ from the untraced one")
        });
    }
    full.dev
        .check(&mut ctx.checker, &full.window, &FlashTiming::slc());

    ctx.attempted += full.window.cmds;
    let cmds = full.window.cmds as f64;
    let flash_ops = full.dev.flash.total() as f64;
    let (arb_s, _) = tracer.total("block.arbitrate");
    let (queue_s, _) = tracer.total("block.queue");
    let (serve_s, _) = tracer.total("ssd.serve");
    m.set("block.arbitrate_ns_per_cmd", arb_s * 1e9 / cmds);
    m.set("block.queue_ns_per_cmd", queue_s * 1e9 / cmds);
    m.set("block.cmds", cmds);
    m.set("ssd.serve_ns_per_cmd", serve_s * 1e9 / cmds);
    m.set(
        "telemetry.span_overhead",
        spanned.wall_s / plain.wall_s - 1.0,
    );
    m.set("telemetry.full_overhead", full.wall_s / plain.wall_s - 1.0);
    full.dev.record_layers(ctx, &full.window);
    full.dev
        .record_flash_counts(ctx, &sink.lock().expect("counting sink lock"));
    let m = &mut ctx.metrics;
    match trace::read_tail_blame(records.iter()) {
        Some(shares) => {
            for (cat, share) in ossd_telemetry::BlameCat::ALL.iter().zip(shares) {
                m.set(crate::report::blame_metric(*cat), share);
            }
        }
        None => ctx
            .checker
            .fail("too few reads for a p99.9 blame tail".into()),
    }

    // Standalone FTL replays of the fill plus the window's page stream.
    let fill = plain.dev.before.ftl.host_writes;
    let replay_s = replay(&mut ctx.checker, fill, &stream, GEOMETRY, Some(&device_ftl));
    let host_pages = stream.len() as f64;
    let m = &mut ctx.metrics;
    m.set("ftl.ns_per_host_page", replay_s * 1e9 / host_pages);
    m.set(
        "ssd.self_ns_per_flash_op",
        (serve_s - replay_s) * 1e9 / flash_ops,
    );
    let roomy = roomy_geometry(fill, stream.iter().filter(|p| p.write).count() as u64);
    let plain_s = replay(&mut ctx.checker, fill, &stream, roomy, None);
    let moved = (full.dev.after.ftl.gc_pages_moved - full.dev.before.ftl.gc_pages_moved) as f64;
    ctx.metrics.set(
        "gc.ns_per_page_moved",
        (replay_s - plain_s) * 1e9 / moved.max(1.0),
    );
    common::repeat_span_windows(ctx, |r, checker| {
        let mut churn = setup(common::round_seed(seed, r));
        let mut tracer = Tracer::new(true);
        let out = churn.round(WRITES_PER_ROUND, &mut tracer, checker, None);
        out.dev.check(checker, &out.window, &FlashTiming::slc());
        let cmds = out.window.cmds as f64;
        [
            (
                "block.arbitrate_ns_per_cmd",
                tracer.total("block.arbitrate").0 * 1e9 / cmds,
            ),
            (
                "block.queue_ns_per_cmd",
                tracer.total("block.queue").0 * 1e9 / cmds,
            ),
            (
                "ssd.serve_ns_per_cmd",
                tracer.total("ssd.serve").0 * 1e9 / cmds,
            ),
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

/// A geometry with the same page size and element count whose free pool
/// holds `fill` pages plus `extra` more above the cleaning watermark, so an
/// FTL over it never cleans during the replay.
fn roomy_geometry(fill: u64, extra: u64) -> FlashGeometry {
    let need = ((fill + extra) as f64 / 0.85) as u64;
    let per_block = u64::from(GEOMETRY.pages_per_block) * u64::from(GEOMETRY.elements());
    FlashGeometry {
        blocks_per_plane: need.div_ceil(per_block) as u32,
        ..GEOMETRY
    }
}

/// Replays the sequential fill of `fill_pages` (untimed) and then `stream` (timed) through
/// a standalone `PageFtl` over `geometry`; returns the stream's wall
/// seconds.  With `expect` given, the replay's counters must equal it;
/// without, the FTL must never have cleaned.
fn replay(
    checker: &mut Checker,
    fill_pages: u64,
    stream: &[PageOp],
    geometry: FlashGeometry,
    expect: Option<&FtlStats>,
) -> f64 {
    let config = match expect {
        Some(_) => ftl_config(),
        // Export just over the measured device's logical space.
        None => ftl_config()
            .with_overprovisioning(1.0 - 1.02 * fill_pages as f64 / geometry.total_pages() as f64),
    };
    let mut ftl = PageFtl::with_reliability(
        geometry,
        FlashTiming::slc(),
        config,
        ReliabilityConfig::none(),
    )
    .expect("replay FTL config");
    let ctx = WriteContext::idle();
    let mut ops = Vec::new();
    let page = GEOMETRY.page_bytes as u64;
    for lpn in 0..fill_pages {
        ops.clear();
        ftl.write_into(Lpn(lpn), page, &ctx, &mut ops)
            .expect("replay fill");
    }
    let (secs, ()) = common::timed(|| {
        for op in stream {
            ops.clear();
            if op.write {
                ftl.write_into(Lpn(op.lpn), page, &ctx, &mut ops)
                    .expect("replay write");
            } else {
                ftl.read_into(Lpn(op.lpn), page, &mut ops)
                    .expect("replay read");
            }
            black_box(&ops);
        }
    });
    let stats = ftl.stats();
    match expect {
        Some(device) => checker.expect(stats == *device, || {
            format!("standalone FTL replay gave {stats:?}, the device {device:?}")
        }),
        None => checker.expect(stats.gc_invocations == 0, || {
            format!("the roomy replay cleaned {} times", stats.gc_invocations)
        }),
    }
    secs
}
