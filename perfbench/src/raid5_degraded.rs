//! `raid5_degraded`: a 4-member rotating-parity fleet on two worker
//! threads with seeded wear-out faults.  After the fill one member fails
//! and is replaced; an open-loop mixed read/write stream at a fixed rate
//! runs while `rebuild_range` reconstructs onto the replacement under a
//! bandwidth-limited `RebuildQos`, and the round ends with `Fleet::scrub`.

use std::hint::black_box;

use ossd_block::{
    arbitrate_round_robin, BlockDevice, ByteRange, HostCommand, HostInterface, HostQueue,
};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_fleet::{parity, DegradedView, Fleet, FleetConfig, ParityGeometry, RebuildQos, SubOpKind};
use ossd_ftl::FtlConfig;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig, SsdStats};
use ossd_telemetry::{BlameCat, BlameRecord, TelemetryHandle};

use crate::check::{self, Checker, Issued, Kind};
use crate::common::{self, Ctx, FlashCounts, Window, SIM_ROUNDS};
use crate::device;
use crate::raid::{Failed, Layout};
use crate::stats;
use crate::trace::{self, CountingSink, Tracer};

/// Member geometry: 2 elements x 128 blocks x 64 pages of 4 KiB.
pub const GEOMETRY: FlashGeometry = FlashGeometry {
    packages: 2,
    dies_per_package: 1,
    planes_per_die: 1,
    blocks_per_plane: 128,
    pages_per_block: 64,
    page_bytes: 4096,
};

/// Members of the array.
pub const MEMBERS: usize = 4;

/// Stripe unit: one logical page.
pub const UNIT: u64 = 4096;

/// Worker threads serving the members.
pub const THREADS: usize = 2;

/// Offered host rate, commands per simulated second (half reads, half
/// writes, one stripe unit each).
pub const RATE: f64 = 3_000.0;

/// Rebuild bandwidth budget, bytes per simulated second.
pub const REBUILD_BYTES_PER_S: u64 = 4 * 1024 * 1024;

/// The p99.9 read latency the stream must meet to count for
/// `block.sim_max_iops_at_slo`, in microseconds.
pub const READ_P999_LIMIT_US: f64 = 50_000.0;

/// Initiator queue pairs.
const INITIATORS: usize = 4;

/// Simulated length of one serve session of the open-loop stream (about
/// 150 commands).
const EPOCH: SimDuration = SimDuration::from_millis(50);

/// Rows per rebuild chunk.
const CHUNK_ROWS: u64 = 32;

fn device_config() -> SsdConfig {
    // Stressed raw bit-error rate: a visible share of reads needs an ECC
    // retry, and the odd one stays uncorrectable and is repaired from
    // parity.
    let mut reliability = ReliabilityConfig::wearout(0);
    reliability.faults.raw_ber_base = 4.0;
    SsdConfig {
        name: "raid5".to_string(),
        geometry: GEOMETRY,
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        // Generous over-provisioning keeps member cleaning light under the
        // random unit writes of a fully written array.
        ftl: FtlConfig::default()
            .with_overprovisioning(0.35)
            .with_watermarks(0.10, 0.04),
        reliability,
        background_gc: None,
        gangs: 1,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 8,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// A filled fleet and its seeded stream.
struct Array {
    fleet: Fleet,
    queues: Vec<HostQueue>,
    rng: SimRng,
    units: u64,
    clock: SimTime,
    id: u64,
}

/// One degraded episode's outcome.
struct RoundOut {
    window: Window,
    /// Per-member flash work during the round.
    flash: Vec<FlashCounts>,
    /// Per-member counters at the start and end of the round.
    before: Vec<SsdStats>,
    after: Vec<SsdStats>,
    subcmds: u64,
    degraded_reads: u64,
    expected_degraded_reads: u64,
    repaired_reads: u64,
    reconstructed_bytes: u64,
    expected_member_writes: u64,
    rebuilt_bytes: u64,
    rebuild_start: SimTime,
    rebuild_end: SimTime,
    admission_wait_ns: u64,
    scrub_wall_s: f64,
    /// `(watermark, command)` of every host command, for the planner replay.
    planned: Vec<(u64, SubOpKind, ByteRange)>,
    wall_s: f64,
}

impl RoundOut {
    fn flash_total(&self) -> FlashCounts {
        let mut total = FlashCounts::default();
        for f in &self.flash {
            total.add(f);
        }
        total
    }
}

fn setup(seed: u64, threads: usize) -> Array {
    let config = FleetConfig::parity(device_config(), MEMBERS, UNIT)
        .with_threads(threads)
        .with_seed(seed)
        .with_name("raid5");
    let mut fleet = Fleet::new(config).expect("raid5 config is valid");
    let capacity = fleet.capacity_bytes();
    let mut queues = vec![HostQueue::new(); INITIATORS];
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut offset = 0u64;
    // Full-row sequential fill.
    let chunk = 48 * UNIT * (MEMBERS as u64 - 1);
    while offset < capacity {
        let len = chunk.min(capacity - offset);
        let range = ByteRange::new(offset, len);
        let hint = Default::default();
        queues[0].submit(id, HostCommand::Write { range, hint }, at);
        fleet.serve(&mut queues[..1]).expect("fill write");
        at = queues[0].poll().expect("fill completion").finish;
        offset += len;
        id += 1;
    }
    Array {
        fleet,
        queues,
        rng: SimRng::seed_from_u64(seed).fork(0x5A1D),
        units: capacity / UNIT,
        clock: at,
        id,
    }
}

fn member_stats(fleet: &Fleet) -> Vec<SsdStats> {
    (0..MEMBERS)
        .map(|i| fleet.device_stats(i).expect("every member is live"))
        .collect()
}

impl Array {
    /// One degraded episode: fail and replace `member`, then serve the
    /// open-loop stream epoch by epoch while the rebuild runs, until the
    /// replacement is rebuilt; then scrub.
    fn round(
        &mut self,
        member: usize,
        tracer: &mut Tracer,
        checker: &mut Checker,
        telemetry: Option<&TelemetryHandle>,
    ) -> RoundOut {
        let start_wall = std::time::Instant::now();
        let layout = Layout {
            members: MEMBERS,
            unit: UNIT,
        };
        self.fleet.fail_device(member).expect("fail one member");
        self.fleet.replace_device(member).expect("replace it");
        if let Some(handle) = telemetry {
            for i in 0..MEMBERS {
                self.fleet.set_device_telemetry(i, handle.clone());
            }
        }
        self.fleet
            .set_rebuild_qos(RebuildQos::limited(REBUILD_BYTES_PER_S));
        let rows = self.fleet.parity_rows().expect("parity fleet");
        let before = member_stats(&self.fleet);
        let degraded0 = self.fleet.degraded_reads();
        let repaired0 = self.fleet.repaired_reads();
        let recon0 = self.fleet.reconstructed_bytes();
        let rebuilt0 = self.fleet.rebuilt_bytes();
        let mut out_window = Window::default();
        let mut planned = Vec::new();
        let mut subcmds = 0u64;
        let mut expected_degraded = 0u64;
        let mut expected_writes = 0u64;
        let mut next_row = 0u64;
        let mut waiting_since: Option<SimTime> = None;
        let mut admission_wait_ns = 0u64;
        let mut rebuild_end = self.clock;
        let rebuild_start = self.clock + EPOCH;
        let mut epoch_start = rebuild_start;
        let mut due = epoch_start;
        let mean_gap = SimDuration::from_secs_f64(1.0 / RATE);
        let mut arrivals = Vec::new();
        let mut finishes = Vec::new();
        while next_row < rows {
            // Rebuild chunks admitted at the epoch boundary, as far as the
            // governor clears them on the spot.
            let at = epoch_start;
            for _ in 0..4 {
                if next_row >= rows {
                    break;
                }
                let len = CHUNK_ROWS.min(rows - next_row) * UNIT;
                if self.fleet.preview_rebuild_admission(at, len) > at {
                    waiting_since.get_or_insert(at);
                    break;
                }
                if let Some(since) = waiting_since.take() {
                    admission_wait_ns += at.saturating_since(since).as_nanos();
                }
                let fleet = &mut self.fleet;
                let (_, write) = tracer
                    .span("fleet.rebuild_range", next_row, || {
                        fleet.rebuild_range(member, ByteRange::new(next_row * UNIT, len), at)
                    })
                    .expect("rebuild chunk");
                rebuild_end = rebuild_end.max(write.finish);
                expected_writes += len / UNIT;
                next_row += len / UNIT;
            }
            // This epoch's open-loop commands.
            let watermark = self.fleet.degraded_device().map_or(rows, |(_, w)| w);
            let failed = Some(Failed {
                member,
                rebuilt_rows: watermark,
            });
            let epoch_end = epoch_start + EPOCH;
            let mut issued = Vec::new();
            while due < epoch_end {
                let unit = self.rng.next_u64_below(self.units);
                let range = ByteRange::new(unit * UNIT, UNIT);
                let read = self.rng.next_u64_below(2) == 0;
                let (kind, command, op) = if read {
                    expected_degraded +=
                        u64::from(layout.read_is_degraded(range.offset, UNIT, failed));
                    (
                        Kind::Read { pages: 1 },
                        HostCommand::Read { range },
                        SubOpKind::Read,
                    )
                } else {
                    expected_writes += layout.unit_write_programs(range.offset, failed);
                    let hint = Default::default();
                    (
                        Kind::Write { pages: 1 },
                        HostCommand::Write { range, hint },
                        SubOpKind::Write,
                    )
                };
                let initiator = (self.id % INITIATORS as u64) as usize;
                issued.push(Issued {
                    initiator,
                    id: self.id,
                    arrival: due,
                    kind,
                });
                let queues = &mut self.queues;
                let id = self.id;
                tracer.span("block.queue", id, || {
                    queues[initiator].submit(id, command, due)
                });
                planned.push((watermark, op, range));
                self.id += 1;
                due += self.rng.exponential_duration(mean_gap);
            }
            if !issued.is_empty() {
                let queues = &mut self.queues;
                let session = issued[0].id;
                if tracer.enabled() {
                    tracer.span("block.arbitrate", session, || {
                        black_box(arbitrate_round_robin(black_box(queues)))
                    });
                }
                let fleet = &mut self.fleet;
                tracer
                    .span("fleet.serve", session, || fleet.serve(queues))
                    .expect("raid5 serve");
                subcmds += self
                    .fleet
                    .last_fanout()
                    .iter()
                    .map(|&n| u64::from(n))
                    .sum::<u64>();
                let completed =
                    tracer.span("block.queue", session, || check::drain(&mut self.queues));
                for (i, c) in checker.session(&issued, completed) {
                    out_window.record(i.kind, UNIT, c.arrival.as_nanos(), c.finish.as_nanos());
                    arrivals.push(c.arrival.as_nanos());
                    finishes.push(c.finish.as_nanos());
                    self.clock = self.clock.max(c.finish);
                }
            }
            epoch_start = epoch_end;
        }
        self.clock = self.clock.max(rebuild_end).max(epoch_start);
        let after = member_stats(&self.fleet);
        let (scrub_wall_s, scrub) = common::timed(|| {
            tracer.span("fleet.scrub", 0, || {
                self.fleet.scrub().expect("parity fleet scrubs")
            })
        });
        checker.expect(scrub.is_clean(), || {
            format!("scrub after rebuild: {scrub:?}")
        });
        checker.expect(self.fleet.degraded_device().is_none(), || {
            "the fleet is still degraded after a full rebuild".into()
        });
        // The fill wrote every unit, so every unit must read back its last
        // write.
        let mismatched = (0..self.units)
            .filter(|&u| {
                let offset = u * UNIT;
                self.fleet.read_fingerprint(offset) != self.fleet.expected_fingerprint(offset)
            })
            .count();
        checker.expect(mismatched == 0, || {
            format!("{mismatched} units read back a different fingerprint")
        });
        checker.expect(!stats::growing_backlog(&arrivals, &finishes), || {
            "the degraded stream's backlog grows".into()
        });
        let flash = before
            .iter()
            .zip(&after)
            .map(|(b, a)| FlashCounts::of(a).since(&FlashCounts::of(b)))
            .collect();
        RoundOut {
            window: out_window,
            flash,
            before,
            after,
            subcmds,
            degraded_reads: self.fleet.degraded_reads() - degraded0,
            expected_degraded_reads: expected_degraded,
            repaired_reads: self.fleet.repaired_reads() - repaired0,
            reconstructed_bytes: self.fleet.reconstructed_bytes() - recon0,
            expected_member_writes: expected_writes,
            rebuilt_bytes: self.fleet.rebuilt_bytes() - rebuilt0,
            rebuild_start,
            rebuild_end,
            admission_wait_ns,
            scrub_wall_s,
            planned,
            wall_s: start_wall.elapsed().as_secs_f64(),
        }
    }
}

/// The identities a round must satisfy.
fn check_round(checker: &mut Checker, out: &RoundOut) {
    checker.expect(out.degraded_reads == out.expected_degraded_reads, || {
        format!(
            "fleet served {} degraded reads, the layout math predicts {}",
            out.degraded_reads, out.expected_degraded_reads
        )
    });
    let member_writes: u64 = out
        .before
        .iter()
        .zip(&out.after)
        .map(|(b, a)| a.ftl.host_writes - b.ftl.host_writes)
        .sum();
    // Transparent repair rewrites the unreadable unit on its member.
    let expected = out.expected_member_writes + out.repaired_reads;
    checker.expect(member_writes == expected, || {
        format!(
            "members counted {member_writes} host pages written, the layout math predicts \
             {expected}"
        )
    });
    for f in &out.flash {
        common::check_timing_bound(
            checker,
            &out.window,
            f,
            &FlashTiming::slc(),
            u64::from(GEOMETRY.elements()),
        );
    }
}

/// Records the episode's rebuild bandwidth and returns the offered rate
/// if its p99.9 read meets the limit (else 0).
fn report_rebuild(ctx: &mut Ctx, out: &RoundOut) -> f64 {
    let mut reads = out.window.read_ns.clone();
    reads.sort_unstable();
    let meets =
        stats::percentile(&reads, 99.9).is_some_and(|p| p as f64 / 1e3 <= READ_P999_LIMIT_US);
    let rebuild_s = out
        .rebuild_end
        .saturating_since(out.rebuild_start)
        .as_secs_f64();
    let rebuild_mb_s = out.rebuilt_bytes as f64 / 1e6 / rebuild_s;
    println!(
        "degraded episode: {} commands over {:.3} s sim, rebuild {:.2} MB/s sim, \
         {} degraded reads, {} repaired",
        out.window.cmds,
        out.window.sim_seconds(),
        rebuild_mb_s,
        out.degraded_reads,
        out.repaired_reads
    );
    ctx.metrics.set("fleet.sim_rebuild_mb_s", rebuild_mb_s);
    if meets {
        RATE
    } else {
        0.0
    }
}

fn print_geometry() {
    println!(
        "geometry: {MEMBERS} members x {} elements x {} blocks x {} pages, unit {UNIT} B, \
         {THREADS} threads; offered {RATE} cmds/s, rebuild budget {} B/s, read p99.9 limit {} us",
        GEOMETRY.elements(),
        GEOMETRY.blocks_per_plane,
        GEOMETRY.pages_per_block,
        REBUILD_BYTES_PER_S,
        READ_P999_LIMIT_US
    );
}

/// The untraced run: median-of-nine setup, then whole degraded episodes
/// for the requested time, each on a freshly filled array (set-up is not
/// timed there) with its own derived seed; sim metrics pool the first
/// [`SIM_ROUNDS`] episodes.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    print_geometry();
    let array = common::timed_setups(ctx, 9, || setup(seed, THREADS));
    let mut array = Some(array);
    let mut pooled: Vec<RoundOut> = Vec::new();
    let checker = &mut ctx.checker;
    let rounds = common::timed_rounds(ctx.seconds, SIM_ROUNDS, |r| {
        let mut a = array
            .take()
            .unwrap_or_else(|| setup(common::round_seed(seed, r), THREADS));
        let out = a.round(1, &mut Tracer::new(false), checker, None);
        let counts = (out.wall_s, out.window.cmds, out.flash_total().total());
        if r < SIM_ROUNDS {
            check_round(checker, &out);
            pooled.push(out);
        }
        counts
    });
    ctx.attempted += rounds.iter().map(|r| r.1).sum::<u64>();
    common::report_rounds(ctx, &rounds);
    let mut flash = FlashCounts::default();
    for out in &pooled {
        flash.add(&out.flash_total());
        report_rebuild(ctx, out);
    }
    let windows: Vec<&Window> = pooled.iter().map(|o| &o.window).collect();
    common::report_sim(ctx, &windows, &flash);
}

/// The traced run: the episode at one and at two threads (untraced), with
/// spans, and with counting sinks and blame attribution, each from an
/// identical filled array; then the standalone planner replay.
pub fn run_traced(ctx: &mut Ctx) {
    let seed = ctx.seed;
    print_geometry();
    let mut one = setup(seed, 1);
    let single = one.round(1, &mut Tracer::new(false), &mut ctx.checker, None);
    drop(one);
    let mut two = setup(seed, THREADS);
    let plain = two.round(1, &mut Tracer::new(false), &mut ctx.checker, None);
    drop(two);
    let mut spanned_array = setup(seed, THREADS);
    let mut tracer = Tracer::new(true);
    let spanned = spanned_array.round(1, &mut tracer, &mut ctx.checker, None);
    drop(spanned_array);
    let mut full_array = setup(seed, THREADS);
    full_array.fleet.enable_attribution();
    let (sink, handle) = CountingSink::attach();
    let full = full_array.round(1, &mut Tracer::new(false), &mut ctx.checker, Some(&handle));
    let records: Vec<BlameRecord> = full_array
        .fleet
        .take_blame_records()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    drop(full_array);

    for (what, out) in [
        ("one-thread", &single),
        ("spanned", &spanned),
        ("counted", &full),
    ] {
        ctx.checker.expect(out.window == plain.window, || {
            format!("the {what} episode's completions differ from the two-thread one")
        });
    }
    check_round(&mut ctx.checker, &full);
    ctx.attempted += full.window.cmds;
    let slo = report_rebuild(ctx, &full);
    let cmds = full.window.cmds as f64;
    let m = &mut ctx.metrics;
    let (arb_s, _) = tracer.total("block.arbitrate");
    let (queue_s, _) = tracer.total("block.queue");
    let (serve_s, _) = tracer.total("fleet.serve");
    let (rebuild_s, _) = tracer.total("fleet.rebuild_range");
    m.set("block.arbitrate_ns_per_cmd", arb_s * 1e9 / cmds);
    m.set("block.queue_ns_per_cmd", queue_s * 1e9 / cmds);
    m.set("block.cmds", cmds);
    m.set("block.sim_max_iops_at_slo", slo);
    m.set(
        "fleet.serve_ns_per_subcmd",
        serve_s * 1e9 / full.subcmds as f64,
    );
    m.set("fleet.thread_speedup", single.wall_s / plain.wall_s);
    m.set("fleet.subcmds_per_cmd", full.subcmds as f64 / cmds);
    m.set("fleet.degraded_reads", full.degraded_reads as f64);
    m.set("fleet.repaired_reads", full.repaired_reads as f64);
    let mib = 1024.0 * 1024.0;
    m.set(
        "fleet.reconstructed_mib",
        full.reconstructed_bytes as f64 / mib,
    );
    m.set(
        "fleet.rebuild_ns_per_mib",
        rebuild_s * 1e9 / (full.rebuilt_bytes as f64 / mib),
    );
    m.set(
        "fleet.rebuild_admission_wait_s",
        full.admission_wait_ns as f64 / 1e9,
    );
    m.set("fleet.scrub_s", full.scrub_wall_s);
    m.set(
        "telemetry.span_overhead",
        spanned.wall_s / plain.wall_s - 1.0,
    );
    m.set("telemetry.full_overhead", full.wall_s / plain.wall_s - 1.0);
    record_member_layers(ctx, &full);
    let seen = device::sink_flash_counts(&sink.lock().expect("counting sink lock"));
    let total = full.flash_total();
    ctx.checker.expect(seen == total, || {
        format!("trace saw flash ops {seen:?}, the members' counters say {total:?}")
    });
    let bus = sink
        .lock()
        .expect("counting sink lock")
        .count(ossd_telemetry::EventKind::BusTransfer);
    device::record_flash_metrics(ctx, &seen, bus);
    match trace::read_tail_blame(records.iter()) {
        Some(shares) => {
            for (cat, share) in BlameCat::ALL.iter().zip(shares) {
                ctx.metrics.set(crate::report::blame_metric(*cat), share);
            }
        }
        None => ctx
            .checker
            .fail("too few member reads for a p99.9 blame tail".into()),
    }
    // Standalone planner replay of every host command at its watermark.
    let geom = ParityGeometry {
        devices: MEMBERS,
        stripe_bytes: UNIT,
    };
    let (plan_s, ()) = common::timed(|| {
        for &(watermark, op, range) in &full.planned {
            let view = DegradedView {
                device: 1,
                rebuilt_rows: watermark,
            };
            black_box(parity::plan(&geom, Some(view), op, range));
        }
    });
    ctx.metrics.set(
        "fleet.plan_ns_per_cmd",
        plan_s * 1e9 / full.planned.len() as f64,
    );
    common::repeat_span_windows(ctx, |r, checker| {
        let mut array = setup(common::round_seed(seed, r), THREADS);
        let mut tracer = Tracer::new(true);
        let out = array.round(1, &mut tracer, checker, None);
        check_round(checker, &out);
        let cmds = out.window.cmds as f64;
        let mib = out.rebuilt_bytes as f64 / (1024.0 * 1024.0);
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
                "fleet.serve_ns_per_subcmd",
                tracer.total("fleet.serve").0 * 1e9 / out.subcmds as f64,
            ),
            (
                "fleet.rebuild_ns_per_mib",
                tracer.total("fleet.rebuild_range").0 * 1e9 / mib,
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

/// Per-layer counters summed over the members.
fn record_member_layers(ctx: &mut Ctx, out: &RoundOut) {
    let sum = |f: &dyn Fn(&SsdStats) -> u64| -> f64 {
        out.before
            .iter()
            .zip(&out.after)
            .map(|(b, a)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    let host_written = sum(&|s| s.ftl.host_writes);
    let m = &mut ctx.metrics;
    m.set("ftl.host_pages_written", host_written);
    m.set("ftl.host_pages_read", sum(&|s| s.ftl.host_reads));
    m.set(
        "gc.pages_moved_per_host_page",
        sum(&|s| s.ftl.gc_pages_moved + s.ftl.bg_pages_moved) / host_written,
    );
    m.set(
        "gc.erases_per_host_page",
        sum(&|s| s.ftl.gc_blocks_erased + s.ftl.bg_blocks_erased) / host_written,
    );
    m.set("gc.invocations", sum(&|s| s.ftl.gc_invocations));
    m.set("gc.fruitless_passes", sum(&|s| s.ftl.gc_fruitless_passes));
    m.set("gc.postponements", sum(&|s| s.ftl.gc_postponements));
    m.set("mapcache.hit_rate", 1.0);
    let reads = sum(&|s| s.ftl.pages_read_host);
    m.set(
        "reliability.retries_per_read",
        sum(&|s| s.reliability.read_retries) / reads.max(1.0),
    );
    m.set(
        "reliability.uncorrectable_reads",
        sum(&|s| s.reliability.uncorrectable_reads),
    );
    m.set(
        "reliability.blocks_retired",
        sum(&|s| s.reliability.retired_blocks),
    );
    let secs = |f: &dyn Fn(&SsdStats) -> SimDuration| -> f64 {
        out.before
            .iter()
            .zip(&out.after)
            .map(|(b, a)| (f(a).as_nanos() - f(b).as_nanos()) as f64 / 1e9)
            .sum()
    };
    m.set("ssd.host_busy_s", secs(&|s| s.host_busy));
    m.set("ssd.cleaning_busy_s", secs(&|s| s.cleaning_busy));
    let total = out.flash_total();
    m.set(
        "ssd.flash_ops_per_cmd",
        total.total() as f64 / out.window.cmds as f64,
    );
}
