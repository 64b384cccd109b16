//! Single-device bookkeeping shared by `gc_churn` and `oltp_slo`: counter
//! snapshots around a measured window, the identities they must satisfy,
//! and the device-level per-layer metrics derived from them.

use ossd_flash::FlashTiming;
use ossd_sim::SimDuration;
use ossd_ssd::{Ssd, SsdStats};
use ossd_telemetry::EventKind;

use crate::check::Checker;
use crate::common::{self, Ctx, FlashCounts, Window};
use crate::trace::CountingSink;

/// A device's counters at one instant.
pub struct Snapshot {
    stats: SsdStats,
    element_ops: u64,
    bus_ops: u64,
    element_busy_ns: u64,
}

impl Snapshot {
    /// Reads `ssd`'s counters and dispatch-queue totals.
    pub fn of(ssd: &Ssd) -> Self {
        let elements = ssd.element_queues();
        Snapshot {
            stats: ssd.stats(),
            element_ops: elements.iter().map(|q| q.ops_accepted()).sum(),
            bus_ops: ssd.bus_queues().iter().map(|q| q.ops_accepted()).sum(),
            element_busy_ns: elements
                .iter()
                .map(|q| q.server().busy_total().as_nanos())
                .sum(),
        }
    }
}

/// What a device did between two snapshots.
pub struct DeviceDelta {
    /// Counters before.
    pub before: SsdStats,
    /// Counters after.
    pub after: SsdStats,
    /// Flash operations the counters imply.
    pub flash: FlashCounts,
    /// Operations the element queues accepted.
    pub element_ops: u64,
    /// Transfers the bus queues accepted.
    pub bus_ops: u64,
    /// Element busy time, summed over elements, ns.
    pub element_busy_ns: u64,
    /// Elements of the device.
    pub elements: u32,
}

impl DeviceDelta {
    /// The work between `before` and `after` on a device of `elements`.
    pub fn between(before: Snapshot, after: Snapshot, elements: u32) -> Self {
        DeviceDelta {
            flash: FlashCounts::of(&after.stats).since(&FlashCounts::of(&before.stats)),
            element_ops: after.element_ops - before.element_ops,
            bus_ops: after.bus_ops - before.bus_ops,
            element_busy_ns: after.element_busy_ns - before.element_busy_ns,
            before: before.stats,
            after: after.stats,
            elements,
        }
    }

    /// Checks the identities a measured window must satisfy: the FTL
    /// counted exactly the host pages the benchmark wrote, the element
    /// queues accepted exactly the flash operations the counters imply, and
    /// the window lasted at least as long as its programs need.
    pub fn check(&self, checker: &mut Checker, window: &Window, timing: &FlashTiming) {
        let host_writes = self.after.ftl.host_writes - self.before.ftl.host_writes;
        checker.expect(host_writes == window.pages_written, || {
            format!(
                "FTL counted {host_writes} host pages written, the benchmark issued {}",
                window.pages_written
            )
        });
        checker.expect(self.element_ops == self.flash.total(), || {
            format!(
                "elements accepted {} ops, the counters imply {:?}",
                self.element_ops, self.flash
            )
        });
        common::check_timing_bound(
            checker,
            window,
            &self.flash,
            timing,
            u64::from(self.elements),
        );
    }

    /// Records the device-level per-layer metrics of `window`.
    pub fn record_layers(&self, ctx: &mut Ctx, window: &Window) {
        let m = &mut ctx.metrics;
        let (b, a) = (&self.before, &self.after);
        let host_written = (a.ftl.host_writes - b.ftl.host_writes) as f64;
        let secs = |x: SimDuration, y: SimDuration| (x.as_nanos() - y.as_nanos()) as f64 / 1e9;
        m.set("ssd.host_busy_s", secs(a.host_busy, b.host_busy));
        m.set(
            "ssd.cleaning_busy_s",
            secs(a.cleaning_busy, b.cleaning_busy),
        );
        m.set(
            "ssd.bg_cleaning_busy_s",
            secs(a.background_cleaning_busy, b.background_cleaning_busy),
        );
        let span_ns = (window.end_ns - window.start_ns) as f64;
        m.set(
            "ssd.element_util",
            self.element_busy_ns as f64 / (span_ns * f64::from(self.elements)),
        );
        m.set(
            "ssd.flash_ops_per_cmd",
            self.flash.total() as f64 / window.cmds as f64,
        );
        m.set("ftl.host_pages_written", host_written);
        m.set(
            "ftl.host_pages_read",
            (a.ftl.host_reads - b.ftl.host_reads) as f64,
        );
        let moved = (a.ftl.gc_pages_moved - b.ftl.gc_pages_moved)
            + (a.ftl.bg_pages_moved - b.ftl.bg_pages_moved);
        let erased = (a.ftl.gc_blocks_erased - b.ftl.gc_blocks_erased)
            + (a.ftl.bg_blocks_erased - b.ftl.bg_blocks_erased);
        m.set("gc.pages_moved_per_host_page", moved as f64 / host_written);
        m.set("gc.erases_per_host_page", erased as f64 / host_written);
        let delta = |x: u64, y: u64| (x - y) as f64;
        m.set(
            "gc.invocations",
            delta(a.ftl.gc_invocations, b.ftl.gc_invocations),
        );
        m.set(
            "gc.fruitless_passes",
            delta(a.ftl.gc_fruitless_passes, b.ftl.gc_fruitless_passes),
        );
        m.set(
            "gc.postponements",
            delta(a.ftl.gc_postponements, b.ftl.gc_postponements),
        );
        let hits = delta(a.map.hits, b.map.hits);
        let lookups = hits + delta(a.map.misses, b.map.misses);
        m.set(
            "mapcache.hit_rate",
            if lookups > 0.0 { hits / lookups } else { 1.0 },
        );
        let host_ops = window.cmds as f64;
        m.set(
            "mapcache.map_reads_per_host_op",
            delta(a.map.map_reads, b.map.map_reads) / host_ops,
        );
        m.set(
            "mapcache.map_writes_per_host_op",
            delta(a.map.map_writes, b.map.map_writes) / host_ops,
        );
        let reads = delta(a.ftl.pages_read_host, b.ftl.pages_read_host);
        m.set(
            "reliability.retries_per_read",
            delta(a.reliability.read_retries, b.reliability.read_retries) / reads.max(1.0),
        );
        m.set(
            "reliability.uncorrectable_reads",
            delta(
                a.reliability.uncorrectable_reads,
                b.reliability.uncorrectable_reads,
            ),
        );
        m.set(
            "reliability.blocks_retired",
            delta(a.reliability.retired_blocks, b.reliability.retired_blocks),
        );
    }

    /// Records `flash.*` from a counting sink that watched exactly this
    /// window, and checks its counts against the counters and bus queues.
    pub fn record_flash_counts(&self, ctx: &mut Ctx, sink: &CountingSink) {
        let seen = sink_flash_counts(sink);
        ctx.checker.expect(seen == self.flash, || {
            format!(
                "trace saw flash ops {seen:?}, the counters say {:?}",
                self.flash
            )
        });
        let bus = sink.count(EventKind::BusTransfer);
        ctx.checker.expect(bus == self.bus_ops, || {
            format!(
                "trace saw {bus} bus transfers, the bus queues accepted {}",
                self.bus_ops
            )
        });
        record_flash_metrics(ctx, &seen, bus);
    }
}

/// The flash operations a counting sink saw, by kind.
pub fn sink_flash_counts(sink: &CountingSink) -> FlashCounts {
    FlashCounts {
        reads: sink.count(EventKind::FlashRead),
        retries: sink.count(EventKind::FlashReadRetry),
        programs: sink.count(EventKind::FlashProgram),
        copybacks: sink.count(EventKind::FlashCopyback),
        erases: sink.count(EventKind::FlashErase),
        map_reads: sink.count(EventKind::FlashMapRead),
        map_writes: sink.count(EventKind::FlashMapWrite),
    }
}

/// Records the `flash.*` counts.
pub fn record_flash_metrics(ctx: &mut Ctx, seen: &FlashCounts, bus_transfers: u64) {
    let m = &mut ctx.metrics;
    m.set("flash.reads", seen.reads as f64);
    m.set("flash.programs", seen.programs as f64);
    m.set("flash.copybacks", seen.copybacks as f64);
    m.set("flash.erases", seen.erases as f64);
    m.set("flash.map_reads", seen.map_reads as f64);
    m.set("flash.map_writes", seen.map_writes as f64);
    m.set("flash.bus_transfers", bus_transfers as f64);
}
