//! The metric catalogue, the run manifest and the one-line JSON result.

use std::collections::BTreeMap;

use ossd_telemetry::BlameCat;

/// End-to-end metrics: `(name, unit)`.  Every untraced run prints all of
/// them; host-time ones come from the wall clock, `sim_` ones from the
/// modelled device's clock.
pub const END_TO_END: [(&str, &str); 10] = [
    ("host_ops_per_s", "1/s"),
    ("host_ns_per_flash_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mb_s", "MB/s"),
    ("sim_write_amp", "ratio"),
    ("sim_read_p50_us", "us"),
    ("sim_read_p999_us", "us"),
    ("sim_write_p50_us", "us"),
    ("sim_write_p999_us", "us"),
];

/// Per-layer metrics: `(name, unit)`, named `<crate>.<metric>`.  Every
/// traced run prints all of them; a layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("block.arbitrate_ns_per_cmd", "ns"),
    ("block.queue_ns_per_cmd", "ns"),
    ("block.cmds", "count"),
    ("block.sim_max_iops_at_slo", "1/s"),
    ("ssd.serve_ns_per_cmd", "ns"),
    ("ssd.self_ns_per_flash_op", "ns"),
    ("ssd.flash_ops_per_cmd", "ratio"),
    ("ssd.host_busy_s", "s"),
    ("ssd.cleaning_busy_s", "s"),
    ("ssd.bg_cleaning_busy_s", "s"),
    ("ssd.element_util", "ratio"),
    ("ftl.ns_per_host_page", "ns"),
    ("ftl.host_pages_written", "count"),
    ("ftl.host_pages_read", "count"),
    ("gc.pages_moved_per_host_page", "ratio"),
    ("gc.erases_per_host_page", "ratio"),
    ("gc.ns_per_page_moved", "ns"),
    ("gc.invocations", "count"),
    ("gc.fruitless_passes", "count"),
    ("gc.postponements", "count"),
    ("mapcache.hit_rate", "ratio"),
    ("mapcache.map_reads_per_host_op", "ratio"),
    ("mapcache.map_writes_per_host_op", "ratio"),
    ("mapcache.ns_per_lookup", "ns"),
    ("flash.reads", "count"),
    ("flash.programs", "count"),
    ("flash.copybacks", "count"),
    ("flash.erases", "count"),
    ("flash.map_reads", "count"),
    ("flash.map_writes", "count"),
    ("flash.bus_transfers", "count"),
    ("reliability.retries_per_read", "ratio"),
    ("reliability.uncorrectable_reads", "count"),
    ("reliability.blocks_retired", "count"),
    ("fleet.serve_ns_per_subcmd", "ns"),
    ("fleet.plan_ns_per_cmd", "ns"),
    ("fleet.thread_speedup", "ratio"),
    ("fleet.subcmds_per_cmd", "ratio"),
    ("fleet.degraded_reads", "count"),
    ("fleet.repaired_reads", "count"),
    ("fleet.reconstructed_mib", "MiB"),
    ("fleet.rebuild_ns_per_mib", "ns"),
    ("fleet.rebuild_admission_wait_s", "s"),
    ("fleet.sim_rebuild_mb_s", "MB/s"),
    ("fleet.scrub_s", "s"),
    ("telemetry.blame_share.sq_wait", "ratio"),
    ("telemetry.blame_share.fence", "ratio"),
    ("telemetry.blame_share.controller", "ratio"),
    ("telemetry.blame_share.flash", "ratio"),
    ("telemetry.blame_share.bus", "ratio"),
    ("telemetry.blame_share.ecc", "ratio"),
    ("telemetry.blame_share.map", "ratio"),
    ("telemetry.blame_share.gc_wait", "ratio"),
    ("telemetry.blame_share.host_wait", "ratio"),
    ("telemetry.span_overhead", "ratio"),
    ("telemetry.full_overhead", "ratio"),
    ("workload.gen_s", "s"),
];

/// `telemetry.blame_share.<cat>` for a blame category.
pub fn blame_metric(cat: BlameCat) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix("telemetry.blame_share.") == Some(cat.name()))
        .expect("every blame category has a metric")
}

/// Metric values gathered by a run, by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Prints one human-readable line per metric of `catalogue`, and
    /// returns the JSON object of them.  A metric the run did not record
    /// reads 0 (a layer the workload does not exercise).
    pub fn render(&self, catalogue: &[(&str, &str)]) -> String {
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            println!("metric {name:<36} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The checkout's git commit, read from `.git` without running git
/// (`unknown` outside a git checkout).
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on the path (`unknown` if it cannot run).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
