//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gc_churn|oltp_slo|raid5_degraded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process (at most two worker
//! threads), prints a manifest, the checks it made and every metric by
//! name and unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics instead.
//! `--calibrate` (with `--workload oltp_slo`) measures the closed-loop
//! capacity the offered-rate ladder is set against.

mod check;
mod common;
mod device;
mod gc_churn;
mod oltp_slo;
mod raid;
mod raid5_degraded;
mod report;
mod stats;
mod trace;

use common::Ctx;

const WORKLOADS: [&str; 3] = ["gc_churn", "oltp_slo", "raid5_degraded"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut calibrate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--calibrate" => calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        calibrate,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.calibrate {
        oltp_slo::calibrate(args.seed);
        return;
    }
    println!(
        "manifest: git_sha={} rustc=\"{}\" nproc={} workload={} seed={} seconds={} trace={}",
        report::git_sha(),
        report::rustc_version(),
        report::nproc(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        metrics: report::Metrics::default(),
        checker: check::Checker::default(),
        attempted: 0,
        span_path: std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.csv",
            args.workload, args.seed
        )),
        started: std::time::Instant::now(),
    };
    match (args.workload.as_str(), args.traced) {
        ("gc_churn", false) => gc_churn::run(&mut ctx),
        ("gc_churn", true) => gc_churn::run_traced(&mut ctx),
        ("oltp_slo", false) => oltp_slo::run(&mut ctx),
        ("oltp_slo", true) => oltp_slo::run_traced(&mut ctx),
        ("raid5_degraded", false) => raid5_degraded::run(&mut ctx),
        ("raid5_degraded", true) => raid5_degraded::run_traced(&mut ctx),
        _ => unreachable!("workload validated"),
    }
    ctx.metrics.set("peak_rss_mb", report::peak_rss_mb());
    let catalogue: &[(&str, &str)] = if args.traced {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let metrics = ctx.metrics.render(catalogue);
    let correct = ctx.checker.passed() && ctx.attempted > 0;
    println!(
        "checks: {}; attempted {} failed {}",
        if correct { "all passed" } else { "FAILED" },
        ctx.attempted,
        ctx.checker.failed_ops
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.attempted, ctx.checker.failed_ops
    );
    if !correct {
        std::process::exit(1);
    }
}
