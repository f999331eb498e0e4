//! End-to-end and per-layer benchmark of the vehicle-usage-prediction
//! workspace.
//!
//! ```text
//! vupbench --workload <paper_eval|serve_hot|ingest_stream> --seed <n>
//!          --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then,
//! as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. Exits non-zero when a correctness
//! gate fails or the run cannot complete.

mod calib;
mod fitpath;
mod ingest_stream;
mod paper_eval;
mod screen;
mod serve_hot;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use stats::Report;

/// Layers whose self time is reported as a share of op time.
pub const SHARE_LAYERS: &[&str] = &[
    "fleetsim", "tseries", "core", "ml", "linalg", "serve", "net", "ingest",
];

/// The end-to-end metrics (`--trace 0`) with their units, as
/// `BENCHMARK.json` lists them. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_cpu_ms", "ms"),
];

/// The per-layer metrics (`--trace 1`) with their units, as
/// `BENCHMARK.json` lists them. A workload that does not reach a layer
/// reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("op.p90_ms", "ms"),
    ("raw.op_p50_ms", "ms"),
    ("raw.op_cpu_ms", "ms"),
    ("raw.setup_s", "s"),
    ("calib.kernel_ms", "ms"),
    ("fleetsim.generate_ms", "ms"),
    ("fleetsim.history_us", "us"),
    ("dataprep.prepare_ms", "ms"),
    ("dataprep.prepare_calls", "count"),
    ("tseries.acf_us", "us"),
    ("tseries.acf_calls", "count"),
    ("core.view_build_us", "us"),
    ("core.view_builds", "count"),
    ("core.select_lags_us", "us"),
    ("core.select_calls", "count"),
    ("core.design_matrix_us", "us"),
    ("core.design_rows", "count"),
    ("core.fit_us", "us"),
    ("core.fits", "count"),
    ("core.predict_us", "us"),
    ("core.predicts", "count"),
    ("ml.lr_fit_us", "us"),
    ("ml.svr_fit_us", "us"),
    ("ml.arena_reuse_ratio", "ratio"),
    ("linalg.qr_us", "us"),
    ("linalg.cholesky_us", "us"),
    ("linalg.solves", "count"),
    ("linalg.ridge_fallbacks", "count"),
    ("serve.batch_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.retrains", "count"),
    ("serve.persist_us", "us"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.warm_start_ms", "ms"),
    ("serve.degraded", "count"),
    ("serve.failed", "count"),
    ("net.parse_us", "us"),
    ("net.decode_us", "us"),
    ("net.handle_us", "us"),
    ("net.encode_us", "us"),
    ("net.response_bytes", "bytes"),
    ("net.server_us", "us"),
    ("net.wait_us", "us"),
    ("net.contention_us", "us"),
    ("net.due_p50_ms", "ms"),
    ("net.latency_p99_ms", "ms"),
    ("net.shed", "count"),
    ("net.errors", "count"),
    ("ingest.append_us", "us"),
    ("ingest.records_appended", "count"),
    ("ingest.bytes_appended", "bytes"),
    ("ingest.observe_us", "us"),
    ("ingest.schedule_us", "us"),
    ("ingest.slots_sealed", "count"),
    ("ingest.drain_us", "us"),
    ("ingest.retrain_decisions", "count"),
    ("ingest.open_ms", "ms"),
    ("ingest.quarantined", "count"),
    ("shard.build_ms", "ms"),
    ("shard.route_ns", "ns"),
    ("shard.batch_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("gen.late_ms", "ms"),
    ("gen.backlog", "count"),
    ("quality.pe_lr_pct", "%"),
    ("quality.pe_svr_pct", "%"),
    ("share.fleetsim_pct", "%"),
    ("share.tseries_pct", "%"),
    ("share.core_pct", "%"),
    ("share.ml_pct", "%"),
    ("share.linalg_pct", "%"),
    ("share.serve_pct", "%"),
    ("share.net_pct", "%"),
    ("share.ingest_pct", "%"),
    ("share.other_pct", "%"),
];

/// Checks a run reported exactly the listed metrics with their units,
/// filling per-layer metrics of layers the workload does not reach
/// with 0.
fn complete(report: &mut Report, trace: bool) -> Result<(), String> {
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, metric) in &report.metrics {
        if !listed.contains(&(name.as_str(), metric.unit)) {
            return Err(format!("metric {name} ({}) is not listed", metric.unit));
        }
    }
    for &(name, unit) in listed {
        if !report.metrics.contains_key(name) {
            if !trace {
                return Err(format!("end-to-end metric {name} was not measured"));
            }
            report.metric(name, unit, 0.0, 0);
        }
    }
    Ok(())
}

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper_eval", "serve_hot", "ingest_stream"];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("vupbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match options.workload.as_str() {
        "paper_eval" => paper_eval::run(&options),
        "serve_hot" => serve_hot::run(&options),
        _ => ingest_stream::run(&options),
    };
    let report = match result.and_then(|mut report| {
        complete(&mut report, options.trace)?;
        Ok(report)
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("vupbench: {}: {e}", options.workload);
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, m) in &report.metrics {
        println!("{name} = {} {} (n={})", m.value, m.unit, m.samples);
    }
    println!(
        "ops attempted {} failed {}",
        report.tally.attempted, report.tally.failed
    );
    for failure in &report.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve_hot", 7, 10, true)
        );
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` section.
    fn listed(bench: &serde::Content, section: &str) -> Vec<(String, String)> {
        let text = |c: &serde::Content| match c {
            serde::Content::Str(s) => s.clone(),
            other => panic!("expected a string, found {}", other.kind()),
        };
        bench
            .field(section)
            .as_seq()
            .expect("section is a list")
            .iter()
            .map(|m| (text(m.field("name")), text(m.field("unit"))))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench: serde::Content =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&bench, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = bench
            .field("workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| match w.field("name") {
                serde::Content::Str(s) => s.clone(),
                _ => panic!("workload name"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
        }
    }

    #[test]
    fn runs_must_report_exactly_the_listed_metrics() {
        let mut report = Report::default();
        for (name, unit) in END_TO_END {
            report.metric(name, unit, 1.0, 1);
        }
        assert!(complete(&mut report, false).is_ok());
        report.metric("core.fits", "count", 3.0, 1);
        assert!(complete(&mut report, false).is_err());

        let mut traced = Report::default();
        traced.metric("core.fits", "count", 3.0, 1);
        assert!(complete(&mut traced, true).is_ok());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(traced.metrics["net.parse_us"].value, 0.0);
        let mut missing = Report::default();
        missing.metric("setup_s", "s", 1.0, 1);
        assert!(complete(&mut missing, false).is_err());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_eval --seed x --seconds 1 --trace 0",
            "--workload paper_eval --seed 1 --seconds 0 --trace 0",
            "--workload paper_eval --seed 1 --seconds 1 --trace 2",
            "--workload paper_eval --seed 1 --seconds 1",
            "--workload paper_eval --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
