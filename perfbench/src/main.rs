//! The repository benchmark: seeded workloads over the GB→ED pipeline, the
//! warm image server and the paper's circuits.
//!
//! ```text
//! perfbench --workload <gbed_oneshot|gbed_serve|circuit_kernels>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run instead. The line before it records the host
//! context. See `README.md` next to this crate for what each workload and
//! metric is for.

mod circuits;
mod gbed;
mod harness;
mod stats;
mod trace;

use harness::{peak_rss_mib, Outcome};
use sc_telemetry::Json;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <gbed_oneshot|gbed_serve|circuit_kernels> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 8] = [
    ("requests_per_s", "1/s"),
    ("mbits_per_s", "Mbit/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("mean_abs_error", "1"),
    ("model_energy_nj", "nJ"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it.
const PER_LAYER: [(&str, &str); 38] = [
    ("sc_image.planner.calls_per_image", "count"),
    ("sc_image.planner.hit_ratio", "ratio"),
    ("sc_image.planner.hit_us_p50", "us"),
    ("sc_image.planner.miss_ms_p50", "ms"),
    ("sc_image.planner.busy_share", "ratio"),
    ("sc_graph.compile.compiles_per_image", "count"),
    ("sc_graph.compile.steps_per_plan", "count"),
    ("sc_graph.compile.repairs_per_plan", "count"),
    ("sc_graph.exec.busy_share", "ratio"),
    ("sc_graph.exec.tile_us_p50", "us"),
    ("sc_graph.exec.lane_batched_share", "ratio"),
    ("sc_graph.exec.lane_fill_mean", "count"),
    ("sc_graph.exec.peak_in_flight", "count"),
    ("sc_graph.serve.submit_ms_p50", "ms"),
    ("sc_graph.serve.queue_wait_ms_p50", "ms"),
    ("sc_graph.serve.execute_ms_p50", "ms"),
    ("sc_graph.serve.assemble_ms_p50", "ms"),
    ("sc_graph.serve.cross_request_share", "ratio"),
    ("sc_image.assemble.busy_share", "ratio"),
    ("sc_convert.d2s.busy_share", "ratio"),
    ("sc_convert.d2s.mbits_per_s", "Mbit/s"),
    ("sc_core.synchronizer.busy_share", "ratio"),
    ("sc_core.synchronizer.mbits_per_s", "Mbit/s"),
    ("sc_core.desynchronizer.busy_share", "ratio"),
    ("sc_core.desynchronizer.mbits_per_s", "Mbit/s"),
    ("sc_core.decorrelator.busy_share", "ratio"),
    ("sc_core.decorrelator.mbits_per_s", "Mbit/s"),
    ("sc_core.ops.busy_share", "ratio"),
    ("sc_core.ops.mbits_per_s", "Mbit/s"),
    ("sc_core.scc_abs_err", "1"),
    ("telemetry.compile.ms_per_request", "ms"),
    ("telemetry.retarget.ms_per_request", "ms"),
    ("telemetry.execute.lane_group.ms_per_request", "ms"),
    ("telemetry.execute.scalar.ms_per_request", "ms"),
    ("telemetry.serve.coalesce.ms_per_request", "ms"),
    ("trace.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.requests", "count"),
];

/// One run's command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Available parallelism, the warm server's worker count.
    pub nproc: usize,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        })
    }

    /// Writes a traced run's kept spans next to this crate, under `out/`.
    pub fn write_spans(&self, ledger: &trace::Ledger) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}-spans.jsonl", self.workload, self.seed));
        if let Err(e) = ledger.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::f64(value)), ("unit", Json::str(unit))])
}

fn result_line(args: &RunArgs, outcome: &Outcome) -> Json {
    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(v, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = outcome.metrics.0.get(name).copied();
                let v = v.unwrap_or_else(|| panic!("workload did not report {name}"));
                (name.to_string(), metric(v, unit))
            })
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::u64(outcome.attempted)),
        ("failed", Json::u64(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn context_line(args: &RunArgs, outcome: &Outcome) -> Json {
    let notes = outcome
        .notes
        .iter()
        .map(|(k, v)| (k.to_string(), Json::f64(*v)))
        .collect();
    Json::obj(vec![(
        "context",
        Json::obj(vec![
            ("workload", Json::str(&args.workload)),
            ("seed", Json::u64(args.seed)),
            ("seconds", Json::f64(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("nproc", Json::u64(args.nproc as u64)),
            ("host", sc_bench::host_context()),
            ("notes", Json::Obj(notes)),
            (
                "failures",
                Json::Arr(outcome.failures.iter().map(Json::str).collect()),
            ),
        ]),
    )])
}

fn main() {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "gbed_oneshot" => gbed::oneshot(&args),
        "gbed_serve" => gbed::serve(&args),
        "circuit_kernels" => circuits::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(rss) = peak_rss_mib() else {
        eprintln!("perfbench: no VmHWM in /proc/self/status");
        std::process::exit(1);
    };
    outcome.metrics.set("peak_rss_mib", rss);
    for why in &outcome.failures {
        eprintln!("perfbench: FAILED: {why}");
    }
    println!("{}", context_line(&args, &outcome));
    println!("{}", result_line(&args, &outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are the ones `BENCHMARK.json` declares,
    /// with the same units, in the same order.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let bench = sc_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }
}
