//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <bulk|fine|tenants_lossy> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: a closed loop of
//! verified public calls (`CycloJoin` / `MultiTenantJoin`
//! `run_reactor` and `run_threaded`, alternating) from one client
//! thread. `--trace 1` replays each query layer by layer in spans and
//! prints the per-layer metrics; the spans go to `--out-dir`. Every
//! metric is printed by name and unit; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is non-zero if any query failed its reference check.

mod e2e;
mod layers;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::e2e::Tally;
use crate::spans::Recorder;
use crate::stats::Metrics;
use crate::workload::Workload;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    reduced: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_build");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
        reduced: false,
    })
}

/// What one run produced.
pub struct RunResult {
    metrics: Metrics,
    /// Printed but not in the result object (the end-to-end p90s).
    tail: Metrics,
    tally: Tally,
    /// The traced run's spans, when `--trace 1`.
    spans: Option<Recorder>,
}

/// Sets up and measures one workload. `refs_override` replaces the
/// reference results (the self-tests corrupt it on purpose).
fn run(
    args: &Args,
    refs_override: Option<Vec<cyclo_join::Reference>>,
) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (mut prepared, inputs) = e2e::prepare(
        args.workload,
        args.seed,
        args.reduced,
        refs_override,
        &mut tally,
        args.trace,
    );
    if !args.trace {
        let (metrics, tail) = e2e::run(&mut prepared, args.seconds, &mut tally);
        return Ok(RunResult {
            metrics,
            tail,
            tally,
            spans: None,
        });
    }
    let inputs = inputs.ok_or("traced run keeps its inputs")?;
    let mut rec = Recorder::new();
    let metrics = layers::run(&prepared, &inputs, args.seconds, &mut tally, &mut rec)?;
    Ok(RunResult {
        metrics,
        tail: Metrics::default(),
        tally,
        spans: Some(rec),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name();
    if let Some(rec) = &result.spans {
        let path = args
            .out_dir
            .join(format!("perfbench-spans-{name}-{}.json", args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, rec.to_json(name, args.seed)));
        if let Err(e) = written {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans: {}", path.display());
        println!("self time per layer over the run:");
        for (layer, ns) in rec.self_times() {
            println!("  {layer:20} {:>12.3} ms", ns as f64 / 1e6);
        }
    }
    let tally = result.tally;
    println!(
        "workload {name}, seed {}, {} verified queries, failed_frac {} (ratio)",
        args.seed,
        tally.attempted,
        tally.failed_frac()
    );
    print!("{}", result.metrics.table());
    if !result.tail.0.is_empty() {
        println!("not in the result (too noisy to gate):");
        print!("{}", result.tail.table());
    }
    let correct = tally.failed == 0 && result.metrics.all_finite();
    println!(
        "{}",
        result
            .metrics
            .result_json(correct, tally.attempted, tally.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} queries failed verification",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    //! Self-tests on reduced inputs (same ring shapes, 1/32 of the data).
    //! Run with `cargo test --release` from this directory.

    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            out_dir: PathBuf::new(),
            reduced: true,
        }
    }

    /// The metric names one section of `BENCHMARK.json` declares.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// Metrics that are legitimately zero (or signed) on some workload.
    fn may_be_zero(workload: Workload, name: &str) -> bool {
        match workload {
            // No fault plan: nothing is ever retransmitted.
            Workload::Bulk | Workload::Fine => name.starts_with("ring.retransmits."),
            // MultiTenantReport does not stitch set-up time into its ring
            // metrics; the benchmark reports what the program reports.
            Workload::TenantsLossy => name.starts_with("ring.setup_ms."),
        }
    }

    #[test]
    fn reduced_pass_emits_every_named_metric() {
        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = run(&args(workload, trace), None).expect("run");
                let names: Vec<String> = result.metrics.0.iter().map(|m| m.name.clone()).collect();
                assert_eq!(names, declared(section), "{} {section}", workload.name());
                assert_eq!(result.tally.failed, 0, "{}", workload.name());
                assert!(result.tally.attempted >= 2);
                assert_eq!(result.tail.0.len(), if trace { 0 } else { 2 });
                for m in result.metrics.0.iter().chain(&result.tail.0) {
                    assert!(
                        m.value.is_finite(),
                        "{} {} = {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                    if m.name == "trace.overhead_pct" {
                        continue;
                    }
                    if may_be_zero(workload, &m.name) {
                        assert!(m.value >= 0.0, "{} {}", workload.name(), m.name);
                    } else {
                        assert!(
                            m.value > 0.0,
                            "{} {} = {}",
                            workload.name(),
                            m.name,
                            m.value
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupted_reference_is_rejected() {
        let inputs = workload::Inputs::generate(Workload::Bulk, 7, true);
        let mut refs = inputs.references();
        refs[0].checksum.sum ^= 1;
        let result = run(&args(Workload::Bulk, false), Some(refs)).expect("run");
        assert!(result.tally.attempted >= 2);
        assert_eq!(result.tally.failed, result.tally.attempted);
    }

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        const COUNTS: [&str; 7] = [
            "visit.count",
            "visit.matches",
            "codec.frames",
            "codec.bytes",
            "protocol.inputs",
            "ring.retransmits.reactor",
            "ring.retransmits.threads",
        ];
        let counts = || {
            let result = run(&args(Workload::TenantsLossy, true), None).expect("run");
            COUNTS.map(|name| {
                result
                    .metrics
                    .0
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("count metric")
            })
        };
        let first = counts();
        assert!(first[5] > 0.0, "3% loss must cost retransmits");
        assert_eq!(first, counts());
    }
}
