//! The end-to-end run: set-up, then a closed loop of verified public
//! calls from one client thread, alternating the two backends.

use std::time::{Duration, Instant};

use cyclo_join::Reference;

use crate::stats::{median, quantile, Metrics};
use crate::workload::{verified, Backend, Inputs, Loss, Plan, Workload};

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 7;

/// Tally of verified and failed queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one query; a failure is reported on standard error.
    pub fn check(&mut self, what: &str, ok: bool, error: Option<&str>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "FAILED {what}: {}",
                error.unwrap_or("result differs from the reference join")
            );
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A set-up plan with its reference results.
pub struct Prepared {
    pub plan: Plan,
    pub refs: Vec<Reference>,
    pub tuples: usize,
    pub loss: Option<Loss>,
    /// Median set-up seconds over [`SETUPS`] set-ups.
    pub setup_s: f64,
}

/// Generates the inputs, builds the plan and runs one untimed warm-up
/// query per backend, [`SETUPS`] times; keeps the last plan. The
/// reference joins run once, outside the timed set-up. When `keep` is
/// set the generated inputs are also returned (for the layer replay).
pub fn prepare(
    workload: Workload,
    seed: u64,
    reduced: bool,
    refs_override: Option<Vec<Reference>>,
    tally: &mut Tally,
    keep: bool,
) -> (Prepared, Option<Inputs>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut refs = refs_override;
    let mut last = None;
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous pass's plan and inputs first, so the peak
        // resident memory holds one copy of the data, as a query does.
        drop(last.take());
        drop(kept.take());
        let start = Instant::now();
        let inputs = Inputs::generate(workload, seed, reduced);
        let gen = start.elapsed();
        // The reference and the kept copy are benchmark work, not set-up.
        let refs = refs.get_or_insert_with(|| inputs.references()).clone();
        if keep {
            kept = Some(inputs.clone());
        }
        let (tuples, loss) = (inputs.tuples(), inputs.loss);
        let start = Instant::now();
        let plan = Plan::build(inputs);
        let mut warm = Vec::new();
        for backend in Backend::BOTH {
            warm.push((backend, plan.run(backend)));
        }
        setups.push((gen + start.elapsed()).as_secs_f64());
        for (backend, outcome) in &warm {
            let error = outcome.as_ref().err().map(String::as_str);
            tally.check(
                &format!("warm-up query on {}", backend.name()),
                verified(outcome, &refs),
                error,
            );
        }
        drop(warm);
        last = Some((plan, refs, tuples, loss));
    }
    let (plan, refs, tuples, loss) = last.expect("SETUPS > 0");
    (
        Prepared {
            plan,
            refs,
            tuples,
            loss,
            setup_s: median(&setups),
        },
        kept,
    )
}

/// Length of the windows the throughput is measured over.
const WINDOW: Duration = Duration::from_secs(5);

/// Verified input tuples and wall time of one backend's queries that
/// started in one [`WINDOW`] of the timed loop.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    tuples: usize,
    time: Duration,
}

/// Runs verified queries for `seconds`, strictly alternating reactor and
/// threads, and returns the end-to-end metrics, then the p90 latencies.
/// The p90s are printed but left out of the result: with 45 to 170
/// queries per backend in a 55 s run, a few seconds of contention from
/// neighbours on a shared host moves them by more than any bound allows.
/// For the same reason the throughput is the median over the run's
/// [`WINDOW`]s, not one mean over the whole run.
/// Both queries of a pair share one loss schedule; each pair draws the
/// next from the seed.
pub fn run(prepared: &mut Prepared, seconds: f64, tally: &mut Tally) -> (Metrics, Metrics) {
    let mut ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut windows: [Vec<Window>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for pair in 1.. {
        if let Some(loss) = prepared.loss {
            prepared.plan.set_faults(loss.plan(pair));
        }
        for (i, backend) in Backend::BOTH.into_iter().enumerate() {
            let w = (start.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
            if windows[i].len() <= w {
                windows[i].resize(w + 1, Window::default());
            }
            let outcome = prepared.plan.run(backend);
            let ok = verified(&outcome, &prepared.refs);
            let error = outcome.as_ref().err().map(String::as_str);
            tally.check(&format!("query on {}", backend.name()), ok, error);
            if let Ok(o) = &outcome {
                ms[i].push(o.wall.as_secs_f64() * 1e3);
                windows[i][w].time += o.wall;
                if ok {
                    windows[i][w].tuples += prepared.tuples;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut m = Metrics::default();
    let mut tail = Metrics::default();
    for (i, backend) in Backend::BOTH.into_iter().enumerate() {
        m.put(
            format!("query_ms.p50.{}", backend.name()),
            "ms",
            median(&ms[i]),
        );
        tail.put(
            format!("query_ms.p90.{}", backend.name()),
            "ms",
            quantile(&ms[i], 0.9),
        );
    }
    for (i, backend) in Backend::BOTH.into_iter().enumerate() {
        let per_window: Vec<f64> = windows[i]
            .iter()
            .filter(|w| !w.time.is_zero())
            .map(|w| w.tuples as f64 / 1e6 / w.time.as_secs_f64())
            .collect();
        m.put(
            format!("mtuples_per_s.{}", backend.name()),
            "Mtuples/s",
            median(&per_window),
        );
    }
    m.put("setup_s", "s", prepared.setup_s);
    m.put("peak_rss_mb", "MiB", peak_rss_mb());
    (m, tail)
}

/// Peak resident set of this process (`VmHWM`), in MiB; NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
