//! The three workloads: their inputs (all drawn from the run's seed),
//! the public call that runs one query, and the reference check.

use std::time::{Duration, Instant};

use cyclo_join::{
    reference_join, CycloJoin, FaultPlan, HostId, JoinPredicate, MultiTenantJoin, Reference,
    RingConfig, RingMetrics,
};
use relation::{GenSpec, Relation};

/// Loss rate on every host's outbound link in `tenants_lossy`.
pub const LOSS: f64 = 0.03;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few large fragments: kernels, stationary build and bulk bytes.
    Bulk,
    /// Many small fragments: per-visit fixed costs and protocol steps.
    Fine,
    /// Eight tenants multiplexed over a lossy ring (reliable mode).
    TenantsLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Bulk, Workload::Fine, Workload::TenantsLossy];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Fine => "fine",
            Workload::TenantsLossy => "tenants_lossy",
        }
    }

    /// The workload's dimensions; `reduced` shrinks the data (not the
    /// ring shape) for the self-tests.
    pub fn shape(self, reduced: bool) -> Shape {
        let (hosts, tuples, fragments_per_host, tenants) = match self {
            Workload::Bulk => (4, 1 << 20, 2, 1),
            Workload::Fine => (4, 1 << 18, 64, 1),
            Workload::TenantsLossy => (6, 1 << 16, 4, 8),
        };
        Shape {
            hosts,
            tuples: if reduced { tuples >> 5 } else { tuples },
            fragments_per_host,
            tenants,
            max_active: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub hosts: usize,
    /// Tuples per relation side (per tenant on `tenants_lossy`).
    pub tuples: usize,
    pub fragments_per_host: usize,
    pub tenants: usize,
    /// Admission bound of the multi-tenant batch.
    pub max_active: usize,
}

/// The two measured drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Reactor,
    Threads,
}

impl Backend {
    pub const BOTH: [Backend; 2] = [Backend::Reactor, Backend::Threads];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Reactor => "reactor",
            Backend::Threads => "threads",
        }
    }
}

/// One tenant's join: `r` rotates, `s` stays.
#[derive(Debug, Clone)]
pub struct Job {
    pub r: Relation,
    pub s: Relation,
    pub predicate: JoinPredicate,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub shape: Shape,
    pub jobs: Vec<Job>,
    /// Seeded loss dice (`tenants_lossy` only).
    pub loss: Option<Loss>,
}

/// The loss schedules of `tenants_lossy`, drawn from the run's seed.
#[derive(Debug, Clone, Copy)]
pub struct Loss {
    seed: u64,
    hosts: usize,
}

impl Loss {
    /// The `index`-th schedule: 3% loss on every host's outbound link.
    /// Index 0 serves set-up and the traced run; timed query pair `p`
    /// uses `p`, so the loop's percentiles cover many loss patterns
    /// rather than one.
    pub fn plan(&self, index: u64) -> FaultPlan {
        (0..self.hosts).fold(FaultPlan::seeded(mix(self.seed, index)), |plan, h| {
            plan.lossy_link(HostId(h), LOSS)
        })
    }
}

/// splitmix64: decorrelates the per-relation seeds drawn from one run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the workload's relations and fault dice from `seed`.
    pub fn generate(workload: Workload, seed: u64, reduced: bool) -> Self {
        let shape = workload.shape(reduced);
        let n = shape.tuples;
        let jobs = (0..shape.tenants as u64)
            .map(|t| {
                let (rs, ss) = (mix(seed, 2 * t), mix(seed, 2 * t + 1));
                match (workload, t % 3) {
                    // Tenants cycle: uniform equi, Zipf equi, band.
                    (Workload::TenantsLossy, 1) => Job {
                        r: GenSpec::zipf(n, 0.8, rs).generate(),
                        s: GenSpec::zipf(n, 0.8, ss).generate(),
                        predicate: JoinPredicate::Equi,
                    },
                    (Workload::TenantsLossy, 2) => Job {
                        r: GenSpec::uniform(n, rs).generate(),
                        s: GenSpec::uniform(n, ss).generate(),
                        predicate: JoinPredicate::band(2),
                    },
                    _ => Job {
                        r: GenSpec::uniform(n, rs).generate(),
                        s: GenSpec::uniform(n, ss).generate(),
                        predicate: JoinPredicate::Equi,
                    },
                }
            })
            .collect();
        let loss = (workload == Workload::TenantsLossy).then_some(Loss {
            seed: mix(seed, 1 << 20),
            hosts: shape.hosts,
        });
        Inputs {
            workload,
            shape,
            jobs,
            loss,
        }
    }

    /// Input tuples one query reads: Σ |R| + |S| over tenants.
    pub fn tuples(&self) -> usize {
        self.jobs.iter().map(|j| j.r.len() + j.s.len()).sum()
    }

    /// The single-host reference result of every tenant.
    pub fn references(&self) -> Vec<Reference> {
        self.jobs
            .iter()
            .map(|j| reference_join(&j.r, &j.s, &j.predicate))
            .collect()
    }
}

/// A built query: the public entry point's builder, ready to run.
#[derive(Debug, Clone)]
pub enum Plan {
    Single(CycloJoin),
    Multi(MultiTenantJoin),
}

/// What one public call returned.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time from the call to the returned report.
    pub wall: Duration,
    /// `(count, checksum)` per tenant.
    pub results: Vec<Reference>,
    /// Every tenant's query ran to completion.
    pub complete: bool,
    pub ring: RingMetrics,
    /// The report's own end-to-end ring time.
    pub ring_seconds: f64,
}

impl Plan {
    /// Builds the query with the default configuration of its entry
    /// point, reshaped to the workload's ring.
    pub fn build(inputs: Inputs) -> Plan {
        let shape = inputs.shape;
        match inputs.workload {
            Workload::Bulk | Workload::Fine => {
                let job = inputs
                    .jobs
                    .into_iter()
                    .next()
                    .expect("one job per single query");
                Plan::Single(
                    CycloJoin::new(job.r, job.s)
                        .predicate(job.predicate)
                        .hosts(shape.hosts)
                        .fragments_per_host(shape.fragments_per_host),
                )
            }
            Workload::TenantsLossy => {
                let mut batch = MultiTenantJoin::new()
                    .hosts(shape.hosts)
                    .max_active(shape.max_active)
                    .fragments_per_host(shape.fragments_per_host);
                if let Some(loss) = inputs.loss {
                    batch = batch.fault_plan(loss.plan(0));
                }
                for job in inputs.jobs {
                    batch = batch.tenant(job.r, job.s, job.predicate);
                }
                Plan::Multi(batch)
            }
        }
    }

    /// The same query with the program's span tracer switched on.
    pub fn traced(&self) -> Plan {
        match self {
            Plan::Single(q) => Plan::Single(q.clone().trace(true)),
            Plan::Multi(q) => Plan::Multi(q.clone().trace(true)),
        }
    }

    /// Replaces the multi-tenant batch's loss schedule.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        if let Plan::Multi(q) = self {
            *q = std::mem::take(q).fault_plan(plan);
        }
    }

    /// Runs one query through the backend's public entry point.
    pub fn run(&self, backend: Backend) -> Result<Outcome, String> {
        match self {
            Plan::Single(q) => {
                let start = Instant::now();
                let report = match backend {
                    Backend::Reactor => q.run_reactor(),
                    Backend::Threads => q.run_threaded(),
                };
                let wall = start.elapsed();
                let report = report.map_err(|e| e.to_string())?;
                Ok(Outcome {
                    wall,
                    results: vec![Reference {
                        count: report.match_count(),
                        checksum: report.checksum(),
                    }],
                    complete: true,
                    ring_seconds: report.total_seconds(),
                    ring: report.ring,
                })
            }
            Plan::Multi(q) => {
                let start = Instant::now();
                let report = match backend {
                    Backend::Reactor => q.run_reactor(),
                    Backend::Threads => q.run_threaded(),
                };
                let wall = start.elapsed();
                let report = report.map_err(|e| e.to_string())?;
                Ok(Outcome {
                    wall,
                    results: report
                        .tenants
                        .iter()
                        .map(|t| Reference {
                            count: t.count,
                            checksum: t.checksum,
                        })
                        .collect(),
                    complete: report.all_completed(),
                    ring_seconds: report.total_seconds(),
                    ring: report.ring,
                })
            }
        }
    }
}

/// The ring configuration the entry points default to, reshaped to the
/// workload's host count — what the layer replay must mirror.
pub fn default_ring(shape: &Shape) -> RingConfig {
    let mut config = RingConfig::paper(6);
    config.hosts = shape.hosts;
    config
}

/// A query passes when it completed and every tenant's count and
/// checksum equal the reference.
pub fn verified(outcome: &Result<Outcome, String>, refs: &[Reference]) -> bool {
    match outcome {
        Ok(o) => o.complete && o.results == refs,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = Inputs::generate(Workload::TenantsLossy, 5, true);
        let b = Inputs::generate(Workload::TenantsLossy, 5, true);
        let c = Inputs::generate(Workload::TenantsLossy, 6, true);
        assert_eq!(a.jobs.len(), 8);
        assert_eq!(a.jobs[3].r, b.jobs[3].r);
        assert_ne!(a.jobs[3].r, c.jobs[3].r);
        assert!(a.loss.is_some());
    }
}
