//! The four query-stream workloads and their seeded inputs.
//!
//! Every workload serves P = 140 homogeneous 3-resource sites at MPL 4
//! with granularity f = 0.7 and the paper's cost defaults. Arrivals are an
//! open loop in virtual time: a Poisson process whose rate does not depend
//! on completions, normalised as in `mrs-repro serve`:
//! `rate = load × MPL ÷ mean standalone response time`. Each load sits
//! below the knee, so the admission backlog does not grow with stream
//! length (`perfbench calibrate` checks this by doubling the stream).

use crate::trace::Tracer;
use mrs_core::comm::CommModel;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::rng::DetRng;
use mrs_core::tree::tree_schedule;
use mrs_cost::prelude::CostModel;
use mrs_exp::prelude::query_problem;
use mrs_runtime::prelude::RuntimeConfig;
use mrs_sim::fault::FaultPlan;
use mrs_workload::prelude::{
    generate_query, overlap_batch, poisson_arrivals, GeneratedQuery, QueryGenConfig,
};

/// Sites of the simulated machine.
pub const SITES: usize = 140;
/// Granularity parameter of TreeSchedule (the runtime default).
pub const F: f64 = 0.7;
/// Multiprogramming level (the runtime default).
pub const MPL: usize = 4;
/// Resource-overlap parameter of the response-time model.
const EPSILON: f64 = 0.5;
/// Join counts of generated plans: the `i`-th distinct plan (or batch)
/// has `MIN_JOINS + i mod JOIN_SIZES` joins, 6 to 14, so every seed draws
/// the same mix of plan sizes and only shapes and cardinalities vary.
const MIN_JOINS: usize = 6;
const JOIN_SIZES: usize = 9;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A few recurring plans cycled over a long clean stream: the schedule
    /// cache serves nearly every admission.
    Templated,
    /// Every query a distinct plan, clean: every admission plans cold.
    Adhoc,
    /// The templated stream under a seeded crash/recover plan: recovery
    /// re-packs and cache-epoch invalidation.
    Faults,
    /// Overlap-templated batches under batch admission with plan sharing.
    Mqo,
}

/// The shape of a workload's stream.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Queries submitted per stream.
    pub queries: usize,
    /// Distinct plans cycled over the stream (`None`: every query distinct).
    pub templates: Option<usize>,
    /// Offered load: the arrival rate as a multiple of `MPL ÷ mean
    /// standalone response`.
    pub load: f64,
    /// Mean time between failures per site, in mean standalone responses
    /// (`None`: no faults).
    pub mtbf: Option<f64>,
    /// Batch admission window and plan-sharing batch size (`0`: off).
    pub batch: usize,
}

/// Independently seeded sub-streams a run serves round-robin. The
/// simulated latencies are taken over all of them, so a run's tail
/// percentile rests on `STREAMS` times as many queries (and plan sets) as
/// one stream holds. Odd, so alternating traced repetitions cover every
/// sub-stream.
pub const STREAMS: usize = 5;

/// Seed of sub-stream `k` of a run seeded with `seed`.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Queries of a stream whose plans set its mean standalone response time
/// (and so its arrival rate): enough to cover every template many times,
/// and a large sample of distinct plans.
const CALIBRATION_QUERIES: usize = 512;

/// Overlap fraction of the `mqo` batches.
pub const MQO_OVERLAP: f64 = 0.9;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Templated,
        Workload::Adhoc,
        Workload::Faults,
        Workload::Mqo,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Templated => "templated",
            Workload::Adhoc => "adhoc",
            Workload::Faults => "faults",
            Workload::Mqo => "mqo",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Stream shape and calibrated load.
    pub fn spec(self) -> Spec {
        let clean = Spec {
            queries: 4000,
            templates: Some(24),
            load: 0.2,
            mtbf: None,
            batch: 0,
        };
        match self {
            Workload::Templated => clean,
            Workload::Adhoc => Spec {
                queries: 2000,
                templates: None,
                ..clean
            },
            Workload::Faults => Spec {
                queries: 2000,
                mtbf: Some(5000.0),
                ..clean
            },
            Workload::Mqo => Spec {
                queries: 1002,
                templates: None,
                load: 0.15,
                batch: 6,
                ..clean
            },
        }
    }
}

/// The fixed system and models every workload runs on.
pub struct Env {
    /// The machine.
    pub sys: SystemSpec,
    /// Communication-cost model derived from the cost parameters.
    pub comm: CommModel,
    /// Response-time model.
    pub model: OverlapModel,
    /// The paper's cost model (plan → scheduling problem).
    pub cost: CostModel,
}

impl Env {
    /// The paper's defaults on [`SITES`] sites.
    pub fn paper() -> Self {
        let cost = CostModel::paper_defaults();
        Env {
            sys: SystemSpec::homogeneous(SITES),
            comm: cost.params().comm_model(),
            model: OverlapModel::new(EPSILON).expect("paper epsilon is valid"),
            cost,
        }
    }
}

/// A generated stream: what the benchmark hands to the program.
pub struct Inputs {
    /// Distinct generated plans.
    pub plans: Vec<GeneratedQuery>,
    /// The plan of each submitted query, in submission order.
    pub plan_of: Vec<usize>,
    /// Arrival time of each submitted query (non-decreasing).
    pub arrivals: Vec<f64>,
    /// Runtime configuration: the defaults plus the workload's faults and
    /// batch admission.
    pub cfg: RuntimeConfig,
    /// Mean standalone response time over the stream (virtual seconds).
    pub mean_standalone: f64,
}

impl Inputs {
    /// The submitted queries, in submission order.
    pub fn stream(&self) -> impl Iterator<Item = &GeneratedQuery> {
        self.plan_of.iter().map(|&i| &self.plans[i])
    }
}

/// Generates the inputs of a stream shaped by `spec` from `seed`.
/// Generation calls are recorded as `workload.*` spans; the rate
/// calibration as `workload.calibrate`.
pub fn generate(spec: Spec, seed: u64, env: &Env, t: &mut Tracer) -> Inputs {
    let queries = spec.queries;
    let mut rng = DetRng::seed_from_u64(seed);
    let joins = |i: usize| MIN_JOINS + i % JOIN_SIZES;
    let (plans, plan_of) = if spec.batch > 0 {
        let batches = queries.div_ceil(spec.batch);
        let mut plans = Vec::with_capacity(batches * spec.batch);
        for b in 0..batches {
            let batch_seed = rng.next_u64();
            plans.extend(t.time("workload.overlap_batch", || {
                overlap_batch(
                    &QueryGenConfig::paper(joins(b)),
                    MQO_OVERLAP,
                    spec.batch,
                    batch_seed,
                )
            }));
        }
        plans.truncate(queries);
        let plan_of: Vec<usize> = (0..plans.len()).collect();
        (plans, plan_of)
    } else {
        let distinct = spec.templates.map_or(queries, |k| k.min(queries));
        let plans: Vec<_> = (0..distinct)
            .map(|i| {
                let plan_seed = rng.next_u64();
                t.time("workload.generate_query", || {
                    generate_query(&QueryGenConfig::paper(joins(i)), plan_seed)
                })
            })
            .collect();
        (plans, (0..queries).map(|i| i % distinct).collect())
    };

    // Mean standalone response over the stream's first queries, weighting
    // each distinct plan by how often it is submitted among them.
    t.enter("workload.calibrate");
    let sample = &plan_of[..plan_of.len().min(CALIBRATION_QUERIES)];
    let mut uses = vec![0usize; plans.len()];
    for &i in sample {
        uses[i] += 1;
    }
    let total: f64 = plans
        .iter()
        .zip(&uses)
        .filter(|(_, &n)| n > 0)
        .map(|(q, &n)| {
            let problem = query_problem(q, &env.cost);
            let r = tree_schedule(&problem, F, &env.sys, &env.comm, &env.model)
                .expect("generated plans always schedule")
                .response_time;
            r * n as f64
        })
        .sum();
    t.exit();
    let mean_standalone = total / sample.len() as f64;
    let rate = spec.load * MPL as f64 / mean_standalone;
    let arrivals = t.time("workload.poisson_arrivals", || {
        poisson_arrivals(rate, queries, seed ^ 0xA11C_E5ED)
    });

    let faults = match spec.mtbf {
        Some(m) => {
            // Let the failure schedule outlast even a stretched run. Sites
            // stay down for a quarter of a mean standalone response.
            let horizon = arrivals.last().copied().unwrap_or(0.0) + 50.0 * mean_standalone;
            FaultPlan::seeded(
                SITES,
                horizon,
                m * mean_standalone,
                0.25 * mean_standalone,
                seed ^ 0x0FA7_0FA7,
            )
        }
        None => FaultPlan::none(),
    };
    let cfg = RuntimeConfig {
        faults,
        batch_window: spec.batch,
        plan_sharing: spec.batch > 0,
        ..RuntimeConfig::default()
    };
    Inputs {
        plans,
        plan_of,
        arrivals,
        cfg,
        mean_standalone,
    }
}
