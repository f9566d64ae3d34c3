//! X16 — MQO batch-admission sweep: what cross-query plan sharing buys
//! as template overlap grows.
//!
//! A stream of overlap-templated batches ([`overlap_batch`]) is served
//! under batched admission (`batch_window` = the generation batch size,
//! so each released window is one templated batch) across a grid of
//! overlap fraction × batch window × {shared, unshared} × {clean,
//! faults}. *Unshared* runs batch admission with per-query planning;
//! *shared* turns on [`RuntimeConfig::plan_sharing`], so each window's
//! common rooted subtrees are packed once and spliced by every later
//! member ("build once, probe many").
//!
//! The headline column is `plans` — task pipelines actually packed
//! ([`mrs_runtime::prelude::RunSummary::tasks_planned`]), the unit of
//! planning work both modes account identically — alongside `subtree_hits`/`spliced`
//! (memo traffic) and the usual served-stream metrics. At high overlap
//! the shared rows must cut `plans` by at least 2x; at zero overlap the
//! two modes degenerate to the same per-query planning (modulo the
//! packing-strategy difference, which the `throughput` column keeps
//! honest). The faults scenario replays the X13 crash/recovery schedule
//! on top: plans and fragments never read site state, so a crash evicts
//! nothing from either memo and recovery re-packs around the dead site
//! at dispatch.
//!
//! Sharing is a *planning* optimization, not a semantics change: every
//! splice is audited for digest identity (the
//! `runtime-mqo` audit family), and with sharing disabled the runtime's
//! trajectory is byte-identical to the pre-MQO path (CI diffs the serve
//! transcript).

use crate::config::ExpConfig;
use crate::report::Report;
use crate::runner::{par_map, query_problem};
use crate::tablefmt::Table;
use mrs_core::model::OverlapModel;
use mrs_core::resource::SystemSpec;
use mrs_core::tree::tree_schedule;
use mrs_cost::prelude::CostModel;
use mrs_runtime::prelude::{AdmissionPolicy, AuditEvent, RecoveryConfig, Runtime, RuntimeConfig};
use mrs_sim::fault::FaultPlan;
use mrs_workload::prelude::{overlap_batch, poisson_arrivals, QueryGenConfig};

/// One sweep cell, kept numeric for the ratio post-pass.
struct Cell {
    overlap: f64,
    window: usize,
    mode: &'static str,
    scenario: &'static str,
    completed: usize,
    aborted: usize,
    throughput: f64,
    p95: f64,
    plans: u64,
    whole_hits: u64,
    subtree_hits: u64,
    spliced: u64,
    batches: u64,
    occupancy: f64,
}

/// The `mqo` experiment (see the module docs).
pub fn mqo(cfg: &ExpConfig) -> Report {
    let (sites, joins, n_batches) = if cfg.fast { (16, 10, 3) } else { (32, 12, 6) };
    let mpl = 4;
    let eps = 0.5;
    let f = 0.7;
    let offered_load = 1.2;

    let overlaps: Vec<f64> = if cfg.fast {
        vec![0.0, 0.5, 0.9]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 0.9]
    };
    let windows: Vec<usize> = if cfg.fast { vec![6] } else { vec![3, 6] };
    let modes: [(&'static str, bool); 2] = [("unshared", false), ("shared", true)];
    let scenarios: [&'static str; 2] = ["clean", "faults"];

    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let model = OverlapModel::new(eps).expect("paper epsilon is valid");
    let sys = SystemSpec::homogeneous(sites);

    // Calibrate the arrival rate once, against a mid-overlap stream.
    let calib: Vec<_> = overlap_stream(joins, 0.5, windows[0], n_batches, cfg.seed, &cost);
    let mean_standalone: f64 = calib
        .iter()
        .map(|p| {
            tree_schedule(p, f, &sys, &comm, &model)
                .expect("overlap batches always schedule")
                .response_time
        })
        .sum::<f64>()
        / calib.len() as f64;
    let nominal = mpl as f64 / mean_standalone;
    let plan_horizon = 120.0 * mean_standalone;

    let mut cells: Vec<(f64, usize, &'static str, bool, &'static str)> = Vec::new();
    for &overlap in &overlaps {
        for &window in &windows {
            for (mode, sharing) in &modes {
                for scenario in &scenarios {
                    cells.push((overlap, window, mode, *sharing, scenario));
                }
            }
        }
    }

    let results: Vec<Cell> = par_map(
        cfg.effective_jobs(),
        &cells,
        |(overlap, window, mode, sharing, scenario)| {
            let stream = overlap_stream(joins, *overlap, *window, n_batches, cfg.seed, &cost);
            let n = stream.len();
            let arrivals = poisson_arrivals(offered_load * nominal, n, cfg.seed ^ 0xA11C_E5ED);
            let faults = if *scenario == "faults" {
                FaultPlan::seeded(
                    sites,
                    plan_horizon,
                    2.0 * mean_standalone,
                    0.3 * mean_standalone,
                    cfg.seed ^ 0x0FA7_0FA7,
                )
            } else {
                FaultPlan::none()
            };
            let rt_cfg = RuntimeConfig {
                f,
                policy: AdmissionPolicy::Fcfs,
                max_in_flight: mpl,
                faults,
                deadline: (*scenario == "faults").then_some(plan_horizon),
                recovery: RecoveryConfig {
                    rebuild_factor: 0.1,
                    max_retries: 4,
                    backoff_base: 0.1 * mean_standalone,
                    backoff_cap: 2.0 * mean_standalone,
                    degrade_threshold: 0.25,
                },
                batch_window: *window,
                plan_sharing: *sharing,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(sys.clone(), comm, model, rt_cfg);
            for (i, (p, t)) in stream.iter().zip(&arrivals).enumerate() {
                rt.submit_at(*t, i % 3, p.clone());
            }
            let summary = rt
                .run_to_completion()
                .expect("overlap batches always schedule");
            debug_assert_eq!(
                summary
                    .trace
                    .iter()
                    .filter(|ev| matches!(ev, AuditEvent::FragmentSpliced { .. }))
                    .count() as u64,
                summary.cache.subtree_hits,
                "every subtree hit must be traced as a splice"
            );
            Cell {
                overlap: *overlap,
                window: *window,
                mode,
                scenario,
                completed: summary.completed(),
                aborted: summary.aborted(),
                throughput: summary.throughput(),
                p95: summary.p95_latency(),
                plans: summary.tasks_planned(),
                whole_hits: summary.cache.hits,
                subtree_hits: summary.cache.subtree_hits,
                spliced: summary.cache.fragments_spliced,
                batches: summary.cache.batches_released,
                occupancy: if summary.cache.batches_released == 0 {
                    0.0
                } else {
                    summary.cache.batch_members as f64 / summary.cache.batches_released as f64
                },
            }
        },
    );

    let mut table = Table::new(vec![
        "overlap",
        "window",
        "mode",
        "scenario",
        "completed",
        "aborted",
        "throughput",
        "p95",
        "plans",
        "whole_hits",
        "subtree_hits",
        "spliced",
        "batches",
        "occupancy",
    ]);
    for cell in &results {
        table.push_row(vec![
            format!("{:.2}", cell.overlap),
            cell.window.to_string(),
            cell.mode.to_owned(),
            cell.scenario.to_owned(),
            cell.completed.to_string(),
            cell.aborted.to_string(),
            format!("{:.5}", cell.throughput),
            format!("{:.2}", cell.p95),
            cell.plans.to_string(),
            cell.whole_hits.to_string(),
            cell.subtree_hits.to_string(),
            cell.spliced.to_string(),
            cell.batches.to_string(),
            format!("{:.2}", cell.occupancy),
        ]);
    }

    let mut notes: Vec<String> = Vec::new();
    notes.push(format!(
        "stream = {n_batches} templated batches per window size, batch_window = generation \
         batch size (windows align with templates); rate {offered_load}x nominal, \
         R̄ = {mean_standalone:.1}s; plans = task pipelines packed (both modes account \
         identically); faults: MTBF 2.0·R̄, MTTR 0.3·R̄ (X13 schedule)"
    ));
    // Ratio post-pass: shared vs unshared planning work per (overlap,
    // window) on the clean rows.
    let top = overlaps.last().copied().unwrap_or(0.0);
    for &window in &windows {
        for &overlap in &overlaps {
            let at = |mode: &str| {
                results.iter().find(|c| {
                    c.mode == mode
                        && c.scenario == "clean"
                        && c.window == window
                        && c.overlap == overlap
                })
            };
            if let (Some(u), Some(s)) = (at("unshared"), at("shared")) {
                if s.plans > 0 {
                    notes.push(format!(
                        "overlap {overlap:.2} window {window}: plans {} -> {} \
                         ({:.2}x), {} subtree hits, {} phase schedules spliced",
                        u.plans,
                        s.plans,
                        u.plans as f64 / s.plans as f64,
                        s.subtree_hits,
                        s.spliced
                    ));
                }
            }
        }
    }
    notes.push(format!(
        "acceptance: at overlap {top:.2} the shared rows must pack at most half the \
         pipelines of the unshared rows (>=2x plans reduction); at overlap 0.00 sharing \
         finds nothing and both modes plan every pipeline"
    ));

    Report {
        id: "mqo",
        title: "MQO batch admission: cross-query subtree sharing vs template overlap".to_owned(),
        params: format!(
            "P={sites} d=3 eps={eps} f={f} MPL={mpl} joins={joins} batches={n_batches} seed={}",
            cfg.seed
        ),
        table,
        notes,
    }
}

/// `n_batches` overlap-templated batches of `window` queries each,
/// flattened in arrival order. Each batch draws a fresh core (seed
/// offset by the batch index), so sharing is within-batch by
/// construction.
fn overlap_stream(
    joins: usize,
    overlap: f64,
    window: usize,
    n_batches: usize,
    seed: u64,
    cost: &CostModel,
) -> Vec<mrs_core::tree::TreeProblem> {
    let gen_cfg = QueryGenConfig::paper(joins);
    (0..n_batches)
        .flat_map(|b| {
            overlap_batch(
                &gen_cfg,
                overlap,
                window,
                seed ^ (b as u64).wrapping_mul(0xB10C),
            )
            .iter()
            .map(|q| query_problem(q, cost))
            .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ExpConfig {
        ExpConfig {
            fast: true,
            jobs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn fast_mqo_covers_the_sweep_and_hits_the_sharing_gate() {
        let report = mqo(&fast_cfg());
        // 3 overlaps x 1 window x 2 modes x 2 scenarios.
        assert_eq!(report.table.rows.len(), 12);
        let cell = |overlap: &str, mode: &str, scenario: &str| {
            report
                .table
                .rows
                .iter()
                .find(|r| r[0] == overlap && r[2] == mode && r[3] == scenario)
                .unwrap_or_else(|| panic!("missing cell {overlap}/{mode}/{scenario}"))
                .clone()
        };
        // The acceptance gate: >=2x plans-computed reduction at high
        // overlap on the clean rows.
        let u: f64 = cell("0.90", "unshared", "clean")[8].parse().unwrap();
        let s: f64 = cell("0.90", "shared", "clean")[8].parse().unwrap();
        assert!(
            u >= 2.0 * s,
            "high-overlap sharing must at least halve planning work: {u} vs {s}"
        );
        // Zero overlap: nothing to share.
        let z = cell("0.00", "shared", "clean");
        assert_eq!(z[10], "0", "no subtree hits without overlap");
        // Sharing never changes how many queries complete (clean rows).
        for overlap in ["0.00", "0.50", "0.90"] {
            assert_eq!(
                cell(overlap, "unshared", "clean")[4],
                cell(overlap, "shared", "clean")[4],
                "completion count must not depend on sharing at overlap {overlap}"
            );
        }
        // Faulty shared rows still conserve outcomes.
        let fr = cell("0.90", "shared", "faults");
        let completed: usize = fr[4].parse().unwrap();
        let aborted: usize = fr[5].parse().unwrap();
        assert_eq!(completed + aborted, 18, "outcome conservation under faults");
    }

    #[test]
    fn mqo_is_deterministic() {
        let a = mqo(&fast_cfg()).table.to_csv();
        let b = mqo(&fast_cfg()).table.to_csv();
        assert_eq!(a, b);
    }
}
