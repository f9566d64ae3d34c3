//! Scalar-load list scheduling — ablation X1.
//!
//! Identical to TREESCHEDULE in every respect (same phases, same degrees
//! of coarse-grain parallelism, same clone vectors, same sharing of sites
//! among concurrent operators) except for the packing criterion: the
//! "least filled" site is chosen by *total scalar load*
//! `Σ_k Σ_{W ∈ work(s)} W[k]` instead of the multi-dimensional length
//! `l(work(s))`. Comparing the two isolates exactly what the paper's
//! multi-dimensionality buys: balancing each resource dimension rather
//! than total work.

use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::model::ResponseModel;
use mrs_core::operator::Placement;
use mrs_core::resource::{SiteId, SystemSpec};
use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use mrs_core::tree::{
    governed_degree, phased_schedule, PhasePolicy, TreeProblem, TreeScheduleResult,
};
use mrs_core::vector::WorkVector;

/// Packs clones choosing the site with the minimum *scalar* load among
/// allowable sites (LPT order on clone scalar totals).
fn pack_clones_scalar(
    ops: &[ScheduledOperator],
    sys: &SystemSpec,
) -> Result<Assignment, ScheduleError> {
    let p = sys.sites;
    let mut assignment = Assignment::with_capacity(ops.len());
    let mut load = vec![0.0f64; p];
    let mut occupied: Vec<Vec<bool>> = vec![vec![false; p]; ops.len()];

    // Rooted pre-placement.
    for (i, op) in ops.iter().enumerate() {
        if op.degree > p {
            return Err(ScheduleError::DegreeExceedsSites {
                op: op.spec.id,
                degree: op.degree,
                sites: p,
            });
        }
        if let Placement::Rooted(homes) = &op.spec.placement {
            for (k, &site) in homes.iter().enumerate() {
                if site.0 >= p {
                    return Err(ScheduleError::SiteOutOfRange {
                        op: op.spec.id,
                        site,
                        sites: p,
                    });
                }
                load[site.0] += op.clones[k].total();
                occupied[i][site.0] = true;
            }
            assignment.homes[i] = homes.clone();
        } else {
            assignment.homes[i] = vec![SiteId(usize::MAX); op.degree];
        }
    }

    // LPT on scalar clone size.
    let mut list: Vec<(usize, usize, f64)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.spec.placement.is_floating() {
            for (k, w) in op.clones.iter().enumerate() {
                list.push((i, k, w.total()));
            }
        }
    }
    list.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

    for (i, k, total) in list {
        let mut best: Option<usize> = None;
        for s in 0..p {
            if occupied[i][s] {
                continue;
            }
            if best.is_none_or(|b| load[s] < load[b]) {
                best = Some(s);
            }
        }
        let s = best.expect("degree <= P guarantees a free site");
        load[s] += total;
        occupied[i][s] = true;
        assignment.homes[i][k] = SiteId(s);
    }
    Ok(assignment)
}

/// TREESCHEDULE with scalar-load packing (see module docs). Same
/// signature and semantics as [`mrs_core::tree::tree_schedule`].
pub fn scalar_tree_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<TreeScheduleResult, ScheduleError> {
    phased_schedule(problem, sys, model, PhasePolicy::Alap, |ops| {
        let scheduled: Vec<ScheduledOperator> = ops
            .into_iter()
            .map(|(spec, dependent)| {
                let degree = governed_degree(&spec, dependent, f, sys, comm, model, None);
                ScheduledOperator::even(spec, degree, comm, &sys.site)
            })
            .collect();
        let assignment = pack_clones_scalar(&scheduled, sys)?;
        let schedule = PhaseSchedule {
            ops: scheduled,
            assignment,
        };
        schedule.validate(sys)?;
        Ok(schedule)
    })
}

/// The scalar total of one clone — exposed for tests.
pub fn clone_scalar(w: &WorkVector) -> f64 {
    w.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
    use mrs_core::tasks::TaskGraph;
    use mrs_core::tree::tree_schedule;

    fn op(id: usize, w: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(id),
            OperatorKind::Other,
            WorkVector::from_slice(w),
            data,
        )
    }

    fn problem(ops: Vec<OperatorSpec>) -> TreeProblem {
        let ids: Vec<_> = (0..ops.len()).map(OperatorId).collect();
        TreeProblem {
            ops,
            tasks: TaskGraph::single_task(ids),
            bindings: vec![],
        }
    }

    #[test]
    fn produces_valid_schedules() {
        let sys = SystemSpec::homogeneous(6);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.3).unwrap();
        let p = problem(
            (0..6)
                .map(|i| op(i, &[2.0 + i as f64, 3.0, 0.0], 100_000.0))
                .collect(),
        );
        let r = scalar_tree_schedule(&p, 0.7, &sys, &comm, &model).unwrap();
        for ph in &r.phases {
            ph.schedule.validate(&sys).unwrap();
        }
        assert!(r.response_time > 0.0);
    }

    #[test]
    fn multi_dim_packing_beats_scalar_on_complementary_mix() {
        // Construct a workload where scalar packing is blind: CPU-heavy
        // and disk-heavy operators have identical totals, so scalar load
        // spreads them arbitrarily while vector packing pairs
        // complementary shapes.
        let sys = SystemSpec::homogeneous(4);
        let comm = CommModel::new(1e-6, 0.0).unwrap();
        let model = OverlapModel::perfect(); // T = max → sharing is free
        let mut ops = Vec::new();
        for i in 0..4 {
            ops.push(op(i, &[8.0, 0.0, 0.0], 0.0)); // CPU-bound
        }
        for i in 4..8 {
            ops.push(op(i, &[0.0, 8.0, 0.0], 0.0)); // disk-bound
        }
        let pb = problem(ops);
        let multi = tree_schedule(&pb, 1.0, &sys, &comm, &model).unwrap();
        let scalar = scalar_tree_schedule(&pb, 1.0, &sys, &comm, &model).unwrap();
        assert!(
            multi.response_time <= scalar.response_time + 1e-9,
            "multi {} vs scalar {}",
            multi.response_time,
            scalar.response_time
        );
    }

    #[test]
    fn same_degrees_as_tree_schedule() {
        let sys = SystemSpec::homogeneous(8);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        let pb = problem((0..4).map(|i| op(i, &[3.0, 2.0, 0.0], 250_000.0)).collect());
        let a = tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        let b = scalar_tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        for id in 0..4 {
            assert_eq!(
                a.homes_of(OperatorId(id)).unwrap().len(),
                b.homes_of(OperatorId(id)).unwrap().len(),
                "ablation must only change packing, not degrees"
            );
        }
    }
}
