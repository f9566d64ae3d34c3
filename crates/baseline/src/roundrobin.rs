//! Round-robin packing — the "no load balancing at all" control baseline.
//!
//! Degrees of parallelism are chosen exactly as in TREESCHEDULE, but
//! clones are dealt onto sites in plain round-robin order, ignoring loads
//! entirely. Useful as a floor in ablation studies: any credit the list
//! rule earns must show up against this.

use mrs_core::comm::CommModel;
use mrs_core::error::ScheduleError;
use mrs_core::model::ResponseModel;
use mrs_core::operator::Placement;
use mrs_core::resource::{SiteId, SystemSpec};
use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
use mrs_core::tree::{
    governed_degree, phased_schedule, PhasePolicy, TreeProblem, TreeScheduleResult,
};

/// TREESCHEDULE with round-robin clone placement.
pub fn round_robin_tree_schedule<M: ResponseModel>(
    problem: &TreeProblem,
    f: f64,
    sys: &SystemSpec,
    comm: &CommModel,
    model: &M,
) -> Result<TreeScheduleResult, ScheduleError> {
    phased_schedule(problem, sys, model, PhasePolicy::Alap, |ops| {
        let p = sys.sites;
        let scheduled: Vec<ScheduledOperator> = ops
            .into_iter()
            .map(|(spec, dependent)| {
                let degree = governed_degree(&spec, dependent, f, sys, comm, model, None);
                ScheduledOperator::even(spec, degree, comm, &sys.site)
            })
            .collect();
        let mut assignment = Assignment::with_capacity(scheduled.len());
        let mut cursor = 0usize;
        for (i, op) in scheduled.iter().enumerate() {
            if op.degree > p {
                return Err(ScheduleError::DegreeExceedsSites {
                    op: op.spec.id,
                    degree: op.degree,
                    sites: p,
                });
            }
            match &op.spec.placement {
                Placement::Rooted(homes) => assignment.homes[i] = homes.clone(),
                Placement::Floating => {
                    // Consecutive sites starting at the cursor; distinct
                    // because degree <= P.
                    assignment.homes[i] =
                        (0..op.degree).map(|k| SiteId((cursor + k) % p)).collect();
                    cursor = (cursor + op.degree) % p;
                }
            }
        }
        let schedule = PhaseSchedule {
            ops: scheduled,
            assignment,
        };
        schedule.validate(sys)?;
        Ok(schedule)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::model::OverlapModel;
    use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
    use mrs_core::tasks::TaskGraph;
    use mrs_core::tree::tree_schedule;
    use mrs_core::vector::WorkVector;

    fn problem(n: usize) -> TreeProblem {
        let ops: Vec<_> = (0..n)
            .map(|i| {
                OperatorSpec::floating(
                    OperatorId(i),
                    OperatorKind::Other,
                    WorkVector::from_slice(&[1.0 + (i % 3) as f64, 2.0, 0.0]),
                    150_000.0,
                )
            })
            .collect();
        let ids: Vec<_> = (0..n).map(OperatorId).collect();
        TreeProblem {
            ops,
            tasks: TaskGraph::single_task(ids),
            bindings: vec![],
        }
    }

    #[test]
    fn valid_and_deterministic() {
        let sys = SystemSpec::homogeneous(5);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.5).unwrap();
        let pb = problem(7);
        let a = round_robin_tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        let b = round_robin_tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
        assert_eq!(a.response_time, b.response_time);
        for ph in &a.phases {
            ph.schedule.validate(&sys).unwrap();
        }
    }

    #[test]
    fn list_rule_no_worse_than_round_robin_on_average() {
        let sys = SystemSpec::homogeneous(6);
        let comm = CommModel::paper_defaults();
        let model = OverlapModel::new(0.3).unwrap();
        let mut wins = 0usize;
        let mut total = 0usize;
        for n in 3..12 {
            let pb = problem(n);
            let lpt = tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
            let rr = round_robin_tree_schedule(&pb, 0.7, &sys, &comm, &model).unwrap();
            total += 1;
            if lpt.response_time <= rr.response_time + 1e-9 {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "list rule lost to round-robin on most inputs ({wins}/{total})"
        );
    }
}
