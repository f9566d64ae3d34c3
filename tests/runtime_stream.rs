//! Cross-crate runtime tests: consistency with the offline scheduler and
//! determinism of the online event loop.

use mdrs::prelude::*;

fn problem(joins: usize, seed: u64, cost: &CostModel) -> TreeProblem {
    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    query_problem(&q, cost)
}

/// A query running alone in the runtime must finish in exactly its
/// standalone TreeSchedule response time: phases dispatch back-to-back
/// and the EqualFinish fluid sites reproduce each phase's analytic
/// makespan.
#[test]
fn single_query_matches_standalone_tree_schedule() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(24);
    for (eps, joins, seed) in [(0.0, 8, 1u64), (0.5, 12, 2), (1.0, 16, 3)] {
        let model = OverlapModel::new(eps).unwrap();
        let p = problem(joins, seed, &cost);
        let standalone = tree_schedule(&p, 0.7, &sys, &comm, &model)
            .unwrap()
            .response_time;

        let mut rt = Runtime::new(sys.clone(), comm, model, RuntimeConfig::default());
        let id = rt.submit_at(0.0, 0, p);
        let summary = rt.run_to_completion().unwrap();
        let service = summary.queries[id.0].service().unwrap();
        assert!(
            (service - standalone).abs() <= 1e-9 * standalone.max(1.0),
            "eps={eps}: runtime service {service} != standalone {standalone}"
        );
        assert!((summary.queries[id.0].slowdown().unwrap() - 1.0).abs() <= 1e-9);
    }
}

/// Two queries under FCFS produce identical traces across repeated runs:
/// the event loop is deterministic (sequence-number tie-breaking, sorted
/// completion processing).
#[test]
fn two_query_fcfs_is_deterministic() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();

    let run = || {
        let cfg = RuntimeConfig {
            policy: AdmissionPolicy::Fcfs,
            max_in_flight: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
        rt.submit_at(0.0, 0, problem(10, 11, &cost));
        rt.submit_at(5.0, 1, problem(12, 22, &cost));
        rt.run_to_completion().unwrap()
    };

    let a = run();
    let b = run();
    assert_eq!(a.queries.len(), b.queries.len());
    for (qa, qb) in a.queries.iter().zip(&b.queries) {
        assert_eq!(qa.start, qb.start, "{}: start differs", qa.id);
        assert_eq!(qa.finish, qb.finish, "{}: finish differs", qa.id);
        assert_eq!(qa.volume.to_bits(), qb.volume.to_bits());
    }
    assert_eq!(a.depth_trace, b.depth_trace);
    assert_eq!(a.site_busy, b.site_busy);
    // Both queries ran concurrently for a while (MPL 2, overlapping
    // lifetimes) — the test is only meaningful if they interfered.
    let (q0, q1) = (&a.queries[0], &a.queries[1]);
    assert!(
        q1.start.unwrap() < q0.finish.unwrap(),
        "queries never overlapped"
    );
    assert!(q0.slowdown().unwrap() > 1.0 || q1.slowdown().unwrap() > 1.0);
}

/// Same seed + same FaultPlan ⇒ bit-identical runs: the recovery loop
/// (crash eviction, re-packing, retries, deadlines) preserves the event
/// loop's determinism. Every admitted query must also reach exactly one
/// terminal outcome.
#[test]
fn faulted_stream_is_deterministic_and_terminal() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(12);
    let model = OverlapModel::new(0.5).unwrap();

    let run = || {
        let cfg = RuntimeConfig {
            policy: AdmissionPolicy::Fcfs,
            max_in_flight: 3,
            faults: FaultPlan::seeded(12, 4000.0, 120.0, 30.0, 0xFA17),
            deadline: Some(2500.0),
            recovery: RecoveryConfig {
                backoff_base: 5.0,
                backoff_cap: 80.0,
                degrade_threshold: 0.25,
                ..RecoveryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
        for (i, (joins, seed)) in [(8usize, 31u64), (12, 32), (10, 33), (14, 34), (6, 35)]
            .into_iter()
            .enumerate()
        {
            rt.submit_at(10.0 * i as f64, i % 2, problem(joins, seed, &cost));
        }
        rt.run_to_completion().unwrap()
    };

    let a = run();
    let b = run();
    assert!(
        a.sites_failed() > 0,
        "the fault plan must actually crash something"
    );
    for (qa, qb) in a.queries.iter().zip(&b.queries) {
        assert_eq!(qa.outcome, qb.outcome, "{}: outcome differs", qa.id);
        assert_eq!(
            qa.finish.map(f64::to_bits),
            qb.finish.map(f64::to_bits),
            "{}: finish differs",
            qa.id
        );
        assert!(
            matches!(
                qa.outcome,
                Some(QueryOutcome::Completed)
                    | Some(QueryOutcome::Aborted { .. })
                    | Some(QueryOutcome::Shed { .. })
            ),
            "{}: non-terminal outcome {:?}",
            qa.id,
            qa.outcome
        );
    }
    assert_eq!(a.trace, b.trace, "event streams must be identical");
    assert_eq!(a.depth_trace, b.depth_trace);
    assert_eq!(a.site_busy, b.site_busy);
}

/// The admission policies actually change the service order under
/// backlog: with the machine busy and a fat query queued ahead of a thin
/// one, SVF serves the thin one first while FCFS preserves arrival order.
#[test]
fn policies_reorder_backlog() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();

    let starts = |policy: AdmissionPolicy| {
        let cfg = RuntimeConfig {
            policy,
            max_in_flight: 1,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
        rt.submit_at(0.0, 0, problem(10, 5, &cost)); // running
        rt.submit_at(1.0, 0, problem(20, 6, &cost)); // fat, queued first
        rt.submit_at(2.0, 0, problem(4, 7, &cost)); // thin, queued second
        let summary = rt.run_to_completion().unwrap();
        (
            summary.queries[1].start.unwrap(),
            summary.queries[2].start.unwrap(),
        )
    };

    let (fat_fcfs, thin_fcfs) = starts(AdmissionPolicy::Fcfs);
    assert!(fat_fcfs < thin_fcfs, "FCFS must preserve arrival order");
    let (fat_svf, thin_svf) = starts(AdmissionPolicy::SmallestVolumeFirst);
    assert!(thin_svf < fat_svf, "SVF must serve the thin query first");
}
