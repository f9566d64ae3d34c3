//! Cross-crate MQO sharing tests: the subtree-fragment memo must be an
//! invisible planning optimization. Splicing a fragment planned for one
//! query into another query with an equal canonical signature must
//! reproduce, bit for bit, what a cold planner would have packed — and
//! the batched runtime must stay deterministic and `--jobs`-invariant
//! with sharing on.

use mdrs::prelude::*;

/// A stream of overlap-templated batches converted to scheduling
/// problems (one generation batch per admission window).
fn overlap_stream(
    joins: usize,
    overlap: f64,
    window: usize,
    batches: usize,
    seed: u64,
    cost: &CostModel,
) -> Vec<TreeProblem> {
    let gen_cfg = QueryGenConfig::paper(joins);
    (0..batches)
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

/// The sharing soundness property, swept over seeds and overlaps:
/// planning a member against a memo warmed by its batch-mates splices
/// fragments whose signatures match, and the spliced result is
/// bit-identical to a cold plan of the same member. Signature equality
/// must imply digest-identical sub-schedules — that is the exact-bits
/// discipline [`SubtreeSig`] promises.
#[test]
fn warm_splices_reproduce_cold_plans_bit_for_bit() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(20);
    let model = OverlapModel::new(0.5).unwrap();
    let f = 0.7;
    let mut spliced_anywhere = false;
    for seed in [7u64, 1996, 40_971] {
        for overlap in [0.5, 0.8, 1.0] {
            let batch = overlap_batch(&QueryGenConfig::paper(10), overlap, 4, seed);
            let mut warm = MapFragmentCache::new();
            for q in &batch {
                let p = query_problem(q, &cost);
                let (shared, stats) =
                    tree_schedule_shared(&p, f, &sys, &comm, &model, None, &mut warm).unwrap();
                let (cold, _) = tree_schedule_shared(
                    &p,
                    f,
                    &sys,
                    &comm,
                    &model,
                    None,
                    &mut MapFragmentCache::new(),
                )
                .unwrap();
                assert_eq!(
                    schedule_digest(&shared),
                    schedule_digest(&cold),
                    "seed {seed} overlap {overlap}: splice drifted from a cold plan"
                );
                spliced_anywhere |= stats.subtree_hits > 0;
            }
        }
    }
    assert!(spliced_anywhere, "the sweep never exercised a splice");
}

/// Signature equality is meaningful across members: every batch member
/// shares canonical subtree signatures with its batch-mates at full
/// overlap, and members of *different* batches (different cores) share
/// none of the deeper core signatures.
#[test]
fn overlap_batches_share_canonical_signatures() {
    let cost = CostModel::paper_defaults();
    let batch = overlap_batch(&QueryGenConfig::paper(12), 1.0, 3, 5);
    let sigs: Vec<Vec<SubtreeSig>> = batch
        .iter()
        .map(|q| subtree_signatures(&query_problem(q, &cost), 0.7, None).unwrap())
        .collect();
    // Full overlap: identical templates, identical signature multisets.
    assert_eq!(sigs[0], sigs[1]);
    assert_eq!(sigs[1], sigs[2]);
    // A different batch seed draws a different core: no signature of its
    // members matches any of the first batch's.
    let other = overlap_batch(&QueryGenConfig::paper(12), 1.0, 3, 6);
    let other_sigs = subtree_signatures(&query_problem(&other[0], &cost), 0.7, None).unwrap();
    assert!(
        other_sigs.iter().all(|s| !sigs[0].contains(s)),
        "distinct cores must not collide"
    );
}

/// The batched runtime under `verify_cache`: every whole-plan hit is
/// shadow-replanned with the *shared* planner against a cold memo and
/// must digest-match, even while a site crashes and recovers mid-stream.
/// Completing the run is the assertion.
#[test]
fn batched_sharing_survives_shadow_verification_under_faults() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();
    let stream = overlap_stream(9, 0.8, 4, 3, 1996, &cost);
    // All twelve queries arrive up front; at MPL 3 the run lasts about
    // four standalone times, so a crash at 1.5x lands mid-stream.
    let standalone = tree_schedule(&stream[0], 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let cfg = RuntimeConfig {
        max_in_flight: 3,
        batch_window: 4,
        plan_sharing: true,
        verify_cache: true,
        faults: FaultPlan::scripted(vec![
            FaultEvent {
                time: 1.5 * standalone,
                site: 5,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                time: 2.0 * standalone,
                site: 5,
                kind: FaultKind::Recover,
            },
        ]),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
    for (i, p) in stream.into_iter().enumerate() {
        rt.submit_at(1e-3 * i as f64, i % 3, p);
    }
    let summary = rt.run_to_completion().unwrap();
    assert!(
        summary.cache.subtree_hits > 0,
        "the overlapped stream never spliced"
    );
    // The crash and the recovery are each counted, and evict nothing.
    assert_eq!(summary.cache.epoch_bumps, 2, "the fault pair is counted");
    assert_eq!(summary.cache.stale_evictions, 0);
}

/// Batched admission with sharing on is deterministic: two runs over the
/// same stream give the same full summary digest (trajectories, traces,
/// counters).
#[test]
fn batched_sharing_is_byte_identical_across_runs() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(12);
    let model = OverlapModel::new(0.5).unwrap();
    let stream = overlap_stream(8, 0.9, 3, 3, 42, &cost);
    let run = || {
        let cfg = RuntimeConfig {
            max_in_flight: 2,
            batch_window: 3,
            plan_sharing: true,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
        for (i, p) in stream.iter().enumerate() {
            rt.submit_at(8.0 * i as f64, i % 3, p.clone());
        }
        rt.run_to_completion().unwrap()
    };
    let first = run();
    assert!(first.cache.subtree_hits > 0, "no sharing exercised");
    assert_eq!(
        first.digest(),
        run().digest(),
        "batched summary must be identical across runs"
    );
}

/// The X16 experiment is `--jobs`-invariant: the worker-pool split must
/// never leak into the emitted table.
#[test]
fn mqo_experiment_is_jobs_invariant() {
    let serial = mqo(&ExpConfig {
        fast: true,
        jobs: 1,
        ..Default::default()
    });
    let parallel = mqo(&ExpConfig {
        fast: true,
        jobs: 4,
        ..Default::default()
    });
    assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
}
