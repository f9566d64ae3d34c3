//! Cross-crate serving-hot-path tests: every schedule-cache hit must be
//! bit-identical to a fresh plan (shadow-verified), and a site failure
//! mid-stream evicts nothing, because plans never read site state.

use mdrs::prelude::*;

fn template(joins: usize, seed: u64, cost: &CostModel) -> TreeProblem {
    let q = generate_query(&QueryGenConfig::paper(joins), seed);
    query_problem(&q, cost)
}

/// Submits a templated stream: `n` arrivals cycling through three
/// generated query templates, so most admissions should hit the cache.
fn submit_stream(rt: &mut Runtime<OverlapModel>, n: usize, cost: &CostModel) {
    let templates = [
        template(8, 41, cost),
        template(12, 42, cost),
        template(10, 43, cost),
    ];
    for i in 0..n {
        rt.submit_at(
            6.0 * i as f64,
            i % 3,
            templates[i % templates.len()].clone(),
        );
    }
}

/// `verify_cache` shadow-computes every hit and panics on a digest
/// mismatch, so completing a hit-heavy faulted run under it proves each
/// served schedule byte-identical to a fresh computation. Two fault
/// plans: a crash that stays down, and a crash/recover pair early in the
/// stream (plans cached before the faults keep hitting after them).
#[test]
fn cache_hits_survive_shadow_verification() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();
    let crash = |time: f64, site: usize| FaultEvent {
        time,
        site,
        kind: FaultKind::Crash,
    };
    let recover = FaultEvent {
        time: 260.0,
        site: 3,
        kind: FaultKind::Recover,
    };
    let plans = [
        FaultPlan::scripted(vec![crash(250.0, 7)]),
        FaultPlan::scripted(vec![crash(200.0, 3), recover]),
    ];
    for faults in plans {
        let cfg = RuntimeConfig {
            max_in_flight: 3,
            verify_cache: true,
            faults,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
        submit_stream(&mut rt, 12, &cost);
        let summary = rt.run_to_completion().unwrap();
        assert!(summary.cache.hits > 0, "nothing was shadow-verified");
        assert_eq!(summary.plans_computed(), summary.cache.misses);
        let admitted = summary.queries.iter().filter(|q| q.start.is_some()).count();
        assert_eq!(summary.cache.hits + summary.cache.misses, admitted as u64);
    }
}

/// A crash mid-stream is counted, and the next arrival of an
/// already-cached template is still served the cached plan, which
/// `verify_cache` proves bit-identical to a fresh one.
#[test]
fn crash_mid_stream_keeps_serving_cached_plans() {
    let cost = CostModel::paper_defaults();
    let comm = cost.params().comm_model();
    let sys = SystemSpec::homogeneous(16);
    let model = OverlapModel::new(0.5).unwrap();

    // One template, three spaced arrivals; a crash lands between the
    // second and third admissions.
    let p = template(10, 99, &cost);
    let standalone = tree_schedule(&p, 0.7, &sys, &comm, &model)
        .unwrap()
        .response_time;
    let crash_at = 1.5 * standalone;
    let cfg = RuntimeConfig {
        max_in_flight: 1,
        verify_cache: true,
        faults: FaultPlan::scripted(vec![FaultEvent {
            time: crash_at,
            site: 15,
            kind: FaultKind::Crash,
        }]),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(sys.clone(), comm, model, cfg);
    for i in 0..3 {
        rt.submit_at(i as f64 * 1e-3, 0, p.clone());
    }
    let summary = rt.run_to_completion().unwrap();
    assert_eq!(summary.sites_failed(), 1);
    assert_eq!(summary.completed(), 3);
    assert_eq!(summary.cache.epoch_bumps, 1, "the crash is counted");
    // Admission 1 misses (cold); admissions 2 and 3 hit, the third
    // after the crash.
    assert_eq!(summary.cache.misses, 1, "only the first admission plans");
    assert_eq!(summary.cache.hits, 2, "the crash evicts nothing");
    assert_eq!(summary.cache.stale_evictions, 0);
}
