//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <templated|adhoc|faults|mqo> --seed N --seconds S --trace <0|1>
//! perfbench calibrate --seed N [--workload W] [--load X]
//! ```
//!
//! A run generates [`STREAMS`] sub-streams of one workload from `--seed`,
//! then serves them round-robin through the public `Runtime::new` →
//! `submit_at` → `run_to_completion` path for `--seconds` seconds (at
//! least [`MIN_REPS`] repetitions). Every repetition must pass the
//! correctness gate: `run_to_completion` succeeds (a scheduling error ends
//! the run, so it fails the gate), every submitted query is completed,
//! aborted or shed, the summary digest equals that of the sub-stream's
//! first repetition, and that first summary passes `audit_run` with zero
//! violations. A run that fails the gate prints its reason to stderr, no
//! metrics, and exits with code 1.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (medians over repetitions); with `--trace 1`
//! traced and untraced repetitions alternate, spans are kept around every
//! outside call, and the metrics are the per-layer ones. The line before
//! it carries the run's provenance. Both, and with `--trace 1` the spans,
//! are also written under `perfbench/out/`.
//!
//! `calibrate` serves each workload's stream once at its length and once
//! at twice its length, and reports the admission backlog of both: a rate
//! below the knee keeps `max_queue_depth` from growing with the stream.

mod stats;
mod trace;
mod workload;

use mrs_audit::prelude::audit_run;
use mrs_core::model::OverlapModel;
use mrs_core::shared::{tree_schedule_shared, MapFragmentCache};
use mrs_core::tree::{tree_schedule_capped, TreeProblem};
use mrs_exp::prelude::query_problem;
use mrs_runtime::prelude::{PlanSignature, QueryRecord, RunSummary, Runtime};
#[cfg(test)]
use mrs_sim::fault::FaultPlan;
use mrs_sim::phase::simulate_tree;
use stats::{median, percentile, Outcomes};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use trace::OUTSIDE;
use workload::{generate, stream_seed, Env, Inputs, Spec, Workload, F, SITES, STREAMS};

/// Fewest repetitions a run makes, however short `--seconds` is: every
/// sub-stream once. A traced run makes at least this many traced and this
/// many untraced ones; [`STREAMS`] is odd, so those `2 × STREAMS`
/// repetitions serve every sub-stream once traced and once untraced.
const MIN_REPS: usize = STREAMS;

/// Set-ups timed per repetition: the served one and this many minus one
/// whose runtimes are dropped unrun.
const SETUPS_PER_REP: usize = 5;

const USAGE: &str = "usage: perfbench --workload <templated|adhoc|faults|mqo> --seed N \
                     --seconds S --trace <0|1>\n       perfbench calibrate --seed N \
                     [--workload W] [--load X]";

/// Parsed command line of a measuring run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("calibrate") {
        calibrate(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `--flag value` pairs into a map, rejecting unknown flags.
fn flags<'a>(argv: &'a [String], known: &[&str]) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut out = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        out.insert(flag.as_str(), value.as_str());
    }
    Ok(out)
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}\n{USAGE}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let f = flags(argv, &["--workload", "--seed", "--seconds", "--trace"])?;
    let get = |flag: &str| {
        f.get(flag)
            .copied()
            .ok_or(format!("missing {flag}\n{USAGE}"))
    };
    let seconds: f64 = parse_num("--seconds", get("--seconds")?)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}\n{USAGE}")),
    };
    Ok(Args {
        workload: parse_workload(get("--workload")?)?,
        seed: parse_num("--seed", get("--seed")?)?,
        seconds,
        trace,
    })
}

/// One served repetition of a stream.
struct Served {
    summary: RunSummary,
    setup_s: f64,
    run_s: f64,
}

/// Sets the stream up: the cost model on every query, `Runtime::new`, and
/// every `submit_at`. Returns the loaded runtime and the wall seconds taken.
fn set_up(inputs: &Inputs, env: &Env, t: &mut Tracer) -> (Runtime<OverlapModel>, f64) {
    let start = Instant::now();
    t.enter("setup");
    let problems: Vec<TreeProblem> = inputs
        .stream()
        .map(|q| t.time("cost.query_problem", || query_problem(q, &env.cost)))
        .collect();
    let mut rt = t.time("runtime.new", || {
        Runtime::new(env.sys.clone(), env.comm, env.model, inputs.cfg.clone())
    });
    for (i, (problem, &arrival)) in problems.into_iter().zip(&inputs.arrivals).enumerate() {
        t.time("runtime.submit_at", || {
            rt.submit_at(arrival, i % 3, problem)
        });
    }
    t.exit();
    (rt, start.elapsed().as_secs_f64())
}

/// Serves the stream once: [`set_up`], then `run_to_completion`, each
/// timed from outside.
fn serve(inputs: &Inputs, env: &Env, t: &mut Tracer) -> Result<Served, String> {
    t.enter("rep");
    let (mut rt, setup_s) = set_up(inputs, env, t);
    let run_start = Instant::now();
    let result = t.time("runtime.run_to_completion", || rt.run_to_completion());
    let run_s = run_start.elapsed().as_secs_f64();
    t.exit();
    let summary = result.map_err(|e| format!("run_to_completion failed: {e}"))?;
    Ok(Served {
        summary,
        setup_s,
        run_s,
    })
}

/// How the queries of one served stream ended.
fn outcomes(summary: &RunSummary, submitted: usize) -> Outcomes {
    Outcomes {
        submitted,
        completed: summary.completed(),
        aborted: summary.aborted(),
        shed: summary.shed(),
    }
}

/// Completed-query latencies of a summary, in query order.
fn latencies(summary: &RunSummary) -> Vec<f64> {
    summary
        .queries
        .iter()
        .filter_map(QueryRecord::latency)
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a run keeps of each sub-stream once its first summary passed the
/// gate.
struct Checked {
    digest: u64,
    outcomes: Outcomes,
    latencies: Vec<f64>,
}

/// One timed repetition.
struct Rep {
    stream: usize,
    run_s: f64,
    traced: bool,
}

/// The repetitions of one measuring run.
struct Reps {
    /// Sub-stream 0's first summary, kept for the per-layer metrics when
    /// tracing (and dropped otherwise, so it does not add to the peak
    /// resident set).
    first: Option<RunSummary>,
    /// Per sub-stream, in order.
    checked: Vec<Checked>,
    /// Wall seconds of every set-up, [`SETUPS_PER_REP`] per repetition.
    setups: Vec<f64>,
    reps: Vec<Rep>,
}

impl Reps {
    /// Completed queries per wall second inside `run_to_completion`,
    /// median over the repetitions with the given `traced` flag.
    fn serve_qps(&self, traced: bool) -> f64 {
        let qps: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| self.checked[r.stream].outcomes.completed as f64 / r.run_s)
            .collect();
        median(&qps)
    }

    /// Queries submitted and failed over every repetition.
    fn attempted_failed(&self) -> (usize, usize) {
        self.reps.iter().fold((0, 0), |(a, f), r| {
            let o = &self.checked[r.stream].outcomes;
            (a + o.submitted, f + o.failed())
        })
    }

    /// Ids of the traced repetitions of sub-stream 0.
    fn traced_first_stream(&self) -> Vec<u32> {
        (0..self.reps.len())
            .filter(|&i| self.reps[i].traced && self.reps[i].stream == 0)
            .map(|i| i as u32)
            .collect()
    }
}

/// Serves the sub-streams round-robin until `seconds` have passed and at
/// least [`MIN_REPS`] repetitions (of each kind, when tracing) are done,
/// checking every repetition against the correctness gate. When tracing,
/// even repetitions are traced and odd ones are not.
fn measure(args: &Args, streams: &[Inputs], env: &Env, t: &mut Tracer) -> Result<Reps, String> {
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let start = Instant::now();
    let mut first = None;
    let mut checked: Vec<Checked> = Vec::new();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        let rep = reps.len();
        let stream = rep % streams.len();
        let inputs = &streams[stream];
        let traced = args.trace && rep % 2 == 0;
        t.set_enabled(traced);
        t.set_run(rep as u32);
        // Extra set-ups whose runtimes are dropped unrun: set-up is short,
        // so its median needs more samples than the run's.
        for _ in 1..SETUPS_PER_REP {
            setups.push(set_up(inputs, env, t).1);
        }
        let served = serve(inputs, env, t)?;
        setups.push(served.setup_s);
        let out = outcomes(&served.summary, inputs.plan_of.len());
        if !out.accounted() {
            return Err(format!(
                "repetition {rep}: {} completed + {} aborted + {} shed != {} submitted",
                out.completed, out.aborted, out.shed, out.submitted
            ));
        }
        let digest = served.summary.digest();
        if let Some(c) = checked.get(stream) {
            if c.digest != digest {
                return Err(format!(
                    "repetition {rep} of sub-stream {stream} digests {digest:016x}, its first \
                     {:016x}: the runtime is not deterministic",
                    c.digest
                ));
            }
        } else {
            let violations = t.time("audit.audit_run", || audit_run(&served.summary));
            if let Some(v) = violations.first() {
                return Err(format!(
                    "sub-stream {stream}: audit_run found {} violations, first: {v}",
                    violations.len()
                ));
            }
            checked.push(Checked {
                digest,
                outcomes: out,
                latencies: latencies(&served.summary),
            });
            if stream == 0 && args.trace {
                first = Some(served.summary);
            }
        }
        reps.push(Rep {
            stream,
            run_s: served.run_s,
            traced,
        });
    }
    t.set_enabled(args.trace);
    Ok(Reps {
        first,
        checked,
        setups,
        reps,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(reps: &Reps) -> Result<Vec<Metric>, String> {
    let lat: Vec<f64> = reps
        .checked
        .iter()
        .flat_map(|c| c.latencies.iter().copied())
        .collect();
    Ok(vec![
        m("serve_qps", reps.serve_qps(false), "queries/s"),
        m("setup_s", median(&reps.setups), "s"),
        m(
            "peak_rss_mb",
            peak_rss_mib().ok_or("peak resident set not available from /proc")?,
            "MiB",
        ),
        m("vlatency_p50_s", percentile(&lat, 0.50), "virt_s"),
        m("vlatency_p99_s", percentile(&lat, 0.99), "virt_s"),
    ])
}

/// The per-layer metrics of a traced run, on sub-stream 0. The planner,
/// signature and simulator calls are timed here, outside the runtime, on
/// the same problems the runtime planned; the counters come from the
/// `RunSummary`. Which end-to-end metric each should move, and where:
///
/// - `cost.*`, `runtime.new_ms`, `runtime.submit_us_p50`: `setup_s`,
///   every workload.
/// - `core.plan_cold_*`, `core.plans_distinct`: `serve_qps` on `adhoc` and
///   `faults`, not on `templated`.
/// - `core.shared_plan_us_p50`, `core.splice_ratio`: `serve_qps` on `mqo`
///   (the ratio is 0 on `adhoc`).
/// - `cache.sig_us_p50`, `runtime.*` loop figures, `sim.standalone_us_p50`:
///   `serve_qps` on `templated`.
/// - `cache.hit_rate` and invalidation counts, `runtime.trace_events`,
///   `recovery.*`: `serve_qps` (and `vlatency_p99_s` for recovery) on
///   `faults`; recovery counts are 0 elsewhere.
/// - `admission.*`: `vlatency_p50_s`, every workload.
/// - `workload.gen_s`, `audit.*`, `trace.overhead_frac`: nothing; the audit
///   must find 0 violations.
///
/// `runtime.loop_self_s` is `runtime.run_s` minus the planning the loop
/// did (cache misses × mean time of the planner it uses), an estimate of
/// dispatch, retire and fabric advance.
fn per_layer(inputs: &Inputs, env: &Env, reps: &Reps, t: &mut Tracer) -> Vec<Metric> {
    let s = reps
        .first
        .as_ref()
        .expect("a traced run keeps its first summary");
    let us = |v: &[f64], p: f64| percentile(v, p) * 1e6;
    let runs = reps.traced_first_stream();
    let rep_secs = |t: &Tracer, name: &str| t.secs_in(name, &runs);

    t.set_run(OUTSIDE);
    t.enter("analysis");
    let problems: Vec<TreeProblem> = inputs
        .plans
        .iter()
        .map(|q| query_problem(q, &env.cost))
        .collect();
    // Distinct problems by plan signature: what the cache keys on.
    let mut seen = HashSet::new();
    let distinct: Vec<&TreeProblem> = problems
        .iter()
        .filter(|p| seen.insert(PlanSignature::of(p, F)))
        .collect();
    for p in &distinct {
        let plan = t.time("core.tree_schedule_capped", || {
            tree_schedule_capped(p, F, &env.sys, &env.comm, &env.model, None)
        });
        let plan = plan.expect("generated plans always schedule");
        t.time("sim.simulate_tree", || {
            black_box(simulate_tree(&plan, &env.sys, &env.model, &inputs.cfg.sim))
        });
    }
    let mut memo = MapFragmentCache::new();
    for &i in &inputs.plan_of {
        let p = &problems[i];
        t.time("cache.plan_signature", || {
            black_box(PlanSignature::of(p, F))
        });
        let shared = t.time("core.tree_schedule_shared", || {
            tree_schedule_shared(p, F, &env.sys, &env.comm, &env.model, None, &mut memo)
        });
        black_box(shared.expect("generated plans always schedule"));
    }
    t.exit();

    let cold = t.secs("core.tree_schedule_capped");
    let shared = t.secs("core.tree_schedule_shared");
    let run_s = median(&rep_secs(t, "runtime.run_to_completion"));
    let gen_s: f64 = [
        "workload.generate_query",
        "workload.overlap_batch",
        "workload.poisson_arrivals",
    ]
    .iter()
    .flat_map(|n| t.secs(n))
    .sum();
    // Planning inside the loop: one plan per cache miss, by the planner
    // the loop uses (shared under batch admission, cold otherwise).
    let per_plan = if inputs.cfg.plan_sharing {
        shared.iter().sum::<f64>() / shared.len() as f64
    } else {
        cold.iter().sum::<f64>() / cold.len() as f64
    };
    let untraced = reps.serve_qps(false);
    let traced = reps.serve_qps(true);
    let subtree = (s.cache.subtree_hits + s.cache.subtree_misses) as f64;
    let waits: Vec<f64> = s.queries.iter().filter_map(QueryRecord::wait).collect();
    let events = s.depth_trace.len() as f64;
    let audit_ms = median(&rep_secs(t, "audit.audit_run")) * 1e3;

    vec![
        m("workload.gen_s", gen_s, "s"),
        m(
            "cost.problem_us_p50",
            us(&rep_secs(t, "cost.query_problem"), 0.5),
            "us",
        ),
        m(
            "runtime.new_ms",
            median(&rep_secs(t, "runtime.new")) * 1e3,
            "ms",
        ),
        m(
            "runtime.submit_us_p50",
            us(&rep_secs(t, "runtime.submit_at"), 0.5),
            "us",
        ),
        m("core.plan_cold_us_p50", us(&cold, 0.5), "us"),
        m("core.plan_cold_us_p99", us(&cold, 0.99), "us"),
        m("core.plans_distinct", cold.len() as f64, "count"),
        m("core.shared_plan_us_p50", us(&shared, 0.5), "us"),
        m(
            "core.splice_ratio",
            if subtree > 0.0 {
                s.cache.subtree_hits as f64 / subtree
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "cache.sig_us_p50",
            us(&t.secs("cache.plan_signature"), 0.5),
            "us",
        ),
        m("cache.hit_rate", s.cache_hit_rate(), "ratio"),
        m("cache.misses", s.cache.misses as f64, "count"),
        m("cache.epoch_bumps", s.cache.epoch_bumps as f64, "count"),
        m(
            "cache.stale_evictions",
            s.cache.stale_evictions as f64,
            "count",
        ),
        m("runtime.run_s", run_s, "s"),
        m("runtime.events", events, "count"),
        m("runtime.events_per_s", events / run_s, "1/s"),
        m(
            "runtime.loop_self_s",
            run_s - s.cache.misses as f64 * per_plan,
            "s",
        ),
        m("runtime.trace_events", s.trace.len() as f64, "count"),
        m("admission.vwait_p50_s", percentile(&waits, 0.5), "virt_s"),
        m(
            "admission.max_queue_depth",
            s.max_queue_depth() as f64,
            "count",
        ),
        m(
            "failed_frac",
            reps.checked[0].outcomes.failed_frac(),
            "ratio",
        ),
        m("recovery.repacks", s.repacks() as f64, "count"),
        m("recovery.clones_lost", s.clones_lost() as f64, "count"),
        m("recovery.sites_failed", s.sites_failed() as f64, "count"),
        m(
            "sim.standalone_us_p50",
            us(&t.secs("sim.simulate_tree"), 0.5),
            "us",
        ),
        m("audit.run_ms", audit_ms, "ms"),
        m("audit.violations", 0.0, "count"),
        m(
            "trace.overhead_frac",
            (untraced - traced) / untraced,
            "ratio",
        ),
    ]
}

/// The commit being measured, when the benchmark runs in a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where result records and spans are written.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The items' display forms, comma-separated (a JSON array's body).
fn join<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    items.join(", ")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body = join(metrics.iter().map(|x| {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        )
    }));
    format!("{{{body}}}")
}

fn run(args: &Args) -> Result<(), String> {
    let env = Env::paper();
    let mut t = Tracer::new(args.trace);
    let streams: Vec<Inputs> = (0..STREAMS)
        .map(|k| {
            generate(
                args.workload.spec(),
                stream_seed(args.seed, k),
                &env,
                &mut t,
            )
        })
        .collect();
    let reps = measure(args, &streams, &env, &mut t)?;
    let metrics = if args.trace {
        per_layer(&streams[0], &env, &reps, &mut t)
    } else {
        end_to_end(&reps)?
    };
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", bad.name, bad.value));
    }

    let tag = format!(
        "\"workload\": \"{}\", \"seed\": {}",
        args.workload.name(),
        args.seed
    );
    let mut provenance = String::new();
    write!(
        provenance,
        "{{{tag}, \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \
         \"sites\": {SITES}, \"load\": {}, \"streams\": {STREAMS}, \
         \"queries_per_stream\": [{}], \"distinct_plans_per_stream\": [{}], \
         \"mean_standalone_virt_s\": [{}], \"digests\": [{}], \"repetitions\": {}}}",
        args.trace,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        commit(),
        env!("PERFBENCH_RUSTC"),
        args.workload.spec().load,
        join(streams.iter().map(|i| i.plan_of.len())),
        join(streams.iter().map(|i| i.plans.len())),
        join(streams.iter().map(|i| i.mean_standalone)),
        join(
            reps.checked
                .iter()
                .map(|c| format!("\"{:016x}\"", c.digest))
        ),
        reps.reps.len(),
    )
    .expect("writing to a String cannot fail");
    let (attempted, failed) = reps.attempted_failed();
    let result = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}{}",
        args.workload.name(),
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let record = format!(
        "{{\"provenance\": {provenance}, \"setup_s\": [{}], \"run_s\": [{}], \
         \"result\": {result}}}\n",
        join(&reps.setups),
        join(reps.reps.iter().map(|r| r.run_s)),
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &record)?;
    if args.trace {
        write(format!("{stem}-spans.jsonl"), &t.to_json_lines(&tag))?;
    }

    println!("{provenance}");
    println!("{result}");
    Ok(())
}

/// `perfbench calibrate`: the backlog at one and two stream lengths.
/// Below the knee the deepest queue is the maximum of a stationary
/// process, so doubling the stream may add only its slow extreme-value
/// drift: the check allows `max(2, depth / 4)` more. Above the knee the
/// backlog grows with the stream and roughly doubles.
fn calibrate(argv: &[String]) -> Result<(), String> {
    let f = flags(argv, &["--seed", "--workload", "--load"])?;
    let seed: u64 = parse_num("--seed", f.get("--seed").copied().unwrap_or("1"))?;
    let workloads = match f.get("--workload") {
        Some(name) => vec![parse_workload(name)?],
        None => Workload::ALL.to_vec(),
    };
    let load: Option<f64> = f
        .get("--load")
        .map(|v| parse_num("--load", v))
        .transpose()?;
    let env = Env::paper();
    let mut t = Tracer::new(false);
    println!(
        "{:<10} {:>5} {:>6} {:>7} {:>10} {:>10} {:>7} {:>6} {:>8} {:>7}  backlog",
        "workload", "load", "n", "depth", "p50", "p99", "failed", "hit", "repacks", "wall_s"
    );
    let mut growing = Vec::new();
    for w in workloads {
        let spec = w.spec();
        let mut first_depth = 0;
        for scale in [1, 2] {
            let spec = Spec {
                queries: spec.queries * scale,
                load: load.unwrap_or(spec.load),
                ..spec
            };
            let inputs = generate(spec, stream_seed(seed, 0), &env, &mut t);
            let served = serve(&inputs, &env, &mut t)?;
            let s = &served.summary;
            let lat = latencies(s);
            let depth = s.max_queue_depth();
            if scale == 1 {
                first_depth = depth;
            }
            let bounded = depth <= first_depth + (first_depth / 4).max(2);
            if !bounded {
                growing.push(w.name());
            }
            println!(
                "{:<10} {:>5} {:>6} {:>7} {:>10.2} {:>10.2} {:>7} {:>6.3} {:>8} {:>7.2}  {}",
                w.name(),
                spec.load,
                spec.queries,
                depth,
                percentile(&lat, 0.5),
                percentile(&lat, 0.99),
                outcomes(s, inputs.plan_of.len()).failed(),
                s.cache_hit_rate(),
                s.repacks(),
                served.run_s,
                if scale == 1 {
                    ""
                } else if bounded {
                    "bounded"
                } else {
                    "GROWS"
                }
            );
        }
    }
    if growing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "backlog grows with the stream on {}",
            growing.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_inputs(w: Workload, seed: u64) -> Inputs {
        generate(w.spec(), seed, &Env::paper(), &mut Tracer::new(false))
    }

    /// Everything the program receives: arrival times as exact bits, each
    /// submitted problem by its (injective, exact-bits) plan signature, and
    /// the fault plan.
    fn fingerprint(inputs: &Inputs, env: &Env) -> (Vec<u64>, Vec<PlanSignature>, FaultPlan) {
        let arrivals = inputs.arrivals.iter().map(|a| a.to_bits()).collect();
        let problems = inputs
            .stream()
            .map(|q| PlanSignature::of(&query_problem(q, &env.cost), F))
            .collect();
        (arrivals, problems, inputs.cfg.faults.clone())
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
        let env = Env::paper();
        for w in [Workload::Templated, Workload::Faults, Workload::Mqo] {
            let (arrivals, problems, faults) = fingerprint(&small_inputs(w, 7), &env);
            let again = fingerprint(&small_inputs(w, 7), &env);
            assert_eq!(
                (&arrivals, &problems, &faults),
                (&again.0, &again.1, &again.2)
            );
            let other = fingerprint(&small_inputs(w, 8), &env);
            assert_ne!(arrivals, other.0, "{}: arrivals", w.name());
            assert_ne!(problems, other.1, "{}: problems", w.name());
            if w == Workload::Faults {
                assert_ne!(faults, other.2, "faults: crash plan");
            }
        }
    }

    #[test]
    fn percentile_helper_agrees_with_run_summary() {
        let env = Env::paper();
        let mut inputs = small_inputs(Workload::Templated, 3);
        inputs.plan_of.truncate(60);
        inputs.arrivals.truncate(60);
        let served = serve(&inputs, &env, &mut Tracer::new(false)).expect("stream serves");
        let lat = latencies(&served.summary);
        assert_eq!(lat.len(), 60);
        for p in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                percentile(&lat, p),
                served.summary.latency_percentile(p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn every_workload_has_enough_queries_for_its_p99() {
        for w in Workload::ALL {
            let n = w.spec().queries;
            let rank = (0.99 * n as f64).ceil() as usize;
            assert!(
                n - rank >= 10,
                "{}: {} queries beyond p99",
                w.name(),
                n - rank
            );
        }
    }
}
