//! `chaos-sweep`: the generated `chaos` campaign scenario — n = 4–7,
//! heartbeat/ring/stable-leader detectors, partitions, mangling windows
//! and crash/restart churn — checked by `chaos.class_after_faults`.
//!
//! One operation is one seed: planned, executed (full trace), digested
//! and run through every monitor, exactly the campaign engine's
//! per-seed steps.

use crate::report::{Metric, Outcome};
use crate::spans::Spans;
use crate::{
    check_seed, metered_metrics, ns_since, overhead_metric, transparency, Fingerprint, Meter, Opts,
    SeedTracer, SETUP_REPS,
};
use fd_campaign::{Monitor, Scenario, SeedExecutor};
use fd_chaos::ChaosScenario;
use std::time::Instant;

/// Seeds per throughput batch.
const BATCH: usize = 25;

/// Seeds the traced run profiles, per 10 s of `--seconds`.
const TRACE_SEEDS_PER_10S: u64 = 200;

/// Span names of the scenario's monitors, in `monitors()` order.
const MONITOR_SPANS: [&str; 1] = ["monitor.chaos.class_after_faults"];

/// The fd-obs counters of the chaos mangler, under their metric names.
const MANGLER_COUNTERS: [(&str, &str); 3] = [
    ("chaos.msgs_dropped", fd_obs::keys::CHAOS_MSGS_DROPPED),
    ("chaos.msgs_duplicated", fd_obs::keys::CHAOS_MSGS_DUPLICATED),
    ("chaos.msgs_reordered", fd_obs::keys::CHAOS_MSGS_REORDERED),
];

/// Warm-up seeds of every set-up, the same for every `--seed`: the
/// generated plan's detector cycles with `seed % 3`, so three
/// consecutive seeds build every cached world.
const WARM_SEEDS: std::ops::Range<u64> = 0..3;

/// Executor and monitors, with every lazily built world already built
/// (observed through `obs`, as the runs that follow will be).
fn set_up<'s>(
    sc: &'s ChaosScenario,
    obs: Option<&fd_obs::Registry>,
) -> (Box<dyn SeedExecutor + 's>, Vec<Box<dyn Monitor>>) {
    let mut ex = sc.make_executor();
    let monitors = sc.monitors();
    for seed in WARM_SEEDS {
        check_seed(sc, &mut *ex, &monitors, seed, obs);
    }
    (ex, monitors)
}

/// The plain run.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let sc = ChaosScenario::generated();
    let first = opts.first_seed();
    let mut meter = Meter::new(BATCH);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        rig = Some(meter.setup(|| set_up(&sc, None)));
    }
    let (mut ex, monitors) = rig.expect("at least one set-up");
    let mut out = Outcome::default();
    let mut first_digest = 0;
    let start = Instant::now();
    let mut seed = first;
    while start.elapsed().as_secs_f64() < opts.seconds || meter.batches() == 0 {
        let t = Instant::now();
        let c = check_seed(&sc, &mut *ex, &monitors, seed, None);
        meter.record(1.0, ns_since(t));
        out.attempted += 1;
        if let Some(v) = c.violation {
            out.failed += 1;
            out.problem(format!("seed {seed}: {v}"));
        }
        if seed == first {
            first_digest = c.digest;
        }
        seed += 1;
    }
    // World reuse must be invisible: the first seed again, on a fresh world.
    let fresh = sc.execute(&sc.plan(first)).trace.digest();
    if fresh != first_digest {
        out.problem(format!(
            "seed {first}: digest {first_digest:016x} on a reused world, {fresh:016x} on a fresh one"
        ));
    }
    let what = format!(
        "n={} checked seeds from {first}, batches of {BATCH}",
        out.attempted
    );
    let setup = "executor, monitors, and the three detector worlds built by warm-up seeds 0..3";
    metered_metrics(&mut out, &meter.finish(), "chaos.seeds_per_s", &what, setup);
    out.push(Metric::new(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        format!(
            "{} of {} seeds failing a monitor",
            out.failed, out.attempted
        ),
    ));
    out
}

/// The traced profile: a fixed seed list, untraced then traced.
pub(crate) fn trace(opts: &Opts, spans: &mut Spans) -> Outcome {
    let sc = ChaosScenario::generated();
    let first = opts.first_seed();
    let count = ((opts.seconds / 10.0 * TRACE_SEEDS_PER_10S as f64) as u64).max(1);
    let seeds = first..first + count;
    let mut out = Outcome::default();

    // Untraced pass.
    let (mut ex, monitors) = set_up(&sc, None);
    let mut plain: Vec<Fingerprint> = Vec::new();
    let t = Instant::now();
    for seed in seeds.clone() {
        let c = check_seed(&sc, &mut *ex, &monitors, seed, None);
        plain.push((c.digest, c.outcome.events, c.outcome.messages));
    }
    let plain_ns = ns_since(t);
    drop(ex);

    // Traced pass, kernel observed through a registry.
    let registry = fd_obs::Registry::new();
    let (mut ex, monitors) = set_up(&sc, Some(&registry));
    let mangled = |key| registry.counter(key).get();
    let before: Vec<u64> = MANGLER_COUNTERS
        .iter()
        .map(|(_, key)| mangled(key))
        .collect();
    let mut tracer = SeedTracer {
        root: "chaos.seed",
        monitor_spans: &MONITOR_SPANS,
        registry: &registry,
        allocs: 0,
    };
    let mut traced: Vec<Fingerprint> = Vec::new();
    let (mut events, mut records) = (0u64, 0u64);
    let t = Instant::now();
    for seed in seeds {
        let c = tracer.check(&sc, &mut *ex, &monitors, seed, spans);
        out.attempted += 1;
        if let Some(v) = c.violation {
            out.failed += 1;
            out.problem(format!("seed {seed}: {v}"));
        }
        events += c.outcome.events;
        records += c.outcome.trace.len() as u64;
        traced.push((c.digest, c.outcome.events, c.outcome.messages));
    }
    let traced_ns = ns_since(t);
    drop(ex);
    transparency(&mut out, "chaos-sweep", &plain, &traced);

    let n = count as f64;
    let basis = format!("n={count} seeds from {first}");
    let per_seed = |span: &str| spans.self_ns("chaos.seed", span) as f64 / n;
    out.push(Metric::new(
        "chaos.plan_ns_per_seed",
        per_seed("campaign.plan"),
        "ns",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.execute_ns_per_seed",
        per_seed("campaign.execute"),
        "ns",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.digest_ns_per_seed",
        per_seed("sim.trace.digest"),
        "ns",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.monitor.chaos.class_after_faults.ns_per_seed",
        per_seed(MONITOR_SPANS[0]),
        "ns",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.trace_records_per_seed",
        records as f64 / n,
        "count",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.events_per_seed",
        events as f64 / n,
        "count",
        &basis,
    ));
    out.push(Metric::new(
        "chaos.allocs_per_event",
        tracer.allocs as f64 / events.max(1) as f64,
        "count",
        &basis,
    ));
    for ((name, key), before) in MANGLER_COUNTERS.iter().zip(before) {
        out.push(Metric::new(
            *name,
            (mangled(key) - before) as f64,
            "count",
            &basis,
        ));
    }
    out.push(overhead_metric("chaos", plain_ns, traced_ns, &basis));
    out
}
