//! `kv-failover`: the replicated KV store under `fd_kv::standard_plan`
//! — n = 4, GST at 300 ms, replica 1 crashing at 600 ms and restarting
//! at 1.4 s, an 8 s horizon — for every detector class, samples pooled.
//!
//! One operation is one execution: one seed of one class, planned,
//! executed, digested and checked by the three `kv.*` monitors. Clients
//! run an open loop in simulated time (arrivals are fixed per seed), so
//! ops that arrive during the blackout carry the wait. The simulated
//! figures come from the first [`SIM_SEEDS`] seeds of the run, so they
//! repeat exactly for a given `--seed`.

use crate::report::{Metric, Outcome};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::{
    check_seed, metered_metrics, ns_since, overhead_metric, transparency, Checked, Fingerprint,
    Meter, Opts, SeedTracer, SETUP_REPS,
};
use fd_campaign::{Monitor, Scenario, SeedExecutor};
use fd_chaos::{ChaosKind, DetectorKind};
use fd_core::FdRun;
use fd_kv::replica::obs;
use fd_kv::{commit_latencies, kv_spec_of, standard_plan, KvScenario};
use fd_obs::keys;
use fd_sim::{ProcessId, Time, Trace};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;

/// Seeds per class whose simulated figures are reported: the legacy
/// `BENCH_kv.json` sample.
pub const SIM_SEEDS: u64 = 200;

/// Executions per throughput batch.
const BATCH: usize = 30;

/// Span names of the scenario's monitors, in `monitors()` order.
const MONITOR_SPANS: [&str; 3] = [
    "monitor.kv.log_agreement",
    "monitor.kv.committed",
    "monitor.kv.recovery",
];

/// Simulated microseconds per millisecond.
const MS: f64 = 1000.0;

/// Message-kind groups for the per-commit message counts.
const MSG_GROUPS: [&str; 3] = ["consensus", "detector", "sync"];

/// One detector class of the store.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Metric-name key (the `BENCH_kv.json` key).
    pub key: &'static str,
    /// The detector.
    pub detector: DetectorKind,
}

/// Every class, in `BENCH_kv.json` order.
pub const CLASSES: [Class; 3] = [
    Class {
        key: "heartbeat",
        detector: DetectorKind::Heartbeat,
    },
    Class {
        key: "ring",
        detector: DetectorKind::Ring,
    },
    Class {
        key: "stable_leader",
        detector: DetectorKind::StableLeader,
    },
];

/// The crash and restart of the standard plan, read from the plan.
#[derive(Debug, Clone, Copy)]
struct Failover {
    victim: ProcessId,
    crash_at: Time,
    restart_at: Time,
}

fn failover() -> Failover {
    let plan = standard_plan(DetectorKind::Heartbeat);
    let crash = plan.events.iter().find_map(|e| match e.kind {
        ChaosKind::Crash { pid } => Some((pid, e.at)),
        _ => None,
    });
    let restart = plan.events.iter().find_map(|e| match e.kind {
        ChaosKind::Restart { .. } => Some(e.at),
        _ => None,
    });
    let ((victim, crash_at), restart_at) = crash
        .zip(restart)
        .expect("the standard plan crashes and restarts a replica");
    Failover {
        victim,
        crash_at,
        restart_at,
    }
}

/// Simulated figures pooled over executions (times in µs of simulated
/// time).
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// Submit → durable commit, per committed op.
    pub commit_us: Vec<u64>,
    /// Crash → first apply at a surviving replica, per execution.
    pub blackout_us: Vec<u64>,
    /// Crash → last correct process suspecting the victim.
    pub detect_us: Vec<u64>,
    /// Restart → catch-up done at the restarted replica.
    pub recovery_us: Vec<u64>,
    /// WAL records the restarted replica replayed.
    pub replayed: Vec<u64>,
    /// Log entries it fetched from peers.
    pub fetched: Vec<u64>,
    /// Ops the client workload scheduled.
    pub scheduled: u64,
    /// Scheduled ops never submitted (they arrived at a crashed replica).
    pub unsubmitted: u64,
    /// Scheduled ops with no `kv.commit` by the horizon.
    pub uncommitted: u64,
    /// Messages sent, by [`MSG_GROUPS`] group.
    pub msgs: [u64; 3],
    /// Kernel events.
    pub events: u64,
    /// `kv.commit` observations.
    pub commits: u64,
}

fn msg_group(kind: &str) -> usize {
    if kind == keys::KV_SYNC_REQ || kind == keys::KV_SYNC_RESP {
        2
    } else if [
        keys::HB_ALIVE,
        keys::RING_POLL,
        keys::RING_REPLY,
        keys::STABLE_ALIVE,
    ]
    .contains(&kind)
    {
        1
    } else {
        0
    }
}

impl Sim {
    fn add(&mut self, c: &Checked, scheduled: u64, f: &Failover) {
        let trace = &c.outcome.trace;
        let commits = commit_latencies(trace);
        self.commits += commits.len() as u64;
        self.commit_us
            .extend(commits.iter().map(|(_, _, d)| d.ticks()));
        if let Some(t) = trace
            .observations(obs::APPLY)
            .find(|(t, pid, _)| *pid != f.victim && *t >= f.crash_at)
            .map(|(t, _, _)| t)
        {
            self.blackout_us.push(t.since(f.crash_at).ticks());
        }
        // Detection is judged on the failover window, before the restart
        // revives the victim (a revived victim counts as correct, and
        // never suspects itself).
        let window = Trace::from_events(
            trace
                .events()
                .iter()
                .take_while(|e| e.at < f.restart_at)
                .cloned()
                .collect(),
        );
        if let Some(d) = FdRun::new(&window, c.outcome.n, f.restart_at).detection_latency(f.victim)
        {
            self.detect_us.push(d.ticks());
        }
        if let Some((r, _)) = trace
            .last_observation_of(f.victim, obs::RECOVERY)
            .and_then(|(_, p)| p.as_u64_pair())
        {
            self.replayed.push(r);
        }
        if let Some((t, p)) = trace.last_observation_of(f.victim, obs::SYNC_DONE) {
            if let Some((_, fetched)) = p.as_u64_pair() {
                self.fetched.push(fetched);
            }
            self.recovery_us.push(t.since(f.restart_at).ticks());
        }
        let uids = |tag| -> BTreeSet<u64> {
            trace
                .observations(tag)
                .filter_map(|(_, _, p)| p.as_u64_pair().map(|(uid, _)| uid))
                .collect()
        };
        self.scheduled += scheduled;
        self.unsubmitted += scheduled.saturating_sub(uids(obs::SUBMIT).len() as u64);
        self.uncommitted += scheduled.saturating_sub(uids(obs::COMMIT).len() as u64);
        for (g, m) in self.msgs.iter_mut().enumerate() {
            *m += trace.count_sent(|kind, _| msg_group(kind) == g);
        }
        self.events += c.outcome.events;
    }

    fn merge(&mut self, o: &Sim) {
        self.commit_us.extend(&o.commit_us);
        self.blackout_us.extend(&o.blackout_us);
        self.detect_us.extend(&o.detect_us);
        self.recovery_us.extend(&o.recovery_us);
        self.replayed.extend(&o.replayed);
        self.fetched.extend(&o.fetched);
        self.scheduled += o.scheduled;
        self.unsubmitted += o.unsubmitted;
        self.uncommitted += o.uncommitted;
        for (a, b) in self.msgs.iter_mut().zip(o.msgs) {
            *a += b;
        }
        self.events += o.events;
        self.commits += o.commits;
    }
}

/// The three scenarios, one per class.
fn scenarios() -> Vec<KvScenario> {
    CLASSES
        .iter()
        .map(|c| KvScenario::fixed(standard_plan(c.detector)).expect("the standard plan is legal"))
        .collect()
}

type Rig<'s> = (Box<dyn SeedExecutor + 's>, Vec<Box<dyn Monitor>>);

/// Warm-up seed of every set-up, the same for every `--seed`.
const WARM_SEED: u64 = 0;

/// An executor and monitor set per class, each executor's world built
/// by running the warm-up seed (observed through `obs`, as the runs that
/// follow will be).
fn set_up<'s>(scs: &'s [KvScenario], obs: Option<&fd_obs::Registry>) -> Vec<Rig<'s>> {
    scs.iter()
        .map(|sc| {
            let mut ex = sc.make_executor();
            let monitors = sc.monitors();
            check_seed(sc, &mut *ex, &monitors, WARM_SEED, obs);
            (ex, monitors)
        })
        .collect()
}

fn scheduled_ops(sc: &KvScenario, seed: u64) -> u64 {
    kv_spec_of(&sc.plan(seed)).map_or(0, |s| s.workload.ops.len() as u64)
}

/// Untraced simulated figures of one class over `seeds`, with the count
/// of executions failing a monitor.
pub fn class_sim(class: &Class, seeds: Range<u64>) -> (Sim, u64) {
    let sc = KvScenario::fixed(standard_plan(class.detector)).expect("the standard plan is legal");
    let f = failover();
    let mut ex = sc.make_executor();
    let monitors = sc.monitors();
    let mut sim = Sim::default();
    let mut failed = 0;
    for seed in seeds {
        let c = check_seed(&sc, &mut *ex, &monitors, seed, None);
        failed += u64::from(c.violation.is_some());
        sim.add(&c, scheduled_ops(&sc, seed), &f);
    }
    (sim, failed)
}

/// `name` = the `per_mille` percentile of `samples` divided by `per_unit`
/// (1000 turns simulated µs into ms), or a problem when the percentile
/// has too few samples beyond it.
fn pct(
    out: &mut Outcome,
    name: &str,
    samples: &[u64],
    per_mille: usize,
    per_unit: f64,
    basis: &str,
) {
    let unit = if per_unit == 1.0 { "count" } else { "ms" };
    match percentile(samples, per_mille) {
        Some(v) => out.push(Metric::new(
            name,
            v as f64 / per_unit,
            unit,
            format!("{basis}, n={} samples", samples.len()),
        )),
        None => out.problem(format!(
            "{name}: p{} unsupported by {} samples",
            per_mille as f64 / 10.0,
            samples.len()
        )),
    }
}

/// The user-visible simulated figures of the pooled sample.
fn sim_e2e(out: &mut Outcome, pooled: &Sim, basis: &str) {
    pct(out, "kv.commit_p50_ms", &pooled.commit_us, 500, MS, basis);
    pct(out, "kv.commit_p99_ms", &pooled.commit_us, 990, MS, basis);
    pct(
        out,
        "kv.blackout_p50_ms",
        &pooled.blackout_us,
        500,
        MS,
        basis,
    );
    pct(
        out,
        "kv.blackout_p90_ms",
        &pooled.blackout_us,
        900,
        MS,
        basis,
    );
}

/// The plain run.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let scs = scenarios();
    let f = failover();
    let first = opts.first_seed();
    let mut meter = Meter::new(BATCH);
    let mut rigs = Vec::new();
    for _ in 0..SETUP_REPS {
        rigs = meter.setup(|| set_up(&scs, None));
    }
    let mut out = Outcome::default();
    let mut pooled = Sim::default();
    let mut first_digests = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < SIM_SEEDS || start.elapsed().as_secs_f64() < opts.seconds {
        let seed = first + i;
        for ((ex, monitors), sc) in rigs.iter_mut().zip(&scs) {
            let t = Instant::now();
            let c = check_seed(sc, &mut **ex, monitors, seed, None);
            meter.record(1.0, ns_since(t));
            out.attempted += 1;
            if let Some(v) = &c.violation {
                out.failed += 1;
                out.problem(format!("seed {seed}: {v}"));
            }
            if i == 0 {
                first_digests.push(c.digest);
            }
            if i < SIM_SEEDS {
                pooled.add(&c, scheduled_ops(sc, seed), &f);
            }
        }
        i += 1;
    }
    // World reuse must be invisible: the first seed again, on fresh worlds.
    for ((sc, class), reused) in scs.iter().zip(&CLASSES).zip(&first_digests) {
        let fresh = sc.execute(&sc.plan(first)).trace.digest();
        if fresh != *reused {
            out.problem(format!(
                "{} seed {first}: digest {reused:016x} on a reused world, {fresh:016x} on a fresh one",
                class.key
            ));
        }
    }
    let what = format!(
        "n={} checked executions ({i} seeds x 3 classes from {first}), batches of {BATCH}",
        out.attempted
    );
    let setup = "three executors and monitor sets, each world built by warm-up seed 0";
    metered_metrics(&mut out, &meter.finish(), "kv.seeds_per_s", &what, setup);
    let basis = format!("seeds {first}..{} x 3 classes", first + SIM_SEEDS);
    sim_e2e(&mut out, &pooled, &basis);
    out.push(Metric::new(
        "failed_ratio",
        pooled.uncommitted as f64 / pooled.scheduled.max(1) as f64,
        "ratio",
        format!(
            "{} of {} scheduled ops with no kv.commit by the horizon ({basis}); {} executions failing a monitor",
            pooled.uncommitted, pooled.scheduled, out.failed
        ),
    ));
    out
}

/// The traced profile: seeds `first..first + SIM_SEEDS` of every class,
/// untraced then traced.
pub(crate) fn trace(opts: &Opts, spans: &mut Spans) -> Outcome {
    let scs = scenarios();
    let f = failover();
    let first = opts.first_seed();
    let seeds = first..first + SIM_SEEDS;
    let mut out = Outcome::default();

    let mut rigs = set_up(&scs, None);
    let mut plain: Vec<Fingerprint> = Vec::new();
    let t = Instant::now();
    for seed in seeds.clone() {
        for ((ex, monitors), sc) in rigs.iter_mut().zip(&scs) {
            let c = check_seed(sc, &mut **ex, monitors, seed, None);
            plain.push((c.digest, c.outcome.events, c.outcome.messages));
        }
    }
    let plain_ns = ns_since(t);
    drop(rigs);

    let registry = fd_obs::Registry::new();
    let mut rigs = set_up(&scs, Some(&registry));
    let mut traced: Vec<Fingerprint> = Vec::new();
    let mut per_class = vec![Sim::default(); CLASSES.len()];
    let mut tracer = SeedTracer {
        root: "kv.seed",
        monitor_spans: &MONITOR_SPANS,
        registry: &registry,
        allocs: 0,
    };
    let mut traced_ns = 0;
    for seed in seeds {
        for (((ex, monitors), sc), sim) in rigs.iter_mut().zip(&scs).zip(&mut per_class) {
            let t = Instant::now();
            let c = tracer.check(sc, &mut **ex, monitors, seed, spans);
            traced_ns += ns_since(t);
            out.attempted += 1;
            if let Some(v) = &c.violation {
                out.failed += 1;
                out.problem(format!("seed {seed}: {v}"));
            }
            traced.push((c.digest, c.outcome.events, c.outcome.messages));
            sim.add(&c, scheduled_ops(sc, seed), &f);
        }
    }
    drop(rigs);
    transparency(&mut out, "kv-failover", &plain, &traced);

    let execs = out.attempted as f64;
    let basis = format!("seeds {first}..{} x 3 classes", first + SIM_SEEDS);
    let per_exec = |span: &str| spans.self_ns("kv.seed", span) as f64 / execs;
    out.push(Metric::new(
        "kv.execute_ns_per_seed",
        per_exec("campaign.execute"),
        "ns",
        &basis,
    ));
    out.push(Metric::new(
        "kv.digest_ns_per_seed",
        per_exec("sim.trace.digest"),
        "ns",
        &basis,
    ));
    for span in MONITOR_SPANS {
        let property = span.trim_start_matches("monitor.");
        out.push(Metric::new(
            format!("kv.monitor.{property}.ns_per_seed"),
            per_exec(span),
            "ns",
            &basis,
        ));
    }
    let mut pooled = Sim::default();
    for sim in &per_class {
        pooled.merge(sim);
    }
    let commits = pooled.commits.max(1) as f64;
    for (group, msgs) in MSG_GROUPS.iter().zip(pooled.msgs) {
        out.push(Metric::new(
            format!("kv.msgs_per_commit.{group}"),
            msgs as f64 / commits,
            "count",
            format!("{basis}, {} commits", pooled.commits),
        ));
    }
    out.push(Metric::new(
        "kv.events_per_commit",
        pooled.events as f64 / commits,
        "count",
        format!("{basis}, {} commits", pooled.commits),
    ));
    sim_e2e(&mut out, &pooled, &basis);
    pct(
        &mut out,
        "kv.detect_p50_ms",
        &pooled.detect_us,
        500,
        MS,
        &basis,
    );
    pct(
        &mut out,
        "kv.recovery_p50_ms",
        &pooled.recovery_us,
        500,
        MS,
        &basis,
    );
    pct(
        &mut out,
        "kv.replayed_wal_records_p50",
        &pooled.replayed,
        500,
        1.0,
        &basis,
    );
    pct(
        &mut out,
        "kv.catchup_entries_p50",
        &pooled.fetched,
        500,
        1.0,
        &basis,
    );
    for (class, sim) in CLASSES.iter().zip(&per_class) {
        pct(
            &mut out,
            &format!("kv.{}.commit_p99_ms", class.key),
            &sim.commit_us,
            990,
            MS,
            &format!("seeds {first}..{}", first + SIM_SEEDS),
        );
    }
    out.push(Metric::new(
        "kv.unsubmitted_ops",
        pooled.unsubmitted as f64,
        "count",
        format!("{basis}, of {} scheduled", pooled.scheduled),
    ));
    out.push(overhead_metric("kv", plain_ns, traced_ns, &basis));
    out
}
