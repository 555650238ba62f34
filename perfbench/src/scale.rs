//! The n = 256 scale cells: `hb_stable` (heartbeat, reliable 1–4 ms
//! links, O(n²) fan-out), `vcube_stable`, and `vcube_lossy` (fair-lossy
//! 1–8 ms links with 15% loss). Each cell reuses the horizon, network
//! and mid-run crash of its `ScaleScenario` plan — the `BENCH_scale.json`
//! row — with the seed replaced by the benchmark's.
//!
//! One operation is one seed of one cell: build the world (set-up), run
//! it to the horizon (timed), digest its observation trace and check
//! `fd.weak_completeness`, the scenario's monitor.

use crate::report::{Metric, Outcome};
use crate::spans::{SpanId, Spans};
use crate::{metered_metrics, ns_since, overhead_metric, transparency, Fingerprint, Meter, Opts};
use fd_bench::scale::{scale_cells, ScaleClass, ScaleNet, ScaleScenario, SCALE_SIZES};
use fd_campaign::{Monitor, RunOutcome, RunPlan, Scenario};
use fd_core::Standalone;
use fd_detectors::{HeartbeatConfig, HeartbeatDetector, VCubeConfig, VCubeDetector};
use fd_sim::{Actor, Context, ProcessId, TimerTag, TraceMode, WorldBuilder};
use std::cell::Cell as StdCell;
use std::ops::Range;
use std::time::Instant;

/// System size of every cell.
pub const N: usize = 256;

/// Cell runs a plain run makes at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Seeds per cell the traced run profiles, per 10 s of `--seconds`.
const TRACE_SEEDS_PER_10S: u64 = 2;

/// One scale cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Metric-name key, e.g. `vcube_lossy`.
    pub key: &'static str,
    /// Root span name of its operations in the traced run.
    root: &'static str,
    class: ScaleClass,
    net: ScaleNet,
}

/// Heartbeat over reliable links.
pub const HB_STABLE: Cell = Cell {
    key: "hb_stable",
    root: "scale.hb_stable.seed",
    class: ScaleClass::Heartbeat,
    net: ScaleNet::Stable,
};
/// vCube over reliable links.
pub const VCUBE_STABLE: Cell = Cell {
    key: "vcube_stable",
    root: "scale.vcube_stable.seed",
    class: ScaleClass::VCube,
    net: ScaleNet::Stable,
};
/// vCube over fair-lossy links.
pub const VCUBE_LOSSY: Cell = Cell {
    key: "vcube_lossy",
    root: "scale.vcube_lossy.seed",
    class: ScaleClass::VCube,
    net: ScaleNet::Lossy,
};

/// Every cell, in reporting order.
pub const CELLS: [Cell; 3] = [HB_STABLE, VCUBE_STABLE, VCUBE_LOSSY];

impl Cell {
    /// The `(class, net)` keys of the cell's `BENCH_scale.json` row.
    pub fn row_key(&self) -> (&'static str, &'static str) {
        (self.class.key(), self.net.key())
    }

    /// The cell's `ScaleScenario` plan, run under `seed`.
    fn plan(&self, seed: u64) -> RunPlan {
        let index = scale_cells(&SCALE_SIZES)
            .iter()
            .position(|c| c.class == self.class && c.net == self.net && c.n == N)
            .expect("every benchmark cell is a ScaleScenario cell");
        let mut plan = ScaleScenario.plan(index as u64);
        plan.seed = seed;
        plan
    }
}

/// Totals of the detector callbacks run inside [`Timed`] wrappers.
#[derive(Debug, Clone, Copy, Default)]
struct CallbackTotals {
    ns: u64,
    calls: u64,
    allocs: u64,
}

thread_local! {
    static CALLBACKS: StdCell<CallbackTotals> = const {
        StdCell::new(CallbackTotals { ns: 0, calls: 0, allocs: 0 })
    };
}

/// A transparent actor wrapper that times every callback and counts
/// its heap allocations; the wrapped actor sees the same context,
/// messages and timers, so the run is byte-identical.
struct Timed<A>(A);

fn timed(f: impl FnOnce()) {
    let allocs = fd_obs::CountingAllocator::count();
    let t = Instant::now();
    f();
    let ns = ns_since(t);
    let allocs = fd_obs::CountingAllocator::count().saturating_sub(allocs);
    CALLBACKS.with(|c| {
        let mut v = c.get();
        v.ns += ns;
        v.calls += 1;
        v.allocs += allocs;
        c.set(v);
    });
}

impl<A: Actor> Actor for Timed<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg>) {
        timed(|| self.0.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, A::Msg>, from: ProcessId, msg: A::Msg) {
        timed(|| self.0.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, A::Msg>, tag: TimerTag) {
        timed(|| self.0.on_timer(ctx, tag));
    }
}

/// One executed cell run.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host ns building the world.
    pub build_ns: u64,
    /// Host ns inside `run_until_time`.
    pub run_ns: u64,
    /// Heap allocations inside `run_until_time`.
    pub run_allocs: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Messages sent.
    pub messages: u64,
    /// `Trace::digest` of the observation trace.
    pub digest: u64,
    /// `property: detail` of the first failing monitor.
    pub violation: Option<String>,
}

impl CellRun {
    fn fingerprint(&self) -> Fingerprint {
        (self.digest, self.events, self.messages)
    }
}

/// Run `f` in a child span when profiling.
fn step<R>(
    prof: &mut Option<(&mut Spans, SpanId)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match prof {
        Some((spans, root)) => spans.child(*root, name, f),
        None => f(),
    }
}

fn run_world<A, F>(
    plan: &RunPlan,
    monitors: &[Box<dyn Monitor>],
    mut prof: Option<(&mut Spans, SpanId)>,
    mk: F,
) -> CellRun
where
    A: Actor,
    F: Fn(ProcessId, usize) -> A,
{
    let t = Instant::now();
    let mut world = step(&mut prof, "sim.world.build", || {
        let mut builder = WorldBuilder::new(plan.net.clone())
            .seed(plan.seed)
            .trace_mode(TraceMode::ObsOnly);
        for &(pid, at) in &plan.crashes {
            builder = builder.crash_at(pid, at);
        }
        builder.build(mk)
    });
    let build_ns = ns_since(t);
    let allocs = fd_obs::CountingAllocator::count();
    let t = Instant::now();
    step(&mut prof, "sim.run_until_time", || {
        world.run_until_time(plan.horizon)
    });
    let run_ns = ns_since(t);
    let run_allocs = fd_obs::CountingAllocator::count().saturating_sub(allocs);
    let events = world.metrics().events_processed();
    let messages = world.metrics().sent_total();
    let (trace, _) = world.into_results();
    let digest = step(&mut prof, "sim.trace.digest", || trace.digest());
    let outcome = RunOutcome {
        trace,
        n: plan.n(),
        end: plan.horizon,
        decision_latency: None,
        messages,
        events,
    };
    let violation = step(&mut prof, "monitor.fd.weak_completeness", || {
        monitors.iter().find_map(|m| {
            m.check(&outcome)
                .err()
                .map(|v| format!("{}: {}", m.property(), v.detail))
        })
    });
    CellRun {
        build_ns,
        run_ns,
        run_allocs,
        events,
        messages,
        digest,
        violation,
    }
}

fn heartbeat(pid: ProcessId, n: usize) -> Standalone<HeartbeatDetector> {
    Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
}

fn vcube(pid: ProcessId, n: usize) -> Standalone<VCubeDetector> {
    Standalone(VCubeDetector::new(pid, n, VCubeConfig::default()))
}

/// Build, run, digest and check one seed of `cell`; with `prof`, the
/// detectors run inside [`Timed`] wrappers and each step gets a span.
pub(crate) fn execute(
    cell: &Cell,
    seed: u64,
    monitors: &[Box<dyn Monitor>],
    prof: Option<(&mut Spans, SpanId)>,
) -> CellRun {
    let plan = cell.plan(seed);
    match (cell.class, prof.is_some()) {
        (ScaleClass::Heartbeat, false) => run_world(&plan, monitors, prof, heartbeat),
        (ScaleClass::Heartbeat, true) => {
            run_world(&plan, monitors, prof, |p, n| Timed(heartbeat(p, n)))
        }
        (_, false) => run_world(&plan, monitors, prof, vcube),
        (_, true) => run_world(&plan, monitors, prof, |p, n| Timed(vcube(p, n))),
    }
}

/// The legacy digest fold of `BENCH_scale.json` over `(seed, run)` pairs, with the
/// summed events and messages.
pub fn fold(runs: &[(u64, CellRun)]) -> (u64, u64, u64) {
    runs.iter().fold((0, 0, 0), |(d, e, m), (seed, r)| {
        (
            d ^ r.digest.rotate_left(*seed as u32),
            e + r.events,
            m + r.messages,
        )
    })
}

/// Untraced runs of `cell` over `seeds`.
pub fn runs(cell: &Cell, seeds: Range<u64>) -> Vec<(u64, CellRun)> {
    let monitors = ScaleScenario.monitors();
    seeds
        .map(|s| (s, execute(cell, s, &monitors, None)))
        .collect()
}

fn run_cell(cell: &Cell, opts: &Opts) -> Outcome {
    let monitors = ScaleScenario.monitors();
    let first = opts.first_seed();
    let mut out = Outcome::default();
    let mut meter = Meter::new(1);
    let mut first_run = None;
    let start = Instant::now();
    let mut seed = first;
    while start.elapsed().as_secs_f64() < opts.seconds || meter.batches() < MIN_RUNS {
        let r = execute(cell, seed, &monitors, None);
        out.attempted += 1;
        if let Some(v) = &r.violation {
            out.failed += 1;
            out.problem(format!("{} seed {seed}: {v}", cell.key));
        }
        meter.record(r.events as f64, r.run_ns);
        meter.setup_ns(r.build_ns);
        first_run.get_or_insert(r);
        seed += 1;
    }
    let again = execute(cell, first, &monitors, None);
    if let Some(r) = first_run.filter(|r| r.fingerprint() != again.fingerprint()) {
        out.problem(format!(
            "{} seed {first} is not deterministic: {:x?} then {:x?}",
            cell.key,
            r.fingerprint(),
            again.fingerprint()
        ));
    }
    let what = format!(
        "n={} cell runs from seed {first}, simulated events per host second in run_until_time",
        out.attempted
    );
    let name = format!("scale.{}.events_per_s", cell.key);
    metered_metrics(
        &mut out,
        &meter.finish(),
        &name,
        &what,
        "the n = 256 world build of each cell run",
    );
    out.push(Metric::new(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        format!(
            "{} of {} cell runs failing fd.weak_completeness",
            out.failed, out.attempted
        ),
    ));
    out
}

/// The plain run of `scale-n256-hb-stable`.
pub(crate) fn run_hb_stable(opts: &Opts) -> Outcome {
    run_cell(&HB_STABLE, opts)
}

/// The plain run of `scale-n256-vcube-stable`.
pub(crate) fn run_vcube_stable(opts: &Opts) -> Outcome {
    run_cell(&VCUBE_STABLE, opts)
}

/// The plain run of `scale-n256-vcube-lossy`.
pub(crate) fn run_vcube_lossy(opts: &Opts) -> Outcome {
    run_cell(&VCUBE_LOSSY, opts)
}

/// The traced profile of every cell: a fixed seed list, untraced then
/// with every detector in a [`Timed`] wrapper.
pub(crate) fn trace(opts: &Opts, spans: &mut Spans) -> Outcome {
    let monitors = ScaleScenario.monitors();
    let first = opts.first_seed();
    let count = ((opts.seconds / 10.0 * TRACE_SEEDS_PER_10S as f64) as u64).max(1);
    let mut out = Outcome::default();
    for cell in &CELLS {
        let plain = runs(cell, first..first + count);
        CALLBACKS.with(|c| c.set(CallbackTotals::default()));
        let mut traced = Vec::new();
        for seed in first..first + count {
            let root = spans.root(cell.root);
            let r = execute(cell, seed, &monitors, Some((&mut *spans, root)));
            spans.close(root);
            out.attempted += 1;
            if let Some(v) = &r.violation {
                out.failed += 1;
                out.problem(format!("{} seed {seed}: {v}", cell.key));
            }
            traced.push((seed, r));
        }
        let cb = CALLBACKS.with(|c| c.get());
        spans.add_total(
            format!("scale.{}.detector_callback", cell.key),
            cb.ns,
            cb.calls,
        );
        let prints =
            |rs: &[(u64, CellRun)]| rs.iter().map(|(_, r)| r.fingerprint()).collect::<Vec<_>>();
        transparency(&mut out, cell.key, &prints(&plain), &prints(&traced));

        let (digest, events, messages) = fold(&traced);
        let run_ns: u64 = traced.iter().map(|(_, r)| r.run_ns).sum();
        let run_allocs: u64 = traced.iter().map(|(_, r)| r.run_allocs).sum();
        let plain_ns: u64 = plain.iter().map(|(_, r)| r.run_ns).sum();
        let ev = events.max(1) as f64;
        let basis = format!("n={count} seeds from {first}, {events} events");
        let name = |m: &str| format!("scale.{}.{m}", cell.key);
        out.push(Metric::new(
            name("detector_ns_per_event"),
            cb.ns as f64 / ev,
            "ns",
            &basis,
        ));
        out.push(Metric::new(
            name("kernel_ns_per_event"),
            run_ns.saturating_sub(cb.ns) as f64 / ev,
            "ns",
            &basis,
        ));
        out.push(Metric::new(
            name("allocs_per_event"),
            run_allocs as f64 / ev,
            "count",
            &basis,
        ));
        out.push(Metric::new(
            name("detector_allocs_per_callback"),
            cb.allocs as f64 / cb.calls.max(1) as f64,
            "count",
            format!("{basis}, {} callbacks", cb.calls),
        ));
        out.push(Metric::new(name("events"), events as f64, "count", &basis));
        out.push(Metric::new(
            name("messages"),
            messages as f64,
            "count",
            &basis,
        ));
        out.notes.push(format!(
            "{} = {digest:016x} (exact, {basis}, folded as BENCH_scale.json)",
            name("digest")
        ));
        out.push(overhead_metric(
            &format!("scale.{}", cell.key),
            plain_ns,
            run_ns,
            &basis,
        ));
    }
    out
}
