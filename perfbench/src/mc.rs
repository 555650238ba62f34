//! `mc-ec-n3`: `fd_mc::explore` on the `ec` consensus target over the
//! envelope of the EXPERIMENTS.md `ec` row — n = 3, depth 6, one crash
//! on the 25 ms grid over the first 100 ms, horizon 300 ms, no forced
//! drops, POR and dedup on. The search is seed-free: `--seed` does not
//! change it, and every search of a run must agree exactly.
//!
//! One operation is one complete search; it fails if it is truncated
//! or finds a violation.

use crate::report::{Metric, Outcome};
use crate::spans::Spans;
use crate::{metered_metrics, ns_since, overhead_metric, stats, Meter, Opts};
use fd_bench::mc::{protocol_target, McProtocol};
use fd_mc::{explore, run_one, McConfig, McReport, McTarget};
use fd_sim::{Metrics, ProcessId, SchedChoice, SchedWorld, Scheduler, Time, Trace};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Searches a plain run makes at least, so determinism is always checked.
const MIN_SEARCHES: usize = 2;

/// Set-ups timed for `setup_s` (each takes a fraction of a millisecond).
const SETUP_REPS: usize = 51;

/// Explored runs per throughput batch. A search is one operation, but
/// several seconds long; batches are cut inside it by the target's
/// factory, so the machine is probed often enough to follow its speed.
const SEGMENT: u64 = 1000;

/// The explored target.
pub(crate) fn target() -> McTarget {
    protocol_target(McProtocol::Ec, 3, Time::from_millis(300))
}

/// The exploration envelope.
pub(crate) fn config() -> McConfig {
    McConfig {
        depth: 6,
        crashes: 1,
        ..McConfig::default()
    }
}

/// What two searches of the same envelope must agree on.
fn coverage(r: &McReport) -> [usize; 8] {
    let s = &r.stats;
    [
        s.runs,
        s.distinct_states,
        r.final_digests.len(),
        s.choice_points,
        s.sleep_skips,
        s.visited_hits,
        s.schedules,
        r.violations.len(),
    ]
}

fn verdict(out: &mut Outcome, r: &McReport, what: &str) {
    out.attempted += 1;
    if !r.complete || !r.violations.is_empty() {
        out.failed += 1;
        out.problem(format!(
            "{what}: complete={} violations={:?}",
            r.complete,
            r.violations.iter().map(|v| &v.property).collect::<Vec<_>>()
        ));
    }
}

/// The plain run.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let meter = Rc::new(RefCell::new(Meter::new(1)));
    let cfg = config();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        built = Some(meter.borrow_mut().setup(|| {
            let target = target();
            std::hint::black_box(run_one(&target, &cfg, &[], &[]).final_digest);
            target
        }));
    }
    let mut target = built.expect("at least one set-up");
    // Every SEGMENT-th world build closes a batch of SEGMENT runs.
    let mark = Rc::new(Cell::new((Instant::now(), 0)));
    let (inner, seg, seg_mark) = (target.factory, Rc::clone(&meter), Rc::clone(&mark));
    target.factory = Box::new(move || {
        let (since, runs) = seg_mark.get();
        if runs + 1 == SEGMENT {
            seg.borrow_mut().record(SEGMENT as f64, ns_since(since));
            seg_mark.set((Instant::now(), 0));
        } else {
            seg_mark.set((since, runs + 1));
        }
        inner()
    });

    let mut out = Outcome::default();
    let mut searches = Vec::new();
    let mut reference: Option<McReport> = None;
    let start = Instant::now();
    mark.set((Instant::now(), 0));
    while start.elapsed().as_secs_f64() < opts.seconds || searches.len() < MIN_SEARCHES {
        let t = Instant::now();
        let probed = meter.borrow().probe_ns();
        let r = explore(&target, &cfg);
        let ns = ns_since(t).saturating_sub(meter.borrow().probe_ns() - probed);
        searches.push(ns as f64 / 1e9);
        verdict(&mut out, &r, "search");
        match &reference {
            Some(first)
                if coverage(first) != coverage(&r) || first.final_digests != r.final_digests =>
            {
                out.problem(format!(
                    "searches disagree: {:?} vs {:?}",
                    coverage(first),
                    coverage(&r)
                ));
            }
            Some(_) => {}
            None => reference = Some(r),
        }
    }
    drop(target);
    let Ok(meter) = Rc::try_unwrap(meter) else {
        unreachable!("the target's factory, the meter's only other owner, is dropped");
    };
    let meter = meter.into_inner();
    let n = searches.len();
    let what = format!("n={n} searches, explored runs per host second, batches of {SEGMENT} runs");
    let setup = "the ec target and its canonical first run";
    metered_metrics(&mut out, &meter.finish(), "mc.runs_per_s", &what, setup);
    out.push(Metric::new(
        "mc.search_s",
        stats::median(&searches),
        "s",
        format!("n={n} searches, median, host seconds less probing"),
    ));
    out.push(Metric::new(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        format!(
            "{} of {} searches truncated or violating",
            out.failed, out.attempted
        ),
    ));
    out
}

/// Host time and work inside the explored worlds, split by layer.
#[derive(Debug, Default)]
struct Prof {
    build_ns: Cell<u64>,
    builds: Cell<u64>,
    kernel_ns: Cell<u64>,
    sched_ns: Cell<u64>,
    choices: Cell<u64>,
    events: Cell<u64>,
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

/// A `Scheduler` proxy timing every choice.
struct TimedSched<'a> {
    inner: &'a mut dyn Scheduler,
    ns: u64,
    calls: u64,
}

impl Scheduler for TimedSched<'_> {
    fn choose(&mut self, cp: &fd_sim::ChoicePoint<'_>) -> SchedChoice {
        let t = Instant::now();
        let c = self.inner.choose(cp);
        self.ns += ns_since(t);
        self.calls += 1;
        c
    }
}

/// A `SchedWorld` proxy: kernel time is everything inside the world
/// except the scheduler's choices.
struct TimedWorld {
    inner: Box<dyn SchedWorld>,
    prof: Rc<Prof>,
}

impl TimedWorld {
    fn kernel<R>(&mut self, f: impl FnOnce(&mut dyn SchedWorld) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        add(&self.prof.kernel_ns, ns_since(t));
        r
    }
}

impl SchedWorld for TimedWorld {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn is_crashed(&self, pid: ProcessId) -> bool {
        self.inner.is_crashed(pid)
    }
    fn schedule_crash(&mut self, pid: ProcessId, at: Time) {
        self.kernel(|w| w.schedule_crash(pid, at));
    }
    fn run_scheduled_until(&mut self, until: Time, sched: &mut dyn Scheduler) {
        let mut timed = TimedSched {
            inner: sched,
            ns: 0,
            calls: 0,
        };
        let t = Instant::now();
        self.inner.run_scheduled_until(until, &mut timed);
        let total = ns_since(t);
        add(&self.prof.kernel_ns, total.saturating_sub(timed.ns));
        add(&self.prof.sched_ns, timed.ns);
        add(&self.prof.choices, timed.calls);
    }
    fn state_digest(&self) -> u64 {
        let t = Instant::now();
        let d = self.inner.state_digest();
        add(&self.prof.kernel_ns, ns_since(t));
        d
    }
    fn take_results(&mut self) -> (Trace, Metrics) {
        let (trace, metrics) = self.kernel(|w| w.take_results());
        add(&self.prof.events, metrics.events_processed());
        (trace, metrics)
    }
}

/// `target` with its factory wrapped: world builds are timed and every
/// world is a [`TimedWorld`].
fn timed_target(prof: &Rc<Prof>) -> McTarget {
    let mut target = target();
    let factory = target.factory;
    let prof = Rc::clone(prof);
    target.factory = Box::new(move || {
        let t = Instant::now();
        let inner = factory();
        add(&prof.build_ns, ns_since(t));
        add(&prof.builds, 1);
        Box::new(TimedWorld {
            inner,
            prof: Rc::clone(&prof),
        }) as Box<dyn SchedWorld>
    });
    target
}

/// The traced profile: one search untraced, then one through the
/// factory, world and scheduler proxies.
pub(crate) fn trace(_opts: &Opts, spans: &mut Spans) -> Outcome {
    let cfg = config();
    let mut out = Outcome::default();
    let t = Instant::now();
    let plain = explore(&target(), &cfg);
    let plain_ns = ns_since(t);
    verdict(&mut out, &plain, "untraced search");

    let prof = Rc::new(Prof::default());
    let target = timed_target(&prof);
    let root = spans.root("mc.search");
    let t = Instant::now();
    let traced = spans.child(root, "mc.explore", || explore(&target, &cfg));
    let traced_ns = ns_since(t);
    spans.close(root);
    verdict(&mut out, &traced, "traced search");
    if coverage(&plain) != coverage(&traced) || plain.final_digests != traced.final_digests {
        out.problem(format!(
            "mc-ec-n3: traced search differs: {:?} vs {:?}",
            coverage(&plain),
            coverage(&traced)
        ));
    }
    spans.add_total("mc.world.build", prof.build_ns.get(), prof.builds.get());
    spans.add_total("mc.kernel", prof.kernel_ns.get(), prof.builds.get());
    spans.add_total(
        "mc.scheduler.choose",
        prof.sched_ns.get(),
        prof.choices.get(),
    );

    let s = &traced.stats;
    let basis = format!("1 search, {} runs", s.runs);
    for (name, v) in [
        ("mc.runs", s.runs),
        ("mc.distinct_states", s.distinct_states),
        ("mc.final_states", traced.final_digests.len()),
        ("mc.choice_points", s.choice_points),
        ("mc.sleep_skips", s.sleep_skips),
        ("mc.visited_hits", s.visited_hits),
    ] {
        out.push(Metric::new(name, v as f64, "count", &basis));
    }
    out.push(Metric::new(
        "mc.events_reexecuted",
        prof.events.get() as f64,
        "count",
        &basis,
    ));
    let runs = prof.builds.get().max(1) as f64;
    let (build, kernel, sched) = (
        prof.build_ns.get(),
        prof.kernel_ns.get(),
        prof.sched_ns.get(),
    );
    let per_run = format!("1 search, {} world runs", prof.builds.get());
    out.push(Metric::new(
        "mc.build_ns_per_run",
        build as f64 / runs,
        "ns",
        &per_run,
    ));
    out.push(Metric::new(
        "mc.kernel_ns_per_run",
        kernel as f64 / runs,
        "ns",
        &per_run,
    ));
    out.push(Metric::new(
        "mc.sched_ns_per_run",
        sched as f64 / runs,
        "ns",
        &per_run,
    ));
    out.push(Metric::new(
        "mc.check_ns_per_run",
        traced_ns.saturating_sub(build + kernel + sched) as f64 / runs,
        "ns",
        format!("{per_run}, remainder: property checks and DFS"),
    ));
    out.push(overhead_metric("mc", plain_ns, traced_ns, &basis));
    out
}
