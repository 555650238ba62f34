//! The ecfd benchmark.
//!
//! Six workloads, each a single-threaded closed loop (the next seed,
//! cell run or search starts when the previous one ends), drive the
//! repository's layers from outside through their public functions:
//!
//! * `chaos-sweep` — the generated `chaos` campaign scenario
//!   (plan → execute → digest → monitor per seed);
//! * `scale-n256-hb-stable`, `scale-n256-vcube-stable`,
//!   `scale-n256-vcube-lossy` — the three n = 256 scale cells, each its
//!   own workload so each cell's throughput is gated on its own;
//! * `kv-failover` — the replicated KV store under the standard
//!   crash/restart plan, every detector class;
//! * `mc-ec-n3` — the exhaustive fd-mc search of the `ec` target.
//!
//! A plain run (`--trace 0`) measures one workload for `--seconds` and
//! reports the shared end-to-end metrics. The traced run (`--trace 1`)
//! profiles every workload on a fixed amount of work, once untraced and
//! once traced, checks that the two agree exactly, and reports the
//! per-layer metrics. See `METRICS.md` for every metric and what it
//! should move.

pub mod chaos;
pub mod kv;
pub mod mc;
pub mod report;
pub mod scale;
pub mod spans;
pub mod stats;

use fd_campaign::{Monitor, RunOutcome, Scenario, SeedExecutor};
use report::{Metric, Outcome};
use spans::Spans;
use std::time::Instant;

/// Command-line seed `n` maps to workload seeds `n·SEED_STRIDE`,
/// `n·SEED_STRIDE + 1`, …; seed 0 is therefore the legacy seed range
/// (`BENCH_scale.json` and `BENCH_kv.json` start at seed 0).
pub const SEED_STRIDE: u64 = 1_000_000;

/// The default command-line seed.
pub const DEFAULT_SEED: u64 = 0;

/// Shared end-to-end key: operations per host second.
pub(crate) const THROUGHPUT: &str = "throughput_per_s";
/// Shared end-to-end key: median set-up time.
pub(crate) const SETUP: &str = "setup_s";
/// Shared end-to-end key: peak resident memory.
pub(crate) const PEAK_RSS: &str = "peak_rss_mb";

/// How many times a workload that sets up once per run repeats its
/// set-up; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 9;

/// Options every workload runs under.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Command-line seed (see [`SEED_STRIDE`]).
    pub seed: u64,
    /// Measurement budget of a plain run, in seconds.
    pub seconds: f64,
}

impl Opts {
    /// The first workload seed of this run.
    pub fn first_seed(&self) -> u64 {
        self.seed.wrapping_mul(SEED_STRIDE)
    }
}

/// One benchmark workload.
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// The plain (untraced) run.
    pub run: fn(&Opts) -> Outcome,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "chaos-sweep",
        run: chaos::run,
    },
    Workload {
        name: "scale-n256-hb-stable",
        run: scale::run_hb_stable,
    },
    Workload {
        name: "scale-n256-vcube-stable",
        run: scale::run_vcube_stable,
    },
    Workload {
        name: "scale-n256-vcube-lossy",
        run: scale::run_vcube_lossy,
    },
    Workload {
        name: "kv-failover",
        run: kv::run,
    },
    Workload {
        name: "mc-ec-n3",
        run: mc::run,
    },
];

/// The traced run: every workload's layer profile on a fixed amount of
/// work, with spans collected into `spans`.
pub fn traced(opts: &Opts, spans: &mut Spans) -> Vec<(&'static str, Outcome)> {
    vec![
        ("chaos-sweep", chaos::trace(opts, spans)),
        ("scale-n256", scale::trace(opts, spans)),
        ("kv-failover", kv::trace(opts, spans)),
        ("mc-ec-n3", mc::trace(opts, spans)),
    ]
}

/// Host nanoseconds since `t`.
pub(crate) fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fixed, allocation-free memory workload that measures how fast the
/// machine is right now: open-addressing inserts of pseudo-random keys
/// into a table the size of a large cache. On a shared host, memory-bound
/// code slows and speeds up together with neighbouring load; timing this
/// next to each batch lets the benchmark report throughput at a reference
/// machine speed (see [`Meter`]). It runs none of the repository's code,
/// so no change to the program can move it.
struct Probe {
    keys: Vec<u64>,
    table: Vec<u64>,
}

/// Keys inserted per probe.
const PROBE_KEYS: usize = 600_000;

/// Probe time (s) that defines the reference machine speed: the median
/// probe on the 2-vCPU, 2.1 GHz machine the bounds were set on.
pub(crate) const PROBE_REF_S: f64 = 0.012;

impl Probe {
    /// Allocate and fault in the probe's memory.
    fn new() -> Probe {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let keys = (0..PROBE_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x | 1
            })
            .collect();
        Probe {
            keys,
            table: vec![0; 1 << 20],
        }
    }

    /// Host seconds of one probe.
    fn measure(&mut self) -> f64 {
        let t = Instant::now();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        for &k in &self.keys {
            let mut i = (k as usize) & mask;
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & mask;
            }
            self.table[i] = k;
        }
        std::hint::black_box(&self.table);
        ns_since(t) as f64 / 1e9
    }
}

/// Resident bytes of the probe itself, left out of `peak_rss_mb`.
fn probe_mb() -> f64 {
    ((PROBE_KEYS + (1 << 20)) * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
}

/// Reset the process's peak resident memory to its current size.
fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM. Where it is not
    // supported the peak stays the process peak, which only overstates.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The closed-loop meter of a plain run. It groups operations into
/// batches and probes the machine between batches: a batch's host time
/// divided by the mean of its two adjacent probe times over
/// [`PROBE_REF_S`] is its time at the reference machine speed, and set-up
/// times measured in it are scaled the same way. It also tracks each
/// batch's peak resident memory.
pub(crate) struct Meter {
    probe: Probe,
    batch: usize,
    last_probe: f64,
    probe_ns: u64,
    work: f64,
    ns: u64,
    ops: usize,
    setup_pending: Vec<f64>,
    setup: Vec<f64>,
    batches: usize,
    total_work: f64,
    total_s: f64,
    total_ref_s: f64,
    probes: Vec<f64>,
    rss_mb: Vec<f64>,
}

/// What a [`Meter`] measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Metered {
    /// Work per host second over all batches.
    pub raw: f64,
    /// Work per second at [`PROBE_REF_S`] over all batches.
    pub calibrated: f64,
    /// Median probe time, s.
    pub probe_s: f64,
    /// The smallest per-batch peak resident memory, MB, less the probe's
    /// own memory.
    pub rss_mb: f64,
    /// Batches measured.
    pub batches: usize,
    /// Median set-up time at [`PROBE_REF_S`], s.
    pub setup_s: f64,
    /// Set-up samples.
    pub setups: usize,
}

impl Meter {
    /// A meter with batches of `batch` operations.
    pub fn new(batch: usize) -> Meter {
        let mut probe = Probe::new();
        let last_probe = probe.measure();
        reset_peak_rss();
        Meter {
            probe,
            batch: batch.max(1),
            last_probe,
            probe_ns: 0,
            work: 0.0,
            ns: 0,
            ops: 0,
            setup_pending: Vec::new(),
            setup: Vec::new(),
            batches: 0,
            total_work: 0.0,
            total_s: 0.0,
            total_ref_s: 0.0,
            probes: vec![last_probe],
            rss_mb: Vec::new(),
        }
    }

    /// Time one set-up with `f`, then probe, so the set-up is scaled by
    /// the probes on either side of it; returns its result.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        let secs = ns_since(t) as f64 / 1e9;
        let p = self.probe();
        self.setup
            .push(secs / ((self.last_probe + p) / 2.0 / PROBE_REF_S));
        self.last_probe = p;
        reset_peak_rss();
        r
    }

    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let p = self.probe.measure();
        self.probe_ns += ns_since(t);
        self.probes.push(p);
        p
    }

    /// Record one set-up inside the current batch that took `ns` host
    /// nanoseconds; it is scaled with the batch.
    pub fn setup_ns(&mut self, ns: u64) {
        self.setup_pending.push(ns as f64 / 1e9);
    }

    /// Record one operation: `work` units done in `ns` host nanoseconds.
    pub fn record(&mut self, work: f64, ns: u64) {
        self.work += work;
        self.ns += ns;
        self.ops += 1;
        if self.ops == self.batch {
            self.close();
        }
    }

    fn close(&mut self) {
        self.rss_mb
            .push(report::peak_rss_mb().unwrap_or(f64::NAN) - probe_mb());
        let p = self.probe();
        let speed = (self.last_probe + p) / 2.0 / PROBE_REF_S;
        let secs = self.ns as f64 / 1e9;
        self.batches += 1;
        self.total_work += self.work;
        self.total_s += secs;
        self.total_ref_s += secs / speed;
        self.setup
            .extend(self.setup_pending.drain(..).map(|s| s / speed));
        self.last_probe = p;
        self.work = 0.0;
        self.ns = 0;
        self.ops = 0;
        reset_peak_rss();
    }

    /// Complete batches so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Host nanoseconds spent probing so far.
    pub fn probe_ns(&self) -> u64 {
        self.probe_ns
    }

    /// The totals; a trailing partial batch counts only when it is the
    /// only one.
    pub fn finish(mut self) -> Metered {
        if self.batches == 0 {
            self.close();
        }
        let speed = self.last_probe / PROBE_REF_S;
        self.setup
            .extend(self.setup_pending.drain(..).map(|s| s / speed));
        Metered {
            raw: self.total_work / self.total_s,
            calibrated: self.total_work / self.total_ref_s,
            probe_s: stats::median(&self.probes),
            rss_mb: self.rss_mb.iter().copied().fold(f64::INFINITY, f64::min),
            batches: self.batches,
            // NaN (a correctness failure in the JSON) if nothing set up.
            setup_s: if self.setup.is_empty() {
                f64::NAN
            } else {
                stats::median(&self.setup)
            },
            setups: self.setup.len(),
        }
    }
}

/// The shared end-to-end metrics of a plain run, from its meter: `name`
/// is the workload's own throughput name, `what` says what was counted,
/// `setup` what one set-up is.
pub(crate) fn metered_metrics(out: &mut Outcome, m: &Metered, name: &str, what: &str, setup: &str) {
    out.push(
        Metric::new(
            name,
            m.calibrated,
            "1/s",
            format!(
                "{what}; total over {} batches at reference speed (probe {PROBE_REF_S} s; median probe {:.4} s)",
                m.batches, m.probe_s
            ),
        )
        .as_key(THROUGHPUT),
    );
    out.push(Metric::new(
        format!("{name}.uncalibrated"),
        m.raw,
        "1/s",
        format!(
            "{what}; total over {} batches in host seconds as measured",
            m.batches
        ),
    ));
    out.push(
        Metric::new(
            "setup_s",
            m.setup_s,
            "s",
            format!(
                "n={} set-ups ({setup}), median at reference speed",
                m.setups
            ),
        )
        .as_key(SETUP),
    );
    out.push(
        Metric::new(
            "peak_rss_mb",
            m.rss_mb,
            "MB",
            format!(
                "smallest of {} per-batch peaks of resident memory (VmHWM), less the {:.1} MB probe",
                m.batches,
                probe_mb()
            ),
        )
        .as_key(PEAK_RSS),
    );
}

/// One checked seed of a campaign scenario: the outcome, its trace
/// digest, and the first failing monitor.
pub(crate) struct Checked {
    /// The executed run.
    pub outcome: RunOutcome,
    /// `Trace::digest` of the run.
    pub digest: u64,
    /// `property: detail` of the first failing monitor.
    pub violation: Option<String>,
}

/// Plan, execute (observed through `obs`, if any), digest and check
/// one seed: the campaign engine's per-seed steps, driven from outside.
pub(crate) fn check_seed(
    sc: &dyn Scenario,
    ex: &mut dyn SeedExecutor,
    monitors: &[Box<dyn Monitor>],
    seed: u64,
    obs: Option<&fd_obs::Registry>,
) -> Checked {
    let plan = sc.plan(seed);
    let outcome = ex.execute(&plan, obs);
    let digest = outcome.trace.digest();
    let violation = monitors.iter().find_map(|m| {
        m.check(&outcome)
            .err()
            .map(|v| format!("{}: {}", m.property(), v.detail))
    });
    Checked {
        outcome,
        digest,
        violation,
    }
}

/// The traced twin of [`check_seed`]: a root span per seed, a child
/// span per step, the kernel observed through a registry, and the heap
/// allocations of `execute` counted.
pub(crate) struct SeedTracer<'a> {
    /// Root span name of each seed.
    pub root: &'static str,
    /// Span name per monitor, in `monitors()` order.
    pub monitor_spans: &'a [&'static str],
    /// Registry the kernel is observed through.
    pub registry: &'a fd_obs::Registry,
    /// Heap allocations inside `execute`, summed over seeds.
    pub allocs: u64,
}

impl SeedTracer<'_> {
    /// Plan, execute, digest and check one seed, each step in a span.
    pub fn check(
        &mut self,
        sc: &dyn Scenario,
        ex: &mut dyn SeedExecutor,
        monitors: &[Box<dyn Monitor>],
        seed: u64,
        spans: &mut Spans,
    ) -> Checked {
        assert_eq!(
            monitors.len(),
            self.monitor_spans.len(),
            "one span name per monitor"
        );
        let root = spans.root(self.root);
        let plan = spans.child(root, "campaign.plan", || sc.plan(seed));
        let outcome = spans.child(root, "campaign.execute", || {
            let before = fd_obs::CountingAllocator::count();
            let outcome = ex.execute(&plan, Some(self.registry));
            self.allocs += fd_obs::CountingAllocator::count().saturating_sub(before);
            outcome
        });
        let digest = spans.child(root, "sim.trace.digest", || outcome.trace.digest());
        let mut violation = None;
        for (m, name) in monitors.iter().zip(self.monitor_spans) {
            let verdict = spans.child(root, name, || m.check(&outcome));
            if let (Err(v), None) = (verdict, &violation) {
                violation = Some(format!("{}: {}", m.property(), v.detail));
            }
        }
        spans.close(root);
        Checked {
            outcome,
            digest,
            violation,
        }
    }
}

/// What a traced pass must reproduce of its untraced twin, per operation.
pub(crate) type Fingerprint = (u64, u64, u64);

/// Compare the per-operation fingerprints of an untraced and a traced
/// pass over the same work; every mismatch is a problem.
pub(crate) fn transparency(
    out: &mut Outcome,
    what: &str,
    plain: &[Fingerprint],
    traced: &[Fingerprint],
) {
    if plain.len() != traced.len() {
        out.problem(format!(
            "{what}: traced run did {} operations, untraced {}",
            traced.len(),
            plain.len()
        ));
    }
    for (i, (a, b)) in plain.iter().zip(traced).enumerate() {
        if a != b {
            out.problem(format!(
                "{what}: operation {i} differs with tracing on: (digest, events, messages) {a:x?} vs {b:x?}"
            ));
        }
    }
}

/// The relative cost of tracing, in percent of the untraced time.
pub(crate) fn overhead_metric(name: &str, plain_ns: u64, traced_ns: u64, basis: &str) -> Metric {
    Metric::new(
        format!("{name}.trace_overhead"),
        (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0) * 100.0,
        "%",
        basis.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_totals_complete_batches() {
        // Three full batches at 10, 20 and 40 ops/s, plus a short tail.
        let mut meter = Meter::new(2);
        for ns in [
            100_000_000,
            100_000_000,
            50_000_000,
            50_000_000,
            25_000_000,
            25_000_000,
            1,
        ] {
            meter.record(1.0, ns);
        }
        meter.setup_ns(2_000_000);
        let m = meter.finish();
        assert_eq!(m.batches, 3);
        assert!((m.raw - 6.0 / 0.35).abs() < 1e-9, "{}", m.raw);
        assert!(m.calibrated > 0.0 && m.probe_s > 0.0 && m.rss_mb > 0.0);
        assert_eq!(m.setups, 1);
        assert!(m.setup_s > 0.0);
        // A lone short batch still yields a rate.
        let mut meter = Meter::new(2);
        meter.record(1.0, 100_000_000);
        assert_eq!(meter.finish().raw, 10.0);
    }

    #[test]
    fn seed_zero_is_the_legacy_range() {
        let opts = Opts {
            seed: DEFAULT_SEED,
            seconds: 1.0,
        };
        assert_eq!(opts.first_seed(), 0);
        assert_eq!(Opts { seed: 3, ..opts }.first_seed(), 3 * SEED_STRIDE);
    }
}
