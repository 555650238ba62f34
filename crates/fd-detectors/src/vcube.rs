//! vCube hierarchical failure detector — log₂ n testing rounds over
//! hypercube clustering.
//!
//! The all-to-all heartbeat detector costs `n(n−1)` messages per period;
//! the ring costs `O(n)` but pays `O(n)` rounds of detection latency.
//! The vCube family (system-level diagnosis in the VCube virtual
//! topology, à la Duarte/Nanya's adaptive-DSD lineage) sits between
//! them: each process runs at most `log₂ n` *tests* per round against a
//! hierarchy of clusters, and event news disseminates along the test
//! graph in at most `log₂ n` rounds — `O(n·log n)` messages per period
//! with `O(log n · period + timeout)` detection latency.
//!
//! ## Clusters
//!
//! For a process `i`, cluster `s` (`1 ≤ s ≤ ⌈log₂ n⌉`) is the ordered
//! candidate list `c_{i,s}[k] = i ⊕ 2^{s−1} ⊕ k` for `k < 2^{s−1}`
//! (identifiers ≥ n are skipped, so any n works, not just powers of
//! two). Each round, `i` tests the *first non-suspected* candidate of
//! every cluster — in the fault-free case exactly its `log₂ n` hypercube
//! neighbours, and every process is tested by exactly its `log₂ n`
//! neighbours. When faults shrink a cluster, the next candidate in the
//! deterministic order takes over, so every correct process keeps being
//! tested. `i` additionally re-tests the first *suspected* candidate of
//! each cluster, which is what lets a falsely-suspected process be
//! noticed alive again (eventual accuracy).
//!
//! ## Dissemination
//!
//! Each process keeps a per-peer event timestamp: even = up, odd = down
//! (the classic diagnosis parity encoding). Detecting a timeout bumps
//! the target's timestamp to odd; an ack from a suspected process bumps
//! it back to even and grows that peer's adaptive timeout (the same
//! ◇-accuracy mechanism the heartbeat detector uses). Fresh events ride
//! in test *replies* for `log₂ n + 2` rounds: a tester pulls its
//! testee's recent news, merges anything newer than its own view
//! (max-merge by timestamp), and re-shares it. News thus crosses the
//! test graph — whose fault-free form is the hypercube, diameter
//! `log₂ n` — in at most `log₂ n` rounds.

use crate::timeout::TimeoutTable;
use fd_core::{Component, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{Payload, ProcessId, SimDuration, SimMessage, Time};

/// Configuration of a [`VCubeDetector`].
#[derive(Debug, Clone)]
pub struct VCubeConfig {
    /// Testing-round period.
    pub period: SimDuration,
    /// Initial per-peer test timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment applied after each false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for VCubeConfig {
    fn default() -> Self {
        VCubeConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(30),
            timeout_increment: SimDuration::from_millis(20),
        }
    }
}

/// vCube protocol messages.
#[derive(Debug, Clone)]
pub enum VCubeMsg {
    /// "Are you alive?" — sent to at most `2·log₂ n` cluster candidates
    /// per round.
    Test,
    /// Test reply, carrying the responder's recent event news as
    /// `(process, timestamp)` pairs (empty — and allocation-free — in
    /// the steady state).
    Ack {
        /// Recent `(process, event-timestamp)` news entries.
        news: Vec<(ProcessId, u64)>,
    },
}

impl SimMessage for VCubeMsg {
    fn kind(&self) -> &'static str {
        match self {
            VCubeMsg::Test => fd_obs::keys::VC_TEST,
            VCubeMsg::Ack { .. } => fd_obs::keys::VC_ACK,
        }
    }
}

const TIMER_ROUND: u32 = 0;

/// The hierarchical detector (see module docs).
#[derive(Debug)]
pub struct VCubeDetector {
    me: ProcessId,
    n: usize,
    /// `⌈log₂ n⌉` — clusters per process, hypercube dimensions.
    dim: usize,
    cfg: VCubeConfig,
    /// Per-peer event timestamps: even = up, odd = down. Index = pid.
    ts: Vec<u64>,
    suspected: ProcessSet,
    timeouts: TimeoutTable,
    /// Outstanding tests: `(target, deadline)`. At most `2·dim` entries —
    /// scanned, not indexed, so the per-round cost stays `O(log n)`.
    outstanding: Vec<(ProcessId, Time)>,
    /// Recent news to share in acks. Entries retire after `dim + 2`
    /// rounds; receivers re-share what they learn, so retention only
    /// needs to cover one dissemination hop.
    news: News,
    /// Testing rounds completed (drives news retirement).
    round: u64,
    /// Suspect-set changed since the last observation was emitted.
    dirty: bool,
}

impl VCubeDetector {
    /// Build the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: VCubeConfig) -> VCubeDetector {
        let dim = if n <= 1 {
            0
        } else {
            (n - 1).ilog2() as usize + 1
        };
        let timeouts = TimeoutTable::additive(n, cfg.initial_timeout, cfg.timeout_increment);
        VCubeDetector {
            me,
            n,
            dim,
            cfg,
            ts: vec![0; n],
            suspected: ProcessSet::new(),
            timeouts,
            outstanding: Vec::new(),
            news: News::new(n, dim),
            round: 0,
            dirty: false,
        }
    }

    /// Total timeout increases — the number of mistakes made so far.
    pub fn mistakes(&self) -> u64 {
        self.timeouts.total_increases()
    }

    /// The `k`-th candidate of cluster `s` (`1 ≤ s ≤ dim`), or `None`
    /// when the identifier falls outside `0..n`.
    fn candidate(&self, s: usize, k: usize) -> Option<ProcessId> {
        let id = self.me.index() ^ (1usize << (s - 1)) ^ k;
        (id < self.n).then_some(ProcessId(id))
    }

    /// The first candidate of cluster `s` matching `want_suspected`.
    fn first_candidate(&self, s: usize, want_suspected: bool) -> Option<ProcessId> {
        (0..1usize << (s - 1)).find_map(|k| {
            self.candidate(s, k)
                .filter(|&q| self.suspected.contains(q) == want_suspected)
        })
    }

    /// Record the `down` event for `j` (local timeout detection).
    fn mark_down(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if self.ts[j.index()].is_multiple_of(2) {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[j.index()] += 1;
            self.push_news(j);
        }
        if self.suspected.insert(j) {
            self.dirty = true;
        }
    }

    /// Record direct evidence that `j` is alive. `mistake` grows `j`'s
    /// timeout (ack from a suspected peer = false suspicion).
    fn mark_up(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if self.ts[j.index()] % 2 == 1 {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[j.index()] += 1;
            self.timeouts.increase(j);
            self.push_news(j);
        }
        if self.suspected.remove(j) {
            self.dirty = true;
        }
    }

    /// (Re-)share `j`'s current timestamp in upcoming acks.
    fn push_news(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        let t = self.ts[j.index()];
        self.news.share(j, t, self.round);
    }

    /// Merge one news entry `(p, t)` learned from a peer's ack.
    fn merge_news(&mut self, p: ProcessId, t: u64) {
        if p == self.me {
            // Someone believes we are down: defend with a fresher
            // (even) timestamp so the rumor dies in ≤ log n rounds.
            // fd-lint: allow(HP001, reason = "ts has one slot per process; me.index() < n by construction")
            if t % 2 == 1 && t >= self.ts[self.me.index()] {
                // fd-lint: allow(HP001, reason = "ts has one slot per process; me.index() < n by construction")
                self.ts[self.me.index()] = t + 1;
                self.push_news(p);
            }
            return;
        }
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if t > self.ts[p.index()] {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[p.index()] = t;
            let down = t % 2 == 1;
            let changed = if down {
                self.suspected.insert(p)
            } else {
                self.suspected.remove(p)
            };
            if changed {
                self.dirty = true;
            }
            self.push_news(p);
        }
    }

    /// One testing round: expire overdue tests, test the first
    /// non-suspected (and first suspected) candidate of every cluster,
    /// retire stale news.
    fn run_round<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        let now = ctx.now();
        // Expire overdue tests: a silent testee is declared down.
        let mut i = 0;
        while i < self.outstanding.len() {
            // fd-lint: allow(HP001, reason = "the loop guard keeps i < outstanding.len()")
            let (target, deadline) = self.outstanding[i];
            if now >= deadline {
                self.outstanding.remove(i);
                self.mark_down(target);
            } else {
                i += 1;
            }
        }
        for s in 1..=self.dim {
            for want_suspected in [false, true] {
                let Some(q) = self.first_candidate(s, want_suspected) else {
                    continue;
                };
                if self.outstanding.iter().any(|&(t, _)| t == q) {
                    continue; // one in-flight test per target
                }
                ctx.send(q, VCubeMsg::Test);
                self.outstanding.push((q, now + self.timeouts.get(q)));
            }
        }
        self.advance_round();
    }

    /// Close a testing round: count it and retire the news it aged out.
    fn advance_round(&mut self) {
        self.round += 1;
        self.news.retire(self.round, self.dim as u64 + 2);
    }

    fn emit_if_dirty<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        if self.dirty {
            self.dirty = false;
            ctx.observe(
                fd_core::obs::SUSPECTS,
                // fd-lint: allow(HP002, reason = "emit fires only when the suspect set is dirty, not per message")
                Payload::Pids(self.suspected.to_vec()),
            );
        }
    }
}

/// Hard cap on news entries: retention bounds *age*, this bounds
/// *churn*. Under heavy pre-GST loss every peer can generate events
/// every round; without a cap the buffer grows `O(n)` and every ack
/// carries it, so each ack costs `O(n)` to copy and merge — `O(n²·log n)`
/// work per round across the system instead of `O(n·log² n)`, measured
/// as a ~100× event-rate collapse at n = 1024 lossy.
/// Dropping the stalest entries is safe: dissemination is a gossip
/// *optimization* over re-sharing; anything dropped is re-learned by
/// direct testing or a later ack.
fn news_cap(dim: usize) -> usize {
    4 * dim + 8
}

/// The news buffer: at most [`news_cap`] entries, one per process, in
/// *share order* — the order an ack carries them in. That order is
/// behaviour, not layout: a receiver merges an ack's news in order and
/// evicts by it, so `share` updates an entry in place or appends (after
/// a `swap_remove` eviction of the stalest entry when full), and
/// `retire` keeps the survivors' order.
///
/// Under loss most merged ack entries are re-shared and most of those
/// evict, so neither finding an entry nor finding the stalest one scans
/// tuples: once the buffer has filled, `slot` maps a pid to its
/// position, and the stalest entry is the minimum of a contiguous `u64`
/// key array.
#[derive(Debug)]
struct News {
    /// `(pid, ts)` in share order; an ack carries a copy of exactly this.
    entries: Vec<(ProcessId, u64)>,
    /// Parallel to `entries`: `round_added << dim | pid`, so the smallest
    /// key is the stalest entry — oldest round, then lowest pid. Exact
    /// while `round < 2^(64 − dim)`: 2^51 rounds at n = 8192.
    keys: Vec<u64>,
    /// `slot[pid]` = 1 + the position of `pid`'s entry, 0 when absent.
    /// Empty until the buffer first fills; until then `position` scans
    /// the few entries. A detector whose buffer never fills (any stable
    /// world, crashes included) never allocates the `n` slots, and a
    /// world build never pays for them.
    slot: Vec<u16>,
    /// System size: the length `slot` gets when built.
    n: usize,
    /// `⌈log₂ n⌉`: every pid fits below bit `dim` of a key.
    dim: usize,
}

impl News {
    fn new(n: usize, dim: usize) -> News {
        debug_assert!(news_cap(dim) < usize::from(u16::MAX));
        News {
            entries: Vec::new(),
            keys: Vec::new(),
            slot: Vec::new(),
            n,
            dim,
        }
    }

    /// The position of `j`'s entry, if it has one.
    fn position(&self, j: ProcessId) -> Option<usize> {
        if self.slot.is_empty() {
            return self.entries.iter().position(|&(p, _)| p == j);
        }
        match self.slot.get(j.index()) {
            Some(&s) if s > 0 => Some(usize::from(s) - 1),
            _ => None,
        }
    }

    /// Share timestamp `t` for `j`, learned in `round`.
    fn share(&mut self, j: ProcessId, t: u64, round: u64) {
        debug_assert!(
            j.index() < self.n,
            "news about {j} in a system of {}",
            self.n
        );
        debug_assert!(
            round.leading_zeros() as usize >= self.dim,
            "round {round} overflows the key"
        );
        let key = (round << self.dim) | j.index() as u64;
        if let Some(at) = self.position(j) {
            if let (Some(entry), Some(k)) = (self.entries.get_mut(at), self.keys.get_mut(at)) {
                entry.1 = t;
                *k = key;
            }
            return;
        }
        if self.entries.len() >= news_cap(self.dim) {
            if self.slot.is_empty() {
                // fd-lint: allow(HP002, reason = "once per detector, when its buffer first fills; built in new() or on the first news it costs every world build n slots per process")
                self.slot = vec![0; self.n];
                for (at, &(p, _)) in self.entries.iter().enumerate() {
                    set_slot(&mut self.slot, p, Some(at));
                }
            }
            self.evict_stalest();
        }
        self.entries.push((j, t));
        self.keys.push(key);
        set_slot(&mut self.slot, j, Some(self.entries.len() - 1));
    }

    /// `swap_remove` the entry with the smallest key.
    fn evict_stalest(&mut self) {
        let Some(&min) = self.keys.iter().min() else {
            return;
        };
        let stalest = ProcessId((min & ((1u64 << self.dim) - 1)) as usize);
        let Some(at) = self.position(stalest) else {
            return;
        };
        self.entries.swap_remove(at);
        self.keys.swap_remove(at);
        set_slot(&mut self.slot, stalest, None);
        if let Some(&(moved, _)) = self.entries.get(at) {
            set_slot(&mut self.slot, moved, Some(at));
        }
    }

    /// Drop the entries added more than `retention` rounds before
    /// `round`, keeping the survivors in order.
    fn retire(&mut self, round: u64, retention: u64) {
        let dim = self.dim;
        let live = |key: u64| round - (key >> dim) <= retention;
        if self.keys.iter().all(|&k| live(k)) {
            return;
        }
        let (mut keys, slot) = (self.keys.iter(), &mut self.slot);
        self.entries.retain(|&(p, _)| {
            let keep = keys.next().is_some_and(|&k| live(k));
            if !keep {
                set_slot(slot, p, None);
            }
            keep
        });
        self.keys.retain(|&k| live(k));
        for (at, &(p, _)) in self.entries.iter().enumerate() {
            set_slot(&mut self.slot, p, Some(at));
        }
    }
}

/// Point `j`'s slot at position `at` (`None`: no entry).
fn set_slot(slot: &mut [u16], j: ProcessId, at: Option<usize>) {
    if let Some(s) = slot.get_mut(j.index()) {
        // `at < news_cap`, far below `u16::MAX` (asserted in `News::new`).
        *s = at.map_or(0, |at| (at + 1) as u16);
    }
}

impl SuspectOracle for VCubeDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspected.clone()
    }
}

impl Component for VCubeDetector {
    type Msg = VCubeMsg;

    fn ns(&self) -> u32 {
        crate::ns::VCUBE
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        ctx.observe(fd_core::obs::SUSPECTS, Payload::Pids(Vec::new()));
        self.run_round(ctx);
        ctx.set_timer(self.cfg.period, TIMER_ROUND, 0);
    }

    // fd-lint: hot_path
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, VCubeMsg>,
        from: ProcessId,
        msg: VCubeMsg,
    ) {
        match msg {
            VCubeMsg::Test => {
                // A test is proof of life; answer with our recent news.
                self.mark_up(from);
                // fd-lint: allow(HP002, reason = "one news snapshot per test ack, paced by the test round timer")
                let news = self.news.entries.clone();
                ctx.send(from, VCubeMsg::Ack { news });
            }
            VCubeMsg::Ack { news } => {
                self.outstanding.retain(|&(t, _)| t != from);
                self.mark_up(from);
                for (p, t) in news {
                    if p.index() < self.n {
                        self.merge_news(p, t);
                    }
                }
            }
        }
        self.emit_if_dirty(ctx);
    }

    // fd-lint: hot_path
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, VCubeMsg>,
        kind: u32,
        _data: u64,
    ) {
        debug_assert_eq!(kind, TIMER_ROUND);
        self.run_round(ctx);
        ctx.set_timer(self.cfg.period, TIMER_ROUND, 0);
        self.emit_if_dirty(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, WorldBuilder};
    use proptest::prelude::*;

    fn run_world(
        n: usize,
        crashes: &[(usize, u64)],
        horizon_ms: u64,
        seed: u64,
    ) -> (fd_sim::Trace, Time) {
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ));
        let mut builder = WorldBuilder::new(net).seed(seed);
        for &(pid, at) in crashes {
            builder = builder.crash_at(ProcessId(pid), Time::from_millis(at));
        }
        let mut w =
            builder.build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        (trace, end)
    }

    #[test]
    fn cluster_candidates_follow_the_vcube_order() {
        let d = VCubeDetector::new(ProcessId(0), 8, VCubeConfig::default());
        // c_{0,1} = (1); c_{0,2} = (2,3); c_{0,3} = (4,5,6,7).
        assert_eq!(d.candidate(1, 0), Some(ProcessId(1)));
        assert_eq!(d.candidate(2, 0), Some(ProcessId(2)));
        assert_eq!(d.candidate(2, 1), Some(ProcessId(3)));
        let c3: Vec<_> = (0..4).filter_map(|k| d.candidate(3, k)).collect();
        assert_eq!(
            c3,
            vec![ProcessId(4), ProcessId(5), ProcessId(6), ProcessId(7)]
        );
        // Non-power-of-two n: out-of-range candidates vanish.
        let d6 = VCubeDetector::new(ProcessId(5), 6, VCubeConfig::default());
        assert_eq!(d6.dim, 3);
        let c3: Vec<_> = (0..4).filter_map(|k| d6.candidate(3, k)).collect();
        assert_eq!(
            c3,
            vec![ProcessId(1), ProcessId(0), ProcessId(3), ProcessId(2)]
        );
    }

    #[test]
    fn crash_free_run_is_eventually_accurate() {
        let (trace, end) = run_world(8, &[], 500, 21);
        FdRun::new(&trace, 8, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
    }

    #[test]
    fn crashes_are_detected_by_everyone() {
        let (trace, end) = run_world(8, &[(3, 100), (6, 150)], 1500, 22);
        let run = FdRun::new(&trace, 8, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        let crashed: ProcessSet = [ProcessId(3), ProcessId(6)].into_iter().collect();
        for p in [0usize, 1, 2, 4, 5, 7] {
            assert_eq!(run.final_suspects(ProcessId(p)), crashed, "at p{p}");
        }
    }

    #[test]
    fn works_for_non_power_of_two_n() {
        let (trace, end) = run_world(6, &[(4, 80)], 1200, 23);
        let run = FdRun::new(&trace, 6, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in [0usize, 1, 2, 3, 5] {
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(4))
            );
        }
    }

    #[test]
    fn survives_pre_gst_chaos() {
        let n = 8;
        let net = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(300),
            SimDuration::from_millis(5),
            SimDuration::from_millis(120),
            0.4,
        );
        let mut w = WorldBuilder::new(net)
            .seed(24)
            .crash_at(ProcessId(5), Time::from_millis(600))
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let mistakes: u64 = (0..n).map(|i| w.actor(ProcessId(i)).mistakes()).sum();
        let (trace, _) = w.into_results();
        FdRun::new(&trace, n, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
        assert!(mistakes > 0, "expected pre-GST false suspicions");
    }

    /// The §4-style cost comparison: a fault-free vCube round costs
    /// `2·n·⌈log₂ n⌉` messages (test + ack per hypercube edge endpoint)
    /// versus the heartbeat's `n(n−1)`.
    #[test]
    fn message_cost_is_n_log_n_per_period() {
        let n = 16;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .seed(25)
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        // 100ms horizon, 10ms period → ~10 testing rounds per process.
        w.run_until_time(Time::from_millis(100));
        let tests = w.metrics().sent_of_kind("vc.test") as f64;
        let expected = (n as f64) * 4.0 * 10.0; // n · log₂16 · rounds
        assert!(
            (tests - expected).abs() <= expected * 0.25,
            "measured {tests} tests, expected ≈{expected}"
        );
        let acks = w.metrics().sent_of_kind("vc.ack");
        assert!(acks > 0);
        let total = tests as u64 + acks;
        let heartbeat_equiv = (n * (n - 1) * 10) as u64;
        assert!(
            total < heartbeat_equiv,
            "vCube {total} ≥ heartbeat {heartbeat_equiv}"
        );
    }

    /// The scan-based news buffer [`News`] replaced, kept as its
    /// reference model: `push` finds an entry by linear scan and, when
    /// full, `swap_remove`s the `(round, pid)`-smallest; `retire` is a
    /// `retain`.
    #[derive(Debug, Default)]
    struct ScanNews {
        /// `(pid, ts, round_added)` in share order.
        entries: Vec<(ProcessId, u64, u64)>,
        /// Whether the buffer has ever been full (and evicted).
        filled: bool,
    }

    impl ScanNews {
        fn push(&mut self, cap: usize, j: ProcessId, t: u64, round: u64) {
            match self.entries.iter_mut().find(|(p, _, _)| *p == j) {
                Some(entry) => {
                    entry.1 = t;
                    entry.2 = round;
                }
                None => {
                    if self.entries.len() >= cap {
                        self.filled = true;
                        if let Some(idx) = (0..self.entries.len())
                            .min_by_key(|&i| (self.entries[i].2, self.entries[i].0.index()))
                        {
                            self.entries.swap_remove(idx);
                        }
                    }
                    self.entries.push((j, t, round));
                }
            }
        }

        fn retire(&mut self, round: u64, retention: u64) {
            self.entries
                .retain(|&(_, _, added)| round - added <= retention);
        }
    }

    /// `news` holds the model's entries in the model's order, and its
    /// keys and slot index agree with them.
    fn check_news(news: &News, model: &ScanNews) -> Result<(), TestCaseError> {
        let entries: Vec<(ProcessId, u64)> =
            model.entries.iter().map(|&(p, t, _)| (p, t)).collect();
        prop_assert_eq!(&news.entries, &entries);
        let keys: Vec<u64> = model
            .entries
            .iter()
            .map(|&(p, _, round)| (round << news.dim) | p.index() as u64)
            .collect();
        prop_assert_eq!(&news.keys, &keys);
        let want_len = if model.filled { news.n } else { 0 };
        prop_assert_eq!(
            news.slot.len(),
            want_len,
            "slot index built at the first fill"
        );
        for pid in (0..news.n).map(ProcessId) {
            let want = model.entries.iter().position(|&(p, _, _)| p == pid);
            prop_assert_eq!(news.position(pid), want, "slot of {}", pid);
        }
        Ok(())
    }

    /// One detector-level step of the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// A local timeout on a peer (`mark_down`).
        Down(usize),
        /// Direct evidence a peer is alive (`mark_up`).
        Up(usize),
        /// An ack's news, merged entry by entry.
        Merge(Vec<(usize, u64)>),
        /// The end of a testing round (`advance_round`).
        Advance,
    }

    fn op(n: usize) -> impl Strategy<Value = Op> {
        (
            0u8..10,
            0..n,
            prop::collection::vec((0..n, 0u64..24), 0..16),
        )
            .prop_map(|(kind, p, news)| match kind {
                0..=2 => Op::Down(p),
                3..=4 => Op::Up(p),
                5..=7 => Op::Merge(news),
                _ => Op::Advance,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The indexed news buffer behaves exactly like the scan it
        /// replaced, order included, under random down/up/merge/round
        /// sequences at n up to 300 — suspect sets spill past the inline
        /// 128, and buffers both stay below `news_cap` (scanned) and fill
        /// and evict (indexed from the first fill on). A push happens
        /// exactly when an op moves the pid's timestamp, so that is when
        /// the model pushes.
        #[test]
        fn news_buffer_matches_the_scan_model(
            (n, me, ops) in (2usize..=300).prop_flat_map(|n| {
                (Just(n), 0..n, prop::collection::vec(op(n), 0..160))
            }),
        ) {
            let mut d = VCubeDetector::new(ProcessId(me), n, VCubeConfig::default());
            prop_assert!(d.news.slot.is_empty(), "slot index allocated eagerly");
            let retention = d.dim as u64 + 2;
            let mut model = ScanNews::default();
            for op in ops {
                match op {
                    Op::Down(p) if p != me => mirror(&mut d, &mut model, p, |d| d.mark_down(ProcessId(p)))?,
                    Op::Up(p) if p != me => mirror(&mut d, &mut model, p, |d| d.mark_up(ProcessId(p)))?,
                    Op::Down(_) | Op::Up(_) => {}
                    Op::Merge(news) => {
                        for (p, t) in news {
                            mirror(&mut d, &mut model, p, |d| d.merge_news(ProcessId(p), t))?;
                        }
                    }
                    Op::Advance => {
                        d.advance_round();
                        model.retire(d.round, retention);
                        check_news(&d.news, &model)?;
                    }
                }
            }
        }
    }

    /// Apply `act` about `p` to `d`, mirror the push it made (if any)
    /// into `model`, and compare the two buffers.
    fn mirror(
        d: &mut VCubeDetector,
        model: &mut ScanNews,
        p: usize,
        act: impl FnOnce(&mut VCubeDetector),
    ) -> Result<(), TestCaseError> {
        let before = d.ts[p];
        act(d);
        if d.ts[p] != before {
            model.push(news_cap(d.dim), ProcessId(p), d.ts[p], d.round);
        }
        check_news(&d.news, model)
    }

    /// Dissemination, not just direct testing: with n = 32 only the 5
    /// hypercube neighbours of a crashed process test it directly, yet
    /// every correct process must learn of the crash through ack news.
    #[test]
    fn news_disseminates_beyond_direct_testers() {
        let (trace, end) = run_world(32, &[(13, 100)], 2000, 26);
        let run = FdRun::new(&trace, 32, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in 0..32usize {
            if p == 13 {
                continue;
            }
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(13)),
                "p{p} never learned of the crash"
            );
        }
    }
}
