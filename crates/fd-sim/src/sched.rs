//! The scheduler seam: explicit choice points over event ordering.
//!
//! The kernel's default schedule is strict `(time, seq)` order — one
//! arbitrary (but canonical, see DESIGN.md §3.1) linearization of each
//! instant's enabled events. Model checking needs the others. This
//! module exposes the nondeterminism as a [`Scheduler`] trait: when a
//! world runs under [`World::run_scheduled_until`], every same-instant
//! batch becomes a sequence of *choice points* where the scheduler picks
//! which enabled event fires next, or forces a message loss. The
//! [`CanonicalScheduler`] always picks the lowest sequence number; it is
//! what `run_until_time` runs, which lets `fd-mc` treat the default
//! schedule as branch zero.
//!
//! [`World::run_scheduled_until`]: crate::world::World::run_scheduled_until
//! [`World`]: crate::world::World

use crate::actor::TimerTag;
use crate::metrics::Metrics;
use crate::process::ProcessId;
use crate::time::Time;
use crate::trace::Trace;

/// What one enabled event would do, summarized for a [`Scheduler`].
///
/// Deliberately payload-free: the scheduler sees message kinds and
/// targets (enough for footprint-based partial-order reduction and for
/// witness labels) but cannot touch actor state or message contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnabledKind {
    /// A message delivery.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver (the event's footprint).
        to: ProcessId,
        /// The message's [`kind`](crate::actor::SimMessage::kind) label.
        msg_kind: &'static str,
    },
    /// A timer firing at `pid` (stale or cancelled timers included —
    /// selecting one is a no-op the kernel filters, exactly as the
    /// canonical loop would).
    Timer {
        /// The timer's owner (the event's footprint).
        pid: ProcessId,
        /// The timer's tag.
        tag: TimerTag,
    },
    /// A scheduled crash of `pid`.
    Crash {
        /// The process that crashes.
        pid: ProcessId,
    },
    /// A scheduled fault-injection intervention.
    Intervention,
}

/// One event the scheduler may fire at the current choice point.
#[derive(Debug, Clone, Copy)]
pub struct EnabledEvent {
    /// The instant (shared by every event of the choice point).
    pub at: Time,
    /// The kernel's tie-breaking sequence number. Canonical order fires
    /// the lowest seq first.
    pub seq: u64,
    /// A content-based digest of the event (time, kind, endpoints,
    /// payload debug form — *not* the seq). Stable across different
    /// interleavings that leave the same event pending, which is what
    /// sleep sets and visited-state comparisons key on.
    pub key: u64,
    /// What the event does.
    pub kind: EnabledKind,
}

impl EnabledEvent {
    /// The single process this event mutates, if any — the footprint
    /// that partial-order reduction uses: two events with disjoint
    /// footprints commute. Crashes and interventions mutate global
    /// state and return `None` (conservatively dependent on everything).
    pub fn target(&self) -> Option<ProcessId> {
        match self.kind {
            EnabledKind::Deliver { to, .. } => Some(to),
            EnabledKind::Timer { pid, .. } => Some(pid),
            EnabledKind::Crash { .. } | EnabledKind::Intervention => None,
        }
    }

    /// Whether this event is a message delivery (the only kind a
    /// [`SchedChoice::Drop`] may select).
    pub fn is_deliver(&self) -> bool {
        matches!(self.kind, EnabledKind::Deliver { .. })
    }
}

/// Everything a [`Scheduler`] sees at one choice point.
#[derive(Debug)]
pub struct ChoicePoint<'a> {
    /// The instant being scheduled.
    pub now: Time,
    /// The enabled events, in canonical `(time, seq)` order — index 0
    /// is what the default schedule would fire.
    pub enabled: &'a [EnabledEvent],
    /// Per-process crash flags (index = pid).
    pub crashed: &'a [bool],
    /// The world's incremental state digest, if state tracking is on
    /// (see `WorldBuilder::track_state`); `None` otherwise. Equal
    /// digests mean equal futures for deterministic actors over
    /// RNG-free links — the visited-set key for exploration pruning.
    pub state_digest: Option<u64>,
}

/// The scheduler's decision at a choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedChoice {
    /// Fire `enabled[i]`.
    Event(usize),
    /// Discard `enabled[i]` — which must be a delivery — as a link
    /// loss: the message is dropped with [`DropReason::Link`] exactly
    /// as if the network had eaten it, and the receiver never sees it.
    /// This is how the model checker places adversarial message losses
    /// on otherwise reliable links.
    ///
    /// [`DropReason::Link`]: crate::trace::DropReason::Link
    Drop(usize),
}

/// A pluggable schedule over enabled events.
///
/// The kernel consults the scheduler once per event selection — also
/// when only a single event is enabled, because a `Drop` of it is still
/// a meaningful alternative. Implementations must return an in-range
/// choice; `Drop` must select a delivery.
pub trait Scheduler {
    /// Pick what happens next at `cp`.
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> SchedChoice;

    /// Whether this scheduler always picks `SchedChoice::Event(0)` and
    /// needs no [`ChoicePoint`] to do so. The kernel asks once per run
    /// call; `true` lets it walk each instant in `(time, seq)` order
    /// without building choice points or event summaries, which is how
    /// [`CanonicalScheduler`] runs at full kernel speed. Only
    /// `CanonicalScheduler` overrides it: a scheduler that implements
    /// just [`choose`](Scheduler::choose) — a proxy wrapping another
    /// scheduler, say — is consulted at every choice point.
    fn is_canonical(&self) -> bool {
        false
    }
}

/// The identity scheduler: always fire the lowest-seq enabled event.
///
/// [`run_until_time`](crate::world::World::run_until_time) is the kernel
/// loop driven by this scheduler, so a scheduled canonical run is the
/// same run by construction — regression tests here and in `fd-mc`
/// still pin the trace digests.
#[derive(Debug, Default, Clone, Copy)]
pub struct CanonicalScheduler;

impl Scheduler for CanonicalScheduler {
    fn choose(&mut self, _cp: &ChoicePoint<'_>) -> SchedChoice {
        SchedChoice::Event(0)
    }

    fn is_canonical(&self) -> bool {
        true
    }
}

/// Object-safe handle to a schedulable world, erasing the actor type.
///
/// `fd-mc` explores worlds of many different actor types (detector
/// standalones, consensus nodes, replicated logs) through one driver;
/// target adapters box a concrete `World<A>` behind this trait. The
/// surface is the minimum the exploration loop needs: run under a
/// scheduler, inject crash schedules, and collect results.
pub trait SchedWorld {
    /// Number of processes.
    fn n(&self) -> usize;
    /// Current simulated time.
    fn now(&self) -> Time;
    /// Whether `pid` has crashed.
    fn is_crashed(&self, pid: ProcessId) -> bool;
    /// Schedule a crash-stop failure of `pid` at `at`.
    fn schedule_crash(&mut self, pid: ProcessId, at: Time);
    /// Run every event at or before `until` under `sched`, then advance
    /// the clock to `until`.
    fn run_scheduled_until(&mut self, until: Time, sched: &mut dyn Scheduler);
    /// The world's incremental state digest (meaningful only with state
    /// tracking on; see [`ChoicePoint::state_digest`]).
    fn state_digest(&self) -> u64;
    /// Take the run's trace and metrics (the world is then spent —
    /// exploration builds a fresh world per run).
    fn take_results(&mut self) -> (Trace, Metrics);
}

impl<A: crate::actor::Actor> SchedWorld for crate::world::World<A> {
    fn n(&self) -> usize {
        crate::world::World::n(self)
    }
    fn now(&self) -> Time {
        crate::world::World::now(self)
    }
    fn is_crashed(&self, pid: ProcessId) -> bool {
        crate::world::World::is_crashed(self, pid)
    }
    fn schedule_crash(&mut self, pid: ProcessId, at: Time) {
        crate::world::World::schedule_crash(self, pid, at)
    }
    fn run_scheduled_until(&mut self, until: Time, sched: &mut dyn Scheduler) {
        crate::world::World::run_scheduled_until(self, until, sched)
    }
    fn state_digest(&self) -> u64 {
        crate::world::World::state_digest(self)
    }
    fn take_results(&mut self) -> (Trace, Metrics) {
        crate::world::World::take_results(self)
    }
}
