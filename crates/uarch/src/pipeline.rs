//! The cycle-level out-of-order SMT pipeline.
//!
//! Trace-driven: each hardware thread replays a [`DynOp`] stream produced
//! by functional execution (or by a statistical workload generator). Every
//! cycle the model runs, in order: completion, execution progress, issue,
//! decode/dispatch (with fusion), and fetch (with branch prediction and
//! I-cache/I-ERAT effects).
//!
//! Mispredicted branches stall fetch for their thread until the branch
//! executes plus the redirect penalty; the wrong-path fetch work the real
//! front end would have performed in that window is estimated and counted
//! in [`Activity::wrong_path_fetched`] (that is the paper's
//! "wasted/flushed instructions" metric).

use crate::branch::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::config::{CoreConfig, Scheduler, SmtMode};
use crate::stats::{Activity, CycleAttribution, SimResult};
use crate::tlb::{Mmu, TranslateSide};
use p10_isa::fusion::{self, FusionKind};
use p10_isa::{DynOp, MmaKind, OpClass, TraceView, ARCH_REG_COUNT, MAX_SRCS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Span-aware observer of a simulation run.
///
/// Live (stepped) cycles arrive one at a time through
/// [`on_cycle`](Self::on_cycle) with the *cumulative* activity counters.
/// Idle stretches the event-driven scheduler fast-forwards over arrive as
/// closed-form *spans* through [`on_span`](Self::on_span) instead of being
/// replayed cycle by cycle — this is what lets the power-extraction stack
/// (RTLSim/APEX analogs) ride the fast path.
///
/// ## The span contract
///
/// `on_span(start, len, delta)` covers cycles `start ..= start + len - 1`
/// and `delta` is exactly the element-wise difference between the
/// cumulative [`Activity`] after and before the span. Spans are
/// **homogeneous**: every counter changes at a constant per-cycle rate, so
/// each field of `delta` is divisible by `len` and
/// [`Activity::span_prefix`] can split a span at any interior cycle
/// exactly (stretches where the MMA power-gate closes mid-way are emitted
/// as two spans, split at the gate-off cycle). Only four counters can be
/// non-zero in a span delta: `cycles`, `mma_powered_cycles`,
/// `dispatch_stall_cycles` and `window_occupancy_acc` — nothing fetches,
/// issues or completes during a fast-forwarded stretch.
///
/// Deliveries are contiguous and in order: the cycles seen via `on_cycle`
/// plus the cycles covered by `on_span` partition `1 ..= cycles` with no
/// gaps or overlaps. Under the polled scheduler (or when
/// [`wants_spans`](Self::wants_spans) is `false`) everything arrives via
/// `on_cycle`.
///
/// In debug builds the scheduler cross-checks every span against a
/// cycle-by-cycle replay of the same stretch (the accumulated per-cycle
/// deltas must equal the span delta exactly).
pub trait SpanObserver {
    /// Called after every live (stepped) cycle with the cumulative
    /// activity counters.
    fn on_cycle(&mut self, cycle: u64, act: &Activity);

    /// Called for a fast-forwarded stretch covering cycles
    /// `start ..= start + len - 1` with the closed-form activity delta
    /// over the stretch (see the trait docs for the homogeneity
    /// guarantees).
    fn on_span(&mut self, start: u64, len: u64, delta: &Activity);

    /// Whether this observer accepts spans. Returning `false` makes the
    /// scheduler replay fast-forwarded stretches one cycle at a time
    /// through [`on_cycle`](Self::on_cycle), so the observer sees every
    /// cycle's cumulative activity (the per-cycle reference the
    /// scheduler tests compare spans against).
    fn wants_spans(&self) -> bool {
        true
    }
}

/// Observer borrow threaded through the run loop (`None` when running
/// unobserved).
type Observer<'a> = Option<&'a mut dyn SpanObserver>;

const NO_SLOT: u32 = u32::MAX;

/// Debug builds rebuild the whole issue window from the ROBs every this
/// many cycles; cheaper invariants run every cycle. A rebuild walks every
/// in-flight op, and doing it every cycle slows debug-build simulation
/// enough to upset tests that time it (`p10-apex`'s
/// `apex_is_much_faster_than_detailed`).
#[cfg(debug_assertions)]
const FULL_WINDOW_CHECK_PERIOD: u64 = 8;

/// Most hardware threads any [`SmtMode`] runs (`run_inner` asserts the
/// bound), so per-cycle thread scratch fits a stack array.
const MAX_THREADS: usize = SmtMode::Smt4.threads();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UopState {
    Waiting,
    Executing { done_at: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct InFlight {
    op: DynOp,
    tid: u8,
    seq: u64,
    fetch_cycle: u64,
    state: UopState,
    /// (slot, seq) of producers; producer retired or Done = ready.
    deps: [(u32, u64); MAX_SRCS],
    mispredicted: bool,
    /// Slot of the fused partner (this op is the pair head).
    pair: u32,
    /// This op is the second of a fused pair.
    is_pair_second: bool,
    /// This store op owns a store-queue entry (false for the second store
    /// of a fused pair that shares its head's entry).
    owns_sq: bool,
    active: bool,
}

/// The hot scheduling fields of one slab slot (event-driven scheduler
/// only), kept in a dense array beside the slab so wakeup and select
/// touch one 16-byte record per op instead of its [`InFlight`].
#[derive(Debug, Clone, Copy)]
struct SchedSlot {
    seq: u64,
    class: OpClass,
    tid: u8,
    /// Producers still outstanding.
    waiting_on: u8,
    /// Dispatched and not yet issued (mirrors `UopState::Waiting`).
    waiting: bool,
    /// Waiting with all producers resolved (mirrors `deps_ready`).
    ready: bool,
}

impl SchedSlot {
    const EMPTY: SchedSlot = SchedSlot {
        seq: 0,
        class: OpClass::Nop,
        tid: 0,
        waiting_on: 0,
        waiting: false,
        ready: false,
    };
}

#[derive(Debug, Clone)]
struct FetchedOp {
    op: DynOp,
    mispredicted: bool,
    fetch_cycle: u64,
}

#[derive(Debug)]
struct ThreadState {
    ops: TraceView,
    fetch_idx: usize,
    fetch_buffer: VecDeque<FetchedOp>,
    fetch_stall_until: u64,
    /// An in-flight mispredicted branch blocks fetch.
    mispredict_pending: bool,
    completed: u64,
    rob: VecDeque<u32>,
    lq_used: u32,
    sq_used: u32,
    /// In-window stores (seq, addr, size, executed) for forwarding checks.
    store_window: VecDeque<(u64, u64, u8, bool)>,
    /// Per-arch-reg rename: packed reg -> (slot, seq).
    rename: Vec<(u32, u64)>,
}

impl ThreadState {
    fn new(ops: TraceView) -> Self {
        ThreadState {
            ops,
            fetch_idx: 0,
            fetch_buffer: VecDeque::new(),
            fetch_stall_until: 0,
            mispredict_pending: false,
            completed: 0,
            rob: VecDeque::new(),
            lq_used: 0,
            sq_used: 0,
            store_window: VecDeque::new(),
            rename: vec![(NO_SLOT, 0); usize::from(ARCH_REG_COUNT) + 1],
        }
    }

    fn fetch_done(&self) -> bool {
        self.fetch_idx >= self.ops.len()
    }

    fn fully_done(&self) -> bool {
        self.fetch_done() && self.fetch_buffer.is_empty() && self.rob.is_empty()
    }
}

/// A drained (post-commit) store awaiting its cache write.
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    tid: u8,
    addr: u64,
    size: u8,
    seq: u64,
    /// Store-queue entries this drain slot releases.
    sq_entries: u8,
}

/// The cycle-level core model.
///
/// Construct with a [`CoreConfig`], then call [`Core::run`] with one trace
/// per hardware thread.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    predictor: BranchPredictor,
    mem: MemHierarchy,
    mmu: Mmu,
    act: Activity,
    attr: CycleAttribution,
    threads: Vec<ThreadState>,
    slab: Vec<InFlight>,
    /// Hot scheduling records, parallel to `slab` (event-driven only).
    sched: Vec<SchedSlot>,
    free_slots: Vec<u32>,
    /// Program-order issue candidates as (slot, seq); an entry is live
    /// while the slot still holds that seq and the op is waiting. Polled
    /// scheduler only: it compacts the queue and rescans it every cycle.
    issue_order: VecDeque<(u32, u64)>,
    /// Event-driven issue window: how many of the oldest waiting ops lie
    /// within the `issue_lookahead` reach (`min(reach, waiting ops)`
    /// between select passes). Window members are exactly the waiting
    /// ops older than `past_reach`'s front.
    in_reach: u32,
    /// Waiting ops beyond the reach as (seq, slot), oldest first
    /// (event-driven only). Every entry is younger than every op in the
    /// window, so ops only ever enter the window from the front.
    past_reach: VecDeque<(u64, u32)>,
    /// Ready window members as (seq, slot), oldest first (event-driven
    /// only) — the ops the select loop visits.
    ready_in_reach: Vec<(u64, u32)>,
    window_used: u32,
    issue_queue_used: u32,
    cycle: u64,
    seq: u64,
    div_busy_until: u64,
    /// MMA power-gate state: the cycle the unit is (or will be) ready, or
    /// `None` while gated off.
    mma_ready_at: Option<u64>,
    /// Last cycle an MMA op used the grid (for idle gating).
    mma_last_use: u64,
    /// Outstanding L1D miss completion times (load-miss queue).
    lmq: Vec<u64>,
    drain_queue: VecDeque<PendingStore>,
    rr_offset: usize,
    /// Completion calendar: (cycle an executing op transitions to Done,
    /// slot), min-first. Event-driven scheduler only.
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-producer-slot wakeup lists: (consumer slot, consumer seq)
    /// registered at dispatch, fired on the producer's Done transition.
    /// Event-driven scheduler only.
    wakeup: Vec<Vec<(u32, u64)>>,
    /// Scratch: threads with a mispredicted branch resolving this cycle.
    scratch_resolved: Vec<(usize, u64)>,
    /// Scratch: issue candidates for the current cycle (polled only).
    scratch_slots: Vec<u32>,
}

impl Core {
    /// Creates a core in the given configuration.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            predictor: BranchPredictor::new(&cfg.branch),
            mem: MemHierarchy::new(&cfg),
            mmu: Mmu::new(&cfg),
            act: Activity::default(),
            attr: CycleAttribution::default(),
            threads: Vec::new(),
            slab: Vec::new(),
            sched: Vec::new(),
            free_slots: Vec::new(),
            issue_order: VecDeque::new(),
            in_reach: 0,
            past_reach: VecDeque::new(),
            ready_in_reach: Vec::new(),
            window_used: 0,
            issue_queue_used: 0,
            cycle: 0,
            seq: 0,
            div_busy_until: 0,
            mma_ready_at: None,
            mma_last_use: 0,
            lmq: Vec::new(),
            drain_queue: VecDeque::new(),
            rr_offset: 0,
            calendar: BinaryHeap::new(),
            wakeup: Vec::new(),
            scratch_resolved: Vec::new(),
            scratch_slots: Vec::new(),
            cfg,
        }
    }

    /// Creates a core whose caches, TLBs, and branch predictor start
    /// from `state` (see [`crate::warm::FunctionalWarmer`]) instead of
    /// cold. The pipeline itself (window, queues, calendar) starts empty
    /// either way.
    #[must_use]
    pub fn with_state(cfg: CoreConfig, state: crate::warm::WarmState) -> Self {
        let mut core = Core::new(cfg);
        core.predictor = state.predictor;
        core.mem = state.mem;
        core.mmu = state.mmu;
        core
    }

    fn event_driven(&self) -> bool {
        self.cfg.scheduler == Scheduler::EventDriven
    }

    /// The configuration this core models.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs one trace per hardware thread to completion (or `max_cycles`)
    /// and returns the results.
    ///
    /// Accepts owned [`p10_isa::Trace`]s (moved into views, no copy) or
    /// [`TraceView`]s (zero-copy windows into arena-shared op buffers).
    ///
    /// # Panics
    ///
    /// Panics if more traces are supplied than the configured SMT mode
    /// supports, or if no traces are supplied.
    pub fn run<T: Into<TraceView>>(self, traces: Vec<T>, max_cycles: u64) -> SimResult {
        self.run_inner(
            traces.into_iter().map(Into::into).collect(),
            max_cycles,
            None,
        )
    }

    /// Like [`Core::run`], but delivers the simulation to a span-aware
    /// observer: live cycles via [`SpanObserver::on_cycle`] and
    /// fast-forwarded idle stretches via [`SpanObserver::on_span`] with
    /// their closed-form activity delta — so observation no longer forces
    /// per-cycle replay of the event-driven scheduler's skipped cycles.
    ///
    /// # Panics
    ///
    /// Panics if more traces are supplied than the configured SMT mode
    /// supports, or if no traces are supplied.
    pub fn run_spanned<T: Into<TraceView>>(
        self,
        traces: Vec<T>,
        max_cycles: u64,
        observer: &mut dyn SpanObserver,
    ) -> SimResult {
        self.run_inner(
            traces.into_iter().map(Into::into).collect(),
            max_cycles,
            Some(observer),
        )
    }

    fn run_inner(
        mut self,
        traces: Vec<TraceView>,
        max_cycles: u64,
        mut observer: Observer<'_>,
    ) -> SimResult {
        assert!(!traces.is_empty(), "at least one thread trace required");
        assert!(
            traces.len() <= self.cfg.smt.threads(),
            "{} traces exceed SMT mode capacity {}",
            traces.len(),
            self.cfg.smt.threads()
        );
        self.threads = traces.into_iter().map(ThreadState::new).collect();

        let event_driven = self.event_driven();
        while self.cycle < max_cycles && !self.threads.iter().all(ThreadState::fully_done) {
            self.step();
            self.act.cycles = self.cycle;
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_cycle(self.cycle, &self.act);
            }
            if event_driven && self.cycle < max_cycles {
                self.fast_forward(max_cycles, &mut observer);
            }
        }
        self.act.cycles = self.cycle;
        debug_assert_eq!(
            self.attr.total(),
            self.act.cycles,
            "cycle attribution must partition the cycle count"
        );

        SimResult {
            config_name: self.cfg.name.clone(),
            threads: self.threads.len(),
            per_thread_completed: self.threads.iter().map(|t| t.completed).collect(),
            activity: self.act,
            attribution: self.attr,
        }
    }

    fn step(&mut self) {
        self.cycle += 1;
        self.mma_gate_tick();
        self.lmq.retain(|&t| t > self.cycle);
        self.drain_stores();
        self.complete();
        match self.cfg.scheduler {
            Scheduler::Polled => self.advance_execution_polled(),
            Scheduler::EventDriven => self.advance_execution_event(),
        }
        let wake_pre = self.act.mma_wake_stall_cycles;
        let issue = self.issue();
        let mma_wake_fired = self.act.mma_wake_stall_cycles > wake_pre;
        let dispatched_pre = self.act.dispatched;
        let dispatch_stall_pre = self.act.dispatch_stall_cycles;
        self.decode_dispatch();
        let dispatch_blocked = self.act.dispatch_stall_cycles > dispatch_stall_pre
            && self.act.dispatched == dispatched_pre;
        let fetched_pre = self.act.fetched;
        self.fetch();
        let fetch_progress = self.act.fetched > fetched_pre;
        self.act.window_occupancy_acc += u64::from(self.window_used);
        self.rr_offset = self.rr_offset.wrapping_add(1);

        // Cycle attribution: exactly one bucket per cycle, first match
        // wins (see `CycleAttribution` for the bucket definitions).
        if issue.issued_any {
            self.attr.active += 1;
        } else if mma_wake_fired {
            self.attr.mma_gated += 1;
        } else if !self.lmq.is_empty() {
            // Before issue_limited: a zero-issue cycle with a demand miss
            // outstanding is memory-bound even if some op was nominally
            // ready (e.g. a load blocked only by a full LMQ).
            self.attr.memory_bound += 1;
        } else if issue.saw_ready {
            self.attr.issue_limited += 1;
        } else if dispatch_blocked {
            self.attr.dispatch_stalled += 1;
        } else if !fetch_progress && self.threads.iter().any(|t| !t.fetch_done()) {
            self.attr.fetch_stalled += 1;
        } else {
            self.attr.idle += 1;
        }
    }

    /// MMA power-gate bookkeeping: count powered cycles and gate the unit
    /// off after the firmware-selected idle window (§IV-A). Runs at the
    /// top of every cycle, including fast-forwarded idle ones.
    fn mma_gate_tick(&mut self) {
        if let (Some(ready), Some(mma)) = (self.mma_ready_at, self.cfg.mma) {
            self.act.mma_powered_cycles += 1;
            let idle_from = self.mma_last_use.max(ready);
            if self.cycle > idle_from + u64::from(mma.idle_gate_cycles) {
                self.mma_ready_at = None;
            }
        }
    }

    /// Idle-cycle fast-forward (event-driven scheduler). After a stepped
    /// cycle, if nothing can drain, complete, execute, issue, dispatch or
    /// fetch before some future cycle T, jump straight to T-1 and account
    /// the skipped cycles in closed form — the exact state changes
    /// cycle-by-cycle stepping would have made. With an observer attached
    /// the skipped cycles are replayed individually instead so it sees
    /// every cycle's cumulative activity.
    fn fast_forward(&mut self, max_cycles: u64, observer: &mut Observer<'_>) {
        // Anything actionable next cycle means no skip. A finished run
        // must not skip either: the outer loop stops at the last worked
        // cycle, exactly like the polled scheduler.
        if !self.drain_queue.is_empty() {
            return;
        }
        // Ready ops block the skip only if the select network can see
        // them: an op past the lookahead reach cannot issue, and `issue`
        // touches nothing (no MMA wake, no `active_cycles`) before the
        // readiness test, so idling over it is exact. The candidate
        // window is static across the skipped stretch — nothing
        // dispatches, issues, retires or wakes before the horizon.
        if !self.ready_in_reach.is_empty() {
            return;
        }
        if self.threads.iter().all(ThreadState::fully_done) {
            return;
        }
        for t in &self.threads {
            if let Some(&slot) = t.rob.front() {
                if self.slab[slot as usize].state == UopState::Done {
                    return; // retirement makes progress
                }
            }
        }
        // Idle until the earliest future event: a completion on the
        // calendar or a fetch stall expiring.
        let mut horizon = max_cycles.saturating_add(1);
        if let Some(&Reverse((at, _))) = self.calendar.peek() {
            horizon = horizon.min(at);
        }
        let mut dispatch_blocked_threads = 0u64;
        for tid in 0..self.threads.len() {
            if !self.threads[tid].fetch_buffer.is_empty() {
                if self.plan_dispatch(tid).is_some() {
                    return; // dispatch makes progress next cycle
                }
                dispatch_blocked_threads += 1;
            }
            let t = &self.threads[tid];
            if !t.fetch_done()
                && !t.mispredict_pending
                && t.fetch_buffer.len() < self.cfg.fetch_buffer as usize
            {
                if t.fetch_stall_until > self.cycle + 1 {
                    horizon = horizon.min(t.fetch_stall_until);
                } else {
                    return; // fetch makes progress next cycle
                }
            }
        }
        let target = (horizon - 1).min(max_cycles);
        if target <= self.cycle {
            return;
        }

        let skipped = target - self.cycle;
        // The whole stretch lands in one attribution bucket: nothing
        // issues or is ready (skip precondition), the LMQ is static (its
        // entries are calendar completion times, all >= the horizon), and
        // dispatch/fetch blockedness cannot change before the horizon —
        // so the per-cycle classifier in `step` would pick the same
        // bucket every cycle. Evaluating it once keeps the closed form
        // identical to polled stepping.
        let stall = if !self.lmq.is_empty() {
            StallKind::MemoryBound
        } else if dispatch_blocked_threads > 0 {
            StallKind::DispatchStalled
        } else if self.threads.iter().any(|t| !t.fetch_done()) {
            StallKind::FetchStalled
        } else {
            StallKind::Idle
        };
        if let Some(obs) = observer.as_deref_mut() {
            if !obs.wants_spans() {
                // Per-cycle compatibility mode: replay the stretch one
                // cycle at a time so the observer misses nothing.
                for _ in 0..skipped {
                    self.idle_tick(dispatch_blocked_threads, stall);
                    self.act.cycles = self.cycle;
                    obs.on_cycle(self.cycle, &self.act);
                }
                return;
            }
        }
        // Closed-form equivalent of `skipped` idle_tick calls.
        let start = self.cycle + 1;
        #[cfg(debug_assertions)]
        let saved_mma_ready = self.mma_ready_at;
        // Cycles of the stretch during which the MMA unit stays powered
        // (the prefix up to and including the gate-off cycle). This is the
        // only rate change inside a stretch, so it is also where a span
        // must be split to stay homogeneous.
        let mut powered = 0u64;
        if let (Some(ready), Some(mma)) = (self.mma_ready_at, self.cfg.mma) {
            let idle_from = self.mma_last_use.max(ready);
            // mma_gate_tick counts the powered cycle before checking
            // the gate, so the gate-off cycle itself is still powered.
            let gate_off = idle_from + u64::from(mma.idle_gate_cycles) + 1;
            debug_assert!(gate_off > self.cycle);
            powered = skipped.min(gate_off - self.cycle);
            self.act.mma_powered_cycles += powered;
            if target >= gate_off {
                self.mma_ready_at = None;
            }
        }
        self.act.dispatch_stall_cycles += dispatch_blocked_threads * skipped;
        self.act.window_occupancy_acc += u64::from(self.window_used) * skipped;
        *self.attr_bucket(stall) += skipped;
        self.rr_offset = self.rr_offset.wrapping_add(skipped as usize);
        self.cycle = target;
        if observer.is_some() || cfg!(debug_assertions) {
            let window_used = u64::from(self.window_used);
            let span_delta = |len: u64, mma_powered: bool| Activity {
                cycles: len,
                mma_powered_cycles: if mma_powered { len } else { 0 },
                dispatch_stall_cycles: dispatch_blocked_threads * len,
                window_occupancy_acc: window_used * len,
                ..Activity::default()
            };
            // ≤ 2 homogeneous sub-spans, split at the MMA gate-off cycle.
            let spans = [
                (start, powered, span_delta(powered, true)),
                (
                    start + powered,
                    skipped - powered,
                    span_delta(skipped - powered, false),
                ),
            ];
            #[cfg(debug_assertions)]
            self.cross_check_spans(saved_mma_ready, dispatch_blocked_threads, target, &spans);
            if let Some(obs) = observer.as_deref_mut() {
                for (s, len, delta) in &spans {
                    if *len > 0 {
                        obs.on_span(*s, *len, delta);
                    }
                }
            }
        }
        // `lmq` entries expiring inside the skipped stretch need no
        // per-cycle action: the queue is only read by load issue, and the
        // next real step's retain drops everything `<= cycle` first —
        // identical to having stepped the retain each cycle.
    }

    /// One fast-forwarded idle cycle, stepped explicitly (observer mode):
    /// exactly the state a full `step()` changes on a cycle where nothing
    /// drains, completes, executes, issues, dispatches or fetches.
    fn idle_tick(&mut self, dispatch_blocked_threads: u64, stall: StallKind) {
        self.cycle += 1;
        self.mma_gate_tick();
        self.act.dispatch_stall_cycles += dispatch_blocked_threads;
        self.act.window_occupancy_acc += u64::from(self.window_used);
        *self.attr_bucket(stall) += 1;
        self.rr_offset = self.rr_offset.wrapping_add(1);
    }

    /// Debug-build cross-check of the span closed form: replays the
    /// fast-forwarded stretch one cycle at a time (the exact per-cycle
    /// accounting `idle_tick`/`mma_gate_tick` would have performed) and
    /// asserts that each emitted span delta equals the sum of its
    /// replayed per-cycle deltas — the invariant every [`SpanObserver`]
    /// relies on.
    #[cfg(debug_assertions)]
    fn cross_check_spans(
        &self,
        saved_mma_ready: Option<u64>,
        dispatch_blocked_threads: u64,
        target: u64,
        spans: &[(u64, u64, Activity)],
    ) {
        let window_used = u64::from(self.window_used);
        let mut mma_ready = saved_mma_ready;
        let mut covered = 0u64;
        for (s, len, delta) in spans {
            let mut acc = Activity::default();
            for c in *s..s + len {
                // One replayed idle cycle: cycle count, MMA gate tick,
                // dispatch-stall and window-occupancy accounting.
                acc.cycles += 1;
                if let (Some(ready), Some(mma)) = (mma_ready, self.cfg.mma) {
                    acc.mma_powered_cycles += 1;
                    let idle_from = self.mma_last_use.max(ready);
                    if c > idle_from + u64::from(mma.idle_gate_cycles) {
                        mma_ready = None;
                    }
                }
                acc.dispatch_stall_cycles += dispatch_blocked_threads;
                acc.window_occupancy_acc += window_used;
            }
            assert_eq!(
                &acc,
                delta,
                "span [{s}, {}] delta must equal its cycle-by-cycle replay",
                s + len - 1
            );
            covered += len;
            // Homogeneity: every counter is divisible by the span length,
            // so consumers can split the span at any interior cycle.
            if *len > 0 {
                for (name, v) in delta.as_pairs() {
                    assert_eq!(v % len, 0, "{name} must be homogeneous over the span");
                }
            }
        }
        let first = spans.iter().map(|(s, _, _)| *s).min().unwrap_or(target);
        assert_eq!(covered, target - first + 1, "spans must tile the stretch");
        assert_eq!(
            mma_ready, self.mma_ready_at,
            "replayed MMA gate state must match the closed form"
        );
    }

    fn attr_bucket(&mut self, stall: StallKind) -> &mut u64 {
        match stall {
            StallKind::MemoryBound => &mut self.attr.memory_bound,
            StallKind::DispatchStalled => &mut self.attr.dispatch_stalled,
            StallKind::FetchStalled => &mut self.attr.fetch_stalled,
            StallKind::Idle => &mut self.attr.idle,
        }
    }

    // ---- completion ----

    fn complete(&mut self) {
        let mut budget = self.cfg.completion_width;
        let n = self.threads.len();
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for k in 0..n {
                let tid = (k + self.rr_offset) % n;
                if budget == 0 {
                    break;
                }
                let Some(&slot) = self.threads[tid].rob.front() else {
                    continue;
                };
                if self.slab[slot as usize].state != UopState::Done {
                    continue;
                }
                self.retire(tid, slot);
                budget -= 1;
                progressed = true;
            }
        }
    }

    fn retire(&mut self, tid: usize, slot: u32) {
        let e = &mut self.slab[slot as usize];
        debug_assert!(e.active);
        e.active = false;
        let op = e.op;
        let seq = e.seq;
        let owns_sq = u8::from(e.owns_sq);
        debug_assert!(
            !self.event_driven() || self.wakeup[slot as usize].is_empty(),
            "retiring producer with unfired wakeups"
        );
        self.threads[tid].rob.pop_front();
        self.free_slots.push(slot);
        self.window_used -= 1;
        self.threads[tid].completed += 1;
        self.act.completed += 1;
        self.act.completion_slots += 1;
        if op.dest().is_some() {
            self.act.regfile_writes += 1;
        }

        match op.class {
            OpClass::Load => {
                self.threads[tid].lq_used -= 1;
            }
            OpClass::Store => {
                let m = op.mem().expect("store has mem");
                // Store gathering: merge with the tail of the drain queue
                // when adjacent (POWER10), retiring up to two SQ entries
                // per cycle worth of work in one drain slot.
                let merged = self.cfg.store_merge
                    && self.drain_queue.back().is_some_and(|p| {
                        p.tid == tid as u8
                            && p.addr + u64::from(p.size) == m.addr
                            && u32::from(p.size) + u32::from(m.size) <= 64
                    });
                if merged {
                    let back = self.drain_queue.back_mut().expect("checked above");
                    back.size += m.size;
                    back.sq_entries += owns_sq;
                    self.act.store_merges += 1;
                } else {
                    self.drain_queue.push_back(PendingStore {
                        tid: tid as u8,
                        addr: m.addr,
                        size: m.size,
                        seq,
                        sq_entries: owns_sq,
                    });
                }
            }
            _ => {}
        }
    }

    fn drain_stores(&mut self) {
        for _ in 0..self.cfg.store_drain_per_cycle {
            let Some(p) = self.drain_queue.pop_front() else {
                break;
            };
            let tid = p.tid as usize;
            // EA-tagged L1: translate only on L1 miss; RA-tagged: the
            // translation already happened at issue.
            let (_lat, lvl) = self.mem.access_data(p.addr, &mut self.act);
            if self.cfg.ea_tagged_l1 && lvl != crate::cache::HitLevel::L1 {
                self.mmu
                    .translate(p.addr, TranslateSide::Data, &mut self.act);
            }
            self.threads[tid].sq_used = self.threads[tid]
                .sq_used
                .saturating_sub(u32::from(p.sq_entries));
            // Remove from the forwarding window. Stores retire — and
            // therefore drain — in per-thread seq order, so the window's
            // front holds everything up to `p.seq`: pop from the front
            // instead of scanning. A merged drain slot carries the seq of
            // its *oldest* store; its younger merged partners (which the
            // scan version leaked forever) are swept out by the thread's
            // next drain.
            let sw = &mut self.threads[tid].store_window;
            while let Some(&(s, ..)) = sw.front() {
                if s > p.seq {
                    break;
                }
                sw.pop_front();
            }
        }
    }

    // ---- execution progress ----

    /// Reference (polled) execution advance: scan the whole slab for ops
    /// whose latency elapsed.
    fn advance_execution_polled(&mut self) {
        let cycle = self.cycle;
        self.scratch_resolved.clear();
        for e in &mut self.slab {
            if !e.active {
                continue;
            }
            if let UopState::Executing { done_at } = e.state {
                if done_at <= cycle {
                    e.state = UopState::Done;
                    if e.mispredicted {
                        self.scratch_resolved
                            .push((usize::from(e.tid), e.fetch_cycle));
                    }
                }
            }
        }
        self.resolve_mispredicts();
    }

    /// Event-driven execution advance: pop only the ops whose completion
    /// fires this cycle off the calendar and wake their consumers.
    fn advance_execution_event(&mut self) {
        let cycle = self.cycle;
        self.scratch_resolved.clear();
        while let Some(&Reverse((at, slot))) = self.calendar.peek() {
            if at > cycle {
                break;
            }
            self.calendar.pop();
            // Calendar entries are never stale: an executing op is pushed
            // exactly once, and its slot can only be recycled after retire,
            // which requires the Done transition made here first.
            let e = &mut self.slab[slot as usize];
            debug_assert!(e.active);
            let UopState::Executing { done_at } = e.state else {
                unreachable!("calendar entry for non-executing op")
            };
            debug_assert!(done_at <= cycle);
            e.state = UopState::Done;
            if e.mispredicted {
                self.scratch_resolved
                    .push((usize::from(e.tid), e.fetch_cycle));
            }
            self.fire_wakeups(slot);
        }
        self.resolve_mispredicts();
    }

    /// A producer became Done: notify the consumers registered against it.
    fn fire_wakeups(&mut self, producer: u32) {
        let mut list = std::mem::take(&mut self.wakeup[producer as usize]);
        for (cslot, cseq) in list.drain(..) {
            let c = &mut self.sched[cslot as usize];
            // A consumer may have left Waiting already (fused-pair partner
            // issued with its head); its remaining registrations are moot.
            if c.seq == cseq && c.waiting {
                c.waiting_on -= 1;
                if c.waiting_on == 0 {
                    debug_assert!(!c.ready);
                    c.ready = true;
                    // An op past the reach joins the ready list when the
                    // window refills up to it.
                    if self.past_reach.front().is_none_or(|&(q, _)| cseq < q) {
                        let at = self.ready_in_reach.partition_point(|&(q, _)| q < cseq);
                        self.ready_in_reach.insert(at, (cseq, cslot));
                    }
                }
            }
        }
        // Hand the drained allocation back to the slot for reuse.
        self.wakeup[producer as usize] = list;
    }

    /// Applies the fetch-redirect effects of mispredicted branches that
    /// finished executing this cycle (collected in `scratch_resolved`).
    fn resolve_mispredicts(&mut self) {
        for i in 0..self.scratch_resolved.len() {
            let (tid, fetch_cycle) = self.scratch_resolved[i];
            let t = &mut self.threads[tid];
            // Fetch stops at the first mispredicted branch, so at most one
            // is in flight per thread; resolving it unblocks fetch.
            t.mispredict_pending = false;
            let penalty = u64::from(self.predictor.mispredict_penalty());
            t.fetch_stall_until = t.fetch_stall_until.max(self.cycle + penalty);
            self.act.branch_mispredicts += 1;
            // Estimate of wrong-path work the real front end performed
            // between fetching the branch and the redirect completing.
            // The fetch-side run-ahead is bounded: once the front end backs
            // up (e.g. behind a long cache miss) wrong-path fetch stops, so
            // the window is capped at a fixed horizon.
            let run_ahead = (self.cycle - fetch_cycle).min(16);
            let window = run_ahead + penalty;
            self.act.wrong_path_fetched += window * u64::from(self.cfg.fetch_width) / 2;
            self.act.flushed += window * u64::from(self.cfg.fetch_width) / 2;
        }
        self.scratch_resolved.clear();
    }

    // ---- issue ----

    fn dep_ready(&self, dep: (u32, u64)) -> bool {
        let (slot, seq) = dep;
        if slot == NO_SLOT {
            return true;
        }
        let e = &self.slab[slot as usize];
        !e.active || e.seq != seq || e.state == UopState::Done
    }

    fn deps_ready(&self, slot: u32, ignore: Option<u32>) -> bool {
        let e = &self.slab[slot as usize];
        e.deps
            .iter()
            .all(|&d| d.0 == NO_SLOT || Some(d.0) == ignore || self.dep_ready(d))
    }

    fn issue(&mut self) -> IssueSummary {
        let mut units = IssueUnits {
            int: self.cfg.int_slices,
            branch: self.cfg.branch_slices,
            vsx: self.cfg.vsx_units,
            load: self.cfg.load_ports,
            store: self.cfg.store_ports,
            mma_lanes: self.cfg.mma.map_or(0, |m| m.grid_lanes),
            mma_move: 1,
            issued_any: false,
            mma_active: false,
        };
        let saw_ready = match self.cfg.scheduler {
            Scheduler::Polled => self.select_polled(&mut units),
            Scheduler::EventDriven => self.select_event(&mut units),
        };
        if units.issued_any {
            self.act.active_cycles += 1;
        }
        if units.mma_active {
            self.act.mma_active_cycles += 1;
        }
        IssueSummary {
            issued_any: units.issued_any,
            saw_ready,
        }
    }

    /// The issue lookahead: how many of the oldest still-waiting ops —
    /// ready or not — the select network sees, mirroring a real select
    /// network's span.
    fn reach(&self) -> u32 {
        self.cfg.issue_lookahead.max(1)
    }

    /// Reference select (polled scheduler): compact `issue_order` and
    /// rescan its oldest `reach` entries every cycle. Returns whether any
    /// candidate was ready.
    fn select_polled(&mut self, units: &mut IssueUnits) -> bool {
        let slab = &self.slab;
        self.issue_order.retain(|&(s, q)| {
            let e = &slab[s as usize];
            e.active && e.seq == q && e.state == UopState::Waiting
        });

        let reach = self.reach() as usize;
        self.scratch_slots.clear();
        for &(s, q) in &self.issue_order {
            if self.scratch_slots.len() >= reach {
                break;
            }
            let e = &self.slab[s as usize];
            if e.active && e.seq == q && e.state == UopState::Waiting {
                self.scratch_slots.push(s);
            }
        }
        let mut saw_ready = false;
        for i in 0..self.scratch_slots.len() {
            let slot = self.scratch_slots[i];
            let (class, tid) = {
                let e = &self.slab[slot as usize];
                if !e.active || e.state != UopState::Waiting {
                    continue;
                }
                (e.op.class, usize::from(e.tid))
            };
            if !self.deps_ready(slot, None) {
                continue;
            }
            saw_ready = true;
            self.select(slot, class, tid, units);
        }
        saw_ready
    }

    /// Incremental select (event-driven scheduler): visit only the ready
    /// ops inside the reach, oldest first — the same ops, in the same
    /// order, the polled scan finds ready — then refill the window.
    /// Returns whether any candidate was ready.
    fn select_event(&mut self, units: &mut IssueUnits) -> bool {
        #[cfg(debug_assertions)]
        self.cross_check_issue_window();
        if self.ready_in_reach.is_empty() {
            // Nothing can issue, and none of the side effects in `select`
            // (MMA demand wake, wake-stall accounting) can trigger.
            return false;
        }
        // The window is the one the cycle started with: ops that enter it
        // as others issue are visited next cycle (`refill_reach` runs
        // after the loop), as in the polled scan.
        for i in 0..self.ready_in_reach.len() {
            let (_, slot) = self.ready_in_reach[i];
            let s = self.sched[slot as usize];
            if !s.ready {
                continue; // started this cycle with its fused head
            }
            self.select(slot, s.class, usize::from(s.tid), units);
        }
        let sched = &self.sched;
        self.ready_in_reach
            .retain(|&(_, s)| sched[s as usize].ready);
        self.refill_reach();
        true
    }

    /// Tops the event-driven issue window back up to `reach` waiting ops
    /// from the oldest ops past it.
    fn refill_reach(&mut self) {
        let reach = self.reach();
        while self.in_reach < reach {
            let Some((seq, slot)) = self.past_reach.pop_front() else {
                break;
            };
            self.in_reach += 1;
            if self.sched[slot as usize].ready {
                self.ready_in_reach.push((seq, slot));
            }
        }
    }

    /// Debug-build cross-check of the incremental issue window. Every
    /// select pass checks what it is about to use: `ready_in_reach` is
    /// strictly ascending and holds only window members whose ready bit
    /// equals a full dependency scan, and the window is full whenever
    /// ops wait past it. Every [`FULL_WINDOW_CHECK_PERIOD`]th cycle it
    /// also rebuilds the candidate set the polled scan enumerates — the
    /// oldest `reach` waiting ops — from the threads' ROBs and asserts
    /// the window size, `past_reach` and the ready list match it.
    #[cfg(debug_assertions)]
    fn cross_check_issue_window(&self) {
        let front = self.past_reach.front().map_or(u64::MAX, |&(q, _)| q);
        let member = |&(q, s): &(u64, u32)| {
            let e = &self.slab[s as usize];
            let r = &self.sched[s as usize];
            e.active
                && e.seq == q
                && e.state == UopState::Waiting
                && r.seq == q
                && r.waiting
                && q < front
        };
        assert!(
            self.ready_in_reach
                .iter()
                .all(|x| member(x) && self.deps_ready(x.1, None))
                && self.ready_in_reach.windows(2).all(|w| w[0].0 < w[1].0),
            "ready list must hold ready window members, oldest first"
        );
        assert!(
            self.past_reach.is_empty() || self.in_reach == self.reach(),
            "the window must be full while ops wait past it"
        );
        if !self.cycle.is_multiple_of(FULL_WINDOW_CHECK_PERIOD) {
            return;
        }
        let (mut waiting, mut members, mut ready_members) = (0usize, 0usize, 0usize);
        // Waiting ops are in flight, so each sits in its thread's ROB.
        for slot in self.threads.iter().flat_map(|t| t.rob.iter().copied()) {
            let r = &self.sched[slot as usize];
            if !r.waiting {
                continue;
            }
            waiting += 1;
            if r.seq < front {
                assert!(
                    member(&(r.seq, slot)),
                    "window member seq {} must be a waiting op",
                    r.seq
                );
                let ready = self.deps_ready(slot, None);
                assert_eq!(r.ready, ready, "ready bit of seq {}", r.seq);
                members += 1;
                ready_members += usize::from(ready);
            }
        }
        assert_eq!(
            members,
            waiting.min(self.reach() as usize),
            "issue window must hold the oldest `reach` waiting ops"
        );
        assert_eq!(self.in_reach as usize, members, "window size");
        // `past_reach` ascends and holds waiting ops, so with the count it
        // is exactly the rest of them, in age order; the ready list checked
        // above holds ready members, so with its count it is all of them.
        assert!(
            self.past_reach.len() == waiting - members
                && self.past_reach.iter().all(|&(q, s)| {
                    let r = &self.sched[s as usize];
                    r.waiting && r.seq == q
                })
                && self
                    .past_reach
                    .iter()
                    .zip(self.past_reach.iter().skip(1))
                    .all(|(a, b)| a.0 < b.0),
            "ops past the reach must queue in age order"
        );
        assert_eq!(
            self.ready_in_reach.len(),
            ready_members,
            "ready list must hold every ready window member"
        );
    }

    /// Tries to start one ready candidate on this cycle's remaining
    /// execution resources (plus its fused partner). An op a structural
    /// limit blocks stays waiting.
    fn select(&mut self, slot: u32, class: OpClass, tid: usize, units: &mut IssueUnits) {
        let done_at = match class {
            OpClass::Hint => {
                // The architected MMA wake-up hint powers the unit on
                // ahead of use, hiding the wake latency (§IV-A).
                if self.cfg.mma.is_some() {
                    self.power_mma_on();
                }
                Some(self.cycle)
            }
            OpClass::Nop => Some(self.cycle), // complete immediately
            OpClass::IntAlu | OpClass::MoveSpr => {
                if units.int > 0 {
                    units.int -= 1;
                    Some(self.cycle + 1)
                } else {
                    None
                }
            }
            OpClass::IntMul => {
                if units.int > 0 {
                    units.int -= 1;
                    Some(self.cycle + u64::from(self.cfg.mul_latency))
                } else {
                    None
                }
            }
            OpClass::IntDiv => {
                if units.int > 0 && self.div_busy_until <= self.cycle {
                    units.int -= 1;
                    self.div_busy_until = self.cycle + u64::from(self.cfg.div_latency);
                    Some(self.cycle + u64::from(self.cfg.div_latency))
                } else {
                    None
                }
            }
            OpClass::Branch => {
                if units.branch > 0 {
                    units.branch -= 1;
                    Some(self.cycle + 1)
                } else {
                    None
                }
            }
            OpClass::VsxSimple => {
                if units.vsx > 0 {
                    units.vsx -= 1;
                    Some(self.cycle + 2)
                } else {
                    None
                }
            }
            OpClass::VsxFp => {
                if units.vsx > 0 {
                    units.vsx -= 1;
                    Some(self.cycle + u64::from(self.cfg.vsx_fp_latency))
                } else {
                    None
                }
            }
            OpClass::Mma(kind) => {
                let lanes = match kind {
                    MmaKind::F64 => 8,
                    MmaKind::F32 | MmaKind::Bf16 | MmaKind::I8 => 16,
                };
                let mma = self.cfg.mma.expect("mma op requires mma unit");
                if !self.mma_powered_on() {
                    // Demand wake: the op waits out the power-on.
                    self.power_mma_on();
                    self.act.mma_wake_stall_cycles += 1;
                    None
                } else if units.mma_lanes >= lanes {
                    units.mma_lanes -= lanes;
                    units.mma_active = true;
                    self.mma_last_use = self.cycle;
                    // Back-to-back accumulator chaining is short; the
                    // full result latency applies to non-acc consumers
                    // (xxmfacc), modeled via the MmaMove latency below.
                    Some(self.cycle + u64::from(mma.acc_chain_latency))
                } else {
                    None
                }
            }
            OpClass::MmaMove => {
                if self.cfg.mma.is_some() && !self.mma_powered_on() {
                    self.power_mma_on();
                    self.act.mma_wake_stall_cycles += 1;
                    None
                } else if units.mma_move > 0 {
                    units.mma_move -= 1;
                    let lat = self.cfg.mma.map_or(2, |m| u64::from(m.result_latency));
                    self.mma_last_use = self.cycle;
                    Some(self.cycle + lat)
                } else {
                    None
                }
            }
            OpClass::Load => {
                if units.load > 0 && (self.lmq.len() as u32) < self.cfg.load_miss_queue {
                    units.load -= 1;
                    Some(self.issue_load(slot, tid))
                } else {
                    None
                }
            }
            OpClass::Store => {
                if units.store > 0 {
                    units.store -= 1;
                    Some(self.issue_store(slot, tid))
                } else {
                    None
                }
            }
        };

        let Some(done_at) = done_at else { return };
        units.issued_any = true;
        self.start_execution(slot, done_at);

        // Fused pair: if the partner's other deps are ready, execute it
        // together with the head (zero-latency dependent execution).
        let pair = self.slab[slot as usize].pair;
        if pair != NO_SLOT {
            let p = &self.slab[pair as usize];
            if p.active && p.state == UopState::Waiting && self.deps_ready(pair, Some(slot)) {
                // A fused dependent op finishes with its head; its unit op
                // is counted here, its regfile reads are not.
                match p.op.class {
                    OpClass::Store => {
                        // Second of a fused store pair: shares the head's
                        // address-generation; mark executed.
                        let seq = p.seq;
                        if let Some(s) = self.threads[tid]
                            .store_window
                            .iter_mut()
                            .find(|s| s.0 == seq)
                        {
                            s.3 = true;
                        }
                        self.act.stores += 1;
                    }
                    OpClass::Branch => self.act.branch_ops += 1,
                    _ => self.act.alu_ops += 1,
                }
                self.begin_execution(pair, done_at);
                self.act.issued += 1;
            }
        }
    }

    /// Whether the MMA unit is powered and ready this cycle.
    fn mma_powered_on(&self) -> bool {
        self.mma_ready_at.is_some_and(|r| r <= self.cycle)
    }

    /// Opens the MMA power gate (idempotent while powering on).
    fn power_mma_on(&mut self) {
        if self.mma_ready_at.is_none() {
            let wake = self.cfg.mma.map_or(0, |m| u64::from(m.wake_latency));
            self.mma_ready_at = Some(self.cycle + wake);
        }
    }

    /// State bookkeeping shared by both execution-start paths: the
    /// Waiting→Executing transition plus, for the event-driven scheduler,
    /// the op's exit from the issue window and its calendar insertion.
    fn begin_execution(&mut self, slot: u32, done_at: u64) {
        let e = &mut self.slab[slot as usize];
        debug_assert_eq!(e.state, UopState::Waiting);
        e.state = UopState::Executing { done_at };
        // Issue-queue entry is freed once the op issues (reservation
        // stations and issue queues alike hold ops only until issue).
        if !e.is_pair_second {
            self.issue_queue_used = self.issue_queue_used.saturating_sub(1);
        }
        if self.event_driven() {
            let s = &mut self.sched[slot as usize];
            s.waiting = false;
            // Its `ready_in_reach` entry goes at the end of the select loop.
            s.ready = false;
            // Only a fused partner of the window's youngest op starts from
            // past the reach, and it is then the oldest op there.
            if self.past_reach.front() == Some(&(s.seq, slot)) {
                self.past_reach.pop_front();
            } else {
                debug_assert!(self.past_reach.front().is_none_or(|&(q, _)| s.seq < q));
                self.in_reach -= 1;
            }
            // Ops whose latency already elapsed (Nop/Hint complete "this"
            // cycle) are still observed Done only on the next advance.
            self.calendar
                .push(Reverse((done_at.max(self.cycle + 1), slot)));
        }
    }

    fn start_execution(&mut self, slot: u32, done_at: u64) {
        self.begin_execution(slot, done_at);
        let e = &self.slab[slot as usize];
        let srcs = e.op.sources().count() as u64;
        let class = e.op.class;
        let flops = u64::from(e.op.flops);
        self.act.issued += 1;
        self.act.regfile_reads += srcs;
        match class {
            OpClass::IntAlu | OpClass::MoveSpr => self.act.alu_ops += 1,
            OpClass::IntMul => self.act.mul_ops += 1,
            OpClass::IntDiv => self.act.div_ops += 1,
            OpClass::Branch => self.act.branch_ops += 1,
            OpClass::VsxSimple => self.act.vsx_simple_ops += 1,
            OpClass::VsxFp => {
                self.act.vsx_fp_ops += 1;
                self.act.vsx_flops += flops;
            }
            OpClass::Mma(_) => {
                self.act.mma_ops += 1;
                self.act.mma_flops += flops;
            }
            OpClass::MmaMove => self.act.mma_moves += 1,
            OpClass::Load => self.act.loads += 1,
            OpClass::Store => self.act.stores += 1,
            OpClass::Nop | OpClass::Hint => {}
        }
    }

    fn issue_load(&mut self, slot: u32, tid: usize) -> u64 {
        let op = self.slab[slot as usize].op;
        let m = op.mem().expect("load has mem");
        let seq = self.slab[slot as usize].seq;

        // Translation policy: RA-tagged L1 translates on every access.
        let mut extra = 0u64;
        if !self.cfg.ea_tagged_l1 {
            extra += u64::from(
                self.mmu
                    .translate(m.addr, TranslateSide::Data, &mut self.act),
            );
        }

        // Store-to-load forwarding from older stores in this thread.
        let mut forward = false;
        let mut conflict_unready = false;
        for &(sseq, saddr, ssize, sexec) in self.threads[tid].store_window.iter().rev() {
            if sseq >= seq {
                continue;
            }
            let s_end = saddr + u64::from(ssize);
            let l_end = m.addr + u64::from(m.size);
            let overlap = saddr < l_end && m.addr < s_end;
            if !overlap {
                continue;
            }
            let contains = saddr <= m.addr && l_end <= s_end;
            if sexec && contains {
                forward = true;
            } else {
                conflict_unready = true;
            }
            break; // youngest older overlapping store decides
        }

        if forward {
            self.act.store_forwards += 1;
            return self.cycle + u64::from(self.cfg.l1d.latency) + extra;
        }
        if conflict_unready {
            // Conservative: wait a few cycles and replay through the cache.
            extra += 4;
        }

        let (lat, lvl) = self.mem.access_data(m.addr, &mut self.act);
        let missed_l1 = lvl != crate::cache::HitLevel::L1;
        if missed_l1 {
            if self.cfg.ea_tagged_l1 {
                extra += u64::from(
                    self.mmu
                        .translate(m.addr, TranslateSide::Data, &mut self.act),
                );
            }
            let done = self.cycle + u64::from(lat) + extra;
            self.lmq.push(done);
            done
        } else {
            self.cycle + u64::from(lat) + extra
        }
    }

    fn issue_store(&mut self, slot: u32, tid: usize) -> u64 {
        let op = self.slab[slot as usize].op;
        let m = op.mem().expect("store has mem");
        let seq = self.slab[slot as usize].seq;
        let mut extra = 0u64;
        if !self.cfg.ea_tagged_l1 {
            extra += u64::from(
                self.mmu
                    .translate(m.addr, TranslateSide::Data, &mut self.act),
            );
        }
        // Address generation done; data considered available one cycle
        // later. The cache write happens post-completion at drain.
        if let Some(s) = self.threads[tid]
            .store_window
            .iter_mut()
            .find(|s| s.0 == seq)
        {
            s.3 = true;
        }
        self.cycle + 1 + extra
    }

    // ---- decode + dispatch ----

    fn decode_dispatch(&mut self) {
        let mut budget = self.cfg.decode_width;
        let n = self.threads.len();
        let mut blocked = [false; MAX_THREADS];
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for k in 0..n {
                if budget == 0 {
                    break;
                }
                let tid = (k + self.rr_offset) % n;
                if blocked[tid] || self.threads[tid].fetch_buffer.is_empty() {
                    continue;
                }
                match self.try_dispatch_one(tid) {
                    DispatchOutcome::Dispatched { fused } => {
                        budget -= 1;
                        if fused {
                            self.act.fused_pairs += 1;
                        }
                        progressed = true;
                    }
                    DispatchOutcome::Blocked => {
                        blocked[tid] = true;
                        self.act.dispatch_stall_cycles += 1;
                    }
                }
            }
        }
    }

    /// Checks whether the head of `tid`'s fetch buffer (plus fused
    /// partner) fits the window/issue-queue/LQ/SQ this cycle, returning
    /// the dispatch footprint, or `None` when a resource blocks. Pure —
    /// shared by [`Core::try_dispatch_one`] and the fast-forward
    /// dispatch-progress check.
    fn plan_dispatch(&self, tid: usize) -> Option<DispatchPlan> {
        // Peek head (and successor for fusion).
        let (head_op, fuse) = {
            let t = &self.threads[tid];
            let head = t.fetch_buffer.front().expect("caller checked");
            let fuse = if self.cfg.fusion && t.fetch_buffer.len() >= 2 {
                let second = &t.fetch_buffer[1];
                fusion::classify_pair(&head.op, &second.op)
            } else {
                None
            };
            (head.op, fuse)
        };

        let pair_count: u32 = if fuse.is_some() { 2 } else { 1 };
        // Resource checks.
        if self.window_used + pair_count > self.cfg.itable_entries {
            return None;
        }
        let iq_needed = match fuse {
            Some(k) if k.single_issue_entry() => 1,
            Some(_) => 2,
            None => 1,
        };
        if self.issue_queue_used + iq_needed > self.cfg.issue_queue_entries {
            return None;
        }
        // LQ/SQ checks for head (+ partner).
        let needs_lq = |op: &DynOp| u32::from(op.is_load());
        let needs_sq = |op: &DynOp| u32::from(op.is_store());
        let second_op = if fuse.is_some() {
            Some(self.threads[tid].fetch_buffer[1].op)
        } else {
            None
        };
        let lq_need = needs_lq(&head_op) + second_op.as_ref().map_or(0, needs_lq);
        let mut sq_need = needs_sq(&head_op) + second_op.as_ref().map_or(0, needs_sq);
        if fuse == Some(FusionKind::StorePair) {
            if let Some(second) = &second_op {
                if fusion::store_pair_single_sq_entry(&head_op, second) {
                    sq_need = 1;
                }
            }
        }
        let t = &self.threads[tid];
        if t.lq_used + lq_need > self.cfg.load_queue_per_thread()
            || t.sq_used + sq_need > self.cfg.store_queue_per_thread()
        {
            return None;
        }
        Some(DispatchPlan {
            head_op,
            fuse,
            second_op,
            lq_need,
            sq_need,
        })
    }

    fn try_dispatch_one(&mut self, tid: usize) -> DispatchOutcome {
        let Some(plan) = self.plan_dispatch(tid) else {
            return DispatchOutcome::Blocked;
        };

        // Commit: pop and install.
        let head = self.threads[tid].fetch_buffer.pop_front().expect("checked");
        let head_slot = self.install(tid, head, false, true);
        self.threads[tid].lq_used += plan.lq_need;
        self.threads[tid].sq_used += plan.sq_need;
        if let Some(kind) = plan.fuse {
            let second_owns_sq = !(kind == FusionKind::StorePair
                && plan
                    .second_op
                    .as_ref()
                    .is_some_and(|s| fusion::store_pair_single_sq_entry(&plan.head_op, s)));
            let second = self.threads[tid].fetch_buffer.pop_front().expect("checked");
            let second_slot = self.install(tid, second, kind.single_issue_entry(), second_owns_sq);
            self.slab[head_slot as usize].pair = second_slot;
            self.act.decoded += 2;
            self.act.dispatched += 2;
            DispatchOutcome::Dispatched { fused: true }
        } else {
            self.act.decoded += 1;
            self.act.dispatched += 1;
            DispatchOutcome::Dispatched { fused: false }
        }
    }

    fn install(&mut self, tid: usize, f: FetchedOp, is_pair_second: bool, owns_sq: bool) -> u32 {
        self.seq += 1;
        let seq = self.seq;
        let mut deps = [(NO_SLOT, 0u64); MAX_SRCS];
        {
            let t = &self.threads[tid];
            for (i, src) in f.op.sources().enumerate() {
                let (slot, pseq) = t.rename[usize::from(src.packed())];
                if slot != NO_SLOT {
                    let e = &self.slab[slot as usize];
                    if e.active && e.seq == pseq {
                        deps[i] = (slot, pseq);
                    }
                }
            }
        }
        let entry = InFlight {
            op: f.op,
            tid: tid as u8,
            seq,
            fetch_cycle: f.fetch_cycle,
            state: UopState::Waiting,
            deps,
            mispredicted: f.mispredicted,
            pair: NO_SLOT,
            is_pair_second,
            owns_sq,
            active: true,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s as usize] = entry;
                s
            }
            None => {
                self.slab.push(entry);
                self.sched.push(SchedSlot::EMPTY);
                self.wakeup.push(Vec::new());
                (self.slab.len() - 1) as u32
            }
        };
        if self.event_driven() {
            // Producers not yet Done must wake this op when they finish;
            // already-resolved deps need no tracking.
            debug_assert!(self.wakeup[slot as usize].is_empty());
            let mut waiting_on = 0u8;
            for &(pslot, _) in &deps {
                if pslot != NO_SLOT && self.slab[pslot as usize].state != UopState::Done {
                    self.wakeup[pslot as usize].push((slot, seq));
                    waiting_on += 1;
                }
            }
            let ready = waiting_on == 0;
            self.sched[slot as usize] = SchedSlot {
                seq,
                class: f.op.class,
                tid: tid as u8,
                waiting_on,
                waiting: true,
                ready,
            };
            // The youngest waiting op joins the window only if the window
            // has room, which also means nothing waits past the reach.
            if self.in_reach < self.reach() {
                debug_assert!(self.past_reach.is_empty());
                self.in_reach += 1;
                if ready {
                    self.ready_in_reach.push((seq, slot));
                }
            } else {
                self.past_reach.push_back((seq, slot));
            }
        } else {
            self.issue_order.push_back((slot, seq));
        }
        // Update rename map for destinations.
        let t = &mut self.threads[tid];
        if let Some(d) = f.op.dest() {
            t.rename[usize::from(d.packed())] = (slot, seq);
        }
        if let Some(d) = f.op.dest2() {
            t.rename[usize::from(d.packed())] = (slot, seq);
        }
        t.rob.push_back(slot);
        if f.op.is_store() {
            let m = f.op.mem().expect("store has mem");
            t.store_window.push_back((seq, m.addr, m.size, false));
        }
        self.window_used += 1;
        if !is_pair_second {
            self.issue_queue_used += 1;
        }
        slot
    }

    // ---- fetch ----

    fn fetch(&mut self) {
        let n = self.threads.len();
        match self.cfg.fetch_policy {
            crate::config::FetchPolicy::RoundRobin => {
                for k in 0..n {
                    let tid = (k + self.rr_offset) % n;
                    self.fetch_thread(tid);
                }
            }
            crate::config::FetchPolicy::ICount => {
                // Fewest in-flight (fetch buffer + ROB) first; the sort is
                // stable, so ties keep thread order.
                let mut order: [usize; MAX_THREADS] = std::array::from_fn(|t| t);
                let order = &mut order[..n];
                order.sort_by_key(|&t| {
                    self.threads[t].fetch_buffer.len() + self.threads[t].rob.len()
                });
                for &tid in &*order {
                    self.fetch_thread(tid);
                }
            }
        }
    }

    fn fetch_thread(&mut self, tid: usize) {
        {
            let t = &self.threads[tid];
            if t.fetch_done() || t.mispredict_pending || t.fetch_stall_until > self.cycle {
                return;
            }
            if t.fetch_buffer.len() >= self.cfg.fetch_buffer as usize {
                return;
            }
        }

        // One I-cache access per fetch group.
        let pc = self.threads[tid].ops[self.threads[tid].fetch_idx].pc;
        if !self.cfg.ea_tagged_l1 {
            let extra = self.mmu.translate(pc, TranslateSide::Inst, &mut self.act);
            if extra > 0 {
                self.act.itlb_stall_cycles += u64::from(extra);
                self.threads[tid].fetch_stall_until = self.cycle + u64::from(extra);
                return;
            }
        }
        let (lat, hit) = self.mem.access_inst(pc, &mut self.act);
        if !hit {
            if self.cfg.ea_tagged_l1 {
                let extra = self.mmu.translate(pc, TranslateSide::Inst, &mut self.act);
                self.act.itlb_stall_cycles += u64::from(extra);
                self.threads[tid].fetch_stall_until =
                    self.cycle + u64::from(lat) + u64::from(extra);
            } else {
                self.threads[tid].fetch_stall_until = self.cycle + u64::from(lat);
            }
            return;
        }

        let mut slots = self.cfg.fetch_width;
        while slots > 0 {
            let t = &self.threads[tid];
            if t.fetch_done() || t.fetch_buffer.len() >= self.cfg.fetch_buffer as usize {
                break;
            }
            let op = t.ops[t.fetch_idx];
            let cost = if op.prefixed { 2 } else { 1 };
            if cost > slots {
                break;
            }
            slots -= cost;
            self.threads[tid].fetch_idx += 1;
            self.act.fetched += 1;

            let mut mispredicted = false;
            if let Some(info) = op.branch() {
                let fallthrough = op.pc + 4;
                let pred = self
                    .predictor
                    .predict_and_train(tid, op.pc, &info, fallthrough);
                if pred.predicted {
                    self.act.branch_predictions += 1;
                }
                mispredicted = !pred.correct;
            }
            let fetched = FetchedOp {
                op,
                mispredicted,
                fetch_cycle: self.cycle,
            };
            let is_taken_branch = op.branch().is_some_and(|b| b.taken);
            self.threads[tid].fetch_buffer.push_back(fetched);
            if mispredicted {
                // Fetch stalls here until the branch resolves; at most one
                // mispredicted branch is in flight per thread.
                self.threads[tid].mispredict_pending = true;
                break;
            }
            if is_taken_branch {
                break; // cannot fetch past a taken branch this cycle
            }
        }
    }
}

/// What the issue stage saw this cycle (input to cycle attribution).
#[derive(Debug, Clone, Copy)]
struct IssueSummary {
    /// At least one op started execution.
    issued_any: bool,
    /// At least one candidate within the lookahead had its deps resolved
    /// (whether or not a structural limit then blocked it).
    saw_ready: bool,
}

/// Execution resources still free in the current cycle's select pass.
#[derive(Debug)]
struct IssueUnits {
    int: u32,
    branch: u32,
    vsx: u32,
    load: u32,
    store: u32,
    mma_lanes: u32,
    mma_move: u32,
    /// At least one op started execution.
    issued_any: bool,
    /// An MMA op used the grid.
    mma_active: bool,
}

/// Which attribution bucket a fast-forwarded idle stretch belongs to
/// (static across the stretch — see `fast_forward`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    MemoryBound,
    DispatchStalled,
    FetchStalled,
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchOutcome {
    Dispatched { fused: bool },
    Blocked,
}

/// Resource footprint of dispatching one fetch-buffer head (+ partner).
#[derive(Debug, Clone, Copy)]
struct DispatchPlan {
    head_op: DynOp,
    fuse: Option<FusionKind>,
    second_op: Option<DynOp>,
    lq_need: u32,
    sq_need: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmtMode;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, Trace};

    /// An L1-contained counted loop of `iters` iterations with `body_alus`
    /// independent adds per iteration.
    fn alu_loop_trace(iters: i64, body_alus: u16) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), iters);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..body_alus {
            let r = 5 + (k % 20);
            b.addi(Reg::gpr(r), Reg::gpr(r), 1);
        }
        b.bdnz(top);
        let prog = b.build();
        Machine::new().run(&prog, 10_000_000).expect("loop runs")
    }

    fn run_cfg(cfg: CoreConfig, trace: Trace) -> SimResult {
        Core::new(cfg).run(vec![trace], 10_000_000)
    }

    #[test]
    fn all_ops_complete() {
        let t = alu_loop_trace(100, 8);
        let n = t.len() as u64;
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.completed, n);
        assert_eq!(r.per_thread_completed, vec![n]);
    }

    #[test]
    fn ipc_is_superscalar_on_independent_alus() {
        let t = alu_loop_trace(2000, 8);
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.ipc() > 2.0,
            "independent ALU loop should run superscalar, ipc = {}",
            r.ipc()
        );
        assert!(r.ipc() <= 8.0);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // One long dependent chain: IPC near 1 even on a wide core
        // (fusion pairs adjacent dependent adds, capping at ~2).
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 2000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for _ in 0..8 {
            b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        }
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let mut cfg = CoreConfig::power10();
        cfg.fusion = false;
        let r = run_cfg(cfg, t);
        assert!(
            r.ipc() < 1.6,
            "dependent chain must serialize, ipc = {}",
            r.ipc()
        );
    }

    #[test]
    fn power10_outperforms_power9_on_wide_loop() {
        let t = alu_loop_trace(3000, 10);
        let r9 = run_cfg(CoreConfig::power9(), t.clone());
        let r10 = run_cfg(CoreConfig::power10(), t);
        assert!(
            r10.ipc() > r9.ipc(),
            "P10 ipc {} must beat P9 ipc {}",
            r10.ipc(),
            r9.ipc()
        );
    }

    #[test]
    fn fusion_detects_dependent_pairs() {
        // Adjacent dependent adds (fusible) plus cmp+branch pairs.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 500);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.add(Reg::gpr(6), Reg::gpr(5), Reg::gpr(5)); // depends on previous
        b.cmpi(Reg::cr(0), Reg::gpr(6), 0);
        let skip = b.label();
        b.bc(p10_isa::Cond::Lt, Reg::cr(0), skip); // cmp+branch pair
        b.bind(skip);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r10 = run_cfg(CoreConfig::power10(), t.clone());
        assert!(r10.activity.fused_pairs > 500, "P10 must fuse pairs");
        let r9 = run_cfg(CoreConfig::power9(), t);
        assert_eq!(r9.activity.fused_pairs, 0, "P9 has no fusion");
    }

    #[test]
    fn ea_tagging_cuts_translations() {
        let t = alu_loop_trace(1000, 6);
        let p9 = run_cfg(CoreConfig::power9(), t.clone());
        let p10 = run_cfg(CoreConfig::power10(), t);
        // P9 translates on every fetch group; P10 only on L1 misses.
        assert!(
            p10.activity.ierat_lookups < p9.activity.ierat_lookups / 10,
            "EA tagging must slash I-side translations: p9={} p10={}",
            p9.activity.ierat_lookups,
            p10.activity.ierat_lookups
        );
    }

    #[test]
    fn loads_and_stores_flow_through_lsu() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 200);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.std(Reg::gpr(5), Reg::gpr(1), 0);
        b.std(Reg::gpr(5), Reg::gpr(1), 8);
        b.ld(Reg::gpr(6), Reg::gpr(1), 0);
        b.addi(Reg::gpr(1), Reg::gpr(1), 64);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.stores, 400);
        assert_eq!(r.activity.loads, 200);
        assert!(r.activity.store_merges > 0, "adjacent stores should merge");
        assert!(r.activity.l1d_accesses > 0);
    }

    #[test]
    fn store_forwarding_happens() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 100);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.std(Reg::gpr(5), Reg::gpr(1), 0);
        b.ld(Reg::gpr(6), Reg::gpr(1), 0); // same address: forward
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.activity.store_forwards > 50,
            "same-address load must forward, got {}",
            r.activity.store_forwards
        );
    }

    #[test]
    fn mispredicts_counted_on_data_dependent_branches() {
        // Branch on a pseudo-random bit: unpredictable.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(2), 0x12345);
        b.li(Reg::gpr(4), 2000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        // xorshift-ish scramble
        b.push(Inst::Srdi {
            rt: Reg::gpr(3),
            ra: Reg::gpr(2),
            sh: 1,
        });
        b.push(Inst::Xor {
            rt: Reg::gpr(2),
            ra: Reg::gpr(3),
            rb: Reg::gpr(2),
        });
        b.push(Inst::Sldi {
            rt: Reg::gpr(3),
            ra: Reg::gpr(2),
            sh: 3,
        });
        b.push(Inst::Xor {
            rt: Reg::gpr(2),
            ra: Reg::gpr(3),
            rb: Reg::gpr(2),
        });
        b.push(Inst::And {
            rt: Reg::gpr(5),
            ra: Reg::gpr(2),
            rb: Reg::gpr(6),
        });
        b.cmpi(Reg::cr(0), Reg::gpr(5), 0);
        let skip = b.label();
        b.bc(p10_isa::Cond::Eq, Reg::cr(0), skip);
        b.addi(Reg::gpr(7), Reg::gpr(7), 1);
        b.bind(skip);
        b.bdnz(top);
        let mut m = Machine::new();
        m.set_gpr(6, 4); // mask bit 2
        let t = m.run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.activity.branch_mispredicts > 100,
            "pseudo-random branch must mispredict, got {}",
            r.activity.branch_mispredicts
        );
        assert!(r.activity.wrong_path_fetched > 0);
        assert!(r.activity.flushed > 0);
    }

    #[test]
    fn p10_flushes_less_than_p9() {
        // Long-period pattern (period 24) that exceeds POWER9's local
        // history window but not POWER10's.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 12_000);
        b.mtctr(Reg::gpr(4));
        b.li(Reg::gpr(2), 0);
        let top = b.bind_label();
        b.addi(Reg::gpr(2), Reg::gpr(2), 1);
        b.cmpi(Reg::cr(0), Reg::gpr(2), 24);
        let skip = b.label();
        b.bc(p10_isa::Cond::Ne, Reg::cr(0), skip);
        b.li(Reg::gpr(2), 0);
        b.bind(skip);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 10_000_000).unwrap();
        let r9 = run_cfg(CoreConfig::power9(), t.clone());
        let r10 = run_cfg(CoreConfig::power10(), t);
        assert!(
            r10.activity.branch_mispredicts < r9.activity.branch_mispredicts / 2,
            "P10 long-history predictor must capture the period-24 pattern: p9={} p10={}",
            r9.activity.branch_mispredicts,
            r10.activity.branch_mispredicts
        );
        assert!(
            r10.activity.wrong_path_fetched < r9.activity.wrong_path_fetched,
            "P10 must waste fewer fetches"
        );
    }

    #[test]
    fn smt2_two_threads_both_complete() {
        let t1 = alu_loop_trace(500, 6);
        let t2 = alu_loop_trace(700, 4);
        let (n1, n2) = (t1.len() as u64, t2.len() as u64);
        let mut cfg = CoreConfig::power10();
        cfg.smt = SmtMode::Smt2;
        let r = Core::new(cfg).run(vec![t1, t2], 10_000_000);
        assert_eq!(r.per_thread_completed, vec![n1, n2]);
        assert_eq!(r.activity.completed, n1 + n2);
    }

    #[test]
    fn smt2_throughput_beats_st_on_stall_heavy_code() {
        // Memory-latency-bound pointer chase: SMT2 overlaps stalls.
        let chase = |seed: u64| -> Trace {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x20_0000 + (seed * 0x4_0000) as i64);
            b.li(Reg::gpr(4), 300);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            b.ld(Reg::gpr(2), Reg::gpr(1), 0);
            b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
            b.addi(Reg::gpr(1), Reg::gpr(1), 4096); // new page/line every iter
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut st_cfg = CoreConfig::power10();
        st_cfg.prefetch_streams = 0;
        let st = Core::new(st_cfg.clone()).run(vec![chase(0)], 10_000_000);
        let mut smt_cfg = st_cfg;
        smt_cfg.smt = SmtMode::Smt2;
        let smt = Core::new(smt_cfg).run(vec![chase(0), chase(1)], 10_000_000);
        assert!(
            smt.ipc() > st.ipc() * 1.3,
            "SMT2 must overlap stalls: st={} smt={}",
            st.ipc(),
            smt.ipc()
        );
    }

    #[test]
    fn mma_kernel_executes_on_grid() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 200);
        b.mtctr(Reg::gpr(4));
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.push(Inst::Xxsetaccz { at: Reg::acc(1) });
        let top = b.bind_label();
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.lxv(Reg::vsr(36), Reg::gpr(1), 32);
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(1),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.mma_ops, 400);
        assert_eq!(r.activity.mma_flops, 400 * 16);
        assert!(r.activity.mma_active_cycles > 0);
        assert!(r.activity.flops_per_cycle() > 4.0);
    }

    #[test]
    fn max_cycles_bounds_runaway() {
        let t = alu_loop_trace(100_000, 4);
        let r = Core::new(CoreConfig::power10()).run(vec![t], 50);
        assert_eq!(r.activity.cycles, 50);
    }

    #[test]
    #[should_panic(expected = "exceed SMT mode capacity")]
    fn too_many_threads_panics() {
        let t = alu_loop_trace(10, 1);
        let cfg = CoreConfig::power10(); // ST mode
        let _ = Core::new(cfg).run(vec![t.clone(), t], 100);
    }

    #[test]
    fn window_occupancy_tracked() {
        let t = alu_loop_trace(1000, 8);
        let r = run_cfg(CoreConfig::power10(), t);
        let occ = r.activity.mean_window_occupancy();
        assert!(occ > 1.0 && occ <= 512.0, "occupancy {occ} out of range");
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, Trace};

    fn mma_burst_program(prelude_alus: u16, hint: bool) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 2_000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.bdnz(top);
        if hint {
            b.push(Inst::MmaWakeHint);
        }
        // Post-loop scalar work that covers (or not) the wake window.
        for k in 0..prelude_alus {
            let r = 6 + (k % 8);
            b.addi(Reg::gpr(r), Reg::gpr(r), 1);
        }
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.li(Reg::gpr(6), 200);
        b.mtctr(Reg::gpr(6));
        let kloop = b.bind_label();
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(kloop);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    #[test]
    fn cold_mma_use_pays_wake_latency() {
        let t = mma_burst_program(4, false);
        let r = Core::new(CoreConfig::power10()).run(vec![t], 1_000_000);
        assert!(
            r.activity.mma_wake_stall_cycles >= 32,
            "cold MMA start must stall, got {}",
            r.activity.mma_wake_stall_cycles
        );
        assert!(r.activity.mma_powered_cycles > 0);
        // The unit was gated during the long scalar prelude.
        assert!(r.activity.mma_powered_cycles < r.activity.cycles);
    }

    #[test]
    fn wake_hint_hides_the_latency() {
        // Hint placed a long scalar stretch before the MMA burst: the
        // unit powers on in the shadow of that work.
        let cold =
            Core::new(CoreConfig::power10()).run(vec![mma_burst_program(200, false)], 1_000_000);
        let hinted =
            Core::new(CoreConfig::power10()).run(vec![mma_burst_program(200, true)], 1_000_000);
        assert!(
            hinted.activity.mma_wake_stall_cycles < cold.activity.mma_wake_stall_cycles,
            "hint must cut wake stalls: cold {} hinted {}",
            cold.activity.mma_wake_stall_cycles,
            hinted.activity.mma_wake_stall_cycles
        );
        assert_eq!(hinted.activity.completed, cold.activity.completed + 1);
    }

    #[test]
    fn specint_code_never_powers_the_mma() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 3_000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = Core::new(CoreConfig::power10()).run(vec![t], 1_000_000);
        assert_eq!(r.activity.mma_powered_cycles, 0);
        assert_eq!(r.activity.mma_wake_stall_cycles, 0);
    }
}

#[cfg(test)]
mod smt_policy_tests {
    use super::*;
    use crate::config::{FetchPolicy, SmtMode};
    use p10_isa::{Machine, ProgramBuilder, Reg, Trace};

    fn compute_trace(ops: u64) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), i64::MAX / 2);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..8u16 {
            b.addi(Reg::gpr(5 + k % 8), Reg::gpr(5 + k % 8), 1);
        }
        b.bdnz(top);
        Machine::new().run(&b.build(), ops).unwrap()
    }

    fn memory_trace(ops: u64) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x40_0000);
        b.li(Reg::gpr(4), i64::MAX / 2);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.ld(Reg::gpr(2), Reg::gpr(1), 0);
        b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
        b.addi(Reg::gpr(1), Reg::gpr(1), 4096);
        b.bdnz(top);
        Machine::new().run(&b.build(), ops).unwrap()
    }

    #[test]
    fn icount_favors_the_fast_thread() {
        // One compute thread + one memory-stalled thread: ICOUNT should
        // let the compute thread retire more than round-robin does, at
        // equal-or-better total throughput.
        let run = |policy: FetchPolicy| {
            let mut cfg = CoreConfig::power10();
            cfg.smt = SmtMode::Smt2;
            cfg.fetch_policy = policy;
            cfg.prefetch_streams = 0;
            Core::new(cfg).run(vec![compute_trace(20_000), memory_trace(20_000)], 60_000)
        };
        let rr = run(FetchPolicy::RoundRobin);
        let ic = run(FetchPolicy::ICount);
        // Bounded-cycle run: compare per-thread progress.
        assert!(
            ic.per_thread_completed[0] >= rr.per_thread_completed[0],
            "ICOUNT must not starve the fast thread: rr {:?} ic {:?}",
            rr.per_thread_completed,
            ic.per_thread_completed
        );
        let total_rr: u64 = rr.per_thread_completed.iter().sum();
        let total_ic: u64 = ic.per_thread_completed.iter().sum();
        assert!(
            total_ic as f64 >= total_rr as f64 * 0.95,
            "ICOUNT throughput must be competitive: {total_rr} vs {total_ic}"
        );
    }
}

#[cfg(test)]
mod corner_tests {
    use super::*;
    use crate::config::SmtMode;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, Trace};

    #[test]
    fn divides_serialize_on_the_unpipelined_unit() {
        // Back-to-back independent divides: throughput limited by the
        // divider being busy, not by dependencies.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 1000);
        b.li(Reg::gpr(2), 7);
        b.li(Reg::gpr(4), 100);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for t in 0..4u16 {
            b.push(Inst::Divd {
                rt: Reg::gpr(10 + t),
                ra: Reg::gpr(1),
                rb: Reg::gpr(2),
            });
        }
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 100_000).unwrap();
        let cfg = CoreConfig::power10();
        let div_lat = u64::from(cfg.div_latency);
        let r = Core::new(cfg).run(vec![t], 10_000_000);
        // 400 divides, each occupying the divider for div_latency cycles.
        assert!(
            r.activity.cycles >= 400 * div_lat,
            "divides must serialize: {} cycles for 400 divides of {div_lat}",
            r.activity.cycles
        );
    }

    #[test]
    fn prefixed_instructions_consume_two_fetch_slots() {
        // A loop of prefixed (large-immediate) li ops fetches at half
        // rate; compare against plain adds.
        let make = |prefixed: bool| -> Trace {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(4), 1500);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..8u16 {
                if prefixed {
                    b.li(Reg::gpr(5 + k % 8), 1 << 20); // prefixed form
                } else {
                    b.li(Reg::gpr(5 + k % 8), 1); // plain form
                }
            }
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let plain = Core::new(CoreConfig::power10()).run(vec![make(false)], 10_000_000);
        let pfx = Core::new(CoreConfig::power10()).run(vec![make(true)], 10_000_000);
        assert_eq!(plain.activity.completed, pfx.activity.completed);
        assert!(
            pfx.activity.cycles as f64 > plain.activity.cycles as f64 * 1.15,
            "prefixed fetch must cost more: {} vs {}",
            plain.activity.cycles,
            pfx.activity.cycles
        );
    }

    #[test]
    fn lmq_limits_outstanding_misses() {
        // A stream of independent far-apart loads: memory-level
        // parallelism is capped by the load-miss queue.
        let make_trace = || {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x100_0000);
            b.li(Reg::gpr(4), 400);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..4u16 {
                b.ld(Reg::gpr(10 + k), Reg::gpr(1), i64::from(k) * 1_048_576);
            }
            b.addi(Reg::gpr(1), Reg::gpr(1), 8192);
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut narrow = CoreConfig::power10();
        narrow.prefetch_streams = 0;
        narrow.load_miss_queue = 1;
        let mut wide = narrow.clone();
        wide.load_miss_queue = 12;
        let r1 = Core::new(narrow).run(vec![make_trace()], 10_000_000);
        let r12 = Core::new(wide).run(vec![make_trace()], 10_000_000);
        assert!(
            r1.activity.cycles as f64 > r12.activity.cycles as f64 * 1.5,
            "MLP must be LMQ-limited: lmq1 {} vs lmq12 {}",
            r1.activity.cycles,
            r12.activity.cycles
        );
    }

    #[test]
    fn smt4_runs_four_threads_fairly() {
        let mk = |seed: i64| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(4), 1000 + seed);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..6u16 {
                b.addi(Reg::gpr(5 + k), Reg::gpr(5 + k), 1);
            }
            b.bdnz(top);
            Machine::new().run(&b.build(), 25_000).unwrap()
        };
        let mut cfg = CoreConfig::power10();
        cfg.smt = SmtMode::Smt4;
        let traces = vec![mk(0), mk(1), mk(2), mk(3)];
        let lens: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
        let r = Core::new(cfg).run(traces, 10_000_000);
        assert_eq!(r.per_thread_completed, lens);
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn fused_store_pair_uses_single_sq_entry() {
        // Two 8-byte stores to consecutive addresses with a tiny store
        // queue: with fusion the pair shares one entry, so POWER10 with
        // SQ=2/thread makes progress a no-fusion config chokes on.
        let mk = || {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x20_0000);
            b.li(Reg::gpr(4), 800);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            b.std(Reg::gpr(5), Reg::gpr(1), 0);
            b.std(Reg::gpr(5), Reg::gpr(1), 8);
            b.addi(Reg::gpr(1), Reg::gpr(1), 64);
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut fused = CoreConfig::power10();
        fused.store_queue = 4; // 2 per thread in ST accounting
        let mut unfused = fused.clone();
        unfused.fusion = false;
        let rf = Core::new(fused).run(vec![mk()], 10_000_000);
        let ru = Core::new(unfused).run(vec![mk()], 10_000_000);
        assert_eq!(rf.activity.completed, ru.activity.completed);
        assert!(rf.activity.fused_pairs > 700, "pairs must fuse");
        assert!(
            rf.activity.cycles <= ru.activity.cycles,
            "shared SQ entries must not be slower: fused {} vs unfused {}",
            rf.activity.cycles,
            ru.activity.cycles
        );
    }

    #[test]
    fn wrong_path_estimate_zero_without_branches() {
        let mut b = ProgramBuilder::new();
        for _ in 0..500 {
            b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        }
        let t = Machine::new().run(&b.build(), 10_000).unwrap();
        let r = Core::new(CoreConfig::power10()).run(vec![t], 100_000);
        assert_eq!(r.activity.wrong_path_fetched, 0);
        assert_eq!(r.activity.branch_mispredicts, 0);
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, Trace};

    fn alu_trace(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), iters);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..8u16 {
            b.addi(Reg::gpr(5 + k % 8), Reg::gpr(5 + k % 8), 1);
        }
        b.bdnz(top);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn chase_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x40_0000);
        b.li(Reg::gpr(4), 300);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.ld(Reg::gpr(2), Reg::gpr(1), 0);
        b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
        b.addi(Reg::gpr(1), Reg::gpr(1), 4096);
        b.bdnz(top);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn mma_cold_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.li(Reg::gpr(6), 100);
        b.mtctr(Reg::gpr(6));
        let kloop = b.bind_label();
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(kloop);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn assert_partitions(r: &SimResult) {
        assert_eq!(
            r.attribution.total(),
            r.activity.cycles,
            "attribution must partition the cycle count ({:?})",
            r.attribution
        );
        assert_eq!(
            r.attribution.active, r.activity.active_cycles,
            "active bucket must equal the existing active_cycles counter"
        );
    }

    #[test]
    fn buckets_partition_cycles_on_every_preset() {
        for (trace, mma_only) in [
            (alu_trace(1000), false),
            (chase_trace(), false),
            (mma_cold_trace(), true), // P9 has no MMA unit to run it on
        ] {
            for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
                if mma_only && cfg.mma.is_none() {
                    continue;
                }
                for sched in [Scheduler::Polled, Scheduler::EventDriven] {
                    let mut cfg = cfg.clone();
                    cfg.scheduler = sched;
                    let r = Core::new(cfg).run(vec![trace.clone()], 10_000_000);
                    assert_partitions(&r);
                }
            }
        }
    }

    #[test]
    fn memory_bound_code_attributes_to_memory() {
        let mut cfg = CoreConfig::power10();
        cfg.prefetch_streams = 0;
        let r = Core::new(cfg).run(vec![chase_trace()], 10_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.memory_bound > r.activity.cycles / 2,
            "a page-striding pointer chase should be mostly memory-bound: {:?} of {} cycles",
            r.attribution,
            r.activity.cycles
        );
    }

    #[test]
    fn cold_mma_start_attributes_gated_cycles() {
        let r = Core::new(CoreConfig::power10()).run(vec![mma_cold_trace()], 1_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.mma_gated > 0,
            "a cold MMA burst must show gated cycles: {:?}",
            r.attribution
        );
    }

    #[test]
    fn compute_code_is_mostly_active() {
        let r = Core::new(CoreConfig::power10()).run(vec![alu_trace(2000)], 10_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.active > r.activity.cycles / 2,
            "an L1-resident ALU loop should be mostly active: {:?}",
            r.attribution
        );
    }

    /// Opts out of spans, so the scheduler replays fast-forwarded
    /// stretches one cycle at a time.
    struct EveryCycle;

    impl SpanObserver for EveryCycle {
        fn on_cycle(&mut self, _cycle: u64, _act: &Activity) {}

        fn on_span(&mut self, _start: u64, _len: u64, _delta: &Activity) {
            unreachable!("per-cycle observers never receive spans");
        }

        fn wants_spans(&self) -> bool {
            false
        }
    }

    #[test]
    fn attribution_identical_with_observer_replay() {
        // The observer path replays fast-forwarded stretches one cycle at
        // a time; the attribution must come out the same either way.
        let mut cfg = CoreConfig::power10();
        cfg.scheduler = Scheduler::EventDriven;
        let plain = Core::new(cfg.clone()).run(vec![chase_trace()], 10_000_000);
        let observed = Core::new(cfg).run_spanned(vec![chase_trace()], 10_000_000, &mut EveryCycle);
        assert_eq!(plain.attribution, observed.attribution);
        assert_partitions(&observed);
    }
}

#[cfg(test)]
mod lookahead_tests {
    use super::*;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, Trace};

    /// Straight-line trace: `divd r3 = r1 / r2` (long latency) followed
    /// by `tail`.
    fn div_then(tail: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Divd {
            rt: Reg::gpr(3),
            ra: Reg::gpr(1),
            rb: Reg::gpr(2),
        });
        tail(&mut b);
        let mut m = Machine::new();
        m.set_gpr(1, 1000);
        m.set_gpr(2, 7);
        m.run(&b.build(), 1_000).unwrap()
    }

    /// Steps `trace` to completion and returns, per trace op, the cycle
    /// it left the waiting state (issued, or started with its fused head).
    /// A single thread installs ops in trace order, so op `i` has seq
    /// `i + 1`.
    fn issue_cycles(cfg: CoreConfig, trace: Trace) -> Vec<u64> {
        let n = trace.len();
        let mut core = Core::new(cfg);
        core.threads = vec![ThreadState::new(trace.into())];
        let mut issued = vec![0u64; n];
        while !core.threads[0].fully_done() {
            core.step();
            assert!(core.cycle < 10_000, "trace must finish");
            for e in &core.slab {
                let i = (e.seq - 1) as usize;
                if e.active && e.state != UopState::Waiting && issued[i] == 0 {
                    issued[i] = core.cycle;
                }
            }
        }
        issued
    }

    fn cfg(reach: u32, fusion: bool, scheduler: Scheduler) -> CoreConfig {
        let mut c = CoreConfig::power10();
        c.issue_lookahead = reach;
        c.fusion = fusion;
        c.scheduler = scheduler;
        c
    }

    #[test]
    fn ready_op_past_the_lookahead_waits_for_an_older_op_to_issue() {
        // div; a, b wait on the div; p is ready at dispatch.
        let trace = div_then(|b| {
            b.add(Reg::gpr(4), Reg::gpr(3), Reg::gpr(3));
            b.add(Reg::gpr(5), Reg::gpr(3), Reg::gpr(3));
            b.addi(Reg::gpr(10), Reg::gpr(11), 1);
        });
        for scheduler in [Scheduler::Polled, Scheduler::EventDriven] {
            // Reach 2: once the div issues, a and b fill the window and p
            // sits just past it until a issues.
            let [div, a, b, p] = issue_cycles(cfg(2, false, scheduler), trace.clone())[..] else {
                unreachable!("four ops")
            };
            assert!(a > div + 2, "a waits out the divide ({scheduler:?})");
            assert_eq!(b, a, "b wakes with a ({scheduler:?})");
            assert_eq!(
                p,
                a + 1,
                "p enters the window once a issues ({scheduler:?})"
            );
            // Reach 3: p is inside the window and issues right away.
            let wide = issue_cycles(cfg(3, false, scheduler), trace.clone());
            assert_eq!(
                wide[3],
                div + 1,
                "p within reach issues at once ({scheduler:?})"
            );
        }
    }

    #[test]
    fn fused_partner_in_the_last_reach_slot_counts_toward_the_reach() {
        // div; x; a waits on the div; h (reads x) + s form a fused
        // dependent-ALU pair; d is ready at dispatch.
        let trace = div_then(|b| {
            b.addi(Reg::gpr(8), Reg::gpr(8), 1);
            b.add(Reg::gpr(4), Reg::gpr(3), Reg::gpr(3));
            b.addi(Reg::gpr(7), Reg::gpr(8), 1);
            b.add(Reg::gpr(9), Reg::gpr(7), Reg::gpr(7));
            b.addi(Reg::gpr(10), Reg::gpr(11), 1);
        });
        for scheduler in [Scheduler::Polled, Scheduler::EventDriven] {
            // Reach 3: when h becomes ready the window is {a, h, s}; s
            // starts with its head and d issues only the cycle after.
            let c = issue_cycles(cfg(3, true, scheduler), trace.clone());
            let [div, x, a, h, s, d] = c[..] else {
                unreachable!("six ops")
            };
            assert_eq!(x, div, "x issues with the div ({scheduler:?})");
            assert_eq!(h, x + 1, "h wakes on x ({scheduler:?})");
            assert_eq!(s, h, "s starts with its fused head ({scheduler:?})");
            assert!(a > h, "a still waits on the divide ({scheduler:?})");
            assert_eq!(
                d,
                h + 1,
                "the fused partner filled the reach ({scheduler:?})"
            );
            // Reach 4: d fits beside the pair and issues with h.
            let wide = issue_cycles(cfg(4, true, scheduler), trace.clone());
            assert_eq!(
                wide[5], wide[3],
                "d within reach issues with h ({scheduler:?})"
            );
        }
    }
}
