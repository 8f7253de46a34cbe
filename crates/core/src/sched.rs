//! The pipelined multi-queue scheduler: independent batches kept in flight
//! across devices.
//!
//! [`crate::service::FheService::drain`] used to run strictly synchronous
//! rounds — coalesce one batch, `submit`, immediately `join` — so devices
//! idled whenever the queue held several *independent* but mutually
//! incompatible `(op, level)` groups. This module owns everything between
//! the request table and the [`crate::exec::Pool`]:
//!
//! * **Planning** ([`Scheduler::plan`]) — the coalescing walk: the first
//!   slot the service offers defines the batch's `(op, level)` group, and
//!   compatible instances are taken from every matching slot, in the order
//!   offered, up to the cap.
//! * **One entry per batch.** From the moment a plan enters the scheduler
//!   until it is joined, a batch is one private entry: its [`BatchRecord`],
//!   filled in place as the batch is planned, admitted and joined, and the
//!   requests it serves. The record carries the batch's independence keys,
//!   so the keys in flight are read from the window's records; at the join
//!   the record moves into the trace.
//! * **The in-flight window** ([`Scheduler::admit`]) — up to `depth`
//!   submitted-but-unjoined batches, each with the pool's owned
//!   [`ExecHandle`]. A planned batch is admitted only if it is
//!   *independent* of every batch already in flight: no two in-flight
//!   batches may contain requests from the same client stream at the same
//!   ciphertext level, so chained operations on one working set always
//!   observe program order. [`Scheduler::blocks`] reports a dependent plan;
//!   its keys are free again once the batch holding them has joined and
//!   left the window.
//! * **Deterministic settles** ([`Scheduler::join_next`] /
//!   [`Scheduler::settle_next`]) — handles are joined in admission
//!   order whatever order the backend finishes them in, and every joined
//!   batch passes through a reorder buffer that releases batches in
//!   *serial plan order* (under in-order admission that is admission
//!   order, so a joined batch leaves at once). Settling folds the batch
//!   into the scheduler's own batch totals ([`Scheduler::totals`]: busy
//!   time, per-device busy time, ops completed) before the service
//!   attributes it. Per-request attribution, reports and [`ServiceStats`]
//!   are therefore **bit-identical at every depth**: pipelining changes
//!   when device work overlaps, never what a request is charged.
//! * **The overlap clock** — per-device virtual FIFO queues that account
//!   for what pipelining actually buys. Each joined batch's shards are
//!   placed on the least-loaded virtual devices (ties to the lowest
//!   index), gang-started at the latest of (a) those devices' free times
//!   and (b) the *join frontier* — the completion time of the newest batch
//!   joined before this one was admitted, which is exactly the window
//!   constraint: batch `k` cannot start before batch `k − depth`
//!   completed. At `depth = 1` the frontier serializes every batch and the
//!   overlap clock reproduces the serial clock bit-for-bit; at larger
//!   depths narrow independent batches land on idle devices and
//!   [`Scheduler::elapsed_us`] (the makespan) falls below
//!   [`Scheduler::serial_us`], the same batches' one-at-a-time makespan
//!   (key-upload stalls included on both sides).
//!
//! # Out-of-order scoreboard admission
//!
//! In-order admission stalls the whole window whenever the *next serial*
//! batch is dependent — one chatty chained client collapses depth-4
//! overlap back toward 1×. The opt-in [`AdmissionMode::OutOfOrder`] mode
//! (configured through [`SchedPolicy`]) closes that gap with a scoreboard
//! modeled on GPU warp schedulers:
//!
//! * **Freeze** ([`Scheduler::freeze`]) — the exact serial planning walk
//!   runs speculatively ahead of admission, freezing up to `lookahead`
//!   planned batches into a pending scoreboard as their entries.
//!   Reservations, key-cache residency and fair-queue charges are applied
//!   at freeze time (and the scheduler counts the key upload then, as an
//!   in-order admission would), so *batch composition is identical to
//!   in-order mode*: the walk's inputs mutate only when plans are made,
//!   never when batches complete.
//! * **Admission** ([`Scheduler::admit_next`]) — a pending plan is
//!   *key-eligible* when its `(client, level)` keys are disjoint from
//!   every in-flight batch **and from every older pending plan** (the
//!   program-order guard: a younger batch may never overtake an older one
//!   it shares a stream with). Among eligible plans the pick follows a
//!   fixed **greedy-then-oldest** rule: prefer the plan whose `(op,
//!   level)` group matches the most recently admitted batch (oldest among
//!   matches), else the oldest eligible plan. The greedy preference
//!   resets whenever a join empties the window, which makes depth-1
//!   out-of-order admission bitwise identical to in-order. One call picks
//!   the plan, hands its [`ExecBatch`] to the caller's `dispatch` and
//!   admits it with the returned handle.
//! * **Aging bound** — each admission bumps `bypassed` on every *older*
//!   pending plan that was key-eligible at that instant. Once any plan's
//!   `bypassed` reaches `aging_bound`, only plans at or before the oldest
//!   starving plan's serial position may admit, so the starving plan is
//!   forced through next and no plan's `bypassed` ever exceeds the bound.
//!   (Key-*blocked* plans don't age: they are not being skipped unfairly,
//!   they are waiting on program order.)
//! * **Serial-ordered settles** — joins still pop the window front
//!   (admission order), and a batch admitted early parks in the reorder
//!   buffer until every batch planned before it has settled. Attribution,
//!   reports and [`ServiceStats`] therefore fold in exactly the in-order
//!   sequence and stay **bit-identical to in-order mode at every depth and
//!   worker count** — reordering changes when device work overlaps, never
//!   what a request is charged.
//!
//! The *request-accounting* clock (queue latency, `busy_us`, ops/s) is
//! deliberately left on the serial reference semantics so reports and
//! stats stay depth-invariant; the overlap clock surfaces separately as
//! [`ServiceStats`] `elapsed_us` / `overlap_fraction` /
//! `pipelined_ops_per_second` — the honest schedule-level throughput the
//! `fig11_pipeline` and `fig13_ooo_window` benches pin.
//!
//! # The trace is a window
//!
//! Every joined batch leaves a [`BatchRecord`], and a service that runs
//! for ever must not keep them for ever. [`Scheduler::trace`] is therefore
//! a *window* over the newest records — still one contiguous slice — and
//! everything older is folded into a [`TraceBase`], the carry-in the
//! schedule verifier resumes from.
//!
//! * **Where a fold may cut.** Only at a *quiescent point*: window,
//!   scoreboard and reorder buffer all empty (every
//!   [`crate::service::FheService::drain`] return is one). It is the only
//!   place where each accumulator the verifier replays has a well-defined
//!   value: the busy-time and upload folds run in *serial* order while the
//!   trace is in *join* order, and the two orders describe the same set of
//!   batches only when nothing is in flight; the scoreboard replay needs an
//!   empty scoreboard to start from; and at such a point the next admission
//!   index, the next serial index and the count of joined batches are one
//!   number ([`TraceBase::dropped`]).
//! * **The fold rule.** The records since the base form an *old* and a
//!   *young* generation, split at the *mark* — a [`TraceBase`] snapshot
//!   taken at an earlier quiescent point. At a quiescent point where the
//!   young generation has reached [`TRACE_WINDOW`] records, the old
//!   generation is dropped, the mark becomes the base, and a snapshot of
//!   *now* becomes the new mark. Each partial fold in a snapshot is read
//!   from the accumulator itself at that instant — never recomputed from
//!   records — so no float is ever folded in a second order.
//! * **The bound.** Right after a fold the window holds one generation: at
//!   least [`TRACE_WINDOW`] records, fewer than [`TRACE_WINDOW`] plus the
//!   records between two quiescent points. It never holds more than two
//!   generations plus what has joined since the last quiescent point, i.e.
//!   fewer than `2 · (TRACE_WINDOW + g)` records at any quiescent point,
//!   `g` being the most records that join between two of them (one wave of
//!   a wave-driven service; the whole backlog of a pump-driven one, which
//!   quiesces — and folds — only when its queue empties). The first fold
//!   that drops anything needs `2 · TRACE_WINDOW` records, so shorter runs
//!   see the whole trace, with absolute indices, exactly as before.
//! * **What the base carries.** Identity: records dropped (= the next
//!   `seq`, `serial_seq` and `joins_at_admit`) and the next event tick.
//!   Overlap clock: the join frontier and every device's free-at. Partial
//!   folds, each in the order its accumulator uses: `elapsed_us` (max, join
//!   order), `serial_us` (join order), `head_blocked_us` (admission order),
//!   `reorder_max`, and the batch totals the scheduler keeps as it plans
//!   and settles: `busy_us` and `device_busy_us[]` (settle = serial
//!   order), the upload count and time (plan = serial order) and the
//!   completed-ops ledger. A base is a snapshot of [`Scheduler::totals`],
//!   the live value of every one of these accumulators.
//!
//! [`ServiceStats`]: crate::service::ServiceStats

use crate::api::FheOp;
use crate::exec::{BatchResult, ExecBatch, ExecHandle, Pool};
use crate::service::RequestId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default scoreboard lookahead (pending plans) for out-of-order mode.
pub const DEFAULT_LOOKAHEAD: usize = 8;

/// Default aging bound (bypasses before a plan must be admitted next).
pub const DEFAULT_AGING_BOUND: usize = 4;

/// Length of one generation of the schedule trace: the newest
/// `TRACE_WINDOW` [`BatchRecord`]s are always in [`Scheduler::trace`], and
/// older ones are folded into the [`TraceBase`] a generation at a time (see
/// the [module docs](self#the-trace-is-a-window)). A constant, like the
/// residency trace's cap: the verifier needs no tuning and the records are
/// a diagnostic, not a result.
pub const TRACE_WINDOW: usize = 8192;

/// Window-admission discipline: the order in which planned batches enter
/// the in-flight window.
///
/// Both modes produce **bit-identical reports and stats** for the same
/// submitted stream: out-of-order admission reorders only the overlap
/// clock's schedule, never batch composition or settlement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionMode {
    /// Strictly serial admission: a blocked head plan stalls the window
    /// until its keys release (PR 5 semantics; the default).
    #[default]
    InOrder,
    /// Scoreboard admission: the serial planning walk freezes up to
    /// `lookahead` plans ahead, and independent plans may be admitted past
    /// a blocked head under the greedy-then-oldest rule with an aging
    /// bound. See the [module docs](self).
    OutOfOrder,
}

/// The unified scheduler-policy surface: every knob that shapes how work
/// moves from the queue onto devices, in one typed value. The scoreboard
/// runs with [`DEFAULT_LOOKAHEAD`] and [`DEFAULT_AGING_BOUND`].
///
/// Unset fields resolve through the documented chain *builder → env var →
/// default* (see [`crate::api::TensorFheBuilder::sched`]); zero or
/// malformed values are hard configuration errors, never silently
/// clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedPolicy {
    pub(crate) workers: Option<usize>,
    pub(crate) pipeline: Option<usize>,
    pub(crate) admission: Option<AdmissionMode>,
}

impl SchedPolicy {
    /// An empty policy: every knob resolves via env var then default.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Host threads for the host backend's real-arithmetic chunks —
    /// overrides `TENSORFHE_WORKERS`. The simulated costing always runs on
    /// the calling thread, so under the simulated backend this has no
    /// effect.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// In-flight window depth — overrides `TENSORFHE_PIPELINE`.
    #[must_use]
    pub fn pipeline_depth(mut self, n: usize) -> Self {
        self.pipeline = Some(n);
        self
    }

    /// Window-admission mode — overrides `TENSORFHE_ADMISSION`.
    #[must_use]
    pub fn admission(mut self, mode: AdmissionMode) -> Self {
        self.admission = Some(mode);
        self
    }
}

/// Planning view of one unfinished request: what the scheduler needs to
/// know about it.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// The requested operation.
    pub op: FheOp,
    /// Ciphertext level the operation runs at.
    pub level: usize,
    /// Instances not yet planned into any batch.
    pub remaining: usize,
    /// Client tag (the independence rule keys on `(client, level)`).
    /// Shared, not owned: planning runs once per admitted batch *plus*
    /// once per blocked attempt, so keys clone refcounts, never strings.
    pub client: &'a Arc<str>,
}

/// A coalesced batch the scheduler wants dispatched.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// The batch's operation.
    pub op: FheOp,
    /// The batch's ciphertext level.
    pub level: usize,
    /// Total instances coalesced.
    pub width: usize,
    /// `(request, instances)` per contributing request, in id
    /// (= submission) order.
    pub takes: Vec<(RequestId, usize)>,
    /// Key-staging cost charged to this batch's critical path: the time
    /// the copy engine spends uploading non-resident switch keys before
    /// the gang can start (0.0 when every contributing session's key set
    /// is already resident, and always 0.0 for anonymous traffic). Set by
    /// the service after residency placement; the overlap clock delays
    /// the batch's gang start by exactly this amount.
    pub upload_us: f64,
    /// Whether any contributing request rides in a registered session.
    /// Set by the service during residency placement; anonymous plans
    /// must never be charged a key upload, and the schedule verifier
    /// ([`crate::sched::BatchRecord::sessioned`]) holds it to that.
    pub sessioned: bool,
    /// Independence keys — the `(client, level)` pairs of every
    /// contributing request, sorted and distinct. They move into the
    /// batch's [`BatchRecord::keys`].
    keys: Vec<(Arc<str>, usize)>,
}

/// The structural trace of one batch through the window and the overlap
/// clock, recorded at admission and completed at join. `tensorfhe-analyze`
/// replays these records to prove the schedule well-formed: intervals
/// non-overlapping, gang starts legal, joins in admission order, uploads
/// charged only where the residency model says they exist, the
/// out-of-order priority rule and aging bound obeyed exactly, and the
/// accounting closed. Recording is always on — it is a handful of copies
/// per *batch* (not per kernel) and performs no float arithmetic of its
/// own, so the clocks it snapshots stay bit-identical with and without a
/// verifier attached.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Admission index (0-based). Batches are admitted and joined in this
    /// order. Equals [`BatchRecord::serial_seq`] under in-order admission;
    /// under out-of-order admission the two may differ, and settlement
    /// follows `serial_seq`.
    pub seq: usize,
    /// Serial plan order (0-based): the position this batch was planned
    /// at by the serial coalescing walk. Settlement (attribution) always
    /// happens in this order, which is what keeps reports bit-identical
    /// across admission modes.
    pub serial_seq: usize,
    /// Global window-event tick when the plan was frozen by the serial
    /// walk. Equals [`BatchRecord::admitted_at`] under in-order admission
    /// (planning and admission are one step); strictly earlier when the
    /// scoreboard held the plan pending.
    pub planned_at: u64,
    /// The join frontier snapshotted at freeze time (µs). The difference
    /// `frontier_us − planned_frontier_us` is the head-blocked time this
    /// batch spent pending in the scoreboard (0.0 in-order).
    pub planned_frontier_us: f64,
    /// How many younger plans were admitted past this one *while it was
    /// key-eligible*. Bounded by the scheduler's aging bound; always 0
    /// under in-order admission.
    pub bypassed: usize,
    /// The batch's operation (the greedy rule keys on `(op, level)`).
    pub op: FheOp,
    /// The batch's ciphertext level.
    pub level: usize,
    /// Global window-event tick at admission (freezes, admissions and
    /// joins share one counter, so scoreboard and window membership can
    /// be reconstructed exactly).
    pub admitted_at: u64,
    /// Global window-event tick at join.
    pub joined_at: u64,
    /// Number of batches already joined when this one was admitted; the
    /// join frontier is the max completion over exactly that prefix.
    pub joins_at_admit: usize,
    /// The join frontier snapshotted at admission (µs).
    pub frontier_us: f64,
    /// Instances coalesced into the batch.
    pub width: usize,
    /// The `(client, level)` independence keys of the plan.
    pub keys: Vec<(Arc<str>, usize)>,
    /// Whether any contributing request rides in a registered session.
    pub sessioned: bool,
    /// Key-staging time charged before the gang start (µs).
    pub upload_us: f64,
    /// `max(frontier, chosen device free times)` — where the gang would
    /// start if every key were resident (µs).
    pub stall_us: f64,
    /// The actual gang start: `stall_us` plus the upload charge (µs).
    pub start_us: f64,
    /// The batch's wall time — its longest shard (µs).
    pub wall_us: f64,
    /// `start_us + wall_us`: when the batch's last shard retired (µs).
    pub completion_us: f64,
    /// `(device, start, duration)` per placed shard (µs). Durations are
    /// kept instead of end times so `Σ duration` matches the attributed
    /// busy time without float cancellation.
    pub placements: Vec<(usize, f64, f64)>,
}

/// Everything the schedule verifier needs to know about the records that
/// were folded out of the trace: the state of the overlap clock at the
/// cut, and each cumulative stat's partial fold up to it. The cut is
/// always a quiescent point, so the records dropped are exactly the
/// batches with `seq < dropped`, which are also exactly those with
/// `serial_seq < dropped`. See the
/// [module docs](self#the-trace-is-a-window).
///
/// The scheduler keeps its live accumulators in this shape
/// ([`Scheduler::totals`]), and a base is a copy of them taken at a
/// quiescent point: every partial is read from the accumulator itself,
/// never recomputed. The settle totals (`busy_us` … `ops_completed`) are
/// what [`crate::service::ServiceStats`] reports under the same names.
///
/// Fields are public, like [`BatchRecord`]'s, so tests can doctor a base
/// and watch the verifier object.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBase {
    /// Records folded away: the `seq`, the `serial_seq` and the
    /// `joins_at_admit` the first kept record can have at the least. In
    /// the live totals: the batches joined so far.
    pub dropped: usize,
    /// The window-event tick at the cut: every dropped record's ticks lie
    /// below it, every kept record's at or above.
    pub event_tick: u64,
    /// The join frontier at the cut (µs): the max completion over the
    /// dropped records.
    pub frontier_us: f64,
    /// Each virtual device's free time at the cut (µs).
    pub free_at: Vec<f64>,
    /// Partial [`Scheduler::elapsed_us`] (max completion, join order).
    pub elapsed_us: f64,
    /// Partial [`Scheduler::serial_us`] (upload then wall, join order).
    pub serial_us: f64,
    /// Partial [`Scheduler::head_blocked_us`] (admission order).
    pub head_blocked_us: f64,
    /// Partial [`Scheduler::reorder_distance`].
    pub reorder_max: usize,
    /// `ServiceStats::busy_us`: Σ wall, settle (= serial) order.
    pub busy_us: f64,
    /// `ServiceStats::device_busy_us`, per device, settle order.
    pub device_busy_us: Vec<f64>,
    /// `ServiceStats::key_uploads`: batches that stalled on a key upload.
    pub key_uploads: usize,
    /// `ServiceStats::key_upload_us`, plan (= serial) order.
    pub key_upload_us: f64,
    /// `ServiceStats::ops_completed`: Σ width, settle order.
    pub ops_completed: usize,
}

impl TraceBase {
    /// The base of a trace nothing was folded out of: every count zero,
    /// every clock at time zero.
    #[must_use]
    pub fn empty(devices: usize) -> Self {
        Self {
            dropped: 0,
            event_tick: 0,
            frontier_us: 0.0,
            free_at: vec![0.0; devices],
            elapsed_us: 0.0,
            serial_us: 0.0,
            head_blocked_us: 0.0,
            reorder_max: 0,
            busy_us: 0.0,
            device_busy_us: vec![0.0; devices],
            key_uploads: 0,
            key_upload_us: 0.0,
            ops_completed: 0,
        }
    }
}

/// A joined batch handed back, in serial plan order, for attribution.
#[derive(Debug)]
pub struct Finished {
    /// `(request, instances)` per contributing request, in id
    /// (= submission) order.
    pub takes: Vec<(RequestId, usize)>,
    /// Total instances coalesced.
    pub width: usize,
    /// The merged executor result.
    pub result: BatchResult,
}

/// One batch from plan to join: its trace record, filled in place as the
/// batch is planned, admitted and joined, and the requests it serves.
/// The record's keys are the batch's independence keys, so the
/// scoreboard's and the window's key sets are read from their entries.
#[derive(Debug)]
struct Entry {
    record: BatchRecord,
    takes: Vec<(RequestId, usize)>,
}

/// Whether two sorted key lists share a key.
fn overlap(a: &[(Arc<str>, usize)], b: &[(Arc<str>, usize)]) -> bool {
    a.iter().any(|k| b.binary_search(k).is_ok())
}

/// The in-flight window, the overlap clock, the serial reorder buffer
/// every joined batch settles through, and (in out-of-order mode) the
/// pending scoreboard.
///
/// See the [module docs](self) for the scheduling model. The scheduler is
/// deliberately queue-agnostic: the service feeds it [`SlotView`]s and
/// applies the attribution itself, so the window logic stays independent
/// of how requests are stored.
#[derive(Debug)]
pub struct Scheduler {
    depth: usize,
    /// Admitted, unjoined batches in admission order, each with its pool
    /// handle. Their keys are disjoint by construction — a conflicting
    /// plan is never admitted.
    window: VecDeque<(Entry, ExecHandle)>,
    /// The live accumulators: `now.dropped` batches joined, the window
    /// event tick (one counter over freezes, admissions *and* joins, so
    /// the trace can reconstruct exact scoreboard and window membership),
    /// the overlap clock — join frontier, per-device virtual free times,
    /// makespan, and `serial_us`, what the makespan would be had every
    /// joined batch run alone (`Σ (key upload + wall)`, folded in join
    /// order with the overlap clock's own float operations) — the reorder
    /// stats and the batch totals.
    now: TraceBase,
    /// Most batches ever simultaneously in flight.
    inflight_hwm: usize,
    /// Structural trace of the newest joined batches, in join
    /// (= admission) order; see [`BatchRecord`]. `base.dropped +
    /// trace.len() == now.dropped`.
    trace: Vec<BatchRecord>,
    /// What was folded out of `trace` so far.
    base: TraceBase,
    /// The next base: a snapshot taken at the quiescent point that ended
    /// the old generation (`base.dropped ≤ mark.dropped ≤ now.dropped`).
    mark: TraceBase,
    /// Window-admission discipline.
    admission: AdmissionMode,
    /// Scoreboard lookahead: max plans frozen but not yet admitted.
    lookahead: usize,
    /// Aging bound: max eligible bypasses before forced admission.
    aging_bound: usize,
    /// Frozen-but-unadmitted plans, in serial order. Reservations,
    /// residency and fair-queue charges were applied when each was
    /// frozen, so the serial walk behind them sees exactly the queue
    /// state in-order admission would.
    pending: VecDeque<Entry>,
    /// Reorder buffer: joined batches keyed by `serial_seq`, waiting to
    /// settle in serial order.
    rob: BTreeMap<usize, Finished>,
    /// Plans frozen so far (the next plan's `serial_seq`).
    serial_count: usize,
    /// Batches settled so far (the next settleable `serial_seq`).
    settled_count: usize,
    /// `(op, level)` of the most recently admitted batch — the greedy
    /// preference. Reset to `None` whenever a join empties the window, so
    /// an empty window always admits the oldest plan (this is what makes
    /// depth-1 out-of-order bitwise identical to in-order).
    last_group: Option<(FheOp, usize)>,
}

impl Scheduler {
    /// Creates a scheduler with the given window depth over `devices`
    /// virtual device queues and an explicit admission policy.
    ///
    /// # Panics
    ///
    /// Panics on a zero depth, device count, lookahead or aging bound
    /// (the service builder rejects a zero depth or device count with a
    /// typed error first, and passes [`DEFAULT_LOOKAHEAD`] and
    /// [`DEFAULT_AGING_BOUND`]).
    #[must_use]
    pub fn with_policy(
        depth: usize,
        devices: usize,
        admission: AdmissionMode,
        lookahead: usize,
        aging_bound: usize,
    ) -> Self {
        assert!(depth > 0, "need a window of at least one batch");
        assert!(devices > 0, "need at least one device");
        assert!(lookahead > 0, "need a lookahead of at least one plan");
        assert!(
            aging_bound > 0,
            "need an aging bound of at least one bypass"
        );
        Self {
            depth,
            window: VecDeque::with_capacity(depth),
            now: TraceBase::empty(devices),
            inflight_hwm: 0,
            trace: Vec::new(),
            base: TraceBase::empty(devices),
            mark: TraceBase::empty(devices),
            admission,
            lookahead,
            aging_bound,
            pending: VecDeque::new(),
            rob: BTreeMap::new(),
            serial_count: 0,
            settled_count: 0,
            last_group: None,
        }
    }

    /// The structural trace of the newest joined batches, in join
    /// (= admission) order: everything since [`Scheduler::trace_base`].
    /// `tensorfhe-analyze::verify` consumes the pair.
    #[must_use]
    pub fn trace(&self) -> &[BatchRecord] {
        &self.trace
    }

    /// The carry-in of [`Scheduler::trace`]: what the records folded out
    /// of it amounted to. Empty until the trace first outgrows two
    /// generations.
    #[must_use]
    pub fn trace_base(&self) -> &TraceBase {
        &self.base
    }

    /// Whether nothing is in flight, frozen or awaiting settlement: the
    /// only kind of point a trace fold may cut at.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.window.is_empty() && self.pending.is_empty() && self.rob.is_empty()
    }

    /// Rotates the trace generations if this is a quiescent point and at
    /// least [`TRACE_WINDOW`] batches joined since the mark: drops the
    /// records older than the mark, promotes the mark to base, and
    /// snapshots the live [`Scheduler::totals`] as the new mark. Anywhere
    /// else it does nothing.
    pub fn fold_trace(&mut self) {
        let joined = self.now.dropped;
        if !self.quiescent() || joined - self.mark.dropped < TRACE_WINDOW {
            return;
        }
        debug_assert!(
            self.serial_count == joined && self.settled_count == joined,
            "quiescent scheduler with unsettled batches"
        );
        self.trace.drain(..self.mark.dropped - self.base.dropped);
        self.base = std::mem::replace(&mut self.mark, self.now.clone());
    }

    /// The live accumulators, in the shape a fold snapshots: the overlap
    /// clock, the reorder stats and the batch totals the service reports
    /// ([`TraceBase::busy_us`] is also the service's request-accounting
    /// clock). `dropped` here counts the batches joined so far.
    #[must_use]
    pub fn totals(&self) -> &TraceBase {
        &self.now
    }

    /// Batches settled so far: the service's `batches_dispatched`.
    #[must_use]
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Configured window depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Configured admission mode.
    #[must_use]
    pub fn admission(&self) -> AdmissionMode {
        self.admission
    }

    /// Configured scoreboard lookahead.
    #[must_use]
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Configured aging bound.
    #[must_use]
    pub fn aging_bound(&self) -> usize {
        self.aging_bound
    }

    /// Max `|admission index − serial plan index|` observed so far: how
    /// far the scoreboard has actually reordered admissions.
    #[must_use]
    pub fn reorder_distance(&self) -> usize {
        self.now.reorder_max
    }

    /// Total time admitted batches spent frozen in the scoreboard behind
    /// a blocked head (µs). Exactly 0.0 under in-order admission.
    #[must_use]
    pub fn head_blocked_us(&self) -> f64 {
        self.now.head_blocked_us
    }

    /// Whether another batch may be admitted.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.window.len() < self.depth
    }

    /// Whether another plan may be frozen into the scoreboard.
    #[must_use]
    pub fn can_freeze(&self) -> bool {
        self.admission == AdmissionMode::OutOfOrder && self.pending.len() < self.lookahead
    }

    /// Most batches ever simultaneously in flight.
    #[must_use]
    pub fn inflight_hwm(&self) -> usize {
        self.inflight_hwm
    }

    /// Overlap-clock makespan (µs): when the last device went idle. At
    /// `depth = 1` this is bit-identical to [`Scheduler::serial_us`]; at
    /// larger depths overlapped batches pull it below that sum.
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.now.elapsed_us
    }

    /// The serial reference of the overlap clock (µs): the makespan of
    /// the same batches run strictly one at a time, each paying its key
    /// upload stall and then its wall time. Never below
    /// [`Scheduler::elapsed_us`] — float addition is monotone, and every
    /// gang start is some earlier completion — and equal to the summed
    /// batch wall time when no batch ever stalled on an upload.
    #[must_use]
    pub fn serial_us(&self) -> f64 {
        self.now.serial_us
    }

    /// The serial coalescing walk shared by every admission mode: the
    /// first request with instances left defines the `(op, level)` group,
    /// then every matching request contributes, in the order `slots`
    /// yields them, up to `cap` instances. `slots` yields `(request id,
    /// view)` pairs; fully-reserved requests (`remaining == 0`) are
    /// skipped. `None` when no request has instances left.
    ///
    /// Planning never mutates and never looks at the window: the service
    /// applies the reservation itself, and asks [`Scheduler::blocks`]
    /// before an in-order admission.
    pub fn plan<'a, I>(cap: usize, slots: I) -> Option<BatchPlan>
    where
        I: IntoIterator<Item = (RequestId, SlotView<'a>)>,
    {
        let mut group: Option<(FheOp, usize)> = None;
        let mut width = 0usize;
        let mut takes: Vec<(RequestId, usize)> = Vec::new();
        let mut keys: Vec<(Arc<str>, usize)> = Vec::new();
        for (id, s) in slots {
            if s.remaining == 0 {
                continue;
            }
            let (op, level) = *group.get_or_insert((s.op, s.level));
            if s.op != op || s.level != level {
                continue;
            }
            let take = s.remaining.min(cap - width);
            if take > 0 {
                takes.push((id, take));
                width += take;
                keys.push((Arc::clone(s.client), s.level));
            }
            if width == cap {
                break;
            }
        }
        let (op, level) = group?;
        keys.sort_unstable();
        keys.dedup();
        // The keys end up in the batch's trace record, and the trace
        // window holds tens of thousands of records: copy them into an
        // exact-size buffer. (`shrink_to_fit` in place left each record's
        // spare tail to fragment the heap: +0.8 MiB of `svc_sim` RSS.)
        let mut exact = Vec::with_capacity(keys.len());
        exact.extend(keys);
        Some(BatchPlan {
            op,
            level,
            width,
            takes,
            upload_us: 0.0,
            sessioned: false,
            keys: exact,
        })
    }

    /// Whether `plan` shares a `(client, level)` stream with an in-flight
    /// batch: such a plan may not start until the window drains past it
    /// (program order within a client stream). Out-of-order freezing plans
    /// regardless; the scoreboard applies the same check at admission.
    #[must_use]
    pub fn blocks(&self, plan: &BatchPlan) -> bool {
        self.in_flight(&plan.keys)
    }

    /// Whether any of `keys` is held by a batch in the window.
    fn in_flight(&self, keys: &[(Arc<str>, usize)]) -> bool {
        self.window
            .iter()
            .any(|(e, _)| overlap(&e.record.keys, keys))
    }

    /// Turns a plan into its entry at its serial position: the record's
    /// plan-time fields filled, the plan's key upload counted (plans enter
    /// in serial order in both modes), the admission and join fields left
    /// for later.
    fn entry(&mut self, plan: BatchPlan) -> Entry {
        let BatchPlan {
            op,
            level,
            width,
            takes,
            upload_us,
            sessioned,
            keys,
        } = plan;
        if upload_us > 0.0 {
            self.now.key_uploads += 1;
            self.now.key_upload_us += upload_us;
        }
        let record = BatchRecord {
            seq: 0,
            serial_seq: self.serial_count,
            planned_at: self.now.event_tick,
            planned_frontier_us: self.now.frontier_us,
            bypassed: 0,
            op,
            level,
            admitted_at: 0,
            joined_at: 0,
            joins_at_admit: 0,
            frontier_us: 0.0,
            width,
            keys,
            sessioned,
            upload_us,
            stall_us: 0.0,
            start_us: 0.0,
            wall_us: 0.0,
            completion_us: 0.0,
            placements: Vec::new(),
        };
        self.serial_count += 1;
        Entry { record, takes }
    }

    /// Freezes the next serial plan into the scoreboard. The caller must
    /// have applied the reservation (and residency/fair-queue charges)
    /// already, exactly as it would before an in-order admission.
    ///
    /// # Panics
    ///
    /// Panics if the scoreboard is full or the scheduler is in-order
    /// ([`Scheduler::can_freeze`] gates every freeze).
    pub fn freeze(&mut self, plan: BatchPlan) {
        assert!(self.can_freeze(), "scoreboard is full or in-order");
        let entry = self.entry(plan);
        self.now.event_tick += 1;
        self.pending.push_back(entry);
    }

    /// Whether pending plan `idx` is key-eligible: disjoint from every
    /// in-flight batch *and* from every older pending plan (the
    /// program-order guard).
    fn keys_eligible(&self, idx: usize) -> bool {
        let keys = &self.pending[idx].record.keys;
        !self.in_flight(keys)
            && (self.pending.iter().take(idx)).all(|older| !overlap(&older.record.keys, keys))
    }

    /// The scoreboard pick: the pending index the greedy-then-oldest rule
    /// (with the aging gate) would admit next, or `None` when the window
    /// is full or nothing is eligible.
    fn pick_admissible(&self) -> Option<usize> {
        if !self.has_room() {
            return None;
        }
        // Aging gate: once any plan has been bypassed `aging_bound`
        // times, only plans at or before the oldest starving plan's
        // serial position may admit. A starving plan is always eligible
        // (eligibility is monotone: younger admissions are key-disjoint
        // from it by the program-order guard, and joins only release
        // keys), so the gate forces it through.
        let starve_min = (self.pending.iter())
            .filter(|e| e.record.bypassed >= self.aging_bound)
            .map(|e| e.record.serial_seq)
            .min();
        let mut gated = (0..self.pending.len()).filter(|&i| {
            starve_min.is_none_or(|m| self.pending[i].record.serial_seq <= m)
                && self.keys_eligible(i)
        });
        let first = gated.next()?;
        // Greedy: prefer the most recently admitted `(op, level)` group,
        // oldest among matches; else oldest eligible. `pending` is in
        // serial order, so index order is age order.
        let group = |i: usize| (self.pending[i].record.op, self.pending[i].record.level);
        Some(match self.last_group {
            Some(g) if group(first) != g => gated.find(|&i| group(i) == g).unwrap_or(first),
            _ => first,
        })
    }

    /// Admits the scoreboard's pick, if any plan is admissible: bumps the
    /// bypass count of every older pending plan that was key-eligible at
    /// this instant, hands the pick's batch to `dispatch`, and admits it
    /// with the handle `dispatch` returns. `false` when the window is full
    /// or no pending plan is eligible (`dispatch` is then not called).
    pub fn admit_next(&mut self, dispatch: impl FnOnce(ExecBatch) -> ExecHandle) -> bool {
        let Some(idx) = self.pick_admissible() else {
            return false;
        };
        // Only key-*eligible* older plans age: a key-blocked plan is
        // waiting on program order, not being skipped unfairly — and
        // counting it would let a long dependent chain trip the aging
        // gate while unadmittable, strangling all younger admissions.
        // (Eligibility reads keys only, so bumping as we go is exact.)
        for i in 0..idx {
            if self.keys_eligible(i) {
                self.pending[i].record.bypassed += 1;
            }
        }
        let entry = self
            .pending
            .remove(idx)
            .expect("the pick is a pending index");
        debug_assert!(
            entry.record.bypassed <= self.aging_bound,
            "aging bound violated at admission"
        );
        self.enter(entry, dispatch);
        true
    }

    /// Admits a planned batch into the window with the handle `dispatch`
    /// returns for its batch (in-order admission: planning and admission
    /// are one step, so the serial index advances here and the freeze
    /// snapshot equals the admission snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the window is full ([`Scheduler::has_room`] gates every
    /// admission) — admitting past `depth` would silently void the
    /// window-constraint semantics the overlap clock models.
    pub fn admit(&mut self, plan: BatchPlan, dispatch: impl FnOnce(ExecBatch) -> ExecHandle) {
        let entry = self.entry(plan);
        self.enter(entry, dispatch);
    }

    /// The shared admission step: fills the record's admission fields,
    /// dispatches the batch, pushes it into the window, and updates the
    /// greedy preference and reorder stats.
    fn enter(&mut self, mut entry: Entry, dispatch: impl FnOnce(ExecBatch) -> ExecHandle) {
        assert!(self.has_room(), "window is full");
        debug_assert!(
            !self.in_flight(&entry.record.keys),
            "dependent batch admitted: {:?}",
            entry.record.keys
        );
        let now = &mut self.now;
        let r = &mut entry.record;
        r.seq = now.dropped + self.window.len();
        r.admitted_at = now.event_tick;
        r.joins_at_admit = now.dropped;
        r.frontier_us = now.frontier_us;
        now.reorder_max = now.reorder_max.max(r.seq.abs_diff(r.serial_seq));
        // Same monotone variable sampled at freeze and at admission, so
        // the in-order difference is exactly 0.0 and the accumulator
        // never perturbs bit-identity.
        now.head_blocked_us += now.frontier_us - r.planned_frontier_us;
        now.event_tick += 1;
        self.last_group = Some((r.op, r.level));
        let handle = dispatch(ExecBatch {
            op: r.op,
            level: r.level,
            width: r.width,
        });
        self.window.push_back((entry, handle));
        self.inflight_hwm = self.inflight_hwm.max(self.window.len());
    }

    /// Joins the *oldest* in-flight batch (blocking if it is still
    /// executing), which releases its independence keys, advances the
    /// overlap clock, moves its record into the trace and parks the
    /// finished work in the reorder buffer under its serial index.
    /// Returns `false` when nothing was in flight. Settleable batches are
    /// then taken in serial order by [`Scheduler::settle_next`]; under
    /// in-order admission the joined batch is always the next one.
    pub fn join_next(&mut self, exec: &mut Pool) -> bool {
        let Some((Entry { mut record, takes }, handle)) = self.window.pop_front() else {
            return false;
        };
        let result = exec.join(handle);
        record.joined_at = self.now.event_tick;
        self.now.event_tick += 1;
        self.now.dropped += 1;
        self.advance_clock(&result, &mut record);
        // An empty window means the next admission starts a fresh
        // schedule epoch: the greedy preference must not leak across it,
        // or depth-1 out-of-order would reorder admissions and break
        // bit-identity with in-order mode.
        if self.window.is_empty() {
            self.last_group = None;
        }
        let (serial_seq, width) = (record.serial_seq, record.width);
        self.trace.push(record);
        let fin = Finished {
            takes,
            width,
            result,
        };
        let prev = self.rob.insert(serial_seq, fin);
        debug_assert!(prev.is_none(), "duplicate serial index in reorder buffer");
        true
    }

    /// Takes the reorder-buffer batch that is next in *serial* order, if
    /// it has joined, and folds it into the batch totals: busy time, each
    /// device's busy time and the ops completed. Settling strictly
    /// serially is what keeps attribution folds — and therefore reports
    /// and stats — bit-identical across admission modes.
    pub fn settle_next(&mut self) -> Option<Finished> {
        let fin = self.rob.remove(&self.settled_count)?;
        self.settled_count += 1;
        let now = &mut self.now;
        now.busy_us += fin.result.stats.time_us;
        for (busy, t) in now.device_busy_us.iter_mut().zip(&fin.result.per_device_us) {
            *busy += t;
        }
        now.ops_completed += fin.width;
        Some(fin)
    }

    /// The overlap-clock step for one joined batch: place its shards on
    /// the least-loaded virtual devices, gang-start them at the latest of
    /// the join frontier and those devices' free times, and record the
    /// completion.
    ///
    /// At `depth = 1` the frontier *is* the previous batch's completion
    /// (it was joined before this batch was admitted) and every device's
    /// free time is at most that, so the start collapses to the serial
    /// clock and the makespan accumulates exactly `Σ wall` — the same
    /// float additions, in the same order, as the service's busy-time
    /// accounting.
    fn advance_clock(&mut self, result: &BatchResult, record: &mut BatchRecord) {
        let mut shards: Vec<f64> = result
            .per_device_us
            .iter()
            .copied()
            .filter(|&t| t > 0.0)
            .collect();
        // Longest shard first (stable: equal shards keep device order).
        shards.sort_by(|a, b| b.partial_cmp(a).expect("shard times are finite"));
        let now = &mut self.now;
        debug_assert!(shards.len() <= now.free_at.len());
        // Least-loaded virtual devices first, ties to the lowest index.
        let mut order: Vec<usize> = (0..now.free_at.len()).collect();
        order.sort_by(|&a, &b| {
            now.free_at[a]
                .partial_cmp(&now.free_at[b])
                .expect("free times are finite")
                .then(a.cmp(&b))
        });
        let chosen = &order[..shards.len()];
        let mut start = record.frontier_us;
        for &d in chosen {
            start = start.max(now.free_at[d]);
        }
        record.stall_us = start;
        // Non-resident keys stall the gang on the copy engine before any
        // shard can launch. The guard keeps the anonymous/no-session path
        // bit-identical: `start + 0.0` is a float op this clock never did.
        // The serial reference pays the same stall, in the same order.
        if record.upload_us > 0.0 {
            start += record.upload_us;
            now.serial_us += record.upload_us;
        }
        now.serial_us += result.stats.time_us;
        // Longest shard onto the least-loaded device keeps queues level.
        for (&d, &t) in chosen.iter().zip(&shards) {
            now.free_at[d] = start + t;
            record.placements.push((d, start, t));
        }
        let completion = start + result.stats.time_us;
        record.start_us = start;
        record.wall_us = result.stats.time_us;
        record.completion_us = completion;
        now.elapsed_us = now.elapsed_us.max(completion);
        now.frontier_us = now.frontier_us.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, OpStats, Variant};
    use crate::exec::{ExecBackend, Pool};
    use tensorfhe_ckks::CkksParams;

    /// Test shorthand: leaks a tiny `Arc<str>` per call so literals can be
    /// passed where production code hands out `&Pending.client_key`.
    fn view(op: FheOp, level: usize, remaining: usize, client: &str) -> SlotView<'static> {
        let key: &'static Arc<str> = Box::leak(Box::new(Arc::from(client)));
        SlotView {
            op,
            level,
            remaining,
            client: key,
        }
    }

    fn result(per_device_us: Vec<f64>) -> BatchResult {
        let wall = per_device_us.iter().copied().fold(0.0f64, f64::max);
        BatchResult {
            stats: OpStats {
                time_us: wall,
                occupancy: 0.5,
                energy_j: 1.0,
                launches: 4,
                by_kernel: vec![],
            },
            per_device_us,
        }
    }

    fn sim_pool(devices: usize) -> Pool {
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let params = CkksParams::test_small();
        Pool::new(&cfg, &params, devices, 1, ExecBackend::Sim, 0).expect("valid pool")
    }

    fn sched(depth: usize, devices: usize) -> Scheduler {
        Scheduler::with_policy(
            depth,
            devices,
            AdmissionMode::InOrder,
            DEFAULT_LOOKAHEAD,
            DEFAULT_AGING_BOUND,
        )
    }

    fn ooo(depth: usize, devices: usize, lookahead: usize, aging: usize) -> Scheduler {
        Scheduler::with_policy(depth, devices, AdmissionMode::OutOfOrder, lookahead, aging)
    }

    /// Plans the single-request batch `(op, level, 1, client)` for request
    /// `id`, asserting it is independent of everything in flight.
    fn plan_one(s: &Scheduler, id: RequestId, op: FheOp, level: usize, client: &str) -> BatchPlan {
        let p = Scheduler::plan(4, [(id, view(op, level, 1, client))]).expect("planned");
        assert!(!s.blocks(&p), "expected an independent batch");
        p
    }

    /// Plans the single-request batch `(op, level, 1, client)` for request
    /// `id` without the in-flight key check and freezes it.
    fn freeze_one(s: &mut Scheduler, id: RequestId, op: FheOp, level: usize, client: &str) {
        let p = Scheduler::plan(4, [(id, view(op, level, 1, client))]).expect("planned");
        s.freeze(p);
    }

    /// Joins the oldest in-flight batch and settles it: under in-order
    /// admission it leaves the reorder buffer at once.
    fn join_and_settle(s: &mut Scheduler, exec: &mut Pool) -> Finished {
        assert!(s.join_next(exec), "nothing in flight");
        let fin = s.settle_next().expect("an in-order join settles at once");
        assert!(s.settle_next().is_none(), "one join settles one batch");
        fin
    }

    /// Admits the scoreboard's pick with a one-shard result and returns
    /// its `(op, level)`, or `None` when nothing is admissible.
    fn admit_pick(s: &mut Scheduler) -> Option<(FheOp, usize)> {
        let mut picked = None;
        s.admit_next(|b| {
            picked = Some((b.op, b.level));
            ExecHandle::ready(result(vec![1.0, 0.0]))
        });
        picked
    }

    #[test]
    fn plan_coalesces_the_head_group_fifo() {
        let slots = vec![
            (RequestId(1), view(FheOp::HMult, 3, 5, "a")),
            (RequestId(2), view(FheOp::Rescale, 3, 9, "b")),
            (RequestId(3), view(FheOp::HMult, 3, 4, "c")),
            (RequestId(4), view(FheOp::HMult, 2, 8, "a")),
        ];
        let p = Scheduler::plan(8, slots).expect("a batch");
        assert_eq!(p.op, FheOp::HMult);
        assert_eq!(p.level, 3);
        assert_eq!(p.width, 8);
        assert_eq!(
            p.takes,
            vec![(RequestId(1), 5), (RequestId(3), 3)],
            "cap-bounded FIFO takes"
        );
    }

    #[test]
    fn plan_skips_fully_reserved_slots_and_reports_empty() {
        let slots = [(RequestId(0), view(FheOp::HAdd, 1, 0, "a"))];
        assert!(Scheduler::plan(4, slots).is_none());
    }

    #[test]
    fn dependent_plans_block_until_keys_release() {
        let mut s = sched(4, 2);
        let first =
            Scheduler::plan(4, [(RequestId(0), view(FheOp::HMult, 3, 4, "a"))]).expect("a batch");
        s.admit(first, |_| ExecHandle::ready(result(vec![1.0, 1.0])));

        // Same client, same level, different op: program order applies.
        let chained = [(RequestId(1), view(FheOp::HAdd, 3, 2, "a"))];
        assert!(s.blocks(&Scheduler::plan(4, chained).expect("a batch")));
        // Same client at another level, or another client at the same
        // level: independent.
        for slots in [
            [(RequestId(1), view(FheOp::HAdd, 2, 2, "a"))],
            [(RequestId(1), view(FheOp::HAdd, 3, 2, "b"))],
        ] {
            assert!(
                !s.blocks(&Scheduler::plan(4, slots).expect("a batch")),
                "independent stream must not block"
            );
        }

        // Joining the holder releases the key.
        let mut exec = sim_pool(2);
        join_and_settle(&mut s, &mut exec);
        assert!(!s.blocks(&Scheduler::plan(4, chained).expect("a batch")));
    }

    #[test]
    fn window_depth_is_enforced() {
        let mut s = sched(2, 1);
        for i in 0..2 {
            let p = plan_one(&s, RequestId(i as u64), FheOp::HMult, i, "x");
            s.admit(p, |_| ExecHandle::ready(result(vec![1.0])));
        }
        assert!(!s.has_room());
        assert_eq!(s.window.len(), 2);
        assert_eq!(s.inflight_hwm(), 2);
        let ops: usize = s.window.iter().map(|(e, _)| e.record.width).sum();
        assert_eq!(ops, 2);
    }

    #[test]
    fn depth_one_overlap_clock_accumulates_serial_walls() {
        // The bit-identity cornerstone: at depth 1 the makespan is the
        // plain sum of batch wall times, by the same float additions.
        let mut exec = sim_pool(4);
        let mut s = sched(1, 4);
        let walls = [3.5f64, 1.25, 7.0];
        let mut serial = 0.0f64;
        for (i, &w) in walls.iter().enumerate() {
            let p = plan_one(&s, RequestId(i as u64), FheOp::HMult, 3, "c");
            // Ragged shards: the batch still gang-starts after the
            // previous completion because the window is one deep.
            s.admit(p, |_| ExecHandle::ready(result(vec![w, w / 2.0, 0.0, 0.0])));
            join_and_settle(&mut s, &mut exec);
            serial += w;
            assert_eq!(s.elapsed_us().to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn deep_window_overlaps_narrow_batches_onto_idle_devices() {
        // Four width-1 batches on a 4-device cluster: the serial clock
        // charges 4 walls, the overlap clock one.
        let mut exec = sim_pool(4);
        let mut s = sched(4, 4);
        for i in 0..4usize {
            let p = plan_one(&s, RequestId(i as u64), FheOp::HMult, i, "c");
            s.admit(p, |_| ExecHandle::ready(result(vec![10.0, 0.0, 0.0, 0.0])));
        }
        for _ in 0..4 {
            join_and_settle(&mut s, &mut exec);
        }
        assert_eq!(s.elapsed_us(), 10.0, "four batches share one wall");
        assert_eq!(s.inflight_hwm(), 4);

        // A fifth batch admitted after one join stacks behind the window
        // frontier, not at zero.
        let p = plan_one(&s, RequestId(9), FheOp::HMult, 9, "c");
        s.admit(p, |_| ExecHandle::ready(result(vec![10.0, 0.0, 0.0, 0.0])));
        join_and_settle(&mut s, &mut exec);
        assert_eq!(s.elapsed_us(), 20.0, "fifth batch queues behind the window");
    }

    #[test]
    fn scoreboard_admits_past_a_blocked_head() {
        // Chain: two same-(client, level) plans; the second is
        // key-blocked behind the first in flight. An independent tenant
        // frozen behind them admits past the blocked head.
        let mut s = ooo(4, 2, 8, 4);
        freeze_one(&mut s, RequestId(0), FheOp::HMult, 3, "chain");
        assert_eq!(admit_pick(&mut s), Some((FheOp::HMult, 3)));
        freeze_one(&mut s, RequestId(1), FheOp::Rescale, 3, "chain");
        freeze_one(&mut s, RequestId(2), FheOp::HMult, 5, "tenant");
        // The chain link is key-blocked (in-flight key); the tenant is
        // eligible and admits past it.
        assert_eq!(admit_pick(&mut s), Some((FheOp::HMult, 5)));
        assert_eq!(s.reorder_distance(), 1, "tenant overtook one plan");
        // The blocked chain link never aged: it was key-blocked, not
        // bypassed while eligible.
        assert_eq!(s.pending.len(), 1);
        assert_eq!(s.pending[0].record.bypassed, 0);
        assert_eq!(admit_pick(&mut s), None, "chain link still key-blocked");
    }

    #[test]
    fn greedy_prefers_the_last_admitted_group() {
        let mut s = ooo(8, 2, 8, 16);
        freeze_one(&mut s, RequestId(0), FheOp::HMult, 3, "a");
        freeze_one(&mut s, RequestId(1), FheOp::Rescale, 4, "b");
        freeze_one(&mut s, RequestId(2), FheOp::HMult, 3, "c");
        // Nothing in flight, no last group: oldest eligible wins.
        assert_eq!(admit_pick(&mut s), Some((FheOp::HMult, 3)));
        // Greedy: the (HMult, 3) plan from "c" jumps the older Rescale.
        assert_eq!(
            admit_pick(&mut s),
            Some((FheOp::HMult, 3)),
            "greedy group match"
        );
        assert_eq!(s.reorder_distance(), 1);
        // Bypassed while eligible: the Rescale plan aged once.
        assert_eq!(s.pending[0].record.bypassed, 1);
        assert_eq!(admit_pick(&mut s), Some((FheOp::Rescale, 4)));
    }

    #[test]
    fn aging_bound_forces_the_oldest_starving_plan() {
        // Aging bound 1: one eligible bypass and the gate closes around
        // the starving plan.
        let mut s = ooo(8, 2, 8, 1);
        freeze_one(&mut s, RequestId(0), FheOp::HMult, 3, "a");
        assert_eq!(admit_pick(&mut s), Some((FheOp::HMult, 3)));
        freeze_one(&mut s, RequestId(1), FheOp::Rescale, 4, "b");
        freeze_one(&mut s, RequestId(2), FheOp::HMult, 3, "c");
        // Greedy admits the (HMult, 3) group match, bypassing the
        // eligible Rescale.
        assert_eq!(admit_pick(&mut s), Some((FheOp::HMult, 3)));
        // The Rescale plan hit the bound: even after freezing another
        // greedy match, the gate forces the starving plan through.
        freeze_one(&mut s, RequestId(3), FheOp::HMult, 3, "d");
        assert_eq!(
            admit_pick(&mut s),
            Some((FheOp::Rescale, 4)),
            "aging gate wins"
        );
        assert_eq!(s.pending.len(), 1, "only the last greedy match waits");
    }

    #[test]
    fn rob_settles_in_serial_order() {
        let mut exec = sim_pool(2);
        let mut s = ooo(4, 2, 8, 4);
        // Chain blocks serial 1 behind serial 0; tenant (serial 2)
        // admits second. Joins pop admission order (0 then 2), but
        // settles must come out 0, then — only after 1 settles — 2.
        freeze_one(&mut s, RequestId(0), FheOp::HMult, 3, "chain");
        assert!(admit_pick(&mut s).is_some());
        freeze_one(&mut s, RequestId(1), FheOp::Rescale, 3, "chain");
        freeze_one(&mut s, RequestId(2), FheOp::HMult, 5, "tenant");
        assert!(admit_pick(&mut s).is_some());

        assert!(s.join_next(&mut exec), "serial 0 joins");
        let first = s.settle_next().expect("serial 0 settles immediately");
        assert_eq!(first.takes, vec![(RequestId(0), 1)]);
        assert!(s.settle_next().is_none());
        // Chain link (serial 1) is now eligible and admits.
        assert_eq!(admit_pick(&mut s), Some((FheOp::Rescale, 3)));
        // Joins pop admission order: tenant (serial 2) joins next and
        // parks in the reorder buffer until serial 1 settles.
        assert!(s.join_next(&mut exec));
        assert!(s.settle_next().is_none(), "serial 2 waits for 1");
        assert!(s.join_next(&mut exec));
        let rest: Vec<Finished> = std::iter::from_fn(|| s.settle_next()).collect();
        let ids: Vec<RequestId> = rest.iter().map(|f| f.takes[0].0).collect();
        assert_eq!(ids, vec![RequestId(1), RequestId(2)], "serial 1 unblocks 2");
        assert_eq!((s.settled_count(), s.totals().ops_completed), (3, 3));
        assert!(s.quiescent());
        assert_eq!(
            s.trace().iter().map(|r| r.serial_seq).collect::<Vec<_>>(),
            vec![0, 2, 1],
            "trace is join-ordered; serial order lives in serial_seq"
        );
        assert!(s.head_blocked_us() > 0.0, "chain link waited pending");
    }

    #[test]
    fn trace_folds_a_generation_at_a_time_at_quiescent_points_only() {
        let mut exec = sim_pool(2);
        let mut s = sched(2, 2);
        // Pairs of independent batches: two in flight, then both joined —
        // every second join is a quiescent point.
        let mut busy = 0.0f64;
        let mut elapsed_after = Vec::new(); // per pair, at its quiescent point
        let mut folds = Vec::new(); // batches joined when `dropped` moved
        for pair in 0..TRACE_WINDOW + 8 {
            for half in 0..2usize {
                let id = RequestId((2 * pair + half) as u64);
                let p = plan_one(&s, id, FheOp::HMult, half, "c");
                s.admit(p, |_| ExecHandle::ready(result(vec![1.5, 0.0])));
            }
            join_and_settle(&mut s, &mut exec);
            busy += 1.5;
            // Mid-pair: one batch still in flight, so never a fold — even
            // when the young generation is long enough.
            assert!(!s.quiescent());
            let (base, mark) = (s.base.clone(), s.mark.clone());
            s.fold_trace();
            assert_eq!((&s.base, &s.mark), (&base, &mark), "folded in flight");
            join_and_settle(&mut s, &mut exec);
            busy += 1.5;
            assert!(s.quiescent());
            assert_eq!(s.totals().busy_us.to_bits(), busy.to_bits());
            assert_eq!(s.totals().device_busy_us, vec![busy, 0.0]);
            elapsed_after.push(s.elapsed_us());
            let dropped = s.trace_base().dropped;
            s.fold_trace();
            if s.trace_base().dropped != dropped {
                folds.push(2 * (pair + 1));
            }
        }
        // Generation one closed at the first quiescent point with a window
        // of records — nothing older to drop yet — and became the base when
        // generation two closed a window later.
        assert_eq!(folds, vec![2 * TRACE_WINDOW]);
        let base = s.trace_base();
        assert_eq!(base.dropped, TRACE_WINDOW);
        assert_eq!(base.event_tick, 2 * TRACE_WINDOW as u64);
        assert_eq!(base.ops_completed, TRACE_WINDOW);
        // Read from the accumulators as they stood when it closed.
        let then = elapsed_after[TRACE_WINDOW / 2 - 1];
        assert_eq!(base.elapsed_us.to_bits(), then.to_bits());
        assert_eq!(base.frontier_us.to_bits(), then.to_bits());
        assert_eq!(base.busy_us, 1.5 * TRACE_WINDOW as f64);
        assert_eq!(base.device_busy_us, vec![1.5 * TRACE_WINDOW as f64, 0.0]);
        // The window: everything since the base, first record at `dropped`.
        assert_eq!(s.trace().len(), TRACE_WINDOW + 16);
        assert_eq!(s.trace()[0].seq, TRACE_WINDOW);
        assert_eq!(s.trace()[0].joins_at_admit, TRACE_WINDOW);
    }

    #[test]
    fn program_order_guard_holds_same_key_plans_back() {
        // Two same-key pending plans with nothing in flight: the younger
        // is never eligible while the older is pending, even though the
        // in-flight key set is empty.
        let mut s = ooo(4, 2, 8, 4);
        freeze_one(&mut s, RequestId(0), FheOp::HMult, 3, "a");
        freeze_one(&mut s, RequestId(1), FheOp::Rescale, 3, "a");
        assert_eq!(
            admit_pick(&mut s),
            Some((FheOp::HMult, 3)),
            "program order picks the older plan"
        );
        assert_eq!(
            admit_pick(&mut s),
            None,
            "younger same-key plan blocked behind in-flight older"
        );
    }
}
