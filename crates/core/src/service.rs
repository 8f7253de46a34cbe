//! The request-stream service front end (§IV-E as a *system* job).
//!
//! The paper's API layer "collects and decomposes the requests for FHE
//! operations from the user applications … automatically generates the best
//! batch size … and sequentially invokes the kernels in the workflow". The
//! seed code put the batch in the caller's hands; this module moves it where
//! the paper puts it — the service:
//!
//! 1. Many clients [`FheService::submit`] heterogeneous [`FheRequest`]s
//!    (operation + level + count + client tag) and get typed [`RequestId`]
//!    handles back.
//! 2. [`FheService::drain`] coalesces *compatible* queued requests — same
//!    operation at the same level — into VRAM-feasible batches (the
//!    `auto_batch` bound of §IV-E, multiplied across devices). One planning
//!    walk picks every batch: anonymous requests queue in bucket 0 of a
//!    deficit-round-robin rotation, each registered session in a bucket of
//!    its own. With no sessions bucket 0 is the only one, and the walk is
//!    plain coalescing in FIFO order across client tags. The coalescing
//!    rule and the in-flight window live in the
//!    [`crate::sched::Scheduler`]; `drain` is a thin loop that fills the
//!    window and settles completed batches.
//! 3. Each batch — an operation, a level and a width — is submitted to
//!    the one [`crate::exec::Pool`], which derives its kernel stream and
//!    costs its per-device shards on the calling thread, replaying the
//!    result of an identical earlier batch from its memo; its workers
//!    ([`crate::sched::SchedPolicy::workers`] or the `TENSORFHE_WORKERS`
//!    environment variable) run only the host backend's real-arithmetic
//!    chunks. With a pipeline depth above one
//!    ([`crate::sched::SchedPolicy::pipeline_depth`] /
//!    `TENSORFHE_PIPELINE`), up to
//!    `depth` *independent* batches stay submitted-but-unjoined at once —
//!    no two in-flight batches may contain requests from the same client
//!    stream at the same ciphertext level, so chained operations observe
//!    program order. Handles are joined in submission order, which keeps
//!    cost attribution back to the requests — every request's
//!    [`OpReport`], queue latency, and the aggregate [`ServiceStats`]
//!    (batch-fill efficiency, per-device utilization, ops/s, ops/W) —
//!    **bit-identical at every depth and worker count**; pipelining only
//!    moves the schedule-level overlap accounting
//!    ([`ServiceStats::elapsed_us`], [`ServiceStats::overlap_fraction`],
//!    [`ServiceStats::pipelined_ops_per_second`]). Every scheduler knob —
//!    workers, depth, and the opt-in out-of-order admission mode
//!    ([`crate::sched::AdmissionMode`], `TENSORFHE_ADMISSION`) — is
//!    configured through one typed
//!    [`crate::sched::SchedPolicy`] on the builder
//!    ([`TensorFheBuilder::sched`]).
//!
//! Time is *virtual* (simulated-device microseconds), consistent with the
//! rest of the reproduction: the service clock advances by the wall time of
//! each dispatched batch, so queue latency measures exactly the time a
//! request waited behind earlier batches.

use crate::api::{check_request, FheOp, OpReport, TensorFheBuilder};
use crate::engine::OpStats;
use crate::env::EnvConfig;
use crate::error::{CoreError, CoreResult};
use crate::exec::{ExecBackend, Pool};
use crate::sched::{
    AdmissionMode, BatchPlan, Finished, Scheduler, SlotView, DEFAULT_AGING_BOUND, DEFAULT_LOOKAHEAD,
};
use crate::session::{
    default_galois_steps, jain_index, key_set_bytes, ClientSession, CoalescePolicy, DrrState,
    KeyCache, ResidencyEvent, SessionConfig, SessionId, KEY_CACHE_VRAM_FRACTION,
};
use std::collections::{BTreeSet, VecDeque};
use tensorfhe_ckks::CkksParams;
use tensorfhe_gpu::DeviceConfig;

/// Fraction of a session's deadline budget below which its pending work is
/// scheduled *urgently*: earliest slack first, ahead of the fair-share
/// rotation, with partially-filled same-session batches allowed. A quarter
/// of the budget leaves the batch enough runway to actually execute.
const URGENCY_FRACTION: f64 = 0.25;

/// Typed handle to a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl RequestId {
    /// The raw numeric id (monotonically increasing per service).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One client request: `count` invocations of `op` at ciphertext `level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FheRequest {
    /// The operation.
    pub op: FheOp,
    /// Ciphertext level the operation runs at.
    pub level: usize,
    /// How many independent instances of the operation are requested.
    pub count: usize,
    /// Client tag (for fairness accounting and per-tenant reporting).
    pub client: String,
    /// The registered session this request belongs to, if any. Each
    /// session is its own fair-share bucket with its own resident key set;
    /// anonymous requests (`None`) share DRR bucket 0 and never pay a key
    /// upload.
    pub session: Option<SessionId>,
}

impl FheRequest {
    /// Creates an anonymous request.
    pub fn new(op: FheOp, level: usize, count: usize, client: impl Into<String>) -> Self {
        Self {
            op,
            level,
            count,
            client: client.into(),
            session: None,
        }
    }

    /// Creates a request inside a registered session. The report tag is
    /// the session's name (set at submission).
    pub fn in_session(op: FheOp, level: usize, count: usize, session: SessionId) -> Self {
        Self {
            op,
            level,
            count,
            client: String::new(),
            session: Some(session),
        }
    }
}

/// Completion report for one request: its attributed share of the batches
/// it rode in, plus queueing behaviour.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// The request handle.
    pub id: RequestId,
    /// Client tag the request carried.
    pub client: String,
    /// Level the request ran at.
    pub level: usize,
    /// Virtual time spent queued: submission → last instance completed (µs).
    pub queue_us: f64,
    /// Device batches this request's instances were coalesced into.
    pub batches: usize,
    /// The attributed operation report (`batch` = the request's `count`;
    /// time/energy/kernel shares are the request's proportional slice of
    /// the batches it shared with other requests). Its `by_kernel` rows
    /// are keyed by [`tensorfhe_gpu::KernelName`] — the kernel layer's
    /// interned `Arc<str>`, shared with the batch results the shares came
    /// from, in `str` order.
    pub report: OpReport,
}

/// Queue state of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Still queued, with this many operation instances left to run;
    /// nothing from this request is currently on a device.
    Queued {
        /// Instances not yet dispatched.
        remaining: usize,
    },
    /// Part of the request is reserved by the scheduler (a mid-drain
    /// state, observable between [`FheService::pump`] steps): inside a
    /// submitted-but-unjoined batch, or — under out-of-order admission —
    /// a plan frozen in the scoreboard or a batch awaiting serial
    /// settlement.
    InFlight {
        /// Instances inside in-flight batches (or scoreboard plans).
        executing: usize,
        /// Instances still queued behind them.
        remaining: usize,
    },
    /// Fully served; its report was (or will be) returned by the drain
    /// that completed it.
    Completed,
    /// Refused at submission by admission control (per-session or global
    /// queue bound); nothing was ever queued for it.
    Rejected,
    /// Dropped by the scheduler: its session's deadline budget expired
    /// before any instance ran, so the service shed it instead of doing
    /// already-late work.
    Shed,
}

/// Aggregate service statistics since construction.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests fully served.
    pub requests_completed: usize,
    /// Operation instances ever submitted (accepted *or* refused): every
    /// op is conserved — `ops_submitted = ops_completed + ops_shed +
    /// ops_rejected + pending`, the closure the schedule verifier holds
    /// the service to.
    pub ops_submitted: usize,
    /// Operation instances executed.
    pub ops_completed: usize,
    /// Operation instances dropped when their request was shed (deadline
    /// budget expired unserved).
    pub ops_shed: usize,
    /// Operation instances refused at submission by admission control.
    pub ops_rejected: usize,
    /// Device batches dispatched.
    pub batches_dispatched: usize,
    /// Kernel launches across all dispatched batches. Per-request launch
    /// attribution sums exactly to this total.
    pub launches: usize,
    /// Coalesced batch width the service will not exceed (never above the
    /// VRAM-feasible `auto_batch × devices`; user caps are clamped).
    pub batch_cap: usize,
    /// Devices serving the queue.
    pub devices: usize,
    /// Host threads running the host backend's real-arithmetic chunks
    /// (1 = the calling thread; always 1 on the simulated backend).
    pub workers: usize,
    /// Execution backend label ([`crate::exec::ExecBackend::label`]):
    /// `"sim"` or `"host-parallel"`. Every other field in this struct is
    /// bit-identical across the two.
    pub backend: &'static str,
    /// Configured in-flight window depth (1 = strictly synchronous
    /// rounds, the pre-scheduler behaviour).
    pub pipeline_depth: usize,
    /// Configured window-admission mode. Both modes produce bit-identical
    /// reports and request-accounting stats; out-of-order admission moves
    /// only the overlap clock (and the two reorder stats below).
    pub admission: AdmissionMode,
    /// Scoreboard lookahead (pending plans),
    /// [`crate::sched::DEFAULT_LOOKAHEAD`]; only consulted under
    /// out-of-order admission.
    pub lookahead: usize,
    /// Aging bound (eligible bypasses before forced admission),
    /// [`crate::sched::DEFAULT_AGING_BOUND`]; only consulted under
    /// out-of-order admission.
    pub aging_bound: usize,
    /// Max `|admission index − serial plan index|` the scoreboard
    /// actually reordered by. Always 0 under in-order admission.
    pub reorder_distance: usize,
    /// Total time admitted batches spent frozen in the scoreboard behind
    /// a blocked head (µs, virtual). Exactly 0.0 under in-order
    /// admission. A schedule-level diagnostic, excluded — like
    /// `elapsed_us` — from the depth-invariant request accounting.
    pub head_blocked_us: f64,
    /// Most batches ever simultaneously submitted-but-unjoined. `≤ 1`
    /// under a depth-1 window; larger values mean the scheduler really
    /// overlapped independent batches.
    pub inflight_hwm: usize,
    /// Busy time per device (µs, virtual), indexed by device: the sum of
    /// every shard that device executed under the canonical device-order
    /// shard layout. Sums across devices to the total attributed device
    /// time of all dispatched batches, and is depth-invariant (per
    /// *device slot*, not per worker thread — and with a pipeline
    /// depth above one the overlap clock may re-place shards onto idle
    /// device queues without moving this attribution).
    pub device_busy_us: Vec<f64>,
    /// Busy-time fraction per device: `device_busy_us[i] / busy_us`, i.e.
    /// the share of the service's busy window device `i` spent executing
    /// shards. `1.0` means the device was on the critical path of every
    /// batch (always true for a single device); utilizations times
    /// `busy_us` sum-match the total attributed launch time exactly.
    pub device_utilization: Vec<f64>,
    /// Mean fraction of the batch cap actually filled, in `(0, 1]`.
    pub batch_fill: f64,
    /// Total device busy time (µs, virtual): the sum of every dispatched
    /// batch's wall time — the serial reference clock requests are
    /// accounted against, identical at every pipeline depth.
    pub busy_us: f64,
    /// Overlap-clock makespan (µs, virtual): when the last device went
    /// idle under the scheduler's per-device FIFO model, key-upload stalls
    /// included. On the anonymous path (no uploads) bit-identical to
    /// [`ServiceStats::busy_us`] at depth 1; smaller whenever independent
    /// batches really overlapped.
    pub elapsed_us: f64,
    /// `1 − elapsed_us / serial`, where `serial` is the makespan of the
    /// same batches run one at a time — every batch's key-upload stall
    /// plus its wall time ([`crate::sched::Scheduler::serial_us`]): the
    /// fraction of the serial schedule the in-flight window hid by
    /// overlapping independent batches. Always in `[0, 1)`; exactly `0.0`
    /// at depth 1. (With no upload stalls `serial` is
    /// [`ServiceStats::busy_us`].)
    pub overlap_fraction: f64,
    /// Total energy charged (J).
    pub energy_j: f64,
    /// Mean queue latency over completed requests (µs, virtual).
    pub mean_queue_us: f64,
    /// Aggregate throughput: completed operations per second of busy time.
    /// Depth-invariant (the request-accounting metric).
    pub ops_per_second: f64,
    /// Schedule-level throughput: completed operations per second of
    /// *elapsed* (overlap-clock) time. Equals [`ServiceStats::ops_per_second`]
    /// at depth 1 and exceeds it exactly when batches overlapped — the
    /// `fig11_pipeline` metric.
    pub pipelined_ops_per_second: f64,
    /// Aggregate operations per watt (Table XI's service-level metric).
    pub ops_per_watt: f64,
    /// Key-cache hit rate over all residency lookups; `1.0` when no
    /// session traffic ever looked a key set up.
    pub key_cache_hit_rate: f64,
    /// Residency lookups that found the session's keys on-device.
    pub key_cache_hits: u64,
    /// Residency lookups that had to upload over PCIe.
    pub key_cache_misses: u64,
    /// Resident key sets displaced to make room for uploads.
    pub key_cache_evictions: u64,
    /// Batches that stalled on a key upload before their gang start.
    pub key_uploads: usize,
    /// Total key-staging time charged to batch critical paths (µs,
    /// virtual). Part of [`ServiceStats::elapsed_us`], never of
    /// [`ServiceStats::busy_us`] (the copy engine is not device compute).
    pub key_upload_us: f64,
    /// `(session name, ops served)` per registered session, in
    /// registration order.
    pub per_session_ops: Vec<(String, usize)>,
    /// Jain's fairness index over per-session served ops, in `(0, 1]`;
    /// `1.0` with no sessions (vacuously fair).
    pub fairness_index: f64,
    /// Completions that blew their session's deadline budget.
    pub deadline_misses: usize,
    /// Requests shed after their deadline expired unserved.
    pub shed_count: usize,
    /// Submissions refused by admission control.
    pub rejected_count: usize,
    /// Real-work chunks executed by a worker other than their device's
    /// owner ([`crate::exec::StealStats::steals`]). Always 0 on simulated
    /// backends. Scheduling telemetry — depends on thread timing, and is
    /// excluded (like `workers`/`backend`) from bit-identity contracts.
    pub steals: u64,
    /// Work units (NTT rows / Conv columns) inside those stolen chunks.
    /// Always 0 on simulated backends; telemetry like
    /// [`ServiceStats::steals`].
    pub stolen_rows: u64,
    /// Lanes of the Montgomery GEMM register tile
    /// (`tensorfhe_math::gemm_fast`): 0 for the simulated backend (no host
    /// arithmetic), [`tensorfhe_math::simd::active_lanes`] for
    /// `host-parallel`. A label of that tile only: the host executor's
    /// NTT chunks run the butterfly plan, so no host NTT runs on it (its
    /// conversion chunks run `BasisConvGemm`'s own block kernel). Never
    /// changes results.
    pub simd_lanes: usize,
}

/// A queued request with its accumulated attribution.
#[derive(Debug)]
struct Pending {
    id: RequestId,
    req: FheRequest,
    /// The client tag as a shared key: planning walks clone refcounts
    /// into independence keys instead of allocating strings.
    client_key: std::sync::Arc<str>,
    /// Instances not yet planned into any batch.
    remaining: usize,
    /// Instances reserved by submitted-but-unjoined batches.
    executing: usize,
    submitted_us: f64,
    time_us: f64,
    energy_j: f64,
    occ_weighted: f64,
    /// Exact kernel-launch count attributed to this request: shares are
    /// apportioned so every batch's launches sum exactly to the batch total
    /// (largest-remainder, FIFO tie-break).
    launches: u64,
    by_kernel: std::collections::BTreeMap<tensorfhe_gpu::KernelName, f64>,
    batches: usize,
}

impl Pending {
    /// The DRR bucket the request queues in: 0 for anonymous traffic,
    /// `s + 1` for session `s`.
    fn bucket(&self) -> usize {
        self.req.session.map_or(0, |s| s.0 as usize + 1)
    }
}

/// The batching FHE service front end.
///
/// Unfinished requests live in one table sorted by [`RequestId`]: ids are
/// issued in increasing order, so [`FheService::submit`] appends, and a
/// request leaves the table when it completes or is shed. Batch plans,
/// their takes and [`FheService::status`] all name requests by id and
/// find them by binary search, so the table holds exactly the requests
/// that are queued or in flight.
#[derive(Debug)]
pub struct FheService {
    params: CkksParams,
    pool: Pool,
    batch_cap: usize,
    /// Unfinished requests, sorted by id.
    queue: VecDeque<Pending>,
    /// The in-flight window, the overlap clock and the batch totals
    /// (busy time — the service's clock — per-device busy time, batches
    /// and ops settled, key uploads).
    sched: Scheduler,
    next_id: u64,
    // Cumulative accounting.
    requests_completed: usize,
    ops_submitted: usize,
    ops_shed: usize,
    ops_rejected: usize,
    launches_total: usize,
    fill_sum: f64,
    energy_j: f64,
    queue_latency_sum_us: f64,
    /// The model of every device in the pool: its name, its board power
    /// (ops/W) and, for sessions, its key-upload costing (launch overhead
    /// + DMA).
    device: DeviceConfig,
    // --- Session tier (all inert while `sessions` is empty) ---
    /// Registered sessions, indexed by `SessionId::raw()`.
    sessions: Vec<ClientSession>,
    /// Per-device LRU over session key-set footprints.
    key_cache: KeyCache,
    /// How the planning walk orders candidate slots.
    policy: CoalescePolicy,
    /// Deficit-round-robin buckets: 0 = anonymous, session `s` = `s + 1`.
    drr: DrrState,
    /// Global bound on queued session ops (admission control).
    global_queue_cap: Option<usize>,
    /// Session ops currently queued, service-wide.
    queued_session_ops: usize,
    rejected: BTreeSet<RequestId>,
    shed: BTreeSet<RequestId>,
    deadline_misses: usize,
}

impl FheService {
    /// Starts configuring a service — equivalent to
    /// [`crate::api::TensorFhe::builder`] followed by
    /// [`TensorFheBuilder::service`].
    #[must_use]
    pub fn builder(params: &CkksParams) -> TensorFheBuilder {
        TensorFheBuilder::new(params)
    }

    pub(crate) fn from_builder(b: TensorFheBuilder, env: &EnvConfig) -> CoreResult<Self> {
        if b.devices == 0 {
            return Err(CoreError::InvalidConfig("need at least one device".into()));
        }
        let cfg = b.engine_config();
        // Each knob: builder, then its `TENSORFHE_*` variable, then default.
        let workers = env.workers(b.sched.workers)?;
        let depth = env.pipeline(b.sched.pipeline)?;
        if depth == 0 {
            return Err(CoreError::InvalidConfig(
                "pipeline depth must be non-zero".into(),
            ));
        }
        let admission = env.admission(b.sched.admission)?;
        let backend = env.backend(b.backend)?;
        let rows_cap = env.rows_cap(b.rows_cap)?;
        let pool = Pool::new(&cfg, &b.params, b.devices, workers, backend, rows_cap)?;
        // §IV-E: the batch size is chosen by the API layer, bounded by VRAM
        // (and the parameter preset's configured batch), scaled across the
        // cluster — each device only ever holds its own shard.
        let vram_bytes = b.device.vram_bytes();
        let auto = crate::engine::auto_batch_for_vram(vram_bytes, &b.params);
        // A user-supplied cap may narrow batches below the VRAM bound but
        // never widen them past it: the docs promise "VRAM-feasible
        // batches", so caps above `auto_batch × devices` are clamped down.
        let vram_cap = auto * b.devices;
        let batch_cap = match b.batch_cap {
            Some(0) => {
                return Err(CoreError::InvalidConfig(
                    "batch cap must be non-zero".into(),
                ))
            }
            Some(cap) => cap.min(vram_cap),
            None => vram_cap,
        };
        if b.key_cache_mb == Some(0) {
            return Err(CoreError::InvalidConfig(
                "key cache capacity must be non-zero".into(),
            ));
        }
        // Unset, the key cache gets the VRAM slice the ciphertext batch
        // policy leaves free.
        let key_cache_bytes = match b.key_cache_mb {
            Some(mb) => mb.saturating_mul(1 << 20),
            None => (vram_bytes as f64 * KEY_CACHE_VRAM_FRACTION) as u64,
        };
        if b.global_queue_cap == Some(0) {
            return Err(CoreError::InvalidConfig(
                "global queue cap must be non-zero".into(),
            ));
        }
        // Bucket 0 is the anonymous traffic; sessions grow from 1.
        let mut drr = DrrState::new();
        drr.grow();
        Ok(Self {
            params: b.params,
            pool,
            batch_cap,
            queue: VecDeque::new(),
            sched: Scheduler::with_policy(
                depth,
                b.devices,
                admission,
                DEFAULT_LOOKAHEAD,
                DEFAULT_AGING_BOUND,
            ),
            next_id: 0,
            requests_completed: 0,
            ops_submitted: 0,
            ops_shed: 0,
            ops_rejected: 0,
            launches_total: 0,
            fill_sum: 0.0,
            energy_j: 0.0,
            queue_latency_sum_us: 0.0,
            device: b.device,
            sessions: Vec::new(),
            key_cache: KeyCache::new(key_cache_bytes, b.devices),
            policy: b.coalesce.unwrap_or_default(),
            drr,
            global_queue_cap: b.global_queue_cap,
            queued_session_ops: 0,
            rejected: BTreeSet::new(),
            shed: BTreeSet::new(),
            deadline_misses: 0,
        })
    }

    /// Parameter set the service runs.
    #[must_use]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Number of devices serving the queue.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.pool.devices()
    }

    /// Number of host worker threads driving the devices (1 = serial).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Real-arithmetic counters from the pool on the host backend;
    /// `None` under the simulated backend. The checksum is bit-identical
    /// across worker counts.
    #[must_use]
    pub fn host_work(&self) -> Option<crate::exec::HostWorkStats> {
        self.pool.host_work()
    }

    /// Work-stealing scheduler counters from the pool, when the
    /// service runs on a host backend; `None` under the simulated
    /// backend. `steals`/`stolen_rows` are thread-timing telemetry;
    /// `planned_rows == executed_rows` (work conservation) holds whenever
    /// every submitted batch has been drained.
    #[must_use]
    pub fn steal_stats(&self) -> Option<crate::exec::StealStats> {
        self.pool.steal_stats()
    }

    /// Device model name behind the pool, as reports print it.
    #[must_use]
    pub fn device_name(&self) -> &str {
        &self.device.name
    }

    /// The widest batch the service will coalesce.
    #[must_use]
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Configured in-flight window depth (1 = strictly synchronous).
    #[must_use]
    pub fn pipeline_depth(&self) -> usize {
        self.sched.depth()
    }

    /// Configured window-admission mode.
    #[must_use]
    pub fn admission(&self) -> AdmissionMode {
        self.sched.admission()
    }

    /// Whether out-of-order admission is actually driving the fill:
    /// configured out-of-order *and* no registered session carries a
    /// deadline. Deadline urgency and shedding read the settle clock,
    /// which under reordering would see a different (though equally
    /// valid) time at each decision point — so any deadline session
    /// drops the service back to the in-order fill, keeping deadline
    /// semantics exact.
    fn ooo_active(&self) -> bool {
        self.sched.admission() == AdmissionMode::OutOfOrder
            && self.sessions.iter().all(|s| s.deadline_us.is_none())
    }

    /// Registers a client session, deriving its simulated key-set
    /// footprint (galois + relinearisation keys) from the service's
    /// parameter set. The session becomes a deficit-round-robin bucket of
    /// its own next to bucket 0, the anonymous traffic, and its batches
    /// place its key set on the devices they run on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty name, a
    /// non-positive or non-finite weight or deadline, or a zero queue cap.
    pub fn register_session(&mut self, cfg: SessionConfig) -> CoreResult<SessionId> {
        if cfg.name.trim().is_empty() {
            return Err(CoreError::InvalidConfig(
                "session name must be non-empty".into(),
            ));
        }
        if !(cfg.weight.is_finite() && cfg.weight > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "session weight must be positive and finite, got {}",
                cfg.weight
            )));
        }
        if let Some(d) = cfg.deadline_us {
            if !(d.is_finite() && d > 0.0) {
                return Err(CoreError::InvalidConfig(format!(
                    "session deadline must be positive and finite, got {d}"
                )));
            }
            // A deadline session switches an out-of-order service back to
            // the in-order fill (deadline urgency/shedding read the
            // settle clock, which reordering would skew). The switch is
            // only sound from a fully quiescent scheduler: a reordered
            // window or live scoreboard cannot be settled in-order.
            if self.sched.admission() == AdmissionMode::OutOfOrder && !self.sched.quiescent() {
                return Err(CoreError::InvalidConfig(
                    "cannot register a deadline session while out-of-order \
                     batches are in flight; drain the service first"
                        .into(),
                ));
            }
        }
        if cfg.queue_cap == Some(0) {
            return Err(CoreError::InvalidConfig(
                "session queue cap must be non-zero".into(),
            ));
        }
        let steps = cfg
            .galois_steps
            .unwrap_or_else(|| default_galois_steps(&self.params));
        let id = SessionId(self.sessions.len() as u64);
        self.sessions.push(ClientSession {
            id,
            name: cfg.name.as_str().into(),
            key_bytes: key_set_bytes(&self.params, steps),
            weight: cfg.weight,
            deadline_us: cfg.deadline_us,
            queue_cap: cfg.queue_cap,
            queued_ops: 0,
            served_ops: 0,
        });
        self.drr.grow();
        Ok(id)
    }

    /// Registered sessions, in registration order.
    #[must_use]
    pub fn sessions(&self) -> &[ClientSession] {
        &self.sessions
    }

    /// A registered session by handle.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&ClientSession> {
        self.sessions.get(id.0 as usize)
    }

    /// The per-device key cache (residency + hit/miss/eviction
    /// accounting).
    #[must_use]
    pub fn key_cache(&self) -> &KeyCache {
        &self.key_cache
    }

    /// The key-cache residency event trace, oldest first — every miss is
    /// an upload, every displacement an eviction.
    #[must_use]
    pub fn residency_trace(&self) -> Vec<ResidencyEvent> {
        self.key_cache.trace()
    }

    /// The scheduler's structural trace: one [`crate::sched::BatchRecord`]
    /// per joined batch, in join (= admission) order; under out-of-order
    /// admission the serial plan order lives in each record's
    /// `serial_seq`. The schedule verifier in `tensorfhe-analyze` replays
    /// this against [`FheService::stats`] to prove the overlap clock —
    /// and the reorder rule — well-formed.
    ///
    /// The trace is a *window*: it always holds the newest
    /// [`crate::sched::TRACE_WINDOW`] records and never more than about
    /// twice that, so a long-lived service stays in constant memory; what
    /// was folded out of it is summed up in
    /// [`FheService::schedule_trace_base`]. Nothing is folded before
    /// `2 · TRACE_WINDOW` batches have been dispatched, so shorter runs
    /// see every record at its absolute index.
    #[must_use]
    pub fn schedule_trace(&self) -> &[crate::sched::BatchRecord] {
        self.sched.trace()
    }

    /// The carry-in of [`FheService::schedule_trace`]: how many records
    /// were folded out of the trace and what they amounted to — the state
    /// of the overlap clock at the cut and every cumulative stat's partial
    /// fold up to it. `base.dropped + schedule_trace().len()` is
    /// [`ServiceStats::batches_dispatched`] whenever the service is
    /// quiescent; the schedule verifier resumes its replay from here.
    #[must_use]
    pub fn schedule_trace_base(&self) -> &crate::sched::TraceBase {
        self.sched.trace_base()
    }

    /// Operation instances not yet completed (queued or in flight).
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        self.queue.iter().map(|p| p.remaining + p.executing).sum()
    }

    /// Requests not yet completed (queued or in flight).
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Queue state of a request handle: one lookup in the request table,
    /// after the rejected and shed sets. An issued id that is in none of
    /// them has completed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRequest`] for a handle this service
    /// never issued.
    pub fn status(&self, id: RequestId) -> CoreResult<RequestStatus> {
        if id.0 >= self.next_id {
            return Err(CoreError::UnknownRequest(id));
        }
        if self.rejected.contains(&id) {
            return Ok(RequestStatus::Rejected);
        }
        if self.shed.contains(&id) {
            return Ok(RequestStatus::Shed);
        }
        Ok(match self.slot(id).map(|i| &self.queue[i]) {
            Some(p) if p.executing > 0 => RequestStatus::InFlight {
                executing: p.executing,
                remaining: p.remaining,
            },
            Some(p) => RequestStatus::Queued {
                remaining: p.remaining,
            },
            None => RequestStatus::Completed,
        })
    }

    /// Enqueues a request, returning its typed handle.
    ///
    /// A session request past its session's queue bound (or the global
    /// [`crate::api::TensorFheBuilder::global_queue_cap`]) is *not* an
    /// error: it still gets a handle, but nothing is queued and its
    /// status reads [`RequestStatus::Rejected`] — admission control is an
    /// outcome the client observes, not a caller bug.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRequest`] for a zero `count`, a level
    /// above the parameter set's modulus chain, a bootstrap on a chain
    /// too shallow for it (the checks of [`check_request`]), or an
    /// unregistered session handle.
    pub fn submit(&mut self, req: FheRequest) -> CoreResult<RequestId> {
        check_request(&self.params, req.op, req.level, req.count)?;
        let mut req = req;
        if let Some(sid) = req.session {
            let Some(s) = self.sessions.get(sid.0 as usize) else {
                return Err(CoreError::InvalidRequest(format!(
                    "unknown session id {}",
                    sid.raw()
                )));
            };
            if req.client.is_empty() {
                req.client = s.name.to_string();
            }
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.ops_submitted += req.count;
        if let Some(sid) = req.session {
            let s = &self.sessions[sid.0 as usize];
            let over_session = s
                .queue_cap
                .is_some_and(|cap| s.queued_ops + req.count > cap);
            let over_global = self
                .global_queue_cap
                .is_some_and(|cap| self.queued_session_ops + req.count > cap);
            if over_session || over_global {
                self.rejected.insert(id);
                self.ops_rejected += req.count;
                return Ok(id);
            }
            self.sessions[sid.0 as usize].queued_ops += req.count;
            self.queued_session_ops += req.count;
        }
        let remaining = req.count;
        let client_key: std::sync::Arc<str> = req.client.as_str().into();
        self.queue.push_back(Pending {
            id,
            req,
            client_key,
            remaining,
            executing: 0,
            submitted_us: self.clock_us(),
            time_us: 0.0,
            energy_j: 0.0,
            occ_weighted: 0.0,
            launches: 0,
            by_kernel: Default::default(),
            batches: 0,
        });
        Ok(id)
    }

    /// Enqueues a whole stream of requests.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid request; earlier ones stay enqueued.
    pub fn submit_stream(
        &mut self,
        reqs: impl IntoIterator<Item = FheRequest>,
    ) -> CoreResult<Vec<RequestId>> {
        reqs.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Serves the queue to exhaustion: keeps the scheduler's in-flight
    /// window filled with independent FIFO-coalesced batches (same
    /// operation, same level, up to the batch cap), joins them in
    /// submission order, and attributes each batch's cost to the requests
    /// that rode in it. Returns the completion reports in completion
    /// order — bit-identical at every pipeline depth and worker count.
    /// Draining an empty queue is a no-op returning no reports.
    pub fn drain(&mut self) -> Vec<RequestReport> {
        let mut done = Vec::new();
        while self.pump_into(&mut done) {}
        self.sched.fold_trace();
        done
    }

    /// One scheduler step: tops up the in-flight window, then joins and
    /// settles the oldest in-flight batch (if any), returning whatever
    /// requests that completed. [`FheService::drain`] is exactly a loop
    /// over `pump`; stepping manually lets callers interleave
    /// [`FheService::status`] queries (observing
    /// [`RequestStatus::InFlight`]) or new submissions mid-drain. Returns
    /// an empty vector once the queue and window are exhausted.
    pub fn pump(&mut self) -> Vec<RequestReport> {
        let mut done = Vec::new();
        self.pump_into(&mut done);
        self.sched.fold_trace();
        done
    }

    /// The request-accounting clock (µs, virtual): the busy time of every
    /// settled batch, which the scheduler keeps.
    fn clock_us(&self) -> f64 {
        self.sched.totals().busy_us
    }

    /// The drain step: fill the window, join the oldest batch, and settle
    /// every batch that is now next in serial order. `false` once nothing
    /// is in flight (the queue holds no plannable work). Under in-order
    /// admission the joined batch settles at once; under out-of-order
    /// admission it may park in the reorder buffer, so one step can settle
    /// zero batches (the settle lands on a later step, once the serial
    /// predecessor joins) or several.
    fn pump_into(&mut self, done: &mut Vec<RequestReport>) -> bool {
        self.fill_window();
        if !self.sched.join_next(&mut self.pool) {
            return false;
        }
        while let Some(fin) = self.sched.settle_next() {
            self.settle(fin, done);
        }
        true
    }

    /// Plans and admits batches until the window is full, the next batch
    /// is blocked on an in-flight client stream, or the queue runs dry.
    /// Reservation happens at *plan* time (`remaining → executing`) so
    /// later plans — made while earlier batches are still in flight —
    /// see exactly the queue state the serial path would.
    fn fill_window(&mut self) {
        if self.ooo_active() {
            self.fill_window_ooo();
        } else {
            while self.sched.has_room() {
                let Some((mut plan, bucket, alone)) = self.next_plan() else {
                    break;
                };
                if self.sched.blocks(&plan) {
                    break;
                }
                self.apply_plan(&mut plan, bucket, alone);
                self.sched.admit(plan, |batch| self.pool.submit(batch));
            }
        }
    }

    /// The out-of-order fill: run the *serial* planning walk speculatively
    /// ahead (freezing up to `lookahead` plans with their reservations and
    /// charges applied, exactly as in-order admission would), then let the
    /// scoreboard admit whatever eligible plan the greedy-then-oldest rule
    /// picks — possibly past a key-blocked head. Admissions free scoreboard
    /// slots and freezes create admission candidates, so the loop
    /// alternates until neither side progresses.
    fn fill_window_ooo(&mut self) {
        loop {
            let mut progressed = false;
            while self.sched.can_freeze() {
                let Some((mut plan, bucket, alone)) = self.next_plan() else {
                    break;
                };
                self.apply_plan(&mut plan, bucket, alone);
                self.sched.freeze(plan);
                progressed = true;
            }
            while self.sched.admit_next(|batch| self.pool.submit(batch)) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// The serial planning walk, shared by in-order admission and
    /// out-of-order freezing: pick the bucket that goes next
    /// ([`FheService::session_pick`]), then coalesce live slots in the
    /// policy's order. The chosen bucket's slots lead (they define the
    /// batch's `(op, level)` group); unless the batch ships alone, the
    /// policy decides the top-up: `KeyAffinity` keeps the rest of the
    /// chosen bucket first so a batch spans fewer key sets, `Blind` tops
    /// up in pure queue order, the fig12 comparison arm. Returns the
    /// plan, its bucket and whether it ships alone — what
    /// [`FheService::apply_plan`] needs — or `None` when nothing
    /// is left to plan.
    fn next_plan(&mut self) -> Option<(BatchPlan, usize, bool)> {
        let (bucket, alone, lead) = self.session_pick()?;
        let blind = !alone && self.policy == CoalescePolicy::Blind;
        // `Blind` leads with the bucket's oldest slot only; a batch that
        // ships alone gets no top-up.
        let own =
            self.live()
                .filter(|p| p.bucket() == bucket)
                .take(if blind { 1 } else { usize::MAX });
        let top_up = self
            .live()
            .take(if alone { 0 } else { usize::MAX })
            .filter(|p| {
                if blind {
                    p.id != lead
                } else {
                    p.bucket() != bucket
                }
            });
        let slots = own.chain(top_up).map(|p| {
            let view = SlotView {
                op: p.req.op,
                level: p.req.level,
                remaining: p.remaining,
                client: &p.client_key,
            };
            (p.id, view)
        });
        Scheduler::plan(self.batch_cap, slots).map(|plan| (plan, bucket, alone))
    }

    /// Every request with instances left to plan, in id (= submission)
    /// order.
    fn live(&self) -> impl Iterator<Item = &Pending> + '_ {
        self.queue.iter().filter(|p| p.remaining > 0)
    }

    /// The table index of an unfinished request.
    fn slot(&self, id: RequestId) -> Option<usize> {
        self.queue.binary_search_by_key(&id, |p| p.id).ok()
    }

    /// Picks who goes next: shed expired deadline work, then take an
    /// urgent deadline session (earliest slack first) or else the deficit
    /// round robin's pick. Returns `(bucket, ships alone, the bucket's
    /// oldest live request)`, or `None` when no bucket has plannable work.
    fn session_pick(&mut self) -> Option<(usize, bool, RequestId)> {
        if self.sessions.is_empty() {
            // Bucket 0 is the only bucket: nothing to shed, no share to
            // charge and nobody to top up from, so it ships alone.
            return Some((0, true, self.live().next()?.id));
        }
        self.shed_expired();
        // Per-bucket backlog and oldest live request: bucket 0 is
        // anonymous, session `s` is bucket `s + 1`.
        let buckets = self.sessions.len() + 1;
        let mut pending = vec![0usize; buckets];
        let mut oldest: Vec<Option<(RequestId, f64)>> = vec![None; buckets];
        for p in self.live() {
            let b = p.bucket();
            pending[b] += p.remaining;
            oldest[b].get_or_insert((p.id, p.submitted_us));
        }
        // Urgent pass: a deadline session whose oldest pending
        // request's slack dips below URGENCY_FRACTION of its budget
        // jumps the fair-share rotation (earliest slack first) and
        // ships alone — partially filled beats late.
        let mut urgent: Option<(f64, usize)> = None;
        for s in &self.sessions {
            let b = s.id.0 as usize + 1;
            let (Some(deadline), Some((_, submitted_us))) = (s.deadline_us, oldest[b]) else {
                continue;
            };
            let slack = deadline - (self.clock_us() - submitted_us);
            if slack <= deadline * URGENCY_FRACTION {
                let better = match urgent {
                    Some((best, _)) => slack < best,
                    None => true,
                };
                if better {
                    urgent = Some((slack, b));
                }
            }
        }
        let (bucket, alone) = match urgent {
            Some((_, b)) => (b, true),
            None => {
                let want: Vec<usize> = pending.iter().map(|&p| p.min(self.batch_cap)).collect();
                let quantum: Vec<f64> = std::iter::once(1.0)
                    .chain(self.sessions.iter().map(|s| s.weight))
                    .map(|w| w * self.batch_cap as f64)
                    .collect();
                self.drr.select(&want, &quantum).map(|b| (b, false))?
            }
        };
        let (lead, _) = oldest[bucket].expect("a picked bucket has live work");
        Some((bucket, alone, lead))
    }

    /// Applies a planned batch's plan-time side effects exactly once —
    /// reservation, key-cache residency placement of the session key sets
    /// riding it (with the upload charge on the batch's critical path),
    /// and the fair-share credit charge. In-order admission runs this
    /// immediately before admitting; out-of-order freezing runs it at
    /// freeze time, so the serial walk's inputs evolve identically in both
    /// modes.
    fn apply_plan(&mut self, plan: &mut BatchPlan, bucket: usize, alone: bool) {
        // Residency: the distinct session key sets riding
        // this batch (id order) are placed on the shard
        // devices; non-resident sets pay the upload on the
        // batch's critical path.
        let mut keys: Vec<(SessionId, u64)> = Vec::new();
        let mut charged = 0usize;
        for &(id, take) in &plan.takes {
            let i = self.slot(id).expect("take names an unfinished request");
            let p = &mut self.queue[i];
            p.remaining -= take;
            p.executing += take;
            if p.bucket() == bucket {
                charged += take;
            }
            if let Some(sid) = p.req.session {
                if !keys.iter().any(|&(s, _)| s == sid) {
                    keys.push((sid, self.sessions[sid.0 as usize].key_bytes));
                }
            }
        }
        keys.sort_by_key(|&(s, _)| s);
        plan.sessioned = !keys.is_empty();
        if !keys.is_empty() {
            let shards = crate::exec::shard_widths(plan.width, self.devices())
                .iter()
                .filter(|&&w| w > 0)
                .count();
            let upload_bytes = self.key_cache.place(&keys, shards);
            if upload_bytes > 0 {
                plan.upload_us = crate::engine::key_upload_us(upload_bytes, &self.device);
            }
        }
        // Urgent batches jump the rotation without spending
        // credit; fair-share batches are charged only the
        // width their own bucket contributed (top-up from
        // other sessions is their service, not this one's).
        if !alone {
            self.drr.charge(bucket, charged);
        }
    }

    /// Sheds session requests whose deadline budget expired before any
    /// instance ran: they leave the table (no plan names an unplanned
    /// request) and surface as [`RequestStatus::Shed`]. Partially-served
    /// requests are never shed; their eventual completion counts as a
    /// deadline miss instead.
    fn shed_expired(&mut self) {
        let now = self.clock_us();
        self.queue.retain(|p| {
            let Some(sid) = p.req.session else {
                return true;
            };
            let s = &mut self.sessions[sid.0 as usize];
            let expired = s.deadline_us.is_some_and(|deadline| {
                p.executing == 0 && p.batches == 0 && now - p.submitted_us > deadline
            });
            if expired {
                self.shed.insert(p.id);
                self.ops_shed += p.remaining;
                s.queued_ops -= p.remaining;
                self.queued_session_ops -= p.remaining;
            }
            !expired
        });
    }

    /// Attributes one completed batch to the requests that rode in it and
    /// finalizes any that are now fully served. The scheduler has already
    /// folded it into the batch totals, the clock included. `takes` is in
    /// id (= submission) order and batches settle in serial plan order, so
    /// report order is FIFO exactly as the synchronous drain produced.
    fn settle(&mut self, fin: Finished, done: &mut Vec<RequestReport>) {
        let Finished {
            takes,
            width,
            result,
        } = fin;
        let stats = result.stats;
        self.energy_j += stats.energy_j;
        self.launches_total += stats.launches;
        self.fill_sum += width as f64 / self.batch_cap as f64;

        let launch_shares = Self::apportion(stats.launches as u64, &takes, width);
        for (&(id, take), &launches) in takes.iter().zip(&launch_shares) {
            let share = take as f64 / width as f64;
            let i = self.slot(id).expect("take names an unfinished request");
            let p = &mut self.queue[i];
            p.executing -= take;
            p.batches += 1;
            p.time_us += stats.time_us * share;
            p.energy_j += stats.energy_j * share;
            p.occ_weighted += stats.occupancy * stats.time_us * share;
            p.launches += launches;
            for (k, t) in &stats.by_kernel {
                crate::exec::add_kernel_time(&mut p.by_kernel, k, t * share);
            }
            if let Some(sid) = p.req.session {
                let s = &mut self.sessions[sid.0 as usize];
                s.served_ops += take;
                s.queued_ops -= take;
                self.queued_session_ops -= take;
            }
            // Only requests the batch touched can have completed.
            if p.remaining == 0 && p.executing == 0 {
                let p = self.queue.remove(i).expect("looked up");
                done.push(self.finalize(p));
            }
        }
    }

    /// Cumulative service statistics.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let totals = self.sched.totals();
        let busy_us = totals.busy_us;
        let batches = self.sched.settled_count();
        let ops_per_second = if busy_us > 0.0 {
            totals.ops_completed as f64 / (busy_us * 1e-6)
        } else {
            0.0
        };
        let device_utilization = (totals.device_busy_us.iter())
            .map(|&t| if busy_us > 0.0 { t / busy_us } else { 0.0 })
            .collect();
        let elapsed_us = self.sched.elapsed_us();
        // Measured against the serial makespan *with* the upload stalls
        // the overlap clock charges — against `busy_us`, which has none,
        // a session-heavy run read far below zero. At depth 1 `elapsed`
        // and `serial` are the same accumulation, so the ratio is exactly
        // 1.0 and the overlap exactly 0.0.
        let serial_us = self.sched.serial_us();
        let overlap_fraction = if serial_us > 0.0 {
            1.0 - elapsed_us / serial_us
        } else {
            0.0
        };
        let pipelined_ops_per_second = if elapsed_us > 0.0 {
            totals.ops_completed as f64 / (elapsed_us * 1e-6)
        } else {
            0.0
        };
        ServiceStats {
            requests_completed: self.requests_completed,
            ops_submitted: self.ops_submitted,
            ops_completed: totals.ops_completed,
            ops_shed: self.ops_shed,
            ops_rejected: self.ops_rejected,
            batches_dispatched: batches,
            launches: self.launches_total,
            batch_cap: self.batch_cap,
            devices: self.devices(),
            workers: self.workers(),
            backend: self.pool.backend().label(),
            pipeline_depth: self.sched.depth(),
            admission: self.sched.admission(),
            lookahead: self.sched.lookahead(),
            aging_bound: self.sched.aging_bound(),
            reorder_distance: self.sched.reorder_distance(),
            head_blocked_us: self.sched.head_blocked_us(),
            inflight_hwm: self.sched.inflight_hwm(),
            device_busy_us: totals.device_busy_us.clone(),
            device_utilization,
            batch_fill: if batches > 0 {
                self.fill_sum / batches as f64
            } else {
                0.0
            },
            busy_us,
            elapsed_us,
            overlap_fraction,
            energy_j: self.energy_j,
            mean_queue_us: if self.requests_completed > 0 {
                self.queue_latency_sum_us / self.requests_completed as f64
            } else {
                0.0
            },
            ops_per_second,
            pipelined_ops_per_second,
            ops_per_watt: ops_per_second / self.power_watts(),
            key_cache_hit_rate: self.key_cache.hit_rate(),
            key_cache_hits: self.key_cache.hits(),
            key_cache_misses: self.key_cache.misses(),
            key_cache_evictions: self.key_cache.evictions(),
            key_uploads: totals.key_uploads,
            key_upload_us: totals.key_upload_us,
            per_session_ops: self
                .sessions
                .iter()
                .map(|s| (s.name.to_string(), s.served_ops))
                .collect(),
            fairness_index: jain_index(
                &self
                    .sessions
                    .iter()
                    .map(|s| s.served_ops as f64)
                    .collect::<Vec<_>>(),
            ),
            deadline_misses: self.deadline_misses,
            shed_count: self.shed.len(),
            rejected_count: self.rejected.len(),
            steals: self.pool.steal_stats().map_or(0, |s| s.steals),
            stolen_rows: self.pool.steal_stats().map_or(0, |s| s.stolen_rows),
            simd_lanes: match self.pool.backend() {
                ExecBackend::Sim => 0,
                ExecBackend::HostParallel => tensorfhe_math::simd::active_lanes(),
            },
        }
    }

    /// Splits a batch's `total` launches across its `takes` proportionally
    /// to instance counts so the shares sum *exactly* to `total`
    /// (largest-remainder apportionment, FIFO tie-break). `round()`-ing each
    /// share independently let per-request launch totals drift from the
    /// batch totals.
    fn apportion(total: u64, takes: &[(RequestId, usize)], width: usize) -> Vec<u64> {
        let width = width as u64;
        let mut shares: Vec<u64> = takes
            .iter()
            .map(|&(_, take)| total * take as u64 / width)
            .collect();
        let mut remainder = total - shares.iter().sum::<u64>();
        // Stable sort keeps submission order among equal remainders.
        let mut order: Vec<usize> = (0..takes.len()).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(total * takes[j].1 as u64 % width));
        for &j in &order {
            if remainder == 0 {
                break;
            }
            shares[j] += 1;
            remainder -= 1;
        }
        shares
    }

    fn finalize(&mut self, p: Pending) -> RequestReport {
        let queue_us = self.clock_us() - p.submitted_us;
        self.requests_completed += 1;
        self.queue_latency_sum_us += queue_us;
        if let Some(sid) = p.req.session {
            if self.sessions[sid.0 as usize]
                .deadline_us
                .is_some_and(|d| queue_us > d)
            {
                self.deadline_misses += 1;
            }
        }
        let occupancy = if p.time_us > 0.0 {
            p.occ_weighted / p.time_us
        } else {
            0.0
        };
        let stats = OpStats {
            time_us: p.time_us,
            occupancy,
            energy_j: p.energy_j,
            launches: p.launches as usize,
            by_kernel: p.by_kernel.into_iter().collect(),
        };
        RequestReport {
            id: p.id,
            client: p.req.client,
            level: p.req.level,
            queue_us,
            batches: p.batches,
            report: OpReport::from_stats(p.req.op, p.req.count, self.power_watts(), stats),
        }
    }

    /// Board power of the whole cluster (W): every device draws its
    /// model's figure.
    fn power_watts(&self) -> f64 {
        self.device.power_watts * self.devices() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TensorFhe;
    use crate::engine::Variant;

    fn service() -> FheService {
        TensorFhe::builder(&CkksParams::test_small())
            .variant(Variant::TensorCore)
            .service()
            .expect("valid service config")
    }

    #[test]
    fn empty_queue_drain_is_a_noop() {
        let mut svc = service();
        let reports = svc.drain();
        assert!(reports.is_empty());
        let s = svc.stats();
        assert_eq!(s.batches_dispatched, 0);
        assert_eq!(s.ops_completed, 0);
        assert_eq!(s.busy_us, 0.0);
    }

    #[test]
    fn a_cluster_reports_its_board_power_and_vram() {
        // Four devices draw four boards' power, and each device's VRAM
        // bounds its own shard and its key cache.
        let params = CkksParams::test_small();
        let device = DeviceConfig::a100();
        let mut svc = TensorFhe::builder(&params)
            .devices(4)
            .service()
            .expect("valid service config");
        assert_eq!((svc.devices(), svc.device_name()), (4, &*device.name));
        let auto = crate::engine::auto_batch_for_vram(device.vram_bytes(), &params);
        assert_eq!(svc.batch_cap(), 4 * auto);
        let key_cache = (device.vram_bytes() as f64 * KEY_CACHE_VRAM_FRACTION) as u64;
        assert_eq!(svc.key_cache().capacity_bytes(), key_cache);
        let level = params.max_level();
        svc.submit(FheRequest::new(FheOp::HMult, level, 8, "a"))
            .expect("valid");
        let reports = svc.drain();
        let (s, r) = (svc.stats(), &reports[0].report);
        let board = 4.0 * device.power_watts;
        assert!(s.ops_per_second > 0.0 && r.ops_per_second > 0.0);
        assert_eq!(
            s.ops_per_watt.to_bits(),
            (s.ops_per_second / board).to_bits()
        );
        assert_eq!(
            r.ops_per_watt.to_bits(),
            (r.ops_per_second / board).to_bits()
        );
    }

    #[test]
    fn mixed_op_stream_coalesces_into_full_batches() {
        let mut svc = service();
        let cap = svc.batch_cap();
        assert!(cap >= 2, "test needs a coalescible cap, got {cap}");
        let level = svc.params().max_level();
        // Interleave two ops; each op's total fills its batch cap exactly
        // twice, but no single request does.
        for _ in 0..4 {
            svc.submit(FheRequest::new(FheOp::HMult, level, cap / 2, "a"))
                .expect("valid");
            svc.submit(FheRequest::new(FheOp::Rescale, level, cap / 2, "b"))
                .expect("valid");
        }
        let reports = svc.drain();
        assert_eq!(reports.len(), 8);
        let s = svc.stats();
        assert_eq!(s.ops_completed, 4 * cap);
        // Coalescing must have produced full batches: 2 per op if cap is
        // even, never one batch per request.
        assert!(
            s.batches_dispatched < 8,
            "requests were not coalesced: {} batches",
            s.batches_dispatched
        );
        assert!(
            s.batch_fill > 0.99,
            "expected full batches, fill = {}",
            s.batch_fill
        );
    }

    #[test]
    fn per_request_reports_sum_to_service_totals() {
        let mut svc = service();
        let level = svc.params().max_level();
        let stream = vec![
            FheRequest::new(FheOp::HMult, level, 5, "a"),
            FheRequest::new(FheOp::HRotate, level, 3, "b"),
            FheRequest::new(FheOp::HMult, level, 7, "c"),
            FheRequest::new(FheOp::Rescale, level - 1, 2, "a"),
            FheRequest::new(FheOp::HRotate, level, 9, "c"),
        ];
        svc.submit_stream(stream).expect("valid stream");
        let reports = svc.drain();
        let s = svc.stats();
        let time: f64 = reports.iter().map(|r| r.report.time_us).sum();
        let energy: f64 = reports.iter().map(|r| r.report.energy_j).sum();
        let ops: usize = reports.iter().map(|r| r.report.batch).sum();
        let launches: usize = reports.iter().map(|r| r.report.launches).sum();
        assert!((time - s.busy_us).abs() < 1e-6 * s.busy_us.max(1.0));
        assert!((energy - s.energy_j).abs() < 1e-6 * s.energy_j.max(1.0));
        assert_eq!(ops, s.ops_completed);
        assert_eq!(reports.len(), s.requests_completed);
        // Launch attribution is exact, not rounded: per-request launches
        // must sum to the batch totals with no drift.
        assert_eq!(launches, s.launches, "launch attribution drifted");
        assert!(s.launches > 0, "batches must have launched kernels");
    }

    #[test]
    fn launch_apportionment_is_exact_for_uneven_shares() {
        // Three requests whose takes (5, 3, 7) cannot split any plausible
        // launch count evenly — per-request rounding would drift here.
        let mut svc = service();
        let level = svc.params().max_level();
        for (count, client) in [(5, "a"), (3, "b"), (7, "c")] {
            svc.submit(FheRequest::new(FheOp::HMult, level, count, client))
                .expect("valid");
        }
        let reports = svc.drain();
        let total: usize = reports.iter().map(|r| r.report.launches).sum();
        assert_eq!(total, svc.stats().launches);
        // Larger requests must never be attributed fewer launches.
        let by_count: Vec<(usize, usize)> = reports
            .iter()
            .map(|r| (r.report.batch, r.report.launches))
            .collect();
        for w in by_count.iter() {
            assert!(
                w.1 > 0,
                "every served request owns some launches: {by_count:?}"
            );
        }
    }

    #[test]
    fn user_batch_cap_cannot_exceed_vram_bound() {
        let params = CkksParams::test_small();
        let auto = TensorFhe::builder(&params)
            .service()
            .expect("valid")
            .batch_cap();
        // A cap far above the VRAM-feasible bound is clamped to it.
        let svc = TensorFhe::builder(&params)
            .batch_cap(auto * 1000)
            .service()
            .expect("valid");
        assert_eq!(
            svc.batch_cap(),
            auto,
            "cap must clamp to auto_batch × devices"
        );
        // A narrower cap is honoured verbatim.
        let svc = TensorFhe::builder(&params)
            .batch_cap(auto.max(2) - 1)
            .service()
            .expect("valid");
        assert_eq!(svc.batch_cap(), auto.max(2) - 1);
        // Multi-device bounds scale with the cluster.
        let svc = TensorFhe::builder(&params)
            .devices(4)
            .batch_cap(usize::MAX)
            .service()
            .expect("valid");
        assert_eq!(svc.batch_cap(), auto * 4);
    }

    #[test]
    fn paper_scale_stream_drains_fifo_with_linear_sweep() {
        // A thousand single-op requests complete in submission order; each
        // leaves the front of the request table, and the pool's batch memo
        // keeps dispatch O(1) per batch.
        let mut svc = service();
        let level = svc.params().max_level();
        let mut expected = Vec::new();
        for i in 0..1000 {
            expected.push(
                svc.submit(FheRequest::new(FheOp::HMult, level, 1, format!("c{i}")))
                    .expect("valid"),
            );
        }
        let reports = svc.drain();
        let got: Vec<RequestId> = reports.iter().map(|r| r.id).collect();
        assert_eq!(got, expected, "FIFO completion order");
        assert_eq!(svc.pending_requests(), 0);
        assert_eq!(svc.pending_ops(), 0);
        let s = svc.stats();
        assert_eq!(s.ops_completed, 1000);
        assert!(s.batch_fill > 0.99, "full-width coalescing expected");
    }

    #[test]
    fn fifo_fairness_across_client_tags() {
        let mut svc = service();
        let level = svc.params().max_level();
        let clients = ["alice", "bob", "carol"];
        let mut expected = Vec::new();
        for round in 0..3 {
            for c in clients {
                let id = svc
                    .submit(FheRequest::new(FheOp::HMult, level, round + 1, c))
                    .expect("valid");
                expected.push(id);
            }
        }
        let reports = svc.drain();
        let got: Vec<RequestId> = reports.iter().map(|r| r.id).collect();
        assert_eq!(got, expected, "completion order must be FIFO");
        // Queue latency must be non-decreasing in submission order.
        for w in reports.windows(2) {
            assert!(
                w[1].queue_us >= w[0].queue_us - 1e-9,
                "later submission finished earlier: {} then {}",
                w[0].queue_us,
                w[1].queue_us
            );
        }
    }

    #[test]
    fn status_tracks_request_lifecycle() {
        let mut svc = service();
        let level = svc.params().max_level();
        let id = svc
            .submit(FheRequest::new(FheOp::HMult, level, 5, "a"))
            .expect("valid");
        assert_eq!(
            svc.status(id).expect("known"),
            RequestStatus::Queued { remaining: 5 }
        );
        svc.drain();
        assert_eq!(svc.status(id).expect("known"), RequestStatus::Completed);
        let bogus = svc.status(RequestId(999)).expect_err("never issued");
        assert!(matches!(bogus, CoreError::UnknownRequest(_)));
    }

    #[test]
    fn invalid_requests_are_rejected_not_panicked() {
        let mut svc = service();
        let level = svc.params().max_level();
        let err = svc
            .submit(FheRequest::new(FheOp::HAdd, level, 0, "a"))
            .expect_err("zero count");
        assert!(matches!(err, CoreError::InvalidRequest(_)));
        let err = svc
            .submit(FheRequest::new(FheOp::HAdd, level + 1, 4, "a"))
            .expect_err("level too deep");
        assert!(matches!(err, CoreError::InvalidRequest(_)));
        assert_eq!(svc.pending_requests(), 0);
    }

    #[test]
    fn bootstrap_on_a_shallow_chain_is_rejected_at_submit() {
        let boot = FheOp::Bootstrap {
            taylor_degree: 7,
            double_angles: 6,
        };
        // test_small (L = 7) cannot bootstrap: nothing is queued, no op
        // is counted and a drain has nothing to run.
        let mut svc = service();
        let err = svc
            .submit(FheRequest::new(boot, 7, 1, "a"))
            .expect_err("chain too shallow");
        assert!(matches!(err, CoreError::InvalidRequest(_)), "{err}");
        assert_eq!(svc.pending_requests(), 0);
        assert_eq!(svc.stats().ops_submitted, 0);
        assert!(svc.drain().is_empty());
        // A bootstrap-capable chain accepts the same request.
        let mut deep = TensorFhe::builder(&CkksParams::table_vii_bootstrap())
            .service()
            .expect("valid service config");
        deep.submit(FheRequest::new(boot, 7, 1, "a"))
            .expect("a deep chain bootstraps");
        assert_eq!(deep.pending_requests(), 1);
    }

    #[test]
    fn oversized_requests_span_multiple_batches() {
        let mut svc = service();
        let cap = svc.batch_cap();
        let level = svc.params().max_level();
        let id = svc
            .submit(FheRequest::new(FheOp::HMult, level, cap * 3 + 1, "big"))
            .expect("valid");
        let reports = svc.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, id);
        assert_eq!(reports[0].batches, 4, "3 full batches plus a remainder");
        assert_eq!(svc.stats().batches_dispatched, 4);
    }

    #[test]
    fn cluster_service_outpaces_single_device() {
        let params = CkksParams::test_small();
        let level = params.max_level();
        let run = |devices: usize| {
            let mut svc = TensorFhe::builder(&params)
                .devices(devices)
                .service()
                .expect("valid");
            for c in 0..4 {
                svc.submit(FheRequest::new(FheOp::HMult, level, 64, format!("c{c}")))
                    .expect("valid");
            }
            svc.drain();
            svc.stats().ops_per_second
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 2.0,
            "4-device service should scale throughput: {four} vs {one}"
        );
    }
}
