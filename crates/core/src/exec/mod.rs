//! The executor — "run a scheduled batch on the device(s)".
//!
//! The service layer coalesces requests into batches; *how* a batch turns
//! into device work is this module's job, and [`Pool`] does it. A batch
//! is an operation, a level and a width ([`ExecBatch`]), and the pool is
//! the one place that turns it into device work: it derives the
//! operation's kernel stream ([`FheOp::events`]) and costs
//! the batch's per-device shards on its one simulated [`Engine`] in
//! [`Pool::submit`], on the calling thread, in device order — the paper's
//! API layer likewise takes an operation and a batch size and then
//! invokes the workflow's kernels in sequence (§IV-E). The
//! [`ExecBackend`] only chooses what else a batch runs:
//!
//! * [`ExecBackend::Sim`] — simulated launches only. The pool spawns no
//!   thread, whatever `workers` asks for, and reports one worker.
//! * [`ExecBackend::HostParallel`] — the same launches, plus real host
//!   arithmetic: every batched-NTT and basis-conversion GEMM is split
//!   into work-stealing row chunks ([`host`]). With `workers > 1` the
//!   pool spawns exactly `workers` threads, which run chunks and nothing
//!   else; `submit` queues the batch's chunks and wakes them before it
//!   costs the shards. One worker spawns nothing and runs the chunks at
//!   `submit` too.
//!
//! The pool reports what it drives and nothing more: [`Pool::devices`],
//! [`Pool::workers`] (the threads that really run chunks) and
//! [`Pool::backend`]. What a device is — its VRAM, board power and name —
//! is its `DeviceConfig`'s to say, which the service holds.
//!
//! Results are **bit-identical** at every worker count and on both
//! backends: every shard is costed on a fresh, zero-based simulator
//! window, the merge folds floats in device order, and the chunks' fold
//! is order-insensitive. Threads and host arithmetic buy wall-clock,
//! never result drift.
//!
//! Determinism contract: for a fixed pool configuration, `submit`ting
//! the same sequence of batches must yield the same [`BatchResult`]s. The
//! CI `TENSORFHE_WORKERS` matrix relies on it. Results are furthermore
//! *history-free*: a batch's statistics are a pure function of `(op,
//! level, width)` and the pool configuration, never of what ran before
//! it — the out-of-order scheduler ([`crate::sched`]) depends on this
//! when it submits batches in another order than the serial plan.
//!
//! That is also why the pool keeps a **batch memo** from `(op, level,
//! width)` to its [`BatchResult`], filled at `submit`: an identical batch
//! costs the same by contract, so a repeat is not costed again, even
//! while the first is still in flight. On the simulated backend a hit
//! costs nothing — the memo holds results, never kernel streams. On the
//! host backend a hit still derives the stream and plans and runs every
//! real-arithmetic chunk (the backend exists to execute them, and
//! `host_work` counts them); it only skips the simulated costing. This
//! keeps paper-scale streams (tens of thousands of operations) tractable.
//!
//! Multi-outstanding contract: any number of batches may be submitted
//! before any is joined, and handles may be joined in any order; each
//! resolves to exactly the result a submit-join-submit-join sequence
//! would produce. An [`ExecHandle`] is owned: it carries the result
//! `submit` costed and, while host workers run the batch's chunks, the
//! channel their tally replies on, so the pool keeps no table of
//! outstanding batches and [`Pool::join`] consumes the handle — a second
//! join of one handle does not compile. `join` blocks only while the
//! batch's chunks are still running. There is no polling form: the
//! scheduler joins in admission order, and a poll could only move a reply
//! out of its channel just before that join would take it.
//!
//! That asynchrony is measured, not inherited. At pipeline depth 2 batch
//! k's host chunks run while batch k+1 is planned and costed, and that
//! overlap is worth 3–4 % of `svc_host`'s `ops_per_s` on a 2-vCPU host.
//! Four synchronous `submit` prototypes (scoped per-batch threads twice,
//! scoped threads on one-row chunks, persistent workers behind a blocking
//! `submit`) kept every digest and lost 3–4 %, winning 2–3 of 8–10
//! alternating pairs; none recovers the overlap. The scoped variants did
//! cut `peak_rss_mb` from 5.82 to 5.25 MiB, a saving a persistent
//! runtime should keep.

use crate::api::FheOp;
use crate::engine::{Engine, EngineConfig, OpStats};
use crate::error::{CoreError, CoreResult};
use host::{plan_chunks, Chunk, ChunkTally, RealWork, StealShared};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use tensorfhe_ckks::{CkksParams, KernelEvent};

pub mod host;

pub use host::{HostWorkStats, StealStats};

/// What the pool runs besides the simulated launches.
///
/// Selected on the builder (`TensorFheBuilder::backend`) or via the
/// `TENSORFHE_BACKEND` environment variable (`sim`, `host-parallel`).
/// Both produce bit-identical reports — the host backend additionally
/// *executes* the GEMM kernel families with real arithmetic, on the
/// pool's worker threads when it has more than one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// Simulated launches only, on the calling thread: the default.
    /// `workers` has no effect; the pool spawns no thread.
    #[default]
    Sim,
    /// Real host arithmetic besides the launches: the butterfly NTT and
    /// the basis-conversion GEMM, in chunks that the pool's worker
    /// threads run (or the calling thread, at one worker).
    HostParallel,
}

impl ExecBackend {
    /// The stable name used by `TENSORFHE_BACKEND`, `ServiceStats` and
    /// bench output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Sim => "sim",
            ExecBackend::HostParallel => "host-parallel",
        }
    }

    /// Parses a `TENSORFHE_BACKEND` value; `None` for unknown names.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(ExecBackend::Sim),
            "host-parallel" => Some(ExecBackend::HostParallel),
            _ => None,
        }
    }
}

/// A coalesced batch scheduled onto an execution backend: `width`
/// independent instances of `op` at ciphertext `level`. The pool derives
/// the kernel workflow and the launches' operation tag
/// ([`tensorfhe_gpu::KernelStats::op_tag`], the op's name) itself, and
/// the batch is its memo key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecBatch {
    /// The operation every instance runs.
    pub op: FheOp,
    /// Ciphertext level the operation runs at.
    pub level: usize,
    /// Operation-level batch width.
    pub width: usize,
}

/// A submitted batch, redeemed once with [`Pool::join`]: the merged
/// result `submit` costed, the real work done at `submit`, and — while
/// worker threads run its chunks — the channel on which the chunk tally
/// sends the rest, once.
#[derive(Debug)]
#[must_use = "a submitted batch is redeemed with `Pool::join`"]
pub struct ExecHandle {
    result: BatchResult,
    work: HostWorkStats,
    rx: Option<mpsc::Receiver<HostWorkStats>>,
}

/// The merged outcome of one executed batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Cluster-merged statistics: wall time is the slowest shard, energy /
    /// launches / per-kernel times are summed, occupancy is time-weighted.
    pub stats: OpStats,
    /// Busy time per device (µs), indexed by device; `0.0` for devices the
    /// shard split left idle. Sums to the batch's total device time.
    pub per_device_us: Vec<f64>,
}

impl BatchResult {
    /// Devices that actually received work.
    #[must_use]
    pub fn devices_used(&self) -> usize {
        self.per_device_us.iter().filter(|&&t| t > 0.0).count()
    }
}

/// Splits a batch of `width` operations across `devices` following the
/// paper's batching semantics: `⌈width/devices⌉` per device, assigned in
/// device order until the batch is exhausted. Idle devices get `0`.
#[must_use]
pub fn shard_widths(width: usize, devices: usize) -> Vec<usize> {
    let shard = width.div_ceil(devices.max(1));
    let mut widths = vec![0usize; devices];
    let mut assigned = 0usize;
    for w in &mut widths {
        let this = shard.min(width - assigned);
        if this == 0 {
            break;
        }
        *w = this;
        assigned += this;
    }
    widths
}

/// `table[name] += us`, cloning the interned name (a reference-count bump)
/// only the first time the table sees it.
pub(crate) fn add_kernel_time(
    table: &mut std::collections::BTreeMap<tensorfhe_gpu::KernelName, f64>,
    name: &tensorfhe_gpu::KernelName,
    us: f64,
) {
    match table.get_mut(&**name) {
        Some(t) => *t += us,
        // The first share still folds onto 0.0, like `or_insert(0.0) +=`.
        None => *table.entry(name.clone()).or_insert(0.0) += us,
    }
}

/// Merges per-device shard statistics into one batch result, folding in
/// device-index order so every thread count agrees bit-for-bit.
///
/// On a one-device backend the single shard passes through untouched (the
/// old single-engine service numbers, with [`OpStats`]' kernel table in
/// descending time order); a multi-device backend always runs the cluster
/// merge — even for batches narrow enough to land on one device — so
/// `by_kernel` ordering and float rounding are consistent across batch
/// widths within one configuration.
#[must_use]
pub fn merge_shards(per_device: Vec<(usize, OpStats)>, devices: usize) -> BatchResult {
    let devices = per_device
        .iter()
        .map(|&(d, _)| d + 1)
        .max()
        .unwrap_or(0)
        .max(devices)
        .max(1);
    let mut per_device_us = vec![0.0f64; devices];
    for (d, s) in &per_device {
        per_device_us[*d] = s.time_us;
    }
    if devices == 1 && per_device.len() == 1 {
        let stats = per_device.into_iter().next().expect("one shard").1;
        return BatchResult {
            stats,
            per_device_us,
        };
    }
    let wall_us = per_device
        .iter()
        .map(|(_, s)| s.time_us)
        .fold(0.0f64, f64::max);
    let energy_j: f64 = per_device.iter().map(|(_, s)| s.energy_j).sum();
    let launches = per_device.iter().map(|(_, s)| s.launches).sum();
    let busy_us: f64 = per_device.iter().map(|(_, s)| s.time_us).sum();
    let occupancy = if busy_us > 0.0 {
        per_device
            .iter()
            .map(|(_, s)| s.occupancy * s.time_us)
            .sum::<f64>()
            / busy_us
    } else {
        0.0
    };
    let mut by_kernel: std::collections::BTreeMap<tensorfhe_gpu::KernelName, f64> =
        Default::default();
    for (_, s) in &per_device {
        for (k, t) in &s.by_kernel {
            add_kernel_time(&mut by_kernel, k, *t);
        }
    }
    BatchResult {
        stats: OpStats {
            time_us: wall_us,
            occupancy,
            energy_j,
            launches,
            by_kernel: by_kernel.into_iter().collect(),
        },
        per_device_us,
    }
}

/// The one executor: one simulated engine that costs every device's
/// shard on the calling thread at `submit`, the batch memo, and on the
/// host backend the batches' GEMM chunks, run by worker threads that
/// steal from each other when idle (see the module docs and [`host`]).
/// What a submitted batch still owes travels in its [`ExecHandle`], so
/// the pool holds nothing per outstanding batch.
#[derive(Debug)]
pub struct Pool {
    devices: usize,
    backend: ExecBackend,
    rows_cap: usize,
    params: CkksParams,
    engine: Engine,
    // lint: ordered-ok (keyed get/insert by batch only; never iterated)
    memo: HashMap<ExecBatch, BatchResult>,
    /// The calling thread's chunk caches, for a pool without worker
    /// threads.
    real: RealWork,
    /// Per worker thread, a wake-up for newly queued chunks.
    senders: Vec<mpsc::Sender<()>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<StealShared>,
    /// Real work accumulated across joined batches (join-order
    /// insensitive: all fields merge by wrapping addition).
    work: HostWorkStats,
}

impl Pool {
    /// Builds the pool a configuration describes: `devices` devices of
    /// `cfg`, running operations of the `params` scheme, and on
    /// [`ExecBackend::HostParallel`] `workers` chunk threads (none at one
    /// worker: chunks then run at `submit`) with `rows_cap` real rows per
    /// kernel-event shard (`0` = uncapped). [`ExecBackend::Sim`] ignores
    /// `workers` and `rows_cap` and spawns nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero devices or zero
    /// workers, or when the host refuses a worker thread.
    pub fn new(
        cfg: &EngineConfig,
        params: &CkksParams,
        devices: usize,
        workers: usize,
        backend: ExecBackend,
        rows_cap: usize,
    ) -> CoreResult<Self> {
        if devices == 0 {
            return Err(CoreError::InvalidConfig("need at least one device".into()));
        }
        if workers == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one worker thread".into(),
            ));
        }
        let threads = match backend {
            ExecBackend::Sim => 1,
            ExecBackend::HostParallel => workers,
        };
        let spawned = if threads == 1 { 0 } else { threads };
        let mut pool = Self {
            devices,
            backend,
            rows_cap,
            params: params.clone(),
            engine: Engine::new(cfg.clone()),
            memo: HashMap::new(),
            real: RealWork::default(),
            senders: Vec::new(),
            handles: Vec::new(),
            shared: Arc::new(StealShared::new(spawned)),
            work: HostWorkStats::default(),
        };
        for w in 0..spawned {
            let (tx, rx) = mpsc::channel();
            // Named after the devices whose chunks land on its deque, so
            // host profiles and stack dumps attribute time to them; a pure
            // thief, with none, by its index.
            let ids: Vec<String> = (w..devices)
                .step_by(threads)
                .map(|d| d.to_string())
                .collect();
            let name = match ids.is_empty() {
                true => format!("tfhe-worker-s{w}"),
                false => format!("tfhe-worker-{}", ids.join("+")),
            };
            let shared = Arc::clone(&pool.shared);
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || shared.serve(w, &rx))
                .map_err(|e| CoreError::InvalidConfig(format!("cannot spawn a worker: {e}")))?;
            pool.senders.push(tx);
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Schedules a batch; the returned handle is redeemed exactly once.
    /// A batch the memo knows is not costed again; on the host backend
    /// its chunks run all the same.
    pub fn submit(&mut self, batch: ExecBatch) -> ExecHandle {
        let known = self.memo.get(&batch).cloned();
        match (known, self.backend) {
            (Some(result), ExecBackend::Sim) => ExecHandle {
                result,
                work: HostWorkStats::default(),
                rx: None,
            },
            (known, backend) => {
                let events: Arc<[KernelEvent]> = batch.op.events(&self.params, batch.level).into();
                let widths = shard_widths(batch.width, self.devices);
                let (rx, work) = match backend {
                    ExecBackend::Sim => (None, HostWorkStats::default()),
                    ExecBackend::HostParallel => self.start_chunks(&events, &widths),
                };
                let result = known.unwrap_or_else(|| self.cost(batch, &events, &widths));
                ExecHandle { result, work, rx }
            }
        }
    }

    /// Costs a new batch: its non-empty shards on the engine, in device
    /// order, merged and memoised.
    fn cost(&mut self, batch: ExecBatch, events: &[KernelEvent], widths: &[usize]) -> BatchResult {
        let shards = (widths.iter().enumerate())
            .filter(|&(_, &w)| w > 0)
            .map(|(d, &w)| (d, self.engine.run_schedule(batch.op.name(), events, w)))
            .collect();
        let result = merge_shards(shards, self.devices);
        self.memo.insert(batch, result.clone());
        result
    }

    /// Plans a batch's real-arithmetic chunks and starts them: queued for
    /// the workers, which run them while this thread costs the shards, or
    /// run here on a pool without workers. The plan is a pure function of
    /// `(events, widths, rows_cap)`, so the plan — and through the
    /// position-salted checksum, the folded result — is independent of
    /// who executes what. Returns the channel the workers' tally replies
    /// on (if they got any chunk) and the work done here.
    fn start_chunks(
        &mut self,
        events: &Arc<[KernelEvent]>,
        widths: &[usize],
    ) -> (Option<mpsc::Receiver<HostWorkStats>>, HostWorkStats) {
        let (chunks, mut work) = plan_chunks(events, widths, self.rows_cap);
        let units: u64 = chunks.iter().map(|c| c.units.len() as u64).sum();
        self.shared.planned_rows.fetch_add(units, Ordering::Relaxed);
        if self.senders.is_empty() || chunks.is_empty() {
            for chunk in &chunks {
                work.absorb(self.real.run_chunk(events, chunk));
            }
            self.shared
                .executed_rows
                .fetch_add(units, Ordering::Relaxed);
            return (None, work);
        }
        let (reply, rx) = mpsc::channel();
        let tally = Arc::new(ChunkTally::new(chunks.len(), reply));
        for spec in chunks {
            let (events, tally) = (Arc::clone(events), Arc::clone(&tally));
            self.shared.push(Chunk {
                spec,
                events,
                tally,
            });
        }
        for tx in &self.senders {
            tx.send(()).expect("worker thread alive");
        }
        (Some(rx), work)
    }

    /// Waits for a submitted batch's chunks, folds its real work in and
    /// returns its merged statistics. The handle is consumed, so a batch
    /// is joined at most once:
    ///
    /// ```compile_fail
    /// use tensorfhe_ckks::CkksParams;
    /// use tensorfhe_core::exec::{ExecBackend, ExecBatch, Pool};
    /// use tensorfhe_core::{EngineConfig, FheOp, Variant};
    ///
    /// let params = CkksParams::test_small();
    /// let cfg = EngineConfig::a100(Variant::TensorCore);
    /// let mut pool = Pool::new(&cfg, &params, 1, 1, ExecBackend::Sim, 0).unwrap();
    /// let level = params.max_level();
    /// let handle = pool.submit(ExecBatch { op: FheOp::HMult, level, width: 2 });
    /// let _ = pool.join(handle);
    /// let _ = pool.join(handle); // use of a moved handle
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died while running the batch's chunks.
    pub fn join(&mut self, handle: ExecHandle) -> BatchResult {
        let ExecHandle {
            result,
            mut work,
            rx,
        } = handle;
        if let Some(rx) = rx {
            work.absorb(rx.recv().expect("worker thread died mid-batch"));
        }
        self.work.absorb(work);
        result
    }

    /// Device count the pool drives.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Host threads running the batches' real-arithmetic chunks: the
    /// configured `workers` on the host backend (1 = the calling thread,
    /// nothing spawned), always 1 under [`ExecBackend::Sim`]. The engine
    /// shards run on the calling thread either way.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len().max(1)
    }

    /// What the pool runs besides the simulated launches.
    #[must_use]
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Accumulated real-arithmetic work counters on the host backend;
    /// `None` under [`ExecBackend::Sim`].
    #[must_use]
    pub fn host_work(&self) -> Option<HostWorkStats> {
        (self.backend != ExecBackend::Sim).then_some(self.work)
    }

    /// Work-stealing scheduler counters on the host backend; `None` under
    /// [`ExecBackend::Sim`]. The counters are scheduling telemetry,
    /// **not** part of the determinism contract (except `planned_rows ==
    /// executed_rows`, work conservation).
    #[must_use]
    pub fn steal_stats(&self) -> Option<StealStats> {
        (self.backend != ExecBackend::Sim).then(|| self.shared.stats())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.senders.clear(); // closes the channels; workers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Variant;
    use std::collections::BTreeMap;

    impl ExecHandle {
        /// A handle to a result computed elsewhere, with no real work: the
        /// scheduler tests' seam for injecting per-device times.
        pub(crate) fn ready(result: BatchResult) -> Self {
            Self {
                result,
                work: HostWorkStats::default(),
                rx: None,
            }
        }
    }

    pub(super) fn cfg() -> EngineConfig {
        EngineConfig::a100(Variant::TensorCore)
    }

    pub(super) fn params() -> CkksParams {
        CkksParams::test_small()
    }

    fn batch(width: usize) -> ExecBatch {
        ExecBatch {
            op: FheOp::HMult,
            level: params().max_level(),
            width,
        }
    }

    /// The kernel stream the pool derives for [`batch`].
    fn events() -> Vec<KernelEvent> {
        FheOp::HMult.events(&params(), params().max_level())
    }

    pub(super) fn pool(devices: usize, workers: usize, backend: ExecBackend) -> Pool {
        Pool::new(&cfg(), &params(), devices, workers, backend, 4).expect("valid pool")
    }

    /// Submits a batch per width before joining any, then joins in order.
    pub(super) fn drain(exec: &mut Pool, widths: &[usize]) -> Vec<BatchResult> {
        let handles: Vec<ExecHandle> = widths.iter().map(|&w| exec.submit(batch(w))).collect();
        handles.into_iter().map(|h| exec.join(h)).collect()
    }

    fn bits(r: &BatchResult) -> Vec<u64> {
        let mut v = vec![
            r.stats.time_us.to_bits(),
            r.stats.occupancy.to_bits(),
            r.stats.energy_j.to_bits(),
            r.stats.launches as u64,
        ];
        v.extend(r.per_device_us.iter().map(|t| t.to_bits()));
        for (k, t) in &r.stats.by_kernel {
            v.extend(k.bytes().map(u64::from));
            v.push(t.to_bits());
        }
        v
    }

    #[test]
    fn shard_widths_match_paper_semantics() {
        assert_eq!(shard_widths(128, 4), vec![32, 32, 32, 32]);
        assert_eq!(shard_widths(7, 4), vec![2, 2, 2, 1]);
        assert_eq!(shard_widths(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(shard_widths(1, 1), vec![1]);
        assert_eq!(shard_widths(0, 3), vec![0, 0, 0]);
    }

    /// The executor equivalence table: at every backend × `(devices,
    /// workers)` point, a batch sequence submitted all at once drains to
    /// the raw bits of a one-thread simulated pool; every host point of a
    /// device count folds one `HostWorkStats`; a simulated pool spawns no
    /// thread, a host pool exactly `workers` beyond one; and sharding
    /// sums energy and divides wall time.
    #[test]
    fn every_backend_and_thread_count_is_bit_identical() {
        let widths = [1usize, 7, 16, 256, 5];
        let (mut want, mut host_work) = (BTreeMap::new(), BTreeMap::new());
        for backend in [ExecBackend::Sim, ExecBackend::HostParallel] {
            for (devices, workers) in [(1usize, 1usize), (2, 2), (4, 2), (4, 4), (2, 5)] {
                let point = format!("{backend:?} devices={devices} workers={workers}");
                let want = want.entry(devices).or_insert_with(|| {
                    let results = drain(&mut pool(devices, 1, ExecBackend::Sim), &widths);
                    // Sharding reduces wall time, not joules: the merged
                    // energy is the device-order sum of the shards'.
                    let mut engine = Engine::new(cfg());
                    for (r, &w) in results.iter().zip(&widths) {
                        let shards = shard_widths(w, devices).into_iter().filter(|&s| s > 0);
                        let energy: f64 = shards
                            .map(|s| engine.run_schedule("HMULT", &events(), s).energy_j)
                            .sum();
                        assert_eq!(r.stats.energy_j.to_bits(), energy.to_bits());
                    }
                    results
                });
                let mut pool = pool(devices, workers, backend);
                let threads = match backend {
                    ExecBackend::Sim => 1,
                    ExecBackend::HostParallel => workers,
                };
                assert_eq!(pool.workers(), threads, "{point}: workers()");
                let spawned = if threads == 1 { 0 } else { threads };
                assert_eq!(pool.handles.len(), spawned, "{point}: threads spawned");
                for (got, want) in drain(&mut pool, &widths).iter().zip(want.iter()) {
                    assert_eq!(bits(got), bits(want), "{point}: result bits");
                }
                match (backend, pool.host_work()) {
                    (ExecBackend::Sim, work) => {
                        assert!(work.is_none() && pool.steal_stats().is_none(), "{point}");
                    }
                    (_, work) => {
                        let work = work.expect("the host backend reports work");
                        assert!(work.ntt_rows > 0 && work.conv_cols > 0, "{point}");
                        assert_eq!(*host_work.entry(devices).or_insert(work), work, "{point}");
                        let s = pool.steal_stats().expect("the host backend steals");
                        assert_eq!(s.planned_rows, s.executed_rows, "{point}: conserved");
                    }
                }
            }
        }
        // 64-operation shards: toy-degree shards this narrow are partly
        // launch-bound, so four devices give ≳2.2×, not 4×.
        let wall = |devices: usize| want[&devices][3].stats.time_us;
        assert!(wall(1) > 2.2 * wall(4), "{} vs {}", wall(1), wall(4));
    }

    #[test]
    fn merge_passthrough_keeps_single_shard_stats() {
        let want = Engine::new(cfg()).run_schedule("HMULT", &events(), 8);
        let got = &drain(&mut pool(1, 1, ExecBackend::Sim), &[8])[0];
        assert_eq!(got.stats.time_us.to_bits(), want.time_us.to_bits());
        assert_eq!(got.stats.occupancy.to_bits(), want.occupancy.to_bits());
        assert_eq!(got.stats.by_kernel, want.by_kernel);
        assert_eq!(got.per_device_us, vec![want.time_us]);
    }

    #[test]
    fn per_device_time_covers_idle_devices() {
        let r = &drain(&mut pool(4, 1, ExecBackend::Sim), &[2])[0];
        assert_eq!(r.per_device_us.len(), 4);
        assert_eq!(r.devices_used(), 2);
        assert_eq!(r.per_device_us[2], 0.0);
        assert_eq!(r.per_device_us[3], 0.0);
        // Wall time is the slowest shard; total device time sums the rest.
        let total: f64 = r.per_device_us.iter().sum();
        assert!(total >= r.stats.time_us);
    }

    #[test]
    fn pool_pipelines_independent_batches() {
        // Submitting several batches before joining any must still resolve
        // each handle to its own result, joined in any order, while worker
        // threads run their chunks.
        let mut threaded = pool(2, 2, ExecBackend::HostParallel);
        let h1 = threaded.submit(batch(4));
        let h2 = threaded.submit(batch(32));
        let r2 = threaded.join(h2);
        let r1 = threaded.join(h1);
        let want = drain(&mut pool(2, 1, ExecBackend::Sim), &[4, 32]);
        assert_eq!(bits(&r1), bits(&want[0]));
        assert_eq!(bits(&r2), bits(&want[1]));
    }

    #[test]
    fn joins_in_any_order_with_multi_outstanding_submissions() {
        // The pipelined-scheduler usage pattern: several batches in
        // flight while worker threads run their chunks, joined in an order
        // unlike submission. Results must match a serial
        // submit-join-submit-join sequence exactly.
        let widths = [3usize, 16, 7, 1];
        let wants = drain(&mut pool(2, 1, ExecBackend::Sim), &widths);
        let mut threaded = pool(2, 2, ExecBackend::HostParallel);
        let [h0, h1, h2, h3] = widths.map(|w| threaded.submit(batch(w)));
        let r2 = threaded.join(h2);
        let r3 = threaded.join(h3);
        let r1 = threaded.join(h1);
        let r0 = threaded.join(h0);
        for (got, want) in [r0, r1, r2, r3].iter().zip(&wants) {
            assert_eq!(bits(got), bits(want), "out-of-order join diverged");
        }
    }

    #[test]
    fn memo_hits_are_bit_equal_to_a_fresh_pool() {
        // The second batch of every width is a memo hit, in flight beside
        // the first; each must resolve to a fresh pool's result.
        let widths = [1usize, 7, 16];
        for backend in [ExecBackend::Sim, ExecBackend::HostParallel] {
            for devices in 1..=4 {
                let mut exec = pool(devices, 2, backend);
                let repeated: Vec<usize> = widths.iter().chain(&widths).copied().collect();
                let got = drain(&mut exec, &repeated);
                assert_eq!(exec.memo.len(), widths.len());
                for (i, &w) in repeated.iter().enumerate() {
                    let fresh = &drain(&mut pool(devices, 1, backend), &[w])[0];
                    let point = format!("{backend:?} devices={devices} width={w}");
                    assert_eq!(bits(&got[i]), bits(fresh), "{point}");
                }
            }
        }
    }

    #[test]
    fn host_memo_hits_still_run_their_chunks() {
        // A hit skips the costing only: the chunks of every submit run,
        // so the work counters double while the engine's launch-cost memo
        // and the batch memo stay where the first submit left them.
        let mut exec = pool(2, 1, ExecBackend::HostParallel);
        let _ = drain(&mut exec, &[8]);
        let once = exec.host_work().expect("host backend");
        let shapes = exec.engine.costed_shapes();
        let _ = drain(&mut exec, &[8]);
        let twice = exec.host_work().expect("host backend");
        assert!(once.ntt_rows > 0 && once.conv_cols > 0 && once.elems > 0);
        assert_eq!(
            [twice.ntt_rows, twice.conv_cols, twice.elems],
            [once.ntt_rows, once.conv_cols, once.elems].map(|n| 2 * n)
        );
        assert_eq!(exec.engine.costed_shapes(), shapes);
        assert_eq!(exec.memo.len(), 1);
    }

    #[test]
    fn caps_report_the_cluster() {
        // A simulated pool runs everything on the calling thread, so it
        // reports one worker whatever it was asked for.
        let sim = pool(4, 4, ExecBackend::Sim);
        assert_eq!((sim.devices(), sim.workers()), (4, 1));
        assert_eq!(sim.backend(), ExecBackend::Sim);
        let host = pool(4, 4, ExecBackend::HostParallel);
        assert_eq!((host.devices(), host.workers()), (4, 4));
        assert_eq!(host.backend(), ExecBackend::HostParallel);
    }

    #[test]
    fn pool_rejects_zero_configs() {
        for backend in [ExecBackend::Sim, ExecBackend::HostParallel] {
            assert!(Pool::new(&cfg(), &params(), 0, 1, backend, 0).is_err());
            assert!(Pool::new(&cfg(), &params(), 1, 0, backend, 0).is_err());
        }
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [ExecBackend::Sim, ExecBackend::HostParallel] {
            assert_eq!(ExecBackend::parse(b.label()), Some(b));
        }
        assert_eq!(ExecBackend::parse("cuda"), None);
        assert_eq!(ExecBackend::default(), ExecBackend::Sim);
    }

    #[test]
    fn worker_threads_are_named_after_their_devices() {
        // The devices whose chunks land on the thread's deque, joined by
        // `+` (observable via the panic path and profilers), and a thief
        // with no home chunks by its index.
        for (pool, want) in [
            (
                pool(4, 2, ExecBackend::HostParallel),
                ["tfhe-worker-0+2", "tfhe-worker-1+3"],
            ),
            (
                pool(1, 2, ExecBackend::HostParallel),
                ["tfhe-worker-0", "tfhe-worker-s1"],
            ),
        ] {
            let names: Vec<&str> = pool
                .handles
                .iter()
                .filter_map(|h| h.thread().name())
                .collect();
            assert_eq!(
                names, want,
                "worker threads must carry device-attributing names"
            );
        }
    }
}
