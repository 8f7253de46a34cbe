//! The executor seam: "run a scheduled batch on the device(s)" as a
//! pluggable contract.
//!
//! The service layer coalesces requests into batches; *how* a batch turns
//! into device work is this module's job, behind the [`Executor`] trait:
//!
//! * [`SimExecutor`] — today's simulated launches ([`Engine`] per device),
//!   executed serially on the calling thread. One device reproduces the old
//!   single-engine service backend bit-for-bit; several devices reproduce
//!   the old `MultiGpu` sharded dispatch.
//! * [`ThreadedPool`] — the same per-device engines, owned by worker
//!   threads and fed over channels, so independent device shards of a batch
//!   simulate in parallel on the host. Results are merged in device-index
//!   order, which makes the threaded path **bit-identical** to the serial
//!   one: each device's simulator sees exactly the same launch sequence
//!   either way, and the merge folds floats in the same order.
//!
//! * [`host::HostParallelExecutor`] — the first backend that *computes*
//!   instead of simulating: worker threads execute the batched-NTT and
//!   basis-conversion GEMMs with real host arithmetic (cache-blocked
//!   Montgomery fast kernels on SIMD register tiles, or the Barrett
//!   scalar reference for comparison) at full width by default, split
//!   into work-stealing row chunks so no worker idles while another has
//!   arithmetic left — all while producing the same simulated reports as
//!   [`SimExecutor`], so host wall-clock becomes measurable without
//!   perturbing a single pinned ratio.
//!
//! Backends are selected by [`ExecBackend`] (builder `backend(..)` /
//! `TENSORFHE_BACKEND`). A real CUDA/CUTLASS (or wgpu) backend slots in by
//! implementing [`Executor`] over real streams: `submit` enqueues the
//! kernel workflow, [`Executor::join`] synchronizes and reports — the same
//! grouped-GEMM shapes the host backend drives map 1:1 onto device queues.
//! Everything above the seam — coalescing, attribution, stats — is
//! backend-agnostic.
//!
//! Determinism contract: for a fixed executor configuration, `submit`ting
//! the same sequence of batches must yield the same [`BatchResult`]s. The
//! service's dispatch cache and the CI `TENSORFHE_WORKERS` matrix both rely
//! on it. Results are furthermore *history-free*: a batch's statistics are
//! a pure function of `(tag, events, width)` and the executor
//! configuration, never of what ran before it — the pipelined scheduler
//! ([`crate::sched`]) depends on this when a batch that the serial path
//! would have served from the dispatch cache executes for real.
//!
//! Multi-outstanding contract: any number of batches may be submitted
//! before any is joined. Every backend queues work FIFO *per device*, so
//! outstanding batches resolve to exactly the results a
//! submit-join-submit-join sequence would produce; handles may be joined in
//! any order. [`Executor::try_join`] is the non-blocking form — it returns
//! `None` while the batch is still executing on the host workers, which
//! lets a scheduler keep a window of in-flight batches and harvest whichever
//! are already complete without stalling the planning loop.

use crate::engine::{Engine, EngineConfig, OpStats};
use crate::error::{CoreError, CoreResult};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use tensorfhe_ckks::KernelEvent;

pub mod host;

pub use host::{HostParallelExecutor, HostWorkStats, StealStats};

/// Which execution backend serves the batches behind the seam.
///
/// Selected on the builder (`TensorFheBuilder::backend`) or via the
/// `TENSORFHE_BACKEND` environment variable (`sim`, `host-parallel`,
/// `host-scalar`). Every backend produces bit-identical reports — the
/// host backends additionally *execute* the GEMM kernel families with real
/// arithmetic on the worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// Simulated launches only (serial or thread-pooled): the default.
    #[default]
    Sim,
    /// Real host arithmetic through the cache-blocked Montgomery fast
    /// kernels (`tensorfhe_math::gemm_fast`) — for the NTT, the plan's
    /// ordinary batch path.
    HostParallel,
    /// Real host arithmetic through the Barrett scalar reference kernels,
    /// requested by name — the baseline the fast path is measured against.
    HostScalar,
}

impl ExecBackend {
    /// The stable name used by `TENSORFHE_BACKEND`, `ServiceStats` and
    /// bench output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Sim => "sim",
            ExecBackend::HostParallel => "host-parallel",
            ExecBackend::HostScalar => "host-scalar",
        }
    }

    /// Parses a `TENSORFHE_BACKEND` value; `None` for unknown names.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(ExecBackend::Sim),
            "host-parallel" => Some(ExecBackend::HostParallel),
            "host-scalar" => Some(ExecBackend::HostScalar),
            _ => None,
        }
    }
}

/// A coalesced batch scheduled onto an execution backend: `width`
/// independent instances of one operation's kernel workflow.
#[derive(Debug, Clone)]
pub struct ExecBatch {
    /// Operation tag (scopes the launches in profiler output).
    pub tag: Arc<str>,
    /// The kernel workflow of one instance (shared with worker threads).
    pub events: Arc<[KernelEvent]>,
    /// Operation-level batch width.
    pub width: usize,
}

/// Opaque handle to a submitted batch, redeemed with [`Executor::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecHandle(u64);

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

/// Static capabilities of an execution backend.
#[derive(Debug, Clone)]
pub struct ExecCaps {
    /// Device count behind the seam.
    pub devices: usize,
    /// Host worker threads driving those devices (1 = serial).
    pub workers: usize,
    /// VRAM per device, bytes (bounds the feasible shard width).
    pub vram_bytes_per_device: u64,
    /// Aggregate board power across devices (W).
    pub power_watts: f64,
    /// Device model name, as reports print it.
    pub device_name: String,
    /// Stable backend name (`sim`, `host-parallel`, `host-scalar`).
    pub backend: &'static str,
}

/// The "run a scheduled batch on a device" contract.
///
/// `submit` hands a batch to the backend; `join` blocks until it completes
/// and returns the merged result. Implementations must be deterministic:
/// the same submission sequence yields the same results, so the serial and
/// threaded backends are interchangeable bit-for-bit.
pub trait Executor: std::fmt::Debug {
    /// Schedules a batch; the returned handle is redeemed exactly once.
    fn submit(&mut self, batch: ExecBatch) -> ExecHandle;

    /// Waits for a submitted batch and returns its merged statistics.
    ///
    /// # Panics
    ///
    /// Panics on a handle this executor never issued (or already joined).
    fn join(&mut self, handle: ExecHandle) -> BatchResult;

    /// Non-blocking [`Executor::join`]: returns the merged result if the
    /// batch has already completed, `None` if it is still executing. A
    /// `Some` consumes the handle exactly like `join`; after `None` the
    /// handle stays live and may be polled again or joined blockingly.
    ///
    /// # Panics
    ///
    /// Panics on a handle this executor never issued (or already joined).
    fn try_join(&mut self, handle: ExecHandle) -> Option<BatchResult>;

    /// Backend capabilities (device count, workers, VRAM, power).
    fn caps(&self) -> ExecCaps;

    /// Device count behind the seam.
    fn devices(&self) -> usize {
        self.caps().devices
    }

    /// Accumulated real-arithmetic work counters, for backends that
    /// execute kernels on the host ([`host::HostParallelExecutor`]).
    /// Simulation-only backends return `None`.
    fn host_work(&self) -> Option<HostWorkStats> {
        None
    }

    /// Work-stealing scheduler counters, for backends that execute real
    /// arithmetic through stealable chunks. Simulation-only backends
    /// return `None`. The counters are scheduling telemetry, **not** part
    /// of the determinism contract (except `planned_rows ==
    /// executed_rows`, work conservation).
    fn steal_stats(&self) -> Option<StealStats> {
        None
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
/// device-index order so serial and threaded executors agree bit-for-bit.
///
/// On a one-device backend the single shard passes through untouched (the
/// old single-engine service numbers, with `Profiler`'s kernel-table
/// ordering); a multi-device backend always runs the cluster merge — even
/// for batches narrow enough to land on one device — so `by_kernel`
/// ordering and float rounding are consistent across batch widths within
/// one configuration (and match the old `MultiGpu` merge exactly).
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

/// Builds the executor a configuration describes. For [`ExecBackend::Sim`]:
/// serial simulated launches for one worker, a sharded thread pool
/// otherwise — simulated workers beyond the device count have nothing to
/// do (each device's launch stream is serial), so they are clamped. The
/// host backends always build a [`HostParallelExecutor`] with the
/// *unclamped* worker count (surplus workers steal real-arithmetic
/// chunks) and the given per-event real-row cap (`0` = uncapped).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for zero devices or zero workers.
pub fn build_executor(
    cfg: &EngineConfig,
    devices: usize,
    workers: usize,
    backend: ExecBackend,
    rows_cap: usize,
) -> CoreResult<Box<dyn Executor>> {
    if devices == 0 {
        return Err(CoreError::InvalidConfig("need at least one device".into()));
    }
    if workers == 0 {
        return Err(CoreError::InvalidConfig(
            "need at least one worker thread".into(),
        ));
    }
    match backend {
        ExecBackend::Sim => {
            if workers.min(devices) == 1 {
                Ok(Box::new(SimExecutor::new(cfg.clone(), devices)))
            } else {
                Ok(Box::new(ThreadedPool::new(
                    cfg.clone(),
                    devices,
                    workers.min(devices),
                )))
            }
        }
        ExecBackend::HostParallel | ExecBackend::HostScalar => Ok(Box::new(
            HostParallelExecutor::with_rows_cap(cfg.clone(), devices, workers, backend, rows_cap),
        )),
    }
}

/// Profile-friendly worker thread name: `tfhe-worker-{devices}` with the
/// owned device indices joined by `+` (one device per worker in the common
/// square configuration), so host profiles and stack dumps attribute time
/// to devices.
pub(crate) fn worker_thread_name(devices: &[usize]) -> String {
    let ids: Vec<String> = devices.iter().map(ToString::to_string).collect();
    format!("tfhe-worker-{}", ids.join("+"))
}

/// Serial executor over per-device simulated engines — today's launch path
/// behind the seam. Batches run eagerly at `submit`; `join` returns the
/// stored result.
#[derive(Debug)]
pub struct SimExecutor {
    cfg: EngineConfig,
    engines: Vec<Engine>,
    next: u64,
    // lint: ordered-ok (keyed insert/remove by handle only; never iterated)
    done: HashMap<u64, BatchResult>,
}

impl SimExecutor {
    /// Creates `devices` identical simulated engines.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero (checked by [`build_executor`];
    /// construct through it for a fallible path).
    #[must_use]
    pub fn new(cfg: EngineConfig, devices: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        let engines = (0..devices).map(|_| Engine::new(cfg.clone())).collect();
        Self {
            cfg,
            engines,
            next: 0,
            done: HashMap::new(),
        }
    }
}

impl Executor for SimExecutor {
    fn submit(&mut self, batch: ExecBatch) -> ExecHandle {
        let widths = shard_widths(batch.width, self.engines.len());
        let mut per_device = Vec::new();
        for (d, (engine, &w)) in self.engines.iter_mut().zip(&widths).enumerate() {
            if w == 0 {
                continue;
            }
            per_device.push((d, engine.run_schedule(&batch.tag, &batch.events, w)));
        }
        let id = self.next;
        self.next += 1;
        self.done
            .insert(id, merge_shards(per_device, self.engines.len()));
        ExecHandle(id)
    }

    fn join(&mut self, handle: ExecHandle) -> BatchResult {
        self.done
            .remove(&handle.0)
            .expect("join of an unknown or already-joined handle")
    }

    fn try_join(&mut self, handle: ExecHandle) -> Option<BatchResult> {
        // Serial submission runs eagerly, so a live handle is always ready.
        Some(self.join(handle))
    }

    fn caps(&self) -> ExecCaps {
        ExecCaps {
            devices: self.engines.len(),
            workers: 1,
            vram_bytes_per_device: self.cfg.device.vram_bytes(),
            power_watts: self.cfg.device.power_watts * self.engines.len() as f64,
            device_name: self.cfg.device.name.clone(),
            backend: ExecBackend::Sim.label(),
        }
    }
}

/// One unit of work for a pool worker: run `shards` (pairs of global device
/// index and shard width, all owned by that worker) of a batch and reply
/// with the per-device payloads (`T` = shard statistics; the host backend
/// piggybacks its real-work counters on the same reply).
pub(crate) struct Job<T> {
    pub(crate) tag: Arc<str>,
    pub(crate) events: Arc<[KernelEvent]>,
    /// `(global_device_index, shard_width)` in increasing device order.
    pub(crate) shards: Vec<(usize, usize)>,
    pub(crate) reply: mpsc::Sender<Vec<(usize, T)>>,
}

/// An in-flight batch: the reply channel, how many worker replies the merge
/// must collect, and the replies harvested so far (so a non-blocking
/// [`Executor::try_join`] can drain partial progress without losing it).
#[derive(Debug)]
pub(crate) struct PendingBatch<T> {
    pub(crate) rx: mpsc::Receiver<Vec<(usize, T)>>,
    /// Worker replies still outstanding.
    pub(crate) awaited: usize,
    /// Per-device shard payloads harvested so far.
    pub(crate) collected: Vec<(usize, T)>,
}

impl<T> PendingBatch<T> {
    /// Harvests worker replies without blocking; `true` once every awaited
    /// reply has arrived.
    pub(crate) fn poll(&mut self) -> bool {
        while self.awaited > 0 {
            match self.rx.try_recv() {
                Ok(shards) => {
                    self.collected.extend(shards);
                    self.awaited -= 1;
                }
                Err(mpsc::TryRecvError::Empty) => return false,
                Err(mpsc::TryRecvError::Disconnected) => {
                    panic!("worker thread died mid-batch")
                }
            }
        }
        true
    }

    /// Blocks until every awaited reply has arrived.
    pub(crate) fn wait(&mut self) {
        while self.awaited > 0 {
            self.collected
                .extend(self.rx.recv().expect("worker thread died mid-batch"));
            self.awaited -= 1;
        }
    }

    /// Sorts the collected shards into device order (workers answer in
    /// completion order; downstream merges are defined in device order so
    /// results are independent of thread scheduling).
    pub(crate) fn into_device_order(mut self) -> Vec<(usize, T)> {
        self.collected.sort_by_key(|&(d, _)| d);
        self.collected
    }
}

impl PendingBatch<OpStats> {
    /// Device-order merge of the collected shards.
    fn finish(self, devices: usize) -> BatchResult {
        let collected = self.into_device_order();
        merge_shards(collected, devices)
    }
}

/// Multi-threaded sharded executor: one host worker thread per (group of)
/// device(s), each owning its simulated engines, fed over channels.
///
/// Device `d` is owned by worker `d % workers`; every batch's shard for a
/// given device runs on that device's engine in submission order, so the
/// per-device launch sequences — and therefore the simulated statistics —
/// are identical to [`SimExecutor`]'s. Parallelism buys host wall-clock
/// only; virtual time is untouched.
#[derive(Debug)]
pub struct ThreadedPool {
    cfg: EngineConfig,
    devices: usize,
    senders: Vec<mpsc::Sender<Job<OpStats>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next: u64,
    /// Outstanding submissions: receiver plus the number of worker replies
    /// the merge must wait for.
    // lint: ordered-ok (keyed insert/remove by handle only; never iterated)
    pending: HashMap<u64, PendingBatch<OpStats>>,
}

impl ThreadedPool {
    /// Spawns `workers` threads driving `devices` simulated engines.
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `workers` is zero (checked by
    /// [`build_executor`]; construct through it for a fallible path).
    #[must_use]
    pub fn new(cfg: EngineConfig, devices: usize, workers: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        assert!(workers > 0, "need at least one worker");
        let workers = workers.min(devices);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Job<OpStats>>();
            let my_devices: Vec<usize> = (0..devices).filter(|d| d % workers == w).collect();
            let worker_cfg = cfg.clone();
            let handle = std::thread::Builder::new()
                .name(worker_thread_name(&my_devices))
                .spawn(move || {
                    // Engines live inside the thread: the simulator state
                    // never crosses thread boundaries, only plain results.
                    // lint: ordered-ok (keyed get_mut by device id only; never iterated)
                    let mut engines: HashMap<usize, Engine> = my_devices
                        .iter()
                        .map(|&d| (d, Engine::new(worker_cfg.clone())))
                        .collect();
                    while let Ok(job) = rx.recv() {
                        let mut out = Vec::with_capacity(job.shards.len());
                        for (d, width) in job.shards {
                            let engine = engines.get_mut(&d).expect("shard for owned device");
                            out.push((d, engine.run_schedule(&job.tag, &job.events, width)));
                        }
                        // A dropped receiver means the pool abandoned the
                        // batch; nothing to do but keep serving.
                        let _ = job.reply.send(out);
                    }
                })
                .expect("spawn worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            cfg,
            devices,
            senders,
            handles,
            next: 0,
            pending: HashMap::new(),
        }
    }

    /// Worker thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.senders.len()
    }
}

impl Executor for ThreadedPool {
    fn submit(&mut self, batch: ExecBatch) -> ExecHandle {
        let widths = shard_widths(batch.width, self.devices);
        let workers = self.senders.len();
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut replies = 0usize;
        for (w, tx) in self.senders.iter().enumerate() {
            let shards: Vec<(usize, usize)> = widths
                .iter()
                .enumerate()
                .filter(|&(d, &width)| d % workers == w && width > 0)
                .map(|(d, &width)| (d, width))
                .collect();
            if shards.is_empty() {
                continue;
            }
            tx.send(Job {
                tag: Arc::clone(&batch.tag),
                events: Arc::clone(&batch.events),
                shards,
                reply: reply_tx.clone(),
            })
            .expect("worker thread alive");
            replies += 1;
        }
        let id = self.next;
        self.next += 1;
        self.pending.insert(
            id,
            PendingBatch {
                rx: reply_rx,
                awaited: replies,
                collected: Vec::new(),
            },
        );
        ExecHandle(id)
    }

    fn join(&mut self, handle: ExecHandle) -> BatchResult {
        let mut batch = self
            .pending
            .remove(&handle.0)
            .expect("join of an unknown or already-joined handle");
        batch.wait();
        batch.finish(self.devices)
    }

    fn try_join(&mut self, handle: ExecHandle) -> Option<BatchResult> {
        let batch = self
            .pending
            .get_mut(&handle.0)
            .expect("try_join of an unknown or already-joined handle");
        if !batch.poll() {
            return None;
        }
        let batch = self.pending.remove(&handle.0).expect("present");
        Some(batch.finish(self.devices))
    }

    fn caps(&self) -> ExecCaps {
        ExecCaps {
            devices: self.devices,
            workers: self.senders.len(),
            vram_bytes_per_device: self.cfg.device.vram_bytes(),
            power_watts: self.cfg.device.power_watts * self.devices as f64,
            device_name: self.cfg.device.name.clone(),
            backend: ExecBackend::Sim.label(),
        }
    }
}

impl Drop for ThreadedPool {
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
    use crate::schedule::hmult_schedule;
    use tensorfhe_ckks::CkksParams;

    fn batch(params: &CkksParams, width: usize) -> ExecBatch {
        ExecBatch {
            tag: "HMULT".into(),
            events: hmult_schedule(params, params.max_level()).into(),
            width,
        }
    }

    fn run(exec: &mut dyn Executor, b: ExecBatch) -> BatchResult {
        let h = exec.submit(b);
        exec.join(h)
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

    #[test]
    fn threaded_pool_is_bit_identical_to_serial() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        for devices in [2usize, 4] {
            let mut serial = SimExecutor::new(cfg.clone(), devices);
            let mut pool = ThreadedPool::new(cfg.clone(), devices, devices);
            // A sequence of batches so simulator state evolves per device.
            for width in [1usize, 7, 16, 64, 5] {
                let hs = serial.submit(batch(&params, width));
                let hp = pool.submit(batch(&params, width));
                let rs = serial.join(hs);
                let rp = pool.join(hp);
                assert_eq!(
                    bits(&rs),
                    bits(&rp),
                    "serial vs threaded diverged at devices={devices} width={width}"
                );
            }
        }
    }

    #[test]
    fn fewer_workers_than_devices_still_bit_identical() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut serial = SimExecutor::new(cfg.clone(), 4);
        let mut pool = ThreadedPool::new(cfg, 4, 2);
        assert_eq!(pool.workers(), 2);
        for width in [64usize, 3, 9] {
            let rs = run(&mut serial, batch(&params, width));
            let rp = run(&mut pool, batch(&params, width));
            assert_eq!(bits(&rs), bits(&rp), "2-worker pool diverged");
        }
    }

    #[test]
    fn merge_passthrough_keeps_single_shard_stats() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut engine = Engine::new(cfg.clone());
        let events = hmult_schedule(&params, params.max_level());
        let want = engine.run_schedule("HMULT", &events, 8);

        let mut exec = SimExecutor::new(cfg, 1);
        let got = run(&mut exec, batch(&params, 8));
        assert_eq!(got.stats.time_us.to_bits(), want.time_us.to_bits());
        assert_eq!(got.stats.occupancy.to_bits(), want.occupancy.to_bits());
        assert_eq!(got.stats.by_kernel, want.by_kernel);
        assert_eq!(got.per_device_us, vec![want.time_us]);
    }

    #[test]
    fn per_device_time_covers_idle_devices() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut exec = SimExecutor::new(cfg, 4);
        let r = run(&mut exec, batch(&params, 2));
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
        // each handle to its own result (FIFO per worker).
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut pool = ThreadedPool::new(cfg.clone(), 2, 2);
        let h1 = pool.submit(batch(&params, 4));
        let h2 = pool.submit(batch(&params, 32));
        let r2 = pool.join(h2);
        let r1 = pool.join(h1);
        let mut serial = SimExecutor::new(cfg, 2);
        let s1 = run(&mut serial, batch(&params, 4));
        let s2 = run(&mut serial, batch(&params, 32));
        assert_eq!(bits(&r1), bits(&s1));
        assert_eq!(bits(&r2), bits(&s2));
    }

    #[test]
    fn try_join_is_nonblocking_and_consumes_on_success() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);

        // Serial executor: submission runs eagerly, so try_join always
        // resolves immediately and matches the blocking path bit-for-bit.
        let mut serial = SimExecutor::new(cfg.clone(), 2);
        let h = serial.submit(batch(&params, 8));
        let r = serial.try_join(h).expect("eager executor is always ready");
        let mut reference = SimExecutor::new(cfg.clone(), 2);
        let want = run(&mut reference, batch(&params, 8));
        assert_eq!(bits(&r), bits(&want));

        // Threaded pool: poll until the workers finish; the harvested
        // result must equal the blocking join of an identical submission.
        let mut pool = ThreadedPool::new(cfg.clone(), 2, 2);
        let h1 = pool.submit(batch(&params, 8));
        let r1 = loop {
            if let Some(r) = pool.try_join(h1) {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(bits(&r1), bits(&want), "polled result diverged");
    }

    #[test]
    fn try_join_interleaves_with_multi_outstanding_submissions() {
        // The pipelined-scheduler usage pattern: several batches in flight,
        // handles polled out of order, blocking joins mixed in. Results
        // must match a serial submit-join-submit-join sequence exactly.
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let widths = [3usize, 16, 7, 1];

        let mut serial = SimExecutor::new(cfg.clone(), 2);
        let wants: Vec<BatchResult> = widths
            .iter()
            .map(|&w| run(&mut serial, batch(&params, w)))
            .collect();

        let mut pool = ThreadedPool::new(cfg, 2, 2);
        let handles: Vec<ExecHandle> = widths
            .iter()
            .map(|&w| pool.submit(batch(&params, w)))
            .collect();
        // Poll the third handle to completion, join the rest blockingly in
        // reverse submission order.
        let r2 = loop {
            if let Some(r) = pool.try_join(handles[2]) {
                break r;
            }
            std::thread::yield_now();
        };
        let r3 = pool.join(handles[3]);
        let r1 = pool.join(handles[1]);
        let r0 = pool.join(handles[0]);
        for (got, want) in [r0, r1, r2, r3].iter().zip(&wants) {
            assert_eq!(bits(got), bits(want), "out-of-order harvest diverged");
        }
    }

    #[test]
    #[should_panic(expected = "unknown or already-joined")]
    fn try_join_rejects_consumed_handles() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut exec = SimExecutor::new(cfg, 1);
        let h = exec.submit(batch(&params, 2));
        let _ = exec.join(h);
        let _ = exec.try_join(h);
    }

    #[test]
    fn caps_report_the_cluster() {
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let pool = ThreadedPool::new(cfg.clone(), 4, 4);
        let caps = pool.caps();
        assert_eq!(caps.devices, 4);
        assert_eq!(caps.workers, 4);
        assert!((caps.power_watts - 4.0 * cfg.device.power_watts).abs() < 1e-9);
        assert_eq!(caps.vram_bytes_per_device, cfg.device.vram_bytes());
    }

    #[test]
    fn build_executor_rejects_zero_configs() {
        let cfg = EngineConfig::a100(Variant::TensorCore);
        assert!(build_executor(&cfg, 0, 1, ExecBackend::Sim, 0).is_err());
        assert!(build_executor(&cfg, 1, 0, ExecBackend::Sim, 0).is_err());
        let serial = build_executor(&cfg, 1, 8, ExecBackend::Sim, 0).expect("clamped to devices");
        assert_eq!(serial.caps().workers, 1, "1 device → serial executor");
        assert_eq!(serial.caps().backend, "sim");
        assert!(serial.host_work().is_none(), "sim backends do no host work");
        assert!(serial.steal_stats().is_none(), "sim backends never steal");
        let pool = build_executor(&cfg, 4, 8, ExecBackend::Sim, 0).expect("clamped to devices");
        assert_eq!(pool.caps().workers, 4);
        // Host backends keep surplus workers (they steal) and honor the cap.
        let host = build_executor(&cfg, 4, 8, ExecBackend::HostParallel, 4).expect("host executor");
        assert_eq!(host.caps().workers, 8, "host workers are not clamped");
        assert!(host.steal_stats().is_some());
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [
            ExecBackend::Sim,
            ExecBackend::HostParallel,
            ExecBackend::HostScalar,
        ] {
            assert_eq!(ExecBackend::parse(b.label()), Some(b));
        }
        assert_eq!(ExecBackend::parse("cuda"), None);
        assert_eq!(ExecBackend::default(), ExecBackend::Sim);
    }

    #[test]
    fn worker_threads_are_named_after_their_devices() {
        assert_eq!(worker_thread_name(&[0]), "tfhe-worker-0");
        assert_eq!(worker_thread_name(&[1, 3]), "tfhe-worker-1+3");
        // The pool names real threads with it (observable via the panic
        // path and profilers; here we just pin the scheme on the spawned
        // thread itself).
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let pool = ThreadedPool::new(cfg, 4, 2);
        let names: Vec<Option<&str>> = pool.handles.iter().map(|h| h.thread().name()).collect();
        assert_eq!(
            names,
            vec![Some("tfhe-worker-0+2"), Some("tfhe-worker-1+3")],
            "worker threads must carry device-attributing names"
        );
    }
}
