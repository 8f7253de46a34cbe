//! The host-parallel backend: the first executor that *computes* instead
//! of simulating — now at full width, with work stealing.
//!
//! [`HostParallelExecutor`] keeps the [`super::ThreadedPool`]-style
//! job/reply machinery for the *simulated* side — one worker thread per
//! (group of) device(s), batches sharded by [`shard_widths`], results
//! merged in device order — but the *real* arithmetic no longer rides
//! inside those per-device jobs. At `submit` every GEMM-shaped kernel
//! event shard is split into row-range **chunks** and pushed onto the
//! owning worker's deque; workers execute chunks between (and after)
//! their simulated jobs, and any idle worker **steals** chunks from busy
//! ones:
//!
//! * `NTT`/`INTT` events run the batched four-step pipeline
//!   (`tensorfhe_ntt::BatchedGemmNtt`) over the chunk's row range —
//!   through the plan's own batch path, the fused Montgomery GEMMs on
//!   SIMD register tiles ([`ExecBackend::HostParallel`]), or through the
//!   explicitly named Barrett reference pipeline
//!   ([`ExecBackend::HostScalar`], the baseline `fig14_host_gemm`
//!   measures against). Chunks are whole rows.
//! * `Conv` events run the wide basis-conversion GEMM (`BasisConvGemm`,
//!   one word-size kernel under both host backends); chunks are column
//!   ranges of the `(L_dst × L_src) × (L_src × W)` product, generated and
//!   folded independently per column.
//! * Element-wise events are counted but not executed — the issue scope
//!   is the two GEMM families, which dominate the arithmetic.
//!
//! # Chunk / steal lifecycle
//!
//! `submit` plans chunks as a pure function of `(events, shard widths,
//! rows_cap)` — no engine or worker state — sized so each holds roughly
//! `CHUNK_ELEMS` (16 Ki) elements. A chunk for device `d` lands at the back of
//! the deque of worker `d % workers` (the worker that owns the device's
//! engine). Owners pop their own deque from the **back** (LIFO: the
//! freshest chunk is the cache-warmest); thieves scan the other deques
//! and pop from the **front** (FIFO: the oldest chunk is the largest
//! remaining tranche of a stranger's work, and the ends never contend) —
//! the chase-lev discipline, here with a plain mutex per deque.
//!
//! Stealing crosses devices freely, but **engines never migrate**: the
//! simulated `Engine` is stateful (its launch history *is* the
//! deterministic report stream) and must see every batch of its device
//! in submission order on one thread. Chunks carry no engine state at
//! all — inputs are regenerated from the seed, outputs are folded into
//! an order-insensitive checksum — so executing one on a foreign worker
//! is indistinguishable from executing it at home. That asymmetry is the
//! whole design: determinism lives with the device-owned engines,
//! parallelism lives with the ownerless chunks. It also means workers in
//! excess of devices (legal since this rewrite) are pure thieves:
//! they own no engine, receive no simulated jobs, and still earn real
//! speedup on the arithmetic.
//!
//! Inputs are generated deterministically per `(device, event, row)` —
//! and per column for `Conv` — from splitmix64, and checksums are folded
//! with each residue's *global* position in its event block, so
//! [`HostWorkStats`] is a pure function of the submitted batch sequence:
//! independent of worker count, chunk boundaries, steal pattern, join
//! order, and kernel flavour (fast and scalar kernels are bit-identical,
//! a property the cross-backend suite pins). By default every row runs
//! (`rows_cap = 0`, uncapped); a positive cap bounds real rows per event
//! shard for hosts where paper widths are intractable
//! (`TENSORFHE_ROWS_CAP`, CI's bounded corners).
//!
//! The *simulated* reports are produced by exactly the same per-device
//! [`Engine`] launch sequences as [`super::SimExecutor`], so every report
//! and stat above the seam stays bit-identical at every workers × depth ×
//! admission point — host arithmetic buys wall-clock measurements, never
//! result drift.

use super::{
    merge_shards, shard_widths, worker_thread_name, BatchResult, ExecBackend, ExecBatch, ExecCaps,
    ExecHandle, Executor, Job, PendingBatch,
};
use crate::engine::{Engine, EngineConfig, OpStats};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use tensorfhe_ckks::KernelEvent;
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_ntt::{NttAlgorithm, NttBatchOps, PlanCache};

/// Default cap on real rows (NTT) / block columns-per-degree (Conv)
/// executed per kernel event shard: `0` = uncapped, every row runs.
/// CI's bounded corners and debug-mode hosts set a small positive cap
/// (`TENSORFHE_ROWS_CAP`).
pub const DEFAULT_ROWS_CAP: usize = 0;

/// Rough element budget per work-stealing chunk: full NTT rows (so a
/// chunk is a `⌈CHUNK_ELEMS/n⌉ × n` block) or Conv columns (weighted by
/// `l_src + l_dst`, the elements a column touches). Big enough that the
/// deque traffic is noise, small enough that a paper-width event splits
/// across every worker.
const CHUNK_ELEMS: usize = 1 << 14;

/// Applies the per-event-shard real-row cap (`0` = uncapped).
fn capped(units: usize, cap: usize) -> usize {
    let units = units.max(1);
    if cap == 0 {
        units
    } else {
        units.min(cap)
    }
}

/// Counters for the real arithmetic a host backend executed, plus a
/// fold of every output residue produced.
///
/// All fields merge by wrapping addition, so totals are independent of
/// shard merge order and join order; the checksum salts each residue with
/// its global position in its event block, so it is bit-identical across
/// worker counts, chunk boundaries, steal patterns, and the fast/scalar
/// kernel flavours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostWorkStats {
    /// Polynomial rows transformed through the batched NTT pipeline.
    pub ntt_rows: u64,
    /// Coefficient columns converted through the basis-conversion GEMM.
    pub conv_cols: u64,
    /// Elements of element-wise kernel events (counted, not executed).
    pub elems: u64,
    /// Order-insensitive fold of every output residue produced.
    pub checksum: u64,
}

impl HostWorkStats {
    /// Merges another counter set in (wrapping, commutative).
    pub fn absorb(&mut self, other: HostWorkStats) {
        self.ntt_rows = self.ntt_rows.wrapping_add(other.ntt_rows);
        self.conv_cols = self.conv_cols.wrapping_add(other.conv_cols);
        self.elems = self.elems.wrapping_add(other.elems);
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }

    /// Whether any real arithmetic was executed.
    #[must_use]
    pub fn did_work(&self) -> bool {
        self.ntt_rows > 0 || self.conv_cols > 0
    }
}

/// Work-stealing scheduler counters (monotonic over the executor's life).
///
/// `steals`/`stolen_rows` depend on thread timing and are **not** part of
/// any determinism contract; `planned_rows`/`executed_rows` are — work
/// conservation demands they agree once every submitted batch is joined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Chunks executed by a worker other than their device's owner.
    pub steals: u64,
    /// Work units (NTT rows / Conv columns) inside those stolen chunks.
    pub stolen_rows: u64,
    /// Work units planned across all submitted batches.
    pub planned_rows: u64,
    /// Work units actually executed by the workers.
    pub executed_rows: u64,
}

/// splitmix64 step — the deterministic input stream for real kernel work.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed for `(device, event index, row)` — worker-count independent by
/// construction (devices are fixed to their data, not to their workers).
fn row_seed(device: usize, event: usize, row: usize) -> u64 {
    (device as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((event as u64) << 24)
        .wrapping_add(row as u64)
}

fn fill_row(out: &mut [u64], q: u64, seed: u64) {
    let mut state = seed;
    for x in out.iter_mut() {
        *x = splitmix(&mut state) % q;
    }
}

/// Random-access cell of a row stream: the value at `col` of the row
/// seeded by `seed`, computable without streaming through earlier
/// columns — what lets a Conv column chunk generate its inputs
/// independently of where its range starts.
fn row_cell(seed: u64, col: usize, q: u64) -> u64 {
    let mut state = seed.wrapping_add((col as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    splitmix(&mut state) % q
}

/// Order-insensitive residue fold: each value is salted with its global
/// position `base + i` in its event block (so swapped values do not
/// cancel), making the fold independent of how the block was chunked.
fn fold_checksum_at(acc: &mut u64, base: u64, values: &[u64]) {
    for (i, &v) in values.iter().enumerate() {
        let mut state = v.wrapping_add(base.wrapping_add(i as u64) << 32);
        *acc = acc.wrapping_add(splitmix(&mut state));
    }
}

/// One stealable unit of real arithmetic: a row (NTT) or column (Conv)
/// range of one kernel event's device shard. Pure data — regenerates its
/// inputs from the seed, so it can execute on any worker.
#[derive(Debug)]
struct Chunk {
    work: Arc<BatchWork>,
    events: Arc<[KernelEvent]>,
    event_idx: usize,
    device: usize,
    /// Row range (NTT) or column range (Conv) this chunk covers.
    units: Range<usize>,
    /// Total units of the whole event shard (checksum position base).
    total_units: usize,
}

/// Per-batch real-work rendezvous: outstanding chunk count plus the
/// order-insensitively folded stats; `join` waits on it alongside the
/// simulated replies.
#[derive(Debug)]
struct BatchWork {
    remaining: Mutex<usize>,
    done: Condvar,
    stats: Mutex<HostWorkStats>,
}

impl BatchWork {
    fn new(chunks: usize, upfront: HostWorkStats) -> Self {
        Self {
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
            stats: Mutex::new(upfront),
        }
    }

    /// Folds one executed chunk in and releases waiters on the last one.
    fn complete_one(&self, local: HostWorkStats) {
        self.stats.lock().expect("stats lock").absorb(local);
        let mut left = self.remaining.lock().expect("remaining lock");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn finished(&self) -> bool {
        *self.remaining.lock().expect("remaining lock") == 0
    }

    fn wait_done(&self) {
        let mut left = self.remaining.lock().expect("remaining lock");
        while *left > 0 {
            left = self.done.wait(left).expect("remaining lock");
        }
    }

    fn stats(&self) -> HostWorkStats {
        *self.stats.lock().expect("stats lock")
    }
}

/// State shared between the executor handle and every worker: the
/// per-worker chunk deques, the sleep/wake signal, and the steal
/// counters.
#[derive(Debug)]
struct StealShared {
    /// One deque per worker; owner pops back, thieves pop front.
    queues: Vec<Mutex<VecDeque<Chunk>>>,
    /// Generation counter under the wait mutex: `submit` bumps it after
    /// publishing work, idle workers sleep only while it is unchanged —
    /// the classic lost-wakeup guard.
    gen: Mutex<u64>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    steals: AtomicU64,
    stolen_rows: AtomicU64,
    planned_rows: AtomicU64,
    executed_rows: AtomicU64,
}

impl StealShared {
    fn new(workers: usize) -> Self {
        Self {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gen: Mutex::new(0),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            stolen_rows: AtomicU64::new(0),
            planned_rows: AtomicU64::new(0),
            executed_rows: AtomicU64::new(0),
        }
    }

    /// Publishes new work (or shutdown): bump the generation and wake
    /// every sleeper.
    fn bump(&self) {
        let mut g = self.gen.lock().expect("gen lock");
        *g = g.wrapping_add(1);
        self.work_ready.notify_all();
    }

    /// Next chunk for worker `me`: own deque from the back, else steal
    /// the front of someone else's. `true` = stolen.
    fn next_chunk(&self, me: usize) -> Option<(Chunk, bool)> {
        if let Some(c) = self.queues[me].lock().expect("queue lock").pop_back() {
            return Some((c, false));
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(c) = self.queues[victim].lock().expect("queue lock").pop_front() {
                return Some((c, true));
            }
        }
        None
    }
}

/// Per-worker real-arithmetic state: the kernel flavour and caches of the
/// deterministic primes backing the work (the plans themselves are shared
/// through [`PlanCache::global`], and every thread's cache regenerates
/// identical primes).
struct RealWork {
    backend: ExecBackend,
    // lint: ordered-ok (keyed entry by degree only; never iterated)
    ntt_primes: HashMap<usize, u64>,
    // lint: ordered-ok (keyed entry by shape only; never iterated)
    conv_primes: HashMap<(usize, usize), Vec<u64>>,
}

impl RealWork {
    fn new(backend: ExecBackend) -> Self {
        Self {
            backend,
            ntt_primes: HashMap::new(),
            conv_primes: HashMap::new(),
        }
    }

    fn ntt_prime(&mut self, n: usize) -> u64 {
        *self
            .ntt_primes
            .entry(n)
            .or_insert_with(|| generate_ntt_primes(1, 28, n as u64)[0])
    }

    /// Executes one chunk's real arithmetic and returns its fold.
    fn run_chunk(&mut self, chunk: &Chunk) -> HostWorkStats {
        let fast = self.backend == ExecBackend::HostParallel;
        let mut work = HostWorkStats::default();
        match chunk.events[chunk.event_idx] {
            KernelEvent::Ntt { n, inverse, .. } => {
                let q = self.ntt_prime(n);
                let plan = PlanCache::global().get(n, q, NttAlgorithm::FourStep);
                let rows = chunk.units.len();
                let mut block = vec![0u64; rows * n];
                for (r, row) in block.chunks_mut(n).enumerate() {
                    fill_row(
                        row,
                        q,
                        row_seed(chunk.device, chunk.event_idx, chunk.units.start + r),
                    );
                }
                {
                    let mut views: Vec<&mut [u64]> = block.chunks_mut(n).collect();
                    // The plan's own batch path is the fast one; the
                    // scalar backend asks for the Barrett reference by name.
                    match (fast, inverse) {
                        (true, false) => plan.forward_batch(&mut views),
                        (true, true) => plan.inverse_batch(&mut views),
                        (false, _) => plan.reference_batch(&mut views, inverse),
                    }
                }
                for (r, row) in block.chunks(n).enumerate() {
                    let base = ((chunk.units.start + r) * n) as u64;
                    fold_checksum_at(&mut work.checksum, base, row);
                }
                work.ntt_rows = work.ntt_rows.wrapping_add(rows as u64);
            }
            KernelEvent::Conv { l_src, l_dst, .. } => {
                let pool = self
                    .conv_primes
                    .entry((l_src, l_dst))
                    .or_insert_with(|| generate_ntt_primes(l_src + l_dst, 28, 1 << 10))
                    .clone();
                let (src, rest) = pool.split_at(l_src);
                let dst = &rest[..l_dst];
                let plan = PlanCache::global().get_bconv(src, dst);
                let cols = chunk.units.len();
                let mut src_flat = vec![0u64; l_src * cols];
                for (i, (row, &q)) in src_flat.chunks_mut(cols).zip(src).enumerate() {
                    let seed = row_seed(chunk.device, chunk.event_idx, i);
                    for (c, x) in row.iter_mut().enumerate() {
                        *x = row_cell(seed, chunk.units.start + c, q);
                    }
                }
                let mut out_flat = vec![0u64; l_dst * cols];
                {
                    let src_rows: Vec<&[u64]> = src_flat.chunks(cols).collect();
                    let mut out_rows: Vec<&mut [u64]> = out_flat.chunks_mut(cols).collect();
                    // One conversion kernel serves both host backends.
                    plan.convert_block_into(&src_rows, &mut out_rows);
                }
                for (i, orow) in out_flat.chunks(cols).enumerate() {
                    let base = (i * chunk.total_units + chunk.units.start) as u64;
                    fold_checksum_at(&mut work.checksum, base, orow);
                }
                work.conv_cols = work.conv_cols.wrapping_add(cols as u64);
            }
            // Element-wise events are counted at submit, never chunked.
            _ => unreachable!("only GEMM-shaped events are chunked"),
        }
        work
    }
}

/// Data-parallel CPU backend: per-device worker threads that execute the
/// batched-NTT and basis-conversion GEMMs with real host arithmetic at
/// full width, stealing row-chunks from each other when idle (see the
/// module docs), while reproducing [`super::SimExecutor`]'s simulated
/// reports bit-for-bit.
#[derive(Debug)]
pub struct HostParallelExecutor {
    cfg: EngineConfig,
    devices: usize,
    backend: ExecBackend,
    rows_cap: usize,
    senders: Vec<mpsc::Sender<Job<OpStats>>>,
    shared: Arc<StealShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next: u64,
    // lint: ordered-ok (keyed insert/remove by handle only; never iterated)
    pending: HashMap<u64, HostPending>,
    /// Real work accumulated across joined batches (join-order
    /// insensitive: all fields merge by wrapping addition).
    work: HostWorkStats,
}

/// An in-flight host batch: the simulated replies plus the real-work
/// rendezvous.
#[derive(Debug)]
struct HostPending {
    sim: PendingBatch<OpStats>,
    real: Arc<BatchWork>,
}

impl HostParallelExecutor {
    /// Spawns `workers` threads driving `devices` engines with the default
    /// (uncapped) real-row policy.
    ///
    /// Unlike the simulated backends, `workers` is **not** clamped to
    /// `devices`: surplus workers own no engine and receive no simulated
    /// jobs, but steal real-arithmetic chunks and earn real speedup.
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `workers` is zero, or if `backend` is
    /// [`ExecBackend::Sim`] (build that through
    /// [`super::build_executor`]).
    #[must_use]
    pub fn new(cfg: EngineConfig, devices: usize, workers: usize, backend: ExecBackend) -> Self {
        Self::with_rows_cap(cfg, devices, workers, backend, DEFAULT_ROWS_CAP)
    }

    /// [`HostParallelExecutor::new`] with an explicit cap on real rows
    /// (NTT) / width factor (Conv) executed per kernel event shard; `0`
    /// means uncapped (the default). CI's bounded corners and debug-mode
    /// test hosts set a small cap to keep paper widths tractable.
    #[must_use]
    pub fn with_rows_cap(
        cfg: EngineConfig,
        devices: usize,
        workers: usize,
        backend: ExecBackend,
        rows_cap: usize,
    ) -> Self {
        assert!(devices > 0, "need at least one device");
        assert!(workers > 0, "need at least one worker");
        assert!(
            backend != ExecBackend::Sim,
            "host executor needs a host backend"
        );
        let shared = Arc::new(StealShared::new(workers));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Job<OpStats>>();
            let my_devices: Vec<usize> = (0..devices).filter(|d| d % workers == w).collect();
            let name = if my_devices.is_empty() {
                // Pure thief: owns no device, only steals chunks.
                format!("tfhe-worker-s{w}")
            } else {
                worker_thread_name(&my_devices)
            };
            let worker_cfg = cfg.clone();
            let shared_w = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    // Engines and prime caches live inside the thread; the
                    // scratch arenas the kernels stage through are
                    // thread-local by design.
                    // lint: ordered-ok (keyed get_mut by device id only; never iterated)
                    let mut engines: HashMap<usize, Engine> = my_devices
                        .iter()
                        .map(|&d| (d, Engine::new(worker_cfg.clone())))
                        .collect();
                    let mut real = RealWork::new(backend);
                    loop {
                        // Snapshot the wake generation *before* looking for
                        // work: anything published after this point re-bumps
                        // it, so the sleep below cannot miss it.
                        let g0 = *shared_w.gen.lock().expect("gen lock");
                        let mut busy = false;
                        // Simulated jobs first — they are cheap and strictly
                        // ordered per device; chunks are the heavy tail.
                        while let Ok(job) = rx.try_recv() {
                            busy = true;
                            let mut out = Vec::with_capacity(job.shards.len());
                            for (d, width) in job.shards {
                                let engine = engines.get_mut(&d).expect("shard for owned device");
                                out.push((d, engine.run_schedule(&job.tag, &job.events, width)));
                            }
                            let _ = job.reply.send(out);
                        }
                        while let Some((chunk, stolen)) = shared_w.next_chunk(w) {
                            busy = true;
                            if stolen {
                                shared_w.steals.fetch_add(1, Ordering::Relaxed);
                                shared_w
                                    .stolen_rows
                                    .fetch_add(chunk.units.len() as u64, Ordering::Relaxed);
                            }
                            let local = real.run_chunk(&chunk);
                            shared_w
                                .executed_rows
                                .fetch_add(chunk.units.len() as u64, Ordering::Relaxed);
                            chunk.work.complete_one(local);
                        }
                        if busy {
                            continue;
                        }
                        if shared_w.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let guard = shared_w.gen.lock().expect("gen lock");
                        if *guard == g0 {
                            drop(shared_w.work_ready.wait(guard).expect("gen lock"));
                        }
                    }
                })
                .expect("spawn worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            cfg,
            devices,
            backend,
            rows_cap,
            senders,
            shared,
            handles,
            next: 0,
            pending: HashMap::new(),
            work: HostWorkStats::default(),
        }
    }

    /// Worker thread count (not clamped to the device count).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The per-event real-row cap (`0` = uncapped).
    #[must_use]
    pub fn rows_cap(&self) -> usize {
        self.rows_cap
    }

    /// Work-stealing scheduler counters (see [`StealStats`]).
    #[must_use]
    pub fn steals(&self) -> StealStats {
        StealStats {
            steals: self.shared.steals.load(Ordering::Relaxed),
            stolen_rows: self.shared.stolen_rows.load(Ordering::Relaxed),
            planned_rows: self.shared.planned_rows.load(Ordering::Relaxed),
            executed_rows: self.shared.executed_rows.load(Ordering::Relaxed),
        }
    }

    fn settle(&mut self, pending: HostPending) -> BatchResult {
        self.work.absorb(pending.real.stats());
        let collected = pending.sim.into_device_order();
        merge_shards(collected, self.devices)
    }
}

impl Executor for HostParallelExecutor {
    fn submit(&mut self, batch: ExecBatch) -> ExecHandle {
        let widths = shard_widths(batch.width, self.devices);
        let workers = self.senders.len();
        // Simulated jobs: unchanged ThreadedPool discipline — each worker
        // runs its owned devices' shards in submission order.
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
        // Real-arithmetic chunks: planned purely from (events, widths,
        // rows_cap), so the plan — and through the position-salted
        // checksum, the folded result — is independent of who executes
        // what.
        let mut upfront = HostWorkStats::default();
        let mut planned: Vec<(usize, usize, Range<usize>, usize)> = Vec::new();
        for (d, &width) in widths.iter().enumerate() {
            if width == 0 {
                continue;
            }
            for (ei, ev) in batch.events.iter().enumerate() {
                match *ev {
                    KernelEvent::Ntt { n, limbs, .. } => {
                        if n < 4 || !n.is_power_of_two() {
                            continue;
                        }
                        let rows = capped(width * limbs, self.rows_cap);
                        let step = (CHUNK_ELEMS / n).max(1);
                        let mut r0 = 0;
                        while r0 < rows {
                            let r1 = (r0 + step).min(rows);
                            planned.push((d, ei, r0..r1, rows));
                            r0 = r1;
                        }
                    }
                    KernelEvent::Conv { n, l_src, l_dst } => {
                        if l_src == 0 || l_dst == 0 {
                            continue;
                        }
                        let cols = capped(width, self.rows_cap) * n.max(1);
                        let step = (CHUNK_ELEMS / (l_src + l_dst)).max(1);
                        let mut c0 = 0;
                        while c0 < cols {
                            let c1 = (c0 + step).min(cols);
                            planned.push((d, ei, c0..c1, cols));
                            c0 = c1;
                        }
                    }
                    KernelEvent::HadaMult { n, limbs }
                    | KernelEvent::EleAdd { n, limbs }
                    | KernelEvent::EleSub { n, limbs }
                    | KernelEvent::FrobeniusMap { n, limbs }
                    | KernelEvent::Conjugate { n, limbs } => {
                        upfront.elems = upfront.elems.wrapping_add((n * limbs * width) as u64);
                    }
                }
            }
        }
        let real = Arc::new(BatchWork::new(planned.len(), upfront));
        let mut units = 0u64;
        for (d, ei, range, total) in planned {
            units += range.len() as u64;
            self.shared.queues[d % workers]
                .lock()
                .expect("queue lock")
                .push_back(Chunk {
                    work: Arc::clone(&real),
                    events: Arc::clone(&batch.events),
                    event_idx: ei,
                    device: d,
                    units: range,
                    total_units: total,
                });
        }
        self.shared.planned_rows.fetch_add(units, Ordering::Relaxed);
        self.shared.bump();
        let id = self.next;
        self.next += 1;
        self.pending.insert(
            id,
            HostPending {
                sim: PendingBatch {
                    rx: reply_rx,
                    awaited: replies,
                    collected: Vec::new(),
                },
                real,
            },
        );
        ExecHandle(id)
    }

    fn join(&mut self, handle: ExecHandle) -> BatchResult {
        let mut pending = self
            .pending
            .remove(&handle.0)
            .expect("join of an unknown or already-joined handle");
        pending.sim.wait();
        pending.real.wait_done();
        self.settle(pending)
    }

    fn try_join(&mut self, handle: ExecHandle) -> Option<BatchResult> {
        let pending = self
            .pending
            .get_mut(&handle.0)
            .expect("try_join of an unknown or already-joined handle");
        if !pending.sim.poll() || !pending.real.finished() {
            return None;
        }
        let pending = self.pending.remove(&handle.0).expect("present");
        Some(self.settle(pending))
    }

    fn caps(&self) -> ExecCaps {
        ExecCaps {
            devices: self.devices,
            workers: self.senders.len(),
            vram_bytes_per_device: self.cfg.device.vram_bytes(),
            power_watts: self.cfg.device.power_watts * self.devices as f64,
            device_name: self.cfg.device.name.clone(),
            backend: self.backend.label(),
        }
    }

    fn host_work(&self) -> Option<HostWorkStats> {
        Some(self.work)
    }

    fn steal_stats(&self) -> Option<StealStats> {
        Some(self.steals())
    }
}

impl Drop for HostParallelExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bump(); // wake sleepers so they observe shutdown
        self.senders.clear(); // closes the channels; workers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SimExecutor;
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

    fn drain(exec: &mut dyn Executor, params: &CkksParams, widths: &[usize]) -> Vec<Vec<u64>> {
        let handles: Vec<ExecHandle> = widths
            .iter()
            .map(|&w| exec.submit(batch(params, w)))
            .collect();
        handles.into_iter().map(|h| bits(&exec.join(h))).collect()
    }

    /// Small-cap host executor: the unit tests pin seam semantics, which
    /// are rows_cap-independent; the uncapped path is exercised by the
    /// dedicated full-width tests (debug-mode CI stays fast).
    fn host(
        cfg: &EngineConfig,
        devices: usize,
        workers: usize,
        b: ExecBackend,
    ) -> HostParallelExecutor {
        HostParallelExecutor::with_rows_cap(cfg.clone(), devices, workers, b, 4)
    }

    #[test]
    fn host_backends_report_bit_identical_to_sim() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let widths = [1usize, 7, 16, 5];
        for devices in [1usize, 3] {
            let mut sim = SimExecutor::new(cfg.clone(), devices);
            let want = drain(&mut sim, &params, &widths);
            for backend in [ExecBackend::HostParallel, ExecBackend::HostScalar] {
                for workers in [1usize, devices] {
                    let mut host = host(&cfg, devices, workers, backend);
                    let got = drain(&mut host, &params, &widths);
                    assert_eq!(
                        got, want,
                        "{backend:?} workers={workers} devices={devices} diverged from sim"
                    );
                    assert!(
                        host.host_work().expect("host backend").did_work(),
                        "host backend must execute real arithmetic"
                    );
                }
            }
        }
    }

    #[test]
    fn checksums_agree_across_kernels_and_worker_counts() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let widths = [4usize, 9, 2];
        let mut reference = None;
        // Workers beyond the device count (6 > 4) join as pure thieves
        // and must not perturb the fold either.
        for backend in [ExecBackend::HostParallel, ExecBackend::HostScalar] {
            for workers in [1usize, 2, 4, 6] {
                let mut host = host(&cfg, 4, workers, backend);
                let _ = drain(&mut host, &params, &widths);
                let work = host.host_work().expect("host backend");
                assert!(work.ntt_rows > 0 && work.conv_cols > 0, "did real work");
                match &reference {
                    None => reference = Some(work),
                    Some(want) => assert_eq!(
                        &work, want,
                        "{backend:?} workers={workers}: host work diverged"
                    ),
                }
            }
        }
    }

    #[test]
    fn full_width_checksum_is_chunk_and_worker_invariant() {
        // Uncapped execution splits events into many chunks; the fold
        // must not care how they land across 1..=3 workers.
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut reference = None;
        for workers in [1usize, 2, 3] {
            let mut host =
                HostParallelExecutor::new(cfg.clone(), 2, workers, ExecBackend::HostParallel);
            let _ = drain(&mut host, &params, &[5usize, 3]);
            let work = host.host_work().expect("host backend");
            let steals = host.steals();
            assert_eq!(
                steals.planned_rows, steals.executed_rows,
                "workers={workers}: work conservation"
            );
            match &reference {
                None => reference = Some(work),
                Some(want) => {
                    assert_eq!(&work, want, "workers={workers}: full-width fold diverged");
                }
            }
        }
    }

    #[test]
    fn work_is_conserved_and_stealable_at_any_worker_count() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        for workers in [1usize, 2, 5] {
            let mut host = host(&cfg, 4, workers, ExecBackend::HostParallel);
            let _ = drain(&mut host, &params, &[8usize, 3, 1]);
            let s = host.steals();
            assert!(s.planned_rows > 0, "planned real work");
            assert_eq!(
                s.planned_rows, s.executed_rows,
                "workers={workers}: every planned unit must execute exactly once"
            );
            assert!(
                s.stolen_rows <= s.executed_rows,
                "stolen work is a subset of executed work"
            );
            if workers == 1 {
                assert_eq!(s.steals, 0, "a lone worker has nobody to steal from");
            }
        }
        // A pure-thief worker (workers > devices where device 0 owns the
        // only engine) *must* steal: it has no deque traffic of its own.
        let mut host = host(&cfg, 1, 2, ExecBackend::HostParallel);
        let _ = drain(&mut host, &params, &[16usize, 16, 16, 16]);
        let s = host.steals();
        assert_eq!(s.planned_rows, s.executed_rows);
        assert!(
            s.steals > 0,
            "a worker with no owned device only eats by stealing: {s:?}"
        );
    }

    #[test]
    fn caps_name_the_backend() {
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let host = HostParallelExecutor::new(cfg.clone(), 2, 2, ExecBackend::HostParallel);
        assert_eq!(host.caps().backend, "host-parallel");
        assert_eq!(host.caps().devices, 2);
        assert_eq!(host.workers(), 2);
        assert_eq!(host.rows_cap(), DEFAULT_ROWS_CAP);
        assert_eq!(host.rows_cap(), 0, "default is uncapped full width");
        let scalar = HostParallelExecutor::new(cfg, 1, 1, ExecBackend::HostScalar);
        assert_eq!(scalar.caps().backend, "host-scalar");
    }

    #[test]
    fn workers_beyond_devices_are_kept_and_reported() {
        // Regression: `with_rows_cap` used to clamp workers to devices
        // silently, so a user asking for 8 workers over 4 devices saw the
        // requested number in `caps()` but got 4 threads. Host executors
        // now keep every worker (surplus ones steal).
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let host = HostParallelExecutor::new(cfg, 4, 8, ExecBackend::HostParallel);
        assert_eq!(host.workers(), 8);
        assert_eq!(host.caps().workers, 8, "caps must report actual threads");
    }

    #[test]
    #[should_panic(expected = "host backend")]
    fn sim_backend_rejected() {
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let _ = HostParallelExecutor::new(cfg, 1, 1, ExecBackend::Sim);
    }
}
