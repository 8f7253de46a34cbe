//! Host arithmetic for the [`super::Pool`]: the stealable chunks the host
//! backend splits every GEMM-shaped kernel event into, the kernels they
//! run, and the deques they are stolen from.
//!
//! On [`ExecBackend::HostParallel`](super::ExecBackend::HostParallel),
//! `submit` splits every GEMM-shaped kernel event shard into row-range
//! **chunks** and queues them before it costs the engine shards on the
//! calling thread; the worker threads run chunks and nothing else, and any
//! idle worker **steals** chunks from busy ones:
//!
//! * `NTT`/`INTT` events run the butterfly plan
//!   (`tensorfhe_ntt::BatchedGemmNtt` with `NttAlgorithm::Butterfly`, the
//!   NTT `ckks::Evaluator` runs) over the chunk's row range, one row after
//!   another. Chunks are whole rows. The four-step GEMM plan is
//!   bit-identical but slower here: a CPU has no tensor core to make its
//!   MACs cheap, and at `2^13` it does 524 288 MACs per row against
//!   53 248 butterflies. The `kernels` bench's "host NTT by algorithm"
//!   table times both on the executor's chunk shape at `N = 2^12 … 2^16`;
//!   the butterfly wins at every degree
//!   (`kernels/host_butterfly_vs_fourstep` pins the `2^13` ratio). The
//!   GEMM NTT keeps its other jobs: the simulated A100's costed algorithm
//!   and `eval_gemm`.
//! * `Conv` events run the wide basis-conversion GEMM (`BasisConvGemm`,
//!   its word-size kernel); chunks are column ranges of the
//!   `(L_dst × L_src) × (L_src × W)` product, generated and folded
//!   independently per column.
//! * Element-wise events are counted but not executed: the two GEMM
//!   families dominate the arithmetic.
//!
//! # Chunk / steal lifecycle
//!
//! Chunk planning is a pure function of `(events, shard widths,
//! rows_cap)` — no engine or worker state — sizing each chunk to roughly
//! `CHUNK_ELEMS` (16 Ki) elements. A chunk for device `d` lands at the
//! back of the deque of worker `d % threads`, its home worker. Owners pop
//! their own deque from the **back** (LIFO:
//! the freshest chunk is the cache-warmest); thieves scan the other deques
//! and pop from the **front** (FIFO: the oldest chunk is the largest
//! remaining tranche of a stranger's work, and the ends never contend) —
//! the chase-lev discipline, here with a plain mutex per deque. A
//! one-thread pool has no deques: it runs its chunks at `submit`.
//!
//! Chunks carry no engine state at all — inputs are regenerated from the
//! seed, outputs are folded into an order-insensitive checksum — so
//! executing one on a foreign worker is indistinguishable from executing
//! it at home, and stealing crosses devices freely. Workers in excess of
//! devices have no home chunks: they are pure thieves, and still earn
//! real speedup on the arithmetic.
//!
//! Inputs are generated deterministically per `(device, event, row)` —
//! and per column for `Conv` — from splitmix64, and checksums are folded
//! with each residue's *global* position in its event block, so
//! [`HostWorkStats`] is a pure function of the submitted batch sequence:
//! independent of worker count, chunk boundaries, steal pattern and join
//! order. By default every row runs (`rows_cap = 0`, uncapped); a positive
//! cap bounds real rows per event shard for hosts where paper widths are
//! intractable (`TENSORFHE_ROWS_CAP`, CI's bounded corners).

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

/// Counters for the real arithmetic the host backend executed, plus a
/// fold of every output residue produced.
///
/// All fields merge by wrapping addition, so totals are independent of
/// shard merge order and join order; the checksum salts each residue with
/// its global position in its event block, so it is bit-identical across
/// worker counts, chunk boundaries and steal patterns.
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

/// Work-stealing scheduler counters (monotonic over the pool's life).
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
/// range of one kernel event's device shard. Pure data — it regenerates
/// its inputs from the seed, so it can execute on any worker.
#[derive(Debug)]
pub(super) struct ChunkSpec {
    pub(super) device: usize,
    event_idx: usize,
    /// Row range (NTT) or column range (Conv) this chunk covers.
    pub(super) units: Range<usize>,
    /// Total units of the whole event shard (checksum position base).
    total_units: usize,
}

/// Plans a batch's real arithmetic: the chunks of every GEMM-shaped event
/// shard, plus the element counts of the element-wise events, which are
/// counted here and run nowhere.
pub(super) fn plan_chunks(
    events: &[KernelEvent],
    widths: &[usize],
    rows_cap: usize,
) -> (Vec<ChunkSpec>, HostWorkStats) {
    let mut upfront = HostWorkStats::default();
    let mut chunks = Vec::new();
    let mut split = |device, event_idx, total_units, step: usize| {
        let mut u0 = 0;
        while u0 < total_units {
            let u1 = (u0 + step).min(total_units);
            chunks.push(ChunkSpec {
                device,
                event_idx,
                units: u0..u1,
                total_units,
            });
            u0 = u1;
        }
    };
    for (d, &width) in widths.iter().enumerate().filter(|&(_, &w)| w > 0) {
        for (ei, ev) in events.iter().enumerate() {
            match *ev {
                KernelEvent::Ntt { n, limbs, .. } => {
                    if n >= 4 && n.is_power_of_two() {
                        split(
                            d,
                            ei,
                            capped(width * limbs, rows_cap),
                            (CHUNK_ELEMS / n).max(1),
                        );
                    }
                }
                KernelEvent::Conv { n, l_src, l_dst } => {
                    if l_src > 0 && l_dst > 0 {
                        let cols = capped(width, rows_cap) * n.max(1);
                        split(d, ei, cols, (CHUNK_ELEMS / (l_src + l_dst)).max(1));
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
    (chunks, upfront)
}

/// A queued chunk: the plan, the batch's events, and the batch's tally.
#[derive(Debug)]
pub(super) struct Chunk {
    pub(super) spec: ChunkSpec,
    pub(super) events: Arc<[KernelEvent]>,
    pub(super) tally: Arc<ChunkTally>,
}

/// A batch's chunks still running and their fold so far. The last chunk
/// to finish sends the fold as the batch's one reply, so a joiner wakes
/// once per batch, not once per chunk.
#[derive(Debug)]
pub(super) struct ChunkTally {
    left: Mutex<(usize, HostWorkStats)>,
    reply: mpsc::Sender<HostWorkStats>,
}

impl ChunkTally {
    pub(super) fn new(chunks: usize, reply: mpsc::Sender<HostWorkStats>) -> Self {
        let left = Mutex::new((chunks, HostWorkStats::default()));
        Self { left, reply }
    }

    fn complete_one(&self, local: HostWorkStats) {
        let mut left = self.left.lock().expect("tally lock");
        left.0 -= 1;
        left.1.absorb(local);
        if left.0 == 0 {
            // A dropped receiver means the pool abandoned the batch.
            let _ = self.reply.send(left.1);
        }
    }
}

/// State shared between the pool and every worker thread: the per-worker
/// chunk deques and the steal counters.
#[derive(Debug)]
pub(super) struct StealShared {
    /// One deque per worker thread (none in a one-thread pool); owner pops
    /// back, thieves pop front.
    queues: Vec<Mutex<VecDeque<Chunk>>>,
    steals: AtomicU64,
    stolen_rows: AtomicU64,
    pub(super) planned_rows: AtomicU64,
    pub(super) executed_rows: AtomicU64,
}

impl StealShared {
    pub(super) fn new(queues: usize) -> Self {
        Self {
            queues: (0..queues).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
            stolen_rows: AtomicU64::new(0),
            planned_rows: AtomicU64::new(0),
            executed_rows: AtomicU64::new(0),
        }
    }

    /// Queues a chunk on its home worker's deque (device `d` → `d % threads`).
    pub(super) fn push(&self, chunk: Chunk) {
        let owner = chunk.spec.device % self.queues.len();
        self.queues[owner]
            .lock()
            .expect("queue lock")
            .push_back(chunk);
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

    /// Worker thread `me`'s loop until the pool hangs up: on each wake-up
    /// (several queued count as one), run chunks — own deque first, then
    /// stolen ones — until none is left anywhere.
    pub(super) fn serve(&self, me: usize, wake: &mpsc::Receiver<()>) {
        let mut real = RealWork::default();
        while wake.recv().is_ok() {
            wake.try_iter().for_each(drop);
            while let Some((chunk, stolen)) = self.next_chunk(me) {
                let units = chunk.spec.units.len() as u64;
                if stolen {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    self.stolen_rows.fetch_add(units, Ordering::Relaxed);
                }
                let local = real.run_chunk(&chunk.events, &chunk.spec);
                self.executed_rows.fetch_add(units, Ordering::Relaxed);
                chunk.tally.complete_one(local);
            }
        }
    }

    pub(super) fn stats(&self) -> StealStats {
        StealStats {
            steals: self.steals.load(Ordering::Relaxed),
            stolen_rows: self.stolen_rows.load(Ordering::Relaxed),
            planned_rows: self.planned_rows.load(Ordering::Relaxed),
            executed_rows: self.executed_rows.load(Ordering::Relaxed),
        }
    }
}

/// Per-thread real-arithmetic state: caches of the deterministic primes
/// backing the work (the plans themselves are shared through
/// [`PlanCache::global`], and every thread's cache regenerates identical
/// primes).
#[derive(Debug, Default)]
pub(super) struct RealWork {
    // lint: ordered-ok (keyed entry by degree only; never iterated)
    ntt_primes: HashMap<usize, u64>,
    // lint: ordered-ok (keyed entry by shape only; never iterated)
    conv_primes: HashMap<(usize, usize), Vec<u64>>,
}

impl RealWork {
    fn ntt_prime(&mut self, n: usize) -> u64 {
        *self
            .ntt_primes
            .entry(n)
            .or_insert_with(|| generate_ntt_primes(1, 28, n as u64)[0])
    }

    /// Executes one chunk's real arithmetic and returns its fold.
    pub(super) fn run_chunk(&mut self, events: &[KernelEvent], chunk: &ChunkSpec) -> HostWorkStats {
        let mut work = HostWorkStats::default();
        match events[chunk.event_idx] {
            KernelEvent::Ntt { n, inverse, .. } => {
                let q = self.ntt_prime(n);
                let plan = PlanCache::global().get(n, q, NttAlgorithm::Butterfly);
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
                    match inverse {
                        false => plan.forward_batch(&mut views),
                        true => plan.inverse_batch(&mut views),
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
                    plan.convert_block_into(&src_rows, &mut out_rows);
                }
                for (i, orow) in out_flat.chunks(cols).enumerate() {
                    let base = (i * chunk.total_units + chunk.units.start) as u64;
                    fold_checksum_at(&mut work.checksum, base, orow);
                }
                work.conv_cols = work.conv_cols.wrapping_add(cols as u64);
            }
            // Element-wise events are counted at planning, never chunked.
            _ => unreachable!("only GEMM-shaped events are chunked"),
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, drain, params, pool};
    use super::super::{ExecBackend, Pool};
    use super::*;
    use tensorfhe_ntt::BatchedGemmNtt;

    #[test]
    fn full_width_checksum_is_chunk_and_worker_invariant() {
        // Uncapped execution splits events into many chunks; the fold
        // must not care how they land across 1..=3 workers.
        let mut reference = None;
        for workers in [1usize, 2, 3] {
            let backend = ExecBackend::HostParallel;
            let mut pool =
                Pool::new(&cfg(), &params(), 2, workers, backend, DEFAULT_ROWS_CAP).expect("valid");
            drain(&mut pool, &[5, 3]);
            let s = pool.steal_stats().expect("host backend");
            assert_eq!(
                s.planned_rows, s.executed_rows,
                "workers={workers}: conserved"
            );
            let work = pool.host_work().expect("host backend");
            assert_eq!(*reference.get_or_insert(work), work, "workers={workers}");
        }
    }

    #[test]
    fn ntt_chunk_fold_matches_the_four_step_plan() {
        // The executor runs the butterfly; the four-step GEMM plan must
        // give the same fold on the same generated rows, so swapping
        // the plan moves no checksum. Chunks start mid-event, on a
        // non-zero device and event index, so the row seeds and the fold
        // positions are both offset.
        let mut real = RealWork::default();
        for log_n in 2..=13u32 {
            let n = 1usize << log_n;
            for inverse in [false, true] {
                let events = [
                    KernelEvent::HadaMult { n, limbs: 1 },
                    KernelEvent::Ntt {
                        n,
                        limbs: 4,
                        inverse,
                    },
                ];
                let spec = ChunkSpec {
                    device: 1,
                    event_idx: 1,
                    units: 3..6,
                    total_units: 8,
                };
                let got = real.run_chunk(&events, &spec);

                let q = generate_ntt_primes(1, 28, n as u64)[0];
                let mut rows: Vec<Vec<u64>> = spec
                    .units
                    .clone()
                    .map(|r| {
                        let mut row = vec![0u64; n];
                        fill_row(&mut row, q, row_seed(1, 1, r));
                        row
                    })
                    .collect();
                let four_step = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
                let mut views: Vec<&mut [u64]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
                match inverse {
                    false => four_step.forward_batch(&mut views),
                    true => four_step.inverse_batch(&mut views),
                }
                let mut checksum = 0;
                for (r, row) in spec.units.clone().zip(&rows) {
                    fold_checksum_at(&mut checksum, (r * n) as u64, row);
                }
                let want = HostWorkStats {
                    ntt_rows: 3,
                    checksum,
                    ..HostWorkStats::default()
                };
                assert_eq!(got, want, "N = 2^{log_n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn work_is_conserved_and_stealable_at_any_worker_count() {
        for workers in [1usize, 2, 5] {
            let mut pool = pool(4, workers, ExecBackend::HostParallel);
            drain(&mut pool, &[8, 3, 1]);
            let s = pool.steal_stats().expect("host backend");
            assert!(s.planned_rows > 0, "planned real work");
            assert_eq!(
                s.planned_rows, s.executed_rows,
                "workers={workers}: every planned unit must execute exactly once"
            );
            assert!(
                s.stolen_rows <= s.executed_rows,
                "stolen work is executed work"
            );
            if workers == 1 {
                assert_eq!(s.steals, 0, "a lone worker has nobody to steal from");
            }
        }
        // More workers than devices: the surplus worker is a pure thief
        // (`a_pure_thief_steals_every_chunk` pins its stealing without
        // racing the owner), and the work is still conserved.
        let mut pool = pool(1, 2, ExecBackend::HostParallel);
        drain(&mut pool, &[16, 16, 16, 16]);
        let s = pool.steal_stats().expect("host backend");
        assert_eq!(s.planned_rows, s.executed_rows);
        assert!(s.stolen_rows <= s.executed_rows);
    }

    #[test]
    fn a_pure_thief_steals_every_chunk() {
        // Device 0's chunks land on worker 0's deque; worker 1 owns no
        // device, so serving them on this thread as worker 1 must steal
        // every one, and the tally replies once with their whole fold.
        let events: Arc<[KernelEvent]> = [KernelEvent::Ntt {
            n: 1 << 12,
            limbs: 64,
            inverse: false,
        }]
        .into();
        let (specs, _) = plan_chunks(&events, &[1], 0);
        assert_eq!(specs.len(), 16, "4 rows of 2^12 per chunk");
        let mut want = HostWorkStats::default();
        let mut real = RealWork::default();
        for spec in &specs {
            want.absorb(real.run_chunk(&events, spec));
        }
        let shared = StealShared::new(2);
        let (reply, replies) = mpsc::channel();
        let tally = Arc::new(ChunkTally::new(specs.len(), reply));
        for spec in specs {
            let (events, tally) = (Arc::clone(&events), Arc::clone(&tally));
            shared.push(Chunk {
                spec,
                events,
                tally,
            });
        }
        let (wake, woken) = mpsc::channel();
        wake.send(()).expect("receiver alive");
        drop(wake);
        shared.serve(1, &woken);
        let s = shared.stats();
        assert_eq!((s.steals, s.stolen_rows, s.executed_rows), (16, 64, 64));
        assert_eq!(replies.try_recv(), Ok(want));
        assert_eq!(want.ntt_rows, 64);
        assert!(replies.try_recv().is_err(), "one reply per batch");
    }

    #[test]
    fn caps_name_the_backend() {
        let pool = pool(2, 2, ExecBackend::HostParallel);
        assert_eq!(
            (pool.backend().label(), pool.devices()),
            ("host-parallel", 2)
        );
        assert_eq!(DEFAULT_ROWS_CAP, 0, "default is uncapped full width");
    }

    #[test]
    fn workers_beyond_devices_are_kept_and_reported() {
        // Regression: the host backend used to clamp workers to devices
        // silently, so a user asking for 8 workers over 4 devices saw the
        // requested number in `workers()` but got 4 threads. Host pools
        // keep every worker (surplus ones steal).
        let pool = pool(4, 8, ExecBackend::HostParallel);
        assert_eq!(pool.handles.len(), 8);
        assert_eq!(pool.workers(), 8, "workers() must report actual threads");
    }
}
