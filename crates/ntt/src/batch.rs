//! Batched RNS-NTT execution: the paper's headline formulation (Eq. 9 +
//! §IV-B "Data Reuse" + §IV-D operation-level batching) applied to *blocks*
//! of polynomials.
//!
//! The per-polynomial four-step NTT already replaces butterflies with
//! GEMMs, but issuing one small GEMM per residue polynomial still starves
//! wide hardware. The win the paper measures in Fig. 8 comes from packing a
//! `B×L` block — `B` ciphertext polynomials × `L` RNS limbs sharing one
//! modulus — into **single wide GEMMs per stage**:
//!
//! ```text
//! stage 1 (inner N2-NTT):  [A⁽⁰⁾; A⁽¹⁾; …]   (B·N1 × N2) × W_n2 (N2 × N2)
//! stage 2 (twiddle):        tiled Hadamard with W_tw
//! stage 3 (outer N1-DFT):   W_dft (N1 × N1) × [U⁽⁰⁾ | U⁽¹⁾ | …] (N1 × B·N2)
//! ```
//!
//! Both stacked operands share one twiddle operand, so the twiddle matrices
//! are loaded once per *block* instead of once per *polynomial* — exactly
//! the data-reuse argument of §IV-B. The same packing applies to the
//! segmented tensor-core pipeline (the u8 planes of the stacked input are
//! segmented once for all `B` rows).
//!
//! # Which pipeline runs
//!
//! The four-step formulation executes on the host as **one Montgomery
//! GEMM per stage with fused epilogues** (`FourStepNtt::transform_rows`)
//! — for every caller: `NttOps`, [`NttBatchOps`], the CKKS evaluator above
//! them and the host executor. The stages are Eq. 9 applied recursively to
//! its own outer DFT, over a radix list chosen from `N` alone (two stages,
//! Eq. 9 itself, below `N = 2^9`; three from there on — see
//! [`crate::four_step`]):
//!
//! ```text
//!            strided tile reads            register-tile epilogues
//! row ──► GEMM 0: A × W_0 (pre-packed) ──► ⊙ twiddle, stored as GEMM 1's panels
//!         GEMM t: W_t × panels         ──► ⊙ twiddle, stored as GEMM t+1's panels
//!         GEMM s−1: W_{s−1} × panels   ──► stored straight into the row
//! ```
//!
//! No gather, repack or scatter pass exists: GEMM 0 reads its block
//! column-major out of the row, each epilogue writes the twiddled tiles in
//! the operand layout the next GEMM consumes, and the last one writes the
//! output row. The inverse is the mirrored pass over the reversed radix
//! list. On the host the wide block is walked row by row, which keeps a
//! row, its row-sized staging buffers and the constants cache-resident;
//! the constants are still shared by the whole block.
//!
//! The five-stage **Barrett wide pipeline** (gather → `gemm_mod_into` →
//! twiddle repack → `gemm_mod_into` → scatter, `u128` accumulators and one
//! Barrett reduction per output) is the *reference*: it keeps Eq. 9's
//! two-factor form, so it shares no stage constant or index map with the
//! staged host pass. It is reachable only through
//! [`BatchedGemmNtt::reference_batch`] — the equivalence tests' Barrett
//! reference and `fig14_host_gemm`'s denominator — and it shares its
//! block plumbing with [`TensorCoreNtt`], whose segmented u8 GEMMs plug
//! into the same stages. All of them are bit-identical to the butterfly.
//!
//! Three pieces live here:
//!
//! * [`NttBatchOps`] — the batched transform interface every NTT variant
//!   implements (the butterfly falls back to a per-row loop: there is no
//!   GEMM to widen).
//! * [`BatchedGemmNtt`] — one algorithm-selected plan for a `(N, q)` pair,
//!   dispatching to butterfly / four-step / tensor-core kernels.
//! * [`PlanCache`] — a process-wide, thread-safe cache of
//!   [`BatchedGemmNtt`] plans keyed on `(n, q, algorithm)` **and** of
//!   [`BasisConvGemm`] plans keyed on `(src primes, dst primes)`, so
//!   twiddle matrices and conversion matrices are built once and shared
//!   across CKKS contexts, limbs and the bootstrap pipeline.
//!
//! # Basis conversion on the same wide-GEMM layer
//!
//! The NTT is not the only kernel the paper lowers onto GEMMs: the fast
//! basis conversion inside `ModUp`/`ModDown` is the `(L_dst × L_src) ×
//! (L_src × B·N)` product described in `tensorfhe_math::crt` — the second
//! hottest key-switch kernel after the NTT. Its plan
//! ([`BasisConvGemm`], re-exported here) carries no degree-dependent
//! state, so the cache keys it purely on the two prime lists: every
//! key-switch digit at every level that shares a `(src, dst)` pair —
//! across contexts and levels — shares one conversion matrix.

use crate::butterfly::NttTable;
use crate::four_step::FourStepNtt;
use crate::mat::{gemm_mod_into, Mat};
use crate::tensor_core::TensorCoreNtt;
use crate::{NttAlgorithm, NttOps};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
pub use tensorfhe_math::crt::BasisConvGemm;

/// Batched companion to [`NttOps`]: transforms a block of same-modulus
/// residue rows in one call.
///
/// The default implementations loop over the rows — correct for every
/// variant, and the honest lowering for the butterfly formulation, which
/// has no GEMM to widen. The GEMM-based variants override them with the
/// wide-GEMM packing described in the module docs; outputs are bit-identical
/// to the per-row path by construction (shared twiddle plan) and by test.
pub trait NttBatchOps: NttOps {
    /// In-place forward negacyclic NTT of every row.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `self.degree()`.
    fn forward_batch(&self, rows: &mut [&mut [u64]]) {
        for row in rows.iter_mut() {
            self.forward(row);
        }
    }

    /// In-place inverse negacyclic NTT of every row.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `self.degree()`.
    fn inverse_batch(&self, rows: &mut [&mut [u64]]) {
        for row in rows.iter_mut() {
            self.inverse(row);
        }
    }
}

/// Butterfly batching is a plain loop: each row is a dependent
/// `log N`-stage pipeline with nothing to fuse across rows (that is the
/// formulation the GEMM variants exist to replace).
impl NttBatchOps for NttTable {}

// ---------------------------------------------------------------------------
// The shared wide-GEMM reference pipeline.
//
// The Barrett reference and the tensor-core formulation run the same
// five-stage block pipeline and differ only in how they multiply: dense u64
// Barrett GEMMs vs segmented u8 plane GEMMs. `WideGemm` captures exactly
// that difference so the nontrivial pack / twiddle / unpack layout
// arithmetic exists once. (The four-step fast path needs none of it: see
// `FourStepNtt::transform_rows`.)
// ---------------------------------------------------------------------------

/// The four wide matrix products of the batched pipeline, provided by each
/// GEMM formulation over its own twiddle operands.
pub(crate) trait WideGemm {
    /// The shared four-step plan (split, modulus, twiddle Hadamard operands).
    fn four_step_plan(&self) -> &FourStepNtt;

    /// `stacked (B·N1 × N2) × W_n2 (N2 × N2)` — the inner N2-NTT of every
    /// row in one product.
    fn gemm_n2(&self, stacked: &Mat) -> Mat;

    /// `W_dft (N1 × N1) × wide (N1 × B·N2)` — the outer N1-DFT of every row
    /// in one product.
    fn gemm_dft(&self, wide: &Mat) -> Mat;

    /// Inverse outer DFT: `W_idft × wide`.
    fn gemm_idft(&self, wide: &Mat) -> Mat;

    /// Inverse inner N2-NTT with `N^{-1}` folded in: `stacked × W_n2_inv`.
    fn gemm_n2_inv(&self, stacked: &Mat) -> Mat;
}

/// The Barrett reference: dense `u128`-accumulator GEMMs against the
/// plan's canonical matrices.
impl WideGemm for FourStepNtt {
    fn four_step_plan(&self) -> &FourStepNtt {
        self
    }

    fn gemm_n2(&self, stacked: &Mat) -> Mat {
        barrett_gemm(stacked, &self.canon().w_n2, self)
    }

    fn gemm_dft(&self, wide: &Mat) -> Mat {
        barrett_gemm(&self.canon().w_dft, wide, self)
    }

    fn gemm_idft(&self, wide: &Mat) -> Mat {
        barrett_gemm(&self.canon().w_idft, wide, self)
    }

    fn gemm_n2_inv(&self, stacked: &Mat) -> Mat {
        barrett_gemm(stacked, &self.canon().w_n2_inv, self)
    }
}

fn barrett_gemm(a: &Mat, b: &Mat, plan: &FourStepNtt) -> Mat {
    let mut out = Mat::pooled(a.rows, b.cols);
    gemm_mod_into(a, b, plan.modulus_handle(), &mut out);
    out
}

/// Gathers `B` coefficient rows into the vertically stacked `(B·N1) × N2`
/// input block (`A[n1][n2] = a[n1 + N1·n2]` per row — stage-1 operand).
fn gather_stacked(plan: &FourStepNtt, rows: &[&mut [u64]]) -> Mat {
    let (n1, n2) = plan.split();
    let mut stacked = Mat::pooled(rows.len() * n1, n2);
    for (b, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), plan.degree(), "input length mismatch");
        for i in 0..n1 {
            for j in 0..n2 {
                stacked.data[(b * n1 + i) * n2 + j] = row[i + n1 * j];
            }
        }
    }
    stacked
}

/// Gathers `B` evaluation rows (row-major `N1 × N2` each) into the
/// horizontally stacked `N1 × (B·N2)` block.
fn gather_wide(plan: &FourStepNtt, rows: &[&mut [u64]]) -> Mat {
    let (n1, n2) = plan.split();
    let b = rows.len();
    let mut wide = Mat::pooled(n1, b * n2);
    for (bi, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), plan.degree(), "input length mismatch");
        for i in 0..n1 {
            for j in 0..n2 {
                wide.data[i * (b * n2) + bi * n2 + j] = row[i * n2 + j];
            }
        }
    }
    wide
}

/// Tiled twiddle Hadamard + repack: vertically stacked `(B·N1) × N2` in,
/// horizontally stacked `N1 × (B·N2)` out (or the reverse).
fn twiddle_repack(src: &Mat, tw: &Mat, plan: &FourStepNtt, to_wide: bool) -> Mat {
    let (n1, n2) = plan.split();
    let q = plan.modulus_handle();
    let b = if to_wide {
        src.rows / n1
    } else {
        src.cols / n2
    };
    let mut out = if to_wide {
        Mat::pooled(n1, b * n2)
    } else {
        Mat::pooled(b * n1, n2)
    };
    for bi in 0..b {
        for i in 0..n1 {
            for j in 0..n2 {
                let (s, d) = if to_wide {
                    (src.at(bi * n1 + i, j), i * (b * n2) + bi * n2 + j)
                } else {
                    (src.at(i, bi * n2 + j), (bi * n1 + i) * n2 + j)
                };
                out.data[d] = q.mul(s, tw.at(i, j));
            }
        }
    }
    out
}

/// Scatters a horizontally stacked `N1 × (B·N2)` result to the rows in
/// row-major order (forward output layout).
fn scatter_wide(out: &Mat, plan: &FourStepNtt, rows: &mut [&mut [u64]]) {
    let (n1, n2) = plan.split();
    for (bi, row) in rows.iter_mut().enumerate() {
        for i in 0..n1 {
            for j in 0..n2 {
                row[i * n2 + j] = out.at(i, bi * n2 + j);
            }
        }
    }
}

/// Scatters a vertically stacked `(B·N1) × N2` result to the rows in the
/// negacyclic coefficient layout `a[n1 + N1·n2]` (inverse output layout).
fn scatter_stacked(res: &Mat, plan: &FourStepNtt, rows: &mut [&mut [u64]]) {
    let (n1, n2) = plan.split();
    for (bi, row) in rows.iter_mut().enumerate() {
        for i in 0..n1 {
            for j in 0..n2 {
                row[i + n1 * j] = res.at(bi * n1 + i, j);
            }
        }
    }
}

/// Batched forward: two wide GEMMs + one tiled twiddle Hadamard for the
/// whole block.
fn wide_forward_batch<G: WideGemm>(g: &G, rows: &mut [&mut [u64]]) {
    let plan = g.four_step_plan();
    let stacked = gather_stacked(plan, rows);
    let t = g.gemm_n2(&stacked);
    stacked.recycle();
    let wide = twiddle_repack(&t, &plan.canon().w_tw, plan, true);
    t.recycle();
    let out = g.gemm_dft(&wide);
    wide.recycle();
    scatter_wide(&out, plan, rows);
    out.recycle();
}

/// Batched inverse: the mirrored pipeline with `N^{-1}` folded into the
/// final wide GEMM.
fn wide_inverse_batch<G: WideGemm>(g: &G, rows: &mut [&mut [u64]]) {
    let plan = g.four_step_plan();
    let wide = gather_wide(plan, rows);
    let v = g.gemm_idft(&wide);
    wide.recycle();
    let stacked = twiddle_repack(&v, &plan.canon().w_tw_inv, plan, false);
    v.recycle();
    let res = g.gemm_n2_inv(&stacked);
    stacked.recycle();
    scatter_stacked(&res, plan, rows);
    res.recycle();
}

/// The fused Montgomery pipeline — the same code the per-row transforms
/// run with `B = 1`.
impl NttBatchOps for FourStepNtt {
    fn forward_batch(&self, rows: &mut [&mut [u64]]) {
        self.transform_rows(rows, false);
    }

    fn inverse_batch(&self, rows: &mut [&mut [u64]]) {
        self.transform_rows(rows, true);
    }
}

/// The segmented pipeline rides the same block plumbing; its `WideGemm`
/// impl (in [`crate::tensor_core`], next to the plane data it touches)
/// swaps the dense products for 16-plane u8 GEMMs with the whole block
/// segmented at once.
impl NttBatchOps for TensorCoreNtt {
    fn forward_batch(&self, rows: &mut [&mut [u64]]) {
        if !rows.is_empty() {
            wide_forward_batch(self, rows);
        }
    }

    fn inverse_batch(&self, rows: &mut [&mut [u64]]) {
        if !rows.is_empty() {
            wide_inverse_batch(self, rows);
        }
    }
}

// ---------------------------------------------------------------------------
// Algorithm-selected plan + process-wide cache.
// ---------------------------------------------------------------------------

/// The concrete kernel behind a [`BatchedGemmNtt`].
#[derive(Debug, Clone)]
enum Kernel {
    Butterfly(NttTable),
    FourStep(Box<FourStepNtt>),
    TensorCore(Box<TensorCoreNtt>),
}

/// One algorithm-selected NTT plan for a `(N, q)` pair.
///
/// All three variants are constructed over the same deterministic primitive
/// root, so a given input transforms to *bit-identical* output whichever
/// algorithm is selected — switching `NttAlgorithm` changes the execution
/// formulation, never the math.
#[derive(Debug, Clone)]
pub struct BatchedGemmNtt {
    algo: NttAlgorithm,
    kernel: Kernel,
}

impl BatchedGemmNtt {
    /// Builds the plan for degree `n` and prime `q` under `algo`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the underlying variant
    /// constructor ([`NttTable::new`], [`FourStepNtt::new`],
    /// [`TensorCoreNtt::new`]); notably the GEMM variants require
    /// `q < 2^32`.
    #[must_use]
    pub fn new(n: usize, q: u64, algo: NttAlgorithm) -> Self {
        let kernel = match algo {
            NttAlgorithm::Butterfly => Kernel::Butterfly(NttTable::new(n, q)),
            NttAlgorithm::FourStep => Kernel::FourStep(Box::new(FourStepNtt::new(n, q))),
            NttAlgorithm::TensorCore => Kernel::TensorCore(Box::new(TensorCoreNtt::new(n, q))),
        };
        Self { algo, kernel }
    }

    /// The algorithm this plan lowers to.
    #[must_use]
    pub fn algorithm(&self) -> NttAlgorithm {
        self.algo
    }

    /// The primitive `2N`-th root the plan is built on.
    #[must_use]
    pub fn psi(&self) -> u64 {
        match &self.kernel {
            Kernel::Butterfly(t) => t.psi(),
            Kernel::FourStep(t) => t.psi(),
            Kernel::TensorCore(t) => t.psi(),
        }
    }
}

impl NttOps for BatchedGemmNtt {
    fn degree(&self) -> usize {
        match &self.kernel {
            Kernel::Butterfly(t) => t.degree(),
            Kernel::FourStep(t) => t.degree(),
            Kernel::TensorCore(t) => t.degree(),
        }
    }

    fn modulus(&self) -> u64 {
        match &self.kernel {
            Kernel::Butterfly(t) => t.modulus(),
            Kernel::FourStep(t) => t.modulus(),
            Kernel::TensorCore(t) => t.modulus(),
        }
    }

    fn forward(&self, a: &mut [u64]) {
        match &self.kernel {
            Kernel::Butterfly(t) => t.forward(a),
            Kernel::FourStep(t) => t.forward(a),
            Kernel::TensorCore(t) => t.forward(a),
        }
    }

    fn inverse(&self, a: &mut [u64]) {
        match &self.kernel {
            Kernel::Butterfly(t) => t.inverse(a),
            Kernel::FourStep(t) => t.inverse(a),
            Kernel::TensorCore(t) => t.inverse(a),
        }
    }
}

impl NttBatchOps for BatchedGemmNtt {
    fn forward_batch(&self, rows: &mut [&mut [u64]]) {
        match &self.kernel {
            Kernel::Butterfly(t) => t.forward_batch(rows),
            Kernel::FourStep(t) => t.forward_batch(rows),
            Kernel::TensorCore(t) => t.forward_batch(rows),
        }
    }

    fn inverse_batch(&self, rows: &mut [&mut [u64]]) {
        match &self.kernel {
            Kernel::Butterfly(t) => t.inverse_batch(rows),
            Kernel::FourStep(t) => t.inverse_batch(rows),
            Kernel::TensorCore(t) => t.inverse_batch(rows),
        }
    }
}

impl BatchedGemmNtt {
    /// The **reference** batch transform: for the four-step formulation,
    /// the five-stage Barrett wide pipeline over the plan's canonical
    /// matrices (see the module docs) instead of the fused Montgomery
    /// one; the other formulations have a single batch path, which this
    /// calls. Bit-identical to [`NttBatchOps`] in every case — it is the
    /// equivalence tests' Barrett reference and `fig14_host_gemm`'s
    /// denominator: a second, independent kernel to compare against.
    pub fn reference_batch(&self, rows: &mut [&mut [u64]], inverse: bool) {
        match &self.kernel {
            Kernel::FourStep(_) if rows.is_empty() => {}
            Kernel::FourStep(t) if inverse => wide_inverse_batch(t.as_ref(), rows),
            Kernel::FourStep(t) => wide_forward_batch(t.as_ref(), rows),
            _ if inverse => self.inverse_batch(rows),
            _ => self.forward_batch(rows),
        }
    }

    /// Alias of [`NttBatchOps::forward_batch`], which runs the fast
    /// kernels for every caller; kept because the end-to-end harness
    /// probes the kernels under this name.
    pub fn forward_batch_fast(&self, rows: &mut [&mut [u64]]) {
        self.forward_batch(rows);
    }

    /// Alias of [`NttBatchOps::inverse_batch`] (see
    /// [`BatchedGemmNtt::forward_batch_fast`]).
    pub fn inverse_batch_fast(&self, rows: &mut [&mut [u64]]) {
        self.inverse_batch(rows);
    }
}

/// Cache key of a basis-conversion plan: the `(src, dst)` prime lists.
type BconvKey = (Vec<u64>, Vec<u64>);

/// Process-wide cache of [`BatchedGemmNtt`] plans keyed on
/// `(n, q, algorithm)` and of [`BasisConvGemm`] plans keyed on the
/// `(src, dst)` prime lists.
///
/// Twiddle and conversion matrices depend only on their key, so one plan
/// serves every CKKS context, every RNS limb with that prime, and the
/// bootstrap pipeline — the §IV-B data-reuse property promoted from
/// "per instance" to "per process". Thread-safe; plans are handed out as
/// [`Arc`]s.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<(usize, u64, NttAlgorithm), Arc<BatchedGemmNtt>>>, // lint: ordered-ok (keyed entry/len only)
    /// Basis-conversion GEMM plans keyed on `(src primes, dst primes)`.
    bconv: Mutex<HashMap<BconvKey, Arc<BasisConvGemm>>>, // lint: ordered-ok (keyed entry/len only)
}

impl PlanCache {
    /// Creates an empty cache (prefer [`PlanCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    #[must_use]
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Returns the shared plan for `(n, q, algo)`, building it on first use.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BatchedGemmNtt::new`].
    #[must_use]
    pub fn get(&self, n: usize, q: u64, algo: NttAlgorithm) -> Arc<BatchedGemmNtt> {
        if let Some(plan) = self
            .plans
            .lock()
            .expect("plan cache poisoned")
            .get(&(n, q, algo))
        {
            return Arc::clone(plan);
        }
        // Built outside the lock: plan construction is expensive (O(N)
        // twiddle matrices) and must not serialise unrelated lookups. A
        // racing builder loses to whichever insert lands first, preserving
        // the sharing guarantee.
        let built = Arc::new(BatchedGemmNtt::new(n, q, algo));
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Arc::clone(plans.entry((n, q, algo)).or_insert(built))
    }

    /// Returns the shared basis-conversion GEMM plan for `(src, dst)`,
    /// building it on first use (same build-outside-the-lock discipline as
    /// [`PlanCache::get`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BasisConvGemm::new`] (empty or
    /// duplicate source primes, or any prime `≥ 2^32`).
    #[must_use]
    pub fn get_bconv(&self, src: &[u64], dst: &[u64]) -> Arc<BasisConvGemm> {
        if let Some(plan) = self
            .bconv
            .lock()
            .expect("bconv cache poisoned")
            .get(&(src.to_vec(), dst.to_vec()))
        {
            return Arc::clone(plan);
        }
        let built = Arc::new(BasisConvGemm::new(src, dst));
        let mut plans = self.bconv.lock().expect("bconv cache poisoned");
        Arc::clone(plans.entry((src.to_vec(), dst.to_vec())).or_insert(built))
    }

    /// Number of cached NTT plans (basis-conversion plans are counted by
    /// [`PlanCache::bconv_len`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Number of cached basis-conversion plans.
    #[must_use]
    pub fn bconv_len(&self) -> usize {
        self.bconv.lock().expect("bconv cache poisoned").len()
    }

    /// Whether the cache holds no plans of either kind.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.bconv_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensorfhe_math::prime::generate_ntt_primes;

    /// The executor seam shards batches across worker threads that share
    /// one process-wide plan cache; every plan type it hands out must stay
    /// `Send + Sync` (a reintroduced `Rc`/`Cell` fails to compile here).
    #[test]
    fn plan_cache_and_plans_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanCache>();
        assert_send_sync::<BatchedGemmNtt>();
        assert_send_sync::<Arc<BatchedGemmNtt>>();
        assert_send_sync::<crate::BasisConvGemm>();
    }

    const ALGOS: [NttAlgorithm; 3] = [
        NttAlgorithm::Butterfly,
        NttAlgorithm::FourStep,
        NttAlgorithm::TensorCore,
    ];

    fn random_rows(rng: &mut StdRng, b: usize, n: usize, q: u64) -> Vec<Vec<u64>> {
        (0..b)
            .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
            .collect()
    }

    #[test]
    fn batched_matches_per_row_all_algorithms() {
        let mut rng = StdRng::seed_from_u64(31);
        for algo in ALGOS {
            for b in [1usize, 2, 3, 7, 16] {
                let n = 256;
                let q = generate_ntt_primes(1, 28, n as u64)[0];
                let plan = BatchedGemmNtt::new(n, q, algo);
                let orig = random_rows(&mut rng, b, n, q);

                let mut per_row = orig.clone();
                for row in &mut per_row {
                    plan.forward(row);
                }
                let mut batched = orig.clone();
                {
                    let mut rows: Vec<&mut [u64]> =
                        batched.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.forward_batch(&mut rows);
                }
                assert_eq!(per_row, batched, "{algo:?} forward B={b}");

                for row in &mut per_row {
                    plan.inverse(row);
                }
                {
                    let mut rows: Vec<&mut [u64]> =
                        batched.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.inverse_batch(&mut rows);
                }
                assert_eq!(per_row, batched, "{algo:?} inverse B={b}");
                assert_eq!(batched, orig, "{algo:?} roundtrip B={b}");
            }
        }
    }

    #[test]
    fn algorithms_are_bit_identical_on_shared_plan_key() {
        // The same (n, q) must transform identically whichever formulation
        // runs it — the property that lets the service pick a Variant
        // without changing results.
        let n = 128;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let mut rng = StdRng::seed_from_u64(32);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut outs = Vec::new();
        for algo in ALGOS {
            let plan = BatchedGemmNtt::new(n, q, algo);
            let mut x = a.clone();
            plan.forward(&mut x);
            outs.push(x);
        }
        assert_eq!(outs[0], outs[1], "butterfly vs four-step");
        assert_eq!(outs[1], outs[2], "four-step vs tensor-core");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let n = 64;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let plan = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
        let mut rows: Vec<&mut [u64]> = Vec::new();
        plan.forward_batch(&mut rows);
        plan.inverse_batch(&mut rows);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_row_length_panics() {
        let n = 64;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let plan = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
        let mut good = vec![0u64; n];
        let mut bad = vec![0u64; n / 2];
        let mut rows: Vec<&mut [u64]> = vec![&mut good, &mut bad];
        plan.forward_batch(&mut rows);
    }

    #[test]
    fn fast_kernels_bit_identical_to_scalar_batch() {
        // The default batch path (fused Montgomery pipeline for the
        // four-step plan) against the named Barrett reference, over both
        // square and rectangular splits, tile-edge degrees included.
        let mut rng = StdRng::seed_from_u64(33);
        for algo in ALGOS {
            for (n, b) in [
                (4usize, 2usize),
                (8, 3),
                (32, 5),
                (256, 1),
                (256, 3),
                (512, 8),
            ] {
                let q = generate_ntt_primes(1, 28, n as u64)[0];
                let plan = BatchedGemmNtt::new(n, q, algo);
                let orig = random_rows(&mut rng, b, n, q);

                let mut reference = orig.clone();
                let mut fast = orig.clone();
                {
                    let mut rows: Vec<&mut [u64]> =
                        reference.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.reference_batch(&mut rows, false);
                }
                {
                    let mut rows: Vec<&mut [u64]> =
                        fast.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.forward_batch(&mut rows);
                }
                assert_eq!(reference, fast, "{algo:?} forward N={n} B={b}");

                {
                    let mut rows: Vec<&mut [u64]> =
                        reference.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.reference_batch(&mut rows, true);
                }
                {
                    let mut rows: Vec<&mut [u64]> =
                        fast.iter_mut().map(Vec::as_mut_slice).collect();
                    plan.inverse_batch_fast(&mut rows);
                }
                assert_eq!(reference, orig, "{algo:?} reference roundtrip N={n} B={b}");
                assert_eq!(fast, orig, "{algo:?} fast roundtrip N={n} B={b}");
            }
        }
    }

    #[test]
    fn repeated_batches_do_not_grow_scratch_state() {
        use tensorfhe_math::scratch;
        let n = 256;
        let (b, q) = (4, generate_ntt_primes(1, 28, n as u64)[0]);
        let plan = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
        let mut rng = StdRng::seed_from_u64(34);
        let mut block = random_rows(&mut rng, b, n, q);
        let fused = |block: &mut Vec<Vec<u64>>| {
            let mut rows: Vec<&mut [u64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
            plan.forward_batch(&mut rows);
            let mut rows: Vec<&mut [u64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
            plan.inverse_batch(&mut rows);
        };
        let reference = |block: &mut Vec<Vec<u64>>| {
            let mut rows: Vec<&mut [u64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
            plan.reference_batch(&mut rows, false);
            let mut rows: Vec<&mut [u64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
            plan.reference_batch(&mut rows, true);
        };

        // From an empty pool, every buffer the fused path ever held at
        // once is idle in the pool afterwards: at most two, none larger
        // than the block.
        scratch::clear_thread_pool();
        fused(&mut block);
        let warm = scratch::thread_stats();
        assert!(
            warm.u64_buffers <= 2 && warm.u64_capacity <= 2 * b * n,
            "fused pipeline staged {warm:?} for a {b}x{n} block"
        );
        assert_eq!(
            warm.u128_buffers, 0,
            "no wide accumulators on the fast path"
        );
        for _ in 0..20 {
            fused(&mut block);
        }
        assert_eq!(
            scratch::thread_stats(),
            warm,
            "fused NTT batches must reuse pooled scratch, not grow it"
        );

        reference(&mut block);
        let warm = scratch::thread_stats();
        for _ in 0..20 {
            fused(&mut block);
            reference(&mut block);
        }
        assert_eq!(
            scratch::thread_stats(),
            warm,
            "batched NTT drains must reuse pooled scratch, not grow it"
        );
    }

    #[test]
    fn plan_cache_shares_plans_per_key() {
        let cache = PlanCache::new();
        let n = 64;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let a = cache.get(n, q, NttAlgorithm::TensorCore);
        let b = cache.get(n, q, NttAlgorithm::TensorCore);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one plan");
        let c = cache.get(n, q, NttAlgorithm::FourStep);
        assert!(!Arc::ptr_eq(&a, &c), "different algorithm, different plan");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bconv_plans_share_per_prime_pair() {
        let cache = PlanCache::new();
        let primes = generate_ntt_primes(5, 28, 1 << 6);
        let a = cache.get_bconv(&primes[..2], &primes[2..]);
        let b = cache.get_bconv(&primes[..2], &primes[2..]);
        assert!(Arc::ptr_eq(&a, &b), "same prime pair must share one plan");
        let c = cache.get_bconv(&primes[..3], &primes[3..]);
        assert!(!Arc::ptr_eq(&a, &c), "different sources, different plan");
        assert_eq!(cache.bconv_len(), 2);
        assert_eq!(cache.len(), 0, "bconv plans live in their own map");
        assert!(!cache.is_empty(), "bconv plans count toward emptiness");
    }

    #[test]
    fn global_cache_is_shared_across_call_sites() {
        let n = 32;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let a = PlanCache::global().get(n, q, NttAlgorithm::Butterfly);
        let b = PlanCache::global().get(n, q, NttAlgorithm::Butterfly);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
