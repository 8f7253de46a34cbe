//! Four-step GEMM NTT — the paper's "TensorFHE-CO" algorithm (Eq. 9), run
//! on the host as one GEMM per radix of a staged pass.
//!
//! # Eq. 9: the two-factor form
//!
//! The length-`N` negacyclic NTT is decomposed over `N = N1·N2` into
//! *three matrix products* with no inter-stage butterfly dependencies:
//!
//! ```text
//! index split:  n = n1 + N1·n2,   k = k2 + N2·k1
//!
//! A[k2 + N2·k1] = Σ_{n1} W_dft[k1][n1] · ( W_tw[n1][k2] ⊙ Σ_{n2} a[n1][n2]·W_n2[n2][k2] )
//!
//!   W_n2[n2][k2] = ψ_{2N2}^{2·n2·k2 + n2}   (N2×N2 negacyclic NTT matrix)
//!   W_tw[n1][k2] = ψ_{2N}^{2·n1·k2 + n1}    (N1×N2 twiddle Hadamard)
//!   W_dft[k1][n1] = ψ_{2N1}^{2·k1·n1}       (N1×N1 cyclic DFT matrix)
//! ```
//!
//! with `ψ_{2N2} = ψ^{N1}` and `ψ_{2N1} = ψ^{N2}`. These are exactly the
//! three twiddle forms of Eq. 9 (`ψ_{2N1}^{2ij+j}`, `ψ_{2N}^{2ij+j}`,
//! `ψ_{2N2}^{2ij}`); the paper writes the mirrored split (negacyclic factor
//! on the `N1` side), which is the same factorisation with `N1`/`N2`
//! exchanged. We derive and verify ours against the butterfly reference.
//!
//! The three GEMMs replace the `log N` dependent butterfly stages — this is
//! what removes the RAW pipeline stalls measured in Fig. 10 — and each
//! output element incurs exactly one modulo reduction.
//!
//! This two-factor form is the **canonical** description of the transform:
//! [`FourStepNtt::split`], the Barrett reference pipeline
//! (`BatchedGemmNtt::reference_batch`), [`crate::TensorCoreNtt`] and the
//! simulated GPU lowering all use it, so the modelled A100 runs the paper's
//! two-GEMM kernel and the Barrett reference — the equivalence tests'
//! reference and `fig14_host_gemm`'s denominator — stays a structurally
//! independent check of the host pass below.
//!
//! # The host pass: Eq. 9 applied to its own outer DFT
//!
//! A row costs `N·(N1 + N2)` multiply-accumulates in the two-factor form
//! (1.57 M at `N = 2^13`). The outer `N1`-point DFT is itself a DFT, so the
//! same identity splits it again. With `N1 = a·b`, `n1 = i + a·j` and
//! `k1 = u + b·v`,
//!
//! ```text
//! Y[u + b·v] = Σ_i ω_a^{v·i} · ω_{N1}^{u·i} · Σ_j ω_b^{u·j} · Z[i + a·j]
//! ```
//!
//! — a `b`-point DFT over `j`, a twiddle Hadamard, an `a`-point DFT over
//! `i`. Recursing on the last factor gives a pass of one GEMM per radix of
//! a list `R_0, R_1, …, R_{s−1}` (product `N`; `R_0` is the negacyclic
//! factor — Eq. 9 over the split `N = (N/R_0)·R_0` — and the rest split
//! `N/R_0`), costing `N·ΣR_t` multiply-accumulates: at `N = 2^13` the list
//! `16·16·32` does 0.52 M.
//!
//! Every stage is a product against a constant `R_t×R_t` matrix, and its
//! register-tile epilogue applies the next twiddle and stores the tile
//! where the next stage reads it. With `D_t = R_0·…·R_{t−1}` (`D_0 = 1`),
//! stage `t` contracts one digit `j_t < R_t` and emits one output digit
//! `o_t < R_t` for each of the `N/R_t` remaining positions
//! `x = i·D_t + d` — `d < D_t` the output digits emitted so far
//! (`d = o_0 + D_1·o_1 + …`), `i` the input digits not yet contracted:
//!
//! ```text
//! stage 0 reads the row:         row[x + (N/R_0)·j_0]        (x = n1, j_0 = n2)
//! stage t writes stage t+1's panels at
//!     i = i′ + (N/D_{t+2})·j_{t+1},  (o_t, x) ↦ panel (j_{t+1}, i′·D_{t+1} + d + D_t·o_t)
//! the last stage writes the row: row[d + D_{s−1}·o_{s−1}]    (= k2 + N2·k1)
//! ```
//!
//! Stage 0 is a `gemm_rm_fused` product over a strided view of the row;
//! every later stage is a `gemm_lm_fused` product over the panels the
//! previous epilogue wrote. The forward constants are
//!
//! ```text
//! W_0[j][o] = ψ^{(N/R_0)·(2o+1)·j}                 twiddle after 0:   ψ^{(2·o+1)·x}
//! W_t[o][j] = ψ^{2·(N/R_t)·o·j}   (t ≥ 1)          twiddle after t:   ψ^{2·D_t·o·i}
//! ```
//!
//! and the inverse is the mirrored pass — the transpose of the forward
//! one under `ψ ↦ ψ⁻¹`, over the reversed list, with `N⁻¹` folded into
//! its last constant. The two-element list `(N2, N1)` is Eq. 9 itself.
//!
//! ## The radix rule
//!
//! There is one rule and no knob: two stages, `(N2, N1)` as in Eq. 9, for
//! `N < 2^9`, and three near-equal power-of-two radices, the largest
//! last, from `2^9` on (`8·8·8` at `2^9`, `16·16·32` at `2^13`,
//! `32·32·64` at `2^16`). A stage whose `k` is 16 runs at about half the
//! MAC rate of one whose `k` is 128 — the per-output `REDC` and twiddle
//! dominate — so a third stage pays only once it removes enough MACs.
//! Measured per row on a 2-core x86-64 host with AVX-512 (28-bit prime,
//! forward and inverse interleaved), three stages against Eq. 9's two run
//! 0.95× at `2^8` (`8·4·8`), 1.07× at `2^9`, 1.14× at `2^10` and 1.4× at
//! `2^11` — the crossover is the first degree where the third stage wins
//! — and, in the `kernels` bench's table, 1.6× at `2^12`, 1.9× at `2^13`,
//! 2.2× at `2^14` and 2.7× at `2^15` and `2^16`.
//!
//! [`FourStepNtt::with_radices`] builds a plan over any admissible list;
//! it is the A/B hook for the bench and the equivalence tests, and the
//! production constructors never call it.

use crate::butterfly::{csub, Shoup32};
use crate::mat::Mat;
use crate::NttOps;
use std::sync::OnceLock;
use tensorfhe_math::gemm_fast::{
    gemm_lm_fused, gemm_rm_fused, packed_len, panel_index, MontOperand, Strided, TileOut,
};
use tensorfhe_math::montgomery::Montgomery;
use tensorfhe_math::prime::root_of_unity;
use tensorfhe_math::simd::NR;
use tensorfhe_math::{scratch, Modulus};

/// `log2 N` from which the radix rule picks three stages (see the module
/// docs for the measured crossover).
const STAGED_LOG_N: u32 = 9;

/// Plan (pre-computed twiddle matrices) for the four-step NTT.
///
/// The twiddle factor matrices depend only on `(N, q)` and are reused by all
/// NTT calls of a CKKS instance — the *Data Reuse* property of §IV-B.
///
/// Every constant of the host pass is stored **once**, in the Montgomery
/// or Shoup form and the layout its stage consumes. The canonical matrices
/// of Eq. 9 — what the Barrett reference pipeline and
/// [`crate::TensorCoreNtt`] multiply with — are derived on first use.
#[derive(Debug, Clone)]
pub struct FourStepNtt {
    n: usize,
    n1: usize,
    n2: usize,
    q: Modulus,
    psi: u64,
    /// The forward pass's radix list (`R_0 = ` the negacyclic factor).
    radices: Vec<usize>,
    fwd: Pass,
    inv: Pass,
    /// Lazily derived canonical matrices (reference paths only). `OnceLock`
    /// keeps the plan `Clone`; boxed so a plan that never leaves the fast
    /// path carries one pointer, not six matrices.
    canon: OnceLock<Box<CanonMats>>,
}

/// One direction of the transform: a GEMM per radix (see the module docs).
#[derive(Debug, Clone)]
struct Pass {
    stages: Vec<Stage>,
    /// Lengths of the two staging buffers stage outputs alternate between
    /// (the second is unused by a two-stage pass).
    bufs: [usize; 2],
}

/// One GEMM of a [`Pass`].
///
/// The twiddles `tw` are stored where the tiles they multiply are
/// *stored* — the next stage's column panels, padding columns zero — so
/// the Hadamard product of one tile row is one straight element-wise loop
/// over `NR` contiguous values. For a word-size prime each entry is the
/// packed 32-bit Shoup pair the butterfly's twiddles use
/// (`w | ⌊w·2^32/q⌋ << 32`) and the product is
/// [`Modulus::mul_shoup32_lazy`] plus one conditional subtraction, all in
/// `u64` lanes; a wider prime keeps Montgomery-form entries and a `REDC`
/// per element.
#[derive(Debug, Clone)]
struct Stage {
    /// The `R×R` constant: the pre-packed right operand of stage 0, the
    /// left operand of every later stage.
    w: MontOperand,
    /// Twiddles for the next stage's input, in its panel layout (empty on
    /// the last stage).
    tw: Vec<u64>,
    /// Where the next stage reads this stage's outputs.
    hop: Hop,
}

/// The index map from output `(o, x)` of stage `t` to the next stage's
/// panels: `x = i·D_t + d`, `i = i′ + a·j`, destination panel entry
/// `(j, i′·D_t·R_t + d + D_t·o)` of a `k_next`-row operand. Every factor is
/// a power of two, so the map is shifts and masks.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    /// `log2 D_t`.
    d_bits: u32,
    /// `log2 R_t`.
    r_bits: u32,
    /// `log2 a`, `a = N/D_{t+2}`.
    a_bits: u32,
    /// `R_{t+1}`, the next stage's inner dimension.
    k_next: usize,
}

impl Hop {
    #[inline]
    fn at(&self, o: usize, x: usize) -> usize {
        let (i, d) = (x >> self.d_bits, x & ((1 << self.d_bits) - 1));
        let (j, i2) = (i >> self.a_bits, i & ((1 << self.a_bits) - 1));
        let c = (i2 << (self.d_bits + self.r_bits)) + d + (o << self.d_bits);
        panel_index(self.k_next, j, c)
    }
}

/// Generators of the six matrices of Eq. 9 and of the power table the
/// staged pass reads its constants from, as canonical residues.
struct Twiddles {
    n1: usize,
    n2: usize,
    m: Modulus,
    psi: u64,
}

impl Twiddles {
    /// `ψ_{2N2} = ψ^{N1}`.
    fn psi_2n2(&self) -> u64 {
        self.m.pow(self.psi, self.n1 as u64)
    }

    /// `ψ_{2N1} = ψ^{N2}`.
    fn psi_2n1(&self) -> u64 {
        self.m.pow(self.psi, self.n2 as u64)
    }

    /// The `rows×cols` matrix whose row `r` is the geometric sequence
    /// `first_r·ratio_r^c` with `first_r = first.0·first.1^r` and
    /// `ratio_r = ratio.0·ratio.1^r`: one modular multiply per entry (a
    /// running product along each row) instead of one exponentiation.
    fn geometric(&self, rows: usize, cols: usize, first: (u64, u64), ratio: (u64, u64)) -> Mat {
        let m = &self.m;
        let mut data = Vec::with_capacity(rows * cols);
        let (mut row_first, mut row_ratio) = (first.0, ratio.0);
        for _ in 0..rows {
            let mut entry = row_first;
            for _ in 0..cols {
                data.push(entry);
                entry = m.mul(entry, row_ratio);
            }
            row_first = m.mul(row_first, first.1);
            row_ratio = m.mul(row_ratio, ratio.1);
        }
        Mat { rows, cols, data }
    }

    /// `ψ^e` for every `e < 2N`: the one table every constant of the
    /// staged pass is read from.
    fn powers(&self) -> Vec<u64> {
        let two_n = 2 * self.n1 * self.n2;
        self.geometric(1, two_n, (1, 1), (self.psi, 1)).data
    }

    /// `base^(2·r·c + r)` as a `rows×cols` matrix.
    fn negacyclic(&self, rows: usize, cols: usize, base: u64) -> Mat {
        self.geometric(rows, cols, (1, base), (1, self.m.mul(base, base)))
    }

    /// `base^(2·r·c)` as an `N1×N1` matrix.
    fn cyclic(&self, base: u64) -> Mat {
        self.geometric(self.n1, self.n1, (1, 1), (1, self.m.mul(base, base)))
    }

    fn w_n2(&self) -> Mat {
        self.negacyclic(self.n2, self.n2, self.psi_2n2())
    }

    fn w_tw(&self) -> Mat {
        self.negacyclic(self.n1, self.n2, self.psi)
    }

    fn w_dft(&self) -> Mat {
        self.cyclic(self.psi_2n1())
    }

    fn w_idft(&self) -> Mat {
        self.cyclic(self.m.inv(self.psi_2n1()))
    }

    fn w_tw_inv(&self) -> Mat {
        self.negacyclic(self.n1, self.n2, self.m.inv(self.psi))
    }

    /// Inverse N2-side matrix with `N^{-1}` folded in.
    fn w_n2_inv(&self) -> Mat {
        // N⁻¹·base^(2·r·c + c) = N⁻¹·(base^(2r+1))^c.
        let base = self.m.inv(self.psi_2n2());
        let n_inv = self.m.inv((self.n1 * self.n2) as u64);
        self.geometric(self.n2, self.n2, (n_inv, 1), (base, self.m.mul(base, base)))
    }
}

/// The six matrices of Eq. 9 as canonical residues.
#[derive(Debug, Clone)]
pub(crate) struct CanonMats {
    pub(crate) w_n2: Mat,
    pub(crate) w_tw: Mat,
    pub(crate) w_dft: Mat,
    pub(crate) w_idft: Mat,
    pub(crate) w_tw_inv: Mat,
    pub(crate) w_n2_inv: Mat,
}

/// Eq. 9's `(N1, N2)` split of `2^log_n`, `N1 ≥ N2`.
fn eq9_split(log_n: u32) -> (usize, usize) {
    (1 << log_n.div_ceil(2), 1 << (log_n / 2))
}

/// The radix rule (module docs): Eq. 9's `(N2, N1)` below
/// `2^STAGED_LOG_N`, three near-equal radices from there on, the largest
/// last (so `R_0 ≥ 8 = NR`).
fn radix_rule(log_n: u32) -> Vec<usize> {
    if log_n < STAGED_LOG_N {
        let (n1, n2) = eq9_split(log_n);
        return vec![n2, n1];
    }
    let (base, extra) = (log_n / 3, log_n % 3);
    (0..3u32)
        .map(|t| 1usize << (base + u32::from(t >= 3 - extra)))
        .collect()
}

/// Stores row `ii` of tile `t`, multiplied by its twiddles, at
/// `dst[at(ii)..][..NR]` (twiddles at the same positions of `tw`),
/// canonical: a packed Shoup-32 product plus one conditional subtraction
/// per lane for a word-size prime, a Montgomery product (`v·(w·R)·R⁻¹`)
/// otherwise.
///
/// Deliberately its own function: the slices it is handed cannot alias,
/// which is what lets LLVM vectorize the lanes.
#[inline(never)]
fn twiddle_rows(
    q: &Modulus,
    mont: &Montgomery,
    t: &TileOut<'_>,
    at: impl Fn(usize) -> usize,
    tw: &[u64],
    dst: &mut [u64],
) {
    for ii in 0..t.rows {
        let at = at(ii);
        let vals = &t.vals[ii * NR..(ii + 1) * NR];
        let (tw, dst) = (&tw[at..at + NR], &mut dst[at..at + NR]);
        if q.is_word_size() {
            for jj in 0..NR {
                dst[jj] = csub(Shoup32(tw[jj]).mul_lazy(vals[jj], q), q.value());
            }
        } else {
            for jj in 0..NR {
                dst[jj] = mont.mul(vals[jj], tw[jj]);
            }
        }
    }
}

impl Pass {
    /// Builds one direction over `radices` (in pass order): `w(t, r, c)` is
    /// entry `[r][c]` of stage `t`'s constant (`[j][o]` for stage 0,
    /// `[o][j]` after) and `tw(t, o, x)` the twiddle output `(o, x)` of
    /// stage `t` is multiplied by, both canonical.
    fn new(
        q: &Modulus,
        radices: &[usize],
        w: impl Fn(usize, usize, usize) -> u64,
        tw: impl Fn(usize, usize, usize) -> u64,
    ) -> Self {
        let qv = q.value();
        let n: usize = radices.iter().product();
        let mont = Montgomery::new(qv);
        let mut bufs = [0usize; 2];
        let mut d = 1usize;
        let stages = radices
            .iter()
            .enumerate()
            .map(|(t, &r)| {
                let consts: Vec<u64> = (0..r * r).map(|e| w(t, e / r, e % r)).collect();
                let w_op = if t == 0 {
                    MontOperand::new_packed(qv, &consts, r, r)
                } else {
                    MontOperand::new(qv, &consts, r, r)
                };
                let (hop, table) = match radices.get(t + 1) {
                    None => (Hop::default(), Vec::new()),
                    Some(&next) => {
                        let hop = Hop {
                            d_bits: d.trailing_zeros(),
                            r_bits: r.trailing_zeros(),
                            a_bits: (n / (d * r * next)).trailing_zeros(),
                            k_next: next,
                        };
                        let mut table = vec![0u64; packed_len(next, n / next)];
                        for o in 0..r {
                            for x in 0..n / r {
                                let v = tw(t, o, x);
                                table[hop.at(o, x)] = if q.is_word_size() {
                                    Shoup32::new(v, q).0
                                } else {
                                    mont.to_mont(v)
                                };
                            }
                        }
                        bufs[t % 2] = bufs[t % 2].max(table.len());
                        (hop, table)
                    }
                };
                d *= r;
                Stage {
                    w: w_op,
                    tw: table,
                    hop,
                }
            })
            .collect();
        Self { stages, bufs }
    }

    /// Runs the pass over one row in place. `bufs` are the caller's
    /// staging buffers of [`Pass::bufs`] lengths, contents unspecified:
    /// stage 0 reads the row through a strided view, every epilogue stores
    /// its twiddled tiles straight into the next stage's panels — padding
    /// columns included, which come out zero because the products against
    /// zero padding are — and the last epilogue stores its tiles into the
    /// row. Nothing else is copied.
    fn run(&self, q: &Modulus, row: &mut [u64], bufs: &mut [Vec<u64>; 2]) {
        let (n, s) = (row.len(), self.stages.len());
        let (first, middle, last) = (&self.stages[0], &self.stages[1..s - 1], &self.stages[s - 1]);
        let mont = first.w.montgomery();
        let [ping, pong] = bufs;
        let (mut src, mut dst) = (ping, pong);
        let r0 = first.w.rows();
        let view = Strided {
            data: row,
            row_stride: 1,
            k_stride: n / r0,
        };
        // Stage 0: tile rows are positions x, lanes output digits o.
        gemm_rm_fused(view, n / r0, &first.w, |t: TileOut<'_>| {
            let at = |ii| first.hop.at(t.col0, t.row0 + ii);
            twiddle_rows(q, mont, &t, at, &first.tw, src);
        });
        // Later stages: tile rows are output digits o, lanes positions x.
        for stage in middle {
            let cols = n / stage.w.rows();
            let panels = &src[..packed_len(stage.w.rows(), cols)];
            gemm_lm_fused(&stage.w, panels, cols, |t| {
                let at = |ii| stage.hop.at(t.row0 + ii, t.col0);
                twiddle_rows(q, mont, &t, at, &stage.tw, dst);
            });
            std::mem::swap(&mut src, &mut dst);
        }
        let cols = n / last.w.rows();
        let panels = &src[..packed_len(last.w.rows(), cols)];
        gemm_lm_fused(&last.w, panels, cols, |t| t.store_row_major(row, cols));
    }
}

impl FourStepNtt {
    /// Builds the plan for degree `n` (power of two) and prime `q < 2^32`
    /// with `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4, or `q ≥ 2^32` (the GEMM
    /// single-reduction accumulator argument requires 32-bit residues,
    /// matching the paper's RNS limb width).
    #[must_use]
    pub fn new(n: usize, q: u64) -> Self {
        let m = Modulus::new(q);
        let psi = root_of_unity(&m, 2 * n as u64);
        Self::with_root(n, q, psi)
    }

    /// Builds the plan with an explicit primitive `2n`-th root.
    ///
    /// # Panics
    ///
    /// See [`FourStepNtt::new`]; additionally panics if `psi` is not
    /// primitive.
    #[must_use]
    pub fn with_root(n: usize, q: u64, psi: u64) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "degree must be a power of two >= 4"
        );
        Self::build(n, q, psi, radix_rule(n.trailing_zeros()))
    }

    /// [`FourStepNtt::with_root`] over an explicit forward radix list
    /// instead of the radix rule's: the A/B hook (in the manner of
    /// `gemm_rm_with`) for benches and equivalence tests, e.g. `&[N2, N1]`
    /// for Eq. 9's two-stage pass at a degree where the rule picks three.
    /// Outputs are bit-identical whatever the list.
    ///
    /// # Panics
    ///
    /// As [`FourStepNtt::with_root`]; additionally if the list has fewer
    /// than two entries, an entry is not a power of two ≥ 2, the product
    /// is not `n`, or a list of three or more stages starts below
    /// [`NR`] (a register tile's lanes must stay inside one panel).
    #[must_use]
    pub fn with_radices(n: usize, q: u64, psi: u64, radices: &[usize]) -> Self {
        assert!(radices.len() >= 2, "a staged pass has at least two stages");
        assert!(
            radices.iter().all(|&r| r >= 2 && r.is_power_of_two()),
            "radices must be powers of two >= 2"
        );
        assert_eq!(
            radices.iter().product::<usize>(),
            n,
            "radices must multiply to n"
        );
        assert!(
            radices.len() == 2 || radices[0].is_multiple_of(NR),
            "a pass of three or more stages needs R_0 >= {NR}"
        );
        Self::build(n, q, psi, radices.to_vec())
    }

    fn build(n: usize, q: u64, psi: u64, radices: Vec<usize>) -> Self {
        let m = Modulus::new(q);
        assert!(m.bits() <= 32, "four-step NTT requires q < 2^32");
        assert_eq!(m.pow(psi, n as u64), q - 1, "psi must be primitive");
        let (n1, n2) = eq9_split(n.trailing_zeros());
        let t = Twiddles { n1, n2, m, psi };
        // Every constant is read off one table of ψ^e, e < 2N.
        let pow = t.powers();
        let mask = 2 * n - 1;
        let fwd_pow = |e: usize| pow[e & mask];
        let inv_pow = |e: usize| pow[e.wrapping_neg() & mask];
        let s = radices.len();
        // D_t = R_0·…·R_{t−1} of either pass.
        let prefix = |rs: &[usize], t: usize| rs[..t].iter().product::<usize>();

        let fwd = Pass::new(
            &m,
            &radices,
            |t, r, c| {
                let span = n / radices[t];
                if t == 0 {
                    // [j][o]: ψ_{2R}^{(2o+1)·j}.
                    fwd_pow(span * (2 * c + 1) * r)
                } else {
                    fwd_pow(2 * span * r * c)
                }
            },
            |t, o, x| {
                let d = prefix(&radices, t);
                if t == 0 {
                    fwd_pow((2 * o + 1) * x)
                } else {
                    fwd_pow(2 * d * o * (x / d))
                }
            },
        );

        let rev: Vec<usize> = radices.iter().rev().copied().collect();
        let n_inv = m.inv(n as u64);
        let inv = Pass::new(
            &m,
            &rev,
            |t, r, c| {
                let span = n / rev[t];
                if t + 1 == s {
                    // [o][j]: N⁻¹·ψ_{2R}^{−(2j+1)·o}.
                    m.mul(n_inv, inv_pow(span * (2 * c + 1) * r))
                } else {
                    inv_pow(2 * span * r * c)
                }
            },
            |t, o, x| {
                // The forward twiddle at the mirrored boundary: `j` is the
                // digit the next stage contracts, `e` the output digits
                // emitted so far, this one included.
                let d = prefix(&rev, t);
                let j = x / d / (n / (d * rev[t] * rev[t + 1]));
                let e = x % d + d * o;
                if t + 2 == s {
                    inv_pow((2 * j + 1) * e)
                } else {
                    inv_pow(2 * (n / prefix(&rev, t + 2)) * j * e)
                }
            },
        );
        Self {
            n,
            n1,
            n2,
            q: m,
            psi,
            radices,
            fwd,
            inv,
            canon: OnceLock::new(),
        }
    }

    /// The canonical matrices, derived on first use and cached on the plan
    /// (so [`crate::PlanCache`]-shared plans pay for them once, and only
    /// if a reference path ever runs).
    pub(crate) fn canon(&self) -> &CanonMats {
        self.canon.get_or_init(|| {
            let t = Twiddles {
                n1: self.n1,
                n2: self.n2,
                m: self.q,
                psi: self.psi,
            };
            Box::new(CanonMats {
                w_n2: t.w_n2(),
                w_tw: t.w_tw(),
                w_dft: t.w_dft(),
                w_idft: t.w_idft(),
                w_tw_inv: t.w_tw_inv(),
                w_n2_inv: t.w_n2_inv(),
            })
        })
    }

    /// The `(N1, N2)` split of Eq. 9, `N1 ≥ N2`, `N1·N2 = N` — the
    /// canonical two-factor form the reference pipeline, the tensor-core
    /// formulation and the simulated lowering use, whatever
    /// [`FourStepNtt::radices`] the host pass runs.
    #[must_use]
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// The host pass's forward radix list: `R_0` (the negacyclic factor)
    /// first, one GEMM per entry; the inverse runs it reversed.
    #[must_use]
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// Multiply-accumulates the host pass does per row and direction,
    /// `N·ΣR_t` (`N·(N1 + N2)` for Eq. 9's two stages).
    #[must_use]
    pub fn macs_per_row(&self) -> usize {
        self.n * self.radices.iter().sum::<usize>()
    }

    /// The primitive root used by the plan.
    #[must_use]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    pub(crate) fn modulus_handle(&self) -> &Modulus {
        &self.q
    }

    /// Gathers the input vector into the `N1×N2` matrix `A[n1][n2] =
    /// a[n1 + N1·n2]` (stage 1 of Fig. 8).
    pub(crate) fn reshape_in(&self, a: &[u64]) -> Mat {
        Mat::from_fn(self.n1, self.n2, |n1, n2| a[n1 + self.n1 * n2])
    }

    /// Scatters the inverse-output matrix `A[n1][n2]` to
    /// `a[n1 + N1·n2]` — column-major flattening.
    pub(crate) fn flatten_in(&self, out: &Mat, dst: &mut [u64]) {
        for n1 in 0..self.n1 {
            for n2 in 0..self.n2 {
                dst[n1 + self.n1 * n2] = out.at(n1, n2);
            }
        }
    }

    /// The host pass: transforms every row in place — one Montgomery GEMM
    /// per radix with the twiddle Hadamards and every repack fused into
    /// their epilogues ([`Pass::run`]), staged through pooled row-sized
    /// buffers (one for two stages, two from three on) for the whole
    /// block. Rows are independent and each one's working set (row,
    /// staging buffers, constants) stays cache-resident, so a block is
    /// simply its rows in turn: `B = 1` is the same code.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the degree.
    pub(crate) fn transform_rows(&self, rows: &mut [&mut [u64]], inverse: bool) {
        let pass = if inverse { &self.inv } else { &self.fwd };
        // Every stage overwrites the panels it writes whole.
        let take = |len: usize| {
            if len == 0 {
                Vec::new()
            } else {
                scratch::take_dirty_u64(len)
            }
        };
        let mut bufs = pass.bufs.map(take);
        for row in rows.iter_mut() {
            assert_eq!(row.len(), self.n, "input length mismatch");
            pass.run(&self.q, row, &mut bufs);
        }
        bufs.into_iter().for_each(scratch::give_u64);
    }
}

impl NttOps for FourStepNtt {
    fn degree(&self) -> usize {
        self.n
    }

    fn modulus(&self) -> u64 {
        self.q.value()
    }

    fn forward(&self, a: &mut [u64]) {
        self.transform_rows(&mut [a], false);
    }

    fn inverse(&self, a: &mut [u64]) {
        self.transform_rows(&mut [a], true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::NttTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensorfhe_math::gemm_fast::{gemm_lm, gemm_rm};
    use tensorfhe_math::prime::generate_ntt_primes;

    /// Hands the pool garbage of every staging length `plan` takes, so
    /// the next transform runs on dirty buffers.
    fn dirty_staging(plan: &FourStepNtt) {
        scratch::clear_thread_pool();
        for len in plan.fwd.bufs.into_iter().chain(plan.inv.bufs) {
            scratch::give_u64(vec![u64::MAX; len]);
        }
    }

    /// Forward and inverse of `a` through `fs` and the butterfly, bit-equal
    /// at every step, with dirty staging buffers.
    fn check_against_butterfly(bf: &NttTable, fs: &FourStepNtt, a: &[u64], label: &str) {
        let (mut x, mut y) = (a.to_vec(), a.to_vec());
        bf.forward(&mut x);
        dirty_staging(fs);
        fs.forward(&mut y);
        assert_eq!(x, y, "forward {label}");
        bf.inverse(&mut x);
        dirty_staging(fs);
        fs.inverse(&mut y);
        assert_eq!(x, y, "inverse {label}");
        assert_eq!(x, a, "roundtrip {label}");
    }

    #[test]
    fn split_shapes() {
        let q = generate_ntt_primes(1, 28, 1 << 6)[0];
        let t = FourStepNtt::new(64, q);
        assert_eq!(t.split(), (8, 8));
        let q = generate_ntt_primes(1, 28, 1 << 7)[0];
        let t = FourStepNtt::new(128, q);
        assert_eq!(t.split(), (16, 8));
    }

    #[test]
    fn radix_rule_is_eq9_below_the_crossover_and_three_stages_from_it() {
        for log_n in 2..=16u32 {
            let n = 1usize << log_n;
            let rs = radix_rule(log_n);
            assert_eq!(rs.iter().product::<usize>(), n, "2^{log_n}");
            if log_n < STAGED_LOG_N {
                let n1 = 1usize << log_n.div_ceil(2);
                assert_eq!(rs, [n / n1, n1], "Eq. 9's (N2, N1) at 2^{log_n}");
                assert_eq!(eq9_split(log_n), (n1, n / n1));
            } else {
                assert_eq!(rs.len(), 3, "2^{log_n}");
                assert!(rs[0] >= NR && rs.windows(2).all(|w| w[0] <= w[1]));
                assert!(rs[2] <= 2 * rs[0], "near-equal at 2^{log_n}: {rs:?}");
            }
        }
        assert_eq!(radix_rule(13), [16, 16, 32]);
        assert_eq!(radix_rule(16), [32, 32, 64]);
        let q = generate_ntt_primes(1, 28, 1 << 13)[0];
        let plan = FourStepNtt::new(1 << 13, q);
        assert_eq!(plan.radices(), [16, 16, 32]);
        assert_eq!(plan.macs_per_row(), 524_288);
        let eq9 = FourStepNtt::with_radices(1 << 13, q, plan.psi(), &[64, 128]);
        assert_eq!(eq9.macs_per_row(), 1_572_864);
        assert_eq!(eq9.split(), plan.split(), "the canonical split is Eq. 9's");
    }

    #[test]
    fn twiddle_matrices_equal_the_per_entry_powers() {
        // The running-product generators, entry for entry against the
        // closed forms of Eq. 9 (one exponentiation per entry).
        for n in [16usize, 128, 512] {
            let q = generate_ntt_primes(1, 28, n as u64)[0];
            let m = Modulus::new(q);
            let plan = FourStepNtt::new(n, q);
            let (n1, n2) = plan.split();
            let psi = plan.psi();
            let (psi_n2, psi_n1) = (m.pow(psi, n1 as u64), m.pow(psi, n2 as u64));
            let n_inv = m.inv(n as u64);
            let c = plan.canon();
            let pow = |base: u64, e: usize| m.pow(base, e as u64);
            let check = |mat: &Mat, name: &str, f: &dyn Fn(usize, usize) -> u64| {
                for r in 0..mat.rows {
                    for col in 0..mat.cols {
                        assert_eq!(mat.at(r, col), f(r, col), "{name}[{r}][{col}] at N={n}");
                    }
                }
            };
            check(&c.w_n2, "w_n2", &|r, col| pow(psi_n2, 2 * r * col + r));
            check(&c.w_tw, "w_tw", &|r, col| pow(psi, 2 * r * col + r));
            check(&c.w_dft, "w_dft", &|r, col| pow(psi_n1, 2 * r * col));
            check(&c.w_idft, "w_idft", &|r, col| {
                pow(m.inv(psi_n1), 2 * r * col)
            });
            check(&c.w_tw_inv, "w_tw_inv", &|r, col| {
                pow(m.inv(psi), 2 * r * col + r)
            });
            check(&c.w_n2_inv, "w_n2_inv", &|r, col| {
                m.mul(pow(m.inv(psi_n2), 2 * r * col + col), n_inv)
            });
        }
    }

    /// Every constant of one pass — each stage's `R×R` matrix, read back
    /// through a product with the identity, and each twiddle at its panel
    /// position — against `closed(t, r, c)` / `twiddle(t, o, x)`.
    fn check_pass(
        pass: &Pass,
        q: u64,
        closed: &dyn Fn(usize, usize, usize) -> u64,
        twiddle: &dyn Fn(usize, usize, usize) -> u64,
        label: &str,
    ) {
        let m = Modulus::new(q);
        let mont = Montgomery::new(q);
        let n: usize = pass.stages.iter().map(|s| s.w.rows()).product();
        for (t, stage) in pass.stages.iter().enumerate() {
            let r = stage.w.rows();
            let eye: Vec<u64> = (0..r * r).map(|e| u64::from(e / r == e % r)).collect();
            let mut got = vec![0u64; r * r];
            if t == 0 {
                gemm_rm(&eye, r, &stage.w, &mut got);
            } else {
                gemm_lm(&stage.w, &eye, r, &mut got);
            }
            for (e, &g) in got.iter().enumerate() {
                let (row, col) = (e / r, e % r);
                assert_eq!(g, closed(t, row, col), "{label} W_{t}[{row}][{col}]");
            }
            if t + 1 == pass.stages.len() {
                assert!(
                    stage.tw.is_empty(),
                    "{label}: the last stage has no twiddle"
                );
                continue;
            }
            let mut hit = vec![false; stage.tw.len()];
            for o in 0..r {
                for x in 0..n / r {
                    let at = stage.hop.at(o, x);
                    assert!(!hit[at], "{label} stage {t}: two outputs share slot {at}");
                    hit[at] = true;
                    let w = if m.is_word_size() {
                        stage.tw[at] & 0xFFFF_FFFF
                    } else {
                        mont.from_mont(stage.tw[at])
                    };
                    assert_eq!(w, twiddle(t, o, x), "{label} twiddle {t} at ({o}, {x})");
                }
            }
            // Unreached slots are panel padding, and zero.
            for (at, _) in hit.iter().enumerate().filter(|(_, &h)| !h) {
                assert_eq!(stage.tw[at], 0, "{label} stage {t}: padding at {at}");
            }
        }
    }

    #[test]
    fn stage_constants_equal_their_closed_forms() {
        // The staged pass's constants, entry for entry, against the closed
        // forms of the module docs (one exponentiation per entry): the
        // rule's two- and three-stage lists and a four-stage one, at a
        // word-size prime (Shoup twiddles) and a 32-bit one (Montgomery).
        for (n, list) in [
            (64usize, None),
            (512, None),
            (1 << 10, None),
            (1 << 11, None),
            (1 << 12, Some(vec![8usize, 4, 16, 8])),
        ] {
            for bits in [28u32, 32] {
                let q = generate_ntt_primes(1, bits, n as u64)[0];
                let m = Modulus::new(q);
                let psi = root_of_unity(&m, 2 * n as u64);
                let plan = match &list {
                    Some(rs) => FourStepNtt::with_radices(n, q, psi, rs),
                    None => FourStepNtt::new(n, q),
                };
                let (psi, psi_inv) = (plan.psi(), m.inv(plan.psi()));
                let rs = plan.radices().to_vec();
                let rev: Vec<usize> = rs.iter().rev().copied().collect();
                let s = rs.len();
                let d = |list: &[usize], t: usize| list[..t].iter().product::<usize>();
                let pow = |base: u64, e: usize| m.pow(base, e as u64);
                let label = format!("N={n} {bits}-bit {rs:?}");
                check_pass(
                    &plan.fwd,
                    q,
                    &|t, r, c| {
                        let span = n / rs[t];
                        if t == 0 {
                            pow(psi, span * (2 * c + 1) * r)
                        } else {
                            pow(psi, 2 * span * r * c)
                        }
                    },
                    &|t, o, x| {
                        if t == 0 {
                            pow(psi, (2 * o + 1) * x)
                        } else {
                            let dt = d(&rs, t);
                            pow(psi, 2 * dt * o * (x / dt))
                        }
                    },
                    &format!("forward {label}"),
                );
                let n_inv = m.inv(n as u64);
                check_pass(
                    &plan.inv,
                    q,
                    &|t, r, c| {
                        let span = n / rev[t];
                        if t + 1 == s {
                            m.mul(n_inv, pow(psi_inv, span * (2 * c + 1) * r))
                        } else {
                            pow(psi_inv, 2 * span * r * c)
                        }
                    },
                    &|t, o, x| {
                        let dt = d(&rev, t);
                        let j = x / dt / (n / d(&rev, t + 2));
                        let e = x % dt + dt * o;
                        if t + 2 == s {
                            pow(psi_inv, (2 * j + 1) * e)
                        } else {
                            pow(psi_inv, 2 * (n / d(&rev, t + 2)) * j * e)
                        }
                    },
                    &format!("inverse {label}"),
                );
            }
        }
    }

    #[test]
    fn matches_butterfly_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for log_n in [2u32, 4, 5, 6, 8, 10] {
            let n = 1usize << log_n;
            let q = generate_ntt_primes(1, 28, n as u64)[0];
            let bf = NttTable::new(n, q);
            let fs = FourStepNtt::with_root(n, q, bf.psi());
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

            let mut x = a.clone();
            let mut y = a.clone();
            bf.forward(&mut x);
            fs.forward(&mut y);
            assert_eq!(x, y, "forward mismatch at N={n}");

            bf.inverse(&mut x);
            fs.inverse(&mut y);
            assert_eq!(x, y, "inverse mismatch at N={n}");
            assert_eq!(x, a);
        }
    }

    #[test]
    fn twiddle_epilogue_is_exact_at_every_prime_width() {
        // The staged pass at every degree 2^2 … 2^16 (every radix-rule
        // boundary) against the butterfly: the Shoup-32 twiddle epilogue
        // under the narrow tile without spills (28-bit), with them (29- to
        // 31-bit), and the Montgomery one under the limb split (32-bit);
        // inputs zero, saturated and random, staging buffers dirty.
        let mut rng = StdRng::seed_from_u64(13);
        for bits in [28u32, 29, 30, 31, 32] {
            for log_n in 2..=16u32 {
                let n = 1usize << log_n;
                let q = generate_ntt_primes(1, bits, n as u64)[0];
                let bf = NttTable::new(n, q);
                let fs = FourStepNtt::with_root(n, q, bf.psi());
                let label = if bits < 32 { "narrow" } else { "simd4" };
                for stage in fs.fwd.stages.iter().chain(&fs.inv.stages) {
                    assert_eq!(stage.w.kernel().label(), label, "{bits}-bit tile");
                }
                let random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                for (name, a) in [
                    ("zero", vec![0; n]),
                    ("q-1", vec![q - 1; n]),
                    ("random", random),
                ] {
                    let what = format!("N=2^{log_n}, {bits}-bit q, {name} input");
                    check_against_butterfly(&bf, &fs, &a, &what);
                }
            }
        }
    }

    #[test]
    fn every_radix_list_computes_the_same_transform() {
        // The A/B hook: Eq. 9's two-stage list, the rule's and deeper
        // ones, bit-equal to the butterfly at a word-size and a 32-bit
        // prime.
        let mut rng = StdRng::seed_from_u64(14);
        let lists: [(usize, &[usize]); 7] = [
            (1 << 8, &[16, 16]),
            (1 << 8, &[8, 4, 8]),
            (1 << 10, &[32, 32]),
            (1 << 10, &[8, 2, 64]),
            (1 << 12, &[8, 8, 8, 8]),
            (1 << 13, &[64, 128]),
            (1 << 13, &[8, 4, 8, 4, 8]),
        ];
        for bits in [30u32, 32] {
            for &(n, rs) in &lists {
                let q = generate_ntt_primes(1, bits, n as u64)[0];
                let bf = NttTable::new(n, q);
                let fs = FourStepNtt::with_radices(n, q, bf.psi(), rs);
                assert_eq!(fs.radices(), rs);
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                check_against_butterfly(&bf, &fs, &a, &format!("{rs:?} {bits}-bit"));
            }
        }
    }

    #[test]
    fn roundtrip_rectangular_split() {
        // N = 2^9 → N1=32, N2=16 exercises the non-square path.
        let n = 512;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let t = FourStepNtt::new(n, q);
        let mut rng = StdRng::seed_from_u64(12);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut b = a.clone();
        t.forward(&mut b);
        t.inverse(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "q < 2^32")]
    fn large_prime_rejected() {
        let n = 64;
        let q = generate_ntt_primes(1, 40, n as u64)[0];
        let _ = FourStepNtt::new(n, q);
    }

    #[test]
    #[should_panic(expected = "multiply to n")]
    fn radix_list_must_cover_the_degree() {
        let n = 256;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let psi = root_of_unity(&Modulus::new(q), 2 * n as u64);
        let _ = FourStepNtt::with_radices(n, q, psi, &[8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "needs R_0")]
    fn staged_list_must_fill_a_tile_row() {
        let n = 256;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let psi = root_of_unity(&Modulus::new(q), 2 * n as u64);
        let _ = FourStepNtt::with_radices(n, q, psi, &[4, 8, 8]);
    }
}
