//! Four-step GEMM NTT — the paper's "TensorFHE-CO" algorithm (Eq. 9).
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

/// Plan (pre-computed twiddle matrices) for the four-step NTT.
///
/// The twiddle factor matrices depend only on `(N, q)` and are reused by all
/// NTT calls of a CKKS instance — the *Data Reuse* property of §IV-B.
///
/// Every constant is stored **once**, in the Montgomery form and the
/// layout the fused pipeline (see [`crate::batch`]) consumes.
/// The canonical matrices of Eq. 9 — what the Barrett reference pipeline
/// and [`crate::TensorCoreNtt`] multiply with — are derived on first use.
#[derive(Debug, Clone)]
pub struct FourStepNtt {
    n: usize,
    n1: usize,
    n2: usize,
    q: Modulus,
    psi: u64,
    fwd: Pass,
    inv: Pass,
    /// Lazily derived canonical matrices (reference paths only). `OnceLock`
    /// keeps the plan `Clone`; boxed so a plan that never leaves the fast
    /// path carries one pointer, not six matrices.
    canon: OnceLock<Box<CanonMats>>,
}

/// The constants of one direction of the transform, which is the same
/// fused pass either way — per row, with the `d1×d2` block `A` read
/// column-major (`A[r][c] = row[r + d1·c]`) and the result written back
/// row-major:
///
/// ```text
/// row ← W2 (d1×d1) × ( (A × W1 (d2×d2)) ⊙ T (d1×d2) )
/// ```
///
/// Forward: `(d1, d2) = (N1, N2)`, `W1 = W_n2`, `T = W_tw`, `W2 = W_dft`.
/// Inverse: `(d1, d2) = (N2, N1)`, `W1 = W_idft`, `T = W_tw_invᵀ`,
/// `W2 = W_n2_invᵀ` — the mirrored pipeline with every matrix transposed,
/// so it reads evaluations row-major and writes coefficients `a[n1 + N1·n2]`
/// through the very same two strides.
///
/// The twiddles `T` are stored in the layout the first GEMM's tiles are
/// *stored* in — the `d1×NR` column panels the second GEMM consumes,
/// padding columns zero — so the Hadamard product of one register tile is
/// one straight element-wise loop over `rows·NR` contiguous values. For a
/// word-size prime each entry is the packed 32-bit Shoup pair the
/// butterfly's twiddles use (`w | ⌊w·2^32/q⌋ << 32`) and the product is
/// [`Modulus::mul_shoup32_lazy`] plus one conditional subtraction, all in
/// `u64` lanes; a wider prime keeps Montgomery-form entries and a `REDC`
/// per element.
#[derive(Debug, Clone)]
struct Pass {
    /// Right operand of the first GEMM, pre-packed into column panels.
    w1: MontOperand,
    /// Twiddle Hadamard operand, in the panel layout (see above).
    tw: Vec<u64>,
    /// Left operand of the second GEMM.
    w2: MontOperand,
}

/// Generators of the six matrices of Eq. 9, as canonical residues.
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

impl Pass {
    /// Runs the pass over one row in place. `inter` is the caller's
    /// `packed_len(d1, d2)` staging buffer, contents unspecified: the
    /// first GEMM's epilogue multiplies each register tile by its twiddles
    /// and stores it directly as the second GEMM's column panels — padding
    /// columns included, which come out zero because the twiddle padding
    /// is — and the second GEMM's epilogue stores its tiles directly into
    /// the row. Nothing else is copied.
    fn run(&self, q: &Modulus, row: &mut [u64], inter: &mut [u64]) {
        let (d1, d2) = (self.w2.rows(), self.w1.rows());
        let mont = self.w1.montgomery();
        let a = Strided {
            data: row,
            row_stride: 1,
            k_stride: d1,
        };
        gemm_rm_fused(a, d1, &self.w1, |t: TileOut<'_>| {
            // Rows row0.. of panel col0/NR are contiguous in the panel
            // layout, as they are in the tile.
            let at = panel_index(d1, t.row0, t.col0);
            let len = t.rows * NR;
            let lanes = inter[at..at + len]
                .iter_mut()
                .zip(&t.vals[..len])
                .zip(&self.tw[at..at + len]);
            if q.is_word_size() {
                for ((o, &v), &w) in lanes {
                    *o = csub(Shoup32(w).mul_lazy(v, q), q.value());
                }
            } else {
                for ((o, &v), &w) in lanes {
                    // v·(w·R)·R⁻¹ = v·w mod q, canonical.
                    *o = mont.mul(v, w);
                }
            }
        });
        gemm_lm_fused(&self.w2, inter, d2, |t| t.store_row_major(row, d2));
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
        let m = Modulus::new(q);
        assert!(m.bits() <= 32, "four-step NTT requires q < 2^32");
        assert_eq!(m.pow(psi, n as u64), q - 1, "psi must be primitive");
        let log_n = n.trailing_zeros();
        let n1 = 1usize << log_n.div_ceil(2);
        let n2 = n / n1;
        let t = Twiddles { n1, n2, m, psi };
        // Each canonical matrix is generated, converted and dropped in
        // turn, so building a plan never holds a second copy of its
        // constants.
        let mont = Montgomery::new(q);
        let packed = |w: Mat| MontOperand::new_packed(q, &w.data, w.rows, w.cols);
        let plain = |w: Mat| MontOperand::new(q, &w.data, w.rows, w.cols);
        let twiddle = |w: Mat| {
            let mut panels = vec![0u64; packed_len(w.rows, w.cols)];
            for (idx, &x) in w.data.iter().enumerate() {
                panels[panel_index(w.rows, idx / w.cols, idx % w.cols)] = if m.is_word_size() {
                    Shoup32::new(x, &m).0
                } else {
                    mont.to_mont(x)
                };
            }
            panels
        };
        Self {
            n,
            n1,
            n2,
            q: m,
            psi,
            fwd: Pass {
                w1: packed(t.w_n2()),
                tw: twiddle(t.w_tw()),
                w2: plain(t.w_dft()),
            },
            inv: Pass {
                // W_idft is symmetric, so it is its own transpose.
                w1: packed(t.w_idft()),
                tw: twiddle(t.w_tw_inv().transposed()),
                w2: plain(t.w_n2_inv().transposed()),
            },
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

    /// The `(N1, N2)` split, `N1 ≥ N2`, `N1·N2 = N`.
    #[must_use]
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
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

    /// The four-step pipeline: transforms every row in place — two
    /// Montgomery GEMMs per row with the twiddle Hadamard and every
    /// repack fused into their epilogues ([`Pass::run`]), staged through
    /// one pooled row-sized buffer for the whole block. Rows are
    /// independent and each one's working set (row, staging buffer,
    /// constants) stays cache-resident, so a block is simply its rows in
    /// turn: `B = 1` is the same code.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the degree.
    pub(crate) fn transform_rows(&self, rows: &mut [&mut [u64]], inverse: bool) {
        let pass = if inverse { &self.inv } else { &self.fwd };
        // Every row's first GEMM overwrites the staging buffer whole.
        let mut inter = scratch::take_dirty_u64(packed_len(pass.w2.rows(), pass.w1.rows()));
        for row in rows.iter_mut() {
            assert_eq!(row.len(), self.n, "input length mismatch");
            pass.run(&self.q, row, &mut inter);
        }
        scratch::give_u64(inter);
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
    use tensorfhe_math::prime::generate_ntt_primes;

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
        // The Shoup-32 twiddle epilogue under the narrow tile without
        // spills (28-bit), with them (29- to 31-bit: k = N2 = 32 > fold at
        // 31 bits), and the Montgomery one under the limb split (32-bit);
        // degrees with edge rows (N1 = 2), edge panels (N2 < NR) and a
        // rectangular split, against the butterfly.
        let mut rng = StdRng::seed_from_u64(13);
        for bits in [28u32, 29, 30, 31, 32] {
            for log_n in [2u32, 3, 5, 6, 9, 10] {
                let n = 1usize << log_n;
                let q = generate_ntt_primes(1, bits, n as u64)[0];
                let bf = NttTable::new(n, q);
                let fs = FourStepNtt::with_root(n, q, bf.psi());
                let label = if bits < 32 { "narrow" } else { "simd4" };
                assert_eq!(fs.fwd.w1.kernel().label(), label, "{bits}-bit tile");
                for saturated in [false, true] {
                    // The staging buffer is taken dirty: hand it garbage.
                    scratch::give_u64(vec![u64::MAX; packed_len(fs.n1, fs.n2)]);
                    let a: Vec<u64> = (0..n)
                        .map(|_| {
                            if saturated {
                                q - 1
                            } else {
                                rng.gen_range(0..q)
                            }
                        })
                        .collect();
                    let (mut x, mut y) = (a.clone(), a.clone());
                    bf.forward(&mut x);
                    fs.forward(&mut y);
                    assert_eq!(x, y, "forward at N={n}, {bits}-bit q");
                    bf.inverse(&mut x);
                    fs.inverse(&mut y);
                    assert_eq!(x, y, "inverse at N={n}, {bits}-bit q");
                    assert_eq!(x, a);
                }
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
}
