//! Segmented low-precision GEMM NTT — the paper's full "TensorFHE"
//! algorithm (Figs. 7 and 8).
//!
//! Tensor Core Units multiply only u8 operands (accumulating into s32), yet
//! the NTT needs exact 32-bit modular arithmetic. The paper's
//! *segment–fusion* scheme recovers exactness:
//!
//! 1. **Segment** (Fig. 7): each 32-bit element `m = Σ_{s=0}^{3} m_s·2^{8s}`
//!    is split into four u8 planes `M_0..M_3`.
//! 2. **TCU GEMM** (stages 2/4 of Fig. 8): the product `W × X` expands into
//!    16 plane products `O_{st} = W_s × X_t`, each an exact u8×u8→s32 GEMM —
//!    these are what the real hardware executes via CUTLASS, one stream per
//!    GEMM.
//! 3. **Fuse** (stages 3/5): `W×X = Σ_{s,t} O_{st}·2^{8(s+t)}`, a Booth-style
//!    shifted accumulation, followed by one modulo reduction.
//!
//! The s32 accumulators never overflow because each plane dot product is at
//! most `K·255² ≤ 512·65025 < 2^25` for the `N ≤ 2^18` splits the paper
//! supports; [`SegmentedMatrix::gemm`] asserts this bound at runtime exactly
//! where the hardware would wrap.
//!
//! This module computes bit-identical results to [`crate::butterfly`] — the
//! property the paper validates with successive NTT/INTT (§VI-A) and that
//! our cross-validation tests check directly.

use crate::four_step::FourStepNtt;
use crate::mat::{hadamard_mod, Mat};
use crate::NttOps;
use tensorfhe_math::Modulus;

/// Number of u8 planes per 32-bit element.
pub const SEGMENTS: usize = 4;

/// A matrix of 32-bit residues stored as four u8 planes (Fig. 7).
#[derive(Debug, Clone)]
pub struct SegmentedMatrix {
    rows: usize,
    cols: usize,
    /// `planes[s][i*cols + j]` = byte `s` of element `(i, j)`.
    planes: [Vec<u8>; SEGMENTS],
}

impl SegmentedMatrix {
    /// Segments a dense matrix of values `< 2^32`.
    ///
    /// # Panics
    ///
    /// Panics if any element needs more than 32 bits.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: &[u64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        let mut planes: [Vec<u8>; SEGMENTS] =
            std::array::from_fn(|_| Vec::with_capacity(rows * cols));
        for &v in data {
            assert!(v < (1 << 32), "element {v} exceeds 32 bits; cannot segment");
            for (s, plane) in planes.iter_mut().enumerate() {
                plane.push(((v >> (8 * s)) & 0xFF) as u8);
            }
        }
        Self { rows, cols, planes }
    }

    pub(crate) fn from_mat(m: &Mat) -> Self {
        Self::from_rows(m.rows, m.cols, &m.data)
    }

    /// Matrix dimensions `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reconstructs the dense u64 matrix (inverse of segmentation).
    #[must_use]
    pub fn fuse_planes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.rows * self.cols];
        for (s, plane) in self.planes.iter().enumerate() {
            for (o, &b) in out.iter_mut().zip(plane) {
                *o |= (b as u64) << (8 * s);
            }
        }
        out
    }

    /// Exact modular GEMM `(self × rhs) mod q` through 16 u8-plane products
    /// with s32 accumulation and Booth fusion.
    ///
    /// Returns the result and the number of plane GEMMs executed (always 16;
    /// exposed so the cost model can count TCU work without re-deriving it).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree, or if a plane dot product
    /// would overflow the TCU's signed 32-bit accumulator (cannot happen for
    /// inner dimensions ≤ 33 025, i.e. any power-of-two split ≤ 2^15).
    #[must_use]
    pub fn gemm(&self, rhs: &SegmentedMatrix, q: &Modulus) -> Vec<u64> {
        assert_eq!(self.cols, rhs.rows, "GEMM dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        assert!(
            (k as u64) * 255 * 255 <= i32::MAX as u64,
            "inner dimension {k} overflows the TCU s32 accumulator"
        );
        // O_st plane products. Each is an independent GEMM — the unit the
        // paper maps to one CUDA stream (Fig. 8).
        let mut plane_out = vec![vec![0i32; m * n]; SEGMENTS * SEGMENTS];
        for s in 0..SEGMENTS {
            for t in 0..SEGMENTS {
                let lhs = &self.planes[s];
                let rhsp = &rhs.planes[t];
                let out = &mut plane_out[s * SEGMENTS + t];
                for i in 0..m {
                    let lrow = &lhs[i * k..(i + 1) * k];
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (kk, &l) in lrow.iter().enumerate() {
                        if l == 0 {
                            continue;
                        }
                        let l = l as i32;
                        let rrow = &rhsp[kk * n..(kk + 1) * n];
                        for (j, &r) in rrow.iter().enumerate() {
                            // u8×u8 MAC into s32, exactly the DPU datapath.
                            orow[j] += l * r as i32;
                        }
                    }
                }
            }
        }
        // Booth fusion: Σ_{s,t} O_st · 2^{8(s+t)}, one modulo at the end.
        let mut fused = vec![0u64; m * n];
        for (idx, f) in fused.iter_mut().enumerate() {
            let mut acc: u128 = 0;
            for s in 0..SEGMENTS {
                for t in 0..SEGMENTS {
                    let o = plane_out[s * SEGMENTS + t][idx] as u128;
                    acc += o << (8 * (s + t));
                }
            }
            *f = q.reduce_u128(acc);
        }
        fused
    }
}

/// The full tensor-core NTT: the four-step plan with both GEMMs replaced by
/// segmented u8 GEMMs.
#[derive(Debug, Clone)]
pub struct TensorCoreNtt {
    plan: FourStepNtt,
    /// Pre-segmented twiddle operands (twiddle segmentation is hoisted to
    /// plan construction, as §IV-C prescribes).
    seg_n2: SegmentedMatrix,
    seg_dft: SegmentedMatrix,
    seg_idft: SegmentedMatrix,
    seg_n2_inv: SegmentedMatrix,
}

impl TensorCoreNtt {
    /// Builds the tensor-core plan for degree `n` and prime `q < 2^32`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FourStepNtt::new`].
    #[must_use]
    pub fn new(n: usize, q: u64) -> Self {
        Self::from_plan(FourStepNtt::new(n, q))
    }

    /// Builds the plan with an explicit primitive root.
    #[must_use]
    pub fn with_root(n: usize, q: u64, psi: u64) -> Self {
        Self::from_plan(FourStepNtt::with_root(n, q, psi))
    }

    fn from_plan(plan: FourStepNtt) -> Self {
        let c = plan.canon();
        let seg_n2 = SegmentedMatrix::from_mat(&c.w_n2);
        let seg_dft = SegmentedMatrix::from_mat(&c.w_dft);
        let seg_idft = SegmentedMatrix::from_mat(&c.w_idft);
        let seg_n2_inv = SegmentedMatrix::from_mat(&c.w_n2_inv);
        Self {
            plan,
            seg_n2,
            seg_dft,
            seg_idft,
            seg_n2_inv,
        }
    }

    /// The `(N1, N2)` split of the underlying plan.
    #[must_use]
    pub fn split(&self) -> (usize, usize) {
        self.plan.split()
    }

    /// The primitive root used by the plan.
    #[must_use]
    pub fn psi(&self) -> u64 {
        self.plan.psi()
    }
}

/// The batched pipeline's products, realised as wide segmented GEMMs: the
/// whole stacked block is split into u8 planes once, multiplied against the
/// pre-segmented twiddle planes, and Booth-fused with a single final modulo
/// (Figs. 7/8 over `B` rows at a time).
impl crate::batch::WideGemm for TensorCoreNtt {
    fn four_step_plan(&self) -> &FourStepNtt {
        &self.plan
    }

    fn gemm_n2(&self, stacked: &Mat) -> Mat {
        let seg = SegmentedMatrix::from_mat(stacked);
        Mat {
            rows: stacked.rows,
            cols: stacked.cols,
            data: seg.gemm(&self.seg_n2, self.plan.modulus_handle()),
        }
    }

    fn gemm_dft(&self, wide: &Mat) -> Mat {
        let seg = SegmentedMatrix::from_mat(wide);
        Mat {
            rows: wide.rows,
            cols: wide.cols,
            data: self.seg_dft.gemm(&seg, self.plan.modulus_handle()),
        }
    }

    fn gemm_idft(&self, wide: &Mat) -> Mat {
        let seg = SegmentedMatrix::from_mat(wide);
        Mat {
            rows: wide.rows,
            cols: wide.cols,
            data: self.seg_idft.gemm(&seg, self.plan.modulus_handle()),
        }
    }

    fn gemm_n2_inv(&self, stacked: &Mat) -> Mat {
        let seg = SegmentedMatrix::from_mat(stacked);
        Mat {
            rows: stacked.rows,
            cols: stacked.cols,
            data: seg.gemm(&self.seg_n2_inv, self.plan.modulus_handle()),
        }
    }
}

impl NttOps for TensorCoreNtt {
    fn degree(&self) -> usize {
        self.plan.degree()
    }

    fn modulus(&self) -> u64 {
        self.plan.modulus()
    }

    fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.degree(), "input length mismatch");
        let q = *self.plan.modulus_handle();
        let (n1, n2) = self.plan.split();
        // Stage 1: segment the input matrix.
        let mat = self.plan.reshape_in(a);
        let seg_in = SegmentedMatrix::from_mat(&mat);
        // Stage 2: 16 TCU GEMMs + Stage-3 fusion → T = A × W_n2 mod q.
        let t = Mat {
            rows: n1,
            cols: n2,
            data: seg_in.gemm(&self.seg_n2, &q),
        };
        // Stage 3 (cont.): Hadamard with W_tw on the CUDA cores, re-segment.
        let u = hadamard_mod(&t, &self.plan.canon().w_tw, &q);
        let seg_u = SegmentedMatrix::from_mat(&u);
        // Stage 4: 16 TCU GEMMs; Stage 5: fusion + final modulo.
        // Out[k1][k2] → A[k2 + N2·k1] is the row-major flattening.
        a.copy_from_slice(&self.seg_dft.gemm(&seg_u, &q));
    }

    fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.degree(), "input length mismatch");
        let q = *self.plan.modulus_handle();
        let (n1, n2) = self.plan.split();
        let seg_in = SegmentedMatrix::from_rows(n1, n2, a);
        // Inverse cyclic DFT on the N1 side.
        let v = Mat {
            rows: n1,
            cols: n2,
            data: self.seg_idft.gemm(&seg_in, &q),
        };
        let vp = hadamard_mod(&v, &self.plan.canon().w_tw_inv, &q);
        let seg_vp = SegmentedMatrix::from_mat(&vp);
        // Inverse negacyclic N2-NTT with N^{-1} folded in (the "extra
        // modular multiplicative inverse of N" of stage 5).
        let res = seg_vp.gemm(&self.seg_n2_inv, &q);
        self.plan.flatten_in(
            &Mat {
                rows: n1,
                cols: n2,
                data: res,
            },
            a,
        );
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
    fn segmentation_roundtrip() {
        let vals = [0u64, 1, 255, 256, 0xDEAD_BEEF, u32::MAX as u64];
        let seg = SegmentedMatrix::from_rows(2, 3, &vals);
        assert_eq!(seg.fuse_planes(), vals);
    }

    #[test]
    fn segmented_gemm_matches_dense() {
        let q = Modulus::new(generate_ntt_primes(1, 30, 1 << 4)[0]);
        let mut rng = StdRng::seed_from_u64(21);
        let (m, k, n) = (5usize, 7, 6);
        let a: Vec<u64> = (0..m * k).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q.value())).collect();
        let sa = SegmentedMatrix::from_rows(m, k, &a);
        let sb = SegmentedMatrix::from_rows(k, n, &b);
        let got = sa.gemm(&sb, &q);
        for i in 0..m {
            for j in 0..n {
                let mut acc: u128 = 0;
                for kk in 0..k {
                    acc += a[i * k + kk] as u128 * b[kk * n + j] as u128;
                }
                assert_eq!(got[i * n + j], q.reduce_u128(acc));
            }
        }
    }

    #[test]
    fn matches_butterfly_exactly() {
        let mut rng = StdRng::seed_from_u64(22);
        for log_n in [2u32, 4, 6, 8, 10] {
            let n = 1usize << log_n;
            let q = generate_ntt_primes(1, 30, n as u64)[0];
            let bf = NttTable::new(n, q);
            let tc = TensorCoreNtt::with_root(n, q, bf.psi());
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

            let mut x = a.clone();
            let mut y = a.clone();
            bf.forward(&mut x);
            tc.forward(&mut y);
            assert_eq!(x, y, "forward mismatch at N={n}");

            bf.inverse(&mut x);
            tc.inverse(&mut y);
            assert_eq!(x, y, "inverse mismatch at N={n}");
            assert_eq!(x, a, "roundtrip failed at N={n}");
        }
    }

    #[test]
    fn successive_ntt_intt_identity() {
        // The paper's own correctness check (§VI-A): NTT then INTT returns
        // the original input exactly.
        let n = 1 << 8;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let tc = TensorCoreNtt::new(n, q);
        let mut rng = StdRng::seed_from_u64(23);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut b = a.clone();
        tc.forward(&mut b);
        tc.inverse(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn oversized_element_rejected() {
        let _ = SegmentedMatrix::from_rows(1, 1, &[1u64 << 32]);
    }

    #[test]
    fn max_supported_inner_dimension_accepted() {
        // k = 512 (the N = 2^18 split) must satisfy the s32 bound.
        assert!(512u64 * 255 * 255 <= i32::MAX as u64);
    }
}
