//! Internal dense-matrix helpers shared by the four-step and tensor-core
//! NTT pipelines.

use tensorfhe_math::{scratch, Modulus};

/// A row-major dense matrix over `Z_q` residues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<u64>,
}

impl Mat {
    /// A zero matrix backed by this thread's scratch pool; pair with
    /// [`Mat::recycle`] so steady-state batch pipelines stop allocating.
    pub(crate) fn pooled(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: scratch::take_u64(rows * cols),
        }
    }

    /// Returns the backing buffer to this thread's scratch pool.
    pub(crate) fn recycle(self) {
        scratch::give_u64(self.data);
    }

    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> u64,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.cols + j]
    }
}

/// `(A × B) mod q` with a single Barrett reduction per output element,
/// into a caller-provided (typically pooled) output matrix — the scalar
/// reference GEMM of the Barrett wide pipeline.
///
/// Requires `q < 2^32` so that the `u128` accumulator cannot overflow for any
/// realistic inner dimension (`cols ≤ 2^64 / q² `): this is exactly the
/// paper's "only one modulo operation is required for each A_k" argument,
/// realised with a 128-bit accumulator instead of the paper's 64-bit one so
/// the property holds for every supported `N`.
pub(crate) fn gemm_mod_into(a: &Mat, b: &Mat, q: &Modulus, out: &mut Mat) {
    assert_eq!(a.cols, b.rows, "GEMM dimension mismatch");
    assert!(q.bits() <= 32, "GEMM NTT path requires q < 2^32");
    assert_eq!((out.rows, out.cols), (a.rows, b.cols), "output shape");
    // i-k-j loop order: stream through B rows for cache friendliness while
    // keeping one wide accumulator per output element.
    let mut acc_row = scratch::take_u128(b.cols);
    for i in 0..a.rows {
        acc_row.iter_mut().for_each(|x| *x = 0);
        for k in 0..a.cols {
            let aik = a.at(i, k) as u128;
            if aik == 0 {
                continue;
            }
            let brow = &b.data[k * b.cols..(k + 1) * b.cols];
            for (j, &bkj) in brow.iter().enumerate() {
                acc_row[j] += aik * bkj as u128;
            }
        }
        for (j, &acc) in acc_row.iter().enumerate() {
            out.data[i * b.cols + j] = q.reduce_u128(acc);
        }
    }
    scratch::give_u128(acc_row);
}

/// Element-wise product `(A ⊙ B) mod q` (the Hadamard step between the two
/// GEMMs).
pub(crate) fn hadamard_mod(a: &Mat, b: &Mat, q: &Modulus) -> Mat {
    assert_eq!(
        (a.rows, a.cols),
        (b.rows, b.cols),
        "Hadamard shape mismatch"
    );
    let data = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(&x, &y)| q.mul(x, y))
        .collect();
    Mat {
        rows: a.rows,
        cols: a.cols,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_mod(a: &Mat, b: &Mat, q: &Modulus) -> Mat {
        let mut out = Mat::from_fn(a.rows, b.cols, |_, _| 0);
        gemm_mod_into(a, b, q, &mut out);
        out
    }

    #[test]
    fn gemm_small_identity() {
        let q = Modulus::new((1 << 30) - 35);
        let id = Mat::from_fn(3, 3, |i, j| u64::from(i == j));
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as u64);
        assert_eq!(gemm_mod(&a, &id, &q), a);
        assert_eq!(gemm_mod(&id, &a, &q), a);
    }

    #[test]
    fn gemm_matches_schoolbook() {
        let q = Modulus::new(97);
        let a = Mat::from_fn(2, 3, |i, j| ((i + 1) * (j + 2)) as u64 % 97);
        let b = Mat::from_fn(3, 4, |i, j| ((i * 7 + j * 3 + 1) % 97) as u64);
        let c = gemm_mod(&a, &b, &q);
        for i in 0..2 {
            for j in 0..4 {
                let mut acc = 0u64;
                for k in 0..3 {
                    acc = (acc + a.at(i, k) * b.at(k, j)) % 97;
                }
                assert_eq!(c.at(i, j), acc);
            }
        }
    }

    #[test]
    fn hadamard_matches_pointwise() {
        let q = Modulus::new(101);
        let a = Mat::from_fn(2, 2, |i, j| (i * 2 + j + 1) as u64);
        let b = Mat::from_fn(2, 2, |i, j| (i * 2 + j + 5) as u64);
        let h = hadamard_mod(&a, &b, &q);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(h.at(i, j), a.at(i, j) * b.at(i, j) % 101);
            }
        }
    }
}
