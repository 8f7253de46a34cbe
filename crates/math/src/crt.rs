//! Chinese-Remainder (RNS) reconstruction and fast basis conversion tables.
//!
//! Full-RNS CKKS never materialises the wide modulus `Q = Π q_i`; every
//! polynomial lives as `L+1` residue polynomials. Two places still need to
//! reason about the composite value:
//!
//! * **Decoding** — the decoder must recover the *centered* integer
//!   coefficient from its residues. [`RnsBasis::compose_centered`] does this
//!   exactly with Garner's mixed-radix algorithm plus a small big-unsigned
//!   helper (values that survive decryption fit in `i128` by construction).
//! * **Fast basis conversion (`Conv`)** — `ModUp`/`ModDown` approximate
//!   `x mod p_j` from residues in another basis using the classic
//!   `Σ_i [x_i·q̂_i^{-1}]_{q_i}·(q̂_i mod p_j)` formula of the full-RNS
//!   literature; [`BasisConvTable`] holds the pre-computed constants.
//!
//! # Basis conversion as a wide GEMM
//!
//! The conversion formula is a matrix product in disguise. Writing
//! `y_i = [x_i·q̂_i^{-1}]_{q_i}` (a per-source-limb element-wise scaling),
//! the whole conversion of a block of `W` coefficients is
//!
//! ```text
//! Out (L_dst × W)  =  M (L_dst × L_src)  ×  Y (L_src × W)   (row j mod p_j)
//! ```
//!
//! with the constant matrix `M[j][i] = q̂_i mod p_j`. [`BasisConvGemm`]
//! precomputes `M` in row-major GEMM layout (plus the `Q mod p_j`
//! correction row the exact variants need) and converts limb-major blocks
//! — `W = B·N` coefficients across a whole batch of polynomials — in one
//! wide matrix product per target limb, exactly the TensorFHE lowering
//! that replaces the per-coefficient scalar walk of
//! [`BasisConvTable::convert_coeff`].

use crate::modulus::{csub, Modulus, LO32};
use crate::montgomery::Montgomery;
use crate::scratch;

/// A little-endian multi-word unsigned integer, just big enough for CRT
/// composition (`Π q_i` for ≲ 64 thirty-bit primes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Creates a big integer from a single word.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        Self { limbs: vec![v] }
    }

    /// `self = self * m + a`, the Horner step of CRT composition.
    pub fn mul_small_add(&mut self, m: u64, a: u64) {
        let mut carry: u128 = a as u128;
        for limb in &mut self.limbs {
            let v = *limb as u128 * m as u128 + carry;
            *limb = v as u64;
            carry = v >> 64;
        }
        while carry > 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
        self.normalize();
    }

    /// Compares two big integers.
    #[must_use]
    pub fn cmp_big(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// `self - other`, which must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    #[must_use]
    pub fn sub_big(&self, other: &Self) -> Self {
        assert!(self.cmp_big(other) != std::cmp::Ordering::Less, "underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let rhs = *other.limbs.get(i).unwrap_or(&0) as i128;
            let v = self.limbs[i] as i128 - rhs - borrow;
            if v < 0 {
                out.push((v + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(v as u64);
                borrow = 0;
            }
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Halves the value (floor).
    #[must_use]
    pub fn half(&self) -> Self {
        let mut out = self.limbs.clone();
        let mut carry = 0u64;
        for limb in out.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Converts to `i128`.
    ///
    /// Returns `None` if the value needs more than 127 bits.
    #[must_use]
    pub fn to_i128(&self) -> Option<i128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as i128),
            2 => {
                let v = (self.limbs[1] as u128) << 64 | self.limbs[0] as u128;
                if v > i128::MAX as u128 {
                    None
                } else {
                    Some(v as i128)
                }
            }
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (used only for diagnostics).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.844_674_407_370_955_2e19 + limb as f64;
        }
        acc
    }

    fn normalize(&mut self) {
        while self.limbs.len() > 1 && *self.limbs.last().expect("non-empty") == 0 {
            self.limbs.pop();
        }
    }
}

/// An RNS basis `{q_0, …, q_{L}}` with the constants needed for Garner
/// reconstruction and for sourcing fast basis conversions.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// `garner[i][j]` = `q_i^{-1} mod q_j` for `i < j`.
    garner: Vec<Vec<u64>>,
    /// `(Q/q_i)^{-1} mod q_i`.
    qhat_inv: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from distinct primes.
    ///
    /// # Panics
    ///
    /// Panics if `primes` is empty or contains duplicates.
    #[must_use]
    pub fn new(primes: &[u64]) -> Self {
        assert!(!primes.is_empty(), "basis must contain at least one prime");
        let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q)).collect();
        for (i, a) in primes.iter().enumerate() {
            for b in &primes[i + 1..] {
                assert_ne!(a, b, "duplicate prime {a} in basis");
            }
        }
        let n = moduli.len();
        let mut garner = vec![vec![0u64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                garner[i][j] = moduli[j].inv(moduli[j].reduce(moduli[i].value()));
            }
        }
        let mut qhat_inv = vec![0u64; n];
        for i in 0..n {
            let mi = &moduli[i];
            let mut prod = 1u64;
            for (j, mj) in moduli.iter().enumerate() {
                if j != i {
                    prod = mi.mul(prod, mi.reduce(mj.value()));
                }
            }
            qhat_inv[i] = mi.inv(prod);
        }
        Self {
            moduli,
            garner,
            qhat_inv,
        }
    }

    /// The moduli of the basis, in order.
    #[must_use]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of primes in the basis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// `(Q/q_i)^{-1} mod q_i` for each prime.
    #[must_use]
    pub fn qhat_inv(&self) -> &[u64] {
        &self.qhat_inv
    }

    /// The product `Q = Π q_i` as a big integer.
    #[must_use]
    pub fn product(&self) -> BigUint {
        let mut p = BigUint::from_u64(1);
        for m in &self.moduli {
            p.mul_small_add(m.value(), 0);
        }
        p
    }

    /// Garner mixed-radix digits `v` such that
    /// `x = v_0 + v_1·q_0 + v_2·q_0·q_1 + …`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    #[must_use]
    pub fn garner_digits(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.moduli.len(), "residue count mismatch");
        let n = residues.len();
        let mut v = vec![0u64; n];
        for k in 0..n {
            let mk = &self.moduli[k];
            let mut t = mk.reduce(residues[k]);
            // t = (t - v_j) * q_j^{-1} mod q_k, folded over j < k.
            for (vj, garner_row) in v.iter().zip(&self.garner).take(k) {
                t = mk.mul(mk.sub(t, mk.reduce(*vj)), garner_row[k]);
            }
            v[k] = t;
        }
        v
    }

    /// Exactly reconstructs the centered representative of `x mod Q` from its
    /// residues.
    ///
    /// # Panics
    ///
    /// Panics if the centered value does not fit in `i128` — for valid CKKS
    /// ciphertexts the coefficient magnitude is bounded by the scale times
    /// the message bound, far below `2^127`.
    #[must_use]
    pub fn compose_centered(&self, residues: &[u64]) -> i128 {
        let digits = self.garner_digits(residues);
        // Horner from the highest digit: x = (((v_{n-1})·q_{n-2} + v_{n-2})·…)
        let mut x = BigUint::from_u64(*digits.last().expect("non-empty basis"));
        for k in (0..digits.len() - 1).rev() {
            x.mul_small_add(self.moduli[k].value(), digits[k]);
        }
        let q = self.product();
        let half = q.half();
        if x.cmp_big(&half) == std::cmp::Ordering::Greater {
            let neg = q.sub_big(&x);
            -neg.to_i128().expect("centered value exceeds i128")
        } else {
            x.to_i128().expect("centered value exceeds i128")
        }
    }

    /// Decomposes a signed integer into residues over this basis.
    #[must_use]
    pub fn decompose_i128(&self, v: i128) -> Vec<u64> {
        self.moduli.iter().map(|m| m.from_i128(v)).collect()
    }
}

/// Pre-computed constants for the fast (approximate) basis conversion
/// `Conv_{C→B}` of the full-RNS CKKS literature.
///
/// Given `x` represented in the source basis `C = {q_i}`, the conversion to a
/// target prime `p_j` is
///
/// ```text
/// Conv(x)_j = Σ_i [x_i · q̂_i^{-1}]_{q_i} · (q̂_i mod p_j)   (mod p_j)
///           = x + α·Q mod p_j,  0 ≤ α ≤ len(C)
/// ```
///
/// The small `α·Q` overshoot is the documented approximation error of this
/// conversion; `ModDown` divides it away.
#[derive(Debug, Clone)]
pub struct BasisConvTable {
    /// `q̂_i^{-1} mod q_i` (copied from the source basis).
    src_qhat_inv: Vec<u64>,
    src_moduli: Vec<Modulus>,
    dst_moduli: Vec<Modulus>,
    /// `qhat_mod_p[j][i]` = `q̂_i mod p_j`.
    qhat_mod_p: Vec<Vec<u64>>,
    /// `Q mod p_j` (useful for the exact variants and ModRaise).
    q_mod_p: Vec<u64>,
}

impl BasisConvTable {
    /// Builds the conversion table from basis `src` to the primes of `dst`.
    #[must_use]
    pub fn new(src: &RnsBasis, dst: &[Modulus]) -> Self {
        let src_moduli = src.moduli().to_vec();
        let mut qhat_mod_p = Vec::with_capacity(dst.len());
        let mut q_mod_p = Vec::with_capacity(dst.len());
        for pj in dst {
            let mut row = Vec::with_capacity(src_moduli.len());
            for i in 0..src_moduli.len() {
                let mut prod = 1u64;
                for (k, qk) in src_moduli.iter().enumerate() {
                    if k != i {
                        prod = pj.mul(prod, pj.reduce(qk.value()));
                    }
                }
                row.push(prod);
            }
            qhat_mod_p.push(row);
            let mut q = 1u64;
            for qk in &src_moduli {
                q = pj.mul(q, pj.reduce(qk.value()));
            }
            q_mod_p.push(q);
        }
        Self {
            src_qhat_inv: src.qhat_inv().to_vec(),
            src_moduli,
            dst_moduli: dst.to_vec(),
            qhat_mod_p,
            q_mod_p,
        }
    }

    /// Source moduli.
    #[must_use]
    pub fn src_moduli(&self) -> &[Modulus] {
        &self.src_moduli
    }

    /// Destination moduli.
    #[must_use]
    pub fn dst_moduli(&self) -> &[Modulus] {
        &self.dst_moduli
    }

    /// `Q mod p_j` for each destination prime.
    #[must_use]
    pub fn q_mod_p(&self) -> &[u64] {
        &self.q_mod_p
    }

    /// Converts a single coefficient: `residues[i] = x mod q_i` →
    /// `out[j] ≈ x mod p_j` (up to the additive `α·Q` overshoot).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` does not match the source basis.
    #[must_use]
    pub fn convert_coeff(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.src_moduli.len());
        // y_i = [x_i * qhat_i^{-1}] mod q_i  (shared across targets)
        let y: Vec<u64> = residues
            .iter()
            .zip(&self.src_moduli)
            .zip(&self.src_qhat_inv)
            .map(|((&x, m), &inv)| m.mul(m.reduce(x), inv))
            .collect();
        self.dst_moduli
            .iter()
            .enumerate()
            .map(|(j, pj)| {
                let mut acc: u128 = 0;
                for (i, &yi) in y.iter().enumerate() {
                    acc += yi as u128 * self.qhat_mod_p[j][i] as u128;
                    // Lazy reduction: keep the accumulator below 2^127.
                    if acc >= 1u128 << 120 {
                        acc = pj.reduce_u128(acc) as u128;
                    }
                }
                pj.reduce_u128(acc)
            })
            .collect()
    }

    /// Converts with the shared `y_i` vector pre-computed by the caller
    /// (kernel layer fast path: `y` is reused across all target primes).
    #[must_use]
    pub fn convert_from_y(&self, y: &[u64], j: usize) -> u64 {
        let pj = &self.dst_moduli[j];
        let mut acc: u128 = 0;
        for (i, &yi) in y.iter().enumerate() {
            acc += yi as u128 * self.qhat_mod_p[j][i] as u128;
            if acc >= 1u128 << 120 {
                acc = pj.reduce_u128(acc) as u128;
            }
        }
        pj.reduce_u128(acc)
    }

    /// Computes the shared `y_i = [x_i · q̂_i^{-1}]_{q_i}` vector.
    #[must_use]
    pub fn y_vector(&self, residues: &[u64]) -> Vec<u64> {
        residues
            .iter()
            .zip(&self.src_moduli)
            .zip(&self.src_qhat_inv)
            .map(|((&x, m), &inv)| m.mul(m.reduce(x), inv))
            .collect()
    }
}

/// The GEMM formulation of the fast basis conversion (see the module docs):
/// a [`BasisConvTable`] whose `q̂_i mod p_j` constants are packed into
/// Montgomery-form matrix rows, converting limb-major blocks of `W = B·N`
/// coefficients in one wide matrix product per target limb.
///
/// Bit-exact with the scalar path: every output residue is the canonical
/// `Σ_i y_i·(q̂_i mod p_j) mod p_j`, so [`BasisConvGemm::convert_block`]
/// agrees with [`BasisConvTable::convert_coeff`] coefficient by coefficient
/// (a property the test suite pins for every paper parameter shape).
///
/// # The `y` stage and the row kernel
///
/// A conversion is two steps, and they are two entry points. The `y`-stage
/// ([`BasisConvGemm::y_stage`]) scales source limb `i` by `q̂_i^{-1}`
/// ([`Modulus::scale_slice`]) in place, **once per source block**; it is
/// shared by every target limb. [`BasisConvGemm::convert_row`] then
/// produces **one target limb** from that block, so a caller that works
/// limb by limb (the key switch) asks for exactly the rows it is about to
/// transform, when it is about to transform them.
/// [`BasisConvGemm::convert_block_into`] is the `y`-stage into pooled
/// scratch followed by a loop over `convert_row` — not a second kernel.
///
/// The row kernel runs over blocks of 16 columns (`CONV_LANES`) with one
/// `u64` accumulator per lane: the constants are stored as
/// `m′_ji = (q̂_i mod p_j)·2^32 mod p_j`, each product `y_i·m′_ji` is a
/// 32×32→64 multiply below `q_i·p_j`, and the source limbs are taken `fold`
/// at a time with `fold·q_i ≤ 2^32`, so a partial sum `T < 2^32·p_j` never
/// overflows. One 32-bit Montgomery step (`m = T·(−p_j^{-1}) mod 2^32`,
/// `(T + m·p_j) / 2^32`) folds it to a value below `2p_j` congruent to
/// `Σ y_i·(q̂_i mod p_j)`; the folds of one output add up lazily in
/// `[0, 2p_j)` and a last conditional subtraction makes the result
/// canonical. For 28-bit primes `fold = 16`: at every HEAX and Table V
/// shape but the 29-bit Default set an output is reduced exactly once. With
/// target primes below `2^31` no step touches `u128`; a 32-bit target prime
/// widens only the `T + m·p_j` addition.
///
/// # The single-limb rule
///
/// With one source prime (`α = 1`: every Table VIII set and Table V
/// Default) `q̂_0 = 1`, so `y = x` and the output is plainly `x mod p_j`.
/// Each target row's body is selected once, at construction, from the
/// primes alone (like `simd::Narrow::select`): a conditional subtraction
/// when `q_0 < 2·p_j`, [`Modulus::reduce`] otherwise, the fold kernel for
/// two or more source limbs. The `y`-stage of a single-limb plan is the
/// identity and does nothing. All bodies return the canonical residue, so
/// which one ran is not observable.
#[derive(Debug, Clone)]
pub struct BasisConvGemm {
    table: BasisConvTable,
    rows: Vec<ConvRow>,
    /// Source limbs per Montgomery fold: `⌊2^32 / max q_i⌋`.
    fold: usize,
}

/// How one target limb is computed; fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowBody {
    /// Two or more source limbs: Montgomery folds over `consts`.
    Fold,
    /// One source limb below `2·p_j`: `min(x, x − p_j)`.
    Csub,
    /// One source limb, any size: `x mod p_j`.
    Reduce,
}

/// One target limb of the conversion matrix.
#[derive(Debug, Clone)]
struct ConvRow {
    /// The target prime `p_j`.
    p: u64,
    /// `−p_j^{-1} mod 2^32`.
    p_inv_neg: u64,
    /// `(q̂_i mod p_j)·2^32 mod p_j` for every source limb `i`.
    consts: Vec<u64>,
    body: RowBody,
}

impl ConvRow {
    /// The 32-bit Montgomery step on every lane: `t[c]·2^-32 mod p` as a
    /// value below `2p`, for `t[c] < 2^32·p`.
    #[inline(always)]
    fn redc32(&self, t: &[u64; CONV_LANES]) -> [u64; CONV_LANES] {
        let mut r = [0u64; CONV_LANES];
        if self.p < 1 << 31 {
            for (r, &t) in r.iter_mut().zip(t) {
                let m = ((t & LO32) * self.p_inv_neg) & LO32;
                *r = (t + m * (self.p & LO32)) >> 32;
            }
        } else {
            for (r, &t) in r.iter_mut().zip(t) {
                let m = ((t & LO32) * self.p_inv_neg) & LO32;
                *r = ((t as u128 + m as u128 * self.p as u128) >> 32) as u64;
            }
        }
        r
    }
}

/// Columns per register block of the conversion kernel.
const CONV_LANES: usize = 16;

impl BasisConvGemm {
    /// Builds the plan converting from the `src` primes to the `dst` primes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty or has duplicates, or if any prime is
    /// `≥ 2^32` (the single-reduction wide accumulation needs 32-bit
    /// residues, the same bound as the GEMM NTT path).
    #[must_use]
    pub fn new(src: &[u64], dst: &[u64]) -> Self {
        let src_basis = RnsBasis::new(src);
        let dst_mods: Vec<Modulus> = dst.iter().map(|&p| Modulus::new(p)).collect();
        Self::from_table(BasisConvTable::new(&src_basis, &dst_mods))
    }

    /// Builds the plan from an existing conversion table.
    ///
    /// # Panics
    ///
    /// Panics if any source or destination prime is `≥ 2^32`, or a
    /// destination modulus is even (the Montgomery fold needs
    /// `gcd(p_j, 2^32) = 1`).
    #[must_use]
    pub fn from_table(table: BasisConvTable) -> Self {
        for m in table.src_moduli().iter().chain(table.dst_moduli()) {
            assert!(
                m.bits() <= 32,
                "GEMM basis conversion requires primes < 2^32, got {}",
                m.value()
            );
        }
        let q_max = table.src_moduli().iter().map(Modulus::value).max();
        let q_max = q_max.expect("non-empty source basis");
        let single = table.src_moduli().len() == 1;
        let rows = table
            .dst_moduli()
            .iter()
            .zip(&table.qhat_mod_p)
            .map(|(pj, row)| {
                let p = pj.value();
                let r = pj.reduce(1 << 32);
                ConvRow {
                    p,
                    // Also rejects an even target.
                    p_inv_neg: Montgomery::new(p).neg_inv() & LO32,
                    consts: row.iter().map(|&m| pj.mul(m, r)).collect(),
                    body: match (single, q_max < 2 * p) {
                        (false, _) => RowBody::Fold,
                        (true, true) => RowBody::Csub,
                        (true, false) => RowBody::Reduce,
                    },
                }
            })
            .collect();
        let fold = ((1u64 << 32) / q_max) as usize;
        Self { table, rows, fold }
    }

    /// The underlying scalar conversion table (reference path, `Q mod p_j`
    /// correction row, moduli accessors).
    #[must_use]
    pub fn table(&self) -> &BasisConvTable {
        &self.table
    }

    /// Source moduli.
    #[must_use]
    pub fn src_moduli(&self) -> &[Modulus] {
        self.table.src_moduli()
    }

    /// Destination moduli.
    #[must_use]
    pub fn dst_moduli(&self) -> &[Modulus] {
        self.table.dst_moduli()
    }

    /// Source-basis size `L_src`.
    #[must_use]
    pub fn l_src(&self) -> usize {
        self.table.src_moduli().len()
    }

    /// Destination-basis size `L_dst`.
    #[must_use]
    pub fn l_dst(&self) -> usize {
        self.table.dst_moduli().len()
    }

    /// Row stride of the flat `y` block [`BasisConvGemm::y_stage`] and
    /// [`BasisConvGemm::convert_row`] work on: `width` rounded up to whole
    /// column blocks of the kernel (a power-of-two polynomial degree `≥ 16`
    /// is its own stride).
    #[must_use]
    pub fn y_stride(width: usize) -> usize {
        width.next_multiple_of(CONV_LANES)
    }

    /// The `y`-stage in place on a flat `L_src × y_stride(width)` block:
    /// row `i` holds the reduced residues `x_c mod q_i` in its first `width`
    /// entries on entry and `[x_c · q̂_i^{-1}]_{q_i}` on return, with the
    /// padding up to the stride zeroed. Run once per source block; every
    /// target limb then reads the same block through
    /// [`BasisConvGemm::convert_row`]. A single-limb plan's `y` is `x`
    /// (type docs), so nothing is touched.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not exactly `L_src` rows of the stride.
    pub fn y_stage(&self, y: &mut [u64], width: usize) {
        let stride = Self::y_stride(width);
        assert_eq!(y.len(), self.l_src() * stride, "y block shape mismatch");
        if self.l_src() == 1 {
            return;
        }
        for (i, row) in y.chunks_mut(stride.max(1)).enumerate() {
            let (y_row, pad) = row.split_at_mut(width);
            self.y_stage_row(i, y_row);
            pad.fill(0);
        }
    }

    /// Row `i` of [`BasisConvGemm::y_stage`] on its own — `[x_c ·
    /// q̂_i^{-1}]_{q_i}` in place over the `width` residues of `row` — for a
    /// caller that finishes its source rows one at a time. Padding, if the
    /// row has any, is the caller's; a single-limb plan touches nothing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a source limb.
    pub fn y_stage_row(&self, i: usize, row: &mut [u64]) {
        assert!(i < self.l_src(), "source limb out of range");
        if self.l_src() > 1 {
            self.table.src_moduli[i].scale_slice(row, self.table.src_qhat_inv[i]);
        }
    }

    /// Target limb `j` of the conversion from a block that has been through
    /// [`BasisConvGemm::y_stage`]: `out[c] = Σ_i y[i][c]·(q̂_i mod p_j)
    /// mod p_j`, canonical, for `c < out.len()` (see the type docs for the
    /// kernel and the single-limb bodies).
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a target limb or `y` is not `L_src` rows of
    /// `y_stride(out.len())`.
    pub fn convert_row(&self, j: usize, y: &[u64], out: &mut [u64]) {
        let width = out.len();
        let stride = Self::y_stride(width);
        assert_eq!(y.len(), self.l_src() * stride, "y block shape mismatch");
        let row = &self.rows[j];
        match row.body {
            RowBody::Csub => {
                for (o, &x) in out.iter_mut().zip(y) {
                    debug_assert!(x < 2 * row.p, "source residue not reduced");
                    *o = csub(x, row.p);
                }
            }
            RowBody::Reduce => {
                let p = &self.table.dst_moduli[j];
                for (o, &x) in out.iter_mut().zip(y) {
                    *o = p.reduce(x);
                }
            }
            RowBody::Fold => self.fold_row(row, y, stride, out),
        }
    }

    /// The fold-and-reduce kernel over one target row (type docs).
    fn fold_row(&self, row: &ConvRow, y: &[u64], stride: usize, out: &mut [u64]) {
        let width = out.len();
        let two_p = 2 * row.p;
        // The accumulators of a column block never leave registers.
        for start in (0..width).step_by(CONV_LANES) {
            let mut acc = [0u64; CONV_LANES];
            for (chunk, consts) in row.consts.chunks(self.fold).enumerate() {
                let mut t = [0u64; CONV_LANES];
                for (i, &m) in consts.iter().enumerate() {
                    let at = (chunk * self.fold + i) * stride + start;
                    let yi: &[u64; CONV_LANES] =
                        y[at..at + CONV_LANES].try_into().expect("padded block");
                    for (t, &yv) in t.iter_mut().zip(yi) {
                        *t += (m & LO32) * (yv & LO32);
                    }
                }
                for (a, r) in acc.iter_mut().zip(row.redc32(&t)) {
                    *a = csub(*a + r, two_p);
                }
            }
            for a in &mut acc {
                *a = csub(*a, row.p);
            }
            if width - start >= CONV_LANES {
                // Constant length: plain vector stores, no `memcpy` call.
                out[start..start + CONV_LANES].copy_from_slice(&acc);
            } else {
                out[start..].copy_from_slice(&acc[..width - start]);
            }
        }
    }

    /// Converts a limb-major block: `src_rows[i][c] = x_c mod q_i` →
    /// `out_rows[j][c] ≈ x_c mod p_j` (up to the additive `α·Q` overshoot),
    /// as one wide `(L_dst × L_src) × (L_src × W)` GEMM with a single
    /// reduction per output element: the `y`-stage into pooled scratch,
    /// then [`BasisConvGemm::convert_row`] per target limb.
    ///
    /// # Panics
    ///
    /// Panics on limb-count or width mismatches between `src_rows` and
    /// `out_rows`.
    pub fn convert_block_into(&self, src_rows: &[&[u64]], out_rows: &mut [&mut [u64]]) {
        assert_eq!(out_rows.len(), self.l_dst(), "target limb count mismatch");
        assert_eq!(src_rows.len(), self.l_src(), "source limb count mismatch");
        let width = src_rows.first().map_or(0, |r| r.len());
        for out in out_rows.iter_mut() {
            assert_eq!(out.len(), width, "ragged target block");
        }
        let stride = Self::y_stride(width);
        if let ([x], true) = (src_rows, stride == width) {
            // Single-limb plan, whole column blocks: y is x where it lies.
            for (j, out) in out_rows.iter_mut().enumerate() {
                self.convert_row(j, x, out);
            }
            return;
        }
        // Pooled scratch: repeated drains reuse the same staging allocation
        // instead of growing the heap per call. Taken dirty — the copy and
        // the `y`-stage write every row whole, padding included.
        let mut y = scratch::take_dirty_u64(self.l_src() * stride);
        for (row, y_row) in src_rows.iter().zip(y.chunks_mut(stride.max(1))) {
            assert_eq!(row.len(), width, "ragged source block");
            y_row[..width].copy_from_slice(row);
        }
        self.y_stage(&mut y, width);
        for (j, out) in out_rows.iter_mut().enumerate() {
            self.convert_row(j, &y, out);
        }
        scratch::give_u64(y);
    }

    /// [`BasisConvGemm::convert_block_into`] under its former name: the one
    /// block kernel already multiplies against Montgomery-form constants.
    /// Kept because the end-to-end harness probes it by name.
    ///
    /// # Panics
    ///
    /// See [`BasisConvGemm::convert_block_into`].
    pub fn convert_block_into_mont(&self, src_rows: &[&[u64]], out_rows: &mut [&mut [u64]]) {
        self.convert_block_into(src_rows, out_rows);
    }

    /// Allocating variant of [`BasisConvGemm::convert_block_into`].
    #[must_use]
    pub fn convert_block(&self, src_rows: &[&[u64]]) -> Vec<Vec<u64>> {
        let width = src_rows.first().map_or(0, |r| r.len());
        let mut out = vec![vec![0u64; width]; self.l_dst()];
        {
            let mut views: Vec<&mut [u64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            self.convert_block_into(src_rows, &mut views);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn basis(count: usize) -> RnsBasis {
        RnsBasis::new(&generate_ntt_primes(count, 30, 1 << 10))
    }

    #[test]
    fn biguint_mul_add_and_compare() {
        let mut a = BigUint::from_u64(u64::MAX);
        a.mul_small_add(u64::MAX, u64::MAX);
        // (2^64-1)^2 + (2^64-1) = (2^64-1)·2^64
        let expected = {
            let mut e = BigUint::from_u64(u64::MAX);
            e.mul_small_add(0, 0); // no-op times zero? (times 0 then add 0 → 0)
            e
        };
        // times-zero collapses to zero; rebuild expected properly:
        let mut e = BigUint::from_u64(u64::MAX);
        e.mul_small_add(1 << 63, 0);
        e.mul_small_add(2, 0);
        assert_eq!(a.cmp_big(&e), std::cmp::Ordering::Equal);
        let _ = expected;
    }

    #[test]
    fn biguint_sub_half_roundtrip() {
        let mut a = BigUint::from_u64(1);
        for _ in 0..5 {
            a.mul_small_add(1_000_000_007, 123);
        }
        let h = a.half();
        let rest = a.sub_big(&h);
        // rest == h or h+1 depending on parity
        let diff = rest.sub_big(&h);
        let d = diff.to_i128().expect("diff fits");
        assert!(d == 0 || d == 1);
    }

    #[test]
    fn compose_roundtrip_positive_and_negative() {
        let b = basis(4);
        for v in [
            0i128,
            1,
            -1,
            123_456_789_123,
            -987_654_321_987,
            i64::MAX as i128,
        ] {
            let res = b.decompose_i128(v);
            assert_eq!(b.compose_centered(&res), v, "value {v}");
        }
    }

    #[test]
    fn compose_single_prime() {
        let b = basis(1);
        let q = b.moduli()[0].value() as i128;
        assert_eq!(b.compose_centered(&[1]), 1);
        assert_eq!(b.compose_centered(&[(q - 1) as u64]), -1);
    }

    #[test]
    fn garner_digits_reconstruct() {
        let b = basis(3);
        let v: i128 = 999_999_999_999;
        let digits = b.garner_digits(&b.decompose_i128(v));
        // x = v0 + v1*q0 + v2*q0*q1
        let q0 = b.moduli()[0].value() as i128;
        let q1 = b.moduli()[1].value() as i128;
        let x = digits[0] as i128 + digits[1] as i128 * q0 + digits[2] as i128 * q0 * q1;
        assert_eq!(x, v);
    }

    #[test]
    fn basis_conversion_is_exact_up_to_alpha_q() {
        let src = basis(3);
        let dst_primes = generate_ntt_primes(2, 31, 1 << 10);
        let dst: Vec<Modulus> = dst_primes.iter().map(|&p| Modulus::new(p)).collect();
        let table = BasisConvTable::new(&src, &dst);
        let q = src.product();
        let q_i128 = q.to_i128().expect("3 thirty-bit primes fit i128");

        for v in [5i128, -5, 1 << 40, -(1 << 40), 0] {
            let res = src.decompose_i128(v);
            let out = table.convert_coeff(&res);
            for (j, pj) in dst.iter().enumerate() {
                // out_j ≡ v + α·Q (mod p_j) for some 0 ≤ α ≤ 3.
                let got = out[j] as i128;
                let mut ok = false;
                for alpha in 0..=3i128 {
                    let want = (v + alpha * q_i128).rem_euclid(pj.value() as i128);
                    if got == want {
                        ok = true;
                        break;
                    }
                }
                assert!(ok, "conversion of {v} to p_{j} out of α range");
            }
        }
    }

    #[test]
    fn q_mod_p_consistent() {
        let src = basis(2);
        let dst = [Modulus::new(generate_ntt_primes(3, 31, 1 << 10)[2])];
        let table = BasisConvTable::new(&src, &dst);
        let q = src.product().to_i128().expect("fits");
        assert_eq!(
            table.q_mod_p()[0] as i128,
            q.rem_euclid(dst[0].value() as i128)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate prime")]
    fn duplicate_primes_rejected() {
        let _ = RnsBasis::new(&[97, 97]);
    }

    #[test]
    fn gemm_conversion_matches_scalar_exactly() {
        let primes = generate_ntt_primes(7, 30, 1 << 10);
        let (src, dst) = primes.split_at(4);
        let gemm = BasisConvGemm::new(src, dst);
        // A limb-major block of 33 coefficients (odd width on purpose).
        let width = 33usize;
        let src_rows: Vec<Vec<u64>> = src
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                (0..width)
                    .map(|c| ((c as u64 * 2_654_435_761).wrapping_add(i as u64 * 97)) % q)
                    .collect()
            })
            .collect();
        let views: Vec<&[u64]> = src_rows.iter().map(Vec::as_slice).collect();
        let block = gemm.convert_block(&views);
        assert_eq!(block.len(), dst.len());
        for c in 0..width {
            let residues: Vec<u64> = src_rows.iter().map(|r| r[c]).collect();
            let scalar = gemm.table().convert_coeff(&residues);
            for (j, row) in block.iter().enumerate() {
                assert_eq!(row[c], scalar[j], "coefficient {c}, target limb {j}");
            }
        }
    }

    #[test]
    fn gemm_conversion_single_source_limb() {
        // α = 1 (the paper's Default preset): the GEMM degenerates to a
        // broadcast scale — must still agree with the scalar path.
        let primes = generate_ntt_primes(3, 28, 1 << 10);
        let gemm = BasisConvGemm::new(&primes[..1], &primes[1..]);
        let src_row: Vec<u64> = (0..16).map(|c| (c * 12_345 + 7) % primes[0]).collect();
        let block = gemm.convert_block(&[&src_row]);
        for (c, &x) in src_row.iter().enumerate() {
            let scalar = gemm.table().convert_coeff(&[x]);
            for j in 0..2 {
                assert_eq!(block[j][c], scalar[j]);
            }
        }
    }

    #[test]
    fn gemm_conversion_empty_block_is_noop() {
        let primes = generate_ntt_primes(4, 28, 1 << 10);
        let gemm = BasisConvGemm::new(&primes[..2], &primes[2..]);
        let empty: [&[u64]; 2] = [&[], &[]];
        let block = gemm.convert_block(&empty);
        assert_eq!(block.len(), 2);
        assert!(block.iter().all(Vec::is_empty));
    }

    /// Every coefficient of the block kernel's output against the scalar
    /// `convert_coeff` walk (128-bit Barrett accumulation).
    fn assert_block_matches_scalar(gemm: &BasisConvGemm, src_rows: &[Vec<u64>], what: &str) {
        let width = src_rows[0].len();
        let views: Vec<&[u64]> = src_rows.iter().map(Vec::as_slice).collect();
        let mut block = vec![vec![0u64; width]; gemm.l_dst()];
        {
            let mut out: Vec<&mut [u64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
            gemm.convert_block_into_mont(&views, &mut out);
        }
        assert_eq!(
            block,
            gemm.convert_block(&views),
            "{what}: the two entry points"
        );
        // The row entry point on a caller-owned y block.
        let stride = BasisConvGemm::y_stride(width);
        let mut y = vec![u64::MAX; gemm.l_src() * stride];
        for (row, y_row) in src_rows.iter().zip(y.chunks_mut(stride)) {
            y_row[..width].copy_from_slice(row);
        }
        gemm.y_stage(&mut y, width);
        for (j, want) in block.iter().enumerate() {
            let mut got = vec![0u64; width];
            gemm.convert_row(j, &y, &mut got);
            assert_eq!(&got, want, "{what}: row entry point, target limb {j}");
        }
        for c in 0..width {
            let residues: Vec<u64> = src_rows.iter().map(|r| r[c]).collect();
            let scalar = gemm.table().convert_coeff(&residues);
            for (j, row) in block.iter().enumerate() {
                assert_eq!(
                    row[c], scalar[j],
                    "{what}: coefficient {c}, target limb {j}"
                );
            }
        }
    }

    #[test]
    fn mont_conversion_is_bit_identical_to_barrett() {
        let primes = generate_ntt_primes(9, 30, 1 << 10);
        let (src, dst) = primes.split_at(5);
        let gemm = BasisConvGemm::new(src, dst);
        let width = 70usize; // spans a register-block edge
        let src_rows: Vec<Vec<u64>> = src
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                (0..width)
                    .map(|c| {
                        ((c as u64)
                            .wrapping_mul(0x9e37_79b9)
                            .wrapping_add(i as u64 * 31))
                            % q
                    })
                    .collect()
            })
            .collect();
        assert_block_matches_scalar(&gemm, &src_rows, "30-bit 5→4");
    }

    #[test]
    fn conversion_folds_are_exact_at_the_accumulation_depth_edge() {
        // 31-bit primes: two source limbs per Montgomery fold, so a
        // 15-limb source basis takes eight folds per output. Saturated
        // residues (q − 1 everywhere) maximise every partial sum.
        let primes = generate_ntt_primes(19, 31, 1 << 8);
        let (src, dst) = primes.split_at(15);
        let gemm = BasisConvGemm::new(src, dst);
        assert_eq!(gemm.fold, 2);
        for width in [1usize, CONV_LANES - 1, CONV_LANES, 2 * CONV_LANES + 3] {
            let saturated: Vec<Vec<u64>> = src.iter().map(|&q| vec![q - 1; width]).collect();
            assert_block_matches_scalar(&gemm, &saturated, "31-bit 15→4 saturated");
            let mixed: Vec<Vec<u64>> = src
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    (0..width as u64)
                        .map(|c| c.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64) % q)
                        .collect()
                })
                .collect();
            assert_block_matches_scalar(&gemm, &mixed, "31-bit 15→4 mixed");
        }
        // 28-bit primes never need a second fold at these depths.
        let primes = generate_ntt_primes(19, 28, 1 << 8);
        assert_eq!(BasisConvGemm::new(&primes[..15], &primes[15..]).fold, 16);
    }

    #[test]
    fn conversion_to_32_bit_targets_takes_the_widened_fold() {
        // Targets in [2^31, 2^32) widen the fold's addition to u128;
        // sources that wide fold one limb at a time.
        let primes = generate_ntt_primes(6, 32, 1 << 8);
        let (src, dst) = primes.split_at(3);
        let gemm = BasisConvGemm::new(src, dst);
        assert_eq!(gemm.fold, 1);
        let saturated: Vec<Vec<u64>> = src.iter().map(|&q| vec![q - 1; 21]).collect();
        assert_block_matches_scalar(&gemm, &saturated, "32-bit 3→3 saturated");
    }

    #[test]
    fn single_limb_bodies_are_selected_from_the_primes_and_reduce_exactly() {
        let bodies =
            |gemm: &BasisConvGemm| -> Vec<RowBody> { gemm.rows.iter().map(|r| r.body).collect() };
        let edges = |q: u64, width: usize| -> Vec<Vec<u64>> {
            let row = (0..width as u64).map(|c| match c % 4 {
                0 => 0,
                1 => 1,
                2 => q - 1,
                _ => c.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q,
            });
            vec![row.collect()]
        };
        // Same-width primes (every α = 1 preset): one conditional subtract.
        for bits in [28u32, 31] {
            let primes = generate_ntt_primes(4, bits, 1 << 8);
            let gemm = BasisConvGemm::new(&primes[..1], &primes[1..]);
            assert_eq!(bodies(&gemm), [RowBody::Csub; 3], "{bits}-bit");
            for width in [1usize, CONV_LANES, 2 * CONV_LANES + 5] {
                let what = format!("{bits}-bit 1→3 width {width}");
                assert_block_matches_scalar(&gemm, &edges(primes[0], width), &what);
            }
        }
        // A source at least twice a target must divide; a [2^31, 2^32)
        // target beside it takes the subtract.
        let q = generate_ntt_primes(1, 31, 1 << 8)[0];
        let small = generate_ntt_primes(1, 28, 1 << 8)[0];
        let wide = generate_ntt_primes(1, 32, 1 << 8)[0];
        assert!(q >= 2 * small && wide >= 1 << 31);
        let gemm = BasisConvGemm::new(&[q], &[small, wide]);
        assert_eq!(bodies(&gemm), [RowBody::Reduce, RowBody::Csub]);
        assert_block_matches_scalar(&gemm, &edges(q, 37), "31-bit → 28-bit, 32-bit");
        // Two source limbs never take a single-limb body.
        let primes = generate_ntt_primes(3, 28, 1 << 8);
        let gemm = BasisConvGemm::new(&primes[..2], &primes[2..]);
        assert_eq!(bodies(&gemm), [RowBody::Fold]);
    }

    #[test]
    #[should_panic(expected = "ragged source block")]
    fn gemm_conversion_rejects_ragged_rows() {
        let primes = generate_ntt_primes(3, 28, 1 << 10);
        let gemm = BasisConvGemm::new(&primes[..2], &primes[2..]);
        let (a, b) = ([1u64, 2, 3], [4u64, 5]);
        let _ = gemm.convert_block(&[&a, &b]);
    }
}
