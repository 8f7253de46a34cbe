//! Canonical-embedding encoder (Eq. 5 of the paper) on the special FFT.
//!
//! CKKS packs `N/2` complex numbers into one polynomial by evaluating at the
//! primitive `2N`-th roots `ζ^{5^j}`: decoding slot `j` is
//! `z_j = m(ζ^{5^j}) / Δ`, and encoding is the conjugate-symmetric inverse
//! `c_k = round(Δ · (2/N) · Re Σ_j z_j ζ^{-5^j k})`.
//!
//! # The half-split identity
//!
//! `ζ^{N/2} = i` and `5^j ≡ 1 (mod 4)`, so `ζ^{5^j (k + N/2)} = i · ζ^{5^j k}`
//! and the upper half of the coefficient sum folds onto the lower half:
//! `m(ζ^{5^j}) = Σ_{k < N/2} w_k ζ^{5^j k}` with `w_k = c_k + i·c_{k+N/2}`.
//! Decoding is therefore one `N/2`-point transform of the packed `w`, and
//! encoding is its inverse: with `w_k = (2/N) Σ_j z_j ζ^{-5^j k}`,
//! `c_k = round(Δ · Re w_k)` and `c_{k+N/2} = round(Δ · Im w_k)`.
//!
//! # The special FFT
//!
//! `z_j = Σ_k w_k ζ^{5^j k}` is not a DFT — the exponents run over the
//! rotation group `5^j`, not over `0..N/2` — but it factors the same
//! radix-2 way (HEAAN's `fftSpecial` / `fftSpecialInv`): after a bit
//! reversal, the stage of half-width `h` combines pairs under the twiddle
//! `ζ^{(5^j mod 8h) · N/(4h)}`, `j < h`. The inverse runs the stages in
//! reverse with conjugate twiddles and bit-reverses last; it is left
//! unnormalised and the `2/N` folds into the scale. Both directions are
//! `O(N log N)`.
//!
//! # Table layout
//!
//! One table of `N/2` roots in butterfly order: the stage of half-width
//! `h` (`h = 1, 2, …, N/4`) reads `roots[h..2h]`, so the stages sit end to
//! end and entry 0 is unused. The inverse reads the same entries
//! conjugated. At `N = 2^13` that is 64 KiB, and one encoder per degree
//! serves the whole process through [`crate::context::TableCache`].

use crate::error::CkksError;
use tensorfhe_math::Complex64;

/// Exclusive bound on a rounded coefficient's magnitude, a bit of `i128`
/// headroom below its saturation point.
const COEFF_LIMIT: f64 = (1u128 << 126) as f64;

/// Encoder/decoder for one ring degree.
#[derive(Debug)]
pub struct Encoder {
    n: usize,
    /// Special-FFT twiddles in butterfly order (see the module docs).
    roots: Vec<Complex64>,
}

impl Encoder {
    /// Builds the tables for degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "invalid degree");
        let slots = n / 2;
        let mut roots = vec![Complex64::one(); slots];
        let mut h = 1;
        while h < slots {
            let (modulus, step) = (8 * h, n / (4 * h));
            let mut p = 1usize;
            for r in &mut roots[h..2 * h] {
                *r = Complex64::cis(std::f64::consts::PI * (p * step) as f64 / n as f64);
                p = p * 5 % modulus;
            }
            h *= 2;
        }
        Self { n, roots }
    }

    /// Number of usable slots (`N/2`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Encodes up to `N/2` complex values into integer coefficients at scale
    /// `scale`; missing slots are zero.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] if too many values are supplied,
    /// and [`CkksError::Unencodable`] if a value is not finite or a rounded
    /// coefficient reaches `2^126` in magnitude.
    pub fn encode(&self, values: &[Complex64], scale: f64) -> Result<Vec<i128>, CkksError> {
        let slots = self.slots();
        if values.len() > slots {
            return Err(CkksError::TooManySlots {
                given: values.len(),
                slots,
            });
        }
        if let Some(j) = values
            .iter()
            .position(|z| !(z.re.is_finite() && z.im.is_finite()))
        {
            return Err(CkksError::Unencodable(format!(
                "slot {j} holds a non-finite value {}",
                values[j]
            )));
        }
        let mut w = values.to_vec();
        w.resize(slots, Complex64::zero());
        self.inverse(&mut w);
        let norm = scale * 2.0 / self.n as f64;
        let mut coeffs = vec![0i128; self.n];
        let (lo, hi) = coeffs.split_at_mut(slots);
        for (k, (wk, (c_lo, c_hi))) in w.iter().zip(lo.iter_mut().zip(hi)).enumerate() {
            *c_lo = round_coeff(k, wk.re * norm)?;
            *c_hi = round_coeff(k + slots, wk.im * norm)?;
        }
        Ok(coeffs)
    }

    /// Decodes real-valued coefficients (already divided by the scale) into
    /// the slot values.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `N` coefficients are given.
    #[must_use]
    pub fn decode(&self, coeffs: &[f64]) -> Vec<Complex64> {
        assert_eq!(coeffs.len(), self.n, "need N coefficients");
        let (lo, hi) = coeffs.split_at(self.slots());
        let mut z: Vec<Complex64> = lo
            .iter()
            .zip(hi)
            .map(|(&re, &im)| Complex64::new(re, im))
            .collect();
        self.forward(&mut z);
        z
    }

    /// `z_j = Σ_k w_k ζ^{5^j k}` in place (HEAAN's `fftSpecial`).
    fn forward(&self, z: &mut [Complex64]) {
        bit_reverse(z);
        let mut h = 1;
        while h < z.len() {
            let roots = &self.roots[h..2 * h];
            for block in z.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((u, v), &r) in lo.iter_mut().zip(hi).zip(roots) {
                    let t = *v * r;
                    (*u, *v) = (*u + t, *u - t);
                }
            }
            h *= 2;
        }
    }

    /// `w_k = Σ_j z_j ζ^{-5^j k}` in place, unnormalised (HEAAN's
    /// `fftSpecialInvLazy`).
    fn inverse(&self, w: &mut [Complex64]) {
        let mut h = w.len() / 2;
        while h >= 1 {
            let roots = &self.roots[h..2 * h];
            for block in w.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((u, v), &r) in lo.iter_mut().zip(hi).zip(roots) {
                    (*u, *v) = (*u + *v, (*u - *v) * r.conj());
                }
            }
            h /= 2;
        }
        bit_reverse(w);
    }
}

/// Rounds coefficient `k`, refusing what `i128` cannot hold with room to
/// spare.
fn round_coeff(k: usize, x: f64) -> Result<i128, CkksError> {
    let r = x.round();
    if r.abs() < COEFF_LIMIT {
        Ok(r as i128)
    } else {
        Err(CkksError::Unencodable(format!(
            "coefficient {k} rounds to {r:e}, beyond ±2^126"
        )))
    }
}

/// Permutes a power-of-two-length slice into bit-reversed index order.
fn bit_reverse(z: &mut [Complex64]) {
    let shift = usize::BITS - z.len().trailing_zeros();
    for i in 0..z.len() {
        let j = i.reverse_bits() >> shift;
        if i < j {
            z.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Eq. 5 term by term in `O(N·slots)`: the definition the special FFT
    /// is checked against.
    mod reference {
        use tensorfhe_math::Complex64;

        /// `cis[i] = e^{iπ·i/N}` for `i < 2N`, and `5^j mod 2N` for `j < N/2`.
        fn tables(n: usize) -> (Vec<Complex64>, Vec<usize>) {
            let cis = (0..2 * n)
                .map(|i| Complex64::cis(std::f64::consts::PI * i as f64 / n as f64))
                .collect();
            let mut rot_pows = Vec::with_capacity(n / 2);
            let mut p = 1usize;
            for _ in 0..n / 2 {
                rot_pows.push(p);
                p = p * 5 % (2 * n);
            }
            (cis, rot_pows)
        }

        pub fn encode(n: usize, values: &[Complex64], scale: f64) -> Vec<i128> {
            let (cis, rot_pows) = tables(n);
            let two_n = 2 * n;
            let norm = scale * 2.0 / n as f64;
            let mut acc = vec![Complex64::zero(); n];
            for (j, &z) in values.iter().enumerate() {
                if z == Complex64::zero() {
                    continue;
                }
                let step = rot_pows[j];
                // idx(k) = (-5^j · k) mod 2N, stepped incrementally.
                let mut idx = 0usize;
                for a in acc.iter_mut() {
                    *a += z * cis[idx];
                    idx = (idx + two_n - step) % two_n;
                }
            }
            acc.into_iter()
                .map(|a| (a.re * norm).round() as i128)
                .collect()
        }

        pub fn decode(n: usize, coeffs: &[f64]) -> Vec<Complex64> {
            let (cis, rot_pows) = tables(n);
            let two_n = 2 * n;
            rot_pows
                .iter()
                .map(|&step| {
                    let mut idx = 0usize;
                    let mut z = Complex64::zero();
                    for &c in coeffs {
                        z += cis[idx].scale(c);
                        idx = (idx + step) % two_n;
                    }
                    z
                })
                .collect()
        }
    }

    /// Degrees of the differential tests: `2^2 … 2^10`, plus HEAX set B's
    /// `2^13` in optimised builds, where the reference's `N·slots` loops
    /// (33 M terms a call there) are cheap.
    fn degrees() -> Vec<usize> {
        let mut d: Vec<usize> = (2..=10).map(|b| 1 << b).collect();
        if !cfg!(debug_assertions) {
            d.push(1 << 13);
        }
        d
    }

    /// Seeded slot fills of degree `n`: full, half, one slot and a ragged
    /// count, uniform in the unit square.
    fn fills(rng: &mut StdRng, n: usize) -> Vec<Vec<Complex64>> {
        let slots = n / 2;
        [slots, slots / 2, 1, (3 * slots).div_ceil(4) - 1]
            .into_iter()
            .map(|len| {
                (0..len)
                    .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect()
    }

    /// Every `Δ` the parameter presets use.
    fn preset_scales() -> Vec<u32> {
        let mut bits: Vec<u32> = [
            CkksParams::table_v_default(),
            CkksParams::table_v_resnet20(),
            CkksParams::table_v_lr(),
            CkksParams::table_v_lstm(),
            CkksParams::table_v_packed_boot(),
            CkksParams::table_vii_bootstrap(),
            CkksParams::heax_set_a(),
            CkksParams::heax_set_b(),
            CkksParams::heax_set_c(),
            CkksParams::toy(),
            CkksParams::test_small(),
        ]
        .iter()
        .map(CkksParams::scale_bits)
        .collect();
        bits.sort_unstable();
        bits.dedup();
        bits
    }

    #[test]
    fn encode_is_bit_equal_to_the_definition_at_every_preset_scale() {
        let scales = preset_scales();
        assert_eq!(scales, [26, 28, 29]);
        let mut rng = StdRng::seed_from_u64(29);
        for n in degrees() {
            let e = Encoder::new(n);
            for values in fills(&mut rng, n) {
                for &bits in &scales {
                    let scale = f64::from(bits).exp2();
                    let fast = e.encode(&values, scale).expect("fits");
                    let slow = reference::encode(n, &values, scale);
                    assert_eq!(fast, slow, "N = {n}, {} slots, Δ = 2^{bits}", values.len());
                }
            }
        }
    }

    #[test]
    fn encode_is_within_one_of_the_definition_at_scale_2_40() {
        let scale = 40f64.exp2();
        let mut rng = StdRng::seed_from_u64(40);
        for n in degrees() {
            let e = Encoder::new(n);
            for values in fills(&mut rng, n) {
                let fast = e.encode(&values, scale).expect("fits");
                let slow = reference::encode(n, &values, scale);
                for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert!((f - s).abs() <= 1, "N = {n}, coeff {k}: {f} vs {s}");
                }
            }
        }
    }

    #[test]
    fn decode_agrees_with_the_definition() {
        let scale = 26f64.exp2();
        let mut rng = StdRng::seed_from_u64(26);
        for n in degrees() {
            let e = Encoder::new(n);
            for values in fills(&mut rng, n) {
                let coeffs: Vec<f64> = e
                    .encode(&values, scale)
                    .expect("fits")
                    .iter()
                    .map(|&c| c as f64 / scale)
                    .collect();
                let fast = e.decode(&coeffs);
                let slow = reference::decode(n, &coeffs);
                let tol = 1e-9 * slow.iter().fold(0.0f64, |m, z| m.max(z.norm()));
                for (j, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert!((*f - *s).norm() <= tol, "N = {n}, slot {j}: {f} vs {s}");
                }
            }
        }
    }

    #[test]
    fn twiddle_table_is_half_a_ring() {
        // One root per slot, against the 2N roots plus N/2 powers of five
        // of the term-by-term tables.
        assert_eq!(Encoder::new(1 << 13).roots.len(), 1 << 12);
    }

    fn roundtrip(n: usize, values: &[Complex64], scale: f64, tol: f64) {
        let e = Encoder::new(n);
        let coeffs = e.encode(values, scale).expect("fits");
        let floats: Vec<f64> = coeffs.iter().map(|&c| c as f64 / scale).collect();
        let back = e.decode(&floats);
        for (i, v) in values.iter().enumerate() {
            assert!((*v - back[i]).norm() < tol, "slot {i}: {v} vs {}", back[i]);
        }
        // Unfilled slots decode to ~0.
        for (i, b) in back.iter().enumerate().skip(values.len()) {
            assert!(b.norm() < tol, "empty slot {i} = {b}");
        }
    }

    #[test]
    fn roundtrip_simple_reals() {
        let vals: Vec<Complex64> = [1.0, -2.5, 3.25, 0.125]
            .iter()
            .map(|&r| Complex64::new(r, 0.0))
            .collect();
        roundtrip(32, &vals, (1u64 << 30) as f64, 1e-6);
    }

    #[test]
    fn roundtrip_complex_full_packing() {
        let n = 256;
        let vals: Vec<Complex64> = (0..n / 2)
            .map(|i| Complex64::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        roundtrip(n, &vals, (1u64 << 30) as f64, 1e-5);
    }

    #[test]
    fn encoding_is_additive() {
        let e = Encoder::new(64);
        let scale = (1u64 << 26) as f64;
        let a = vec![Complex64::new(1.25, -0.5); 8];
        let b = vec![Complex64::new(-0.75, 2.0); 8];
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let ca = e.encode(&a, scale).expect("fits");
        let cb = e.encode(&b, scale).expect("fits");
        let cs = e.encode(&sum, scale).expect("fits");
        for i in 0..64 {
            // Rounding makes this ±1 ULP exact.
            assert!((ca[i] + cb[i] - cs[i]).abs() <= 2, "coeff {i}");
        }
    }

    #[test]
    fn too_many_values_rejected() {
        let e = Encoder::new(16);
        let vals = vec![Complex64::one(); 9];
        assert!(e.encode(&vals, 1024.0).is_err());
    }

    #[test]
    fn constant_encodes_to_constant_coefficient() {
        // Encoding the same real c in every slot gives m(X) ≈ Δ·c (constant
        // polynomial), because Σ_j ζ^{-5^j k} vanishes for k ≠ 0.
        let e = Encoder::new(32);
        let scale = (1u64 << 24) as f64;
        let vals = vec![Complex64::new(0.5, 0.0); 16];
        let coeffs = e.encode(&vals, scale).expect("fits");
        assert!((coeffs[0] as f64 - 0.5 * scale).abs() < 2.0);
        for (k, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() <= 1, "coeff {k} should be ~0, got {c}");
        }
    }
}
