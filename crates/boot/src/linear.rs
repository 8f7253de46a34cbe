//! Homomorphic linear transforms with baby-step/giant-step rotations.
//!
//! A plaintext matrix `M` acts on the slot vector as
//! `Mv = Σ_d diag_d(M) ⊙ rot(v, d)` where `diag_d(M)[t] = M[t][(t+d) mod n]`.
//! BSGS splits `d = i·n1 + j` so only `≈ 2√D` rotations are needed instead
//! of `D` — this is the structure the paper's Fig. 6 labels "BSGS", composed
//! of `HROTATE`, `CMULT` and `HADD` operations.
//!
//! Every rotation is one `Evaluator::hrotate`, one key switch: the baby
//! steps rotate the input once per `j` (`Evaluator::hrotate_many`, which
//! finds every key before rotating), and each giant group's inner sum is
//! rotated by its own `i·n1` as soon as it is complete.

use std::collections::BTreeMap;
use tensorfhe_ckks::{Ciphertext, CkksError, Evaluator, KeyChain};
use tensorfhe_math::Complex64;

/// A slot-space linear transform in diagonal representation.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    /// Non-zero generalized diagonals, keyed by offset.
    diags: BTreeMap<usize, Vec<Complex64>>,
}

impl LinearTransform {
    /// Builds the transform from a dense `slots × slots` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square over `slots`.
    #[must_use]
    pub fn from_matrix(matrix: &[Vec<Complex64>]) -> Self {
        let slots = matrix.len();
        assert!(
            matrix.iter().all(|r| r.len() == slots),
            "matrix must be square"
        );
        let mut diags = BTreeMap::new();
        for d in 0..slots {
            let diag: Vec<Complex64> = (0..slots).map(|t| matrix[t][(t + d) % slots]).collect();
            if diag.iter().any(|z| z.norm() > 1e-12) {
                diags.insert(d, diag);
            }
        }
        Self { slots, diags }
    }

    /// Builds directly from diagonals.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal has the wrong length.
    #[must_use]
    pub fn from_diagonals(slots: usize, diags: BTreeMap<usize, Vec<Complex64>>) -> Self {
        assert!(diags.values().all(|d| d.len() == slots), "diagonal length");
        Self { slots, diags }
    }

    /// Slot dimension.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of non-zero diagonals.
    #[must_use]
    pub fn diagonal_count(&self) -> usize {
        self.diags.len()
    }

    /// The baby-step width `n1 = ⌈√D⌉` used by [`LinearTransform::apply`].
    #[must_use]
    pub fn baby_width(&self) -> usize {
        ((self.diags.len().max(1)) as f64).sqrt().ceil() as usize
    }

    /// Rotation steps the evaluator will need (generate keys for these).
    #[must_use]
    pub fn required_rotations(&self) -> Vec<i64> {
        let n1 = self.baby_width();
        let mut steps = std::collections::BTreeSet::new();
        for &d in self.diags.keys() {
            let j = d % n1;
            let i = d - j;
            if j != 0 {
                steps.insert(j as i64);
            }
            if i != 0 {
                steps.insert(i as i64);
            }
        }
        steps.into_iter().collect()
    }

    /// Applies the transform homomorphically. Consumes one level (the
    /// output is rescaled once).
    ///
    /// # Errors
    ///
    /// Propagates rotation-key and level errors from the evaluator.
    pub fn apply(
        &self,
        eval: &mut Evaluator<'_>,
        keys: &KeyChain<'_>,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, CkksError> {
        let ctx = eval.context();
        assert_eq!(
            self.slots,
            ctx.params().slots(),
            "transform dimension must match slot count"
        );
        let n1 = self.baby_width();
        let level = ct.level();
        let scale = ctx.params().scale();

        // Group diagonals by giant step i (multiples of n1).
        let mut by_giant: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &d in self.diags.keys() {
            by_giant.entry(d - d % n1).or_default().push(d);
        }

        // Baby rotations of the input, computed once and reused by every
        // giant group.
        let baby_steps: Vec<i64> = (1..n1)
            .filter(|&j| self.diags.keys().any(|&d| d % n1 == j))
            .map(|j| j as i64)
            .collect();
        let mut rotated: BTreeMap<usize, Ciphertext> = BTreeMap::new();
        rotated.insert(0, ct.clone());
        for (&j, rot) in baby_steps
            .iter()
            .zip(eval.hrotate_many(ct, &baby_steps, keys)?)
        {
            rotated.insert(j as usize, rot);
        }

        // Per giant group, in giant order: the CMULTs against the
        // pre-rotated diagonals summed in diagonal order, the giant
        // rotation of that sum (giant 0 passes through unrotated), and its
        // HADD onto the running total.
        let mut acc: Option<Ciphertext> = None;
        for (&giant, ds) in &by_giant {
            let mut inner: Option<Ciphertext> = None;
            for &d in ds {
                let j = d % n1;
                // Giant-step correction: pre-rotate the diagonal by -giant.
                let diag = &self.diags[&d];
                let shifted: Vec<Complex64> = (0..self.slots)
                    .map(|t| diag[(t + self.slots - giant % self.slots) % self.slots])
                    .collect();
                let pt = ctx.encode_at(&shifted, scale, level)?;
                let term = eval.cmult(&rotated[&j], &pt)?;
                inner = Some(match inner {
                    None => term,
                    Some(acc) => eval.hadd(&acc, &term)?,
                });
            }
            // An empty group contributes nothing.
            let Some(inner) = inner else { continue };
            let contribution = if giant == 0 {
                inner
            } else {
                eval.hrotate(&inner, giant as i64, keys)?
            };
            acc = Some(match acc {
                None => contribution,
                Some(a) => eval.hadd(&a, &contribution)?,
            });
        }

        let out = acc.ok_or_else(|| CkksError::Mismatch("empty transform".into()))?;
        eval.rescale(&out)
    }

    /// Reference (plaintext) application for validation.
    #[must_use]
    pub fn apply_clear(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.slots);
        let mut out = vec![Complex64::zero(); self.slots];
        for (&d, diag) in &self.diags {
            for t in 0..self.slots {
                out[t] += diag[t] * v[(t + d) % self.slots];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensorfhe_ckks::trace::RecordingTracer;
    use tensorfhe_ckks::{CkksContext, CkksParams, KernelEvent};

    fn random_matrix(rng: &mut StdRng, n: usize) -> Vec<Vec<Complex64>> {
        (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| Complex64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn diagonal_extraction_matches_dense_product() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 8;
        let m = random_matrix(&mut rng, n);
        let lt = LinearTransform::from_matrix(&m);
        let v: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64 * 0.3 - 1.0, 0.5 - i as f64 * 0.1))
            .collect();
        let got = lt.apply_clear(&v);
        for t in 0..n {
            let mut want = Complex64::zero();
            for u in 0..n {
                want += m[t][u] * v[u];
            }
            assert!((got[t] - want).norm() < 1e-9, "row {t}");
        }
    }

    #[test]
    fn required_rotations_cover_bsgs() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 16;
        let lt = LinearTransform::from_matrix(&random_matrix(&mut rng, n));
        let n1 = lt.baby_width();
        for r in lt.required_rotations() {
            let r = r as usize;
            assert!(
                r < n1 || r.is_multiple_of(n1),
                "rotation {r} is neither baby nor giant"
            );
        }
    }

    #[test]
    fn homomorphic_apply_matches_clear() {
        let params = CkksParams::test_small();
        let ctx = CkksContext::new(&params).expect("ctx");
        let mut rng = StdRng::seed_from_u64(7);
        let mut keys = KeyChain::generate(&ctx, &mut rng);
        let slots = params.slots();

        // Sparse matrix with a handful of diagonals keeps this test quick.
        let mut diags = BTreeMap::new();
        for d in [0usize, 1, 5, 17] {
            let diag: Vec<Complex64> = (0..slots)
                .map(|t| Complex64::new(((t + d) as f64 * 0.01).sin() * 0.3, 0.0))
                .collect();
            diags.insert(d, diag);
        }
        let lt = LinearTransform::from_diagonals(slots, diags);
        keys.gen_rotation_keys(&lt.required_rotations(), &mut rng);

        let v: Vec<Complex64> = (0..slots)
            .map(|i| Complex64::new((i as f64 * 0.05).cos() * 0.4, 0.0))
            .collect();
        let pt = ctx.encode(&v, params.scale()).expect("encode");
        let ct = keys.encrypt(&pt, &mut rng);

        let mut eval = Evaluator::new(&ctx);
        let out = lt.apply(&mut eval, &keys, &ct).expect("apply");
        let dec = ctx.decode(&keys.decrypt(&out)).expect("decode");
        let want = lt.apply_clear(&v);
        for t in 0..slots {
            assert!(
                (dec[t] - want[t]).norm() < 5e-2,
                "slot {t}: {} vs {}",
                dec[t],
                want[t]
            );
        }
    }

    /// FNV-1a (64-bit) over little-endian words.
    fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// One kernel event as four words: a kernel tag and its shape fields.
    fn event_words(e: &KernelEvent) -> [u64; 4] {
        let w = |x: usize| x as u64;
        match *e {
            KernelEvent::Ntt { n, limbs, inverse } => [0, w(n), w(limbs), u64::from(inverse)],
            KernelEvent::HadaMult { n, limbs } => [1, w(n), w(limbs), 0],
            KernelEvent::EleAdd { n, limbs } => [2, w(n), w(limbs), 0],
            KernelEvent::EleSub { n, limbs } => [3, w(n), w(limbs), 0],
            KernelEvent::FrobeniusMap { n, limbs } => [4, w(n), w(limbs), 0],
            KernelEvent::Conjugate { n, limbs } => [5, w(n), w(limbs), 0],
            KernelEvent::Conv { n, l_src, l_dst } => [6, w(n), w(l_src), w(l_dst)],
        }
    }

    /// `apply` over several giant groups with ragged baby membership
    /// (diagonals spread across giants 0, `n1` and `2·n1` with gaps) at
    /// `test_small`, seed 11, pinned by two golden digests: FNV-64 of the
    /// output ciphertext (scale bits, then every residue word of `c0` and
    /// `c1`) and FNV-64 of its kernel events as a sorted multiset. Both
    /// were recorded by running this test at commit 0801db6, where the baby
    /// rotations ran as one multi-input key switch and the giant rotations
    /// as another; rotating one ciphertext per key switch, with the giant
    /// rotations interleaved with the inner sums, must reproduce them.
    #[test]
    fn apply_matches_its_golden_digests() {
        const CIPHERTEXT_GOLDEN: u64 = 0x79f4_f0bb_6d6e_9b14;
        const EVENTS_GOLDEN: u64 = 0xe682_152a_3e6b_86c7;

        let params = CkksParams::test_small();
        let ctx = CkksContext::new(&params).expect("ctx");
        let mut rng = StdRng::seed_from_u64(11);
        let mut keys = KeyChain::generate(&ctx, &mut rng);
        let slots = params.slots();
        let mut diags = BTreeMap::new();
        for d in [0usize, 1, 3, 6, 7, 13] {
            let diag: Vec<Complex64> = (0..slots)
                .map(|t| Complex64::new(((t * d + 1) as f64 * 0.02).sin() * 0.3, 0.0))
                .collect();
            diags.insert(d, diag);
        }
        let lt = LinearTransform::from_diagonals(slots, diags);
        assert!(
            lt.required_rotations().len() >= 4,
            "test needs several baby AND giant rotations"
        );
        keys.gen_rotation_keys(&lt.required_rotations(), &mut rng);
        let v: Vec<Complex64> = (0..slots)
            .map(|i| Complex64::new((i as f64 * 0.09).cos() * 0.4, (i as f64 * 0.05).sin() * 0.2))
            .collect();
        let pt = ctx.encode(&v, params.scale()).expect("encode");
        let ct = keys.encrypt(&pt, &mut rng);

        let mut rec = RecordingTracer::new();
        let out = {
            let mut eval = Evaluator::with_tracer(&ctx, Box::new(&mut rec));
            lt.apply(&mut eval, &keys, &ct).expect("apply")
        };
        let residues = [&out.c0, &out.c1]
            .into_iter()
            .flat_map(|poly| poly.limbs().iter().flatten().copied());
        let got = fnv64(std::iter::once(out.scale.to_bits()).chain(residues));
        let mut events: Vec<[u64; 4]> = rec.events.iter().map(event_words).collect();
        events.sort_unstable();
        let got_events = fnv64(events.into_iter().flatten());
        assert_eq!(
            (got, got_events),
            (CIPHERTEXT_GOLDEN, EVENTS_GOLDEN),
            "ciphertext {got:#018x}, events {got_events:#018x}"
        );
    }
}
