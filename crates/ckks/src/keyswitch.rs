//! Hybrid (generalized) key switching — Algorithm 1 of the paper.
//!
//! `KeySwitch([d], evk)` re-encrypts a polynomial `d` (decryptable with some
//! key `s'`) under the canonical secret `s`:
//!
//! 1. **Dcomp** — split the `l+1` active limbs into `⌈(l+1)/α⌉` digits of α
//!    limbs (Han–Ki generalized decomposition; `dnum = (L+1)/α`).
//! 2. **ModUp** — extend each digit from its α primes to the full basis
//!    `{q_0..q_l} ∪ {p_0..p_{K-1}}` with the fast basis conversion (`Conv`
//!    kernel), INTT/NTT sandwiched around it.
//! 3. **Inner product** — accumulate `Σ_j ModUp(d_j) ⊙ evk_j` (Hada-Mult and
//!    Ele-Add kernels) over the extended basis.
//! 4. **ModDown** — divide by `P`: convert the special-prime part back,
//!    subtract, and multiply by `P^{-1} mod q_i`.
//!
//! The evaluation key for digit `j` encrypts `P·Q̂_j·[Q̂_j^{-1}]_{Q_j}·s'`,
//! whose RNS residues are simply `P mod q_i` inside digit `j` and `0`
//! elsewhere — no big-integer arithmetic is ever needed.

use crate::context::CkksContext;
use crate::poly::{Domain, RnsPoly};
use crate::trace::{KernelEvent, Tracing};
use tensorfhe_math::scratch;
use tensorfhe_ntt::{NttBatchOps, NttOps};

/// A polynomial over the extended basis `{q_0..q_l} ∪ {p_0..p_{K-1}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtPoly {
    /// Residue limbs modulo the ciphertext primes.
    pub q_limbs: Vec<Vec<u64>>,
    /// Residue limbs modulo the special primes.
    pub p_limbs: Vec<Vec<u64>>,
    /// Representation domain (shared by every limb).
    pub domain: Domain,
}

impl ExtPoly {
    /// The all-zero extended polynomial for level `l`.
    #[must_use]
    pub fn zero(ctx: &CkksContext, level: usize, domain: Domain) -> Self {
        let n = ctx.params().n();
        // One zeroed allocation per limb (cloning a zero limb would read
        // and copy it instead).
        let zeros = |limbs: usize| (0..limbs).map(|_| vec![0; n]).collect();
        Self {
            q_limbs: zeros(level + 1),
            p_limbs: zeros(ctx.params().special_primes()),
            domain,
        }
    }

    /// Level of the `q` part.
    #[must_use]
    pub fn level(&self) -> usize {
        self.q_limbs.len() - 1
    }

    /// Total limb count (`q` + `p`).
    #[must_use]
    pub fn total_limbs(&self) -> usize {
        self.q_limbs.len() + self.p_limbs.len()
    }

    /// In-place forward NTT on every limb.
    pub fn ntt_forward(&mut self, ctx: &CkksContext) {
        assert_eq!(self.domain, Domain::Coeff);
        for (i, limb) in self.q_limbs.iter_mut().enumerate() {
            ctx.ntt_q(i).forward(limb);
        }
        for (k, limb) in self.p_limbs.iter_mut().enumerate() {
            ctx.ntt_p(k).forward(limb);
        }
        self.domain = Domain::Ntt;
    }

    /// In-place inverse NTT on every limb.
    pub fn ntt_inverse(&mut self, ctx: &CkksContext) {
        assert_eq!(self.domain, Domain::Ntt);
        for (i, limb) in self.q_limbs.iter_mut().enumerate() {
            ctx.ntt_q(i).inverse(limb);
        }
        for (k, limb) in self.p_limbs.iter_mut().enumerate() {
            ctx.ntt_p(k).inverse(limb);
        }
        self.domain = Domain::Coeff;
    }

    /// Forward NTT of a block of extended polynomials sharing one basis
    /// layout, batched per modulus (`B` = block size rows per wide GEMM).
    ///
    /// This is the key-switch hot loop of §IV-D: all `dnum` ModUp digits
    /// share the extended basis, so their transforms pack into one wide
    /// GEMM per prime instead of `dnum` narrow ones.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials disagree on basis shape or any is already
    /// in NTT domain.
    pub fn ntt_forward_batch(ctx: &CkksContext, exts: &mut [ExtPoly]) {
        let Some(first) = exts.first() else { return };
        let (nq, np) = (first.q_limbs.len(), first.p_limbs.len());
        for e in exts.iter() {
            assert_eq!(e.q_limbs.len(), nq, "basis mismatch in batch");
            assert_eq!(e.p_limbs.len(), np, "basis mismatch in batch");
            assert_eq!(e.domain, Domain::Coeff);
        }
        for i in 0..nq {
            let mut rows: Vec<&mut [u64]> = exts
                .iter_mut()
                .map(|e| e.q_limbs[i].as_mut_slice())
                .collect();
            ctx.ntt_q(i).forward_batch(&mut rows);
        }
        for k in 0..np {
            let mut rows: Vec<&mut [u64]> = exts
                .iter_mut()
                .map(|e| e.p_limbs[k].as_mut_slice())
                .collect();
            ctx.ntt_p(k).forward_batch(&mut rows);
        }
        for e in exts.iter_mut() {
            e.domain = Domain::Ntt;
        }
    }

    /// Inverse NTT of a block of extended polynomials, batched per modulus
    /// (counterpart of [`ExtPoly::ntt_forward_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the polynomials disagree on basis shape or any is already
    /// in coefficient domain.
    pub fn ntt_inverse_batch(ctx: &CkksContext, exts: &mut [ExtPoly]) {
        let Some(first) = exts.first() else { return };
        let (nq, np) = (first.q_limbs.len(), first.p_limbs.len());
        for e in exts.iter() {
            assert_eq!(e.q_limbs.len(), nq, "basis mismatch in batch");
            assert_eq!(e.p_limbs.len(), np, "basis mismatch in batch");
            assert_eq!(e.domain, Domain::Ntt);
        }
        for i in 0..nq {
            let mut rows: Vec<&mut [u64]> = exts
                .iter_mut()
                .map(|e| e.q_limbs[i].as_mut_slice())
                .collect();
            ctx.ntt_q(i).inverse_batch(&mut rows);
        }
        for k in 0..np {
            let mut rows: Vec<&mut [u64]> = exts
                .iter_mut()
                .map(|e| e.p_limbs[k].as_mut_slice())
                .collect();
            ctx.ntt_p(k).inverse_batch(&mut rows);
        }
        for e in exts.iter_mut() {
            e.domain = Domain::Coeff;
        }
    }

    /// `ext ⊙ key` as a new polynomial, limb-wise over the shared basis
    /// prefix — what [`ExtPoly::mul_acc`] leaves in an all-zero accumulator,
    /// without the zero fill and the pass that reads it back.
    #[must_use]
    pub fn product(ctx: &CkksContext, ext: &ExtPoly, key: &ExtPoly) -> Self {
        assert_eq!(ext.domain, Domain::Ntt);
        assert_eq!(key.domain, Domain::Ntt);
        let q_limbs = ext.q_limbs.iter().zip(&key.q_limbs).enumerate();
        let p_limbs = ext.p_limbs.iter().zip(&key.p_limbs).enumerate();
        Self {
            q_limbs: q_limbs
                .map(|(i, (x, y))| ctx.q_mod(i).mul_to_vec(x, y))
                .collect(),
            p_limbs: p_limbs
                .map(|(k, (x, y))| ctx.p_mod(k).mul_to_vec(x, y))
                .collect(),
            domain: Domain::Ntt,
        }
    }

    /// `self += ext ⊙ key`, limb-wise over the shared basis prefix.
    ///
    /// `key` spans the full basis (`L+1` q-limbs); `self`/`ext` span only the
    /// active `l+1` limbs, so the key is indexed by absolute prime index.
    pub fn mul_acc(&mut self, ctx: &CkksContext, ext: &ExtPoly, key: &ExtPoly) {
        assert_eq!(self.domain, Domain::Ntt);
        assert_eq!(ext.domain, Domain::Ntt);
        assert_eq!(key.domain, Domain::Ntt);
        for (i, (acc, x)) in self.q_limbs.iter_mut().zip(&ext.q_limbs).enumerate() {
            ctx.q_mod(i).mul_acc_slice(acc, x, &key.q_limbs[i]);
        }
        for (k, (acc, x)) in self.p_limbs.iter_mut().zip(&ext.p_limbs).enumerate() {
            ctx.p_mod(k).mul_acc_slice(acc, x, &key.p_limbs[k]);
        }
    }
}

/// Most extended polynomials a single [`key_switch_batch`] call keeps
/// resident in its ModUp block; wider rotation batches are chunked. At the
/// paper's largest parameters one extended polynomial is ≈25 MB of limbs,
/// so this bounds the block near ~400 MB — a few× one key switch's own
/// transient, far below an unchunked √D-rotation batch.
pub const MAX_MODUP_BLOCK: usize = 16;

/// Inputs per [`key_switch_batch`] chunk at `level`: as many as keep the
/// ModUp block within [`MAX_MODUP_BLOCK`] extended polynomials. Callers
/// that stage per-input operands around the switch (e.g. batched
/// rotations) chunk at the same width so their own transients obey the
/// same residency bound.
pub(crate) fn batch_chunk_inputs(ctx: &CkksContext, level: usize) -> usize {
    let digits = (level + 1).div_ceil(ctx.params().alpha());
    (MAX_MODUP_BLOCK / digits).max(1)
}

/// One digit of a key-switching key: an RLWE pair over the extended basis.
#[derive(Debug, Clone)]
pub struct KsDigit {
    /// `b_j = -a_j·s + e_j + W_j·s'` (NTT domain, full basis).
    pub b: ExtPoly,
    /// Uniform `a_j` (NTT domain, full basis).
    pub a: ExtPoly,
}

/// A key-switching key: one RLWE pair per decomposition digit.
#[derive(Debug, Clone)]
pub struct KsKey {
    /// Digits in order `j = 0..dnum`.
    pub digits: Vec<KsDigit>,
}

/// `Dcomp` + `ModUp`: extends digit `j` of `d` (coefficient domain, level
/// `l`) to the full basis. Returns the extended polynomial in coefficient
/// domain.
#[must_use]
pub fn mod_up(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    d_coeff: &RnsPoly,
    digit: usize,
) -> ExtPoly {
    assert_eq!(d_coeff.domain(), Domain::Coeff);
    let l = d_coeff.level();
    let n = d_coeff.n();
    let table = ctx.modup_table(digit, l);
    let (s0, s1) = (table.src_start, table.src_end);
    let k = ctx.params().special_primes();

    // Own limbs are copied verbatim (the conversion is exact there); the
    // complement limbs are allocated for the conversion to fill.
    let own = |i: usize| (s0..s1).contains(&i);
    let mut ext = ExtPoly {
        q_limbs: (0..=l)
            .map(|i| {
                if own(i) {
                    d_coeff.limb(i).to_vec()
                } else {
                    vec![0; n]
                }
            })
            .collect(),
        p_limbs: (0..k).map(|_| vec![0; n]).collect(),
        domain: Domain::Coeff,
    };
    // Complement limbs via the GEMM-lowered fast basis conversion: the
    // digit's limb-major block converts as one `(L_dst × α) × (α × N)`
    // matrix product (batched y-stage + wide GEMM) instead of walking the
    // N coefficients one at a time.
    let src_rows: Vec<&[u64]> = (s0..s1).map(|i| d_coeff.limb(i)).collect();
    {
        let (q_limbs, p_limbs) = (&mut ext.q_limbs, &mut ext.p_limbs);
        let mut out_rows: Vec<&mut [u64]> = q_limbs
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| !own(i))
            .map(|(_, limb)| limb.as_mut_slice())
            .chain(p_limbs.iter_mut().map(Vec::as_mut_slice))
            .collect();
        table.conv.convert_block_into(&src_rows, &mut out_rows);
    }
    tracing.emit(KernelEvent::Conv {
        n,
        l_src: s1 - s0,
        l_dst: (l + 1 - (s1 - s0)) + k,
    });
    ext
}

/// `ModDown`: divides an extended accumulator by `P`, returning a normal
/// RNS polynomial at the same level (NTT domain).
#[must_use]
pub fn mod_down(ctx: &CkksContext, tracing: &mut Tracing<'_>, acc: &ExtPoly) -> RnsPoly {
    mod_down_batch(ctx, tracing, &[acc])
        .pop()
        .expect("one input")
}

/// Batched `ModDown` of several same-level accumulators: the INTT and NTT
/// sandwiches run through the batched per-modulus path (`B` = block size);
/// each accumulator's special-prime part then converts straight out of its
/// own limbs — one `((l+1) × K) × (K × N)` GEMM into a pooled buffer every
/// accumulator reuses — followed by its scaled subtraction.
///
/// Emits the same kernel events as calling [`mod_down`] per accumulator —
/// batching changes the arithmetic packing, not the costed schedule —
/// grouped by stage instead of by accumulator.
#[must_use]
pub fn mod_down_batch(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    accs: &[&ExtPoly],
) -> Vec<RnsPoly> {
    mod_down_owned(ctx, tracing, accs.iter().map(|a| (*a).clone()).collect())
}

/// [`mod_down_batch`] consuming its accumulators: their limbs are
/// transformed in place and the `q` part becomes the result, so a caller
/// that is done with them (the key switch) pays for no copy.
fn mod_down_owned(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    mut work: Vec<ExtPoly>,
) -> Vec<RnsPoly> {
    let Some(first) = work.first() else {
        return Vec::new();
    };
    let l = first.level();
    let n = ctx.params().n();
    let k = ctx.params().special_primes();
    let table = ctx.moddown_table(l);

    ExtPoly::ntt_inverse_batch(ctx, &mut work);
    for acc in &work {
        tracing.emit(KernelEvent::Ntt {
            n,
            limbs: acc.total_limbs(),
            inverse: true,
        });
    }

    for acc in &work {
        assert_eq!(acc.level(), l, "level mismatch in ModDown batch");
    }
    // Each accumulator converts straight from its own special limbs (the
    // kernel works 16 columns at a time, so a wider concatenated block
    // would buy nothing but the copy) into one pooled `(l+1) × N` buffer,
    // overwritten whole per accumulator.
    let mut conv = scratch::take_dirty_u64(table.conv.l_dst() * n);
    let mut outs: Vec<RnsPoly> = Vec::with_capacity(work.len());
    for acc in work {
        {
            let src_rows: Vec<&[u64]> = acc.p_limbs.iter().map(Vec::as_slice).collect();
            let mut out_rows: Vec<&mut [u64]> = conv.chunks_mut(n).collect();
            table.conv.convert_block_into(&src_rows, &mut out_rows);
        }
        tracing.emit(KernelEvent::Conv {
            n,
            l_src: k,
            l_dst: l + 1,
        });

        // out_i = (acc_i - conv_i) · P^{-1} mod q_i, in place on acc_i.
        let mut out_limbs = acc.q_limbs;
        for (i, (limb, conv_row)) in out_limbs.iter_mut().zip(conv.chunks(n)).enumerate() {
            ctx.q_mod(i)
                .sub_scale_slice(limb, conv_row, table.p_inv_mod_q[i]);
        }
        tracing.emit(KernelEvent::EleSub { n, limbs: l + 1 });
        outs.push(RnsPoly::from_limbs(out_limbs, Domain::Coeff));
    }
    scratch::give_u64(conv);

    {
        let mut views: Vec<&mut RnsPoly> = outs.iter_mut().collect();
        RnsPoly::ntt_forward_batch(ctx, &mut views);
    }
    for _ in &outs {
        tracing.emit(KernelEvent::Ntt {
            n,
            limbs: l + 1,
            inverse: false,
        });
    }
    outs
}

/// Full key switch (Algorithm 1): `d` must be in NTT domain.
///
/// Returns `(c0', c1')` such that `c0' + c1'·s ≈ d·s'` where `s'` is the key
/// the `ksk` was generated for.
#[must_use]
pub fn key_switch(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    d: &RnsPoly,
    ksk: &KsKey,
) -> (RnsPoly, RnsPoly) {
    key_switch_batch(ctx, tracing, &[d], &[ksk])
        .pop()
        .expect("one input")
}

/// Batched key switch of several same-level polynomials, each under its own
/// key (the streaming-bootstrap hot path: a BSGS stage key-switches ≈√D
/// rotations of one ciphertext at once).
///
/// The arithmetic packs across inputs — one [`RnsPoly::ntt_inverse_batch`]
/// for every input, one [`ExtPoly::ntt_forward_batch`] over the whole
/// `inputs × dnum` ModUp digit block, and one [`mod_down_batch`] over all
/// `2·inputs` accumulators — so each per-modulus transform is a single wide
/// GEMM under the GEMM formulations. The emitted kernel events are exactly
/// those of calling [`key_switch`] once per input, in the same order:
/// batching changes the arithmetic packing, not the costed schedule.
///
/// Peak host memory is bounded: batches whose ModUp block would exceed
/// [`MAX_MODUP_BLOCK`] extended polynomials are processed in fixed-size
/// input chunks (results and events are identical — batched transforms are
/// bit-exact at any width — only the GEMM row count per call changes).
///
/// # Panics
///
/// Panics if `ds` and `ksks` disagree in length, any input is not in NTT
/// domain, levels differ across inputs, or a key has too few digits.
#[must_use]
pub fn key_switch_batch(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    ds: &[&RnsPoly],
    ksks: &[&KsKey],
) -> Vec<(RnsPoly, RnsPoly)> {
    assert_eq!(ds.len(), ksks.len(), "one key per input");
    let Some(first) = ds.first() else {
        return Vec::new();
    };
    let l = first.level();
    let alpha = ctx.params().alpha();
    let digits = (l + 1).div_ceil(alpha);
    // Validate the WHOLE batch before the residency-chunk recursion: the
    // documented contract violations must fire even when each individual
    // chunk would happen to be internally consistent.
    for d in ds {
        assert_eq!(
            d.domain(),
            Domain::Ntt,
            "key switch input must be in NTT domain"
        );
        assert_eq!(d.level(), l, "level mismatch in key-switch batch");
    }
    for ksk in ksks {
        assert!(digits <= ksk.digits.len(), "key has too few digits");
    }

    // Residency cap: a BSGS stage can hand over ≈√D rotations, and each
    // input materializes `digits` extended polynomials plus two
    // accumulators. Chunking keeps the transient block O(chunk × digits)
    // — still far wider than any single key switch — instead of letting a
    // paper-scale rotation batch hold gigabytes of limbs at once.
    let chunk_inputs = batch_chunk_inputs(ctx, l);
    if ds.len() > chunk_inputs {
        let mut out = Vec::with_capacity(ds.len());
        for (dc, kc) in ds.chunks(chunk_inputs).zip(ksks.chunks(chunk_inputs)) {
            out.extend(key_switch_batch(ctx, tracing, dc, kc));
        }
        return out;
    }

    // Arithmetic runs silently in batched blocks; the sequential event
    // stream is emitted once per input at the end.
    let mut silent = Tracing::new(None);

    // INTT every input in one batched block.
    let mut d_coeffs: Vec<RnsPoly> = ds.iter().map(|d| (*d).clone()).collect();
    {
        let mut views: Vec<&mut RnsPoly> = d_coeffs.iter_mut().collect();
        RnsPoly::ntt_inverse_batch(ctx, &mut views);
    }

    // ModUp every digit of every input, then NTT the whole block at once:
    // all digits of all inputs share the extended basis, so each prime's
    // transform is one wide `inputs·dnum`-row GEMM under the GEMM
    // formulations (the §IV-D key-switch hot loop, widened across the
    // rotation batch).
    let mut exts: Vec<ExtPoly> = Vec::with_capacity(ds.len() * digits);
    for d_coeff in &d_coeffs {
        for j in 0..digits {
            exts.push(mod_up(ctx, &mut silent, d_coeff, j));
        }
    }
    ExtPoly::ntt_forward_batch(ctx, &mut exts);

    // Per-input inner products against that input's key digits.
    let mut accs: Vec<ExtPoly> = Vec::with_capacity(2 * ds.len());
    for (exts, ksk) in exts.chunks(digits).zip(ksks) {
        // Keys store the full basis; the products read its active prefix.
        // The first digit writes the accumulators, the rest add to them.
        let (first, rest) = (&ksk.digits[0], &ksk.digits[1..]);
        let mut acc0 = ExtPoly::product(ctx, &exts[0], &first.b);
        let mut acc1 = ExtPoly::product(ctx, &exts[0], &first.a);
        for (ext, key) in exts[1..].iter().zip(rest) {
            acc0.mul_acc(ctx, ext, &key.b);
            acc1.mul_acc(ctx, ext, &key.a);
        }
        accs.push(acc0);
        accs.push(acc1);
    }

    // All accumulators ModDown together (B = 2·inputs rows per modulus).
    let mut outs = mod_down_owned(ctx, &mut silent, accs);

    // The costed schedule is unchanged: one sequential event group per
    // input, exactly as [`key_switch`] emits.
    for _ in ds {
        emit_key_switch_events(ctx, tracing, l);
    }

    outs.reverse();
    let mut pairs = Vec::with_capacity(ds.len());
    while let (Some(c0), Some(c1)) = (outs.pop(), outs.pop()) {
        pairs.push((c0, c1));
    }
    pairs
}

/// Emits the kernel-event stream of one [`key_switch`] call at `level` —
/// shared by the single and batched entry points (and the batched rotation
/// path in `eval`) so batched arithmetic leaves the costed schedule
/// bit-identical to sequential execution.
pub(crate) fn emit_key_switch_events(ctx: &CkksContext, tracing: &mut Tracing<'_>, level: usize) {
    let n = ctx.params().n();
    let k = ctx.params().special_primes();
    let alpha = ctx.params().alpha();
    let limbs = level + 1;
    let digits = limbs.div_ceil(alpha);
    let ext_limbs = limbs + k;
    tracing.emit(KernelEvent::Ntt {
        n,
        limbs,
        inverse: true,
    });
    for j in 0..digits {
        let src = alpha.min(limbs - j * alpha);
        tracing.emit(KernelEvent::Conv {
            n,
            l_src: src,
            l_dst: limbs - src + k,
        });
    }
    for _ in 0..digits {
        tracing.emit(KernelEvent::Ntt {
            n,
            limbs: ext_limbs,
            inverse: false,
        });
        tracing.emit(KernelEvent::HadaMult {
            n,
            limbs: 2 * ext_limbs,
        });
        tracing.emit(KernelEvent::EleAdd {
            n,
            limbs: 2 * ext_limbs,
        });
    }
    for _ in 0..2 {
        tracing.emit(KernelEvent::Ntt {
            n,
            limbs: ext_limbs,
            inverse: true,
        });
    }
    for _ in 0..2 {
        tracing.emit(KernelEvent::Conv {
            n,
            l_src: k,
            l_dst: limbs,
        });
        tracing.emit(KernelEvent::EleSub { n, limbs });
    }
    for _ in 0..2 {
        tracing.emit(KernelEvent::Ntt {
            n,
            limbs,
            inverse: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use tensorfhe_math::crt::RnsBasis;

    fn ctx() -> CkksContext {
        CkksContext::new(&CkksParams::toy()).expect("valid")
    }

    #[test]
    fn mod_up_preserves_value_mod_sources() {
        let c = ctx();
        let n = c.params().n();
        // Encode the constant value 42 across all limbs at level 3.
        let coeffs = vec![42i128; n];
        let d = RnsPoly::from_i128_coeffs(&c, &coeffs, 3);
        let mut tr = Tracing::new(None);
        let ext = mod_up(&c, &mut tr, &d, 0);
        // Digit 0 covers limbs 0..2 (α = 2). Own limbs are exact.
        for i in 0..2 {
            assert_eq!(ext.q_limbs[i], d.limb(i));
        }
        // Other limbs equal 42 + e·Q_0 mod q_i for small e ≥ 0.
        let q0q1 = RnsBasis::new(&c.q_primes()[..2])
            .product()
            .to_i128()
            .expect("fits");
        for i in 2..=3 {
            let m = c.q_mod(i);
            let got = ext.q_limbs[i][0] as i128;
            let ok = (0..=2i128).any(|e| (42 + e * q0q1).rem_euclid(m.value() as i128) == got);
            assert!(ok, "limb {i} residue {got} not within overshoot range");
        }
    }

    #[test]
    fn mod_down_divides_by_p() {
        // Build ext = P · v exactly (small v), then ModDown must return v.
        let c = ctx();
        let n = c.params().n();
        let level = 2;
        let p_product: i128 = c.p_primes().iter().map(|&p| p as i128).product();
        let v = 7i128;
        let scaled = vec![v * p_product; n];

        let mut ext = ExtPoly::zero(&c, level, Domain::Coeff);
        for i in 0..=level {
            let m = c.q_mod(i);
            for (dst, &s) in ext.q_limbs[i].iter_mut().zip(&scaled) {
                *dst = m.from_i128(s);
            }
        }
        for k in 0..c.params().special_primes() {
            let m = c.p_mod(k);
            for (dst, &s) in ext.p_limbs[k].iter_mut().zip(&scaled) {
                *dst = m.from_i128(s);
            }
        }
        ext.ntt_forward(&c);

        let mut tr = Tracing::new(None);
        let mut out = mod_down(&c, &mut tr, &ext);
        out.ntt_inverse(&c);
        for i in 0..=level {
            let m = c.q_mod(i);
            assert!(out.limb(i).iter().all(|&x| x == m.from_i128(v)));
        }
    }

    #[test]
    fn emitted_stream_matches_real_arithmetic_emission() {
        // `key_switch_batch` runs the arithmetic silently and emits events
        // through `emit_key_switch_events`; this test ties that synthetic
        // stream to the REAL emission of the arithmetic helpers (the
        // pre-batch `key_switch` inline sequence: INTT marker, `mod_up`'s
        // Conv per digit, per-digit NTT/HadaMult/EleAdd markers,
        // `mod_down_batch`'s pair events) so a future kernel-shape change
        // in `mod_up`/`mod_down_batch` cannot silently desynchronize the
        // costed schedule from the executed kernels.
        use crate::trace::RecordingTracer;
        let c = ctx();
        let n = c.params().n();
        let alpha = c.params().alpha();
        // Level 2 exercises a partial last digit (α = 2, 3 limbs).
        for level in [2usize, 3] {
            let digits = (level + 1).div_ceil(alpha);
            let d = RnsPoly::from_i128_coeffs(&c, &vec![1i128; n], level);
            let mut real = RecordingTracer::new();
            {
                let mut tr = Tracing::new(Some(&mut real));
                tr.emit(KernelEvent::Ntt {
                    n,
                    limbs: level + 1,
                    inverse: true,
                });
                let exts: Vec<ExtPoly> = (0..digits).map(|j| mod_up(&c, &mut tr, &d, j)).collect();
                for ext in &exts {
                    tr.emit(KernelEvent::Ntt {
                        n,
                        limbs: ext.total_limbs(),
                        inverse: false,
                    });
                    tr.emit(KernelEvent::HadaMult {
                        n,
                        limbs: 2 * ext.total_limbs(),
                    });
                    tr.emit(KernelEvent::EleAdd {
                        n,
                        limbs: 2 * ext.total_limbs(),
                    });
                }
                let acc0 = ExtPoly::zero(&c, level, Domain::Ntt);
                let acc1 = ExtPoly::zero(&c, level, Domain::Ntt);
                let _ = mod_down_batch(&c, &mut tr, &[&acc0, &acc1]);
            }
            let mut synth = RecordingTracer::new();
            {
                let mut tr = Tracing::new(Some(&mut synth));
                emit_key_switch_events(&c, &mut tr, level);
            }
            assert_eq!(
                synth.events, real.events,
                "synthetic key-switch stream diverged from the arithmetic \
                 helpers' real emission at level {level}"
            );
        }
    }

    #[test]
    fn ext_poly_ntt_roundtrip() {
        let c = ctx();
        let mut e = ExtPoly::zero(&c, 2, Domain::Coeff);
        e.q_limbs[0][3] = 17;
        e.p_limbs[0][5] = 23;
        let orig = e.clone();
        e.ntt_forward(&c);
        assert_ne!(e, orig);
        e.ntt_inverse(&c);
        assert_eq!(e, orig);
    }
}
