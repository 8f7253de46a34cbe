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
//!
//! # Algorithm 1 as executed
//!
//! [`key_switch`] computes exactly the values above, bit for bit, but runs
//! only the transforms its data flow needs. Write `m = l+1`, `E = m + K` and
//! `D` for the digit count ([`KeySwitchShape`] holds them).
//!
//! * **Own limbs are borrowed.** A digit's own limbs of `ModUp(d_j)` are
//!   `d`'s limbs, and `d` arrives in the NTT domain: `NTT(INTT(x)) = x` on
//!   canonical residues, so they are read straight from the input — no
//!   copy, no transform. Only the `E − α_j` *complement* limbs of a digit
//!   are converted and forward-transformed.
//! * **Single-limb digits reduce.** With `α = 1` the conversion matrix is
//!   the `1 × 1` identity and a complement limb is `x mod p`; the plan
//!   picks that body when it is built
//!   ([`tensorfhe_math::crt::BasisConvGemm`], "the single-limb rule").
//! * **ModDown stays in the NTT domain on the `q` side.** Only the `K`
//!   special limbs of an accumulator are inverse-transformed (they are all
//!   the conversion reads). The `m` converted rows are forward-transformed
//!   and the output is `(acc_i − NTT(conv_i))·P^{-1} mod q_i`. This is
//!   exact, not approximate: the NTT is a `Z_{q_i}`-linear bijection, so
//!   `NTT((a − c)·s) = (NTT(a) − NTT(c))·s`, and every step returns the
//!   canonical residue in `[0, q_i)` — the same bits as transforming `acc_i`
//!   back, subtracting in the coefficient domain and transforming forward.
//!
//! One switch therefore transforms
//!
//! ```text
//! m  +  Σ_j (E − α_j)  +  2K  +  2m   =   D·E + 2K + 2m   rows
//! ```
//!
//! (input INTT, complement NTTs, special-limb INTTs of both accumulators,
//! converted-row NTTs) where the literal Algorithm 1 transforms
//! `m + D·E + 2E + 2m` — 48 instead of 60 at HEAX set B.
//! [`KeySwitchShape::ntt_rows`] is the formula, [`key_switch_events`] the
//! kernel-event stream that carries it to the cost model.
//!
//! **The limb-major loop.** The work is ordered by extended limb, not by
//! digit. After the INTT of each input limb and its row of its digit's
//! `y`-stage, each extended limb `e` (a `q_i` or a `p_k`) is finished on its
//! own: digit by digit, the complement row at `e` is converted into one
//! working row, transformed with `e`'s plan and multiplied into both
//! accumulators' limb `e` while it is hot (first digit writes, the rest
//! multiply-accumulate; a digit that owns `e` multiplies the input's limb).
//! A special limb `p_k` then goes straight on into ModDown — its two
//! accumulator rows back to the coefficient domain and through row `k` of
//! ModDown's `y`-stage. The live set is one row plus two accumulator limbs,
//! each key limb is streamed exactly once, and the `D × E`-limb heap block
//! of raised digits the literal algorithm builds (2 MB per HMULT at set B)
//! never exists. ModDown then walks the `q` limbs the same way: convert
//! row `i` of each accumulator, transform it, subtract-and-scale.
//!
//! **Three phases in one scope.** The switch is three loops of independent
//! limb jobs, run as the phases of one `par::run_phases` call —
//! one `std::thread::scope` per switch:
//!
//! 1. the `m` input limbs: copy, INTT, `y`-stage row;
//! 2. the `E` extended limbs, as above;
//! 3. ModDown's `m` `q` limbs of both accumulators, one job per limb and
//!    accumulator.
//!
//! A job reads only shared inputs (the input, the key, the tables) and the
//! rows earlier phases finished, and writes only its own limb's rows, into
//! a per-limb slot the next phase reads; a phase starts once the one before
//! it has finished. The caller and up to `min(cores, E) − 1` helpers claim
//! the jobs in order from one counter, and every row lands at its limb's
//! index, so the output is the same at any thread count and in any claim
//! order — the integer arithmetic of a job does not know which thread runs
//! it, and no value is ever combined across jobs. (The in-crate test runs
//! every preset shape at every level on 1, 2, 3 and `E` threads against the
//! inline run and [`key_switch_literal`].) A helper that never gets a core
//! before the jobs run out costs only its spawn. Splitting pays only above
//! a size gate, measured on a 2-vCPU VM: a switch splits once it transforms
//! `2^16` words (HEAX set A's top level, set B and set C at every level)
//! and runs inline below that ([`KeySwitchShape::threads`];
//! `SPLIT_MIN_WORDS` in `par.rs` cites the numbers). Finer jobs lose: a
//! runner per `forward_batch` call (3–4 rows, about 150 µs) pays a 22–60 µs
//! scoped spawn per call, and so would a scope per phase.
//! [`mod_down_batch`], the public whole-polynomial helper, runs its `q`
//! limbs on the calling thread.
//!
//! The public helpers [`mod_up`], [`ExtPoly::ntt_forward_batch`],
//! [`ExtPoly::mul_acc`] and [`mod_down_batch`] are the same steps one whole
//! polynomial at a time; composed in that order ([`key_switch_literal`])
//! they are the reference the differential tests hold [`key_switch`] to.
//! That composition is literal up to the accumulators — it raises,
//! transforms and multiplies all `D·E` limbs — but its ModDown is
//! [`mod_down_batch`], i.e. already the NTT-domain one: it transforms
//! `m + D·E + 2K + 2m` rows, not Algorithm 1's `m + D·E + 2E + 2m`. The
//! coefficient-domain ModDown it replaced lives on as a test-only
//! reference (`tests/keyswitch_lean.rs`), which holds [`mod_down_batch`]
//! to it bit for bit on random accumulators.

use crate::context::{CkksContext, ModDownTable, ModUpTable};
use crate::par::{run_phases, split_threads, Slots, Stock};
use crate::params::CkksParams;
use crate::poly::{Domain, RnsPoly};
use crate::trace::{KernelEvent, Tracing};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use tensorfhe_math::crt::BasisConvGemm;
use tensorfhe_math::{scratch, Modulus};
use tensorfhe_ntt::{BatchedGemmNtt, NttBatchOps, NttOps};

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
    /// layout, batched per modulus (`B` = block size rows per wide GEMM):
    /// every limb of every polynomial, own and complement alike — the
    /// whole-polynomial form of the per-limb transforms [`key_switch`] runs
    /// on complement rows only.
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
        for e in 0..nq + np {
            let mut rows: Vec<&mut [u64]> = exts
                .iter_mut()
                .map(|x| match e.checked_sub(nq) {
                    None => x.q_limbs[e].as_mut_slice(),
                    Some(k) => x.p_limbs[k].as_mut_slice(),
                })
                .collect();
            let (_, plan) = ext_prime(ctx, nq, e);
            plan.forward_batch(&mut rows);
        }
        exts.iter_mut().for_each(|e| e.domain = Domain::Ntt);
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

/// Limb `e` of `poly` in an extended basis whose `q` part has `limbs` active
/// limbs (`q` limbs first, then the special limbs) — a key spans the full
/// chain, so its special limbs are not at `q_limbs.len()`.
fn ext_limb(poly: &ExtPoly, limbs: usize, e: usize) -> &[u64] {
    match e.checked_sub(limbs) {
        None => &poly.q_limbs[e],
        Some(k) => &poly.p_limbs[k],
    }
}

/// Modulus and NTT plan of extended limb `e` when the `q` part has `limbs`
/// limbs.
fn ext_prime(ctx: &CkksContext, limbs: usize, e: usize) -> (&Modulus, &BatchedGemmNtt) {
    match e.checked_sub(limbs) {
        None => (ctx.q_mod(e), ctx.ntt_q(e)),
        Some(k) => (ctx.p_mod(k), ctx.ntt_p(k)),
    }
}

/// The shape of one hybrid key switch at one level: everything the
/// arithmetic loops and the costed kernel-event stream both depend on, in
/// one place. [`key_switch`] iterates over it; [`key_switch_events`] is
/// generated from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySwitchShape {
    n: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
}

impl KeySwitchShape {
    /// The shape at ciphertext level `level` of `params`.
    #[must_use]
    pub fn new(params: &CkksParams, level: usize) -> Self {
        Self {
            n: params.n(),
            limbs: level + 1,
            special: params.special_primes(),
            alpha: params.alpha(),
        }
    }

    /// Active ciphertext limbs `m = l + 1`.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Special limbs `K`.
    #[must_use]
    pub fn special(&self) -> usize {
        self.special
    }

    /// Limbs of the extended basis, `E = m + K`.
    #[must_use]
    pub fn ext_limbs(&self) -> usize {
        self.limbs + self.special
    }

    /// Decomposition digits at this level, `D = ⌈m/α⌉`.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.limbs.div_ceil(self.alpha)
    }

    /// The limbs digit `j` owns: `[jα, min((j+1)α, m))` (the last digit may
    /// be partial).
    #[must_use]
    pub fn digit_limbs(&self, j: usize) -> Range<usize> {
        j * self.alpha..((j + 1) * self.alpha).min(self.limbs)
    }

    /// Per digit, the `(src, dst)` widths of its ModUp conversion: its own
    /// limbs and its complement `E − src`.
    pub fn digit_widths(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.digits()).map(|j| {
            let src = self.digit_limbs(j).len();
            (src, self.ext_limbs() - src)
        })
    }

    /// NTT + INTT rows one switch transforms: `D·E + 2K + 2m` (module
    /// docs).
    #[must_use]
    pub fn ntt_rows(&self) -> usize {
        self.digits() * self.ext_limbs() + 2 * self.special + 2 * self.limbs
    }

    /// Threads [`key_switch`] runs its three phases on: every core (capped
    /// at the widest phase's job count) once the switch transforms at least
    /// `2^16` words, one below that (module docs).
    #[must_use]
    pub fn threads(&self) -> usize {
        split_threads(self.ntt_rows() * self.n)
    }

    /// The kernel-event stream of one key switch: the input INTT, every
    /// digit's Conv, per digit the complement NTT and both inner-product
    /// kernels, then the ModDown of the two accumulators.
    #[must_use]
    pub fn events(&self) -> Vec<KernelEvent> {
        let n = self.n;
        let ext = self.ext_limbs();
        let mut ev = Vec::with_capacity(4 * self.digits() + 9);
        ev.push(KernelEvent::Ntt {
            n,
            limbs: self.limbs,
            inverse: true,
        });
        // Each Conv is a single event whatever the variant — under the
        // GEMM formulations the tracer lowers it to a batched y stage plus
        // one wide (L_dst × α) × (α × B·N) GEMM, under the butterfly
        // baseline to the scalar per-residue kernel.
        ev.extend(
            self.digit_widths()
                .map(|(l_src, l_dst)| KernelEvent::Conv { n, l_src, l_dst }),
        );
        for (_, complement) in self.digit_widths() {
            ev.push(KernelEvent::Ntt {
                n,
                limbs: complement,
                inverse: false,
            });
            ev.push(KernelEvent::HadaMult { n, limbs: 2 * ext });
            ev.push(KernelEvent::EleAdd { n, limbs: 2 * ext });
        }
        ev.extend(self.mod_down_events(2));
        ev
    }

    /// The ModDown of `accs` accumulators, stage by stage: special-limb
    /// INTTs, conversions, converted-row NTTs, scaled subtractions — each
    /// costed per accumulator, in the kernel shapes the rest of the switch
    /// already uses. (The arithmetic batches the transforms across the
    /// accumulators; costing them as one `accs·K`- or `accs·m`-limb event
    /// adds a kernel shape per level that every costing has to simulate —
    /// tried, +17 % `round_ms_p50` on the harness's `paper_model`.)
    fn mod_down_events(&self, accs: usize) -> impl Iterator<Item = KernelEvent> {
        let (n, limbs) = (self.n, self.limbs);
        let stages = [
            KernelEvent::Ntt {
                n,
                limbs: self.special,
                inverse: true,
            },
            KernelEvent::Conv {
                n,
                l_src: self.special,
                l_dst: limbs,
            },
            KernelEvent::Ntt {
                n,
                limbs,
                inverse: false,
            },
            KernelEvent::EleSub { n, limbs },
        ];
        stages
            .into_iter()
            .flat_map(move |stage| std::iter::repeat_n(stage, accs))
    }
}

/// The kernel-event stream of one [`key_switch`] at `level`: what it
/// emits, and the middle of every [`crate::ops::FheOp`] stream that
/// switches keys.
#[must_use]
pub fn key_switch_events(params: &CkksParams, level: usize) -> Vec<KernelEvent> {
    KeySwitchShape::new(params, level).events()
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
    let own = table.src_start..table.src_end;
    let k = ctx.params().special_primes();

    // Own limbs are copied verbatim (the conversion is exact there); the
    // complement limbs are allocated for the conversion to fill.
    let mut ext = ExtPoly {
        q_limbs: (0..=l)
            .map(|i| {
                if own.contains(&i) {
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
    // matrix product — the y-stage, then every target row.
    let src_rows: Vec<&[u64]> = own.clone().map(|i| d_coeff.limb(i)).collect();
    {
        let (q_limbs, p_limbs) = (&mut ext.q_limbs, &mut ext.p_limbs);
        let mut out_rows: Vec<&mut [u64]> = q_limbs
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| !own.contains(i))
            .map(|(_, limb)| limb.as_mut_slice())
            .chain(p_limbs.iter_mut().map(Vec::as_mut_slice))
            .collect();
        table.conv.convert_block_into(&src_rows, &mut out_rows);
    }
    tracing.emit(KernelEvent::Conv {
        n,
        l_src: own.len(),
        l_dst: (l + 1 - own.len()) + k,
    });
    ext
}

/// Batched `ModDown` of several same-level NTT-domain accumulators, through
/// the per-limb step the key switch's ModDown phase runs (module docs), on
/// the calling thread: the special limbs are inverse-transformed in one
/// batch per prime, then each `q` limb's converted rows are
/// forward-transformed and the scaled subtraction happens in the NTT
/// domain.
///
/// Emits the ModDown part of [`key_switch_events`] for `accs.len()`
/// accumulators, grouped by stage.
///
/// # Panics
///
/// Panics if the accumulators disagree on level or any is in coefficient
/// domain.
#[must_use]
pub fn mod_down_batch(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    accs: &[&ExtPoly],
) -> Vec<RnsPoly> {
    let Some(first) = accs.first() else {
        return Vec::new();
    };
    let l = first.level();
    let n = ctx.params().n();
    let k = ctx.params().special_primes();
    // The routine consumes its operands: copy the special limbs into the
    // pooled block it works in and the `q` limbs into what becomes the
    // result.
    let mut p_rows = scratch::take_dirty_u64(accs.len() * k * n);
    for (acc, block) in accs.iter().zip(p_rows.chunks_mut(k * n)) {
        assert_eq!(acc.level(), l, "level mismatch in ModDown batch");
        assert_eq!(acc.domain, Domain::Ntt);
        for (limb, row) in acc.p_limbs.iter().zip(block.chunks_mut(n)) {
            row.copy_from_slice(limb);
        }
    }
    let mut q_parts: Vec<_> = accs.iter().map(|acc| acc.q_limbs.clone()).collect();
    let table = ctx.moddown_table(l);
    assert_eq!(BasisConvGemm::y_stride(n), n, "N is whole column blocks");
    // The special limbs are all the conversion reads: only they go back to
    // the coefficient domain, one batch per prime, then through the
    // y-stage once per accumulator.
    for kk in 0..k {
        let mut rows: Vec<&mut [u64]> = p_rows.chunks_mut(n).skip(kk).step_by(k).collect();
        ctx.ntt_p(kk).inverse_batch(&mut rows);
    }
    for y in p_rows.chunks_mut(k * n) {
        table.conv.y_stage(y, n);
    }
    let ys: Vec<Vec<&[u64]>> = p_rows
        .chunks(k * n)
        .map(|y| y.chunks(n).collect())
        .collect();
    let mut row = scratch::take_dirty_u64(n);
    for i in 0..=l {
        for (part, y) in q_parts.iter_mut().zip(&ys) {
            mod_down_limb(ctx, &table, i, y, &mut part[i], &mut row);
        }
    }
    scratch::give_u64(row);
    scratch::give_u64(p_rows);
    KeySwitchShape::new(ctx.params(), l)
        .mod_down_events(accs.len())
        .for_each(|e| tracing.emit(e));
    q_parts
        .into_iter()
        .map(|limbs| RnsPoly::from_limbs(limbs, Domain::Ntt))
        .collect()
}

/// Rows the arithmetic really pushed through each kernel: each
/// extended-limb job counts its own, and the input and ModDown phases add a
/// fixed count per job (one INTT; two conversions, NTTs and subtractions).
/// The unit tests
/// tie [`key_switch_events`] to it, so the costed stream cannot drift from
/// the executed work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RowTally {
    /// Rows inverse-transformed.
    intt: usize,
    /// Rows forward-transformed.
    ntt: usize,
    /// Target rows produced by basis conversions.
    conv: usize,
    /// Row products of the inner product (writes and accumulates alike).
    mac: usize,
    /// Rows through ModDown's subtract-and-scale.
    sub: usize,
}

impl RowTally {
    /// Field-wise `self + other`.
    fn plus(self, other: RowTally) -> RowTally {
        RowTally {
            intt: self.intt + other.intt,
            ntt: self.ntt + other.ntt,
            conv: self.conv + other.conv,
            mac: self.mac + other.mac,
            sub: self.sub + other.sub,
        }
    }
}

/// ModDown at `q` limb `i` of one accumulator: the row converted from the
/// accumulator's y-staged special rows `y` into `row`, its NTT, then
/// `acc ← (acc − NTT(conv))·P^{-1}`.
fn mod_down_limb(
    ctx: &CkksContext,
    table: &ModDownTable,
    i: usize,
    y: &[&[u64]],
    acc: &mut [u64],
    row: &mut [u64],
) {
    table.conv.convert_row(i, y, row);
    ctx.ntt_q(i).forward_batch(&mut [&mut *row]);
    ctx.q_mod(i).sub_scale_slice(acc, row, table.p_inv_mod_q[i]);
}

/// Full key switch (Algorithm 1) as the limb-major loop of the module docs:
/// `d` must be in NTT domain. Emits [`key_switch_events`].
///
/// Returns `(c0', c1')` such that `c0' + c1'·s ≈ d·s'` where `s'` is the key
/// the `ksk` was generated for.
///
/// # Panics
///
/// Panics if `d` is not in NTT domain or the key has too few digits.
#[must_use]
pub fn key_switch(
    ctx: &CkksContext,
    tracing: &mut Tracing<'_>,
    d: &RnsPoly,
    ksk: &KsKey,
) -> (RnsPoly, RnsPoly) {
    assert_eq!(
        d.domain(),
        Domain::Ntt,
        "key switch input must be in NTT domain"
    );
    let shape = KeySwitchShape::new(ctx.params(), d.level());
    assert!(shape.digits() <= ksk.digits.len(), "key has too few digits");
    let (pair, _) = key_switch_rows(ctx, &shape, d, ksk, shape.threads());
    shape.events().into_iter().for_each(|e| tracing.emit(e));
    pair
}

/// The key switch composed from the whole-polynomial helpers: INTT, every
/// digit raised whole ([`mod_up`]), the whole `digits × (l+1+K)` block
/// forward-transformed ([`ExtPoly::ntt_forward_batch`]), both inner
/// products ([`ExtPoly::mul_acc`] into zeroed accumulators),
/// [`mod_down_batch`]. Literal Algorithm 1 through the inner product (it
/// owns, transforms and multiplies every limb of every digit); its ModDown
/// is the shared NTT-domain routine, so it transforms `m + D·E + 2K + 2m`
/// rows. The reference [`key_switch`] must match bit for bit (the
/// differential tests and the `kernels` bench hold it to that); it emits no
/// events.
#[must_use]
pub fn key_switch_literal(ctx: &CkksContext, d: &RnsPoly, ksk: &KsKey) -> (RnsPoly, RnsPoly) {
    let level = d.level();
    let mut silent = Tracing::new(None);
    let mut d_coeff = d.clone();
    d_coeff.ntt_inverse(ctx);
    let digits = KeySwitchShape::new(ctx.params(), level).digits();
    let mut exts: Vec<ExtPoly> = (0..digits)
        .map(|j| mod_up(ctx, &mut silent, &d_coeff, j))
        .collect();
    ExtPoly::ntt_forward_batch(ctx, &mut exts);
    let mut acc0 = ExtPoly::zero(ctx, level, Domain::Ntt);
    let mut acc1 = ExtPoly::zero(ctx, level, Domain::Ntt);
    for (ext, key) in exts.iter().zip(&ksk.digits) {
        acc0.mul_acc(ctx, ext, &key.b);
        acc1.mul_acc(ctx, ext, &key.a);
    }
    let mut outs = mod_down_batch(ctx, &mut silent, &[&acc0, &acc1]);
    let c1 = outs.pop().expect("two accumulators");
    (outs.pop().expect("two accumulators"), c1)
}

/// The limb-major loop of [`key_switch`] on `threads` threads (the caller
/// counted), returning the switched pair and the rows it pushed through
/// each kernel: three phases of limb jobs under one [`run_phases`] scope —
/// the input's limbs, the extended limbs, ModDown's `q` limbs — each job
/// handing its rows to the next phase through [`Slots`].
fn key_switch_rows(
    ctx: &CkksContext,
    shape: &KeySwitchShape,
    d: &RnsPoly,
    ksk: &KsKey,
    threads: usize,
) -> ((RnsPoly, RnsPoly), RowTally) {
    let n = ctx.params().n();
    let (m, ext, digits) = (shape.limbs(), shape.ext_limbs(), shape.digits());
    let level = m - 1;
    assert_eq!(BasisConvGemm::y_stride(n), n, "N is whole column blocks");
    // One cache lookup per table per switch, not per digit use.
    let modup: Vec<Arc<ModUpTable>> = (0..digits).map(|j| ctx.modup_table(j, level)).collect();
    let moddown = ctx.moddown_table(level);
    let k = shape.special();
    // The input's y-staged coefficients and the special limbs of both
    // accumulators live in one pooled block (m rows, then 2K); the `q`
    // limbs of both accumulators in rows allocated here, which become the
    // switched pair's own.
    let mut block = scratch::take_dirty_u64((m + 2 * k) * n);
    let (pair, tally) = {
        let block_rows = Stock::new(block.chunks_mut(n).collect());
        let own_rows = Stock::new((0..2 * m).map(|_| Vec::with_capacity(n)).collect());
        // Per input limb its coefficients; per special limb both
        // accumulators' rows, back in the coefficient domain and through
        // ModDown's y-stage; per `q` limb both accumulators' rows, which
        // ModDown rewrites in place. Each with the rows its job pushed
        // through each kernel.
        let coeff: Slots<&[u64]> = Slots::new(m);
        let special: Slots<([&[u64]; 2], RowTally)> = Slots::new(k);
        let own: Slots<([Mutex<Vec<u64>>; 2], RowTally)> = Slots::new(m);

        // Dcomp: input limb i back to the coefficient domain, then through
        // row `i − src_start` of its digit's y-stage.
        let input_job = |i: usize| {
            let t = &modup[i / shape.alpha];
            let row = block_rows.take();
            row.copy_from_slice(d.limb(i));
            ctx.ntt_q(i).inverse_batch(&mut [&mut *row]);
            t.conv.y_stage_row(i - t.src_start, row);
            coeff.put(i, row);
        };
        // Digit by digit at extended limb e: a digit that owns e reads the
        // input's NTT-domain limb itself; any other converts its complement
        // row into `row` and transforms it with e's plan. Both accumulators
        // take the product while the row is hot: the first digit writes
        // them, the rest add to them. A special limb then goes on into
        // ModDown while it is hot: back to the coefficient domain, then its
        // row of the y-stage.
        let ext_job = |e: usize| {
            let (modulus, plan) = ext_prime(ctx, m, e);
            let mut tally = RowTally::default();
            let mut row = scratch::take_dirty_u64(n);
            let mut q_accs: [Vec<u64>; 2] = Default::default();
            let mut p_accs: [&mut [u64]; 2] = Default::default();
            for (j, (t, key)) in modup.iter().zip(&ksk.digits).enumerate() {
                let x = match t.target_index(e) {
                    None => d.limb(e),
                    Some(target) => {
                        let y: Vec<&[u64]> =
                            (t.src_start..t.src_end).map(|i| *coeff.get(i)).collect();
                        t.conv.convert_row(target, &y, &mut row);
                        plan.forward_batch(&mut [&mut row[..]]);
                        tally.conv += 1;
                        tally.ntt += 1;
                        &row[..]
                    }
                };
                let keys = [ext_limb(&key.b, m, e), ext_limb(&key.a, m, e)];
                for (c, key) in keys.into_iter().enumerate() {
                    match (j, e < m) {
                        (0, true) => {
                            q_accs[c] = own_rows.take();
                            modulus.mul_extend(&mut q_accs[c], x, key);
                        }
                        (0, false) => {
                            p_accs[c] = block_rows.take();
                            p_accs[c].copy_from_slice(x);
                            modulus.mul_slice(p_accs[c], key);
                        }
                        (_, true) => modulus.mul_acc_slice(&mut q_accs[c], x, key),
                        (_, false) => modulus.mul_acc_slice(p_accs[c], x, key),
                    }
                }
            }
            tally.mac += 2 * digits;
            scratch::give_u64(row);
            match e.checked_sub(m) {
                None => own.put(e, (q_accs.map(Mutex::new), tally)),
                Some(kk) => {
                    plan.inverse_batch(&mut p_accs);
                    tally.intt += 2;
                    for a in &mut p_accs {
                        moddown.conv.y_stage_row(kk, a);
                    }
                    special.put(kk, (p_accs.map(|a| &*a), tally));
                }
            }
        };
        // ModDown at `q` limb i / 2 of accumulator i % 2, in place, from its
        // y-staged special rows.
        let down_job = |i: usize| {
            let y: Vec<&[u64]> = (0..k).map(|kk| special.get(kk).0[i % 2]).collect();
            let mut row = scratch::take_dirty_u64(n);
            let mut acc = own.get(i / 2).0[i % 2]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            mod_down_limb(ctx, &moddown, i / 2, &y, &mut acc, &mut row);
            scratch::give_u64(row);
        };
        // Every extended-limb and ModDown job takes one working row from
        // its thread's pool. The caller may claim none of them in one
        // switch and some in the next, so it pools its row up front: its
        // scratch then reaches its steady state with the first switch,
        // whichever jobs it claims.
        if threads > 1 {
            scratch::give_u64(scratch::take_dirty_u64(n));
        }
        run_phases(threads, &[m, ext, 2 * m], |phase, i| match phase {
            0 => input_job(i),
            1 => ext_job(i),
            _ => down_job(i),
        });

        let mut tally = RowTally {
            intt: m,
            conv: 2 * m,
            ntt: 2 * m,
            sub: 2 * m,
            ..RowTally::default()
        };
        for (_, job) in special.into_vec() {
            tally = tally.plus(job);
        }
        let (mut c0, mut c1) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for ([a0, a1], job) in own.into_vec() {
            tally = tally.plus(job);
            c0.push(a0.into_inner().unwrap_or_else(PoisonError::into_inner));
            c1.push(a1.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        let pair = (
            RnsPoly::from_limbs(c0, Domain::Ntt),
            RnsPoly::from_limbs(c1, Domain::Ntt),
        );
        (pair, tally)
    };
    scratch::give_u64(block);
    (pair, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use std::thread;
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
        let mut out = mod_down_batch(&c, &mut tr, &[&ext])
            .pop()
            .expect("one input");
        out.ntt_inverse(&c);
        for i in 0..=level {
            let m = c.q_mod(i);
            assert!(out.limb(i).iter().all(|&x| x == m.from_i128(v)));
        }
    }

    /// Totals of a kernel-event stream, in [`RowTally`]'s units.
    fn costed_rows(events: &[KernelEvent]) -> RowTally {
        let mut t = RowTally::default();
        for e in events {
            match *e {
                KernelEvent::Ntt {
                    limbs,
                    inverse: true,
                    ..
                } => t.intt += limbs,
                KernelEvent::Ntt { limbs, .. } => t.ntt += limbs,
                KernelEvent::Conv { l_dst, .. } => t.conv += l_dst,
                KernelEvent::HadaMult { limbs, .. } => t.mac += limbs,
                KernelEvent::EleSub { limbs, .. } => t.sub += limbs,
                // One Ele-Add per digit is costed; the first digit's writes
                // its accumulators instead, which `mac` already counts.
                KernelEvent::EleAdd { .. } => {}
                other => panic!("{other:?} is not a key-switch kernel"),
            }
        }
        t
    }

    #[test]
    fn emitted_stream_matches_real_arithmetic_emission() {
        // `key_switch` emits `key_switch_events`; this test ties that stream
        // to the rows the limb-major arithmetic really transformed,
        // converted, multiplied and subtracted (its `RowTally`), so a
        // change to what the loops touch cannot silently desynchronize the
        // costed schedule from the executed kernels.
        use crate::keys::KeyChain;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let c = ctx();
        let n = c.params().n();
        let mut rng = StdRng::seed_from_u64(17);
        let keys = KeyChain::generate(&c, &mut rng);
        // Level 2 has a partial last digit (α = 2, 3 limbs), level 3 a full
        // one; level 0 is a single one-limb digit.
        for level in [0usize, 2, 3] {
            let shape = KeySwitchShape::new(c.params(), level);
            let mut d = RnsPoly::from_i128_coeffs(&c, &vec![1i128; n], level);
            d.ntt_forward(&c);
            let (_, real) = key_switch_rows(&c, &shape, &d, keys.relin_key(), shape.threads());
            let costed = costed_rows(&shape.events());
            assert_eq!(real, costed, "level {level}");
            assert_eq!(costed.intt + costed.ntt, shape.ntt_rows());

            // The public ModDown helper emits the same ModDown events.
            let accs = vec![ExtPoly::zero(&c, level, Domain::Ntt); 2];
            let views: Vec<&ExtPoly> = accs.iter().collect();
            let mut rec = crate::trace::RecordingTracer::new();
            let _ = mod_down_batch(&c, &mut Tracing::new(Some(&mut rec)), &views);
            let costed: Vec<_> = shape.mod_down_events(2).collect();
            assert_eq!(rec.events, costed);
        }
    }

    #[test]
    fn ntt_row_formula_holds_at_every_preset_and_level() {
        // D·E + 2K + 2m, against the stream and against the literal
        // Algorithm 1's m + D·E + 2E + 2m.
        let presets = [
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
        ];
        for params in &presets {
            for level in 0..=params.max_level() {
                let shape = KeySwitchShape::new(params, level);
                let (m, k) = (shape.limbs(), shape.special());
                let (d, e) = (shape.digits(), shape.ext_limbs());
                let costed = costed_rows(&key_switch_events(params, level));
                assert_eq!(costed.intt + costed.ntt, d * e + 2 * k + 2 * m);
                assert_eq!(shape.ntt_rows() + 3 * m, m + d * e + 2 * e + 2 * m);
                let own: usize = shape.digit_widths().map(|(src, _)| src).sum();
                assert_eq!(
                    own,
                    m,
                    "{} level {level}: digits tile the limbs",
                    params.name()
                );
            }
        }
        let set_b = CkksParams::heax_set_b();
        assert_eq!(KeySwitchShape::new(&set_b, 3).ntt_rows(), 48);
    }

    /// A uniformly random NTT-domain extended polynomial at `level`.
    fn random_ext(c: &CkksContext, rng: &mut impl rand::Rng, level: usize) -> ExtPoly {
        let mut e = ExtPoly::zero(c, level, Domain::Ntt);
        let moduli = (0..=level)
            .map(|i| c.q_mod(i))
            .chain((0..c.params().special_primes()).map(|k| c.p_mod(k)));
        for (limb, m) in e.q_limbs.iter_mut().chain(&mut e.p_limbs).zip(moduli) {
            limb.iter_mut()
                .for_each(|x| *x = rng.gen_range(0..m.value()));
        }
        e
    }

    #[test]
    fn limb_jobs_give_the_same_bits_at_every_thread_count() {
        // The thread count is forced, whatever the size gate would pick:
        // 1 is the inline run, then 2, 3 and one thread per extended limb.
        // Pair and tally must equal the inline run, and the inline run the
        // reference composition.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(37);
        let presets = [
            CkksParams::table_v_default(),
            CkksParams::table_v_resnet20(),
            CkksParams::table_v_lr(),
            CkksParams::table_v_lstm(),
            CkksParams::table_v_packed_boot(),
            CkksParams::table_vii_bootstrap(),
            CkksParams::heax_set_a(),
            CkksParams::heax_set_b(),
            CkksParams::heax_set_c(),
        ];
        // The paper presets' shapes at N = 64 (the switch's control flow
        // depends on the shape, not on N), then toy and test_small as
        // they are.
        let shapes = presets.iter().map(|p| {
            CkksParams::new(
                format!("{}@64", p.name()),
                64,
                p.max_level(),
                p.special_primes(),
                p.dnum(),
                p.prime_bits(),
                p.scale_bits(),
                p.batch_size(),
            )
            .expect("a paper preset's shape is valid at any degree")
        });
        for params in shapes.chain([CkksParams::toy(), CkksParams::test_small()]) {
            let c = CkksContext::new(&params).expect("valid");
            let top = params.max_level();
            let key = KsKey {
                digits: (0..params.dnum())
                    .map(|_| KsDigit {
                        b: random_ext(&c, &mut rng, top),
                        a: random_ext(&c, &mut rng, top),
                    })
                    .collect(),
            };
            for level in 0..=top {
                let shape = KeySwitchShape::new(&params, level);
                let d = RnsPoly::from_limbs(random_ext(&c, &mut rng, level).q_limbs, Domain::Ntt);
                let inline = key_switch_rows(&c, &shape, &d, &key, 1);
                assert_eq!(inline.0, key_switch_literal(&c, &d, &key));
                for threads in [2, 3, shape.ext_limbs()] {
                    assert_eq!(
                        key_switch_rows(&c, &shape, &d, &key, threads),
                        inline,
                        "{} level {level} on {threads} threads",
                        params.name()
                    );
                }
            }
        }
    }

    /// Two threads' throughput on an ALU loop over one thread's: 2.0 when a
    /// second core is free, 1.0 when it is taken.
    fn two_thread_scaling() -> f64 {
        // lint: time-ok (a timing probe in a test, never on a result path)
        use std::time::Instant;
        let spin = || {
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            for i in 0..2_000_000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
            }
            std::hint::black_box(x)
        };
        // lint: time-ok (a timing probe in a test, never on a result path)
        let t = Instant::now();
        spin();
        let one = t.elapsed().as_secs_f64();
        // lint: time-ok (a timing probe in a test, never on a result path)
        let t = Instant::now();
        thread::scope(|s| {
            s.spawn(spin);
            spin();
        });
        2.0 * one / t.elapsed().as_secs_f64()
    }

    #[test]
    #[ignore = "timing probe: cargo test --release -p tensorfhe-ckks --lib split_gate -- --ignored --nocapture"]
    fn split_gate_timing() {
        // The measurement behind SPLIT_MIN_WORDS. Each round times every
        // case once on one thread and once on two, after a two-thread
        // scaling probe; rounds are grouped by the probe (second core free
        // at >= 1.8, taken at <= 1.2), and each group reports per case the
        // median one- and two-thread times and how often two threads won.
        // The cases are the key switch at HEAX sets A and B and
        // `test_small`, and RESCALE at sets A and B, every level; set B's
        // shape also runs at N = 2^10 and 2^11 to fill in the small sizes.
        use crate::eval::rescale_rows;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // lint: time-ok (a timing probe in a test, never on a result path)
        use std::time::Instant;
        let mut rng = StdRng::seed_from_u64(41);
        let scaled_b = [10, 11].map(|log_n| {
            CkksParams::new(
                format!("HEAX-B@2^{log_n}"),
                1 << log_n,
                3,
                4,
                4,
                28,
                26,
                128,
            )
            .expect("set B's shape is valid at this degree")
        });
        let setups: Vec<_> = scaled_b
            .into_iter()
            .chain([
                CkksParams::test_small(),
                CkksParams::heax_set_a(),
                CkksParams::heax_set_b(),
            ])
            .map(|params| {
                let c = CkksContext::new(&params).expect("valid");
                let top = params.max_level();
                let key = KsKey {
                    digits: (0..params.dnum())
                        .map(|_| KsDigit {
                            b: random_ext(&c, &mut rng, top),
                            a: random_ext(&c, &mut rng, top),
                        })
                        .collect(),
                };
                (params, c, key)
            })
            .collect();
        // Per case: its label, the words it transforms, and the operation
        // on a given thread count.
        type Case<'a> = (String, usize, Box<dyn Fn(usize) + 'a>);
        let mut cases: Vec<Case<'_>> = Vec::new();
        for (params, c, key) in &setups {
            for level in 0..=params.max_level() {
                let mut poly =
                    || RnsPoly::from_limbs(random_ext(c, &mut rng, level).q_limbs, Domain::Ntt);
                let shape = KeySwitchShape::new(params, level);
                let d = poly();
                cases.push((
                    format!("{} keyswitch {level}", params.name()),
                    shape.ntt_rows() * shape.n,
                    Box::new(move |threads| {
                        std::hint::black_box(key_switch_rows(c, &shape, &d, key, threads));
                    }),
                ));
                if level > 0 && params.name() != CkksParams::test_small().name() {
                    let (p0, p1) = (poly(), poly());
                    cases.push((
                        format!("{} rescale {level}", params.name()),
                        (2 + 2 * level) * params.n(),
                        Box::new(move |threads| {
                            std::hint::black_box(rescale_rows(c, &p0, &p1, threads));
                        }),
                    ));
                }
            }
        }
        let time = |case: &Case<'_>, threads| {
            // lint: time-ok (a timing probe in a test, never on a result path)
            let t = Instant::now();
            (case.2)(threads);
            t.elapsed().as_secs_f64() * 1e6
        };
        // Per round: the probe, then per case (one-thread, two-thread) µs.
        let rounds: Vec<(f64, Vec<(f64, f64)>)> = (0..150)
            .map(|_| {
                let probe = two_thread_scaling();
                (
                    probe,
                    cases
                        .iter()
                        .map(|case| (time(case, 1), time(case, 2)))
                        .collect(),
                )
            })
            .skip(5)
            .collect();
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for (group, keep) in [("free", 1.8..9.0), ("taken", 0.0..1.2)] {
            let kept: Vec<_> = rounds.iter().filter(|r| keep.contains(&r.0)).collect();
            println!("second core {group}: {} rounds", kept.len());
            if kept.is_empty() {
                continue;
            }
            println!("shape op level words t1_us t2_us t1/t2 t2_wins");
            for (i, (label, words, _)) in cases.iter().enumerate() {
                let t1 = median(kept.iter().map(|r| r.1[i].0).collect());
                let t2 = median(kept.iter().map(|r| r.1[i].1).collect());
                let wins = kept.iter().filter(|r| r.1[i].1 < r.1[i].0).count();
                println!(
                    "{label} {words} {t1:.0} {t2:.0} {:.2} {wins}/{}",
                    t1 / t2,
                    kept.len()
                );
            }
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
