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
//! digit. After the INTT of the input into pooled rows and the in-place
//! `y`-stage of every digit, each extended limb `e` (a `q_i` or a `p_k`) is
//! finished on its own: digit by digit, the complement row at `e` is
//! converted into one pooled row, transformed with `e`'s plan and
//! multiplied into both accumulators' limb `e` while it is hot (first digit
//! writes, the rest multiply-accumulate; a digit that owns `e` multiplies
//! the input's limb). A special limb `p_k` then goes straight on into
//! ModDown — its two accumulator rows back to the coefficient domain and
//! through row `k` of ModDown's `y`-stage. The live set is one row plus two
//! accumulator limbs, each key limb is streamed exactly once, and the
//! `D × E`-limb heap block of raised digits the literal algorithm builds
//! (2 MB per HMULT at set B) never exists. ModDown then walks the `q`
//! limbs the same way: convert row `i` of each accumulator, transform it,
//! subtract-and-scale.
//!
//! **Limb jobs across cores.** Both walks — the `E` extended limbs and
//! ModDown's `m` `q` limbs — are loops of independent jobs: job `e` reads
//! only shared inputs (the input, its `y`-staged coefficients, the key, the
//! ModDown block the first walk has finished) and writes only its own
//! limb's rows. Each walk runs under one `std::thread::scope`: the caller
//! and up to `min(cores, jobs) − 1` helpers take jobs from one shared
//! queue, and every result is stored at its limb index, so the output is
//! the same at any thread count and in any claim order — the integer
//! arithmetic of a job does not know which thread runs it, and no value
//! is ever combined across jobs. (The in-crate test runs every preset
//! shape at every level on 1, 2, 3 and `E` threads against the inline run
//! and [`key_switch_literal`].) A helper that never gets a core before the
//! jobs run out costs only its spawn. Splitting pays only above a size
//! gate, measured on a 2-vCPU VM: a switch splits once it transforms
//! `2^16` words (HEAX set A's top level, set B and set C at every level)
//! and runs inline below that ([`KeySwitchShape::threads`];
//! `SPLIT_MIN_WORDS` cites the numbers). Finer jobs lose: a runner per
//! `forward_batch` call (3–4 rows, about 150 µs) pays a 22–60 µs scoped
//! spawn per call.
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
use crate::params::CkksParams;
use crate::poly::{Domain, RnsPoly};
use crate::trace::{KernelEvent, Tracing};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;
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

    /// Threads [`key_switch`] runs its two limb loops on: every core (each
    /// loop capped at its job count) once the switch transforms at least
    /// `2^16` words, one below that (module docs).
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.ntt_rows() * self.n >= SPLIT_MIN_WORDS {
            cores()
        } else {
            1
        }
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
/// emits, and the middle of every [`OpStream`] that switches keys.
#[must_use]
pub fn key_switch_events(params: &CkksParams, level: usize) -> Vec<KernelEvent> {
    KeySwitchShape::new(params, level).events()
}

/// The kernel-event stream of each CKKS operation (Algorithms 2–6) — the
/// one generator per operation. The evaluator emits `events` inside the
/// operation's scope, and `tensorfhe-core` costs the same streams, so an
/// operation's kernel sequence is written once, here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStream {
    /// HADD (Algorithm 5): one Ele-Add over both components.
    HAdd,
    /// Ciphertext subtraction and negation: one Ele-Sub over both
    /// components.
    HSub,
    /// A plaintext or constant added to `c0`: one Ele-Add over one
    /// component.
    AddPlain,
    /// CMULT (Algorithm 3) and constant multiplication: one Hada-Mult over
    /// both components.
    CMult,
    /// HMULT (Algorithm 2): the tensor step, the key switch of `d2`, the
    /// fold of the switched pair.
    HMult,
    /// RESCALE (Algorithm 6): the two top limbs back to coefficients, the
    /// lifted rows forward, the scaled subtraction.
    Rescale,
    /// HROTATE (Algorithm 4): the Frobenius map, the key switch, the add
    /// into `c0`.
    Rotate,
    /// Conjugation: HROTATE's stream with the Conjugate permutation.
    Conjugate,
}

impl OpStream {
    /// The operation's kernel events on a ciphertext at `level` of
    /// `params`.
    #[must_use]
    pub fn events(self, params: &CkksParams, level: usize) -> Vec<KernelEvent> {
        let n = params.n();
        let limbs = level + 1;
        match self {
            OpStream::HAdd => vec![KernelEvent::EleAdd {
                n,
                limbs: 2 * limbs,
            }],
            OpStream::HSub => vec![KernelEvent::EleSub {
                n,
                limbs: 2 * limbs,
            }],
            OpStream::AddPlain => vec![KernelEvent::EleAdd { n, limbs }],
            OpStream::CMult => vec![KernelEvent::HadaMult {
                n,
                limbs: 2 * limbs,
            }],
            OpStream::HMult => {
                let mut ev = vec![
                    KernelEvent::HadaMult {
                        n,
                        limbs: 4 * limbs,
                    },
                    KernelEvent::EleAdd { n, limbs },
                ];
                ev.extend(key_switch_events(params, level));
                ev.push(KernelEvent::EleAdd {
                    n,
                    limbs: 2 * limbs,
                });
                ev
            }
            OpStream::Rescale => vec![
                KernelEvent::Ntt {
                    n,
                    limbs: 2,
                    inverse: true,
                },
                KernelEvent::Ntt {
                    n,
                    limbs: 2 * level,
                    inverse: false,
                },
                KernelEvent::EleSub {
                    n,
                    limbs: 2 * level,
                },
            ],
            OpStream::Rotate | OpStream::Conjugate => {
                let limbs = 2 * limbs;
                let mut ev = vec![if self == OpStream::Rotate {
                    KernelEvent::FrobeniusMap { n, limbs }
                } else {
                    KernelEvent::Conjugate { n, limbs }
                }];
                ev.extend(key_switch_events(params, level));
                ev.push(KernelEvent::EleAdd {
                    n,
                    limbs: level + 1,
                });
                ev
            }
        }
    }
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

/// `ModDown`: divides an extended accumulator by `P`, returning a normal
/// RNS polynomial at the same level (NTT domain).
#[must_use]
pub fn mod_down(ctx: &CkksContext, tracing: &mut Tracing<'_>, acc: &ExtPoly) -> RnsPoly {
    mod_down_batch(ctx, tracing, &[acc])
        .pop()
        .expect("one input")
}

/// Batched `ModDown` of several same-level NTT-domain accumulators, through
/// the `q`-limb loop the key switch itself runs (module docs), on the
/// calling thread: the special limbs are inverse-transformed in one batch
/// per prime, then each `q` limb's converted rows are forward-transformed
/// and the scaled subtraction happens in the NTT domain.
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
    mod_down_q_limbs(ctx, &table, &mut q_parts, &p_rows, 1);
    scratch::give_u64(p_rows);
    KeySwitchShape::new(ctx.params(), l)
        .mod_down_events(accs.len())
        .for_each(|e| tracing.emit(e));
    q_parts
        .into_iter()
        .map(|limbs| RnsPoly::from_limbs(limbs, Domain::Ntt))
        .collect()
}

/// Rows the arithmetic really pushed through each kernel, counted where
/// the loops run and returned by the two private routines. The unit tests
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

/// ModDown's `q`-limb loop, one job per limb on `threads` threads: per
/// accumulator, the row converted from its y-staged special block in
/// `p_rows`, its NTT, then `(acc_i − NTT(conv_i))·P^{-1}` where `acc_i`
/// already lives.
fn mod_down_q_limbs(
    ctx: &CkksContext,
    table: &ModDownTable,
    q_parts: &mut [Vec<Vec<u64>>],
    p_rows: &[u64],
    threads: usize,
) -> RowTally {
    let n = ctx.params().n();
    let k = ctx.params().special_primes();
    let accs = q_parts.len();
    // Job i owns limb i of every accumulator.
    let mut limbs: Vec<Vec<&mut Vec<u64>>> = table
        .p_inv_mod_q
        .iter()
        .map(|_| Vec::with_capacity(accs))
        .collect();
    for part in q_parts.iter_mut() {
        for (job, limb) in limbs.iter_mut().zip(part.iter_mut()) {
            job.push(limb);
        }
    }
    let tallies = run_jobs(threads, limbs, |i, mut acc| {
        let mut row = scratch::take_dirty_u64(n);
        for (acc, y) in acc.iter_mut().zip(p_rows.chunks(k * n)) {
            table.conv.convert_row(i, y, &mut row);
            ctx.ntt_q(i).forward_batch(&mut [&mut row[..]]);
            ctx.q_mod(i)
                .sub_scale_slice(acc, &row, table.p_inv_mod_q[i]);
        }
        scratch::give_u64(row);
        RowTally {
            conv: accs,
            ntt: accs,
            sub: accs,
            ..RowTally::default()
        }
    });
    tallies
        .into_iter()
        .fold(RowTally::default(), RowTally::plus)
}

/// Fewest words a key switch transforms before its limb loops split across
/// threads, set from `split_gate_timing` (an ignored in-crate test) on a
/// 2-vCPU VM: one- against two-thread switches alternated round by round,
/// the rounds grouped by whether a two-thread probe found the second vCPU
/// free (133 rounds) or taken (145 rounds).
///
/// * Free: two threads lose below `2^15` words (0.62–0.91× at 9–25 K;
///   one outlier, set B's shape at `N = 2^11` level 0, 31 K: 1.16×), break
///   even near 36 K (1.02–1.08×), win 1.08–1.20× from 41 K to 66 K (HEAX
///   set A's top level, `2^16` words: 1.15×, 105 of 133 rounds) and
///   1.36–1.57× at set B (level 0, 123 K words: 133 of 133).
/// * Taken: 0.68–0.95× below `2^15`, 0.91–0.96× from 36 K to 98 K,
///   0.95–0.98× at set B (two level-0 shapes of 31 K and 37 K: 1.04–1.06×).
///
/// The gate is the round size past that crossover band: from `2^16` up
/// every measured shape won at least 1.15× with the core free and lost at
/// most 6 % with it taken.
const SPLIT_MIN_WORDS: usize = 1 << 16;

/// The machine's cores, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `job(i, slot_i)` once for every slot and returns the results in
/// slot order. `threads` counts the caller: above one, `threads − 1` scoped
/// helpers (never more than there are jobs) and the caller take `(i, slot)`
/// pairs from one shared queue. A result depends on its index and slot
/// alone, so the output is the same at any thread count and in any claim
/// order, and a helper that gets no core before the jobs run out costs only
/// its spawn.
fn run_jobs<S: Send, T: Send>(
    threads: usize,
    slots: Vec<S>,
    job: impl Fn(usize, S) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(slots.len());
    if workers <= 1 {
        return slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| job(i, slot))
            .collect();
    }
    let queue = Mutex::new(slots.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, before the job
            // runs, so a job's panic cannot poison the queue.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, slot)) = next else {
                return done;
            };
            done.push((i, job(i, slot)));
        }
    };
    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
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
/// each kernel: the extended-limb loop and ModDown's `q`-limb loop run as
/// jobs through [`run_jobs`], the rest on the calling thread.
fn key_switch_rows(
    ctx: &CkksContext,
    shape: &KeySwitchShape,
    d: &RnsPoly,
    ksk: &KsKey,
    threads: usize,
) -> ((RnsPoly, RnsPoly), RowTally) {
    let n = ctx.params().n();
    let (m, k, digits) = (shape.limbs(), shape.special(), shape.digits());
    let level = m - 1;
    assert_eq!(BasisConvGemm::y_stride(n), n, "N is whole column blocks");
    // One cache lookup per table per switch, not per digit use.
    let modup: Vec<Arc<ModUpTable>> = (0..digits).map(|j| ctx.modup_table(j, level)).collect();
    let moddown = ctx.moddown_table(level);
    let mut tally = RowTally::default();

    // Dcomp: the input's coefficient form in pooled rows, one INTT per
    // limb; then each digit's y-stage, once, in place on the rows it owns.
    let mut coeff = scratch::take_dirty_u64(m * n);
    for (i, (limb, row)) in d.limbs().iter().zip(coeff.chunks_mut(n)).enumerate() {
        row.copy_from_slice(limb);
        ctx.ntt_q(i).inverse_batch(&mut [row]);
        tally.intt += 1;
    }
    for t in &modup {
        t.conv
            .y_stage(&mut coeff[t.src_start * n..t.src_end * n], n);
    }

    // The special limbs of both accumulators live in a pooled block ModDown
    // reads (K rows of c0's, then K rows of c1's); job `m + kk` owns row kk
    // of each. A `q` limb's job returns its two rows, which become the
    // result's own allocations.
    let mut acc_p = scratch::take_dirty_u64(2 * k * n);
    let (p0, p1) = acc_p.split_at_mut(k * n);
    let slots = (0..m)
        .map(|_| None)
        .chain(p0.chunks_mut(n).zip(p1.chunks_mut(n)).map(Some))
        .collect();
    let ext_job = |e: usize, p_rows: Option<(&mut [u64], &mut [u64])>| {
        let (modulus, plan) = ext_prime(ctx, m, e);
        let mut tally = RowTally::default();
        // Digit by digit at limb e: a digit that owns e reads the input's
        // NTT-domain limb itself; any other converts its complement row
        // into `row` and transforms it with e's plan. Both accumulators
        // take the product while the row is hot: the first digit writes
        // them, the rest add to them.
        let mut row = scratch::take_dirty_u64(n);
        let (mut own, mut acc) = (None, p_rows);
        for (j, (t, key)) in modup.iter().zip(&ksk.digits).enumerate() {
            let x = match t.target_index(e) {
                None => d.limb(e),
                Some(target) => {
                    let y = &coeff[t.src_start * n..t.src_end * n];
                    t.conv.convert_row(target, y, &mut row);
                    plan.forward_batch(&mut [&mut row[..]]);
                    tally.conv += 1;
                    tally.ntt += 1;
                    &row[..]
                }
            };
            let (kb, ka) = (ext_limb(&key.b, m, e), ext_limb(&key.a, m, e));
            match &mut acc {
                None => {
                    let (c0, c1) =
                        own.insert((modulus.mul_to_vec(x, kb), modulus.mul_to_vec(x, ka)));
                    acc = Some((c0, c1));
                }
                Some((a0, a1)) if j == 0 => {
                    for (a, key) in [(&mut **a0, kb), (&mut **a1, ka)] {
                        a.copy_from_slice(x);
                        modulus.mul_slice(a, key);
                    }
                }
                Some((a0, a1)) => {
                    modulus.mul_acc_slice(a0, x, kb);
                    modulus.mul_acc_slice(a1, x, ka);
                }
            }
        }
        tally.mac += 2 * digits;
        scratch::give_u64(row);

        // A special limb goes on into ModDown while it is hot: back to the
        // coefficient domain, then its row of the y-stage.
        if let (Some(kk), Some((a0, a1))) = (e.checked_sub(m), acc) {
            plan.inverse_batch(&mut [&mut *a0, &mut *a1]);
            tally.intt += 2;
            moddown.conv.y_stage_row(kk, a0);
            moddown.conv.y_stage_row(kk, a1);
        }
        (own, tally)
    };
    let limbs = run_jobs(threads, slots, ext_job);
    scratch::give_u64(coeff);

    let mut acc_q = [Vec::with_capacity(m), Vec::with_capacity(m)];
    for (own, limb) in limbs {
        tally = tally.plus(limb);
        if let Some((c0, c1)) = own {
            acc_q[0].push(c0);
            acc_q[1].push(c1);
        }
    }
    // Both accumulators ModDown together (two rows per modulus).
    let down = mod_down_q_limbs(ctx, &moddown, &mut acc_q, &acc_p, threads);
    scratch::give_u64(acc_p);
    let [c0, c1] = acc_q.map(|limbs| RnsPoly::from_limbs(limbs, Domain::Ntt));
    ((c0, c1), tally.plus(down))
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
        use std::time::Instant;
        let spin = || {
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            for i in 0..2_000_000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
            }
            std::hint::black_box(x)
        };
        let t = Instant::now();
        spin();
        let one = t.elapsed().as_secs_f64();
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
        // shape once on one thread and once on two, after a two-thread
        // scaling probe; rounds are grouped by the probe (second core free
        // at >= 1.8, taken at <= 1.2), and each group reports per shape the
        // median one- and two-thread times and how often two threads won.
        // HEAX set B's shape also runs at N = 2^10 and 2^11 to fill in the
        // small sizes.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
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
        let cases: Vec<_> = setups
            .iter()
            .flat_map(|(params, c, key)| {
                (0..=params.max_level()).map(move |level| (params, c, key, level))
            })
            .map(|(params, c, key, level)| {
                let d = RnsPoly::from_limbs(random_ext(c, &mut rng, level).q_limbs, Domain::Ntt);
                (params, c, key, KeySwitchShape::new(params, level), d)
            })
            .collect();
        let time = |(_, c, key, shape, d): &(_, &CkksContext, &KsKey, KeySwitchShape, RnsPoly),
                    threads| {
            let t = Instant::now();
            std::hint::black_box(key_switch_rows(c, shape, d, key, threads));
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
            println!("shape level words t1_us t2_us t1/t2 t2_wins");
            for (i, (params, _, _, shape, _)) in cases.iter().enumerate() {
                let t1 = median(kept.iter().map(|r| r.1[i].0).collect());
                let t2 = median(kept.iter().map(|r| r.1[i].1).collect());
                let wins = kept.iter().filter(|r| r.1[i].1 < r.1[i].0).count();
                println!(
                    "{} {} {} {t1:.0} {t2:.0} {:.2} {wins}/{}",
                    params.name(),
                    shape.limbs() - 1,
                    shape.ntt_rows() * shape.n,
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
