//! `eval_butterfly` / `eval_gemm`: real ciphertexts through
//! `ckks::Evaluator` at HEAX set B (N = 2^13, L = 3, dnum = 4).
//!
//! One round is the depth-1 circuit
//! `hrotate(hadd(rescale(hmult(a, b)), rescale(cmult(a, pt))), 1)` on
//! top-level inputs: 6 FHE ops. The two workloads differ only in the NTT
//! formulation the context is built with; every formulation is
//! bit-identical, so `eval_gemm`'s result must equal the butterfly result.

use crate::emit::Fnv;
use crate::probes::{self, ConvSet, Roofline, REPS};
use crate::run::{Report, RoundOut, Spec, Workload, CHECKED_ROUNDS};
use crate::span::{self_times_ns, Recorder};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use tensorfhe_ckks::keyswitch::{key_switch, mod_down_batch, mod_up, ExtPoly};
use tensorfhe_ckks::trace::{RecordingTracer, Tracing};
use tensorfhe_ckks::{
    Ciphertext, CkksContext, CkksError, CkksParams, Domain, Evaluator, KernelEvent, KeyChain,
    Plaintext, RnsPoly,
};
use tensorfhe_math::{scratch, Complex64};
use tensorfhe_ntt::{NttAlgorithm, NttBatchOps, PlanCache};

/// FHE ops in one round of the circuit.
const OPS_PER_ROUND: u64 = 6;
/// Input pairs prepared at set-up; round `i` uses pair `i mod POOL`.
const POOL: usize = 2;
/// Every this-many rounds the result is decrypted and compared slot-wise.
const DECRYPT_EVERY: usize = 16;
/// Slot-wise tolerance of the decrypt oracle, on results of magnitude ≤ 4
/// at a 2^24 scale: a wrong circuit misses by O(1) on most slots.
const TOL_RMS: f64 = 0.01;
const TOL_MAX: f64 = 0.25;
/// Rows per batched NTT call in the evaluator's key switch at dnum = 4.
const NTT_PROBE_ROWS: usize = 4;

struct Input {
    a: Ciphertext,
    b: Ciphertext,
    pt: Plaintext,
    values: Vec<Complex64>,
    /// The circuit's plaintext result: `2·a·b`, rotated left by one slot.
    want: Vec<Complex64>,
}

/// The `eval_*` workload state.
pub struct Eval {
    spec: Spec,
    algo: NttAlgorithm,
    seed: u64,
    // The key chain and evaluator borrow the context for as long as they
    // live; each set-up leaks its context to give them `'static`.
    ctx: &'static CkksContext,
    keys: KeyChain<'static>,
    eval: Evaluator<'static>,
    inputs: Vec<Input>,
    done: usize,
    last: Option<Result<Ciphertext, CkksError>>,
    first: Option<Ciphertext>,
    /// Digest of each pool input's result, from its first checked round.
    result_digests: [Option<u64>; POOL],
    scratch_before: usize,
}

fn leak_context(algo: NttAlgorithm) -> &'static CkksContext {
    let params = CkksParams::heax_set_b();
    Box::leak(Box::new(
        CkksContext::with_algorithm(&params, algo).expect("HEAX set B is a valid preset"),
    ))
}

/// Keys exactly as set-up generates them, so a second context can rebuild
/// the same chain from the seed.
fn keygen(ctx: &'static CkksContext, rng: &mut StdRng) -> KeyChain<'static> {
    let mut keys = KeyChain::generate(ctx, rng);
    keys.gen_rotation_keys(&[1], rng);
    keys
}

fn random_slots(rng: &mut StdRng, slots: usize) -> Vec<Complex64> {
    (0..slots)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// The round's circuit, one leaf span per evaluator call.
fn circuit(
    eval: &mut Evaluator<'_>,
    keys: &KeyChain<'_>,
    inp: &Input,
    rec: &mut Recorder,
) -> Result<Ciphertext, CkksError> {
    let m = rec.leaf("ckks.hmult", || eval.hmult(&inp.a, &inp.b, keys))?;
    let m = rec.leaf("ckks.rescale", || eval.rescale(&m))?;
    let c = rec.leaf("ckks.cmult", || eval.cmult(&inp.a, &inp.pt))?;
    let c = rec.leaf("ckks.rescale", || eval.rescale(&c))?;
    let s = rec.leaf("ckks.hadd", || eval.hadd(&m, &c))?;
    rec.leaf("ckks.hrotate", || eval.hrotate(&s, 1, keys))
}

fn same_ciphertext(x: &Ciphertext, y: &Ciphertext) -> bool {
    x.scale.to_bits() == y.scale.to_bits() && x.c0 == y.c0 && x.c1 == y.c1
}

fn fold_ciphertext(h: &mut Fnv, ct: &Ciphertext) {
    h.float(ct.scale);
    for poly in [&ct.c0, &ct.c1] {
        for limb in poly.limbs() {
            limb.iter().for_each(|&w| h.word(w));
        }
    }
}

fn scratch_buffers() -> usize {
    let s = scratch::thread_stats();
    s.u64_buffers + s.u128_buffers
}

impl Eval {
    /// Context, keys, rotation key and the encrypted input pool.
    pub fn setup(gemm: bool, seed: u64) -> Self {
        let (name, algo, warmup, rounds) = if gemm {
            (crate::catalog::EVAL_GEMM, NttAlgorithm::FourStep, 5, 100)
        } else {
            (
                crate::catalog::EVAL_BUTTERFLY,
                NttAlgorithm::Butterfly,
                20,
                480,
            )
        };
        let ctx = leak_context(algo);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = keygen(ctx, &mut rng);
        let slots = ctx.params().slots();
        let scale = ctx.params().scale();
        let inputs = (0..POOL)
            .map(|_| {
                let values = random_slots(&mut rng, slots);
                let other = random_slots(&mut rng, slots);
                let want = (0..slots)
                    .map(|i| {
                        let j = (i + 1) % slots;
                        let p = values[j] * other[j];
                        p + p
                    })
                    .collect();
                let pa = ctx.encode(&values, scale).expect("slot count fits");
                let pt = ctx.encode(&other, scale).expect("slot count fits");
                Input {
                    a: keys.encrypt(&pa, &mut rng),
                    b: keys.encrypt(&pt, &mut rng),
                    pt,
                    values,
                    want,
                }
            })
            .collect();
        Self {
            spec: Spec {
                name,
                warmup,
                period: 1,
                rounds,
            },
            algo,
            seed,
            ctx,
            keys,
            eval: Evaluator::new(ctx),
            inputs,
            done: 0,
            last: None,
            first: None,
            result_digests: [None; POOL],
            scratch_before: 0,
        }
    }

    /// Decrypts, decodes and compares with the plaintext circuit.
    fn decrypt_matches(&self, ct: &Ciphertext, want: &[Complex64]) -> bool {
        let Ok(got) = self.ctx.decode(&self.keys.decrypt(ct)) else {
            return false;
        };
        let (mut sum_sq, mut worst) = (0.0f64, 0.0f64);
        for (g, w) in got.iter().zip(want) {
            let d = *g - *w;
            let e2 = d.re * d.re + d.im * d.im;
            sum_sq += e2;
            worst = worst.max(e2.sqrt());
        }
        got.len() == want.len()
            && (sum_sq / want.len() as f64).sqrt() <= TOL_RMS
            && worst <= TOL_MAX
    }

    /// Exact event counts of one round, from the evaluator's own tracer.
    fn round_events(&self) -> Vec<KernelEvent> {
        let mut tracer = RecordingTracer::new();
        {
            let mut eval = Evaluator::with_tracer(self.ctx, Box::new(&mut tracer));
            circuit(
                &mut eval,
                &self.keys,
                &self.inputs[0],
                &mut Recorder::new(false),
            )
            .expect("the circuit ran in every timed round");
        }
        tracer.events
    }
}

/// Event totals by kind, the `count` side of the reconciliation.
#[derive(Debug, Default, Clone, Copy)]
struct EventTotals {
    ntt_rows: usize,
    intt_rows: usize,
    conv_elems: usize,
    hada_limbs: usize,
    addsub_limbs: usize,
    frobenius_limbs: usize,
}

fn totals(events: &[KernelEvent]) -> EventTotals {
    let mut t = EventTotals::default();
    for e in events {
        match *e {
            KernelEvent::Ntt {
                limbs,
                inverse: false,
                ..
            } => t.ntt_rows += limbs,
            KernelEvent::Ntt {
                limbs,
                inverse: true,
                ..
            } => t.intt_rows += limbs,
            KernelEvent::Conv { n, l_dst, .. } => t.conv_elems += n * l_dst,
            KernelEvent::HadaMult { limbs, .. } => t.hada_limbs += limbs,
            KernelEvent::EleAdd { limbs, .. } | KernelEvent::EleSub { limbs, .. } => {
                t.addsub_limbs += limbs
            }
            KernelEvent::FrobeniusMap { limbs, .. } | KernelEvent::Conjugate { limbs, .. } => {
                t.frobenius_limbs += limbs;
            }
        }
    }
    t
}

impl Workload for Eval {
    fn spec(&self) -> Spec {
        self.spec
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        if self.done == self.spec.warmup {
            self.scratch_before = scratch_buffers();
        }
        let inp = &self.inputs[self.done % POOL];
        rec.begin("round");
        let out = circuit(&mut self.eval, &self.keys, inp, rec);
        rec.end();
        let failed = if out.is_ok() { 0 } else { OPS_PER_ROUND };
        self.last = Some(out);
        RoundOut {
            ops: OPS_PER_ROUND,
            failed,
        }
    }

    fn check(&mut self) -> u64 {
        let idx = self.done;
        self.done += 1;
        let Some(Ok(ct)) = self.last.take() else {
            return 0; // already counted as failed by `round`
        };
        let mut wrong = false;
        if idx.is_multiple_of(DECRYPT_EVERY) {
            wrong |= !self.decrypt_matches(&ct, &self.inputs[idx % POOL].want);
        }
        let timed = idx.checked_sub(self.spec.warmup);
        if timed.is_some_and(|t| t < CHECKED_ROUNDS) {
            // The same input must give the very same ciphertext every round.
            let mut h = Fnv::default();
            fold_ciphertext(&mut h, &ct);
            wrong |= *self.result_digests[idx % POOL].get_or_insert(h.0) != h.0;
        }
        if idx == 0 {
            self.first = Some(ct);
        }
        if wrong {
            OPS_PER_ROUND
        } else {
            0
        }
    }

    fn snapshot(&mut self, out: &mut Report) {
        // In input order, so both evaluator workloads digest the same thing
        // whatever their warm-up lengths.
        let mut h = Fnv::default();
        for d in self.result_digests {
            h.word(d.expect("the checked rounds cover every pool input"));
        }
        out.digests.push(("ct_digest", h.0));
        out.set(
            "math.scratch_grows",
            scratch_buffers().saturating_sub(self.scratch_before) as f64,
        );
    }

    fn finish(&mut self, out: &mut Report) {
        let params = self.ctx.params();
        let plans = (0..=params.max_level())
            .map(|i| self.ctx.ntt_q(i))
            .chain((0..params.special_primes()).map(|k| self.ctx.ntt_p(k)));
        if plans.into_iter().any(|plan| plan.algorithm() != self.algo) {
            out.fail(format!("a limb is not transformed by {:?}", self.algo));
        }
        if self.algo == NttAlgorithm::Butterfly {
            return;
        }
        // All formulations are bit-identical: the same seed's keys on a
        // butterfly context must produce the very same ciphertext.
        let ctx = leak_context(NttAlgorithm::Butterfly);
        let keys = keygen(ctx, &mut StdRng::seed_from_u64(self.seed));
        let reference = circuit(
            &mut Evaluator::new(ctx),
            &keys,
            &self.inputs[0],
            &mut Recorder::new(false),
        );
        match (&reference, &self.first) {
            (Ok(r), Some(f)) if same_ciphertext(r, f) => {
                out.note(
                    "oracle: round 0 is bit-equal to the butterfly evaluator on the same seed"
                        .into(),
                );
            }
            _ => out.fail("eval_gemm's result differs from the butterfly evaluator's".into()),
        }
    }

    fn layers(&mut self, rec: &mut Recorder, round_ms_p50: f64, out: &mut Report) {
        let ctx = self.ctx;
        let params = ctx.params().clone();
        let n = params.n();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);

        // Op spans of the traced rounds, and what the round adds on top.
        for (metric, span) in [
            ("ckks.hmult_ms", "ckks.hmult"),
            ("ckks.hrotate_ms", "ckks.hrotate"),
            ("ckks.rescale_ms", "ckks.rescale"),
            ("ckks.cmult_ms", "ckks.cmult"),
            ("ckks.hadd_ms", "ckks.hadd"),
        ] {
            out.set(metric, median(&rec.durations_ms(span)));
        }
        let own = self_times_ns(rec.spans());
        let (mut round_ns, mut glue_ns) = (0u64, 0u64);
        for (s, own_ns) in rec.spans().iter().zip(&own) {
            if s.name == "round" {
                round_ns += s.dur_ns();
                glue_ns += own_ns;
            }
        }
        out.set(
            "ckks.round_recon_residual",
            glue_ns as f64 / round_ns as f64,
        );

        // Constituents of HMULT's key switch, replayed on round 0's inputs.
        let inp = &self.inputs[0];
        let mut d2 = inp.a.c1.clone();
        d2.hada_assign(ctx, &inp.b.c1);
        let relin = self.keys.relin_key();
        let digits = relin.digits.len();
        let silent = || Tracing::new(None);
        let ks = probes::timed(rec, "ckks.keyswitch", || {
            black_box(key_switch(ctx, &mut silent(), &d2, relin));
        });
        out.set("ckks.keyswitch_ms", ks * 1e3);
        let inv = probes::timed_with(
            rec,
            "ckks.ks_ntt_inv",
            || d2.clone(),
            |mut d| RnsPoly::ntt_inverse_batch(ctx, &mut [&mut d]),
        );
        out.set("ckks.ks_ntt_inv_ms", inv * 1e3);
        let mut d_coeff = d2.clone();
        d_coeff.ntt_inverse(ctx);
        let up = probes::timed(rec, "ckks.modup", || {
            for j in 0..digits {
                black_box(mod_up(ctx, &mut silent(), &d_coeff, j));
            }
        });
        out.set("ckks.modup_ms", up * 1e3);
        let exts: Vec<ExtPoly> = (0..digits)
            .map(|j| mod_up(ctx, &mut silent(), &d_coeff, j))
            .collect();
        let fwd = probes::timed_with(
            rec,
            "ckks.ks_ntt_fwd",
            || exts.clone(),
            |mut e| ExtPoly::ntt_forward_batch(ctx, &mut e),
        );
        out.set("ckks.ks_ntt_fwd_ms", fwd * 1e3);
        let mut exts_ntt = exts;
        ExtPoly::ntt_forward_batch(ctx, &mut exts_ntt);
        let level = d2.level();
        let mut accs = [
            ExtPoly::zero(ctx, level, Domain::Ntt),
            ExtPoly::zero(ctx, level, Domain::Ntt),
        ];
        let mac = probes::timed(rec, "ckks.ks_mulacc", || {
            for (ext, key) in exts_ntt.iter().zip(&relin.digits) {
                accs[0].mul_acc(ctx, ext, &key.b);
                accs[1].mul_acc(ctx, ext, &key.a);
            }
        });
        out.set("ckks.ks_mulacc_ms", mac * 1e3);
        let down = probes::timed(rec, "ckks.moddown", || {
            black_box(mod_down_batch(ctx, &mut silent(), &[&accs[0], &accs[1]]));
        });
        out.set("ckks.moddown_ms", down * 1e3);
        let limbs = inp.a.c0.level() + 1;
        let mut poly = inp.a.c0.clone();
        let hada = probes::timed(rec, "ckks.hada", || poly.hada_assign(ctx, &inp.b.c0));
        out.set("ckks.hada_ms", hada * 1e3);
        let add = probes::timed(rec, "ckks.eleadd", || poly.add_assign(ctx, &inp.b.c0));
        let tables = ctx.galois_tables(ctx.galois_element(1));
        let frob = probes::timed(rec, "ckks.frobenius", || {
            black_box(inp.a.c0.automorphism_ntt(&tables));
        });

        // Client side: what a user pays once per key set or per message.
        let algo = self.algo;
        let t = probes::timed(rec, "ckks.context", || {
            black_box(CkksContext::with_algorithm(&params, algo).expect("valid preset"));
        });
        out.set("ckks.context_ms", t * 1e3);
        let mut chains: Vec<KeyChain<'static>> = Vec::with_capacity(REPS + 1);
        let t = probes::timed(rec, "ckks.keygen", || {
            chains.push(KeyChain::generate(ctx, &mut rng))
        });
        out.set("ckks.keygen_ms", t * 1e3);
        let mut rot_rng = StdRng::seed_from_u64(self.seed ^ 0x707);
        let t = probes::timed_with(
            rec,
            "ckks.rotkeygen",
            || chains.pop().expect("one chain per repetition"),
            |mut chain| chain.gen_rotation_keys(&[1], &mut rot_rng),
        );
        out.set("ckks.rotkeygen_ms", t * 1e3);
        let scale = params.scale();
        let t = probes::timed(rec, "ckks.encode", || {
            black_box(ctx.encode(&inp.values, scale).expect("slot count fits"));
        });
        out.set("ckks.encode_ms", t * 1e3);
        let t = probes::timed(rec, "ckks.encrypt", || {
            black_box(self.keys.encrypt(&inp.pt, &mut rng));
        });
        out.set("ckks.encrypt_ms", t * 1e3);
        let t = probes::timed(rec, "ckks.decrypt", || {
            black_box(self.keys.decrypt(&inp.a));
        });
        out.set("ckks.decrypt_ms", t * 1e3);
        let plain = self.keys.decrypt(&inp.a);
        let t = probes::timed(rec, "ckks.decode", || {
            black_box(ctx.decode(&plain).expect("well-formed plaintext"));
        });
        out.set("ckks.decode_ms", t * 1e3);

        // Exact event counts of one round.
        let events = self.round_events();
        let tot = totals(&events);
        out.set("ckks.events_per_round", events.len() as f64);
        out.set(
            "ckks.ntt_rows_per_round",
            (tot.ntt_rows + tot.intt_rows) as f64,
        );
        out.set("ckks.conv_elems_per_round", tot.conv_elems as f64);

        // The ntt and math kernels under the evaluator, and the roofline.
        let mut roofline = Roofline::default();
        let q0 = ctx.q_primes()[0];
        let plan = PlanCache::global().get(n, q0, algo);
        let (fwd_rate, inv_rate) = if algo == NttAlgorithm::Butterfly {
            let names = ("ntt.butterfly_fwd_rows_s", "ntt.butterfly_inv_rows_s");
            probes::ntt_pair(rec, out, names, &plan, NTT_PROBE_ROWS, false, &mut rng)
        } else {
            let names = ("ntt.fourstep_fwd_rows_s", "ntt.fourstep_inv_rows_s");
            let rates = probes::ntt_pair(rec, out, names, &plan, NTT_PROBE_ROWS, false, &mut rng);
            let (fast, _) = probes::ntt_pair(
                rec,
                out,
                probes::FAST_NAMES,
                &plan,
                probes::EXECUTOR_CHUNK_ROWS,
                true,
                &mut rng,
            );
            let tc = PlanCache::global().get(n, q0, NttAlgorithm::TensorCore);
            let tc_rate = probes::ntt_rows_per_s(
                rec,
                "ntt.tensorcore_fwd",
                &tc,
                NTT_PROBE_ROWS,
                &mut rng,
                |p, r| {
                    p.forward_batch(r);
                },
            );
            out.set("ntt.tensorcore_fwd_rows_s", tc_rate);
            probes::plan_build_ms(rec, out, n, q0);
            roofline.ntt_row("ntt four-step forward (Barrett GEMMs)", n, rates.0);
            roofline.ntt_row("ntt four-step forward (Montgomery fast)", n, fast);
            rates
        };
        probes::barrett_mul(rec, out, n, q0, &mut rng);
        let set = ConvSet::new(ctx.q_primes(), ctx.p_primes(), n);
        let conv_rate = probes::bconv_barrett(rec, out, &set, &mut rng);
        let (macs, bytes) = set.work();
        let secs = set.out_elems() as f64 / conv_rate / 1e6;
        roofline.row("bconv_barrett key-switch set", macs, bytes, secs);

        // Reconciliation: probe time per unit × exact event count.
        let parts = [
            ("ntt", tot.ntt_rows as f64 / fwd_rate),
            ("intt", tot.intt_rows as f64 / inv_rate),
            ("conv", tot.conv_elems as f64 / (conv_rate * 1e6)),
            ("hada", tot.hada_limbs as f64 * hada / limbs as f64),
            ("add/sub", tot.addsub_limbs as f64 * add / limbs as f64),
            (
                "frobenius",
                tot.frobenius_limbs as f64 * frob / limbs as f64,
            ),
        ];
        let predicted_ms: f64 = parts.iter().map(|(_, s)| s * 1e3).sum();
        let ntt_share = (parts[0].1 + parts[1].1) * 1e3 / round_ms_p50;
        if algo == NttAlgorithm::FourStep && ntt_share <= 0.5 {
            out.fail(format!(
                "eval_gemm is meant to be NTT-bound, the NTT share is {ntt_share:.2}"
            ));
        }
        let residual = 1.0 - predicted_ms / round_ms_p50;
        out.set("bench.recon_residual", residual);
        let shares: Vec<String> = parts
            .iter()
            .map(|(kind, s)| {
                format!(
                    "{kind} {:.3} ms ({:.0} %)",
                    s * 1e3,
                    100.0 * s * 1e3 / round_ms_p50
                )
            })
            .collect();
        out.note(format!(
            "reconciliation {}: predicted {predicted_ms:.3} ms = {} vs round_ms_p50 {:.3} ms, residual {:.1} %",
            self.spec.name,
            shares.join(" + "),
            round_ms_p50,
            100.0 * residual,
        ));
        roofline.report(rec, out);
    }
}
