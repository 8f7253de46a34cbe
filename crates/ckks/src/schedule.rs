//! The slim-bootstrap costing (Fig. 6), composed from the per-operation
//! kernel streams.
//!
//! Every CKKS operation's stream has one generator, [`FheOp::events`],
//! which the evaluator emits and `tensorfhe-core` costs. This module
//! builds what has no single evaluator op — the BSGS linear transforms,
//! the factorized DFT, the sine evaluation and the bootstrap around them —
//! from `(N, L, dnum, K)` alone, calling the generators wherever a step is
//! one of those operations; [`FheOp::Bootstrap`]'s stream is
//! [`bootstrap_schedule`]. The key switch inside every rotation and
//! multiplication is the NTT-lean form of [`crate::keyswitch`]
//! (`D·E + 2K + 2m` rows per switch).

use crate::ops::FheOp;
use crate::{CkksParams, KernelEvent};

/// One BSGS linear-transform stage over `diags` generalized diagonals at
/// `level` (Fig. 6's "BSGS" boxes): baby rotations, per-diagonal CMULTs and
/// additions, giant rotations, and the final rescale.
fn bsgs_stage_schedule(params: &CkksParams, level: usize, diags: usize) -> Vec<KernelEvent> {
    let n1 = (diags as f64).sqrt().ceil() as usize;
    let n2 = diags.div_ceil(n1);
    let mut ev = Vec::new();
    // Baby rotations (j = 1..n1).
    for _ in 1..n1 {
        ev.extend(FheOp::HRotate.events(params, level));
    }
    // Per-diagonal multiply-accumulate.
    ev.push(KernelEvent::HadaMult {
        n: params.n(),
        limbs: 2 * (level + 1) * diags,
    });
    ev.push(KernelEvent::EleAdd {
        n: params.n(),
        limbs: 2 * (level + 1) * diags.saturating_sub(n2).max(1),
    });
    // Giant rotations (i = 1..n2).
    for _ in 1..n2 {
        ev.extend(FheOp::HRotate.events(params, level));
    }
    ev.extend(FheOp::Rescale.events(params, level));
    ev
}

/// A full dense transform over all `N/2` slots, as a single BSGS stage.
fn bsgs_transform_schedule(params: &CkksParams, level: usize) -> Vec<KernelEvent> {
    bsgs_stage_schedule(params, level, params.slots())
}

/// Radix of the factorized homomorphic DFT (Cheon–Han–Hhan, the paper's
/// "Faster Homomorphic DFT" — §IV-A): the dense N/2-point transform splits
/// into `⌈log_r(N/2)⌉` sparse stages of `2r−1` diagonals each, cutting
/// rotations from `O(√(N/2))` to `O(log N · √r)` at the cost of one level
/// per stage.
const DFT_RADIX: usize = 32;

/// Levels one factorized DFT transform consumes: one per sparse stage, or
/// one for the dense transform of a small slot count.
fn dft_stages(params: &CkksParams) -> usize {
    let slots = params.slots();
    if slots <= DFT_RADIX * 2 {
        return 1;
    }
    slots.ilog2().div_ceil(DFT_RADIX.ilog2()) as usize
}

/// A factorized DFT transform; returns the events and the number of levels
/// it consumes (`stages`).
fn faster_dft_schedule(params: &CkksParams, level: usize) -> (Vec<KernelEvent>, usize) {
    if params.slots() <= DFT_RADIX * 2 {
        return (bsgs_transform_schedule(params, level), 1);
    }
    let stages = dft_stages(params);
    let mut ev = Vec::new();
    let mut l = level;
    for _ in 0..stages {
        ev.extend(bsgs_stage_schedule(params, l, 2 * DFT_RADIX - 1));
        l -= 1;
    }
    (ev, stages)
}

/// The chain depth `L` a bootstrap with these sine parameters needs:
/// CoeffToSlot and SlotToCoeff consume one factorized DFT's levels each,
/// the sine evaluation `taylor_degree + double_angles + 2`, and two more
/// levels are spent around them.
#[must_use]
pub fn bootstrap_depth(params: &CkksParams, taylor_degree: usize, double_angles: usize) -> usize {
    taylor_degree + double_angles + 2 + 2 * dft_stages(params) + 2
}

/// The slim-bootstrap schedule (Fig. 6): CoeffToSlot (4 BSGS transforms +
/// conjugation), two sine evaluations, SlotToCoeff (2 BSGS transforms).
///
/// # Panics
///
/// Panics when the chain is shallower than [`bootstrap_depth`].
#[must_use]
pub(crate) fn bootstrap_schedule(
    params: &CkksParams,
    taylor_degree: usize,
    double_angles: usize,
) -> Vec<KernelEvent> {
    let top = params.max_level();
    let need = bootstrap_depth(params, taylor_degree, double_angles);
    assert!(
        top >= need,
        "bootstrap needs L ≥ {need} (CoeffToSlot + sine + SlotToCoeff), have {top}"
    );
    let mut ev = Vec::new();
    let mut level = top;

    // ModRaise: INTT at level 0, NTT at the top of the chain.
    ev.push(KernelEvent::Ntt {
        n: params.n(),
        limbs: 2,
        inverse: true,
    });
    ev.push(KernelEvent::Ntt {
        n: params.n(),
        limbs: 2 * (top + 1),
        inverse: false,
    });

    // CoeffToSlot: conjugation + 4 factorized transforms + 2 additions.
    ev.extend(FheOp::Conjugate.events(params, level));
    let mut stages = 1;
    for _ in 0..4 {
        let (t, st) = faster_dft_schedule(params, level);
        ev.extend(t);
        stages = st;
    }
    ev.push(KernelEvent::EleAdd {
        n: params.n(),
        limbs: 4 * level,
    });
    level -= stages;

    // Two sine evaluations, one per coefficient half; they run on parallel
    // ciphertexts at the same starting level.
    let mut after_sine = level;
    for _ in 0..2 {
        after_sine = sine_schedule(params, level, taylor_degree, double_angles, &mut ev);
    }
    level = after_sine;

    // SlotToCoeff recombination: 2 factorized transforms + addition.
    for _ in 0..2 {
        let (t, _) = faster_dft_schedule(params, level);
        ev.extend(t);
    }
    ev.push(KernelEvent::EleAdd {
        n: params.n(),
        limbs: 2 * level,
    });
    ev
}

/// Sine-evaluation schedule; returns the level after evaluation.
fn sine_schedule(
    params: &CkksParams,
    start_level: usize,
    taylor_degree: usize,
    double_angles: usize,
    ev: &mut Vec<KernelEvent>,
) -> usize {
    let mut level = start_level;
    // Fold constant.
    ev.extend(FheOp::CMult.events(params, level));
    ev.extend(FheOp::Rescale.events(params, level));
    level -= 1;
    // Initial Taylor constant multiply, then the constant term.
    ev.extend(FheOp::CMult.events(params, level));
    ev.extend(FheOp::Rescale.events(params, level));
    level -= 1;
    ev.extend(FheOp::AddPlain.events(params, level));
    // Horner multiplications, each followed by its constant term.
    for _ in 0..taylor_degree.saturating_sub(1) {
        ev.extend(FheOp::HMult.events(params, level));
        ev.extend(FheOp::Rescale.events(params, level));
        level -= 1;
        ev.extend(FheOp::AddPlain.events(params, level));
    }
    // Double-angle squarings.
    for _ in 0..double_angles {
        ev.extend(FheOp::HMult.events(params, level));
        ev.extend(FheOp::Rescale.events(params, level));
        level -= 1;
    }
    // Conjugate, subtract, final complex constant multiply.
    ev.extend(FheOp::Conjugate.events(params, level));
    ev.extend(FheOp::HSub.events(params, level));
    ev.extend(FheOp::CMult.events(params, level));
    ev.extend(FheOp::Rescale.events(params, level));
    level - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyswitch::key_switch_events;
    use crate::trace::RecordingTracer;
    use crate::{CkksContext, Evaluator, KeyChain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensorfhe_math::Complex64;

    /// Capture the real kernel trace of an operation at toy parameters.
    fn capture(op: FheOp) -> (CkksParams, Vec<KernelEvent>) {
        let params = CkksParams::toy();
        let ctx = CkksContext::new(&params).expect("ctx");
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys = KeyChain::generate(&ctx, &mut rng);
        keys.gen_rotation_keys(&[1], &mut rng);
        let pt = ctx
            .encode(&[Complex64::new(0.5, 0.0)], params.scale())
            .expect("encode");
        let ct = keys.encrypt(&pt, &mut rng);

        let mut rec = RecordingTracer::new();
        {
            let mut eval = Evaluator::with_tracer(&ctx, Box::new(&mut rec));
            match op {
                FheOp::HMult => {
                    let _ = eval.hmult(&ct, &ct, &keys).expect("hmult");
                }
                FheOp::HAdd => {
                    let _ = eval.hadd(&ct, &ct).expect("hadd");
                }
                FheOp::CMult => {
                    let _ = eval.cmult(&ct, &pt).expect("cmult");
                }
                FheOp::Rescale => {
                    let prod = eval.hmult(&ct, &ct, &keys).expect("hmult");
                    let _ = eval.rescale(&prod).expect("rescale");
                }
                FheOp::HRotate => {
                    let _ = eval.hrotate(&ct, 1, &keys).expect("rotate");
                }
                other => panic!("no capture for {other:?}"),
            }
        }
        (params, rec.events)
    }

    #[test]
    fn hmult_schedule_matches_real_trace() {
        let (params, real) = capture(FheOp::HMult);
        let synth = FheOp::HMult.events(&params, params.max_level());
        assert_eq!(synth, real);
    }

    #[test]
    fn hadd_schedule_matches_real_trace() {
        let (params, real) = capture(FheOp::HAdd);
        assert_eq!(FheOp::HAdd.events(&params, params.max_level()), real);
    }

    #[test]
    fn cmult_schedule_matches_real_trace() {
        let (params, real) = capture(FheOp::CMult);
        assert_eq!(FheOp::CMult.events(&params, params.max_level()), real);
    }

    #[test]
    fn hrotate_schedule_matches_real_trace() {
        let (params, real) = capture(FheOp::HRotate);
        assert_eq!(FheOp::HRotate.events(&params, params.max_level()), real);
    }

    #[test]
    fn rescale_schedule_matches_real_trace() {
        // The capture records the setup HMULT first; slice its events off.
        let (params, real) = capture(FheOp::Rescale);
        let hmult_len = FheOp::HMult.events(&params, params.max_level()).len();
        let real_rescale = &real[hmult_len..];
        assert_eq!(
            FheOp::Rescale.events(&params, params.max_level()),
            real_rescale
        );
    }

    #[test]
    fn partial_digit_keyswitch_counts() {
        // At a level where the last digit is partial, the Conv source width
        // shrinks (Dcomp covers only active limbs).
        let params = CkksParams::test_small(); // L=7, α=2
        let ev = key_switch_events(&params, 4); // limbs=5 → digits=3, last src=1
        let convs: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                KernelEvent::Conv { l_src, .. } => Some(*l_src),
                _ => None,
            })
            .collect();
        assert_eq!(&convs[..3], &[2, 2, 1], "digit widths at level 4");
    }

    #[test]
    fn key_switch_ntt_rows_follow_the_lean_formula_at_every_preset() {
        // Every op that key-switches transforms D·E + 2K + 2m rows for it
        // (m = l+1, E = m+K, D = ⌈m/α⌉) — not the literal Algorithm 1's
        // m + D·E + 2E + 2m: HMULT at HEAX set B is 48 rows, not 60.
        let ntt_rows = |ev: &[KernelEvent]| -> usize {
            ev.iter()
                .map(|e| match *e {
                    KernelEvent::Ntt { limbs, .. } => limbs,
                    _ => 0,
                })
                .sum()
        };
        for params in [
            CkksParams::table_v_default(),
            CkksParams::table_v_resnet20(),
            CkksParams::table_v_lr(),
            CkksParams::table_v_lstm(),
            CkksParams::table_v_packed_boot(),
            CkksParams::table_vii_bootstrap(),
            CkksParams::heax_set_a(),
            CkksParams::heax_set_b(),
            CkksParams::heax_set_c(),
        ] {
            for level in [0, params.max_level() / 2, params.max_level()] {
                let (m, k) = (level + 1, params.special_primes());
                let lean = m.div_ceil(params.alpha()) * (m + k) + 2 * k + 2 * m;
                for op in [FheOp::HMult, FheOp::HRotate, FheOp::Conjugate] {
                    let ev = op.events(&params, level);
                    assert_eq!(ntt_rows(&ev), lean, "{} level {level}", params.name());
                }
            }
        }
        let set_b = CkksParams::heax_set_b();
        let hmult = FheOp::HMult.events(&set_b, set_b.max_level());
        assert_eq!(ntt_rows(&hmult), 48);
    }

    #[test]
    fn factorized_dft_takes_ceil_log_r_stages() {
        // `⌈log2 slots / log2 r⌉` sparse stages of radix r = 32: one more
        // stage only when `log2 slots` is not a multiple of 5.
        for log_slots in 7..=15usize {
            let params = CkksParams::new("dft", 2 << log_slots, 9, 2, 5, 28, 26, 8).expect("valid");
            assert_eq!(params.slots(), 1 << log_slots);
            let (_, stages) = faster_dft_schedule(&params, params.max_level());
            assert_eq!(stages, log_slots.div_ceil(5), "slots 2^{log_slots}");
        }
    }

    fn boot_capable_params() -> CkksParams {
        CkksParams::new("sched-boot", 1 << 10, 19, 4, 5, 28, 26, 8).expect("valid")
    }

    #[test]
    fn bootstrap_schedule_is_substantial() {
        let params = boot_capable_params();
        let ev = bootstrap_schedule(&params, 7, 3);
        let ntts = ev
            .iter()
            .filter(|e| matches!(e, KernelEvent::Ntt { .. }))
            .count();
        assert!(ntts > 100, "bootstrap must be NTT-heavy, got {ntts}");
        let conj = ev
            .iter()
            .filter(|e| matches!(e, KernelEvent::Conjugate { .. }))
            .count();
        assert!(conj >= 3, "C2S + two sine extractions conjugate");
    }

    #[test]
    #[should_panic(expected = "bootstrap needs")]
    fn bootstrap_schedule_rejects_shallow_chains() {
        let params = CkksParams::test_small(); // L = 7 is far too shallow.
        let _ = bootstrap_schedule(&params, 7, 3);
    }
}
