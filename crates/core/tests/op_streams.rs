//! One kernel-event stream per CKKS operation, pinned from both ends.
//!
//! * **Evaluator side.** Every public `Evaluator` op runs under a
//!   `RecordingTracer` at `toy` and `test_small`, at the top level and at
//!   level 1; each op's events and operation markers fold into one golden
//!   FNV-1a digest. Where the op has an `FheOp`, its capture must also
//!   equal `schedule_events` event for event — the costing reads the same
//!   stream the evaluator emits.
//! * **Costing side.** `schedule_events` of the six operations a program
//!   asks for one at a time (HSUB and ADD-PLAIN are pinned by the
//!   evaluator table and inside the bootstrap), on all nine presets at
//!   levels `{0, L/2, L}`, plus the slim bootstrap at the two bootstrap
//!   presets, fold into golden digests.
//!
//! A change to any op's kernel sequence moves a digest here; a change that
//! moves one side but not the other fails the equality table.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe_ckks::trace::RecordingTracer;
use tensorfhe_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KernelEvent, KeyChain};
use tensorfhe_core::api::{schedule_events, FheOp};
use tensorfhe_math::Complex64;

/// FNV-1a (64-bit) over little-endian words.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One event as four words: a kernel tag and its shape fields.
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

/// Words of a stream: a length prefix, then every event.
fn stream_words(events: &[KernelEvent]) -> Vec<u64> {
    let mut words = vec![events.len() as u64];
    words.extend(events.iter().flat_map(event_words));
    words
}

/// Words of a capture: its events, then its operation markers.
fn capture_words(rec: &RecordingTracer) -> Vec<u64> {
    let mut words = stream_words(&rec.events);
    words.push(rec.ops.len() as u64);
    for (name, begin) in &rec.ops {
        words.extend(name.bytes().map(u64::from));
        words.push(u64::from(*begin) | 2);
    }
    words
}

/// The nine parameter presets.
fn presets() -> [CkksParams; 9] {
    [
        CkksParams::table_v_default(),
        CkksParams::table_v_resnet20(),
        CkksParams::table_v_lr(),
        CkksParams::table_v_lstm(),
        CkksParams::table_v_packed_boot(),
        CkksParams::table_vii_bootstrap(),
        CkksParams::heax_set_a(),
        CkksParams::heax_set_b(),
        CkksParams::heax_set_c(),
    ]
}

/// A context with relinearisation, rotation (steps 1, 2, 3) and
/// conjugation keys.
struct Setup<'a> {
    ctx: &'a CkksContext,
    keys: KeyChain<'a>,
    rng: StdRng,
}

impl<'a> Setup<'a> {
    fn new(ctx: &'a CkksContext) -> Self {
        let mut rng = StdRng::seed_from_u64(34);
        let mut keys = KeyChain::generate(ctx, &mut rng);
        keys.gen_rotation_keys(&[1, 2, 3], &mut rng);
        keys.gen_conjugation_key(&mut rng);
        Self { ctx, keys, rng }
    }

    fn encrypt_at(&mut self, re: f64, level: usize) -> Ciphertext {
        let scale = self.ctx.params().scale();
        let pt = self
            .ctx
            .encode_at(&[Complex64::new(re, 0.25)], scale, level)
            .expect("encode");
        self.keys.encrypt(&pt, &mut self.rng)
    }
}

/// Runs `op` on a traced evaluator and returns the capture.
fn capture(ctx: &CkksContext, op: impl FnOnce(&mut Evaluator<'_>)) -> RecordingTracer {
    let mut rec = RecordingTracer::new();
    {
        let mut eval = Evaluator::with_tracer(ctx, Box::new(&mut rec));
        op(&mut eval);
    }
    rec
}

/// An evaluator op under test: its name, the `FheOp` sequence its capture
/// must equal (empty when it has none), and how to run it on two
/// ciphertexts at one level.
type OpCase = (
    &'static str,
    &'static [FheOp],
    fn(&mut Evaluator<'_>, &Setup<'_>, &Ciphertext, &Ciphertext),
);

const EVALUATOR_OPS: [OpCase; 17] = [
    ("hadd", &[FheOp::HAdd], |e, _, a, b| {
        e.hadd(a, b).expect("hadd");
    }),
    ("hsub", &[FheOp::HSub], |e, _, a, b| {
        e.hsub(a, b).expect("hsub");
    }),
    ("hadd_lenient", &[FheOp::HAdd], |e, _, a, b| {
        e.hadd_lenient(a, b, 1e-3).expect("hadd_lenient");
    }),
    ("hsub_lenient", &[FheOp::HSub], |e, _, a, b| {
        e.hsub_lenient(a, b, 1e-3).expect("hsub_lenient");
    }),
    ("hmult", &[FheOp::HMult], |e, s, a, b| {
        e.hmult(a, b, &s.keys).expect("hmult");
    }),
    ("square", &[FheOp::HMult], |e, s, a, _| {
        e.square(a, &s.keys).expect("square");
    }),
    ("cmult", &[FheOp::CMult], |e, s, a, _| {
        let pt = s
            .ctx
            .encode_at(
                &[Complex64::new(0.5, -0.5)],
                s.ctx.params().scale(),
                a.level(),
            )
            .expect("encode");
        e.cmult(a, &pt).expect("cmult");
    }),
    ("add_plain", &[FheOp::AddPlain], |e, s, a, _| {
        let pt = s
            .ctx
            .encode_at(&[Complex64::new(0.5, -0.5)], a.scale, a.level())
            .expect("encode");
        e.add_plain(a, &pt).expect("add_plain");
    }),
    ("mul_const", &[FheOp::CMult], |e, _, a, _| {
        let _ = e.mul_const(a, 1.5);
    }),
    ("add_const", &[FheOp::AddPlain], |e, _, a, _| {
        let _ = e.add_const(a, 0.5);
    }),
    ("negate", &[FheOp::HSub], |e, _, a, _| {
        let _ = e.negate(a);
    }),
    ("mod_switch_to", &[], |e, _, a, _| {
        e.mod_switch_to(a, 0).expect("mod_switch_to");
    }),
    ("rescale", &[FheOp::Rescale], |e, _, a, _| {
        e.rescale(a).expect("rescale");
    }),
    ("hrotate", &[FheOp::HRotate], |e, s, a, _| {
        e.hrotate(a, 1, &s.keys).expect("hrotate");
    }),
    ("hrotate_identity", &[], |e, s, a, _| {
        // Step 0 is the Galois element 1: a clone, no scope, no kernels.
        e.hrotate(a, 0, &s.keys).expect("hrotate");
    }),
    (
        "hrotate_many",
        &[FheOp::HRotate, FheOp::HRotate],
        |e, s, a, _| {
            e.hrotate_many(a, &[1, 0, 2], &s.keys)
                .expect("hrotate_many");
        },
    ),
    ("conjugate", &[FheOp::Conjugate], |e, s, a, _| {
        e.conjugate(a, &s.keys).expect("conjugate");
    }),
];

/// Golden digests of the evaluator captures, one per op in
/// `EVALUATOR_OPS` order, each folded over `toy` and `test_small` at the
/// top level and level 1.
const EVALUATOR_GOLDENS: [(&str, u64); 17] = [
    ("hadd", 0xc36f_2ac9_f663_2c5d),
    ("hsub", 0x4c1b_2fb5_2373_5ef5),
    ("hadd_lenient", 0xc36f_2ac9_f663_2c5d),
    ("hsub_lenient", 0x4c1b_2fb5_2373_5ef5),
    ("hmult", 0xec7d_945c_d52f_85ed),
    ("square", 0xec7d_945c_d52f_85ed),
    ("cmult", 0xaae0_595b_bae3_4775),
    ("add_plain", 0xc763_b4ca_7c71_85d9),
    ("mul_const", 0xaae0_595b_bae3_4775),
    ("add_const", 0xc763_b4ca_7c71_85d9),
    ("negate", 0x4c1b_2fb5_2373_5ef5),
    ("mod_switch_to", 0xb9b2_3f3a_46fd_0825),
    ("rescale", 0x0a0a_c792_1394_53e5),
    ("hrotate", 0xf360_f24b_8458_cccd),
    ("hrotate_identity", 0xb9b2_3f3a_46fd_0825),
    ("hrotate_many", 0xe702_638f_8f0a_8f15),
    ("conjugate", 0xf148_8f6b_1291_5825),
];

#[test]
fn evaluator_streams_match_their_goldens_and_schedule_events() {
    let contexts: Vec<CkksContext> = [CkksParams::toy(), CkksParams::test_small()]
        .iter()
        .map(|p| CkksContext::new(p).expect("context"))
        .collect();
    let mut setups: Vec<Setup<'_>> = contexts.iter().map(Setup::new).collect();
    // (setup index, a, b) at the top level and at level 1.
    let mut operands = Vec::new();
    for (i, setup) in setups.iter_mut().enumerate() {
        for level in [setup.ctx.params().max_level(), 1] {
            let a = setup.encrypt_at(0.75, level);
            let b = setup.encrypt_at(-0.5, level);
            operands.push((i, a, b));
        }
    }

    let mut digests = Vec::new();
    for &(name, ops, run) in &EVALUATOR_OPS {
        let mut words = Vec::new();
        for (i, a, b) in &operands {
            let setup = &setups[*i];
            let rec = capture(setup.ctx, |e| run(e, setup, a, b));
            let params = setup.ctx.params();
            let costed: Vec<KernelEvent> = ops
                .iter()
                .flat_map(|&op| schedule_events(params, op, a.level()))
                .collect();
            if !ops.is_empty() {
                assert_eq!(
                    rec.events,
                    costed,
                    "{name} at {} level {}: capture differs from schedule_events",
                    params.name(),
                    a.level()
                );
            }
            words.extend(capture_words(&rec));
        }
        digests.push((name, fnv64(words)));
    }
    assert_eq!(digests, EVALUATOR_GOLDENS, "evaluator kernel streams moved");
}

/// Golden digests of `schedule_events` per costed `FheOp`, each folded
/// over the nine presets at levels `{0, L/2, L}`.
const COSTING_GOLDENS: [(FheOp, u64); 6] = [
    (FheOp::HAdd, 0x300d_f882_556b_36ad),
    (FheOp::HMult, 0xf759_1989_7421_cd67),
    (FheOp::CMult, 0xb6e1_08f5_e5c7_85ce),
    (FheOp::HRotate, 0x5f3c_8dd4_0f7f_68a2),
    (FheOp::Rescale, 0x9b84_4f60_30a8_f9cf),
    (FheOp::Conjugate, 0x7975_e0e1_a1c4_4d43),
];

/// Golden digest of `Bootstrap { 7, 6 }` at `table_vii_bootstrap` then
/// `table_v_packed_boot`.
const BOOTSTRAP_GOLDEN: u64 = 0xb54c_5a07_2c52_67af;

#[test]
fn schedule_events_match_their_goldens() {
    let presets = presets();
    let digests: Vec<(FheOp, u64)> = COSTING_GOLDENS
        .iter()
        .map(|&(op, _)| {
            let mut words = Vec::new();
            for params in &presets {
                let top = params.max_level();
                for level in [0, top / 2, top] {
                    words.extend(stream_words(&schedule_events(params, op, level)));
                }
            }
            (op, fnv64(words))
        })
        .collect();
    assert_eq!(digests, COSTING_GOLDENS, "costed kernel streams moved");

    let boot = FheOp::Bootstrap {
        taylor_degree: 7,
        double_angles: 6,
    };
    let words: Vec<u64> = [
        CkksParams::table_vii_bootstrap(),
        CkksParams::table_v_packed_boot(),
    ]
    .iter()
    .flat_map(|p| stream_words(&schedule_events(p, boot, p.max_level())))
    .collect();
    assert_eq!(fnv64(words), BOOTSTRAP_GOLDEN, "bootstrap stream moved");
}
