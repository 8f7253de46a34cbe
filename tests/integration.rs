//! Cross-crate integration: functional CKKS traced through the TensorFHE
//! engine onto the simulated GPU — the full stack of the paper in one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe::ckks::{CkksContext, CkksParams, Evaluator, KeyChain};
use tensorfhe::core::api::{schedule_events, FheOp, TensorFhe};
use tensorfhe::core::engine::{Engine, EngineConfig, OpStats, Variant};
use tensorfhe::math::Complex64;

/// Engine-level costing of one fixed-width schedule run — what the
/// retired `run_op` shim used to bundle.
fn cost(api: &mut TensorFhe, op: FheOp, level: usize, batch: usize) -> tensorfhe::core::OpReport {
    let events = api.schedule_of(op, level);
    let stats = api.engine_mut().run_schedule(op.name(), &events, batch);
    let power = api.engine().config().device.power_watts;
    tensorfhe::core::OpReport::from_stats(op, batch, power, stats)
}

/// Traced execution: real homomorphic math with every kernel costed on
/// the simulated device, then decrypt and check both the value and the
/// profile.
#[test]
fn traced_full_mode_pipeline() {
    let params = CkksParams::toy();
    let mut engine = Engine::new(EngineConfig::a100(Variant::TensorCore));
    // A context running the engine's own variant: the tensor-core
    // formulation both computes the arithmetic and prices the launches.
    let ctx = CkksContext::with_algorithm(&params, engine.config().variant).expect("ctx");
    assert_eq!(ctx.ntt_algorithm(), Variant::TensorCore);
    let mut rng = StdRng::seed_from_u64(11);
    let keys = KeyChain::generate(&ctx, &mut rng);

    let xs = vec![Complex64::new(1.25, 0.0), Complex64::new(-0.5, 0.0)];
    let ct = keys.encrypt(&ctx.encode(&xs, params.scale()).expect("enc"), &mut rng);
    let mut tracer = engine.tracer(1);
    let sq = {
        let mut eval = Evaluator::with_tracer(&ctx, Box::new(&mut tracer));
        let sq = eval.hmult(&ct, &ct, &keys).expect("hmult");
        eval.rescale(&sq).expect("rescale")
    };

    // Close the window and inspect its launch log.
    let stats = engine.finish(&mut tracer);
    assert!(stats.time_us > 0.0, "GPU time must have been charged");
    let log = tracer.sim().stats();
    assert_eq!(stats.launches, log.len());
    let ops: std::collections::BTreeSet<&str> = log.iter().map(|k| &*k.op_tag).collect();
    assert!(ops.contains("HMULT"), "HMULT scope missing from {ops:?}");

    // The math still decrypts correctly with tracing attached.
    let dec = ctx.decode(&keys.decrypt(&sq)).expect("decode");
    assert!((dec[0].re - 1.5625).abs() < 1e-2);
    assert!((dec[1].re - 0.25).abs() < 1e-2);
}

/// Every result bit of a window: the fold, then its per-kernel table.
fn bits(s: &OpStats) -> Vec<u64> {
    let mut v = vec![
        s.launches as u64,
        s.time_us.to_bits(),
        s.occupancy.to_bits(),
        s.energy_j.to_bits(),
    ];
    for (k, t) in &s.by_kernel {
        v.extend(k.bytes().map(u64::from));
        v.push(t.to_bits());
    }
    v
}

/// Schedule-only costing and traced execution are one costing path: the
/// schedule the API layer costs is exactly what a real traced execution
/// launches, so the two windows agree bit for bit.
#[test]
fn timing_only_matches_traced_execution() {
    for params in [CkksParams::toy(), CkksParams::test_small()] {
        let level = params.max_level();
        for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let ctx = CkksContext::with_algorithm(&params, variant).expect("ctx");
            let mut rng = StdRng::seed_from_u64(13);
            let mut keys = KeyChain::generate(&ctx, &mut rng);
            keys.gen_rotation_keys(&[1], &mut rng);
            let pt = ctx
                .encode(&[Complex64::new(0.5, 0.0)], params.scale())
                .expect("enc");
            let ct = keys.encrypt(&pt, &mut rng);
            let mut engine = Engine::new(EngineConfig::a100(variant));
            for batch in [1, 64] {
                for op in [FheOp::HMult, FheOp::Rescale, FheOp::HRotate, FheOp::CMult] {
                    let mut tracer = engine.tracer(batch);
                    let mut eval = Evaluator::with_tracer(&ctx, Box::new(&mut tracer));
                    match op {
                        FheOp::HMult => eval.hmult(&ct, &ct, &keys),
                        FheOp::Rescale => eval.rescale(&ct),
                        FheOp::HRotate => eval.hrotate(&ct, 1, &keys),
                        _ => eval.cmult(&ct, &pt),
                    }
                    .unwrap_or_else(|e| panic!("{}: {e}", op.name()));
                    drop(eval);
                    let traced = engine.finish(&mut tracer);
                    let events = schedule_events(&params, op, level);
                    let costed = engine.run_schedule(op.name(), &events, batch);
                    assert_eq!(
                        bits(&traced),
                        bits(&costed),
                        "{} {} {variant:?} batch {batch}: traced {traced:?} vs schedule {costed:?}",
                        params.name(),
                        op.name()
                    );
                }
            }
        }
    }
}

/// The three engine variants produce the paper's performance ordering on a
/// real traced workload — and since each engine's context *computes* with
/// its own formulation, the decrypted results must also agree bit-for-bit
/// across variants (the transforms are bit-identical).
#[test]
fn variant_ordering_holds_for_traced_math() {
    let params = CkksParams::test_small();
    let xs = vec![Complex64::new(0.75, 0.0)];

    let mut times = Vec::new();
    let mut decoded = Vec::new();
    for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
        let mut engine = Engine::new(EngineConfig::a100(variant));
        let ctx = CkksContext::with_algorithm(&params, variant).expect("ctx");
        assert_eq!(ctx.ntt_algorithm(), variant);
        // Same seed per variant: identical keys and ciphertexts, so any
        // divergence below would be the NTT formulation's fault.
        let mut rng = StdRng::seed_from_u64(17);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let ct = keys.encrypt(&ctx.encode(&xs, params.scale()).expect("enc"), &mut rng);
        let mut tracer = engine.tracer(64);
        let sq = Evaluator::with_tracer(&ctx, Box::new(&mut tracer))
            .hmult(&ct, &ct, &keys)
            .expect("hmult");
        times.push(engine.finish(&mut tracer).time_us);
        decoded.push(ctx.decode(&keys.decrypt(&sq)).expect("decode")[0]);
    }
    assert!(times[0] > times[1], "NT {} ≤ CO {}", times[0], times[1]);
    assert!(times[1] > times[2], "CO {} ≤ TC {}", times[1], times[2]);
    for d in &decoded {
        assert!(
            (decoded[0].re - d.re).abs() < 1e-12 && (decoded[0].im - d.im).abs() < 1e-12,
            "variants disagree: {decoded:?}"
        );
    }
}

/// Batch scaling through the whole stack: 64 batched HMULTs cost far less
/// than 64× one HMULT (§IV-D).
#[test]
fn operation_level_batching_amortises() {
    let params = CkksParams::test_small();
    let mut api = TensorFhe::builder(&params)
        .build()
        .expect("single-device build");
    let level = params.max_level();
    let single = cost(&mut api, FheOp::HMult, level, 1);
    let batched = cost(&mut api, FheOp::HMult, level, 64);
    assert!(batched.time_us < single.time_us * 64.0 * 0.5);
    assert!(batched.occupancy > single.occupancy);
}

/// The acceptance path of the request-stream redesign: three simulated
/// clients submit interleaved HMULT / HROTATE / RESCALE requests; the
/// service coalesces them into batches and must beat the same stream issued
/// one-by-one through engine-level width-1 schedules (Fig. 14 behaviour).
#[test]
fn request_stream_service_beats_one_by_one_costing() {
    use tensorfhe::core::service::FheRequest;

    let params = CkksParams::test_small();
    let level = params.max_level();

    // Interleaved per-client streams: a mult-heavy client, a rotation
    // client and a rescale client, three rounds each.
    let mut stream = Vec::new();
    for _round in 0..3 {
        stream.push(FheRequest::new(FheOp::HMult, level, 6, "client-a"));
        stream.push(FheRequest::new(FheOp::HRotate, level, 4, "client-b"));
        stream.push(FheRequest::new(FheOp::Rescale, level, 5, "client-c"));
    }
    let total_ops: usize = stream.iter().map(|r| r.count).sum();

    let mut svc = TensorFhe::builder(&params)
        .service()
        .expect("valid service config");
    svc.submit_stream(stream.clone()).expect("valid stream");
    let reports = svc.drain();
    let stats = svc.stats();

    assert_eq!(reports.len(), stream.len(), "every request must complete");
    assert_eq!(stats.ops_completed, total_ops);
    let clients: std::collections::BTreeSet<_> = reports.iter().map(|r| r.client.clone()).collect();
    assert_eq!(clients.len(), 3, "all three clients served");
    assert!(
        stats.batches_dispatched < stream.len(),
        "coalescing must merge requests into fewer batches: {} batches for {} requests",
        stats.batches_dispatched,
        stream.len()
    );

    // Legacy path: identical operations, one at a time, caller-driven.
    let mut api = TensorFhe::builder(&params).build().expect("build");
    let mut legacy_us = 0.0;
    for req in &stream {
        for _ in 0..req.count {
            legacy_us += cost(&mut api, req.op, req.level, 1).time_us;
        }
    }
    let legacy_ops_per_second = total_ops as f64 / (legacy_us * 1e-6);

    assert!(
        stats.ops_per_second > legacy_ops_per_second,
        "service batching must beat one-by-one: {} vs {} ops/s",
        stats.ops_per_second,
        legacy_ops_per_second
    );
}

/// The service front end preserves the cost model: a request stream's total
/// busy time equals the sum of what the legacy API charges for the same
/// batched dispatches.
#[test]
fn service_totals_match_legacy_batched_costs() {
    use tensorfhe::core::service::FheRequest;

    let params = CkksParams::test_small();
    let level = params.max_level();
    let mut svc = TensorFhe::builder(&params)
        .service()
        .expect("valid service config");
    let cap = svc.batch_cap();
    svc.submit(FheRequest::new(FheOp::HMult, level, cap, "a"))
        .expect("valid");
    svc.submit(FheRequest::new(FheOp::HRotate, level, cap, "b"))
        .expect("valid");
    svc.drain();

    let mut api = TensorFhe::builder(&params).build().expect("build");
    let want = cost(&mut api, FheOp::HMult, level, cap).time_us
        + cost(&mut api, FheOp::HRotate, level, cap).time_us;
    let got = svc.stats().busy_us;
    let rel = (got - want).abs() / want;
    assert!(
        rel < 1e-9,
        "service {got} vs legacy {want} µs drifted {rel}"
    );
}
