//! Cross-crate integration: functional CKKS traced through the TensorFHE
//! engine onto the simulated GPU — the full stack of the paper in one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe::ckks::{CkksParams, Evaluator, KeyChain};
use tensorfhe::core::api::{FheOp, TensorFhe};
use tensorfhe::core::engine::{Engine, EngineConfig, Variant};
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
    let engine = Engine::new(EngineConfig::a100(Variant::TensorCore));
    // The engine hands out a context running its own variant: the tensor-core
    // formulation both computes the arithmetic and prices the launches.
    let ctx = engine.make_context(&params).expect("ctx");
    assert_eq!(ctx.ntt_algorithm(), Variant::TensorCore);
    let mut rng = StdRng::seed_from_u64(11);
    let keys = KeyChain::generate(&ctx, &mut rng);

    let tracer = engine.make_tracer(1);
    let mut eval = Evaluator::with_tracer(&ctx, Box::new(tracer));

    let xs = vec![Complex64::new(1.25, 0.0), Complex64::new(-0.5, 0.0)];
    let ct = keys.encrypt(&ctx.encode(&xs, params.scale()).expect("enc"), &mut rng);
    let sq = eval.hmult(&ct, &ct, &keys).expect("hmult");
    let sq = eval.rescale(&sq).expect("rescale");

    // Drain the simulated device and inspect the profile.
    engine.device().borrow_mut().synchronize();
    engine.profiler(|profiler| {
        assert!(profiler.span_us() > 0.0, "GPU time must have been charged");
        let ops = profiler.time_by_op();
        assert!(
            ops.iter().any(|(o, _)| &**o == "HMULT"),
            "HMULT scope missing from {ops:?}"
        );
    });

    // The math still decrypts correctly with tracing attached.
    let dec = ctx.decode(&keys.decrypt(&sq)).expect("decode");
    assert!((dec[0].re - 1.5625).abs() < 1e-2);
    assert!((dec[1].re - 0.25).abs() < 1e-2);
}

/// Schedule-only costing and traced execution charge consistent kernel
/// schedules: the schedule the API layer costs matches what a real traced
/// execution produces (same launches ⇒ same simulated time).
#[test]
fn timing_only_matches_traced_execution() {
    let params = CkksParams::toy();
    let engine = Engine::new(EngineConfig::a100(Variant::TensorCore));
    let ctx = engine.make_context(&params).expect("ctx");
    let mut rng = StdRng::seed_from_u64(13);
    let keys = KeyChain::generate(&ctx, &mut rng);

    // Traced execution of one HMULT.
    let mark = engine.mark();
    {
        let tracer = engine.make_tracer(1);
        let mut eval = Evaluator::with_tracer(&ctx, Box::new(tracer));
        let xs = vec![Complex64::new(0.5, 0.0)];
        let ct = keys.encrypt(&ctx.encode(&xs, params.scale()).expect("enc"), &mut rng);
        let _ = eval.hmult(&ct, &ct, &keys).expect("hmult");
    }
    engine.device().borrow_mut().synchronize();
    let full_stats = engine.window_stats(mark);

    // Schedule-only costing of the same op.
    let mut api = TensorFhe::builder(&params)
        .build()
        .expect("single-device build");
    let report = cost(&mut api, FheOp::HMult, params.max_level(), 1);

    assert_eq!(
        full_stats.launches, report.launches,
        "synthetic schedule must launch exactly the kernels the real op does"
    );
    let rel = (full_stats.time_us - report.time_us).abs() / report.time_us;
    assert!(
        rel < 0.2,
        "timing-only ({}) vs traced ({}) drifted {rel}",
        report.time_us,
        full_stats.time_us
    );
}

/// The three engine variants produce the paper's performance ordering on a
/// real traced workload — and since each engine's context now *computes*
/// with its own formulation, the decrypted results must also agree
/// bit-for-bit across variants (the transforms are bit-identical).
#[test]
fn variant_ordering_holds_for_traced_math() {
    let params = CkksParams::test_small();
    let xs = vec![Complex64::new(0.75, 0.0)];

    let mut times = Vec::new();
    let mut decoded = Vec::new();
    for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
        let engine = Engine::new(EngineConfig::a100(variant));
        let ctx = engine.make_context(&params).expect("ctx");
        assert_eq!(ctx.ntt_algorithm(), variant);
        // Same seed per variant: identical keys and ciphertexts, so any
        // divergence below would be the NTT formulation's fault.
        let mut rng = StdRng::seed_from_u64(17);
        let keys = KeyChain::generate(&ctx, &mut rng);
        let ct = keys.encrypt(&ctx.encode(&xs, params.scale()).expect("enc"), &mut rng);
        let mark = engine.mark();
        let sq = {
            let tracer = engine.make_tracer(64);
            let mut eval = Evaluator::with_tracer(&ctx, Box::new(tracer));
            eval.hmult(&ct, &ct, &keys).expect("hmult")
        };
        engine.device().borrow_mut().synchronize();
        times.push(engine.window_stats(mark).time_us);
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
