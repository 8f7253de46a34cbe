//! The multi-tenant session tier, end to end: fair scheduling under an
//! adversarial heavy client, key-cache residency and its upload stalls,
//! deadline shedding/missing, admission control, and — most load-bearing —
//! bit-identity of the anonymous default with the pre-session service
//! across the whole workers × pipeline-depth matrix.

use proptest::prelude::*;
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, RequestStatus};
use tensorfhe_core::{CoalescePolicy, SchedPolicy, SessionConfig};

fn service() -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
        .service()
        .expect("valid service config")
}

/// Busy time of one full-cap batch of `op` at top level — the unit the
/// deadline tests size their budgets in.
fn one_batch_us(op: FheOp) -> f64 {
    let mut probe = service();
    let level = probe.params().max_level();
    let cap = probe.batch_cap();
    probe
        .submit(FheRequest::new(op, level, cap, "probe"))
        .expect("valid");
    probe.drain();
    probe.stats().busy_us
}

#[test]
fn drr_bounds_starvation_under_an_adversarial_heavy_client() {
    let mut svc = service();
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let heavy = svc
        .register_session(SessionConfig::new("heavy"))
        .expect("valid session");
    let light = svc
        .register_session(SessionConfig::new("light"))
        .expect("valid session");
    // The adversary floods 40 batches' worth of work before the light
    // client submits anything.
    svc.submit(FheRequest::in_session(FheOp::HMult, level, cap * 40, heavy))
        .expect("valid");
    let light_id = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, cap, light))
        .expect("valid");
    // Equal weights: the light client's single batch must be served
    // within the first fair-share round, not after the flood drains.
    let mut batches_before_light = 0usize;
    loop {
        let done = svc.pump();
        if done.iter().any(|r| r.id == light_id) {
            break;
        }
        batches_before_light += 1;
        assert!(
            batches_before_light <= 3,
            "light client starved behind the heavy flood"
        );
    }
    svc.drain();
    // Everyone's work completes and the per-session ledger matches.
    let s = svc.stats();
    assert_eq!(s.ops_completed, cap * 41);
    assert_eq!(
        s.per_session_ops,
        vec![("heavy".to_string(), cap * 40), ("light".to_string(), cap)]
    );
}

#[test]
fn drr_weights_steer_long_run_service_shares() {
    let mut svc = service();
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let a = svc
        .register_session(SessionConfig::new("a").weight(3.0))
        .expect("valid");
    let b = svc
        .register_session(SessionConfig::new("b").weight(1.0))
        .expect("valid");
    svc.submit(FheRequest::in_session(FheOp::HMult, level, cap * 24, a))
        .expect("valid");
    svc.submit(FheRequest::in_session(FheOp::HMult, level, cap * 24, b))
        .expect("valid");
    // Pump just long enough that both are still backlogged, then compare
    // shares: 3:1 quanta must yield roughly 3:1 service.
    let mut pumps = 0;
    while pumps < 16 {
        svc.pump();
        pumps += 1;
    }
    let served: Vec<usize> = svc.sessions().iter().map(|s| s.served_ops()).collect();
    assert!(served[0] > 0 && served[1] > 0, "both sessions progressed");
    let ratio = served[0] as f64 / served[1] as f64;
    assert!(
        (2.0..=4.5).contains(&ratio),
        "3:1 weights should give ~3:1 service mid-drain, got {ratio} ({served:?})"
    );
    svc.drain();
    let s = svc.stats();
    // Equal totals at the end: fairness index returns to 1.
    assert!(
        (s.fairness_index - 1.0).abs() < 1e-12,
        "equal totals must be perfectly fair, got {}",
        s.fairness_index
    );
}

#[test]
fn key_cache_thrash_shows_up_in_hit_rate_evictions_and_the_clock() {
    // A cache that holds only one of the two sessions' key sets: strict
    // alternation thrashes it, and every upload stalls the overlap clock
    // past the pure-compute makespan.
    let params = CkksParams::test_small();
    let set_mb = {
        let probe = TensorFhe::builder(&params).service().expect("valid");
        let mut svc = probe;
        let sid = svc
            .register_session(SessionConfig::new("x"))
            .expect("valid");
        svc.session(sid).expect("registered").key_bytes() / (1 << 20)
    };
    let mut svc = TensorFhe::builder(&params)
        .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
        .key_cache_mb((set_mb + 1).max(1))
        .service()
        .expect("valid");
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let a = svc
        .register_session(SessionConfig::new("a"))
        .expect("valid");
    let b = svc
        .register_session(SessionConfig::new("b"))
        .expect("valid");
    for _ in 0..4 {
        svc.submit(FheRequest::in_session(FheOp::HMult, level, cap, a))
            .expect("valid");
        svc.submit(FheRequest::in_session(FheOp::HMult, level, cap, b))
            .expect("valid");
    }
    svc.drain();
    let s = svc.stats();
    let cache = svc.key_cache();
    assert!(cache.misses() >= 2, "alternation must miss repeatedly");
    assert!(cache.evictions() >= 1, "a one-set cache must evict");
    assert!(s.key_cache_hit_rate < 1.0);
    assert_eq!(s.key_cache_hits, cache.hits());
    assert_eq!(s.key_cache_misses, cache.misses());
    assert!(s.key_uploads >= 2);
    assert!(s.key_upload_us > 0.0, "uploads must cost clock time");
    assert!(
        s.elapsed_us > s.busy_us,
        "upload stalls extend the makespan past pure compute: elapsed {} vs busy {}",
        s.elapsed_us,
        s.busy_us
    );
    assert!(
        !svc.residency_trace().is_empty(),
        "residency events must be observable"
    );
}

#[test]
fn overlap_fraction_charges_upload_stalls_to_both_clocks() {
    // The thrash scenario above, at depth 1 and depth 4. The makespan
    // includes every upload stall, so the serial reference it is measured
    // against must too: against bare `busy_us` the overlap read negative
    // as soon as any batch stalled on an upload (−20.8 on a session-heavy
    // stream). Depth 1 overlaps nothing, bit-exactly; deeper windows hide
    // a proper fraction of the serial schedule.
    let run = |depth: usize| {
        let params = CkksParams::test_small();
        let mut svc = TensorFhe::builder(&params)
            .devices(4)
            .sched(SchedPolicy::new().workers(1).pipeline_depth(depth))
            .key_cache_mb(1)
            .service()
            .expect("valid");
        let max_level = svc.params().max_level();
        let sessions: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|name| {
                svc.register_session(SessionConfig::new(*name))
                    .expect("valid")
            })
            .collect();
        // One narrow batch per (session, level), each session on its own
        // op: incompatible groups that a deep window can run side by side
        // on the idle devices.
        let ops = [FheOp::HMult, FheOp::HRotate, FheOp::Rescale, FheOp::HAdd];
        for level in 1..=max_level {
            for (&sid, op) in sessions.iter().zip(ops) {
                svc.submit(FheRequest::in_session(op, level, 1, sid))
                    .expect("valid");
            }
        }
        svc.drain();
        svc.stats()
    };
    let serial = run(1);
    assert!(serial.key_uploads >= 2 && serial.elapsed_us > serial.busy_us);
    assert_eq!(serial.overlap_fraction.to_bits(), 0.0f64.to_bits());
    let deep = run(4);
    assert!(deep.key_uploads >= 2);
    assert!(
        deep.overlap_fraction > 0.0 && deep.overlap_fraction < 1.0,
        "depth 4 hides a proper fraction of the serial schedule, got {}",
        deep.overlap_fraction
    );
}

#[test]
fn warm_keys_and_a_big_cache_never_pay_twice() {
    let mut svc = service();
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let a = svc
        .register_session(SessionConfig::new("a"))
        .expect("valid");
    for _ in 0..6 {
        svc.submit(FheRequest::in_session(FheOp::HMult, level, cap, a))
            .expect("valid");
    }
    svc.drain();
    let s = svc.stats();
    // Default cache (15% of an A100) holds test_small's set easily: one
    // cold upload, then hits.
    assert_eq!(s.key_cache_misses, 1, "only the cold miss");
    assert_eq!(s.key_uploads, 1);
    assert!(s.key_cache_hit_rate > 0.5);
}

#[test]
fn affinity_coalescing_beats_blind_on_cache_misses() {
    // Four sessions, same (op, level), interleaved quarter-cap requests; a
    // cache holding ~one key set. Blind coalescing packs four key sets
    // into every batch; affinity packs one. The miss counts must reflect
    // that — this is the fig12 effect in unit form.
    let run = |policy: CoalescePolicy| {
        let params = CkksParams::test_small();
        let mut svc = TensorFhe::builder(&params)
            .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
            .key_cache_mb(1)
            .coalesce_policy(policy)
            .service()
            .expect("valid");
        let level = svc.params().max_level();
        let cap = svc.batch_cap();
        let quarter = (cap / 4).max(1);
        let sids: Vec<_> = (0..4)
            .map(|i| {
                svc.register_session(SessionConfig::new(format!("s{i}")))
                    .expect("valid")
            })
            .collect();
        for _ in 0..8 {
            for &sid in &sids {
                svc.submit(FheRequest::in_session(FheOp::HMult, level, quarter, sid))
                    .expect("valid");
            }
        }
        svc.drain();
        let s = svc.stats();
        (s.key_cache_misses, s.key_cache_hit_rate, s.ops_completed)
    };
    let (affinity_misses, affinity_rate, ops_a) = run(CoalescePolicy::KeyAffinity);
    let (blind_misses, blind_rate, ops_b) = run(CoalescePolicy::Blind);
    assert_eq!(ops_a, ops_b, "both policies serve the same work");
    assert!(
        affinity_misses < blind_misses,
        "same-session grouping must miss less: affinity {affinity_misses} vs blind {blind_misses}"
    );
    assert!(affinity_rate >= blind_rate);
}

#[test]
fn admission_control_rejects_past_the_caps() {
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
        .global_queue_cap(64)
        .service()
        .expect("valid");
    let level = svc.params().max_level();
    let a = svc
        .register_session(SessionConfig::new("a").queue_cap(10))
        .expect("valid");
    let b = svc
        .register_session(SessionConfig::new("b"))
        .expect("valid");
    // Per-session bound: 10 ops fit, the 11th request is refused.
    let ok = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 10, a))
        .expect("submit never errors on admission");
    let refused = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 1, a))
        .expect("submit never errors on admission");
    assert_eq!(svc.status(refused).expect("known"), RequestStatus::Rejected);
    // Global bound: session b alone may queue up to 64 − 10.
    let big = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 60, b))
        .expect("valid");
    assert_eq!(svc.status(big).expect("known"), RequestStatus::Rejected);
    let fits = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 54, b))
        .expect("valid");
    // Anonymous traffic is never admission-controlled.
    let anon = svc
        .submit(FheRequest::new(FheOp::HMult, level, 500, "anon"))
        .expect("valid");
    let reports = svc.drain();
    let served: Vec<_> = reports.iter().map(|r| r.id).collect();
    assert!(served.contains(&ok));
    assert!(served.contains(&fits));
    assert!(served.contains(&anon));
    assert!(!served.contains(&refused));
    assert!(!served.contains(&big));
    let s = svc.stats();
    assert_eq!(s.rejected_count, 2);
    // Served work frees queue budget: the once-full session admits again.
    let retry = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 10, a))
        .expect("valid");
    assert!(matches!(
        svc.status(retry).expect("known"),
        RequestStatus::Queued { .. }
    ));
}

#[test]
fn expired_deadline_work_is_shed_not_run() {
    let batch_us = one_batch_us(FheOp::HMult);
    let mut svc = service();
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let rt = svc
        .register_session(SessionConfig::new("rt").deadline_us(batch_us * 0.5))
        .expect("valid");
    // Anonymous work first: its batch advances the clock past the
    // real-time session's whole budget before that session is scheduled.
    svc.submit(FheRequest::new(FheOp::HMult, level, cap, "anon"))
        .expect("valid");
    let doomed = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 1, rt))
        .expect("valid");
    let reports = svc.drain();
    assert!(
        !reports.iter().any(|r| r.id == doomed),
        "expired request must not produce a report"
    );
    assert_eq!(svc.status(doomed).expect("known"), RequestStatus::Shed);
    let s = svc.stats();
    assert_eq!(s.shed_count, 1);
    assert_eq!(s.ops_completed, cap, "only the anonymous batch ran");
    // Shedding freed the session's queue budget.
    assert_eq!(svc.session(rt).expect("registered").served_ops(), 0);
}

#[test]
fn urgent_deadline_work_ships_partially_filled() {
    // Eight backlogged best-effort sessions ahead of a one-op request:
    // plain DRR serves that request ninth, one fair round in. With a
    // deadline whose slack collapses after ~3 batches, the urgent pass
    // must jump the queue and ship the op alone in a partial batch. Run
    // the identical scenario with and without the deadline and compare
    // how many scheduler steps the hot request waits.
    let batch_us = one_batch_us(FheOp::HMult);
    let run = |deadline: Option<f64>| {
        let mut svc = service();
        let level = svc.params().max_level();
        let cap = svc.batch_cap();
        assert!(cap >= 2, "need a cap a single op underfills");
        let heavies: Vec<_> = (0..8)
            .map(|i| {
                svc.register_session(SessionConfig::new(format!("be{i}")))
                    .expect("valid")
            })
            .collect();
        let mut rt_cfg = SessionConfig::new("rt");
        if let Some(d) = deadline {
            rt_cfg = rt_cfg.deadline_us(d);
        }
        let rt = svc.register_session(rt_cfg).expect("valid");
        for &h in &heavies {
            svc.submit(FheRequest::in_session(FheOp::HMult, level, cap * 4, h))
                .expect("valid");
        }
        let hot = svc
            .submit(FheRequest::in_session(FheOp::HRotate, level, 1, rt))
            .expect("valid");
        let mut completed: Vec<RequestReport> = Vec::new();
        let mut pumps = 0;
        while !completed.iter().any(|r| r.id == hot) {
            completed.extend(svc.pump());
            pumps += 1;
            assert!(pumps <= 32, "hot request never completed");
        }
        let report = completed.iter().find(|r| r.id == hot).expect("completed");
        (pumps, report.batches)
    };
    let (fifo_pumps, fifo_batches) = run(None);
    let (urgent_pumps, urgent_batches) = run(Some(batch_us * 3.9));
    assert_eq!(fifo_batches, 1, "a one-op request is always one batch");
    assert_eq!(
        urgent_batches, 1,
        "urgent work ships alone in one (partial) batch"
    );
    assert!(
        fifo_pumps >= 8,
        "without a deadline the request waits a full DRR round, got {fifo_pumps}"
    );
    assert!(
        urgent_pumps <= 5 && urgent_pumps < fifo_pumps,
        "the urgent pass must pre-empt the fair round: {urgent_pumps} vs {fifo_pumps}"
    );
}

#[test]
fn late_completions_count_as_deadline_misses() {
    let batch_us = one_batch_us(FheOp::HMult);
    let mut svc = service();
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    // A budget smaller than one batch: the request is scheduled fresh
    // (slack positive at plan time), but its completion — one full batch
    // later — blows the budget. Not shed (it ran), a miss.
    let rt = svc
        .register_session(SessionConfig::new("rt").deadline_us(batch_us * 0.5))
        .expect("valid");
    let id = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, cap, rt))
        .expect("valid");
    let reports = svc.drain();
    assert!(reports.iter().any(|r| r.id == id), "the request ran");
    let s = svc.stats();
    assert_eq!(s.deadline_misses, 1);
    assert_eq!(s.shed_count, 0);
}

#[test]
fn anonymous_traffic_is_bit_identical_across_the_matrix_and_to_fifo() {
    // The acceptance criterion: with no sessions registered, reports and
    // result-bearing stats are identical at every workers × depth point —
    // and identical to a service where the session tier is configured but
    // unused (registered session, zero submissions), proving the session
    // fill path degenerates to FIFO for a lone anonymous bucket.
    let params = CkksParams::test_small();
    let stream = |svc: &mut FheService| {
        let level = svc.params().max_level();
        let cap = svc.batch_cap();
        for i in 0..12 {
            svc.submit(FheRequest::new(
                [FheOp::HMult, FheOp::HRotate, FheOp::Rescale][i % 3],
                level - (i % 2),
                cap / 3 + i,
                format!("c{}", i % 4),
            ))
            .expect("valid");
        }
    };
    let fingerprint = |reports: &[RequestReport], svc: &FheService| {
        let mut v: Vec<u64> = Vec::new();
        for r in reports {
            v.push(r.id.raw());
            v.push(r.queue_us.to_bits());
            v.push(r.report.time_us.to_bits());
            v.push(r.report.energy_j.to_bits());
            v.push(r.report.launches as u64);
        }
        let s = svc.stats();
        v.push(s.ops_completed as u64);
        v.push(s.batches_dispatched as u64);
        v.push(s.busy_us.to_bits());
        v.push(s.energy_j.to_bits());
        v.push(s.mean_queue_us.to_bits());
        v.push(s.ops_per_second.to_bits());
        v
    };
    let mut baseline = None;
    for workers in [1usize, 4] {
        for depth in [1usize, 4] {
            let mut svc = TensorFhe::builder(&params)
                .devices(4)
                .sched(SchedPolicy::new().workers(workers).pipeline_depth(depth))
                .service()
                .expect("valid");
            stream(&mut svc);
            let reports = svc.drain();
            let fp = fingerprint(&reports, &svc);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(
                    b, &fp,
                    "anonymous results diverged at workers={workers} depth={depth}"
                ),
            }
        }
    }
    // Session tier armed but unused: same fingerprint.
    let mut svc = TensorFhe::builder(&params)
        .devices(4)
        .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
        .service()
        .expect("valid");
    svc.register_session(SessionConfig::new("idle"))
        .expect("valid");
    stream(&mut svc);
    let reports = svc.drain();
    assert_eq!(
        baseline.expect("matrix ran"),
        fingerprint(&reports, &svc),
        "an idle session must not perturb anonymous results"
    );
}

#[test]
fn session_registration_validates_its_inputs() {
    let mut svc = service();
    for bad in [
        SessionConfig::new(""),
        SessionConfig::new("x").weight(0.0),
        SessionConfig::new("x").weight(-1.0),
        SessionConfig::new("x").weight(f64::NAN),
        SessionConfig::new("x").deadline_us(0.0),
        SessionConfig::new("x").deadline_us(f64::INFINITY),
        SessionConfig::new("x").queue_cap(0),
    ] {
        assert!(
            svc.register_session(bad).is_err(),
            "invalid session config must be rejected"
        );
    }
    // Unknown session handles are invalid requests.
    let level = svc.params().max_level();
    let other = service()
        .register_session(SessionConfig::new("elsewhere"))
        .expect("valid");
    let err = svc
        .submit(FheRequest::in_session(FheOp::HMult, level, 1, other))
        .expect_err("foreign session handle");
    assert!(matches!(err, tensorfhe_core::CoreError::InvalidRequest(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Deadline accounting is closed under any stream shape: every issued
    /// request ends Completed, Rejected, or Shed; reports exist exactly
    /// for completions; misses never exceed session completions; and the
    /// per-session served ledger sums to the completed session ops.
    #[test]
    fn deadline_and_admission_accounting_is_closed(
        seed in 0u64..10_000,
        deadline_batches in 1u32..6,
        queue_cap in 4usize..40,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let batch_us = one_batch_us(FheOp::HMult);
        let mut svc = service();
        let level = svc.params().max_level();
        let cap = svc.batch_cap();
        let rt = svc
            .register_session(
                SessionConfig::new("rt")
                    .deadline_us(batch_us * f64::from(deadline_batches) * 0.7)
                    .queue_cap(queue_cap),
            )
            .expect("valid");
        let be = svc
            .register_session(SessionConfig::new("be").weight(2.0))
            .expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = Vec::new();
        let mut reports = Vec::new();
        for i in 0..rng.gen_range(6..18) {
            let count = rng.gen_range(1..=cap);
            let req = match i % 3 {
                0 => FheRequest::in_session(FheOp::HMult, level, count, rt),
                1 => FheRequest::in_session(FheOp::HMult, level, count, be),
                _ => FheRequest::new(FheOp::HMult, level, count, "anon"),
            };
            ids.push(svc.submit(req).expect("submit never errors on admission"));
            if i % 4 == 3 {
                reports.extend(svc.pump());
            }
        }
        reports.extend(svc.drain());
        loop {
            // Shedding can leave later work runnable; drain to a fixpoint.
            let more = svc.drain();
            if more.is_empty() {
                break;
            }
            reports.extend(more);
        }
        let s = svc.stats();
        let mut completed = 0usize;
        for id in &ids {
            match svc.status(*id).expect("issued id") {
                RequestStatus::Completed => completed += 1,
                RequestStatus::Rejected | RequestStatus::Shed => {}
                other => prop_assert!(false, "unsettled request: {other:?}"),
            }
        }
        prop_assert_eq!(completed, reports.len());
        prop_assert_eq!(s.shed_count + s.rejected_count + completed, ids.len());
        prop_assert!(s.deadline_misses <= completed);
        let ledger: usize = svc.sessions().iter().map(|x| x.served_ops()).sum();
        let session_ops: usize = reports
            .iter()
            .filter(|r| r.client == "rt" || r.client == "be")
            .map(|r| r.report.batch)
            .sum();
        prop_assert_eq!(ledger, session_ops);
        // The whole shed/reject/complete stream must also replay clean
        // through the structural schedule verifier.
        let report = tensorfhe_analyze::verify_service(&svc);
        prop_assert!(report.is_clean(), "schedule violations:\n{}", report);
    }
}

#[test]
fn per_session_ops_order_is_registration_order() {
    // The stats ledger is a result-bearing Vec, not a hash map: its
    // order is pinned to session registration order regardless of the
    // alphabet or of which session is served first.
    let mut svc = service();
    let level = svc.params().max_level();
    let zeta = svc
        .register_session(SessionConfig::new("zeta"))
        .expect("valid");
    let alpha = svc
        .register_session(SessionConfig::new("alpha"))
        .expect("valid");
    let mid = svc
        .register_session(SessionConfig::new("mid"))
        .expect("valid");
    // Submit in neither registration nor alphabetical order.
    svc.submit(FheRequest::in_session(FheOp::HMult, level, 3, mid))
        .expect("valid");
    svc.submit(FheRequest::in_session(FheOp::HMult, level, 2, zeta))
        .expect("valid");
    svc.submit(FheRequest::in_session(FheOp::HMult, level, 1, alpha))
        .expect("valid");
    svc.drain();
    assert_eq!(
        svc.stats().per_session_ops,
        vec![
            ("zeta".to_string(), 2),
            ("alpha".to_string(), 1),
            ("mid".to_string(), 3),
        ]
    );
}
