//! Out-of-order scoreboard admission: the adversarial head-blocked
//! fixture (in-order stalls, the scoreboard admits past the block), and
//! the mode's determinism pin — reports and result-bearing stats must be
//! **bit-identical** to in-order admission at every workers × depth
//! corner, because frozen plans replay the exact serial coalescing walk
//! and the reorder buffer settles in serial plan order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};
use tensorfhe_core::{CoreError, SessionConfig};

const OPS: [FheOp; 5] = [
    FheOp::HMult,
    FheOp::HAdd,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::CMult,
];

fn service(admission: AdmissionMode, devices: usize, workers: usize, depth: usize) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(devices)
        .sched(
            SchedPolicy::new()
                .workers(workers)
                .pipeline_depth(depth)
                .admission(admission),
        )
        .service()
        .expect("valid service config")
}

/// Every float as raw bits: equality below means bit-identity.
fn report_bits(r: &RequestReport) -> Vec<u64> {
    let mut v = vec![
        r.id.raw(),
        r.client.len() as u64,
        r.level as u64,
        r.queue_us.to_bits(),
        r.batches as u64,
        r.report.batch as u64,
        r.report.time_us.to_bits(),
        r.report.per_op_us.to_bits(),
        r.report.occupancy.to_bits(),
        r.report.energy_j.to_bits(),
        r.report.ops_per_second.to_bits(),
    ];
    v.extend(r.report.by_kernel.iter().map(|(_, t)| t.to_bits()));
    v
}

/// Result-bearing stats fields as raw bits; schedule-shape fields
/// (`admission`, `reorder_distance`, `head_blocked_us`, overlap clock,
/// window metadata) are excluded — they are *supposed* to differ across
/// admission modes and are pinned by the dedicated tests below.
fn stats_bits(s: &ServiceStats) -> Vec<u64> {
    let mut v = vec![
        s.requests_completed as u64,
        s.ops_completed as u64,
        s.batches_dispatched as u64,
        s.launches as u64,
        s.batch_cap as u64,
        s.devices as u64,
        s.batch_fill.to_bits(),
        s.busy_us.to_bits(),
        s.energy_j.to_bits(),
        s.mean_queue_us.to_bits(),
        s.ops_per_second.to_bits(),
        s.ops_per_watt.to_bits(),
    ];
    v.extend(s.device_busy_us.iter().map(|t| t.to_bits()));
    v.extend(s.device_utilization.iter().map(|u| u.to_bits()));
    v
}

/// One seeded ragged multi-client stream with a mid-stream drain; client
/// tags repeat so chained streams hit the independence rule.
fn run_stream(svc: &mut FheService, seed: u64) -> (Vec<RequestReport>, ServiceStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut reports = Vec::new();
    for _phase in 0..2 {
        let requests = rng.gen_range(5..20);
        for i in 0..requests {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let level = rng.gen_range(1..=max_level);
            let count = if rng.gen_bool(0.3) {
                rng.gen_range(cap..=cap * 2)
            } else {
                rng.gen_range(1..=4)
            };
            svc.submit(FheRequest::new(op, level, count, format!("c{}", i % 4)))
                .expect("valid request");
        }
        reports.extend(svc.drain());
    }
    (reports, svc.stats())
}

fn assert_identical(inorder: &mut FheService, ooo: &mut FheService, seed: u64) {
    let (rs, ss) = run_stream(inorder, seed);
    let (rt, st) = run_stream(ooo, seed);
    assert_eq!(rs.len(), rt.len(), "report counts differ at seed {seed}");
    for (a, b) in rs.iter().zip(&rt) {
        assert_eq!(a.client, b.client, "client order differs at seed {seed}");
        assert_eq!(
            report_bits(a),
            report_bits(b),
            "reports diverged at seed {seed}: in-order {a:?} vs ooo {b:?}"
        );
    }
    assert_eq!(
        stats_bits(&ss),
        stats_bits(&st),
        "service stats diverged at seed {seed}: {ss:?} vs {st:?}"
    );
}

/// The adversarial stream: `max_level` dependent client pairs — an HMult
/// followed by a Rescale on the same `(client, level)` key. The serial
/// walk head-blocks on every Rescale while its client's HMult is in
/// flight, so in-order admission runs the heavy HMults one at a time;
/// the scoreboard admits later clients' independent HMults past each
/// blocked link and keeps all devices busy. Distinct levels keep every
/// batch width 1 (no cross-client coalescing), so there is real idle
/// capacity for reordering to reclaim.
fn adversarial_stream(max_level: usize) -> Vec<FheRequest> {
    let mut stream = Vec::new();
    for k in 1..=max_level {
        stream.push(FheRequest::new(FheOp::HMult, k, 1, format!("c{k}")));
        stream.push(FheRequest::new(FheOp::Rescale, k, 1, format!("c{k}")));
    }
    stream
}

#[test]
fn scoreboard_overtakes_a_head_blocked_stream() {
    // In-order: every chain link blocks the window until the previous
    // one joins, so the chain serialises the whole prefix. Out-of-order:
    // the scoreboard freezes past the blocked link and admits the
    // independent tenants, keeping the depth-4 window full.
    let mut inorder = service(AdmissionMode::InOrder, 4, 1, 4);
    let mut ooo = service(AdmissionMode::OutOfOrder, 4, 1, 4);
    let max_level = inorder.params().max_level();

    inorder
        .submit_stream(adversarial_stream(max_level))
        .expect("valid stream");
    ooo.submit_stream(adversarial_stream(max_level))
        .expect("valid stream");
    let want = inorder.drain();
    let got = ooo.drain();

    // The determinism pin: reordering admission must not change a single
    // result bit.
    assert_eq!(want.len(), got.len());
    for (a, b) in want.iter().zip(&got) {
        assert_eq!(report_bits(a), report_bits(b), "reports diverged");
    }
    let si = inorder.stats();
    let so = ooo.stats();
    assert_eq!(stats_bits(&si), stats_bits(&so), "stats diverged");

    // The schedule itself must differ: the scoreboard made progress the
    // in-order window could not.
    assert_eq!(si.reorder_distance, 0, "in-order never reorders");
    assert_eq!(si.head_blocked_us, 0.0, "in-order plans admit instantly");
    assert!(
        so.reorder_distance > 0,
        "tenants must admit past the blocked chain link"
    );
    assert!(
        so.head_blocked_us > 0.0,
        "the blocked link must accrue pending time"
    );
    assert!(
        so.elapsed_us < si.elapsed_us,
        "scoreboard admission must shorten the adversarial makespan: \
         ooo {} µs vs in-order {} µs",
        so.elapsed_us,
        si.elapsed_us
    );
    assert!(
        so.overlap_fraction > si.overlap_fraction,
        "overlap must improve: ooo {} vs in-order {}",
        so.overlap_fraction,
        si.overlap_fraction
    );
}

#[test]
fn ooo_drains_bit_identical_across_the_matrix() {
    // The full workers × depth matrix, both admission modes, committed
    // seeds. Depth 1 is the degenerate corner: a one-deep window can
    // never reorder, so out-of-order must replay in-order exactly.
    for workers in [1usize, 4] {
        for depth in [1usize, 2, 4, 8] {
            for seed in [3u64, 7, 1234, 99_991] {
                let mut inorder = service(AdmissionMode::InOrder, 4, workers, depth);
                let mut ooo = service(AdmissionMode::OutOfOrder, 4, workers, depth);
                assert_identical(&mut inorder, &mut ooo, seed);
            }
        }
    }
}

#[test]
fn ooo_session_streams_stay_bit_identical() {
    // Non-deadline sessions: the DRR pick and residency charges run at
    // plan-freeze time along the serial walk, so fairness and key-cache
    // behaviour are identical across admission modes.
    let mut streams = Vec::new();
    for mode in [AdmissionMode::InOrder, AdmissionMode::OutOfOrder] {
        let mut svc = service(mode, 2, 1, 4);
        let heavy = svc
            .register_session(SessionConfig::new("heavy").weight(2.0))
            .expect("valid");
        let light = svc
            .register_session(SessionConfig::new("light"))
            .expect("valid");
        let max_level = svc.params().max_level();
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..24 {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let level = rng.gen_range(1..=max_level);
            let count = rng.gen_range(1..=4);
            let req = match i % 3 {
                0 => FheRequest::in_session(op, level, count, heavy),
                1 => FheRequest::in_session(op, level, count, light),
                _ => FheRequest::new(op, level, count, "anon"),
            };
            svc.submit(req).expect("valid request");
        }
        let reports: Vec<Vec<u64>> = svc.drain().iter().map(report_bits).collect();
        let stats = svc.stats();
        streams.push((reports, stats_bits(&stats), stats.fairness_index.to_bits()));
    }
    assert_eq!(streams[0].0, streams[1].0, "session reports diverged");
    assert_eq!(streams[0].1, streams[1].1, "session stats diverged");
    assert_eq!(streams[0].2, streams[1].2, "fairness diverged");
}

#[test]
fn deadline_sessions_are_refused_while_ooo_work_is_in_flight() {
    // A deadline session's urgency clock reads settle time, which the
    // scoreboard reorders — so registration demands a fully quiescent
    // scheduler, and a service with a deadline session registered falls
    // back to the in-order fill.
    let mut svc = service(AdmissionMode::OutOfOrder, 2, 1, 4);
    let level = svc.params().max_level();
    for i in 0..6 {
        svc.submit(FheRequest::new(
            FheOp::HMult,
            1 + i % level,
            1,
            format!("c{i}"),
        ))
        .expect("valid request");
    }
    let settled = svc.pump();
    assert!(svc.pending_ops() > settled.len(), "work must be in flight");
    let err = svc
        .register_session(SessionConfig::new("rt").deadline_us(5_000.0))
        .expect_err("deadline registration must wait for quiescence");
    assert!(matches!(err, CoreError::InvalidConfig(_)), "got {err:?}");

    // Non-deadline sessions register fine mid-flight…
    svc.register_session(SessionConfig::new("batch"))
        .expect("non-deadline sessions are settle-order agnostic");

    // …and a drained (quiescent) service accepts the deadline class,
    // then serves it through the in-order fallback.
    while !svc.pump().is_empty() {}
    let rt = svc
        .register_session(SessionConfig::new("rt").deadline_us(5_000.0))
        .expect("quiescent scheduler accepts deadline sessions");
    svc.submit(FheRequest::in_session(FheOp::HMult, level, 2, rt))
        .expect("valid request");
    svc.submit(FheRequest::new(FheOp::HAdd, level, 2, "anon"))
        .expect("valid request");
    let reports = svc.drain();
    assert_eq!(reports.len(), 2, "fallback fill must still serve everyone");
    assert_eq!(svc.stats().deadline_misses, 0);
}

#[test]
fn sustained_ooo_pump_load_keeps_the_queue_compacted() {
    // The out-of-order sibling of the in-order compaction test: frozen
    // pending plans keep their queue slots live (their take indices
    // rebase mid-flight like window batches), so the steady-state bound
    // grows by the lookahead — but the queue must still never accumulate
    // a dead prefix.
    let mut svc = service(AdmissionMode::OutOfOrder, 4, 1, 4);
    let max_level = svc.params().max_level();
    for round in 0..200usize {
        for k in 0..2 {
            let op = OPS[(2 * round + k) % OPS.len()];
            let level = 1 + (2 * round + k) % max_level;
            svc.submit(FheRequest::new(op, level, 1, format!("c{round}-{k}")))
                .expect("valid");
        }
        svc.pump();
        svc.pump();
        assert!(
            svc.queue_slots() <= 32,
            "queue grew a dead prefix under sustained ooo load: {} slots at round {round}",
            svc.queue_slots()
        );
    }
    while !svc.pump().is_empty() {}
    let s = svc.stats();
    assert_eq!(s.requests_completed, 400);
    assert_eq!(
        svc.queue_slots(),
        0,
        "drained queue must be fully reclaimed"
    );
    assert!(s.inflight_hwm >= 2, "sustained load should really pipeline");
}

#[test]
fn zero_lookahead_or_aging_bound_is_a_hard_error() {
    for policy in [
        SchedPolicy::new().lookahead(0),
        SchedPolicy::new().aging_bound(0),
    ] {
        let err = TensorFhe::builder(&CkksParams::test_small())
            .sched(policy)
            .service()
            .expect_err("zero scoreboard bounds must be rejected");
        assert!(matches!(err, CoreError::InvalidConfig(_)), "got {err:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged multi-client streams: any mix of operations, levels,
    /// counts and client interleavings must drain bit-identically under
    /// out-of-order admission and the in-order reference, at a deep
    /// window and at the synchronous depth-1 corner.
    #[test]
    fn ragged_streams_drain_identically_out_of_order(seed in 0u64..10_000) {
        for depth in [1usize, 4] {
            let mut inorder = service(AdmissionMode::InOrder, 2, 1, depth);
            let mut ooo = service(AdmissionMode::OutOfOrder, 2, 1, depth);
            assert_identical(&mut inorder, &mut ooo, seed);
        }
    }
}
