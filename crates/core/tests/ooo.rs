//! Out-of-order scoreboard admission: the adversarial head-blocked
//! fixture (in-order stalls, the scoreboard admits past the block), and
//! the mode's determinism pin — reports and result-bearing stats must be
//! **bit-identical** to in-order admission at every workers × depth
//! corner, because frozen plans replay the exact serial coalescing walk
//! and the reorder buffer settles in serial plan order. Golden digests of
//! two pump-interleaved sessioned streams pin both modes absolutely, so a
//! defect shared by the two cannot hide behind their agreement.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{
    FheRequest, FheService, RequestId, RequestReport, RequestStatus, ServiceStats,
};
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
    // The out-of-order sibling of the in-order sustained-load test: the
    // requests of frozen pending plans stay in the request table like
    // those of window batches, so the steady-state bound grows by the
    // lookahead — but completed requests must still leave the table.
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
            svc.pending_requests() <= 32,
            "request table grew under sustained ooo load: {} requests at round {round}",
            svc.pending_requests()
        );
    }
    while !svc.pump().is_empty() {}
    let s = svc.stats();
    assert_eq!(s.requests_completed, 400);
    assert_eq!(
        svc.pending_requests(),
        0,
        "drained queue must be fully reclaimed"
    );
    assert!(s.inflight_hwm >= 2, "sustained load should really pipeline");
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

/// A request status as three words: the variant, then its counts.
fn status_bits(s: RequestStatus) -> [u64; 3] {
    match s {
        RequestStatus::Queued { remaining } => [0, remaining as u64, 0],
        RequestStatus::InFlight {
            executing,
            remaining,
        } => [1, executing as u64, remaining as u64],
        RequestStatus::Completed => [2, 0, 0],
        RequestStatus::Rejected => [3, 0, 0],
        RequestStatus::Shed => [4, 0, 0],
    }
}

/// Every numeric stats field as raw bits, schedule-shape fields included.
/// `workers`, `backend` and `simd_lanes` name the executor, and `steals`
/// and `stolen_rows` depend on thread timing, so the five are left out:
/// nothing else may move when the executor changes.
fn all_stats_bits(s: &ServiceStats) -> Vec<u64> {
    let mut v = vec![
        s.requests_completed as u64,
        s.ops_submitted as u64,
        s.ops_completed as u64,
        s.ops_shed as u64,
        s.ops_rejected as u64,
        s.batches_dispatched as u64,
        s.launches as u64,
        s.batch_cap as u64,
        s.devices as u64,
        s.pipeline_depth as u64,
        u64::from(s.admission == AdmissionMode::OutOfOrder),
        s.lookahead as u64,
        s.aging_bound as u64,
        s.reorder_distance as u64,
        s.head_blocked_us.to_bits(),
        s.inflight_hwm as u64,
        s.batch_fill.to_bits(),
        s.busy_us.to_bits(),
        s.elapsed_us.to_bits(),
        s.overlap_fraction.to_bits(),
        s.energy_j.to_bits(),
        s.mean_queue_us.to_bits(),
        s.ops_per_second.to_bits(),
        s.pipelined_ops_per_second.to_bits(),
        s.ops_per_watt.to_bits(),
        s.key_cache_hit_rate.to_bits(),
        s.key_cache_hits,
        s.key_cache_misses,
        s.key_cache_evictions,
        s.key_uploads as u64,
        s.key_upload_us.to_bits(),
        s.fairness_index.to_bits(),
        s.deadline_misses as u64,
        s.shed_count as u64,
        s.rejected_count as u64,
    ];
    v.extend(s.device_busy_us.iter().map(|t| t.to_bits()));
    v.extend(s.device_utilization.iter().map(|u| u.to_bits()));
    for (name, ops) in &s.per_session_ops {
        v.extend(name.bytes().map(u64::from));
        v.push(*ops as u64);
    }
    v
}

/// Drives `steps` rounds of seeded arrivals through `svc`, pumping once
/// after each round, then drains. Returns the digest over every report,
/// the status of every issued id after each pump, and the final stats.
fn pumped_digest(
    svc: &mut FheService,
    steps: usize,
    mut arrivals: impl FnMut(&mut FheService, usize) -> Vec<RequestId>,
) -> u64 {
    let mut ids = Vec::new();
    let mut words = Vec::new();
    for step in 0..steps {
        ids.extend(arrivals(svc, step));
        words.extend(svc.pump().iter().flat_map(report_bits));
        for &id in &ids {
            words.extend(status_bits(svc.status(id).expect("issued id")));
        }
    }
    words.extend(svc.drain().iter().flat_map(report_bits));
    for &id in &ids {
        words.extend(status_bits(svc.status(id).expect("issued id")));
    }
    words.extend(all_stats_bits(&svc.stats()));
    fnv64(words)
}

#[test]
fn sessioned_pump_streams_match_their_golden_digests() {
    // Two pump-interleaved sessioned streams pinned by golden digests, so
    // a change to how the service stores, plans or settles requests shows
    // even when it would move both admission modes alike.

    // A: out-of-order admission over three weighted sessions, one of them
    // queue-capped, under a global queue cap: some arrivals are rejected.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
        .global_queue_cap(48)
        .sched(
            SchedPolicy::new()
                .pipeline_depth(4)
                .admission(AdmissionMode::OutOfOrder),
        )
        .service()
        .expect("valid service config");
    let sessions = [
        svc.register_session(SessionConfig::new("a"))
            .expect("valid session"),
        svc.register_session(SessionConfig::new("b").weight(2.0))
            .expect("valid session"),
        svc.register_session(SessionConfig::new("c").queue_cap(6))
            .expect("valid session"),
    ];
    let max_level = svc.params().max_level();
    let mut rng = StdRng::seed_from_u64(41);
    let digest_a = pumped_digest(&mut svc, 40, |svc, _| {
        (0..rng.gen_range(0..4))
            .map(|_| {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let level = rng.gen_range(1..=max_level);
                let count = rng.gen_range(1..=5);
                let session = sessions[rng.gen_range(0..sessions.len())];
                svc.submit(FheRequest::in_session(op, level, count, session))
                    .expect("valid request")
            })
            .collect()
    });
    let s = svc.stats();
    assert!(s.rejected_count > 0, "scenario A must reject: {s:?}");
    assert!(s.reorder_distance > 0, "scenario A must reorder: {s:?}");

    // B: in-order admission, one deadline session next to anonymous
    // traffic: some deadline work is shed and some completes late.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(2)
        .sched(
            SchedPolicy::new()
                .pipeline_depth(2)
                .admission(AdmissionMode::InOrder),
        )
        .service()
        .expect("valid service config");
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut probe = TensorFhe::builder(&CkksParams::test_small())
        .devices(2)
        .service()
        .expect("valid service config");
    probe
        .submit(FheRequest::new(FheOp::HMult, level, cap, "probe"))
        .expect("valid request");
    probe.drain();
    let batch_us = probe.stats().busy_us;
    let rt = svc
        .register_session(SessionConfig::new("rt").deadline_us(batch_us * 1.5))
        .expect("valid session");
    let mut rng = StdRng::seed_from_u64(43);
    let digest_b = pumped_digest(&mut svc, 30, |svc, step| {
        let mut ids = Vec::new();
        for _ in 0..rng.gen_range(0..3) {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let count = rng.gen_range(1..=cap);
            let client = format!("anon{}", step % 3);
            ids.push(
                svc.submit(FheRequest::new(op, rng.gen_range(1..=level), count, client))
                    .expect("valid request"),
            );
        }
        if rng.gen_bool(0.5) {
            let count = rng.gen_range(1..=cap / 2);
            ids.push(
                svc.submit(FheRequest::in_session(FheOp::HMult, level, count, rt))
                    .expect("valid request"),
            );
        }
        ids
    });
    let s = svc.stats();
    assert!(s.shed_count > 0, "scenario B must shed: {s:?}");
    assert!(s.deadline_misses > 0, "scenario B must miss: {s:?}");

    for (name, digest, golden) in [
        ("A", digest_a, 0x79d4_5064_48fd_7423u64),
        ("B", digest_b, 0x55bb_c074_b8f3_6425u64),
    ] {
        assert_eq!(
            digest, golden,
            "scenario {name}: digest {digest:#018x} moved from {golden:#018x}"
        );
    }
}
