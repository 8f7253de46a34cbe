//! Pipelined-scheduler determinism.
//!
//! The in-flight window promises that the pipeline depth changes *when*
//! device work overlaps, never *what* a request is charged: a drain at any
//! depth must produce **bit-identical** `RequestReport`s and the
//! result-bearing `ServiceStats` fields to the strictly synchronous
//! depth-1 drain — ids, completion order, float stats down to the last
//! bit, launch counts, per-kernel tables. Only the schedule-descriptive
//! fields (`pipeline_depth`, `inflight_hwm`, `elapsed_us`,
//! `overlap_fraction`, `pipelined_ops_per_second` — and `workers`, as in
//! the executor suite) may differ, because they name the schedule, not the
//! results. These tests pin that contract across seeded pseudo-random
//! streams, both executor backends, a ragged-queue property suite, the
//! overlap-clock invariants, and mid-drain `status` queries through
//! `pump`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, RequestStatus, ServiceStats};
use tensorfhe_core::session::SessionConfig;

const OPS: [FheOp; 6] = [
    FheOp::HAdd,
    FheOp::HMult,
    FheOp::CMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::Conjugate,
];

fn service(devices: usize, workers: usize, depth: usize) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(devices)
        .sched(SchedPolicy::new().workers(workers).pipeline_depth(depth))
        .service()
        .expect("valid service config")
}

/// Every float as raw bits: equality below means bit-identity, not an
/// epsilon test.
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
        r.report.ops_per_watt.to_bits(),
        r.report.launches as u64,
    ];
    for (k, t) in &r.report.by_kernel {
        v.extend(k.bytes().map(u64::from));
        v.push(t.to_bits());
    }
    v
}

/// The result-bearing stats fields as raw bits. `pipeline_depth`,
/// `inflight_hwm`, `elapsed_us`, `overlap_fraction`,
/// `pipelined_ops_per_second`, `workers`, `admission`, `lookahead`,
/// `aging_bound`, `reorder_distance` and `head_blocked_us` are
/// deliberately excluded: they describe the schedule the service ran
/// (window depth, admission mode, achieved overlap), not what any
/// request was charged — the overlap-clock invariant tests below and
/// the `ooo` suite pin their behaviour instead.
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

/// Drives one seeded pseudo-random multi-client stream through a service,
/// with a mid-stream drain so queue/clock state is exercised across
/// drains. Counts lean small so many distinct `(op, level)` groups — the
/// pipelining case — appear alongside cap-spanning requests.
fn run_stream(svc: &mut FheService, seed: u64) -> (Vec<RequestReport>, ServiceStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut reports = Vec::new();
    // Client tags repeat across phases on purpose: chained client streams
    // must hit the independence rule in the second drain too.
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

fn assert_identical(reference: &mut FheService, pipelined: &mut FheService, seed: u64) {
    let (rs, ss) = run_stream(reference, seed);
    let (rt, st) = run_stream(pipelined, seed);
    assert_eq!(rs.len(), rt.len(), "report counts differ at seed {seed}");
    for (a, b) in rs.iter().zip(&rt) {
        assert_eq!(a.client, b.client, "client order differs at seed {seed}");
        assert_eq!(
            report_bits(a),
            report_bits(b),
            "reports diverged at seed {seed}: depth-1 {a:?} vs pipelined {b:?}"
        );
    }
    assert_eq!(
        stats_bits(&ss),
        stats_bits(&st),
        "service stats diverged at seed {seed}: {ss:?} vs {st:?}"
    );
    // Both drains must also replay clean through the structural
    // schedule verifier — bit-identity alone would not catch a legally
    // reordered but overlap-violating clock.
    for (label, svc) in [("reference", &*reference), ("pipelined", &*pipelined)] {
        let report = tensorfhe_analyze::verify_service(svc);
        assert!(
            report.is_clean(),
            "{label} schedule has violations at seed {seed}:\n{report}"
        );
    }
}

#[test]
fn pipelined_drain_is_bit_identical_to_depth_one_across_seeds() {
    for depth in [2usize, 4, 8] {
        for seed in [0u64, 1, 7, 42, 1234] {
            let mut reference = service(4, 1, 1);
            let mut pipelined = service(4, 1, depth);
            assert_eq!(pipelined.pipeline_depth(), depth);
            assert_identical(&mut reference, &mut pipelined, seed);
        }
    }
}

#[test]
fn pipelined_drain_is_bit_identical_across_both_executors() {
    // Depth × thread-count cross: a depth-4 window over a 4-thread
    // host-parallel pool must still settle to the depth-1 one-thread
    // simulated bits — pipelining and host threading compose without
    // touching results.
    for seed in [3u64, 99, 0xBEEF] {
        let mut reference = service(4, 1, 1);
        let mut pipelined = TensorFhe::builder(&CkksParams::test_small())
            .devices(4)
            .backend(tensorfhe_core::exec::ExecBackend::HostParallel)
            .rows_cap(4)
            .sched(SchedPolicy::new().workers(4).pipeline_depth(4))
            .service()
            .expect("valid service config");
        assert_eq!(pipelined.workers(), 4);
        assert_identical(&mut reference, &mut pipelined, seed);
    }
}

#[test]
fn depth_one_overlap_metrics_collapse_to_serial() {
    // The acceptance cornerstone: a depth-1 pipelined drain *is* the
    // serial path — elapsed equals busy bit-for-bit, overlap is exactly
    // zero, the pipelined throughput equals the busy-time throughput.
    let mut svc = service(4, 1, 1);
    let (_, stats) = run_stream(&mut svc, 17);
    assert_eq!(stats.pipeline_depth, 1);
    assert!(stats.inflight_hwm <= 1);
    assert_eq!(stats.elapsed_us.to_bits(), stats.busy_us.to_bits());
    assert_eq!(stats.overlap_fraction.to_bits(), 0.0f64.to_bits());
    assert_eq!(
        stats.pipelined_ops_per_second.to_bits(),
        stats.ops_per_second.to_bits()
    );
}

#[test]
fn deep_window_overlaps_independent_narrow_batches() {
    // Many mutually-incompatible (op, level) groups, one instance each,
    // distinct clients: the serial path runs them one batch at a time on
    // a mostly-idle cluster; a depth-4 window keeps 4 in flight and the
    // makespan drops well below the busy time.
    let build = |depth: usize| {
        let mut svc = service(4, 1, depth);
        let max_level = svc.params().max_level();
        let mut i = 0usize;
        for level in 1..=max_level {
            for op in OPS {
                svc.submit(FheRequest::new(op, level, 1, format!("c{i}")))
                    .expect("valid");
                i += 1;
            }
        }
        svc.drain();
        svc.stats()
    };
    let serial = build(1);
    let deep = build(4);
    // Request accounting is depth-invariant…
    assert_eq!(stats_bits(&serial), stats_bits(&deep));
    // …but the schedule really overlapped.
    assert_eq!(deep.inflight_hwm, 4, "window never filled");
    assert!(
        deep.elapsed_us < deep.busy_us * 0.5,
        "expected substantial overlap: elapsed {} vs busy {}",
        deep.elapsed_us,
        deep.busy_us
    );
    assert!(deep.overlap_fraction > 0.5 && deep.overlap_fraction < 1.0);
    assert!(deep.pipelined_ops_per_second > serial.pipelined_ops_per_second * 1.8);
    // Work conservation: the overlapped schedule still has to fit every
    // shard somewhere — the makespan times the device count bounds the
    // total attributed device time. (`device_busy_us` itself is the
    // depth-invariant canonical shard-slot attribution, so individual
    // entries may exceed the makespan once the scheduler re-places shards
    // onto idle queues.)
    let total_busy: f64 = deep.device_busy_us.iter().sum();
    assert!(
        deep.elapsed_us * deep.devices as f64 >= total_busy * (1.0 - 1e-12),
        "schedule shorter than the work it placed: {} × {} vs {}",
        deep.elapsed_us,
        deep.devices,
        total_busy
    );
}

#[test]
fn chained_client_stream_never_overlaps() {
    // Every request shares one client at one level: program order forbids
    // any two batches in flight, whatever the window depth.
    let mut svc = service(4, 1, 8);
    let level = svc.params().max_level();
    for op in [FheOp::HMult, FheOp::HAdd, FheOp::Rescale, FheOp::HRotate] {
        svc.submit(FheRequest::new(op, level, 2, "alice"))
            .expect("valid");
    }
    svc.drain();
    let s = svc.stats();
    assert_eq!(s.inflight_hwm, 1, "chained stream must serialize");
    assert_eq!(s.elapsed_us.to_bits(), s.busy_us.to_bits());
    assert_eq!(s.overlap_fraction.to_bits(), 0.0f64.to_bits());
}

#[test]
fn pump_exposes_in_flight_status_mid_drain() {
    // `drain` is a loop over `pump`; stepping manually lets a caller
    // observe requests inside submitted-but-unjoined batches. With a
    // depth-4 window over four independent single-instance groups, the
    // first pump fills the window and settles exactly one batch, leaving
    // the other three requests InFlight — not lumped in with Queued.
    // Admission mode is pinned: the counts below assume the in-order
    // window shape regardless of any ambient TENSORFHE_ADMISSION.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(4)
                .admission(AdmissionMode::InOrder),
        )
        .service()
        .expect("valid service config");
    let level = svc.params().max_level();
    let ids: Vec<_> = [FheOp::HMult, FheOp::HAdd, FheOp::Rescale, FheOp::HRotate]
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            svc.submit(FheRequest::new(op, level, 1, format!("c{i}")))
                .expect("valid")
        })
        .collect();
    // A fifth request chained behind the first client stream (same client,
    // same level, its own op group) stays Queued: its group is blocked by
    // the in-flight window until c0's first batch settles. Note a chained
    // request sharing an *op group* with an independent request would
    // block that whole group instead — batch composition must match the
    // serial path exactly, so the scheduler never carves conflicting
    // requests out of a batch.
    let chained = svc
        .submit(FheRequest::new(FheOp::CMult, level, 1, "c0"))
        .expect("valid");

    let first = svc.pump();
    assert_eq!(first.len(), 1, "one settled batch completes one request");
    assert_eq!(first[0].id, ids[0]);
    for &id in &ids[1..] {
        assert_eq!(
            svc.status(id).expect("known"),
            RequestStatus::InFlight {
                executing: 1,
                remaining: 0
            },
            "unjoined batches must report InFlight"
        );
    }
    assert_eq!(
        svc.status(chained).expect("known"),
        RequestStatus::Queued { remaining: 1 },
        "blocked chained request stays Queued"
    );
    assert_eq!(svc.pending_ops(), 4, "three in flight plus one queued");

    let mut rest = Vec::new();
    loop {
        let step = svc.pump();
        if step.is_empty() {
            break;
        }
        rest.extend(step);
    }
    assert_eq!(rest.len(), 4);
    for &id in ids.iter().chain([&chained]) {
        assert_eq!(svc.status(id).expect("known"), RequestStatus::Completed);
    }

    // Pump-stepped completion must be bit-identical to a one-shot drain of
    // the same stream.
    let mut reference = service(4, 1, 4);
    for (i, op) in [FheOp::HMult, FheOp::HAdd, FheOp::Rescale, FheOp::HRotate]
        .into_iter()
        .enumerate()
    {
        reference
            .submit(FheRequest::new(op, level, 1, format!("c{i}")))
            .expect("valid");
    }
    reference
        .submit(FheRequest::new(FheOp::CMult, level, 1, "c0"))
        .expect("valid");
    let want = reference.drain();
    let got: Vec<_> = first.into_iter().chain(rest).collect();
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(report_bits(a), report_bits(b), "pump-step drain diverged");
    }
    assert_eq!(stats_bits(&svc.stats()), stats_bits(&reference.stats()));
}

#[test]
fn sustained_pump_load_keeps_the_queue_compacted() {
    // A pump-driven service whose window never empties: one independent
    // request arrives before every pump, so at depth 4 there is always
    // work in flight. Completed requests leave the request table while
    // other batches are still in flight, so it holds the unfinished
    // requests, not the total ever served. Admission mode is pinned: the
    // in-flight bound below assumes the in-order window shape.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(4)
                .admission(AdmissionMode::InOrder),
        )
        .service()
        .expect("valid service config");
    let max_level = svc.params().max_level();
    let mut completed = 0usize;
    for round in 0..200usize {
        // Two independent arrivals, two settles: the window stays loaded
        // (several batches in flight across pumps) while in-rate matches
        // out-rate, so the table stays small only if every completed
        // request leaves it.
        for k in 0..2 {
            let op = OPS[(2 * round + k) % OPS.len()];
            let level = 1 + (2 * round + k) % max_level;
            svc.submit(FheRequest::new(op, level, 1, format!("c{round}-{k}")))
                .expect("valid");
        }
        completed += svc.pump().len();
        completed += svc.pump().len();
        assert!(
            svc.pending_requests() <= 16,
            "request table grew under sustained load: {} requests at round {round}",
            svc.pending_requests()
        );
    }
    while !svc.pump().is_empty() {}
    let s = svc.stats();
    assert_eq!(s.requests_completed, 400);
    assert!(
        completed >= 350,
        "steady-state serving should complete most requests inside the rounds: {completed}"
    );
    assert_eq!(
        svc.pending_requests(),
        0,
        "drained queue must be fully reclaimed"
    );
    assert!(s.inflight_hwm >= 2, "sustained load should really pipeline");
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

#[test]
fn anonymous_in_order_stream_matches_its_golden_digest() {
    // Golden digests of every report and the result-bearing stats of one
    // seeded anonymous stream under in-order admission: a batch drained in
    // one go, then arrivals submitted between `pump` calls, then a final
    // drain. Pumping lets the depth decide which arrivals a batch can still
    // coalesce with, so each depth has its own digest. Any change to how
    // batches are planned, admitted or settled moves them.
    for (depth, golden) in [
        (1usize, 0x2fd5_7dcc_0671_aba8u64),
        (2, 0x1113_f6c7_4251_8149),
        (4, 0xfbd8_8af7_0a19_3ddb),
    ] {
        let mut svc = TensorFhe::builder(&CkksParams::test_small())
            .devices(4)
            .sched(
                SchedPolicy::new()
                    .pipeline_depth(depth)
                    .admission(AdmissionMode::InOrder),
            )
            .service()
            .expect("valid service config");
        let max_level = svc.params().max_level();
        let cap = svc.batch_cap();
        let mut rng = StdRng::seed_from_u64(29);
        let request = |rng: &mut StdRng, i: usize| {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let level = rng.gen_range(1..=max_level);
            let count = if rng.gen_bool(0.25) {
                rng.gen_range(cap..=cap + 3)
            } else {
                rng.gen_range(1..=4)
            };
            FheRequest::new(op, level, count, format!("c{}", i % 5))
        };
        let mut reports = Vec::new();
        for i in 0..12 {
            svc.submit(request(&mut rng, i)).expect("valid");
        }
        reports.extend(svc.drain());
        for i in 12..48 {
            svc.submit(request(&mut rng, i)).expect("valid");
            if i % 4 == 3 {
                reports.extend(svc.pump());
            }
        }
        reports.extend(svc.drain());
        assert_eq!(svc.stats().requests_completed, 48);
        let digest = fnv64(
            reports
                .iter()
                .flat_map(report_bits)
                .chain(stats_bits(&svc.stats())),
        );
        assert_eq!(
            digest, golden,
            "depth {depth}: digest {digest:#018x} moved from {golden:#018x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged multi-client streams: any mix of operations, levels, counts
    /// and client interleavings must drain bit-identically under a deep
    /// in-flight window and the strictly synchronous depth-1 path —
    /// including streams whose batches are blocked by chained client
    /// streams, whose requests span several batches, and whose trailing
    /// batches are partially filled.
    #[test]
    fn ragged_streams_drain_identically_at_any_depth(
        requests in 1usize..24,
        depth in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let mut reference = service(4, 1, 1);
        let mut pipelined = service(4, 1, depth);
        let max_level = reference.params().max_level();
        let cap = reference.batch_cap();
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<FheRequest> = (0..requests)
            .map(|i| {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let level = rng.gen_range(1..=max_level);
                let count = if rng.gen_bool(0.25) {
                    rng.gen_range(cap..=cap + 3)
                } else {
                    rng.gen_range(1..=4)
                };
                FheRequest::new(op, level, count, format!("c{}", i % 3))
            })
            .collect();
        reference.submit_stream(stream.clone()).expect("valid stream");
        pipelined.submit_stream(stream).expect("valid stream");
        let rs = reference.drain();
        let rt = pipelined.drain();
        prop_assert_eq!(rs.len(), rt.len());
        for (a, b) in rs.iter().zip(&rt) {
            prop_assert_eq!(report_bits(a), report_bits(b));
        }
        prop_assert_eq!(stats_bits(&reference.stats()), stats_bits(&pipelined.stats()));
    }
}

#[test]
fn a_session_registered_after_anonymous_traffic_matches_its_golden_digest() {
    // Anonymous traffic served while no session is registered leaves the
    // fair-share rotation untouched, so a session registered afterwards
    // shares it with bucket 0 from a clean start. The anonymous phase ends
    // on a partial batch, which would leave bucket 0 credit to spend in the
    // mixed phase had it been charged.
    let mut svc = service(4, 1, 1);
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut reports = Vec::new();
    for i in 0..5 {
        svc.submit(FheRequest::new(
            FheOp::HMult,
            level,
            cap / 3 + i,
            format!("c{i}"),
        ))
        .expect("valid");
    }
    reports.extend(svc.drain());
    let tenant = svc
        .register_session(SessionConfig::new("tenant"))
        .expect("valid session");
    for i in 0..6 {
        svc.submit(FheRequest::new(
            FheOp::HMult,
            level,
            cap / 2 + i,
            format!("c{i}"),
        ))
        .expect("valid");
        svc.submit(FheRequest::in_session(FheOp::HMult, level, cap / 3, tenant))
            .expect("valid");
    }
    reports.extend(svc.drain());
    assert_eq!(svc.stats().requests_completed, 17);
    let digest = fnv64(
        reports
            .iter()
            .flat_map(report_bits)
            .chain(stats_bits(&svc.stats())),
    );
    let golden = 0xc5fd_7fa7_32c4_7a28u64;
    assert_eq!(
        digest, golden,
        "digest {digest:#018x} moved from {golden:#018x}"
    );
}
