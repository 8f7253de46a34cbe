//! One golden digest over every path a batch takes from the service's
//! dispatch to its settle.
//!
//! Every `RequestReport` field, every `ServiceStats` field that describes
//! the simulation (all but `workers`, `backend`, `steals`, `stolen_rows`
//! and `simd_lanes`, which name the host executor) and `host_work()` are
//! folded, as raw bits, into one FNV-1a 64 digest over these drains:
//!
//! * anonymous streams on the simulated backend at 1, 2, 3 and 4 devices
//!   (3 splits batches unevenly), depth 1 and 4, in-order and
//!   out-of-order admission;
//! * a 3-session key-affinity stream whose key cache is too small for two
//!   key sets, so batches stall on uploads;
//! * the anonymous stream on the host backend at 2 devices, `rows_cap` 4,
//!   one and two workers;
//! * a depth-4 stream with four identical `(op, level, width)` batches in
//!   flight at once, so a batch is costed while an identical one is still
//!   unjoined, after a batch of the same op and level at width 1.
//!
//! Every knob is set on the builder, so the `TENSORFHE_*` variables of a
//! CI corner cannot move the digest. Where a batch's result comes from —
//! costed afresh or replayed — must never show here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::exec::ExecBackend;
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};
use tensorfhe_core::session::SessionConfig;

const OPS: [FheOp; 6] = [
    FheOp::HAdd,
    FheOp::HMult,
    FheOp::CMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::Conjugate,
];

const GOLDEN: u64 = 0x48b6_8b1d_c6e0_4dc0;

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

fn str_words(s: &str) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(s.len() as u64).chain(s.bytes().map(u64::from))
}

/// Every field of a report, floats as raw bits.
fn report_words(r: &RequestReport) -> Vec<u64> {
    let mut v = vec![r.id.raw()];
    v.extend(str_words(&r.client));
    v.extend([r.level as u64, r.queue_us.to_bits(), r.batches as u64]);
    let o = &r.report;
    v.extend(str_words(o.op.name()));
    v.extend([
        o.batch as u64,
        o.time_us.to_bits(),
        o.per_op_us.to_bits(),
        o.occupancy.to_bits(),
        o.energy_j.to_bits(),
        o.ops_per_second.to_bits(),
        o.ops_per_watt.to_bits(),
        o.launches as u64,
    ]);
    for (k, t) in &o.by_kernel {
        v.extend(str_words(k));
        v.push(t.to_bits());
    }
    v
}

/// Every simulated field of the stats, floats as raw bits.
fn stats_words(s: &ServiceStats) -> Vec<u64> {
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
    ];
    v.extend(s.device_busy_us.iter().map(|t| t.to_bits()));
    v.extend(s.device_utilization.iter().map(|u| u.to_bits()));
    v.extend([
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
    ]);
    for (name, ops) in &s.per_session_ops {
        v.extend(str_words(name));
        v.push(*ops as u64);
    }
    v.extend([
        s.fairness_index.to_bits(),
        s.deadline_misses as u64,
        s.shed_count as u64,
        s.rejected_count as u64,
    ]);
    v
}

/// The words of one drained service: its reports, its stats and its host
/// work (a marker word on the simulated backend).
fn service_words(svc: &FheService, reports: &[RequestReport]) -> Vec<u64> {
    let mut v: Vec<u64> = reports.iter().flat_map(report_words).collect();
    v.extend(stats_words(&svc.stats()));
    match svc.host_work() {
        None => v.push(u64::MAX),
        Some(w) => v.extend([w.ntt_rows, w.conv_cols, w.elems, w.checksum]),
    }
    v
}

fn service(
    devices: usize,
    backend: ExecBackend,
    workers: usize,
    depth: usize,
    admission: AdmissionMode,
) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(devices)
        .backend(backend)
        .rows_cap(4)
        .sched(
            SchedPolicy::new()
                .workers(workers)
                .pipeline_depth(depth)
                .admission(admission),
        )
        .service()
        .expect("valid service config")
}

/// A seeded anonymous stream: one batch of arrivals drained at once, then
/// arrivals submitted between `pump` calls, then a final drain. Requests
/// repeat `(op, level)` groups and some span the batch cap.
fn anonymous_stream(svc: &mut FheService, seed: u64) -> Vec<RequestReport> {
    let max_level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut request = |i: usize| {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let level = rng.gen_range(max_level - 1..=max_level);
        let count = if rng.gen_bool(0.25) {
            rng.gen_range(cap..=cap + 3)
        } else {
            rng.gen_range(1..=4)
        };
        FheRequest::new(op, level, count, format!("c{}", i % 4))
    };
    let mut reports = Vec::new();
    for i in 0..10 {
        svc.submit(request(i)).expect("valid request");
    }
    reports.extend(svc.drain());
    for i in 10..30 {
        svc.submit(request(i)).expect("valid request");
        if i % 3 == 2 {
            reports.extend(svc.pump());
        }
    }
    reports.extend(svc.drain());
    assert_eq!(svc.stats().requests_completed, 30);
    reports
}

#[test]
fn every_dispatch_path_matches_one_golden_digest() {
    let mut words = Vec::new();

    for devices in 1..=4 {
        for depth in [1, 4] {
            for admission in [AdmissionMode::InOrder, AdmissionMode::OutOfOrder] {
                let mut svc = service(devices, ExecBackend::Sim, 1, depth, admission);
                let reports = anonymous_stream(&mut svc, 41);
                words.extend(service_words(&svc, &reports));
            }
        }
    }

    // Three sessions whose key sets do not fit the cache together: the
    // affinity walk keeps each batch on one key set, and every switch
    // between sessions uploads.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(2)
        .backend(ExecBackend::Sim)
        .key_cache_mb(1)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(2)
                .admission(AdmissionMode::InOrder),
        )
        .service()
        .expect("valid service config");
    let level = svc.params().max_level();
    let third = (svc.batch_cap() / 3).max(1);
    let sids: Vec<_> = (0..3)
        .map(|i| {
            svc.register_session(SessionConfig::new(format!("s{i}")))
                .expect("valid session")
        })
        .collect();
    for round in 0..6 {
        for &sid in &sids {
            let op = OPS[round % 2];
            svc.submit(FheRequest::in_session(op, level - round % 2, third, sid))
                .expect("valid request");
        }
    }
    let reports = svc.drain();
    assert!(
        svc.stats().key_uploads > 1,
        "the key cache must force uploads"
    );
    words.extend(service_words(&svc, &reports));

    for workers in [1, 2] {
        let mut svc = service(
            2,
            ExecBackend::HostParallel,
            workers,
            2,
            AdmissionMode::InOrder,
        );
        let reports = anonymous_stream(&mut svc, 41);
        words.extend(service_words(&svc, &reports));
    }

    // A lone one-instance batch, then four clients with one full batch
    // each of the same operation at the same level: independent streams,
    // so four identical batches are in flight at once, after a batch that
    // differs from them in its width only.
    let mut svc = service(2, ExecBackend::Sim, 1, 4, AdmissionMode::InOrder);
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    svc.submit(FheRequest::new(FheOp::HMult, level, 1, "lone"))
        .expect("valid request");
    let mut reports = svc.drain();
    for c in 0..4 {
        svc.submit(FheRequest::new(FheOp::HMult, level, cap, format!("t{c}")))
            .expect("valid request");
    }
    reports.extend(svc.drain());
    let s = svc.stats();
    assert_eq!((s.batches_dispatched, s.inflight_hwm), (5, 4));
    words.extend(service_words(&svc, &reports));

    let digest = fnv64(words);
    assert_eq!(
        digest, GOLDEN,
        "digest {digest:#018x} moved from {GOLDEN:#018x}"
    );
}
