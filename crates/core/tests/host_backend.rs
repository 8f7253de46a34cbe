//! Cross-backend bit-identity: the real-arithmetic host backend vs the
//! simulated executor, across the full scheduler matrix.
//!
//! The backend seam promises that [`ExecBackend`] changes host wall-clock
//! (and the [`HostWorkStats`] counters) only: a `drain` served by a
//! host-backend [`tensorfhe_core::exec::Pool`] must produce
//! **bit-identical** `RequestReport`s and `ServiceStats` to the simulated
//! path at every workers × pipeline-depth × admission point. These tests
//! pin that contract over seeded pseudo-random streams, plus the
//! worker-count independence of the real-work checksum.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::exec::{ExecBackend, HostWorkStats};
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};

const OPS: [FheOp; 6] = [
    FheOp::HAdd,
    FheOp::HMult,
    FheOp::CMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::Conjugate,
];

/// Matrix service with a small real-row cap: the raw-bit contracts below
/// are rows_cap-independent (the cap moves only host wall-clock and the
/// work counters), and capped arithmetic keeps the big matrix tractable
/// in debug builds. The dedicated full-width test drains uncapped.
fn service(
    backend: ExecBackend,
    workers: usize,
    depth: usize,
    admission: AdmissionMode,
) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
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

/// Full-width service: uncapped real arithmetic (`rows_cap = 0`, the
/// production default), with the batch cap narrowed so the uncapped
/// drain stays tractable in debug builds.
fn full_width_service(
    backend: ExecBackend,
    workers: usize,
    depth: usize,
    admission: AdmissionMode,
) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
        .backend(backend)
        .rows_cap(0)
        .batch_cap(2)
        .sched(
            SchedPolicy::new()
                .workers(workers)
                .pipeline_depth(depth)
                .admission(admission),
        )
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

fn stats_bits(s: &ServiceStats) -> Vec<u64> {
    let mut v = vec![
        s.requests_completed as u64,
        s.ops_completed as u64,
        s.batches_dispatched as u64,
        s.launches as u64,
        s.batch_cap as u64,
        s.devices as u64,
        s.pipeline_depth as u64,
        s.reorder_distance as u64,
        s.head_blocked_us.to_bits(),
        s.inflight_hwm as u64,
        s.batch_fill.to_bits(),
        s.busy_us.to_bits(),
        s.energy_j.to_bits(),
        s.mean_queue_us.to_bits(),
        s.ops_per_second.to_bits(),
        s.ops_per_watt.to_bits(),
        s.elapsed_us.to_bits(),
        s.overlap_fraction.to_bits(),
        s.pipelined_ops_per_second.to_bits(),
    ];
    // Per-device accounting must agree too. `workers`/`backend` are
    // allowed to differ — they name the executor, not the results — and
    // so are `steals`/`stolen_rows`/`simd_lanes`: steal counts depend on
    // thread timing and the lane count names the register tile.
    v.extend(s.device_busy_us.iter().map(|t| t.to_bits()));
    v.extend(s.device_utilization.iter().map(|u| u.to_bits()));
    v
}

/// Drives one seeded pseudo-random stream through a service, with a
/// mid-stream drain so queue/clock state is exercised across drains.
fn run_stream(svc: &mut FheService, seed: u64) -> (Vec<RequestReport>, ServiceStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_level = svc.params().max_level();
    let cap = svc.batch_cap();
    let mut reports = Vec::new();
    for phase in 0..2 {
        let requests = rng.gen_range(4..10);
        for i in 0..requests {
            let op = OPS[rng.gen_range(0..OPS.len())];
            let level = rng.gen_range(1..=max_level);
            let count = rng.gen_range(1..=cap * 2);
            svc.submit(FheRequest::new(op, level, count, format!("c{phase}-{i}")))
                .expect("valid request");
        }
        reports.extend(svc.drain());
    }
    (reports, svc.stats())
}

/// The full drain matrix: for each workers × depth × admission point,
/// the host backend must reproduce the simulated backend's reports and
/// stats bit-for-bit (only the `backend` label and `workers` knob may
/// differ), while actually executing real arithmetic.
#[test]
fn host_backends_match_sim_across_sched_matrix() {
    for depth in [1usize, 4] {
        for admission in [AdmissionMode::InOrder, AdmissionMode::OutOfOrder] {
            for workers in [1usize, 4] {
                let mut sim = service(ExecBackend::Sim, workers, depth, admission);
                let (want_reports, want_stats) = run_stream(&mut sim, 0xF1C0 + depth as u64);
                assert!(sim.host_work().is_none(), "sim backend does no host work");
                assert_eq!(want_stats.backend, "sim");

                let mut host = service(ExecBackend::HostParallel, workers, depth, admission);
                let (got_reports, got_stats) = run_stream(&mut host, 0xF1C0 + depth as u64);
                let point = format!("workers={workers} depth={depth} {admission:?}");
                assert_eq!(
                    got_reports.len(),
                    want_reports.len(),
                    "{point}: report count"
                );
                for (g, w) in got_reports.iter().zip(&want_reports) {
                    assert_eq!(report_bits(g), report_bits(w), "{point}: report bits");
                }
                assert_eq!(
                    stats_bits(&got_stats),
                    stats_bits(&want_stats),
                    "{point}: stats bits"
                );
                assert_eq!(got_stats.backend, "host-parallel", "{point}: stats label");
                let work = host.host_work().expect("the host backend reports work");
                assert!(
                    work.ntt_rows > 0 && work.conv_cols > 0,
                    "{point}: must execute real GEMM arithmetic"
                );
            }
        }
    }
}

/// The full-width corner of the matrix: with `rows_cap = 0` (the
/// production default) every row of every batch executes through the
/// work-stealing chunks, and the drain must *still* be bit-identical to
/// the simulated backend at every workers × depth × admission point —
/// including workers beyond the device count (pure thieves). Work
/// conservation must hold at every point too.
#[test]
fn full_width_drain_matches_sim_across_sched_matrix() {
    for depth in [1usize, 4] {
        for admission in [AdmissionMode::InOrder, AdmissionMode::OutOfOrder] {
            for workers in [1usize, 6] {
                let mut sim = full_width_service(ExecBackend::Sim, workers, depth, admission);
                let (want_reports, want_stats) = run_stream(&mut sim, 0xFA11 + depth as u64);
                let mut host =
                    full_width_service(ExecBackend::HostParallel, workers, depth, admission);
                let (got_reports, got_stats) = run_stream(&mut host, 0xFA11 + depth as u64);
                let point = format!("full-width workers={workers} depth={depth} {admission:?}");
                assert_eq!(got_reports.len(), want_reports.len(), "{point}: count");
                for (g, w) in got_reports.iter().zip(&want_reports) {
                    assert_eq!(report_bits(g), report_bits(w), "{point}: report bits");
                }
                assert_eq!(
                    stats_bits(&got_stats),
                    stats_bits(&want_stats),
                    "{point}: stats bits"
                );
                let steals = host.steal_stats().expect("host backend steals");
                assert!(steals.planned_rows > 0, "{point}: planned real work");
                assert_eq!(
                    steals.planned_rows, steals.executed_rows,
                    "{point}: work conservation (every planned unit executes once)"
                );
                assert!(
                    host.host_work().expect("host backend").did_work(),
                    "{point}: real arithmetic ran"
                );
                assert_eq!(got_stats.simd_lanes, 4, "{point}: SIMD tile label");
                assert_eq!(want_stats.simd_lanes, 0, "sim does no host arithmetic");
            }
        }
    }
}

/// The full-width fold is invariant to worker count (and therefore to
/// chunk placement and steal pattern): the uncapped drains of the matrix
/// above must all produce one `HostWorkStats`.
#[test]
fn full_width_checksum_is_worker_invariant() {
    let mut reference = None;
    for workers in [1usize, 4, 6] {
        let mut svc = full_width_service(
            ExecBackend::HostParallel,
            workers,
            1,
            AdmissionMode::InOrder,
        );
        let _ = run_stream(&mut svc, 0xC0FFEE);
        let work = svc.host_work().expect("host backend");
        assert!(work.did_work());
        match &reference {
            None => reference = Some(work),
            Some(want) => assert_eq!(
                &work, want,
                "workers={workers}: full-width host work diverged"
            ),
        }
    }
}

/// The real-work checksum is a pure function of the submitted stream:
/// identical across worker counts (shards are per-device, not
/// per-worker).
#[test]
fn host_work_checksum_is_worker_invariant() {
    let mut reference = None;
    for workers in [1usize, 4] {
        let mut svc = service(
            ExecBackend::HostParallel,
            workers,
            1,
            AdmissionMode::InOrder,
        );
        let _ = run_stream(&mut svc, 0xBEEF);
        let work = svc.host_work().expect("host backend");
        assert!(work.did_work());
        match &reference {
            None => reference = Some(work),
            Some(want) => assert_eq!(&work, want, "workers={workers}: host work diverged"),
        }
    }
}

/// The pool's batch memo spares a repeated batch only its simulated
/// costing: on the host backend every repeat of an identical batch still
/// executes its chunks, so the work counters keep growing.
#[test]
fn host_backend_executes_every_repeated_dispatch() {
    let mut svc = service(ExecBackend::HostParallel, 1, 1, AdmissionMode::InOrder);
    let submit_drain = |svc: &mut FheService| {
        svc.submit(FheRequest::new(FheOp::HMult, 3, 2, "repeat"))
            .expect("valid request");
        let _ = svc.drain();
        svc.host_work().expect("host backend")
    };
    let first = submit_drain(&mut svc);
    let second = submit_drain(&mut svc);
    assert!(
        second.ntt_rows > first.ntt_rows,
        "identical batches must re-execute on the host backend \
         (first {first:?}, second {second:?})"
    );
}

/// The full-width fold of one fixed stream, pinned: the tests above
/// compare checksums only across worker counts, so a change to the host
/// arithmetic's answer (not just its speed) shows only here. Every NTT
/// formulation is bit-identical, so swapping the plan the executor runs
/// leaves this golden as it is.
#[test]
fn full_width_host_work_matches_its_golden() {
    let mut svc = full_width_service(ExecBackend::HostParallel, 1, 1, AdmissionMode::InOrder);
    let _ = run_stream(&mut svc, 0xC0FFEE);
    let want = HostWorkStats {
        ntt_rows: 582,
        conv_cols: 67_584,
        elems: 2_037_760,
        checksum: 9_243_985_122_782_100_294,
    };
    assert_eq!(svc.host_work().expect("host backend"), want);
}
