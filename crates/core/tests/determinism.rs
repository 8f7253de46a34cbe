//! Serial-vs-threaded drain determinism.
//!
//! The executor seam promises that the worker count changes host
//! wall-clock only: a `drain` served by a multi-threaded `Pool` must
//! produce **bit-identical** `RequestReport`s and `ServiceStats` to the
//! one-thread pool — ids, completion order, float stats down to the last
//! bit, launch counts, per-kernel tables. Only the host backend spawns
//! worker threads (they run its real-arithmetic chunks; the simulated
//! costing always runs on the calling thread), so the threaded side of
//! every comparison here is a host-parallel service. These tests pin that contract
//! across seeded pseudo-random streams and a ragged-queue property suite,
//! plus the per-device utilization invariants and the pickup of the
//! `TENSORFHE_*` variables that drive the CI matrix.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::exec::ExecBackend;
use tensorfhe_core::sched::SchedPolicy;
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};

const OPS: [FheOp; 6] = [
    FheOp::HAdd,
    FheOp::HMult,
    FheOp::CMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::Conjugate,
];

fn service(devices: usize, workers: usize) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(devices)
        .sched(SchedPolicy::new().workers(workers))
        .service()
        .expect("valid service config")
}

/// A service whose pool really runs `workers` threads: the host backend,
/// with a small real-row cap to keep debug builds fast (the cap moves
/// only host wall-clock and the work counters).
fn threaded(devices: usize, workers: usize) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .devices(devices)
        .backend(ExecBackend::HostParallel)
        .rows_cap(4)
        .sched(SchedPolicy::new().workers(workers))
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
        s.batch_fill.to_bits(),
        s.busy_us.to_bits(),
        s.energy_j.to_bits(),
        s.mean_queue_us.to_bits(),
        s.ops_per_second.to_bits(),
        s.ops_per_watt.to_bits(),
    ];
    // Per-worker accounting must agree too (`workers` itself is allowed to
    // differ — it names the executor, not the results).
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
        let requests = rng.gen_range(5..20);
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

fn assert_identical(serial: &mut FheService, threaded: &mut FheService, seed: u64) {
    let (rs, ss) = run_stream(serial, seed);
    let (rt, st) = run_stream(threaded, seed);
    assert_eq!(rs.len(), rt.len(), "report counts differ at seed {seed}");
    for (a, b) in rs.iter().zip(&rt) {
        assert_eq!(a.client, b.client, "client order differs at seed {seed}");
        assert_eq!(
            report_bits(a),
            report_bits(b),
            "reports diverged at seed {seed}: serial {a:?} vs threaded {b:?}"
        );
    }
    assert_eq!(
        stats_bits(&ss),
        stats_bits(&st),
        "service stats diverged at seed {seed}: {ss:?} vs {st:?}"
    );
}

#[test]
fn threaded_drain_is_bit_identical_to_serial_across_seeds() {
    for seed in [0u64, 1, 7, 42, 1234, 0xDEAD_BEEF] {
        let mut serial = service(4, 1);
        let mut threaded = threaded(4, 4);
        assert_eq!(serial.workers(), 1);
        assert_eq!(threaded.workers(), 4);
        assert_identical(&mut serial, &mut threaded, seed);
    }
}

#[test]
fn two_worker_pool_over_four_devices_is_identical_too() {
    // Workers need not equal devices: each of two threads is home to the
    // chunks of two devices.
    let mut serial = service(4, 1);
    let mut pool = threaded(4, 2);
    assert_eq!(pool.workers(), 2);
    assert_identical(&mut serial, &mut pool, 99);
}

#[test]
fn single_device_utilization_is_exactly_one() {
    let mut svc = service(1, 1);
    let level = svc.params().max_level();
    svc.submit(FheRequest::new(FheOp::HMult, level, 24, "a"))
        .expect("valid");
    svc.drain();
    let s = svc.stats();
    assert_eq!(s.device_busy_us.len(), 1);
    assert_eq!(
        s.device_utilization,
        vec![1.0],
        "one device is always on the critical path"
    );
    assert_eq!(s.device_busy_us[0].to_bits(), s.busy_us.to_bits());
}

#[test]
fn traced_launch_streams_are_fifo_clean_per_stream() {
    // Every kernel the engine lowers onto the device must land in its
    // stream in FIFO order with non-negative, finite durations — the
    // structural invariant `verify_launch_intervals` pins, here checked
    // over a real traced schedule rather than a synthetic interval list.
    use tensorfhe_ckks::KernelTracer;
    use tensorfhe_core::api::schedule_events;
    use tensorfhe_core::{Engine, EngineConfig, Variant};

    let params = CkksParams::test_small();
    let mut engine = Engine::new(EngineConfig::a100(Variant::TensorCore));
    let level = params.max_level();
    // One costing window, the path both the evaluator and `run_schedule`
    // take, with three operations traced into it.
    let mut tracer = engine.tracer(4);
    for op in [FheOp::HMult, FheOp::HRotate, FheOp::Rescale] {
        tracer.op_begin(op.name());
        for &e in &schedule_events(&params, op, level) {
            tracer.kernel(e);
        }
    }
    engine.finish(&mut tracer);
    let intervals: Vec<_> = tracer.sim().intervals().collect();
    assert!(!intervals.is_empty(), "the traced run must launch kernels");
    let report = tensorfhe_analyze::verify_launch_intervals(intervals);
    assert!(report.is_clean(), "launch-stream violations:\n{report}");
}

#[test]
fn device_utilizations_sum_match_attributed_launch_time() {
    // The invariant behind `ServiceStats::device_utilization`: per-device
    // busy times sum exactly to the total device time the executor
    // attributed across every dispatched batch, and each utilization is
    // that device's share of the service's busy window (≤ 1).
    use tensorfhe_core::exec::{ExecBatch, Pool};
    use tensorfhe_core::EngineConfig;

    let mut svc = threaded(4, 4);
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    // Two distinct batch shapes: one full, one ragged.
    svc.submit(FheRequest::new(FheOp::HMult, level, cap, "a"))
        .expect("valid");
    svc.submit(FheRequest::new(FheOp::HRotate, level, cap / 2 + 1, "b"))
        .expect("valid");
    svc.drain();
    let s = svc.stats();

    // Independent replay through a fresh one-thread pool: same batches in
    // the same order must attribute the same per-device time.
    let params = svc.params().clone();
    let cfg = EngineConfig::a100(tensorfhe_core::Variant::TensorCore);
    let mut replay = Pool::new(&cfg, &params, 4, 1, ExecBackend::Sim, 0).expect("valid pool");
    let mut expected = vec![0.0f64; 4];
    for (op, width) in [(FheOp::HMult, cap), (FheOp::HRotate, cap / 2 + 1)] {
        let h = replay.submit(ExecBatch { op, level, width });
        for (d, t) in replay.join(h).per_device_us.iter().enumerate() {
            expected[d] += t;
        }
    }
    for (d, (got, want)) in s.device_busy_us.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "device {d} busy time diverged from the replayed attribution"
        );
    }
    let total_busy: f64 = s.device_busy_us.iter().sum();
    let util_sum: f64 = s.device_utilization.iter().sum();
    assert!(
        (util_sum * s.busy_us - total_busy).abs() < 1e-9 * total_busy.max(1.0),
        "utilizations must sum-match the attributed device time"
    );
    for (d, u) in s.device_utilization.iter().enumerate() {
        assert!(*u > 0.0, "device {d} served nothing");
        assert!(*u <= 1.0 + 1e-12, "device {d} busier than the wall: {u}");
    }
}

#[test]
fn service_picks_up_every_env_var() {
    // The five `TENSORFHE_*` variables supply what the builder leaves
    // unset (their parsing rules are tabled in-crate). Env is
    // process-global and other threads of this test binary read it
    // concurrently, so the checks run in a child process — a re-exec of
    // this binary with all five fixed at spawn — and this process never
    // mutates its own environment.
    use tensorfhe_core::sched::AdmissionMode;
    const VARS: [(&str, &str); 5] = [
        ("TENSORFHE_WORKERS", "2"),
        ("TENSORFHE_PIPELINE", "3"),
        ("TENSORFHE_ADMISSION", "ooo"),
        ("TENSORFHE_BACKEND", "host-parallel"),
        ("TENSORFHE_ROWS_CAP", "2"),
    ];
    if std::env::var_os("TENSORFHE_ENV_PROBE").is_some() {
        let drained = |builder: tensorfhe_core::TensorFheBuilder| {
            let mut svc = builder.devices(2).service().expect("valid");
            let level = svc.params().max_level();
            svc.submit(FheRequest::new(FheOp::HMult, level, 3, "a"))
                .expect("valid");
            svc.drain();
            svc
        };
        let params = CkksParams::test_small();
        let from_env = drained(TensorFhe::builder(&params));
        assert_eq!(from_env.workers(), 2);
        assert_eq!(from_env.pipeline_depth(), 3);
        assert_eq!(from_env.admission(), AdmissionMode::OutOfOrder);
        assert_eq!(from_env.stats().backend, "host-parallel");
        // The row cap shows only in the real work done.
        let explicit = drained(
            TensorFhe::builder(&params)
                .backend(ExecBackend::HostParallel)
                .rows_cap(2),
        );
        assert_eq!(from_env.host_work(), explicit.host_work());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["service_picks_up_every_env_var", "--exact"])
        .env("TENSORFHE_ENV_PROBE", "1")
        .envs(VARS)
        .output()
        .expect("spawn env probe child");
    assert!(
        out.status.success(),
        "env probe failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged queues: any mix of operations, levels, counts and client
    /// interleavings must drain identically under the one-thread pool and
    /// the 4-worker pool — including streams whose final batches are
    /// partially filled and requests spanning several batches.
    #[test]
    fn ragged_queue_drains_identically_serial_vs_threaded(
        requests in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let mut serial = service(4, 1);
        let mut threaded = threaded(4, 4);
        let max_level = serial.params().max_level();
        let cap = serial.batch_cap();
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<FheRequest> = (0..requests)
            .map(|i| {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let level = rng.gen_range(1..=max_level);
                let count = rng.gen_range(1..=cap + 3);
                FheRequest::new(op, level, count, format!("c{}", i % 3))
            })
            .collect();
        serial.submit_stream(stream.clone()).expect("valid stream");
        threaded.submit_stream(stream).expect("valid stream");
        let rs = serial.drain();
        let rt = threaded.drain();
        prop_assert_eq!(rs.len(), rt.len());
        for (a, b) in rs.iter().zip(&rt) {
            prop_assert_eq!(report_bits(a), report_bits(b));
        }
        prop_assert_eq!(stats_bits(&serial.stats()), stats_bits(&threaded.stats()));
    }
}
