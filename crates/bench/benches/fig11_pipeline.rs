//! Figure 11 (pipeline) — overlap throughput vs in-flight window depth on
//! the simulated cluster.
//!
//! A mixed-(op, level) multi-client stream — many mutually *incompatible*
//! coalescing groups of one or two operations each, every group its own
//! client — drains against window depths 1, 2 and 4
//! (`SchedPolicy::pipeline_depth`) on a fixed 4-device cluster. Two
//! kinds of numbers fall out:
//!
//! * **Simulated pipelined ops/s** — deterministic overlap-clock
//!   throughput (`ServiceStats::pipelined_ops_per_second`): narrow
//!   independent batches that serialize onto one mostly-idle cluster at
//!   depth 1 run concurrently on the idle devices once the scheduler may
//!   keep several in flight. The depth-4 / depth-1 ratio is pinned in
//!   `BENCH_baseline.json` and gated by `check_regression`.
//! * **Request accounting** — by the scheduler's own contract the depth
//!   cannot move reports or the busy-time stats (that is what the
//!   bit-identity check below enforces), so queue latency and `ops/s`
//!   stay the serial reference numbers at every depth.
//!
//! The pipelining feature itself is held to three assertions: each service
//! must really run the configured depth, the depth-4 drain of the stream
//! must be bit-identical to the depth-1 drain, and the window must
//! actually fill (`inflight_hwm == 4`).

use std::time::Instant;
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::sched::SchedPolicy;
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};

const OPS: [FheOp; 6] = [
    FheOp::HMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::HAdd,
    FheOp::CMult,
    FheOp::Conjugate,
];

/// The fixed stream: every `(op, level)` pair is its own coalescing group
/// of one or two instances from its own client, so the serial path runs
/// narrow batches one at a time while devices idle — exactly the queue
/// shape the in-flight window exists for (GME-style multi-queue dispatch).
fn submit_stream(svc: &mut FheService, levels: usize) {
    let max_level = svc.params().max_level();
    let levels = levels.min(max_level);
    let mut client = 0usize;
    for level in (1..=max_level).rev().take(levels) {
        for (i, op) in OPS.into_iter().enumerate() {
            let count = 1 + (i + level) % 2; // widths 1 and 2, mixed
            svc.submit(FheRequest::new(op, level, count, format!("c{client}")))
                .expect("valid");
            client += 1;
        }
    }
}

fn drain(depth: usize, levels: usize) -> (Vec<RequestReport>, ServiceStats, f64) {
    let params = CkksParams::heax_set_c();
    let mut svc = TensorFhe::builder(&params)
        .devices(4)
        .sched(SchedPolicy::new().pipeline_depth(depth))
        .service()
        .expect("valid service");
    assert_eq!(
        svc.pipeline_depth(),
        depth,
        "service must run the configured window depth (no silent depth-1 fallback)"
    );
    submit_stream(&mut svc, levels);
    let t0 = Instant::now();
    let reports = svc.drain();
    let host_ms = t0.elapsed().as_secs_f64() * 1e3;
    (reports, svc.stats(), host_ms)
}

fn main() {
    let levels = if report::smoke() { 8 } else { 16 };

    let mut rows = Vec::new();
    let mut pipelined = Vec::new();
    let mut base = 0.0f64;
    let mut all_reports = Vec::new();
    for depth in [1usize, 2, 4] {
        let (reports, stats, host_ms) = drain(depth, levels);
        if depth == 1 {
            base = stats.pipelined_ops_per_second;
            assert_eq!(
                stats.elapsed_us.to_bits(),
                stats.busy_us.to_bits(),
                "depth 1 must collapse to the serial clock"
            );
        }
        rows.push(vec![
            format!("{depth}"),
            format!("{}", stats.inflight_hwm),
            format!("{:.0}", stats.busy_us),
            format!("{:.0}", stats.elapsed_us),
            format!("{:.2}", stats.overlap_fraction),
            format!("{:.0}", stats.pipelined_ops_per_second),
            format!("{:.2}×", stats.pipelined_ops_per_second / base),
            format!("{host_ms:.1}"),
        ]);
        pipelined.push(stats.pipelined_ops_per_second);
        all_reports.push((depth, reports, stats));
    }

    let device = TensorFhe::builder(&CkksParams::heax_set_c())
        .service()
        .expect("valid service")
        .device_name()
        .to_string();
    print_table(
        &format!(
            "Figure 11 (pipeline) — overlap vs window depth \
             (mixed-(op, level) stream, 4 simulated {device} devices)"
        ),
        &[
            "depth",
            "in-flight hwm",
            "busy µs",
            "elapsed µs",
            "overlap",
            "sim ops/s (elapsed)",
            "speedup",
            "host drain ms",
        ],
        &rows,
    );

    // Bit-identity: the depth-4 drain must charge every request exactly
    // what the depth-1 drain did — pipelining moves the schedule, not the
    // accounting.
    let (_, d1_reports, d1_stats) = &all_reports[0];
    let (_, d4_reports, d4_stats) = &all_reports[2];
    assert_eq!(d1_reports.len(), d4_reports.len());
    for (a, b) in d1_reports.iter().zip(d4_reports) {
        assert_eq!(a.id, b.id, "completion order diverged");
        assert_eq!(
            a.report.time_us.to_bits(),
            b.report.time_us.to_bits(),
            "pipelined drain must be bit-identical to depth 1"
        );
        assert_eq!(a.queue_us.to_bits(), b.queue_us.to_bits());
        assert_eq!(a.report.launches, b.report.launches);
    }
    assert_eq!(d1_stats.busy_us.to_bits(), d4_stats.busy_us.to_bits());
    assert_eq!(
        d1_stats.ops_per_second.to_bits(),
        d4_stats.ops_per_second.to_bits()
    );
    assert_eq!(d4_stats.inflight_hwm, 4, "depth-4 window never filled");

    let speedup_2 = pipelined[1] / pipelined[0];
    let speedup_4 = pipelined[2] / pipelined[0];

    // The acceptance property: a depth-4 window serves the mixed stream at
    // ≥1.8× the depth-1 overlap-clock throughput (sub-4× only through
    // width-2 groups occupying two device queues each).
    assert!(
        speedup_4 >= 1.8,
        "depth-4 window must overlap ≥1.8×: got {speedup_4:.2}× ({pipelined:?})"
    );
    assert!(
        speedup_2 > 1.0,
        "depth-2 window must beat serial: got {speedup_2:.2}×"
    );

    println!(
        "\ndepth 4: {speedup_4:.2}× simulated overlap-clock ops/s over depth 1 \
         (depth 2: {speedup_2:.2}×); depth-4 drain bit-identical to depth 1"
    );

    report::emit(
        "fig11_pipeline",
        &[
            ("pipeline_speedup_depth2", speedup_2),
            ("pipeline_speedup_depth4", speedup_4),
        ],
    );
}
