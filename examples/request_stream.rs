//! Request-stream serving: many clients, one batching FHE service.
//!
//! §IV-E: the API layer "collects and decomposes the requests for FHE
//! operations from the user applications … automatically generates the best
//! batch size". Three simulated tenants submit interleaved heterogeneous
//! requests; the service coalesces compatible ones into VRAM-feasible
//! batches and reports per-request latency plus aggregate throughput —
//! then the same stream is replayed one-by-one through the engine-level
//! costing path to show the batching win (Fig. 14 behaviour).
//!
//! Run with: `cargo run --release --example request_stream`

use tensorfhe::ckks::CkksParams;
use tensorfhe::core::api::{FheOp, TensorFhe};
use tensorfhe::core::service::FheRequest;
use tensorfhe::core::{ResidencyEvent, SessionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // N = 2^14 (the HEAX Set-C scale): single operations underfill the
    // A100, which is exactly when service-side coalescing pays (Fig. 14).
    let params = CkksParams::heax_set_c();
    let level = params.max_level();

    // An interleaved stream from three tenants: a neural-net inference
    // tenant (mult-heavy), an aggregation tenant (rotations) and a
    // bookkeeping tenant (rescales).
    let stream: Vec<FheRequest> = (0..8)
        .flat_map(|round| {
            vec![
                FheRequest::new(FheOp::HMult, level, 24, "tenant-nn"),
                FheRequest::new(FheOp::HRotate, level, 16, "tenant-agg"),
                FheRequest::new(FheOp::Rescale, level, 8 + round, "tenant-book"),
            ]
        })
        .collect();
    let total_ops: usize = stream.iter().map(|r| r.count).sum();

    let mut svc = TensorFhe::builder(&params).service()?;
    println!(
        "service: batch cap {} on {} device(s); submitting {} requests / {} ops",
        svc.batch_cap(),
        svc.devices(),
        stream.len(),
        total_ops,
    );
    svc.submit_stream(stream.clone())?;
    let reports = svc.drain();
    let stats = svc.stats();

    println!("\nper-request (first 6 of {}):", reports.len());
    for r in reports.iter().take(6) {
        println!(
            "  #{:3} {:12} {:8} ×{:3}  {:9.2} ms attributed, queued {:9.2} ms, {} batch(es)",
            r.id.raw(),
            r.client,
            r.report.op.name(),
            r.report.batch,
            r.report.time_us / 1e3,
            r.queue_us / 1e3,
            r.batches,
        );
    }
    println!(
        "\nservice totals: {} batches (fill {:4.1}%), {:8.1} ms busy, {:7.0} ops/s, {:6.2} ops/W",
        stats.batches_dispatched,
        stats.batch_fill * 100.0,
        stats.busy_us / 1e3,
        stats.ops_per_second,
        stats.ops_per_watt,
    );

    // The same stream on a 4-device cluster. Coalesced batches grow 4×
    // and shard, so simulated throughput scales; the pool costs the four
    // shards in device order on this thread.
    let mut cluster = TensorFhe::builder(&params).devices(4).service()?;
    cluster.submit_stream(stream.clone())?;
    cluster.drain();
    let cstats = cluster.stats();
    println!(
        "\n4-device service: batch cap {}, {:7.0} ops/s ({:4.2}× the single \
         device), per-device utilization {:?}",
        cstats.batch_cap,
        cstats.ops_per_second,
        cstats.ops_per_second / stats.ops_per_second,
        cstats
            .device_utilization
            .iter()
            .map(|u| (u * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    );

    // The session tier: the same three tenants, now *registered* clients.
    // Each brings its own switch/rotation key set — the aggregation
    // tenant registered a wide rotation step set, the bookkeeper a
    // minimal one — and the key cache is sized to hold only two of the
    // three footprints, so residency is contended. The nn tenant pays
    // for a 2× fair share; the bookkeeper runs under a latency budget.
    let probe = {
        let mut p = TensorFhe::builder(&params).service()?;
        let id = p.register_session(SessionConfig::new("probe"))?;
        p.session(id).expect("registered").key_bytes()
    };
    let mut tiered = TensorFhe::builder(&params)
        .key_cache_mb((2 * probe) >> 20)
        .service()?;
    let nn = tiered.register_session(SessionConfig::new("tenant-nn").weight(2.0))?;
    let agg = tiered.register_session(SessionConfig::new("tenant-agg").galois_steps(48))?;
    let book = tiered.register_session(
        SessionConfig::new("tenant-book")
            .galois_steps(2)
            .deadline_us(2e6),
    )?;
    for round in 0..8 {
        tiered.submit(FheRequest::in_session(FheOp::HMult, level, 24, nn))?;
        tiered.submit(FheRequest::in_session(FheOp::HRotate, level, 16, agg))?;
        tiered.submit(FheRequest::in_session(
            FheOp::Rescale,
            level,
            8 + round,
            book,
        ))?;
    }
    tiered.drain();
    let tstats = tiered.stats();
    println!("\nsession tier (cache = 2 of 3 key-set footprints):");
    for s in tiered.sessions() {
        println!(
            "  {:12} key set {:6.1} MiB, weight {:3.1}, served {:3} ops",
            s.name(),
            s.key_bytes() as f64 / (1u64 << 20) as f64,
            s.weight(),
            s.served_ops(),
        );
    }
    let evictions = tiered
        .residency_trace()
        .iter()
        .filter(|e| matches!(e, ResidencyEvent::Evict { .. }))
        .count();
    println!(
        "  key cache: {:4.1}% hit rate ({} hits / {} misses), {} evictions, \
         {:.1} ms spent on key uploads",
        tstats.key_cache_hit_rate * 100.0,
        tstats.key_cache_hits,
        tstats.key_cache_misses,
        evictions,
        tstats.key_upload_us / 1e3,
    );
    println!(
        "  fairness (Jain over served ops): {:.3}; deadline misses: {}; \
         shed: {}; rejected: {}",
        tstats.fairness_index, tstats.deadline_misses, tstats.shed_count, tstats.rejected_count,
    );

    // Legacy path: the same stream, one operation at a time, caller-driven
    // through the engine (width-1 schedules, no coalescing).
    let mut api = TensorFhe::builder(&params).build()?;
    let mut legacy_us = 0.0;
    for req in &stream {
        let events = api.schedule_of(req.op, req.level);
        for _ in 0..req.count {
            legacy_us += api
                .engine_mut()
                .run_schedule(req.op.name(), &events, 1)
                .time_us;
        }
    }
    let legacy_ops_s = total_ops as f64 / (legacy_us * 1e-6);
    println!(
        "legacy one-by-one: {:8.1} ms busy, {:7.0} ops/s",
        legacy_us / 1e3,
        legacy_ops_s,
    );
    println!(
        "\nbatching win: {:.1}× throughput from service-side coalescing (Fig. 14)",
        stats.ops_per_second / legacy_ops_s,
    );
    Ok(())
}
