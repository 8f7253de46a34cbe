//! Figure 12 (multi-tenant serving) — key-affinity coalescing vs blind
//! coalescing under contended key-cache residency.
//!
//! TensorFHE's serving numbers assume the switch/rotation key set of the
//! active tenant is resident in device memory; a multi-tenant server
//! cannot hold every tenant's keys at once, so batch composition decides
//! how often the PCIe key upload lands on the critical path. This bench
//! drives the same interleaved multi-session stream through the service
//! twice — once with the default session-affine coalescer (batches prefer
//! one session's ops, so one key set per batch) and once coalescing
//! blindly in queue order (batches mix every active session's key set) —
//! and measures the residency and makespan gap:
//!
//! * **`affinity_speedup`** — blind makespan / affinity makespan at the
//!   canonical point (4 tenants, cache holding 2 key sets). Deterministic
//!   (simulated clock, fixed stream), pinned in `BENCH_baseline.json`
//!   and gated by `check_regression`.
//! * **`affinity_hit_rate`** — the affinity coalescer's key-cache hit
//!   rate at the warm point (4 tenants, cache holding all 4 key sets),
//!   also pinned. (At the contended point both policies cycle-thrash the
//!   LRU to a 0 hit rate — the makespan ratio is the signal there.)
//!
//! The sweep prints tenants × cache-capacity rows for the trajectory:
//! affinity keeps its hit rate as tenancy outgrows the cache, blind
//! coalescing degrades toward a thrash on every batch.

use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::service::FheRequest;
use tensorfhe_core::{CoalescePolicy, SchedPolicy, SessionConfig};

struct Run {
    elapsed_us: f64,
    hit_rate: f64,
    misses: u64,
    upload_us: f64,
    fairness: f64,
    ops: usize,
}

/// One tenant's switch/rotation key-set footprint in bytes, as the
/// session tier derives it from the parameter set.
fn key_set_bytes(params: &CkksParams) -> u64 {
    let mut svc = TensorFhe::builder(params).service().expect("valid");
    let id = svc
        .register_session(SessionConfig::new("probe"))
        .expect("valid");
    svc.session(id).expect("registered").key_bytes()
}

/// Drain `rounds` interleaved quarter-cap HMult requests per tenant with
/// a cache holding `cache_sets` key sets, under the given coalescer.
fn run(
    params: &CkksParams,
    policy: CoalescePolicy,
    tenants: usize,
    cache_sets: u64,
    rounds: usize,
) -> Run {
    let set_bytes = key_set_bytes(params);
    let cache_mb = ((cache_sets * set_bytes) >> 20).max(1);
    let mut svc = TensorFhe::builder(params)
        .sched(SchedPolicy::new().workers(1).pipeline_depth(1))
        .key_cache_mb(cache_mb)
        .coalesce_policy(policy)
        .service()
        .expect("valid");
    let level = svc.params().max_level();
    let cap = svc.batch_cap();
    let quarter = (cap / 4).max(1);
    let sids: Vec<_> = (0..tenants)
        .map(|i| {
            svc.register_session(SessionConfig::new(format!("tenant-{i}")))
                .expect("valid")
        })
        .collect();
    // Strict interleave: queue order alternates tenants, so a coalescer
    // that walks the queue blindly packs every tenant's key set into
    // every batch.
    for _ in 0..rounds {
        for &sid in &sids {
            svc.submit(FheRequest::in_session(FheOp::HMult, level, quarter, sid))
                .expect("valid");
        }
    }
    svc.drain();
    let s = svc.stats();
    Run {
        elapsed_us: s.elapsed_us,
        hit_rate: s.key_cache_hit_rate,
        misses: s.key_cache_misses,
        upload_us: s.key_upload_us,
        fairness: s.fairness_index,
        ops: s.ops_completed,
    }
}

fn main() {
    let params = CkksParams::heax_set_c();
    let rounds = if report::smoke() { 8 } else { 24 };
    let set_mb = key_set_bytes(&params) as f64 / (1u64 << 20) as f64;

    let mut rows = Vec::new();
    for tenants in [2usize, 4, 8] {
        for cache_sets in [1u64, 2, 4] {
            let aff = run(
                &params,
                CoalescePolicy::KeyAffinity,
                tenants,
                cache_sets,
                rounds,
            );
            let blind = run(&params, CoalescePolicy::Blind, tenants, cache_sets, rounds);
            assert_eq!(
                aff.ops, blind.ops,
                "both coalescers must serve the identical stream"
            );
            assert!(
                (aff.fairness - 1.0).abs() < 1e-9,
                "equal tenants fully drained must be perfectly fair, got {}",
                aff.fairness
            );
            rows.push(vec![
                format!("{tenants}"),
                format!("{cache_sets}"),
                format!("{:.2}", aff.hit_rate),
                format!("{:.2}", blind.hit_rate),
                format!("{}", aff.misses),
                format!("{}", blind.misses),
                format!("{:.1}", aff.upload_us / 1e3),
                format!("{:.1}", blind.upload_us / 1e3),
                format!("{:.3}×", blind.elapsed_us / aff.elapsed_us),
            ]);
            // Once the cache is under-provisioned for the tenancy, the
            // affinity walk must never thrash worse than the blind walk.
            if (cache_sets as usize) < tenants {
                assert!(
                    aff.misses <= blind.misses,
                    "affinity coalescing thrashed more than blind at \
                     {tenants} tenants / {cache_sets}-set cache: {} vs {}",
                    aff.misses,
                    blind.misses
                );
            }
        }
    }

    print_table(
        &format!(
            "Figure 12 (multi-tenant) — key-affine vs blind coalescing \
             (HEAX-C, {set_mb:.0} MiB key set per tenant, {rounds} rounds)"
        ),
        &[
            "tenants",
            "cache (sets)",
            "hit aff",
            "hit blind",
            "miss aff",
            "miss blind",
            "upload aff ms",
            "upload blind ms",
            "speedup",
        ],
        &rows,
    );

    // The pinned point: 4 tenants contending for a 2-set cache, at a
    // fixed round count so smoke and full runs emit the same number.
    let aff = run(&params, CoalescePolicy::KeyAffinity, 4, 2, 8);
    let blind = run(&params, CoalescePolicy::Blind, 4, 2, 8);
    let speedup = blind.elapsed_us / aff.elapsed_us;
    assert!(
        aff.misses < blind.misses,
        "session-affine batches must miss less than blind batches: {} vs {}",
        aff.misses,
        blind.misses
    );
    assert!(
        speedup > 1.0,
        "key-affine coalescing must beat blind coalescing on makespan, \
         got {speedup:.3}× (affinity {:.0} µs vs blind {:.0} µs)",
        aff.elapsed_us,
        blind.elapsed_us
    );

    // The warm point: the cache holds every tenant, so after the cold
    // uploads the affinity walk must run entirely resident.
    let warm = run(&params, CoalescePolicy::KeyAffinity, 4, 4, 8);
    assert!(
        warm.hit_rate >= 0.5,
        "a cache holding every tenant must serve warm batches from \
         residency, got hit rate {:.2}",
        warm.hit_rate
    );

    println!(
        "\n4 tenants, 2-set cache: affinity {speedup:.3}× faster than blind \
         (upload {:.1} ms vs {:.1} ms); warm hit rate {:.2}",
        aff.upload_us / 1e3,
        blind.upload_us / 1e3,
        warm.hit_rate
    );

    report::emit(
        "fig12_multitenant",
        &[
            ("affinity_speedup", speedup),
            ("affinity_hit_rate", warm.hit_rate),
        ],
    );
}
