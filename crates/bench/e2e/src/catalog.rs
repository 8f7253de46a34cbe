//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit, direction and the prediction it carries.
//! `BENCHMARK.json` at the repository root says the same to the driver; a
//! unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub const EVAL_BUTTERFLY: &str = "eval_butterfly";
pub const EVAL_GEMM: &str = "eval_gemm";
pub const SVC_HOST: &str = "svc_host";
pub const SVC_SIM: &str = "svc_sim";
pub const PAPER_MODEL: &str = "paper_model";

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        EVAL_BUTTERFLY,
        "real ciphertexts through ckks::Evaluator with the butterfly NTT at HEAX set B; ckks keyswitch, ntt butterfly and Barrett BasisConvGemm do the work, core and gpu do none",
    ),
    (
        EVAL_GEMM,
        "same circuit and seed with the four-step GEMM NTT; the wide-GEMM NTT dominates and the butterfly is never called, so a GEMM change shows here and not on eval_butterfly",
    ),
    (
        SVC_HOST,
        "FheService on the host-parallel backend at HEAX set B; core exec chunking and stealing plus the ntt fast batch and math Montgomery GEMM kernels do the work, queueing is trivial",
    ),
    (
        SVC_SIM,
        "one long-lived FheService on the sim backend at ResNet-20 scale, 8 tenants re-running their circuits, out-of-order admission; sessions, DRR, scoreboard and key cache do the work, no arithmetic runs",
    ),
    (
        PAPER_MODEL,
        "deterministic costings of 16 figures of the paper's Tables VI, VII, VIII and X, one a round; measures uncached simulator speed and the cost model's distance from the paper",
    ),
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Reported by every workload in an untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "FHE ops (or costed figures) per host second at the fast clock state: median over request-pattern periods",
    },
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median host latency of one round (circuit, wave or figure costing) at the fast clock state",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the workload's process at the end of the timed phase",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host seconds at the fast clock state before the first timed round (context, keys, plans, inputs, service, warm-up): median of the 3 or more set-ups the process makes in 4 s",
    },
];

/// A metric of one layer, reported by the traced run of the workloads in
/// `on` (0 elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit for one seed on one build (counts, simulated values).
    pub exact: bool,
    /// Workloads whose traced run reports it.
    pub on: &'static [&'static str],
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const EVAL: &[&str] = &[EVAL_BUTTERFLY, EVAL_GEMM];
const EVAL_HOST: &[&str] = &[EVAL_BUTTERFLY, EVAL_GEMM, SVC_HOST];
const GEMM_HOST: &[&str] = &[EVAL_GEMM, SVC_HOST];
const HOST: &[&str] = &[SVC_HOST];
const SVC: &[&str] = &[SVC_HOST, SVC_SIM];
const SIM_PAPER: &[&str] = &[SVC_SIM, PAPER_MODEL];
const PAPER: &[&str] = &[PAPER_MODEL];
const ALL: &[&str] = &[EVAL_BUTTERFLY, EVAL_GEMM, SVC_HOST, SVC_SIM, PAPER_MODEL];

const fn rate(
    name: &'static str,
    unit: &'static str,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        on,
        moves,
    }
}

const fn cost(
    name: &'static str,
    unit: &'static str,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        on,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        on,
        moves,
    }
}

const HOST_OPS: &str = "ops_per_s on svc_host only (the evaluator does not call the fast kernels)";
const EVAL_OPS: &str = "ops_per_s, round_ms_p50 on eval_*";
const EVAL_SETUP: &str = "setup_s on eval_* only (client side, not a serving cost)";
const SIM_OPS: &str = "ops_per_s on svc_sim";
const SIM_UTIL: &str = "sim_util on svc_sim";
const PAPER_ERR: &str =
    "sim_paper_log_err on paper_model; bit-equal under a simulator-speed change";
const INFO: &str = "configuration or diagnostic, moves nothing";

/// Every per-layer metric, grouped by layer (= crate).
pub const PER_LAYER: &[PerLayer] = &[
    // math
    cost("math.barrett_mul_ns", "ns", EVAL_HOST, EVAL_OPS),
    cost("math.mont_mul_ns", "ns", HOST, HOST_OPS),
    rate("math.tile_scalar_mmac_s", "Mmac/s", HOST, INFO),
    rate("math.tile_simd4_mmac_s", "Mmac/s", HOST, HOST_OPS),
    rate("math.gemm_rm_mmac_s", "Mmac/s", HOST, HOST_OPS),
    rate("math.gemm_lm_mmac_s", "Mmac/s", HOST, HOST_OPS),
    rate("math.bconv_barrett_melem_s", "Melem/s", EVAL_HOST, EVAL_OPS),
    rate("math.bconv_mont_melem_s", "Melem/s", HOST, HOST_OPS),
    exact(
        "math.scratch_grows",
        "count",
        Better::Lower,
        EVAL,
        "scratch buffers the caller thread's pool gained over the checked rounds; expect 0",
    ),
    exact(
        "math.gemm_ops_per_byte",
        "mac/B",
        Better::Higher,
        HOST,
        "computed from the GEMM shape; places gemm_rm on the roofline",
    ),
    rate(
        "math.peak_mmac_s",
        "Mmac/s",
        EVAL_HOST,
        "calibration: roofline compute bound",
    ),
    rate(
        "math.stream_gb_s",
        "GB/s",
        EVAL_HOST,
        "calibration: roofline memory bound",
    ),
    // ntt
    rate(
        "ntt.butterfly_fwd_rows_s",
        "rows/s",
        &[EVAL_BUTTERFLY],
        "ops_per_s on eval_butterfly only",
    ),
    rate(
        "ntt.butterfly_inv_rows_s",
        "rows/s",
        &[EVAL_BUTTERFLY],
        "ops_per_s on eval_butterfly only",
    ),
    rate(
        "ntt.fourstep_fwd_rows_s",
        "rows/s",
        &[EVAL_GEMM],
        "ops_per_s on eval_gemm only",
    ),
    rate(
        "ntt.fourstep_inv_rows_s",
        "rows/s",
        &[EVAL_GEMM],
        "ops_per_s on eval_gemm only",
    ),
    rate(
        "ntt.fourstep_fast_fwd_rows_s",
        "rows/s",
        GEMM_HOST,
        HOST_OPS,
    ),
    rate(
        "ntt.fourstep_fast_inv_rows_s",
        "rows/s",
        GEMM_HOST,
        HOST_OPS,
    ),
    rate("ntt.tensorcore_fwd_rows_s", "rows/s", &[EVAL_GEMM], INFO),
    cost(
        "ntt.plan_build_ms",
        "ms",
        GEMM_HOST,
        "setup_s on eval_gemm, svc_host",
    ),
    exact(
        "ntt.fourstep_macs_per_row",
        "count",
        Better::Lower,
        GEMM_HOST,
        "computed from the split",
    ),
    exact(
        "ntt.fourstep_bytes_per_row",
        "B",
        Better::Lower,
        GEMM_HOST,
        "computed from the split",
    ),
    // ckks: spans around the round's public calls
    cost("ckks.hmult_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.hrotate_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.rescale_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.cmult_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.hadd_ms", "ms", EVAL, EVAL_OPS),
    // ckks: constituents of HMULT's key switch, replayed on the same inputs
    cost("ckks.keyswitch_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.modup_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.moddown_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.ks_ntt_fwd_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.ks_ntt_inv_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.ks_mulacc_ms", "ms", EVAL, EVAL_OPS),
    cost("ckks.hada_ms", "ms", EVAL, EVAL_OPS),
    // ckks: client side
    cost("ckks.context_ms", "ms", EVAL, EVAL_SETUP),
    cost("ckks.keygen_ms", "ms", EVAL, EVAL_SETUP),
    cost("ckks.rotkeygen_ms", "ms", EVAL, EVAL_SETUP),
    cost("ckks.encode_ms", "ms", EVAL, EVAL_SETUP),
    cost("ckks.encrypt_ms", "ms", EVAL, EVAL_SETUP),
    cost(
        "ckks.decrypt_ms",
        "ms",
        EVAL,
        "client side; moves no gated metric",
    ),
    cost(
        "ckks.decode_ms",
        "ms",
        EVAL,
        "client side; moves no gated metric",
    ),
    // ckks: exact counts from RecordingTracer over one round
    exact(
        "ckks.events_per_round",
        "count",
        Better::Lower,
        EVAL,
        EVAL_OPS,
    ),
    exact(
        "ckks.ntt_rows_per_round",
        "count",
        Better::Lower,
        EVAL,
        EVAL_OPS,
    ),
    exact(
        "ckks.conv_elems_per_round",
        "count",
        Better::Lower,
        EVAL,
        EVAL_OPS,
    ),
    cost(
        "ckks.round_recon_residual",
        "ratio",
        EVAL,
        "1 - sum of op spans / round span: harness glue between evaluator calls",
    ),
    // gpu
    cost(
        "gpu.host_us_per_launch",
        "us",
        SIM_PAPER,
        "ops_per_s on paper_model (every launch costed); on svc_sim launches are mostly replayed from the cost cache",
    ),
    exact(
        "gpu.launches_per_hmult",
        "count",
        Better::Lower,
        PAPER,
        PAPER_ERR,
    ),
    exact("gpu.sim_hmult_us", "us", Better::Lower, PAPER, PAPER_ERR),
    exact("gpu.sim_ntt_frac", "ratio", Better::Lower, PAPER, PAPER_ERR),
    exact(
        "gpu.sim_conv_frac",
        "ratio",
        Better::Lower,
        PAPER,
        PAPER_ERR,
    ),
    exact(
        "gpu.sim_occupancy",
        "ratio",
        Better::Higher,
        PAPER,
        PAPER_ERR,
    ),
    exact(
        "gpu.sim_ntt_kops_a",
        "KOPS",
        Better::Higher,
        PAPER,
        "paper headline: 913 KOPS NTT at HEAX set A",
    ),
    exact(
        "gpu.sim_hmult_kops_a",
        "KOPS",
        Better::Higher,
        PAPER,
        "paper headline: 88 KOPS HMULT at HEAX set A",
    ),
    // core
    cost("core.schedule_us", "us", SVC, SIM_OPS),
    cost("core.run_schedule_us", "us", SVC, SIM_OPS),
    cost("core.submit_us", "us", SVC, SIM_OPS),
    cost(
        "core.drain_ms",
        "ms",
        SVC,
        "ops_per_s, round_ms_p50 on svc_*",
    ),
    cost(
        "core.drain_simonly_ms",
        "ms",
        HOST,
        "the svc_host stream on the sim backend: scheduling share of a wave",
    ),
    rate(
        "core.arith_share",
        "ratio",
        HOST,
        "1 - simonly / host: share of a svc_host wave that is arithmetic",
    ),
    rate("core.host_ntt_rows_s", "rows/s", HOST, HOST_OPS),
    rate(
        "core.ops_per_s_1worker",
        "1/s",
        HOST,
        "single-threaded baseline of svc_host (workers = 1)",
    ),
    exact("core.batches", "count", Better::Lower, SVC, SIM_OPS),
    exact("core.batch_fill", "ratio", Better::Higher, SVC, SIM_UTIL),
    exact("core.launches", "count", Better::Lower, SVC, SIM_OPS),
    exact("core.workers", "count", Better::Higher, SVC, INFO),
    exact("core.simd_lanes", "count", Better::Higher, SVC, INFO),
    rate(
        "core.steals",
        "count",
        HOST,
        "chunking and stealing: ops_per_s on svc_host",
    ),
    rate(
        "core.stolen_rows",
        "count",
        HOST,
        "chunking and stealing: ops_per_s on svc_host",
    ),
    exact(
        "core.cost_reuse_rate",
        "ratio",
        Better::Higher,
        &[SVC_SIM],
        "share of checked batches whose (op, level, width) the service had dispatched before: the dispatch-cost cache's hit ratio; ops_per_s on svc_sim",
    ),
    exact("core.key_hit_rate", "ratio", Better::Higher, SVC, SIM_UTIL),
    exact("core.key_upload_ms", "ms", Better::Lower, SVC, SIM_UTIL),
    exact(
        "core.reorder_distance",
        "count",
        Better::Higher,
        SVC,
        SIM_UTIL,
    ),
    exact("core.head_blocked_ms", "ms", Better::Lower, SVC, SIM_UTIL),
    exact(
        "core.overlap_fraction",
        "ratio",
        Better::Higher,
        SVC,
        SIM_UTIL,
    ),
    exact("core.inflight_hwm", "count", Better::Higher, SVC, SIM_UTIL),
    exact(
        "core.fairness_index",
        "ratio",
        Better::Higher,
        SVC,
        SIM_UTIL,
    ),
    exact(
        "core.rejected",
        "count",
        Better::Lower,
        SVC,
        "must be 0; counted in failed",
    ),
    exact(
        "core.shed",
        "count",
        Better::Lower,
        SVC,
        "must be 0; counted in failed",
    ),
    exact("core.sim_ops_per_s", "1/s", Better::Higher, SVC, SIM_UTIL),
    exact("core.sim_queue_ms_p50", "ms", Better::Lower, SVC, SIM_UTIL),
    exact("core.sim_queue_ms_p90", "ms", Better::Lower, SVC, SIM_UTIL),
    // workloads
    exact(
        "workloads.resnet20_sim_s",
        "s",
        Better::Lower,
        PAPER,
        PAPER_ERR,
    ),
    exact("workloads.lr_sim_s", "s", Better::Lower, PAPER, PAPER_ERR),
    exact("workloads.lstm_sim_s", "s", Better::Lower, PAPER, PAPER_ERR),
    exact("workloads.boot_sim_s", "s", Better::Lower, PAPER, PAPER_ERR),
    cost(
        "workloads.run_host_ms",
        "ms",
        PAPER,
        "ops_per_s on paper_model",
    ),
    // analyze
    cost(
        "analyze.verify_ms",
        "ms",
        SVC,
        "oracle cost; moves no gated metric",
    ),
    exact(
        "analyze.violations",
        "count",
        Better::Lower,
        SVC,
        "must be 0; counted in failed",
    ),
    // simulated end-to-end figures (bit-equal for one seed, so not gated by spread)
    exact(
        "sim_util",
        "ratio",
        Better::Higher,
        SVC,
        "mean ServiceStats.device_utilization at the end of the checked waves; scale-free",
    ),
    exact(
        "sim_paper_log_err",
        "ratio",
        Better::Lower,
        PAPER,
        "mean |ln(ours / paper)| over the 16 figures; the model is otherwise unvalidated",
    ),
    // harness
    cost(
        "bench.round_ms_p90",
        "ms",
        ALL,
        "diagnostic, not gated; at least 10 samples lie beyond it",
    ),
    rate(
        "bench.rounds",
        "count",
        ALL,
        "sample count behind round_ms_p50 / p90 of this run's reference phase",
    ),
    cost(
        "bench.trace_overhead_frac",
        "ratio",
        ALL,
        "traced vs untraced round_ms_p50",
    ),
    cost(
        "bench.chain_us",
        "us",
        ALL,
        "clock-state probe, median over the reference phase's rounds; a traced run's times are raw",
    ),
    cost(
        "bench.recon_residual",
        "ratio",
        ALL,
        "1 - sum(probe time x exact event count) / round_ms_p50; target < 0.15, reported only",
    ),
];

/// Looks a per-layer metric up by name.
#[must_use]
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_driver_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            assert!(!m.on.is_empty() && m.on.iter().all(|w| WORKLOADS.iter().any(|(n, _)| n == w)));
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(json.len() <= 64 * 1024);
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        let mut entries = 0;
        for (name, why) in WORKLOADS {
            entries += 1;
            let line = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&line), "{line}");
        }
        for m in END_TO_END {
            entries += 1;
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
            assert!(json.contains(&line), "{line}");
        }
        for m in PER_LAYER {
            entries += 1;
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            );
            assert!(json.contains(&line), "{line}");
        }
        // Nothing in the file that the catalogue does not know.
        assert_eq!(json.matches("\"name\":").count(), entries);
    }
}
