//! `paper_model`: deterministic costings of 16 figures the paper reports,
//! against the paper's own values (transcribed here, not imported from
//! `crates/bench`). One round costs one figure and the 16 take turns;
//! nothing executes arithmetic.
//!
//! The simulated A100 has no other reference: apart from these 16 figures
//! the cost model is unvalidated, and none were held back from tuning.

use crate::run::{Report, RoundOut, Spec, Workload};
use crate::span::{self_times_ns, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::trace::RecordingTracer;
use tensorfhe_ckks::{CkksContext, CkksParams, Evaluator, KernelEvent, KeyChain};
use tensorfhe_core::api::{schedule_events, FheOp, OpReport, TensorFhe};
use tensorfhe_core::engine::{Engine, EngineConfig, Variant};
use tensorfhe_math::Complex64;
use tensorfhe_workloads::schedules;
use tensorfhe_workloads::spec::{run_workload, WorkloadSpec};

/// Batch width of every costing, as in the paper's tables.
const BATCH: usize = 128;
const TABLE6_OPS: [FheOp; 5] = [
    FheOp::HMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::HAdd,
    FheOp::CMult,
];
const BOOTSTRAP: FheOp = FheOp::Bootstrap {
    taylor_degree: 7,
    double_angles: 6,
};

/// `(figure, paper value, unit)`, in costing order: Table VI (TensorFHE on
/// A100, Default parameters, ms per batch of 128), Table VIII (TensorFHE
/// row, ops/s at HEAX sets A/B/C), Table VII (bootstrap, ms), Table X
/// (TensorFHE row, seconds).
pub const FIGURES: [(&str, f64, &str); 16] = [
    ("t6.hmult_ms", 851.0, "ms"),
    ("t6.hrotate_ms", 852.0, "ms"),
    ("t6.rescale_ms", 7.7, "ms"),
    ("t6.hadd_ms", 6.0, "ms"),
    ("t6.cmult_ms", 7.7, "ms"),
    ("t8.ntt_per_s_a", 910_134.0, "1/s"),
    ("t8.ntt_per_s_b", 449_974.0, "1/s"),
    ("t8.ntt_per_s_c", 209_337.0, "1/s"),
    ("t8.hmult_per_s_a", 88_048.0, "1/s"),
    ("t8.hmult_per_s_b", 27_564.0, "1/s"),
    ("t8.hmult_per_s_c", 3825.0, "1/s"),
    ("t7.bootstrap_ms", 32_058.0, "ms"),
    ("t10.resnet20_s", 316.1, "s"),
    ("t10.lr_s", 14.1, "s"),
    ("t10.lstm_s", 123.1, "s"),
    ("t10.packed_boot_s", 13.5, "s"),
];

/// Mean `|ln(ours / paper)|` and the per-figure terms.
#[must_use]
pub fn log_errors(ours: &[f64; 16]) -> (f64, [f64; 16]) {
    let mut each = [0.0; 16];
    for ((e, o), (_, paper, _)) in each.iter_mut().zip(ours).zip(FIGURES) {
        *e = (o / paper).ln().abs();
    }
    (each.iter().sum::<f64>() / 16.0, each)
}

/// Costs one op at the top level on a fresh single-device A100 engine.
fn cost_op(rec: &mut Recorder, params: &CkksParams, op: FheOp) -> OpReport {
    let mut api = TensorFhe::builder(params)
        .build()
        .expect("single-device build");
    let events = rec.leaf("core.schedule_events", || {
        api.schedule_of(op, params.max_level())
    });
    let stats = rec.leaf("gpu.run_schedule", || {
        api.engine_mut().run_schedule(op.name(), &events, BATCH)
    });
    let power = api.engine().config().device.power_watts;
    OpReport::from_stats(op, BATCH, power, stats)
}

/// The `paper_model` workload state.
pub struct Paper {
    seed: u64,
    default: CkksParams,
    heax: [CkksParams; 3],
    boot: CkksParams,
    table10: Vec<WorkloadSpec>,
    /// Index into [`FIGURES`] of the figure the next round costs.
    next: usize,
    ours: [f64; 16],
    /// Each figure's first value; every later costing must repeat its bits.
    first: [Option<f64>; 16],
    hmult_default: Option<OpReport>,
    /// Launches of the direct costings made while the recorder was on.
    traced_launches: usize,
}

impl Paper {
    /// Parameter sets and the four workload schedules.
    pub fn setup(seed: u64) -> Self {
        Self {
            seed,
            default: CkksParams::table_v_default(),
            heax: [
                CkksParams::heax_set_a(),
                CkksParams::heax_set_b(),
                CkksParams::heax_set_c(),
            ],
            boot: CkksParams::table_vii_bootstrap(),
            table10: schedules::all(),
            next: 0,
            ours: [0.0; 16],
            first: [None; 16],
            hmult_default: None,
            traced_launches: 0,
        }
    }

    /// The evaluator's own event stream for each Table VI op at a CI-sized
    /// preset must equal the analytic schedule the costings above consume.
    fn schedule_mirrors_evaluator(&self, out: &mut Report) {
        let params = CkksParams::test_small();
        let ctx = CkksContext::new(&params).expect("valid preset");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut keys = KeyChain::generate(&ctx, &mut rng);
        keys.gen_rotation_keys(&[1], &mut rng);
        let values: Vec<Complex64> = (0..params.slots())
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let pt = ctx
            .encode(&values, params.scale())
            .expect("slot count fits");
        let ct = keys.encrypt(&pt, &mut rng);
        for op in TABLE6_OPS {
            let mut tracer = RecordingTracer::new();
            let ran = {
                let mut eval = Evaluator::with_tracer(&ctx, Box::new(&mut tracer));
                match op {
                    FheOp::HMult => eval.hmult(&ct, &ct, &keys).map(drop),
                    FheOp::HRotate => eval.hrotate(&ct, 1, &keys).map(drop),
                    FheOp::Rescale => eval.rescale(&ct).map(drop),
                    FheOp::HAdd => eval.hadd(&ct, &ct).map(drop),
                    _ => eval.cmult(&ct, &pt).map(drop),
                }
            };
            let want: Vec<KernelEvent> = schedule_events(&params, op, params.max_level());
            if ran.is_err() || tracer.events != want {
                out.fail(format!(
                    "{}: schedule_events differs from the evaluator's trace",
                    op.name()
                ));
            }
        }
        out.note("oracle: schedule_events equals the evaluator's RecordingTracer stream for all 5 Table VI ops at test-small".into());
    }
}

impl Workload for Paper {
    fn spec(&self) -> Spec {
        Spec {
            name: crate::catalog::PAPER_MODEL,
            warmup: FIGURES.len(),
            period: FIGURES.len(),
            rounds: 30 * FIGURES.len(),
        }
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let i = self.next;
        rec.begin("round");
        let (value, launches) = match i {
            0..=4 => {
                let r = cost_op(rec, &self.default, TABLE6_OPS[i]);
                let out = (r.time_us / 1e3, r.launches);
                if TABLE6_OPS[i] == FheOp::HMult {
                    self.hmult_default = Some(r);
                }
                out
            }
            5..=7 => {
                let params = &self.heax[i - 5];
                let limbs = params.max_level() + 1 + params.special_primes();
                let event = [KernelEvent::Ntt {
                    n: params.n(),
                    limbs,
                    inverse: false,
                }];
                let stats = rec.leaf("gpu.run_schedule", || {
                    Engine::new(EngineConfig::a100(Variant::TensorCore))
                        .run_schedule("NTT", &event, BATCH)
                });
                (
                    (limbs * BATCH) as f64 / (stats.time_us * 1e-6),
                    stats.launches,
                )
            }
            8..=10 => {
                let r = cost_op(rec, &self.heax[i - 8], FheOp::HMult);
                (r.ops_per_second, r.launches)
            }
            11 => {
                let r = cost_op(rec, &self.boot, BOOTSTRAP);
                (r.time_us / 1e3, r.launches)
            }
            _ => {
                let spec = &self.table10[i - 12];
                let secs = rec.leaf("workloads.run_workload", || {
                    run_workload(spec, Variant::TensorCore).time_s
                });
                // Service-routed: the run reports no launch count.
                (secs, 0)
            }
        };
        rec.end();
        self.ours[i] = value;
        if rec.is_on() {
            self.traced_launches += launches;
        }
        RoundOut { ops: 1, failed: 0 }
    }

    fn check(&mut self) -> u64 {
        // Deterministic costings: positive, finite, and the same every pass.
        let i = self.next;
        self.next = (i + 1) % FIGURES.len();
        let ours = self.ours[i];
        let first = *self.first[i].get_or_insert(ours);
        u64::from(!(ours.is_finite() && ours > 0.0 && ours.to_bits() == first.to_bits()))
    }

    fn snapshot(&mut self, out: &mut Report) {
        let (mean, each) = log_errors(&self.ours);
        out.set("sim_paper_log_err", mean);
        out.note(format!(
            "sim_paper_log_err {mean:.4} = mean |ln(ours/paper)| over 16 figures; \
             the simulated A100 is otherwise unvalidated and no figure was held back from tuning"
        ));
        for (((name, paper, unit), ours), err) in FIGURES.iter().zip(self.ours).zip(each) {
            out.note(format!(
                "figure {name}: ours {ours:.4} {unit}, paper {paper} {unit}, |ln| {err:.4}"
            ));
        }
        let hmult = self.hmult_default.as_ref().expect("a round ran");
        // Kernel names are the lowering's: `ntt`, `intt-planes`, `conv-gemm`, ...
        let busy: f64 = hmult.by_kernel.iter().map(|(_, us)| us).sum();
        let share = |prefix: &str| -> f64 {
            hmult
                .by_kernel
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, us)| us)
                .sum::<f64>()
                / busy
        };
        out.set("gpu.launches_per_hmult", hmult.launches as f64);
        out.set("gpu.sim_hmult_us", hmult.per_op_us);
        out.set("gpu.sim_ntt_frac", share("ntt") + share("intt"));
        out.set("gpu.sim_conv_frac", share("conv"));
        out.set("gpu.sim_occupancy", hmult.occupancy);
        out.set("gpu.sim_ntt_kops_a", self.ours[5] / 1e3);
        out.set("gpu.sim_hmult_kops_a", self.ours[8] / 1e3);
        out.set("workloads.resnet20_sim_s", self.ours[12]);
        out.set("workloads.lr_sim_s", self.ours[13]);
        out.set("workloads.lstm_sim_s", self.ours[14]);
        out.set("workloads.boot_sim_s", self.ours[15]);
    }

    fn finish(&mut self, out: &mut Report) {
        self.schedule_mirrors_evaluator(out);
    }

    fn layers(&mut self, rec: &mut Recorder, round_ms_p50: f64, out: &mut Report) {
        // The direct costings' launches are known; the service-routed
        // Table X runs report none, so they stay out of this ratio.
        let direct_ms: f64 = rec.durations_ms("gpu.run_schedule").iter().sum();
        out.set(
            "gpu.host_us_per_launch",
            direct_ms * 1e3 / self.traced_launches as f64,
        );
        // A traced phase is whole passes, so every workload ran equally often.
        let table10 = rec.durations_ms("workloads.run_workload");
        let passes = (table10.len() / self.table10.len()) as f64;
        let table10_ms = table10.iter().sum::<f64>() / passes;
        out.set("workloads.run_host_ms", table10_ms);

        // A round is nothing but one costing: what is left is glue.
        let own = self_times_ns(rec.spans());
        let (mut round_ns, mut glue_ns) = (0u64, 0u64);
        for (s, own_ns) in rec.spans().iter().zip(&own) {
            if s.name == "round" {
                round_ns += s.dur_ns();
                glue_ns += own_ns;
            }
        }
        let residual = glue_ns as f64 / round_ns as f64;
        out.set("bench.recon_residual", residual);
        let pass_ms = round_ns as f64 / 1e6 / passes;
        out.note(format!(
            "reconciliation paper_model: costing spans cover all but {:.1} % of the rounds \
             (a pass of 16 figures takes {pass_ms:.3} ms, the median figure {round_ms_p50:.3} ms); \
             {:.1} % of a pass is the four Table X workloads",
            100.0 * residual,
            100.0 * table10_ms / pass_ms,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_error_is_symmetric_and_zero_on_the_paper() {
        let paper: [f64; 16] = std::array::from_fn(|i| FIGURES[i].1);
        assert_eq!(log_errors(&paper).0, 0.0);
        let mut double = paper;
        let mut half = paper;
        double[0] *= 2.0;
        half[0] /= 2.0;
        let (d, h) = (log_errors(&double), log_errors(&half));
        assert!((d.0 - 2f64.ln() / 16.0).abs() < 1e-12);
        assert!((d.1[0] - h.1[0]).abs() < 1e-12);
    }
}
