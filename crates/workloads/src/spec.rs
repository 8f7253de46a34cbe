//! Workload specifications and their costing.
//!
//! A workload is a straight-line program of [`Step`]s, each `count`
//! repetitions of one operation at one level, run `spec.batch` instances
//! wide. [`run_workload`] costs it as exactly that: every step costs
//! `count ×` one `spec.batch`-wide batched dispatch. It runs each distinct
//! `(op, level)` once on one simulated A100 engine and folds the memoised
//! cost into the report `count` times per step, in step order.
//!
//! The fold adds in the order the request service attributes a drain of
//! the same program (one request per step, coalesced into full
//! `spec.batch`-wide batches), so its report is bit-equal to that drain's.
//! The service is the checked path: `tests/service_matches_fold.rs`
//! drains every Table X workload through it and holds every report field
//! to the fold.

use std::collections::{BTreeMap, HashMap};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{check_request, schedule_events, FheOp};
use tensorfhe_core::engine::{Engine, EngineConfig, Variant};
use tensorfhe_gpu::KernelName;

/// One batched operation step of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The operation.
    pub op: FheOp,
    /// Ciphertext level at which it runs.
    pub level: usize,
    /// How many times it repeats at this point of the program.
    pub count: usize,
}

/// A full workload: parameters plus operation sequence.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name as the paper prints it.
    pub name: String,
    /// Table V parameter preset.
    pub params: CkksParams,
    /// Operation sequence.
    pub steps: Vec<Step>,
    /// Batch width (Table V's batch column).
    pub batch: usize,
    /// Logical iterations (images / training steps / timesteps) represented,
    /// used for per-iteration energy (Table XI).
    pub iterations: usize,
}

impl WorkloadSpec {
    /// Total operation invocations.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.steps.iter().map(|s| s.count).sum()
    }

    /// Count of one specific operation name.
    #[must_use]
    pub fn count_of(&self, name: &str) -> usize {
        self.steps
            .iter()
            .filter(|s| s.op.name() == name)
            .map(|s| s.count)
            .sum()
    }
}

/// Result of running a workload through the engine.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Total device time in seconds.
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Energy per logical iteration (Table XI's J/iteration).
    pub energy_per_iter_j: f64,
    /// Device time grouped by operation (Fig. 13).
    pub per_op_us: Vec<(String, f64)>,
    /// Device time grouped by kernel (Fig. 12).
    pub per_kernel_us: Vec<(String, f64)>,
    /// Time-weighted occupancy.
    pub occupancy: f64,
}

/// The cost of one `spec.batch`-wide dispatch of one `(op, level)`.
struct Shape {
    time_us: f64,
    energy_j: f64,
    /// `occupancy × time_us`, the batch's occupancy weight.
    occ_us: f64,
    /// `(base kernel name, µs)` in the order of the kernels' own names,
    /// the order a service request's kernel table folds them in.
    kernels: Vec<(KernelName, f64)>,
}

/// Costs a workload schedule, without its arithmetic, on a simulated A100
/// running the given NTT variant.
///
/// Each distinct `(op, level)` is costed once at `spec.batch` on one
/// fresh engine. Then, step by step, its cost is added `count` times: to
/// the device time and energy, to the step's own time, occupancy weight
/// and per-kernel times, and from those to the per-op, per-kernel and
/// occupancy tables. Nothing is multiplied, so every sum rounds as a
/// service drain of the same steps rounds it. No builder, option or
/// environment variable reaches the costing.
///
/// # Panics
///
/// Panics with the [`tensorfhe_core::CoreError::InvalidRequest`] text of
/// [`check_request`] on a step that the request service would refuse: a
/// zero `count`, a level above the parameter set's chain, or a bootstrap
/// deeper than the chain.
#[must_use]
pub fn run_workload(spec: &WorkloadSpec, variant: Variant) -> WorkloadReport {
    let batch = spec.batch.max(1);
    let mut engine = Engine::new(EngineConfig::a100(variant));
    let mut bases: BTreeMap<KernelName, KernelName> = BTreeMap::new();
    // lint: ordered-ok (keyed entry only; never iterated)
    let mut shapes: HashMap<(FheOp, usize), Shape> = HashMap::new();

    let (mut busy_us, mut energy_j, mut occ_weighted) = (0.0f64, 0.0f64, 0.0f64);
    // Both tables fold on interned names — an op's name is static, a
    // kernel's is a `KernelName` — and become `String`s once per row.
    let mut by_op: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_kernel: BTreeMap<KernelName, f64> = BTreeMap::new();
    let mut step_kernel_us: Vec<f64> = Vec::new();
    for (i, step) in spec.steps.iter().enumerate() {
        if let Err(e) = check_request(&spec.params, step.op, step.level, step.count * batch) {
            panic!("{} step {i}: {e}", spec.name);
        }
        let shape = shapes.entry((step.op, step.level)).or_insert_with(|| {
            let events = schedule_events(&spec.params, step.op, step.level);
            let stats = engine.run_schedule(step.op.name(), &events, batch);
            let mut kernels = stats.by_kernel;
            kernels.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (name, _) in &mut kernels {
                *name = normalise_kernel(&mut bases, name);
            }
            Shape {
                time_us: stats.time_us,
                energy_j: stats.energy_j,
                occ_us: stats.occupancy * stats.time_us,
                kernels,
            }
        });

        let (mut time_us, mut occ_us) = (0.0f64, 0.0f64);
        step_kernel_us.clear();
        step_kernel_us.resize(shape.kernels.len(), 0.0);
        for _ in 0..step.count {
            busy_us += shape.time_us;
            energy_j += shape.energy_j;
            time_us += shape.time_us;
            occ_us += shape.occ_us;
            for (acc, (_, t)) in step_kernel_us.iter_mut().zip(&shape.kernels) {
                *acc += t;
            }
        }
        *by_op.entry(step.op.name()).or_insert(0.0) += time_us;
        let occupancy = if time_us > 0.0 { occ_us / time_us } else { 0.0 };
        occ_weighted += occupancy * time_us;
        for ((base, _), &t) in shape.kernels.iter().zip(&step_kernel_us) {
            *by_kernel.entry(base.clone()).or_insert(0.0) += t;
        }
    }

    let descending = |mut rows: Vec<(String, f64)>| {
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    };
    let per_op_us = descending(by_op.into_iter().map(|(k, t)| (k.into(), t)).collect());
    let per_kernel_us = descending(
        by_kernel
            .into_iter()
            .map(|(k, t)| (k.to_string(), t))
            .collect(),
    );

    WorkloadReport {
        name: spec.name.clone(),
        time_s: busy_us * 1e-6,
        energy_j,
        energy_per_iter_j: energy_j / spec.iterations.max(1) as f64,
        per_op_us,
        per_kernel_us,
        occupancy: if busy_us > 0.0 {
            occ_weighted / busy_us
        } else {
            0.0
        },
    }
}

/// Collapses per-stream plane-GEMM names into the parent kernel
/// (`ntt-plane13` → `ntt`). `bases` is the caller's table from every name
/// seen so far — base names included — to its base name, so a name is
/// split, and a new base interned, the first time it appears and looked up
/// after that.
fn normalise_kernel(bases: &mut BTreeMap<KernelName, KernelName>, name: &KernelName) -> KernelName {
    if let Some(base) = bases.get(&**name) {
        return base.clone();
    }
    let spelled = name.split("-plane").next().unwrap_or(name);
    let base = match bases.get(spelled) {
        Some(known) => known.clone(),
        None => {
            let base: KernelName = spelled.into();
            bases.insert(base.clone(), base.clone());
            base
        }
    };
    bases.insert(name.clone(), base.clone());
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_aggregates_counts() {
        let params = CkksParams::test_small();
        let spec = WorkloadSpec {
            name: "mini".into(),
            params: params.clone(),
            steps: vec![
                Step {
                    op: FheOp::HMult,
                    level: 7,
                    count: 3,
                },
                Step {
                    op: FheOp::HAdd,
                    level: 7,
                    count: 5,
                },
            ],
            batch: 4,
            iterations: 2,
        };
        let r = run_workload(&spec, Variant::TensorCore);
        assert!(r.time_s > 0.0);
        assert_eq!(r.per_op_us.len(), 2);
        let hmult = r
            .per_op_us
            .iter()
            .find(|(k, _)| k == "HMULT")
            .expect("hmult");
        let hadd = r.per_op_us.iter().find(|(k, _)| k == "HADD").expect("hadd");
        assert!(hmult.1 > hadd.1, "3 HMULTs outweigh 5 HADDs");
        assert!((r.energy_per_iter_j - r.energy_j / 2.0).abs() < 1e-12);
    }

    /// A one-step workload on the small test chain (L = 7).
    fn one_step(op: FheOp, level: usize) -> WorkloadSpec {
        WorkloadSpec {
            name: "bad".into(),
            params: CkksParams::test_small(),
            steps: vec![Step {
                op,
                level,
                count: 1,
            }],
            batch: 2,
            iterations: 1,
        }
    }

    #[test]
    #[should_panic(expected = "invalid request: level 8 exceeds max level 7")]
    fn a_step_above_the_chain_is_refused() {
        let _ = run_workload(&one_step(FheOp::HMult, 8), Variant::TensorCore);
    }

    #[test]
    #[should_panic(expected = "invalid request: bootstrap needs L ≥")]
    fn a_bootstrap_deeper_than_the_chain_is_refused() {
        let op = FheOp::Bootstrap {
            taylor_degree: 7,
            double_angles: 6,
        };
        let _ = run_workload(&one_step(op, 7), Variant::TensorCore);
    }

    #[test]
    fn kernel_names_are_normalised() {
        let mut bases = BTreeMap::new();
        let plane: KernelName = "ntt-plane13".into();
        let ntt = normalise_kernel(&mut bases, &plane);
        assert_eq!(&*ntt, "ntt");
        // Every other spelling of the base shares its allocation.
        for other in ["ntt-plane0", "ntt-planes", "ntt", "ntt-plane13"] {
            let base = normalise_kernel(&mut bases, &other.into());
            assert!(std::sync::Arc::ptr_eq(&base, &ntt), "{other}");
        }
        let plain = normalise_kernel(&mut bases, &"hada-mult".into());
        assert_eq!(&*plain, "hada-mult");
    }
}
