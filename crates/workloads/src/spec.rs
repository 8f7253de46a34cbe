//! Workload specifications and the service-backed runner.
//!
//! Workloads are executed through the request-stream service: every step
//! becomes an [`FheRequest`] (`step.count × spec.batch` operation
//! instances), the service coalesces them into `spec.batch`-wide device
//! batches, and the report aggregates the per-request attributions. This
//! preserves the seed runner's exact totals — each step still costs
//! `count ×` the cost of one `spec.batch`-wide dispatch — while exercising
//! the same code path a serving deployment uses.

use std::collections::BTreeMap;
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe, TensorFheBuilder};
use tensorfhe_core::engine::Variant;
use tensorfhe_core::error::CoreResult;
use tensorfhe_core::service::FheRequest;
use tensorfhe_core::ExecBackend;
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

/// Costs a workload schedule, without its arithmetic, on a simulated A100
/// running the given NTT variant.
///
/// Thin wrapper over [`run_workload_on`] for the common bench-harness
/// configuration. The backend is pinned to [`ExecBackend::Sim`], so
/// `TENSORFHE_BACKEND=host-parallel` cannot turn a costing into real
/// arithmetic; pass a builder to [`run_workload_on`] to pick another.
#[must_use]
pub fn run_workload(spec: &WorkloadSpec, variant: Variant) -> WorkloadReport {
    let builder = TensorFhe::builder(&spec.params)
        .variant(variant)
        .backend(ExecBackend::Sim);
    run_workload_on(spec, builder).expect("default workload service configuration is valid")
}

/// Executes a workload schedule through the request-stream service built
/// from `builder` (the builder's parameter set is overridden by the
/// spec's).
///
/// Every step is submitted as one request of `count × spec.batch`
/// operation instances; the service coalesces them into `spec.batch`-wide
/// batches and caches the cost of repeated `(op, level, width)` shapes, so
/// paper-scale workloads (tens of thousands of operations) stay tractable
/// while totals remain exact.
///
/// # Errors
///
/// Returns [`tensorfhe_core::error::CoreError`] if the builder
/// configuration is invalid or a step's level exceeds the parameter set's
/// modulus chain.
pub fn run_workload_on(
    spec: &WorkloadSpec,
    builder: TensorFheBuilder,
) -> CoreResult<WorkloadReport> {
    let mut svc = builder
        .params(&spec.params)
        .batch_cap(spec.batch.max(1))
        .service()?;
    for step in &spec.steps {
        svc.submit(FheRequest::new(
            step.op,
            step.level,
            step.count * spec.batch.max(1),
            spec.name.clone(),
        ))?;
    }
    let reports = svc.drain();

    // Both folds run on interned names — a report's kernel names are
    // `KernelName`s, an op's name is static — and become `String`s once
    // per table row, not once per kernel per report.
    let mut by_op: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_kernel: BTreeMap<KernelName, f64> = BTreeMap::new();
    let mut bases: BTreeMap<KernelName, KernelName> = BTreeMap::new();
    let mut occ_weighted = 0.0f64;
    for r in &reports {
        *by_op.entry(r.report.op.name()).or_insert(0.0) += r.report.time_us;
        occ_weighted += r.report.occupancy * r.report.time_us;
        for (k, t) in &r.report.by_kernel {
            *by_kernel
                .entry(normalise_kernel(&mut bases, k))
                .or_insert(0.0) += t;
        }
    }
    let stats = svc.stats();
    let time_us = stats.busy_us;

    let descending = |mut rows: Vec<(String, f64)>| {
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        rows
    };
    let per_op_us = descending(by_op.into_iter().map(|(k, t)| (k.into(), t)).collect());
    let per_kernel_us = descending(
        by_kernel
            .into_iter()
            .map(|(k, t)| (k.to_string(), t))
            .collect(),
    );

    Ok(WorkloadReport {
        name: spec.name.clone(),
        time_s: time_us * 1e-6,
        energy_j: stats.energy_j,
        energy_per_iter_j: stats.energy_j / spec.iterations.max(1) as f64,
        per_op_us,
        per_kernel_us,
        occupancy: if time_us > 0.0 {
            occ_weighted / time_us
        } else {
            0.0
        },
    })
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
