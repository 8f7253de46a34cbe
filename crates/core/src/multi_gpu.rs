//! Multi-GPU scaling — the paper's §VII future-work extension.
//!
//! "Extending TensorFHE to the platform with multiple GPGPUs would help to
//! increase the batch size, which improves the performance of complex
//! workloads by further improving the throughput of CKKS operations."
//!
//! Operation-level batching is embarrassingly parallel across devices: a
//! batch of `B` independent ciphertext operations splits into per-device
//! shards with no cross-device communication (each operation touches only
//! its own ciphertext plus the shared, replicated key material). The only
//! costs that do not scale are the per-shard kernel-launch overhead and the
//! one-time evaluation-key broadcast, which this model charges explicitly.
//!
//! Since the executor refactor this type is a thin configuration over
//! [`crate::exec`]: sharding and merging live behind the
//! [`crate::exec::Executor`] seam ([`crate::exec::shard_widths`] /
//! [`crate::exec::merge_shards`]), and [`MultiGpu::with_workers`] drives
//! the same cluster through the [`crate::exec::ThreadedPool`] — one host
//! thread per device — with bit-identical results.

use crate::engine::{EngineConfig, OpStats};
use crate::error::CoreResult;
use crate::exec::{build_executor, ExecBackend, ExecBatch, Executor};
use std::sync::Arc;
use tensorfhe_ckks::{CkksParams, KernelEvent};

/// A cluster of identical simulated devices executing sharded batches.
#[derive(Debug)]
pub struct MultiGpu {
    executor: Box<dyn Executor>,
    /// One-time per-device key-broadcast cost already paid (µs), reported
    /// separately from steady-state throughput.
    broadcast_us: f64,
}

impl MultiGpu {
    /// Creates `devices` identical engines behind a serial executor and
    /// charges the evaluation-key broadcast (keys are replicated once over
    /// PCIe/NVLink; we charge PCIe 4.0 ×16 ≈ 25 GB/s as the conservative
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::InvalidConfig`] if `devices == 0`.
    pub fn new(cfg: &EngineConfig, devices: usize, params: &CkksParams) -> CoreResult<Self> {
        Self::with_workers(cfg, devices, 1, params)
    }

    /// Like [`MultiGpu::new`], but drives the cluster with `workers` host
    /// threads (one per device when `workers >= devices`). Results are
    /// bit-identical to the serial executor; only host wall-clock changes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::InvalidConfig`] if `devices` or
    /// `workers` is zero.
    pub fn with_workers(
        cfg: &EngineConfig,
        devices: usize,
        workers: usize,
        params: &CkksParams,
    ) -> CoreResult<Self> {
        let executor = build_executor(cfg, devices, workers, ExecBackend::Sim, 0)?;
        // Key material ≈ dnum digit keys × 2 polys × (L+1+K) limbs × N × 4 B.
        let key_bytes = params.dnum() as u64
            * 2
            * (params.max_level() as u64 + 1 + params.special_primes() as u64)
            * params.n() as u64
            * 4;
        let broadcast_us = if devices > 1 {
            key_bytes as f64 / 25e3 // 25 GB/s → µs per byte×1e-3
        } else {
            0.0
        };
        Ok(Self {
            executor,
            broadcast_us,
        })
    }

    /// Number of devices.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.executor.devices()
    }

    /// Host worker threads driving the cluster (1 = serial).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.executor.caps().workers
    }

    /// One-time key-broadcast cost (µs).
    #[must_use]
    pub fn broadcast_us(&self) -> f64 {
        self.broadcast_us
    }

    /// Runs a batched operation sharded across the cluster; returns the
    /// wall time (max over devices) and the aggregate throughput.
    ///
    /// The shard split follows the paper's batching semantics: `batch`
    /// independent operations, `⌈batch/devices⌉` per device.
    pub fn run_schedule(
        &mut self,
        tag: &str,
        events: &[KernelEvent],
        batch: usize,
    ) -> MultiGpuStats {
        self.run_schedule_detailed(tag, events, batch).0
    }

    /// Like [`MultiGpu::run_schedule`], but also returns merged per-kernel
    /// statistics (summed kernel times, time-weighted occupancy, total
    /// launches) so callers can report cluster batches with the same
    /// fidelity as single-device ones.
    pub fn run_schedule_detailed(
        &mut self,
        tag: &str,
        events: &[KernelEvent],
        batch: usize,
    ) -> (MultiGpuStats, OpStats) {
        let handle = self.executor.submit(ExecBatch {
            tag: Arc::from(tag),
            events: Arc::from(events),
            width: batch,
        });
        let result = self.executor.join(handle);
        let stats = MultiGpuStats {
            wall_us: result.stats.time_us,
            energy_j: result.stats.energy_j,
            ops_per_second: if result.stats.time_us > 0.0 {
                batch as f64 / (result.stats.time_us * 1e-6)
            } else {
                0.0
            },
            devices_used: result.devices_used(),
        };
        (stats, result.stats)
    }
}

/// Result of a sharded batched operation.
#[derive(Debug, Clone, Copy)]
pub struct MultiGpuStats {
    /// Wall time of the slowest shard (µs).
    pub wall_us: f64,
    /// Total energy across devices (J).
    pub energy_j: f64,
    /// Aggregate operations per second.
    pub ops_per_second: f64,
    /// Devices that actually received work.
    pub devices_used: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Variant;
    use crate::schedule::hmult_schedule;

    fn setup(devices: usize) -> (CkksParams, MultiGpu) {
        let params = CkksParams::test_small();
        let cluster = MultiGpu::new(&EngineConfig::a100(Variant::TensorCore), devices, &params)
            .expect("non-zero device count");
        (params, cluster)
    }

    #[test]
    fn zero_devices_is_a_config_error_not_a_panic() {
        let params = CkksParams::test_small();
        let err = MultiGpu::new(&EngineConfig::a100(Variant::TensorCore), 0, &params)
            .expect_err("zero devices must be rejected");
        assert!(matches!(err, crate::error::CoreError::InvalidConfig(_)));
    }

    #[test]
    fn throughput_scales_with_devices() {
        let (params, mut one) = setup(1);
        let (_, mut four) = setup(4);
        let sched = hmult_schedule(&params, params.max_level());
        // 64 operations a shard: the NTT-lean key switch's kernels are
        // small enough that 32-operation shards of this toy degree are
        // launch-bound (2.1×); paper-scale batches approach linear.
        let s1 = one.run_schedule("HMULT", &sched, 256);
        let s4 = four.run_schedule("HMULT", &sched, 256);
        assert!(
            s4.ops_per_second > s1.ops_per_second * 2.2,
            "4 devices should give ≳2.2× throughput at toy shards: {} vs {}",
            s4.ops_per_second,
            s1.ops_per_second
        );
        assert_eq!(s4.devices_used, 4);
    }

    #[test]
    fn energy_is_conserved_not_reduced() {
        // Sharding reduces wall time, not joules.
        let (params, mut one) = setup(1);
        let (_, mut four) = setup(4);
        let sched = hmult_schedule(&params, params.max_level());
        let s1 = one.run_schedule("HMULT", &sched, 64);
        let s4 = four.run_schedule("HMULT", &sched, 64);
        let rel = (s4.energy_j - s1.energy_j).abs() / s1.energy_j;
        // Smaller shards utilise each device slightly worse.
        assert!(
            rel < 0.6,
            "energy should stay the same order across sharding: {rel}"
        );
    }

    #[test]
    fn broadcast_charged_only_for_clusters() {
        let (_, one) = setup(1);
        let (_, four) = setup(4);
        assert_eq!(one.broadcast_us(), 0.0);
        assert!(four.broadcast_us() > 0.0);
    }

    #[test]
    fn uneven_batches_use_fewer_devices() {
        let (params, mut cluster) = setup(4);
        let sched = hmult_schedule(&params, params.max_level());
        let s = cluster.run_schedule("HMULT", &sched, 2);
        assert_eq!(s.devices_used, 2);
    }

    #[test]
    fn threaded_cluster_matches_serial_cluster() {
        let params = CkksParams::test_small();
        let cfg = EngineConfig::a100(Variant::TensorCore);
        let mut serial = MultiGpu::new(&cfg, 4, &params).expect("valid");
        let mut threaded = MultiGpu::with_workers(&cfg, 4, 4, &params).expect("valid");
        assert_eq!(threaded.workers(), 4);
        let sched = hmult_schedule(&params, params.max_level());
        for batch in [1usize, 17, 128] {
            let (s, d) = serial.run_schedule_detailed("HMULT", &sched, batch);
            let (t, e) = threaded.run_schedule_detailed("HMULT", &sched, batch);
            assert_eq!(s.wall_us.to_bits(), t.wall_us.to_bits());
            assert_eq!(s.energy_j.to_bits(), t.energy_j.to_bits());
            assert_eq!(s.devices_used, t.devices_used);
            assert_eq!(d.launches, e.launches);
            assert_eq!(d.by_kernel, e.by_kernel);
        }
    }
}
