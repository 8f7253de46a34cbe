//! Aggregation of per-launch stats into the paper's reporting units.
//!
//! Figures 11–13 report execution-time *breakdowns* (per kernel within an
//! operation, per kernel within a workload, per operation within a
//! workload); Table IX reports occupancy per operation; Table XI reports
//! energy. [`Profiler`] computes all of these from a flat slice of
//! [`KernelStats`] — normally one *borrowed* from the simulator's launch
//! log, so costing a window never copies it.

use crate::engine::KernelStats;
use crate::kernel::KernelName;
use crate::stall::StallBreakdown;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Aggregated view over a set of kernel launches.
#[derive(Debug, Clone)]
pub struct Profiler<'a> {
    stats: Cow<'a, [KernelStats]>,
}

impl<'a> Profiler<'a> {
    /// Builds a profiler over launch stats: a view when handed a slice
    /// (`Profiler::new(sim.stats())`), an owner when handed a `Vec`.
    #[must_use]
    pub fn new(stats: impl Into<Cow<'a, [KernelStats]>>) -> Self {
        Self {
            stats: stats.into(),
        }
    }

    /// Underlying records.
    #[must_use]
    pub fn records(&self) -> &[KernelStats] {
        &self.stats
    }

    /// Device time grouped by `key`, descending. Keys are compared as
    /// `str` and each distinct name is cloned (a reference-count bump)
    /// once, so the table has the order and the sums of a `String`-keyed
    /// fold without allocating per launch.
    fn time_by(&self, key: impl Fn(&KernelStats) -> &KernelName) -> Vec<(KernelName, f64)> {
        let mut m: BTreeMap<&str, (&KernelName, f64)> = BTreeMap::new();
        for s in self.stats.iter() {
            let name = key(s);
            m.entry(name).or_insert((name, 0.0)).1 += s.duration_us;
        }
        let mut v: Vec<_> = m.into_values().map(|(k, t)| (k.clone(), t)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        v
    }

    /// Wall-clock span covered by the launches (µs): latest end minus
    /// earliest start. This is the "execution time" of tables VI/VII/X.
    #[must_use]
    pub fn span_us(&self) -> f64 {
        let start = self
            .stats
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let end = self.stats.iter().map(|s| s.end_us).fold(0.0, f64::max);
        if start.is_finite() && end > start {
            end - start
        } else {
            0.0
        }
    }

    /// Sum of per-kernel device time (µs). Exceeds `span_us` when streams
    /// overlap.
    #[must_use]
    pub fn busy_us(&self) -> f64 {
        self.stats.iter().map(|s| s.duration_us).sum()
    }

    /// Device time grouped by kernel name, descending.
    #[must_use]
    pub fn time_by_kernel(&self) -> Vec<(KernelName, f64)> {
        self.time_by(|s| &s.name)
    }

    /// Device time grouped by operation scope, descending.
    #[must_use]
    pub fn time_by_op(&self) -> Vec<(KernelName, f64)> {
        self.time_by(|s| &s.op_tag)
    }

    /// Fractional kernel breakdown (sums to 1) — the Fig. 11/12 bars.
    #[must_use]
    pub fn kernel_fractions(&self) -> Vec<(KernelName, f64)> {
        let total = self.busy_us();
        if total <= 0.0 {
            return Vec::new();
        }
        self.time_by_kernel()
            .into_iter()
            .map(|(k, t)| (k, t / total))
            .collect()
    }

    /// Fractional operation breakdown (sums to 1) — the Fig. 13 bars.
    #[must_use]
    pub fn op_fractions(&self) -> Vec<(KernelName, f64)> {
        let total = self.busy_us();
        if total <= 0.0 {
            return Vec::new();
        }
        self.time_by_op()
            .into_iter()
            .map(|(k, t)| (k, t / total))
            .collect()
    }

    /// Restricts to launches inside one operation scope.
    #[must_use]
    pub fn for_op(&self, op: &str) -> Profiler<'static> {
        self.filtered(|s| &*s.op_tag == op)
    }

    /// Restricts to launches of one kernel name.
    #[must_use]
    pub fn for_kernel(&self, name: &str) -> Profiler<'static> {
        self.filtered(|s| &*s.name == name)
    }

    fn filtered(&self, keep: impl Fn(&KernelStats) -> bool) -> Profiler<'static> {
        Profiler::new(
            self.stats
                .iter()
                .filter(|s| keep(s))
                .cloned()
                .collect::<Vec<_>>(),
        )
    }

    /// Time-weighted average occupancy in `[0, 1]` (Table IX).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let total = self.busy_us();
        if total <= 0.0 {
            return 0.0;
        }
        self.stats
            .iter()
            .map(|s| s.occupancy * s.duration_us)
            .sum::<f64>()
            / total
    }

    /// Total attributed energy in joules (Table XI).
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.stats.iter().map(|s| s.energy_j).sum()
    }

    /// Total DRAM traffic in bytes.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes).sum()
    }

    /// Summed stall breakdown over all launches.
    #[must_use]
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let mut b = StallBreakdown::new();
        for s in self.stats.iter() {
            b += s.breakdown;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::engine::DeviceSim;
    use crate::kernel::{KernelClass, KernelDesc};

    fn run_two_ops() -> Profiler<'static> {
        let mut sim = DeviceSim::new(DeviceConfig::a100());
        let st = sim.create_stream();
        sim.set_scope("HADD");
        sim.launch(
            st,
            KernelDesc::new(
                KernelClass::Elementwise {
                    elems: 1 << 20,
                    ops_per_elem: 1,
                    bytes_per_elem: 12,
                },
                "ele-add",
            ),
        );
        sim.set_scope("HMULT");
        sim.launch(
            st,
            KernelDesc::new(
                KernelClass::ButterflyNtt {
                    n: 1 << 14,
                    batch: 16,
                },
                "ntt",
            ),
        );
        sim.launch(
            st,
            KernelDesc::new(
                KernelClass::Elementwise {
                    elems: 1 << 20,
                    ops_per_elem: 2,
                    bytes_per_elem: 12,
                },
                "hada-mult",
            ),
        );
        sim.synchronize();
        Profiler::new(sim.stats().to_vec())
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = run_two_ops();
        let sum: f64 = p.kernel_fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let sum: f64 = p.op_fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn op_filter_isolates_kernels() {
        let p = run_two_ops();
        let hmult = p.for_op("HMULT");
        assert_eq!(hmult.records().len(), 2);
        assert!(hmult.time_by_kernel().iter().any(|(k, _)| &**k == "ntt"));
        assert!(!hmult
            .time_by_kernel()
            .iter()
            .any(|(k, _)| &**k == "ele-add"));
    }

    #[test]
    fn ntt_dominates_its_op() {
        let p = run_two_ops().for_op("HMULT");
        let by_kernel = p.time_by_kernel();
        assert_eq!(
            &*by_kernel[0].0, "ntt",
            "NTT should dominate: {by_kernel:?}"
        );
    }

    #[test]
    fn span_and_busy_consistent() {
        let p = run_two_ops();
        assert!(p.span_us() > 0.0);
        // Single stream → busy cannot exceed span by much (no overlap).
        assert!(p.busy_us() <= p.span_us() * 1.001);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = Profiler::new(Vec::new());
        assert_eq!(p.span_us(), 0.0);
        assert_eq!(p.occupancy(), 0.0);
        assert!(p.kernel_fractions().is_empty());
    }

    #[test]
    fn energy_positive() {
        let p = run_two_ops();
        assert!(p.energy_j() > 0.0);
    }
}
