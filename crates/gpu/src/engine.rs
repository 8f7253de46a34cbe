//! The discrete-event device engine.
//!
//! Kernels are launched into CUDA streams; the engine advances virtual time,
//! letting concurrently-runnable kernels share the machine. Each kernel's
//! *standalone* cost (latency with the whole device to itself) comes from
//! the warp simulator (CUDA-core kernels) or the tensor-core pipeline model
//! (TCU GEMMs), combined with a bandwidth model; concurrent kernels then
//! water-fill the two execution pools (CUDA cores and TCUs, which genuinely
//! overlap on the hardware) subject to each kernel's maximum parallel
//! fraction. This is what makes the paper's 16-streams-of-small-GEMMs
//! pattern (Fig. 8) profitable in the model, for the same reason it is
//! profitable on the real machine.
//!
//! Host-side launch overhead is modelled as a serial CPU enqueue: every
//! launch advances the host clock by `kernel_launch_us`, and a kernel can
//! never start before its enqueue completes.

use crate::device::DeviceConfig;
use crate::kernel::{KernelClass, KernelDesc, KernelName};
use crate::stall::{StallBreakdown, StallKind};
use crate::warp_sim::{simulate_scheduler, Instr, SimResult};
use std::collections::{HashMap, VecDeque};

/// Maximum warp-sim iterations before linear extrapolation.
const SIM_ITER_CAP: u64 = 48;

/// Handle to a CUDA stream created by [`DeviceSim::create_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// Which resource ultimately bounded a kernel's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundBy {
    /// Issue-limited on the CUDA cores.
    Compute,
    /// DRAM-bandwidth limited.
    Memory,
    /// Tensor-core throughput limited.
    TensorCore,
    /// Dominated by host launch overhead.
    Launch,
}

/// Per-launch measurement record.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name from the descriptor (the descriptor's own interned
    /// name: launches built from one name table share one allocation).
    pub name: KernelName,
    /// Class tag (`"butterfly-ntt"`, `"gemm-tcu"`, …).
    pub class_tag: &'static str,
    /// Operation scope active at launch time (`"HMULT"`, …).
    pub op_tag: KernelName,
    /// Stream index.
    pub stream: usize,
    /// Virtual start time (µs).
    pub start_us: f64,
    /// Virtual end time (µs).
    pub end_us: f64,
    /// Wall duration on the device (µs).
    pub duration_us: f64,
    /// Standalone (exclusive-device) duration (µs).
    pub standalone_us: f64,
    /// Stall accounting from the warp simulator (empty for TCU kernels).
    pub breakdown: StallBreakdown,
    /// Achieved occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// DRAM bytes moved.
    pub bytes: u64,
    /// Tensor-core MACs executed.
    pub tcu_macs: u64,
    /// Energy attributed to this kernel (J).
    pub energy_j: f64,
    /// Limiting resource.
    pub bound: BoundBy,
}

/// Pool a kernel executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Cuda,
    Tcu,
}

#[derive(Debug, Clone)]
struct CostProfile {
    standalone_us: f64,
    parallel_fraction: f64,
    breakdown: StallBreakdown,
    occupancy: f64,
    bound: BoundBy,
    pool: Pool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CostKey {
    class: ClassKey,
    block: u32,
    threads: Option<u64>,
    coalesced: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ClassKey {
    Butterfly(usize, usize),
    GemmCuda(usize, usize, usize, usize),
    GemmTcu(usize, usize, usize, usize),
    Elementwise(u64, u32, u32),
    Permute(u64),
    KeyUpload(u64),
    BasisConv(u64, usize),
    Fft(usize, usize),
    Dwt(usize, usize),
}

fn class_key(c: &KernelClass) -> ClassKey {
    match *c {
        KernelClass::ButterflyNtt { n, batch } => ClassKey::Butterfly(n, batch),
        KernelClass::GemmCuda { m, k, cols, batch } => ClassKey::GemmCuda(m, k, cols, batch),
        KernelClass::GemmTcu { m, k, cols, batch } => ClassKey::GemmTcu(m, k, cols, batch),
        KernelClass::Elementwise {
            elems,
            ops_per_elem,
            bytes_per_elem,
        } => ClassKey::Elementwise(elems, ops_per_elem, bytes_per_elem),
        KernelClass::Permute { elems } => ClassKey::Permute(elems),
        KernelClass::KeyUpload { bytes } => ClassKey::KeyUpload(bytes),
        KernelClass::BasisConv { elems, l_src } => ClassKey::BasisConv(elems, l_src),
        KernelClass::FftButterfly { n, batch } => ClassKey::Fft(n, batch),
        KernelClass::DwtLifting { n, batch } => ClassKey::Dwt(n, batch),
    }
}

/// The exact inputs of one [`simulate_scheduler`] call but the device,
/// which a [`CostMemo`] is bound to: the template's fields (the footprint
/// by its bits), the resident warps, the simulated iterations and the
/// warps per block.
#[derive(Debug, PartialEq, Eq, Hash)]
struct SimKey {
    body: Vec<Instr>,
    code_footprint: u64,
    loop_redirect_cycles: u32,
    warps: usize,
    iters: u64,
    warps_per_block: usize,
}

/// Memoised standalone launch costs, and the warp-simulator results they
/// were computed from.
///
/// A launch's standalone cost is a pure function of the device description
/// and the launch shape (class, geometry, layout) — never of clocks,
/// queues or what ran before — so the memo can outlive the simulator that
/// filled it: [`DeviceSim::take_memo`] hands it out and
/// [`DeviceSim::with_memo`] starts a fresh, zero-based simulator on it.
/// That is how an engine runs every costing window history-free and still
/// costs each kernel shape once. Many shapes pose the same warp-scheduler
/// problem (resident warps and simulated iterations sit at their caps), so
/// the memo also keeps each [`simulate_scheduler`] result under the
/// simulator's own inputs and runs the (deterministic) simulator once per
/// distinct problem. A memo remembers the device it was filled for and
/// refuses any other.
#[derive(Debug, Default)]
pub struct CostMemo {
    /// The device the entries were computed for (`None` while empty).
    device: Option<DeviceConfig>,
    // lint: ordered-ok (keyed get/insert only; never iterated)
    costs: HashMap<CostKey, CostProfile>,
    // lint: ordered-ok (keyed entry only; never iterated)
    sims: HashMap<SimKey, SimResult>,
}

impl CostMemo {
    /// Distinct launch shapes costed so far — each one is exactly one run
    /// of the cost model. A CUDA-core shape runs the warp simulator only if
    /// no earlier shape posed the same scheduler problem.
    #[must_use]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether no launch shape has been costed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

#[derive(Debug)]
struct Pending {
    desc: KernelDesc,
    op_tag: KernelName,
    stream: usize,
    host_ready_us: f64,
    cost: CostProfile,
    /// Device-µs of work remaining (standalone_us × parallel_fraction).
    remaining_work: f64,
    started_us: Option<f64>,
}

/// Effective DRAM efficiency for a launch.
fn mem_efficiency(desc: &KernelDesc) -> f64 {
    let base = if desc.coalesced { 0.85 } else { 0.30 };
    // Threads that each touch very little data waste transactions (the
    // 32K-thread regression of Fig. 5).
    let bytes_per_thread = desc.bytes_moved() as f64 / desc.threads().max(1) as f64;
    let thin = (bytes_per_thread / 32.0).clamp(0.25, 1.0);
    base * thin.sqrt()
}

/// Simulated GPU device executing [`KernelDesc`] launches on streams.
#[derive(Debug)]
pub struct DeviceSim {
    config: DeviceConfig,
    streams: usize,
    host_clock_us: f64,
    device_clock_us: f64,
    /// FIFO launch queue per stream.
    queues: Vec<VecDeque<Pending>>,
    pending_count: usize,
    completed: Vec<KernelStats>,
    memo: CostMemo,
    op_tag: KernelName,
    /// Event-loop scratch, reused across [`DeviceSim::step`] calls (two
    /// steps a launch): the streams whose head is runnable, one pool's
    /// `(stream, cap)` list, and the water-fill share per stream.
    active: Vec<usize>,
    caps: Vec<(usize, f64)>,
    /// Indexed by stream, so walking it visits streams in index order.
    /// That order is load-bearing: the retire loop pushes simultaneous
    /// completions into `completed` in the order it walks this table, and
    /// a hash-ordered table here would survive the stable end-time sort
    /// in `synchronize` and leak a per-process-random tiebreak into
    /// completion order (exactly the bug the L003 lint exists to catch).
    alloc: Vec<Option<f64>>,
}

impl DeviceSim {
    /// Creates a device simulator.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_memo(config, CostMemo::default())
    }

    /// Creates a device simulator that starts on an existing launch-cost
    /// memo: clocks, queues and stats are new, only the pure memo carries
    /// over (see [`CostMemo`]).
    ///
    /// # Panics
    ///
    /// Panics if the memo was filled for a different device description.
    #[must_use]
    pub fn with_memo(config: DeviceConfig, memo: CostMemo) -> Self {
        assert!(
            memo.device.as_ref().is_none_or(|d| *d == config),
            "launch-cost memo lent to a different device"
        );
        Self {
            config,
            streams: 0,
            host_clock_us: 0.0,
            device_clock_us: 0.0,
            queues: Vec::new(),
            pending_count: 0,
            completed: Vec::new(),
            memo,
            op_tag: KernelName::default(),
            active: Vec::new(),
            caps: Vec::new(),
            alloc: Vec::new(),
        }
    }

    /// Takes the launch-cost memo out of the simulator (which keeps
    /// working on an empty one), stamped with this device.
    pub fn take_memo(&mut self) -> CostMemo {
        let mut memo = std::mem::take(&mut self.memo);
        if memo.device.is_none() {
            memo.device = Some(self.config.clone());
        }
        memo
    }

    /// Creates a new stream and returns its handle.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.streams);
        self.streams += 1;
        self.queues.push(VecDeque::new());
        self.alloc.push(None);
        id
    }

    /// Tags subsequent launches with an operation scope (e.g. `"HMULT"`),
    /// recorded as [`KernelStats::op_tag`].
    pub fn set_scope(&mut self, tag: impl Into<KernelName>) {
        self.op_tag = tag.into();
    }

    /// Enqueues a kernel on a stream. Returns immediately (asynchronous
    /// semantics); call [`DeviceSim::synchronize`] to drain.
    ///
    /// # Panics
    ///
    /// Panics if the stream was not created by this simulator, or if a TCU
    /// kernel is launched on a device without tensor cores.
    pub fn launch(&mut self, stream: StreamId, desc: KernelDesc) {
        assert!(stream.0 < self.streams, "unknown stream");
        if matches!(desc.class, KernelClass::GemmTcu { .. }) {
            assert!(
                self.config.has_tensor_cores(),
                "device {} has no tensor cores",
                self.config.name
            );
        }
        // Host enqueue cost.
        self.host_clock_us = self.host_clock_us.max(self.device_clock_us);
        self.host_clock_us += self.config.kernel_launch_us;
        let cost = self.cost_of(&desc);
        let work = cost.standalone_us * cost.parallel_fraction;
        self.queues[stream.0].push_back(Pending {
            op_tag: self.op_tag.clone(),
            stream: stream.0,
            host_ready_us: self.host_clock_us,
            remaining_work: work.max(1e-9),
            started_us: None,
            cost,
            desc,
        });
        self.pending_count += 1;
    }

    /// Runs the event loop until every pending kernel has completed, and
    /// returns the stats of kernels completed by *this* call in completion
    /// order — a window borrowed from the launch log ([`DeviceSim::stats`]),
    /// not a copy of it.
    pub fn synchronize(&mut self) -> &[KernelStats] {
        let first_new = self.completed.len();
        while self.pending_count > 0 {
            self.step();
        }
        self.device_clock_us = self.device_clock_us.max(self.host_clock_us);
        // Completion order for the newly retired window (sorting once here
        // instead of on every retire keeps long runs linear).
        self.completed[first_new..]
            .sort_by(|a, b| a.end_us.partial_cmp(&b.end_us).expect("finite times"));
        &self.completed[first_new..]
    }

    /// Virtual time elapsed on the device so far (µs).
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.device_clock_us
    }

    /// All stats recorded since construction.
    #[must_use]
    pub fn stats(&self) -> &[KernelStats] {
        &self.completed
    }

    /// The launch-interval records of every retired kernel:
    /// `(stream, start_us, end_us)` in retirement order. This is the raw
    /// material for the schedule verifier's per-stream structural checks
    /// (FIFO streams must produce non-overlapping, monotone intervals).
    pub fn intervals(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.completed
            .iter()
            .map(|k| (k.stream, k.start_us, k.end_us))
    }

    /// One event-loop step: advance to the next arrival or completion.
    /// Only the head of each stream queue is eligible (FIFO streams), so
    /// every step is O(#streams).
    fn step(&mut self) {
        let t = self.device_clock_us;
        let Self {
            queues,
            active,
            caps,
            alloc,
            ..
        } = self;
        // Head-of-line kernel per stream.
        active.clear();
        let mut next_arrival = f64::INFINITY;
        for (sid, q) in queues.iter().enumerate() {
            if let Some(p) = q.front() {
                if p.host_ready_us <= t + 1e-12 {
                    active.push(sid);
                } else {
                    next_arrival = next_arrival.min(p.host_ready_us);
                }
            }
        }
        if active.is_empty() {
            assert!(next_arrival.is_finite(), "device engine stalled");
            self.device_clock_us = next_arrival;
            return;
        }

        // Water-fill each pool independently over the active heads.
        alloc.fill(None);
        for pool in [Pool::Cuda, Pool::Tcu] {
            caps.clear();
            caps.extend(active.iter().filter_map(|&sid| {
                let cost = &queues[sid].front().expect("head").cost;
                (cost.pool == pool).then(|| (sid, cost.parallel_fraction.clamp(1e-6, 1.0)))
            }));
            if caps.is_empty() {
                continue;
            }
            caps.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
            let mut capacity = 1.0f64;
            let mut remaining = caps.len();
            for &(sid, cap) in caps.iter() {
                let share = capacity / remaining as f64;
                let a = cap.min(share);
                alloc[sid] = Some(a);
                capacity -= a;
                remaining -= 1;
            }
        }
        // The streams holding a share, in stream order.
        let shares = || {
            alloc
                .iter()
                .enumerate()
                .filter_map(|(sid, a)| a.map(|a| (sid, a)))
        };

        // Next event: earliest completion or next arrival.
        let mut dt = next_arrival - t;
        for (sid, a) in shares() {
            if a > 0.0 {
                dt = dt.min(queues[sid].front().expect("head").remaining_work / a);
            }
        }
        assert!(dt.is_finite(), "device engine stalled with work pending");
        let dt = dt.max(1e-9);

        // Progress the active heads.
        for (sid, a) in shares() {
            let p = queues[sid].front_mut().expect("head");
            if p.started_us.is_none() {
                p.started_us = Some(t);
            }
            p.remaining_work -= a * dt;
        }
        let now = t + dt;
        self.device_clock_us = now;

        // Retire finished heads.
        let power = self.config.power_watts;
        for (sid, _) in shares() {
            let done = queues[sid]
                .front()
                .is_some_and(|p| p.remaining_work <= 1e-9);
            if done {
                let p = queues[sid].pop_front().expect("head");
                self.pending_count -= 1;
                let start = p.started_us.unwrap_or(now);
                let work = p.cost.standalone_us * p.cost.parallel_fraction;
                self.completed.push(KernelStats {
                    class_tag: p.desc.class.tag(),
                    bytes: p.desc.bytes_moved(),
                    tcu_macs: p.desc.tcu_macs(),
                    name: p.desc.name,
                    op_tag: p.op_tag,
                    stream: p.stream,
                    start_us: start,
                    end_us: now,
                    duration_us: now - start,
                    standalone_us: p.cost.standalone_us,
                    breakdown: p.cost.breakdown,
                    occupancy: p.cost.occupancy,
                    energy_j: work * power / 1e6,
                    bound: p.cost.bound,
                });
            }
        }
    }

    /// Standalone cost of a launch (memoised).
    fn cost_of(&mut self, desc: &KernelDesc) -> CostProfile {
        let key = CostKey {
            class: class_key(&desc.class),
            block: desc.block_size,
            threads: desc.threads_override,
            coalesced: desc.coalesced,
        };
        if let Some(c) = self.memo.costs.get(&key) {
            return c.clone();
        }
        let cost = self.compute_cost(desc);
        self.memo.costs.insert(key, cost.clone());
        cost
    }

    fn compute_cost(&mut self, desc: &KernelDesc) -> CostProfile {
        let d = &self.config;
        let mem_eff = mem_efficiency(desc);
        let mem_us = desc.bytes_moved() as f64 / (d.mem_bandwidth_gbps * 1e3 * mem_eff);

        if let KernelClass::KeyUpload { .. } = desc.class {
            // Copy-engine model: PCIe, not DRAM or the SM array, bounds a
            // key-set upload, and the DMA barely contends with compute —
            // streams overlap it almost entirely.
            return CostProfile {
                standalone_us: desc.dma_us().max(d.kernel_launch_us),
                parallel_fraction: 0.05,
                breakdown: StallBreakdown::new(),
                occupancy: 0.0,
                bound: BoundBy::Memory,
                pool: Pool::Cuda,
            };
        }

        if let KernelClass::GemmTcu { m, cols, batch, .. } = desc.class {
            // Tensor-core pipeline model: padded MACs over peak rate, scaled
            // by how many tiles the launch can spread over the TCUs.
            let tiles = (m as f64 / 16.0).ceil() * (cols as f64 / 8.0).ceil() * batch as f64;
            let tcu_slots = (d.sm_count * d.tensor_cores_per_sm) as f64 * 2.0;
            let p = (tiles / tcu_slots).clamp(1e-4, 1.0);
            let rate = d.tcu_macs_per_second().max(1.0);
            let compute_us = desc.tcu_macs() as f64 / rate * 1e6 / p;
            let (standalone, bound) = if mem_us > compute_us {
                (mem_us, BoundBy::Memory)
            } else {
                (compute_us, BoundBy::TensorCore)
            };
            return CostProfile {
                standalone_us: standalone.max(0.5),
                parallel_fraction: p,
                breakdown: StallBreakdown::new(),
                occupancy: p * 0.92,
                bound,
                pool: Pool::Tcu,
            };
        }

        let template = desc.template().expect("every non-TCU class has a template");
        let threads = desc.threads();
        let warps_total = threads.div_ceil(d.warp_size as u64).max(1);
        let sched_total = (d.sm_count * d.schedulers_per_sm) as u64;
        let warps_per_block = (desc.block_size / d.warp_size).max(1) as u64;
        let warps_per_sched_cap = ((d.max_warps_per_sm / d.schedulers_per_sm).max(1) as u64)
            .min(desc.class.resident_warp_cap())
            .max(warps_per_block.min(8));
        let resident = (warps_total.div_ceil(sched_total)).clamp(1, warps_per_sched_cap);
        let iters = desc.iters_per_thread();
        let sim_iters = iters.clamp(1, SIM_ITER_CAP);
        let warps = resident as usize;
        let warps_per_block = (warps_per_block as usize).min(warps);
        let key = SimKey {
            body: template.body.clone(),
            code_footprint: template.code_footprint.to_bits(),
            loop_redirect_cycles: template.loop_redirect_cycles,
            warps,
            iters: sim_iters,
            warps_per_block,
        };
        let sim =
            *self.memo.sims.entry(key).or_insert_with(|| {
                simulate_scheduler(d, &template, warps, sim_iters, warps_per_block)
            });
        let cycles = sim.cycles as f64 * iters as f64 / sim_iters as f64;
        let waves = (warps_total as f64 / (sched_total * resident) as f64).max(1.0);
        let compute_us = waves * cycles / (d.clock_ghz * 1e3);

        // The stall profile is the *pipeline* view (GPGPUSim-style); the
        // bandwidth bound is reported separately via `bound` so Fig. 4/10
        // percentages are not diluted by DRAM time.
        let breakdown = sim.breakdown;
        let (standalone, bound) = if mem_us > compute_us {
            (mem_us, BoundBy::Memory)
        } else {
            (compute_us, BoundBy::Compute)
        };

        // Achieved occupancy is residency-driven (NSight counts resident
        // warps per cycle; warps waiting on memory still count), with a
        // small duty term separating saturated compute from pure streaming.
        let resident_frac = (warps_total as f64 / d.total_warp_slots() as f64).clamp(0.0, 1.0);
        let duty = (compute_us / standalone.max(1e-12)).clamp(0.05, 1.0);
        let occupancy = (resident_frac * (0.85 + 0.15 * duty)).clamp(0.0, 1.0);
        let parallel_fraction = resident_frac.max(1e-4);

        CostProfile {
            standalone_us: standalone.max(0.5),
            parallel_fraction,
            breakdown,
            occupancy,
            bound,
            pool: Pool::Cuda,
        }
    }

    /// Exposes the standalone cost of a descriptor without launching it —
    /// used by the API layer's batch-size search and by unit tests.
    pub fn peek_cost(&mut self, desc: &KernelDesc) -> (f64, StallBreakdown, f64) {
        let c = self.cost_of(desc);
        (c.standalone_us, c.breakdown, c.occupancy)
    }

    /// Attribution of a full launch's stall profile (Fig. 4/10 data): runs
    /// the kernel in isolation and returns its breakdown without touching
    /// the clocks.
    pub fn stall_profile(&mut self, desc: &KernelDesc) -> StallBreakdown {
        self.cost_of(desc).breakdown
    }

    /// Convenience: fraction of cycles stalled for `kind` when the kernel
    /// runs standalone.
    pub fn stall_fraction(&mut self, desc: &KernelDesc, kind: StallKind) -> f64 {
        self.stall_profile(desc).fraction(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator, its memo included, stays plain data — no shared
    /// interior mutability — so it can move between threads.
    #[test]
    fn device_sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DeviceSim>();
        assert_send::<DeviceConfig>();
    }

    fn sim() -> DeviceSim {
        DeviceSim::new(DeviceConfig::a100())
    }

    fn ew(elems: u64) -> KernelDesc {
        KernelDesc::new(
            KernelClass::Elementwise {
                elems,
                ops_per_elem: 2,
                bytes_per_elem: 12,
            },
            "ew",
        )
    }

    #[test]
    fn single_kernel_runs_and_reports() {
        let mut s = sim();
        let st = s.create_stream();
        s.set_scope("HADD");
        s.launch(st, ew(1 << 20));
        let done = s.synchronize();
        assert_eq!(done.len(), 1);
        let k = &done[0];
        assert!(k.duration_us > 0.0);
        assert_eq!(&*k.op_tag, "HADD");
        assert!(k.end_us >= k.start_us);
    }

    #[test]
    fn key_upload_launch_is_costed_by_the_copy_engine() {
        let mut s = sim();
        let st = s.create_stream();
        s.set_scope("KEY-UPLOAD");
        let bytes = 256 * 1024 * 1024; // a paper-scale galois key set slice
        let desc = KernelDesc::new(KernelClass::KeyUpload { bytes }, "key-upload");
        let expect_us = desc.dma_us();
        s.launch(st, desc);
        let done = s.synchronize();
        assert_eq!(done.len(), 1);
        let k = &done[0];
        // PCIe-bound: the launch takes at least the DMA time, and nowhere
        // near the DRAM-bandwidth time a compute kernel would be charged.
        assert!(
            k.duration_us >= expect_us * 0.99,
            "DMA undercharged: {} vs {}",
            k.duration_us,
            expect_us
        );
        assert_eq!(k.occupancy, 0.0, "the copy engine occupies no SMs");
        assert_eq!(k.tcu_macs, 0);
    }

    #[test]
    fn memo_outlives_its_simulator_and_costs_nothing_twice() {
        let mut first = sim();
        let st = first.create_stream();
        first.launch(st, ew(1 << 20));
        first.launch(st, ew(1 << 22));
        let cold: Vec<u64> = first
            .synchronize()
            .iter()
            .map(|k| k.duration_us.to_bits())
            .collect();
        let memo = first.take_memo();
        assert_eq!(memo.len(), 2, "one entry per launch shape");
        // Both shapes run four iterations on the capped 16 resident warps.
        assert_eq!(memo.sims.len(), 1, "one scheduler problem");

        // A fresh simulator on the warm memo: zero-based clocks, same
        // bits, and not one new cost computed.
        let mut second = DeviceSim::with_memo(DeviceConfig::a100(), memo);
        let st = second.create_stream();
        second.launch(st, ew(1 << 20));
        second.launch(st, ew(1 << 22));
        let warm: Vec<u64> = second
            .synchronize()
            .iter()
            .map(|k| k.duration_us.to_bits())
            .collect();
        assert_eq!(cold, warm);
        // A new shape posing the same problem is costed from the lent
        // simulator result: the shape is new, the simulation is not.
        second.launch(st, ew(1 << 23));
        second.synchronize();
        let memo = second.take_memo();
        assert_eq!(memo.len(), 3, "the two known shapes hit the memo");
        assert_eq!(memo.sims.len(), 1, "the lent memo carried the simulation");

        // Costs are per device: the memo refuses another machine.
        let lent = std::panic::catch_unwind(|| DeviceSim::with_memo(DeviceConfig::v100(), memo));
        assert!(lent.is_err(), "an A100 memo must not cost V100 launches");
    }

    #[test]
    fn shapes_sharing_a_scheduler_problem_simulate_it_once() {
        // The first three saturate both caps (16 resident warps, 48
        // simulated iterations); the next two run four iterations on 16
        // warps, and the last four iterations on 10 warps.
        let shapes = [
            ew(1 << 24).with_threads(1 << 18),
            ew(1 << 25).with_threads(1 << 18),
            ew(1 << 26).with_threads(1 << 19),
            ew(1 << 20),
            ew(1 << 22),
            ew(1 << 19),
        ];
        let mut shared = sim();
        let st = shared.create_stream();
        for d in &shapes {
            shared.launch(st, d.clone());
        }
        let launched = shared.synchronize().to_vec();
        assert_eq!(shared.memo.len(), shapes.len(), "every shape is costed");
        assert_eq!(shared.memo.sims.len(), 3, "one run per distinct problem");

        // Every launch costs the bits it costs on a simulator of its own.
        let bits = |s: &mut DeviceSim, d: &KernelDesc| {
            let c = s.cost_of(d);
            (
                c.standalone_us.to_bits(),
                c.parallel_fraction.to_bits(),
                c.occupancy.to_bits(),
                c.breakdown,
            )
        };
        for (d, k) in shapes.iter().zip(&launched) {
            let mut own = sim();
            let alone = bits(&mut own, d);
            assert_eq!(bits(&mut shared, d), alone);
            assert_eq!(
                (
                    k.standalone_us.to_bits(),
                    k.occupancy.to_bits(),
                    k.breakdown
                ),
                (alone.0, alone.2, alone.3)
            );
        }
    }

    #[test]
    fn same_stream_serializes() {
        let mut s = sim();
        let st = s.create_stream();
        s.launch(st, ew(1 << 22));
        s.launch(st, ew(1 << 22));
        let done = s.synchronize();
        assert_eq!(done.len(), 2);
        assert!(
            done[1].start_us >= done[0].end_us - 1e-6,
            "stream order violated"
        );
    }

    #[test]
    fn streams_overlap_small_kernels() {
        // 16 deep-but-narrow TCU GEMMs (few tiles → small parallel fraction,
        // deep k → real duration) across 16 streams vs serial on one stream.
        let gemm = KernelDesc::new(
            KernelClass::GemmTcu {
                m: 64,
                k: 65536,
                cols: 64,
                batch: 1,
            },
            "gemm",
        );
        let mut serial = sim();
        let st = serial.create_stream();
        for _ in 0..16 {
            serial.launch(st, gemm.clone());
        }
        serial.synchronize();
        let t_serial = serial.elapsed_us();

        let mut par = sim();
        let streams: Vec<StreamId> = (0..16).map(|_| par.create_stream()).collect();
        for s_id in &streams {
            par.launch(*s_id, gemm.clone());
        }
        par.synchronize();
        let t_par = par.elapsed_us();
        assert!(
            t_par < t_serial * 0.75,
            "stream overlap must help small GEMMs: serial {t_serial} vs parallel {t_par}"
        );
    }

    #[test]
    fn bigger_launches_take_longer() {
        let mut s = sim();
        let (a, _, _) = s.peek_cost(&ew(1 << 18));
        let (b, _, _) = s.peek_cost(&ew(1 << 24));
        assert!(
            b > a * 10.0,
            "64× the elements must cost much more: {a} vs {b}"
        );
    }

    #[test]
    fn strided_layout_slower_than_coalesced() {
        let mut s = sim();
        let (fast, _, _) = s.peek_cost(&ew(1 << 22));
        let (slow, _, _) = s.peek_cost(&ew(1 << 22).with_strided_layout());
        assert!(
            slow > fast * 1.5,
            "strided {slow} should be ≥1.5× coalesced {fast}"
        );
    }

    #[test]
    fn butterfly_ntt_has_raw_stalls_gemm_does_not() {
        let mut s = DeviceSim::new(DeviceConfig::gtx1080ti());
        let ntt = KernelDesc::new(
            KernelClass::ButterflyNtt {
                n: 1 << 12,
                batch: 8,
            },
            "ntt",
        )
        .with_block_size(128);
        let gemm = KernelDesc::new(
            KernelClass::GemmCuda {
                m: 64,
                k: 64,
                cols: 64,
                batch: 8,
            },
            "gemm",
        );
        let raw_ntt = s.stall_fraction(&ntt, StallKind::Raw);
        let raw_gemm = s.stall_fraction(&gemm, StallKind::Raw);
        assert!(
            raw_ntt > raw_gemm + 0.02,
            "butterfly RAW ({raw_ntt}) must exceed GEMM RAW ({raw_gemm})"
        );
    }

    #[test]
    fn v100_slower_than_a100_for_same_kernel() {
        let gemm = KernelDesc::new(
            KernelClass::GemmTcu {
                m: 256,
                k: 256,
                cols: 256,
                batch: 45,
            },
            "gemm",
        );
        let mut a = DeviceSim::new(DeviceConfig::a100());
        let mut v = DeviceSim::new(DeviceConfig::v100());
        let (ta, _, _) = a.peek_cost(&gemm);
        let (tv, _, _) = v.peek_cost(&gemm);
        assert!(tv > ta, "V100 ({tv}) must be slower than A100 ({ta})");
    }

    #[test]
    fn tcu_kernel_rejected_without_tensor_cores() {
        let mut s = DeviceSim::new(DeviceConfig::gtx1080ti());
        let st = s.create_stream();
        let gemm = KernelDesc::new(
            KernelClass::GemmTcu {
                m: 16,
                k: 16,
                cols: 16,
                batch: 1,
            },
            "gemm",
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.launch(st, gemm);
        }));
        assert!(r.is_err(), "launching TCU kernel on 1080Ti must panic");
    }

    #[test]
    fn butterfly_profile_shows_barrier_stalls() {
        // The Fig. 4 configuration produces a small but non-zero barrier
        // component (blocks assemble while sibling blocks hold the issue
        // slots).
        let mut s = DeviceSim::new(DeviceConfig::gtx1080ti());
        let ntt = KernelDesc::new(
            KernelClass::ButterflyNtt {
                n: 1 << 14,
                batch: 4,
            },
            "ntt",
        )
        .with_block_size(128);
        let b = s.stall_profile(&ntt);
        assert!(
            b.get(StallKind::Barrier) > 0,
            "expected barrier stalls: {b:?}"
        );
        // And the headline Fig. 4 shape: roughly 40-50% total stalls.
        let f = b.stall_fraction();
        assert!(
            (0.30..0.60).contains(&f),
            "NTT stall fraction {f} out of band"
        );
    }

    #[test]
    fn energy_scales_with_work() {
        let mut s = sim();
        let st = s.create_stream();
        s.launch(st, ew(1 << 20));
        s.launch(st, ew(1 << 24));
        let done = s.synchronize();
        assert!(done[1].energy_j > done[0].energy_j * 4.0);
    }

    #[test]
    fn batching_improves_throughput_per_item() {
        // One batched launch of 64 polys beats 64 separate launches.
        let mut s = sim();
        let st = s.create_stream();
        for _ in 0..64 {
            s.launch(
                st,
                KernelDesc::new(
                    KernelClass::ButterflyNtt {
                        n: 1 << 12,
                        batch: 1,
                    },
                    "ntt",
                ),
            );
        }
        s.synchronize();
        let t_individual = s.elapsed_us();

        let mut s2 = sim();
        let st2 = s2.create_stream();
        s2.launch(
            st2,
            KernelDesc::new(
                KernelClass::ButterflyNtt {
                    n: 1 << 12,
                    batch: 64,
                },
                "ntt",
            ),
        );
        s2.synchronize();
        let t_batched = s2.elapsed_us();
        assert!(
            t_batched < t_individual / 2.0,
            "batching must amortise launches: {t_batched} vs {t_individual}"
        );
    }
}
