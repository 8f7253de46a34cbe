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
//!
//! A launch costs no allocation of its own. Its shape is costed once per
//! [`CostMemo`] into a profile, and a queued launch is a profile index,
//! interned name and operation-scope ids and its host-ready time. A retired
//! launch is a 32-byte log record, `(stream, start, end, profile, name,
//! scope)`, and is folded into the simulator's [`Retired`] totals as it
//! retires. [`DeviceSim::stats`] builds full [`KernelStats`] from the log
//! on demand.

use crate::device::DeviceConfig;
use crate::kernel::{KernelClass, KernelDesc, KernelName};
use crate::stall::{StallBreakdown, StallKind};
use crate::warp_sim::{simulate_scheduler, Instr, SimResult};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

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
}

/// Per-launch measurement record, built on demand from the launch log
/// ([`DeviceSim::stats`]).
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name from the descriptor (the first descriptor of that name
    /// the simulator saw: launches built from one name table share one
    /// allocation).
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

/// Totals over every launch a simulator has retired, folded as each one
/// retires, in retire order — which is end-time order, the launch log's
/// order. The per-kernel-name device time is [`DeviceSim::busy_by_name`].
#[derive(Debug, Clone, PartialEq)]
pub struct Retired {
    /// Launches retired.
    pub launches: usize,
    /// Earliest start (µs); `+∞` while nothing has retired.
    pub first_start_us: f64,
    /// Latest end (µs); `0` while nothing has retired.
    pub last_end_us: f64,
    /// Device time summed over launches (µs).
    pub busy_us: f64,
    /// Occupancy × device time summed over launches (µs).
    pub occupancy_us: f64,
    /// Energy summed over launches (J).
    pub energy_j: f64,
}

impl Default for Retired {
    /// Nothing retired. The sums start at `-0.0`, the neutral of `f64`'s
    /// `Sum`, so a fold equals `Iterator::sum` over the log bit for bit.
    fn default() -> Self {
        Self {
            launches: 0,
            first_start_us: f64::INFINITY,
            last_end_us: 0.0,
            busy_us: -0.0,
            occupancy_us: -0.0,
            energy_j: -0.0,
        }
    }
}

/// A multiply-rotate hasher for the launch-shape map. A shape key is a
/// handful of integers the program derives from its own lowering, hashed
/// on every launch; SipHash's guard against crafted collisions buys
/// nothing there and cost about a quarter of a warm launch.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }
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

impl CostProfile {
    /// Device-µs of work a launch of this shape carries through the event
    /// loop (standalone × parallel fraction, never zero).
    fn work_us(&self) -> f64 {
        (self.standalone_us * self.parallel_fraction).max(1e-9)
    }

    /// Energy attributed to one launch of this shape (J).
    fn energy_j(&self, power_watts: f64) -> f64 {
        self.standalone_us * self.parallel_fraction * power_watts / 1e6
    }
}

/// A costed launch shape: its cost and the constants its launches report
/// when they retire.
#[derive(Debug, Clone)]
struct Profile {
    cost: CostProfile,
    class_tag: &'static str,
    bytes: u64,
    tcu_macs: u64,
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
/// costs each kernel shape once. The costs live in an arena of profiles,
/// one per shape, which also hold what a retiring launch of the shape
/// reports (class tag, DRAM bytes, tensor-core MACs). Many shapes pose the
/// same warp-scheduler problem (resident warps and simulated iterations
/// sit at their caps), so the memo also keeps each [`simulate_scheduler`]
/// result under the simulator's own inputs and runs the (deterministic)
/// simulator once per distinct problem. A memo remembers the device it
/// was filled for and refuses any other.
#[derive(Debug, Default)]
pub struct CostMemo {
    /// The device the entries were computed for (`None` while empty).
    device: Option<DeviceConfig>,
    /// Index of each costed shape in `profiles`.
    // lint: ordered-ok (keyed get/insert only; never iterated)
    shapes: HashMap<CostKey, u32, std::hash::BuildHasherDefault<WordHasher>>,
    /// The profile arena, in costing order.
    profiles: Vec<Profile>,
    // lint: ordered-ok (keyed entry only; never iterated)
    sims: HashMap<SimKey, SimResult>,
}

impl CostMemo {
    /// Distinct launch shapes costed so far — each one is exactly one run
    /// of the cost model. A CUDA-core shape runs the warp simulator only if
    /// no earlier shape posed the same scheduler problem.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no launch shape has been costed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// A queued launch: indices into the simulator's tables and the host time
/// its enqueue completes. The stream is the queue it waits in.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Index into [`DeviceSim::profiles`].
    profile: u32,
    /// Index into [`DeviceSim::names`].
    name: u32,
    /// Index into [`DeviceSim::scopes`].
    scope: u32,
    host_ready_us: f64,
}

/// A retired launch, as the launch log keeps it.
#[derive(Debug, Clone, Copy)]
struct Launch {
    stream: u32,
    profile: u32,
    name: u32,
    scope: u32,
    start_us: f64,
    end_us: f64,
}

/// One FIFO stream: its queue and the progress of the launch at its head
/// (only a head runs, so only a head has progress).
#[derive(Debug, Default)]
struct Stream {
    queue: VecDeque<Queued>,
    /// The head's device-µs of work remaining (standalone × parallel
    /// fraction when it became the head).
    remaining_work: f64,
    /// When the head started running.
    started_us: Option<f64>,
    /// The head's share of its pool in the current event-loop step.
    share: f64,
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

/// The id of `name` in an interning table, appending it if new. Launch
/// layers share one allocation per name, so a pointer match finds it
/// first; a name spelled by another allocation still finds its entry.
fn intern(table: &mut Vec<KernelName>, name: &str) -> (u32, bool) {
    let found = table
        .iter()
        .position(|n| std::ptr::eq(Arc::as_ptr(n), name))
        .or_else(|| table.iter().position(|n| **n == *name));
    match found {
        Some(i) => (i as u32, false),
        None => {
            table.push(name.into());
            (table.len() as u32 - 1, true)
        }
    }
}

/// Simulated GPU device executing [`KernelDesc`] launches on streams.
#[derive(Debug)]
pub struct DeviceSim {
    config: DeviceConfig,
    host_clock_us: f64,
    device_clock_us: f64,
    /// Indexed by stream, so walking it visits streams in index order.
    /// That order is load-bearing: the retire loop logs simultaneous
    /// completions in the order it walks the active streams, and a
    /// hash-ordered table here would leak a per-process-random tiebreak
    /// into completion order (exactly the bug the L003 lint exists to
    /// catch).
    streams: Vec<Stream>,
    pending_count: usize,
    memo: CostMemo,
    /// Every launch shape this simulator launched, copied from the memo on
    /// first use, so the log stays readable after the memo is taken.
    profiles: Vec<Profile>,
    /// The memo's profile index → index in `profiles` (`u32::MAX`: not
    /// yet copied).
    profile_of: Vec<u32>,
    /// Interned kernel names, and the device time of each name's retired
    /// launches.
    names: Vec<KernelName>,
    name_busy: Vec<f64>,
    /// Interned operation scopes; `scope` is the current one.
    scopes: Vec<KernelName>,
    scope: u32,
    /// The launch log, in retire order.
    log: Vec<Launch>,
    retired: Retired,
    /// Event-loop scratch, reused across [`DeviceSim::step`] calls: the
    /// streams whose head is runnable, in stream order, and one pool's
    /// `(stream, cap)` list.
    active: Vec<usize>,
    caps: Vec<(usize, f64)>,
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
            host_clock_us: 0.0,
            device_clock_us: 0.0,
            streams: Vec::new(),
            pending_count: 0,
            memo,
            profiles: Vec::new(),
            profile_of: Vec::new(),
            names: Vec::new(),
            name_busy: Vec::new(),
            scopes: vec![KernelName::default()],
            scope: 0,
            log: Vec::new(),
            retired: Retired::default(),
            active: Vec::new(),
            caps: Vec::new(),
        }
    }

    /// Takes the launch-cost memo out of the simulator (which keeps
    /// working on an empty one), stamped with this device. The launch log
    /// stays readable.
    pub fn take_memo(&mut self) -> CostMemo {
        let mut memo = std::mem::take(&mut self.memo);
        if memo.device.is_none() {
            memo.device = Some(self.config.clone());
        }
        // The simulator's copies stay; the empty memo numbers anew.
        self.profile_of.clear();
        memo
    }

    /// Creates a new stream and returns its handle.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(Stream::default());
        StreamId(self.streams.len() - 1)
    }

    /// Tags subsequent launches with an operation scope (e.g. `"HMULT"`),
    /// recorded as [`KernelStats::op_tag`].
    pub fn set_scope(&mut self, tag: &str) {
        self.scope = intern(&mut self.scopes, tag).0;
    }

    /// Enqueues a kernel on a stream. Returns immediately (asynchronous
    /// semantics); call [`DeviceSim::synchronize`] to drain.
    ///
    /// # Panics
    ///
    /// Panics if the stream was not created by this simulator, or if a TCU
    /// kernel is launched on a device without tensor cores.
    pub fn launch(&mut self, stream: StreamId, desc: KernelDesc) {
        assert!(stream.0 < self.streams.len(), "unknown stream");
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
        let profile = self.window_profile(&desc);
        let (name, new) = intern(&mut self.names, &desc.name);
        if new {
            self.name_busy.push(0.0);
        }
        let s = &mut self.streams[stream.0];
        if s.queue.is_empty() {
            s.remaining_work = self.profiles[profile as usize].cost.work_us();
            s.started_us = None;
        }
        s.queue.push_back(Queued {
            profile,
            name,
            scope: self.scope,
            host_ready_us: self.host_clock_us,
        });
        self.pending_count += 1;
    }

    /// Runs the event loop until every pending kernel has completed. The
    /// retired launches append to the launch log ([`DeviceSim::stats`]) in
    /// completion order: a step's clock never runs backwards and it retires
    /// its finished heads in stream order.
    pub fn synchronize(&mut self) {
        while self.pending_count > 0 {
            self.step();
        }
        self.device_clock_us = self.device_clock_us.max(self.host_clock_us);
    }

    /// Virtual time elapsed on the device so far (µs).
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.device_clock_us
    }

    /// The totals of every launch retired since construction.
    #[must_use]
    pub fn retired(&self) -> &Retired {
        &self.retired
    }

    /// Device time (µs) of every kernel name's retired launches, summed in
    /// retire order, one entry per distinct name in first-launch order.
    pub fn busy_by_name(&self) -> impl Iterator<Item = (&KernelName, f64)> + '_ {
        self.names.iter().zip(self.name_busy.iter().copied())
    }

    /// The stats of every launch retired since construction, in completion
    /// order, built from the launch log.
    #[must_use]
    pub fn stats(&self) -> Vec<KernelStats> {
        let power = self.config.power_watts;
        self.log
            .iter()
            .map(|l| {
                let p = &self.profiles[l.profile as usize];
                KernelStats {
                    name: self.names[l.name as usize].clone(),
                    class_tag: p.class_tag,
                    op_tag: self.scopes[l.scope as usize].clone(),
                    stream: l.stream as usize,
                    start_us: l.start_us,
                    end_us: l.end_us,
                    duration_us: l.end_us - l.start_us,
                    standalone_us: p.cost.standalone_us,
                    breakdown: p.cost.breakdown,
                    occupancy: p.cost.occupancy,
                    bytes: p.bytes,
                    tcu_macs: p.tcu_macs,
                    energy_j: p.cost.energy_j(power),
                    bound: p.cost.bound,
                }
            })
            .collect()
    }

    /// The launch-interval records of every retired kernel:
    /// `(stream, start_us, end_us)` in retirement order. This is the raw
    /// material for the schedule verifier's per-stream structural checks
    /// (FIFO streams must produce non-overlapping, monotone intervals).
    pub fn intervals(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.log
            .iter()
            .map(|l| (l.stream as usize, l.start_us, l.end_us))
    }

    /// One event-loop step: advance to the next arrival or completion.
    /// Only the head of each stream queue is eligible (FIFO streams), so
    /// every step is O(#streams).
    fn step(&mut self) {
        let t = self.device_clock_us;
        let Self {
            streams,
            active,
            caps,
            profiles,
            ..
        } = self;
        // Head-of-line kernel per stream.
        active.clear();
        let mut next_arrival = f64::INFINITY;
        for (sid, s) in streams.iter().enumerate() {
            if let Some(q) = s.queue.front() {
                if q.host_ready_us <= t + 1e-12 {
                    active.push(sid);
                } else {
                    next_arrival = next_arrival.min(q.host_ready_us);
                }
            }
        }
        if active.is_empty() {
            assert!(next_arrival.is_finite(), "device engine stalled");
            self.device_clock_us = next_arrival;
            return;
        }
        let head_cost =
            |s: &Stream| &profiles[s.queue.front().expect("head").profile as usize].cost;

        // Water-fill each pool independently over the active heads; every
        // active head belongs to one pool, so every one gets a share.
        for pool in [Pool::Cuda, Pool::Tcu] {
            caps.clear();
            caps.extend(active.iter().filter_map(|&sid| {
                let cost = head_cost(&streams[sid]);
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
                streams[sid].share = a;
                capacity -= a;
                remaining -= 1;
            }
        }

        // Next event: earliest completion or next arrival.
        let mut dt = next_arrival - t;
        for &sid in active.iter() {
            let s = &streams[sid];
            if s.share > 0.0 {
                dt = dt.min(s.remaining_work / s.share);
            }
        }
        assert!(dt.is_finite(), "device engine stalled with work pending");
        let dt = dt.max(1e-9);

        // Progress the active heads.
        for &sid in active.iter() {
            let s = &mut streams[sid];
            s.started_us.get_or_insert(t);
            s.remaining_work -= s.share * dt;
        }
        let now = t + dt;
        self.device_clock_us = now;

        // Retire finished heads, in stream order, folding each as it goes.
        let power = self.config.power_watts;
        for &sid in active.iter() {
            let s = &mut self.streams[sid];
            if s.remaining_work > 1e-9 {
                continue;
            }
            let q = s.queue.pop_front().expect("head");
            if let Some(next) = s.queue.front() {
                s.remaining_work = self.profiles[next.profile as usize].cost.work_us();
            }
            let start = s.started_us.take().unwrap_or(now);
            self.pending_count -= 1;
            self.log.push(Launch {
                stream: sid as u32,
                profile: q.profile,
                name: q.name,
                scope: q.scope,
                start_us: start,
                end_us: now,
            });
            let cost = &self.profiles[q.profile as usize].cost;
            let duration = now - start;
            let r = &mut self.retired;
            r.launches += 1;
            r.first_start_us = r.first_start_us.min(start);
            r.last_end_us = r.last_end_us.max(now);
            r.busy_us += duration;
            r.occupancy_us += cost.occupancy * duration;
            r.energy_j += cost.energy_j(power);
            self.name_busy[q.name as usize] += duration;
        }
    }

    /// The simulator's own profile index of a launch's shape, copying the
    /// profile out of the memo (and costing the shape there) on first use.
    fn window_profile(&mut self, desc: &KernelDesc) -> u32 {
        let shape = self.cost_index(desc);
        if shape >= self.profile_of.len() {
            self.profile_of.resize(shape + 1, u32::MAX);
        }
        if self.profile_of[shape] == u32::MAX {
            self.profile_of[shape] = self.profiles.len() as u32;
            self.profiles.push(self.memo.profiles[shape].clone());
        }
        self.profile_of[shape]
    }

    /// The memo's profile index of a launch's shape, costing it on first
    /// sight.
    fn cost_index(&mut self, desc: &KernelDesc) -> usize {
        let key = CostKey {
            class: class_key(&desc.class),
            block: desc.block_size,
            threads: desc.threads_override,
            coalesced: desc.coalesced,
        };
        if let Some(&i) = self.memo.shapes.get(&key) {
            return i as usize;
        }
        let cost = self.compute_cost(desc);
        let i = self.memo.profiles.len();
        self.memo.profiles.push(Profile {
            cost,
            class_tag: desc.class.tag(),
            bytes: desc.bytes_moved(),
            tcu_macs: desc.tcu_macs(),
        });
        self.memo.shapes.insert(key, i as u32);
        i
    }

    /// Standalone cost of a launch (memoised).
    fn cost_of(&mut self, desc: &KernelDesc) -> &CostProfile {
        let i = self.cost_index(desc);
        &self.memo.profiles[i].cost
    }

    fn compute_cost(&mut self, desc: &KernelDesc) -> CostProfile {
        let d = &self.config;
        let mem_eff = mem_efficiency(desc);
        let mem_us = desc.bytes_moved() as f64 / (d.mem_bandwidth_gbps * 1e3 * mem_eff);

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
        s.synchronize();
        let done = s.stats();
        assert_eq!(done.len(), 1);
        let k = &done[0];
        assert!(k.duration_us > 0.0);
        assert_eq!(&*k.op_tag, "HADD");
        assert!(k.end_us >= k.start_us);
    }

    #[test]
    fn memo_outlives_its_simulator_and_costs_nothing_twice() {
        let mut first = sim();
        let st = first.create_stream();
        first.launch(st, ew(1 << 20));
        first.launch(st, ew(1 << 22));
        first.synchronize();
        let cold: Vec<u64> = first
            .stats()
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
        second.synchronize();
        let warm: Vec<u64> = second
            .stats()
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
        shared.synchronize();
        let launched = shared.stats();
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
        s.synchronize();
        let done = s.stats();
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
    fn a_long_launch_overlapping_compute_logs_in_end_time_order() {
        // A long, narrow launch on one stream (few threads, so it leaves
        // most of the device free) runs beside a train of compute kernels
        // on another; the launches retire interleaved, and the log (which
        // nothing sorts) comes out in end-time order.
        let mut s = sim();
        let (side, compute) = (s.create_stream(), s.create_stream());
        let long = KernelDesc::new(
            KernelClass::Elementwise {
                elems: 1 << 24,
                ops_per_elem: 2,
                bytes_per_elem: 12,
            },
            "long",
        )
        .with_threads(1 << 12);
        s.launch(side, long);
        for _ in 0..8 {
            s.launch(compute, ew(1 << 22));
        }
        s.launch(side, ew(1 << 20));
        s.synchronize();
        let log = s.stats();
        let long_at = log
            .iter()
            .position(|k| &*k.name == "long")
            .expect("the long launch retired");
        assert!(
            long_at > 0 && long_at < log.len() - 1,
            "the long launch overlaps the compute train"
        );
        assert!(log.windows(2).all(|p| p[0].end_us <= p[1].end_us));
        let intervals: Vec<_> = s.intervals().collect();
        assert!(intervals.windows(2).all(|p| p[0].2 <= p[1].2));
        assert_eq!(intervals.len(), log.len());
    }

    #[test]
    fn queued_and_logged_launches_stay_small() {
        // Neither record holds an `Arc`, a `Vec` or a `String`: a
        // launch is indices into the simulator's tables plus its clocks.
        assert_eq!(std::mem::size_of::<Queued>(), 24);
        assert_eq!(std::mem::size_of::<Launch>(), 32);
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
        s.synchronize();
        let done = s.stats();
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
