//! The multi-tenant session tier: client sessions, key-cache residency,
//! and deficit-round-robin fairness.
//!
//! Production FHE serving is dominated by per-client *state*, not per-op
//! arithmetic: every client brings its own galois/relinearisation key set —
//! hundreds of megabytes at paper parameters — and a batch can only run on
//! a device where those keys are resident. This module models that tier:
//!
//! * **Sessions** ([`SessionConfig`] → [`ClientSession`]) — a registered
//!   client with a simulated key-set footprint derived from the parameter
//!   set (`dnum` digits × 2 polynomials × `L + 1 + K` limbs × `N` residues
//!   per switch key; one relinearisation key plus a galois key per
//!   rotation step).
//! * **Key-cache residency** ([`KeyCache`]) — a per-device LRU over key-set
//!   footprints with hit/miss/eviction accounting and an eviction-visible
//!   [`ResidencyEvent`] trace. A batch whose session keys are non-resident
//!   pays a deterministic PCIe upload
//!   ([`crate::engine::key_upload_us`], never a simulated launch) in the
//!   service's overlap clock.
//! * **Fair scheduling** (`DrrState`) — deficit round robin across
//!   sessions ahead of the coalescing walk, so one heavy client cannot
//!   starve the rest; weights scale each session's quantum. Sessions may
//!   also carry a deadline class ([`SessionConfig::deadline_us`]) the
//!   service schedules urgently (earliest slack first, partially-filled
//!   batches allowed) and accounts misses for. Under out-of-order
//!   admission ([`crate::sched::AdmissionMode::OutOfOrder`]) the DRR pick
//!   and charge run at plan-*freeze* time along the serial walk — the
//!   scoreboard reorders only which frozen plan reaches the devices
//!   first, never which bucket the walk serves next, so fairness shares
//!   are identical across admission modes. Deadline classes are the
//!   exception: their urgency clock reads settle time, so the service
//!   refuses to register one while out-of-order work is in flight and
//!   falls back to the in-order fill while any is registered.
//! * **Fairness metric** ([`jain_index`]) — Jain's index over per-session
//!   serviced ops, surfaced through `ServiceStats`.
//!
//! Anonymous traffic is bucket 0 of the same rotation and never touches a
//! key set. With no sessions registered that bucket is the only one, so
//! the service skips the rotation and the planning walk is plain FIFO
//! coalescing.

use std::collections::VecDeque;
use std::sync::Arc;
use tensorfhe_ckks::CkksParams;
use tensorfhe_gpu::kernel::RESIDUE_BYTES;

/// Fraction of device VRAM budgeted for resident key sets when no explicit
/// capacity is configured. The batch policy budgets 85% of VRAM for
/// ciphertext working sets ([`crate::engine::auto_batch_for_vram`]); the
/// key cache takes the complementary slice.
pub const KEY_CACHE_VRAM_FRACTION: f64 = 0.15;

/// Residency-trace ring capacity (oldest events drop first).
const TRACE_CAP: usize = 4096;

/// Typed handle to a registered client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl SessionId {
    /// The raw numeric id (registration order per service).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Configuration for one client session, consumed by
/// [`crate::service::FheService::register_session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub(crate) name: String,
    pub(crate) galois_steps: Option<usize>,
    pub(crate) weight: f64,
    pub(crate) deadline_us: Option<f64>,
    pub(crate) queue_cap: Option<usize>,
}

impl SessionConfig {
    /// Starts a session config with default footprint (parameter-derived
    /// galois step set), weight 1, best-effort deadline class and an
    /// unbounded per-session queue.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            galois_steps: None,
            weight: 1.0,
            deadline_us: None,
            queue_cap: None,
        }
    }

    /// Number of galois (rotation) keys the client registered. Defaults to
    /// [`default_galois_steps`] — the power-of-two ± step set.
    #[must_use]
    pub fn galois_steps(mut self, steps: usize) -> Self {
        self.galois_steps = Some(steps);
        self
    }

    /// Deficit-round-robin weight (service share relative to weight-1
    /// sessions). Must be positive and finite; validated at registration.
    #[must_use]
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Deadline class: every request should complete within this virtual
    /// budget of its submission. Requests whose budget nears are scheduled
    /// urgently (partially-filled batches allowed); requests whose budget
    /// expired before any instance ran are *shed*; completions past the
    /// budget count as deadline misses.
    #[must_use]
    pub fn deadline_us(mut self, budget_us: f64) -> Self {
        self.deadline_us = Some(budget_us);
        self
    }

    /// Bounds the session's queue to this many operation instances;
    /// submissions past the bound are rejected (admission control).
    #[must_use]
    pub fn queue_cap(mut self, ops: usize) -> Self {
        self.queue_cap = Some(ops);
        self
    }
}

/// A registered client session: the immutable descriptor plus its service
/// accounting (ops queued, ops served).
#[derive(Debug, Clone)]
pub struct ClientSession {
    pub(crate) id: SessionId,
    pub(crate) name: Arc<str>,
    pub(crate) key_bytes: u64,
    pub(crate) weight: f64,
    pub(crate) deadline_us: Option<f64>,
    pub(crate) queue_cap: Option<usize>,
    /// Operation instances currently queued (admission control bound).
    pub(crate) queued_ops: usize,
    /// Operation instances served to completion.
    pub(crate) served_ops: usize,
}

impl ClientSession {
    /// The session handle.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Client name (used as the report tag of the session's requests).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulated key-set footprint in bytes (galois + relinearisation).
    #[must_use]
    pub fn key_bytes(&self) -> u64 {
        self.key_bytes
    }

    /// Deficit-round-robin weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Deadline budget (µs, virtual), if the session runs in a deadline
    /// class.
    #[must_use]
    pub fn deadline_us(&self) -> Option<f64> {
        self.deadline_us
    }

    /// Per-session queue bound in operation instances, if any.
    #[must_use]
    pub fn queue_cap(&self) -> Option<usize> {
        self.queue_cap
    }

    /// Operation instances served to completion so far.
    #[must_use]
    pub fn served_ops(&self) -> usize {
        self.served_ops
    }
}

/// Bytes of one hybrid key-switching key at these parameters: `dnum`
/// digits, each a pair of polynomials over the extended basis of
/// `L + 1 + K` limbs with `N` 32-bit residues per limb.
#[must_use]
pub fn switch_key_bytes(params: &CkksParams) -> u64 {
    let limbs = params.max_level() as u64 + 1 + params.special_primes() as u64;
    params.dnum() as u64 * 2 * limbs * params.n() as u64 * RESIDUE_BYTES
}

/// Default galois step set: power-of-two rotations in both directions over
/// the `N/2` slots — `2·log2(N/2)` keys, the set bootstrapping and the
/// paper's workloads rotate by.
#[must_use]
pub fn default_galois_steps(params: &CkksParams) -> usize {
    2 * (params.n() / 2).max(2).trailing_zeros() as usize
}

/// Total key-set footprint of a session: one galois key per rotation step
/// plus the relinearisation key, each a full [`switch_key_bytes`] key.
#[must_use]
pub fn key_set_bytes(params: &CkksParams, galois_steps: usize) -> u64 {
    (galois_steps as u64 + 1) * switch_key_bytes(params)
}

/// Jain's fairness index over per-session serviced ops:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]`. `1.0` for an empty slice or all-zero
/// service (perfectly fair vacuously), `1/n` when one session got
/// everything.
#[must_use]
pub fn jain_index(served: &[f64]) -> f64 {
    if served.is_empty() {
        return 1.0;
    }
    let sum: f64 = served.iter().sum();
    let sq: f64 = served.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (served.len() as f64 * sq)
    }
}

/// How the coalescer orders candidate requests when filling a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalescePolicy {
    /// Prefer same-session grouping: the scheduled session's requests fill
    /// the batch first, other sessions' compatible requests only top up
    /// the remainder. Fewer distinct key sets ride per batch, so the key
    /// cache thrashes less (the default).
    #[default]
    KeyAffinity,
    /// Fill strictly in queue order regardless of session — the
    /// pre-session coalescing rule, kept as the fig12 comparison arm.
    Blind,
}

/// One key-cache residency event, in occurrence order. The trace is the
/// observable evidence of the residency model: every miss is an `Upload`,
/// every capacity displacement an `Evict`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResidencyEvent {
    /// The session's keys were already resident on the device.
    Hit {
        /// Session whose keys were looked up.
        session: SessionId,
        /// Device index.
        device: usize,
    },
    /// The session's keys were uploaded host→device (a cache miss).
    Upload {
        /// Session whose keys were uploaded.
        session: SessionId,
        /// Device index.
        device: usize,
        /// Bytes copied over PCIe.
        bytes: u64,
    },
    /// A resident key set was displaced to make room.
    Evict {
        /// Session whose keys were evicted.
        session: SessionId,
        /// Device index.
        device: usize,
        /// Bytes released.
        bytes: u64,
    },
}

/// Per-device LRU over session key-set footprints.
///
/// Each device holds up to `capacity_bytes` of resident key material. A
/// batch lookup ([`KeyCache::place`]) chooses the devices it will shard
/// across — preferring devices where more of its key material is already
/// resident — then touches each chosen device: hits refresh recency,
/// misses upload the footprint (evicting least-recently-used sets until it
/// fits). A footprint larger than the whole cache is *streamed*: charged
/// as an upload every time, never made resident.
#[derive(Debug)]
pub struct KeyCache {
    capacity_bytes: u64,
    /// LRU order per device: front = coldest, back = most recently used.
    resident: Vec<VecDeque<(SessionId, u64)>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    uploaded_bytes: u64,
    trace: VecDeque<ResidencyEvent>,
}

impl KeyCache {
    /// Creates a cache with `capacity_bytes` per device.
    #[must_use]
    pub fn new(capacity_bytes: u64, devices: usize) -> Self {
        Self {
            capacity_bytes,
            resident: vec![VecDeque::new(); devices.max(1)],
            hits: 0,
            misses: 0,
            evictions: 0,
            uploaded_bytes: 0,
            trace: VecDeque::new(),
        }
    }

    /// Per-device capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Lookups that found the keys resident.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to upload.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident key sets displaced by uploads.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total bytes copied host→device.
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Hit rate over all lookups; `1.0` before any lookup (nothing has
    /// ever missed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            1.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Whether a session's keys are resident on a device.
    #[must_use]
    pub fn is_resident(&self, device: usize, session: SessionId) -> bool {
        self.resident
            .get(device)
            .is_some_and(|d| d.iter().any(|&(s, _)| s == session))
    }

    /// The residency event trace, oldest first (a bounded ring: the
    /// newest `TRACE_CAP` events are retained).
    #[must_use]
    pub fn trace(&self) -> Vec<ResidencyEvent> {
        self.trace.iter().copied().collect()
    }

    fn push_trace(&mut self, e: ResidencyEvent) {
        if self.trace.len() == TRACE_CAP {
            self.trace.pop_front();
        }
        self.trace.push_back(e);
    }

    fn resident_bytes(&self, device: usize) -> u64 {
        self.resident[device].iter().map(|&(_, b)| b).sum()
    }

    /// Places a batch carrying `keys` (distinct session footprints, id
    /// order) onto `shards` devices: chooses the devices with the least
    /// missing key material (ties to the lowest index), touches their
    /// caches, and returns the upload bytes on the critical path — the
    /// *maximum* missing bytes over the chosen devices, since per-device
    /// DMA engines copy in parallel.
    pub fn place(&mut self, keys: &[(SessionId, u64)], shards: usize) -> u64 {
        let devices = self.resident.len();
        let shards = shards.clamp(1, devices);
        let mut order: Vec<usize> = (0..devices).collect();
        if !keys.is_empty() {
            let missing: Vec<u64> = (0..devices)
                .map(|d| {
                    keys.iter()
                        .filter(|&&(s, _)| !self.is_resident(d, s))
                        .map(|&(_, b)| b)
                        .sum()
                })
                .collect();
            order.sort_by(|&a, &b| missing[a].cmp(&missing[b]).then(a.cmp(&b)));
        }
        let chosen: Vec<usize> = order[..shards].to_vec();
        let mut critical = 0u64;
        for d in chosen {
            critical = critical.max(self.touch_device(d, keys));
        }
        critical
    }

    /// Looks up every key set on one device; returns the bytes uploaded.
    fn touch_device(&mut self, device: usize, keys: &[(SessionId, u64)]) -> u64 {
        let mut uploaded = 0u64;
        for &(session, bytes) in keys {
            if let Some(pos) = self.resident[device]
                .iter()
                .position(|&(s, _)| s == session)
            {
                self.hits += 1;
                let entry = self.resident[device].remove(pos).expect("position exists");
                self.resident[device].push_back(entry);
                self.push_trace(ResidencyEvent::Hit { session, device });
                continue;
            }
            self.misses += 1;
            uploaded += bytes;
            self.uploaded_bytes += bytes;
            self.push_trace(ResidencyEvent::Upload {
                session,
                device,
                bytes,
            });
            if bytes > self.capacity_bytes {
                // Streamed: too big to ever be resident; pays the upload
                // on every use but displaces nothing.
                continue;
            }
            while self.resident_bytes(device) + bytes > self.capacity_bytes {
                let (victim, victim_bytes) = self.resident[device]
                    .pop_front()
                    .expect("over capacity implies a resident victim");
                self.evictions += 1;
                self.push_trace(ResidencyEvent::Evict {
                    session: victim,
                    device,
                    bytes: victim_bytes,
                });
            }
            self.resident[device].push_back((session, bytes));
        }
        uploaded
    }
}

/// Deficit-round-robin state across session buckets.
///
/// Each bucket accrues `quantum` credit per top-up round and may be served
/// while its deficit covers the next batch. Buckets with no pending work
/// forfeit their credit (idle sessions do not bank service), so the
/// long-run service share of backlogged sessions is proportional to their
/// quanta and no session with work waits more than one full round — the
/// starvation bound the fairness tests pin.
#[derive(Debug)]
pub(crate) struct DrrState {
    deficits: Vec<f64>,
    cursor: usize,
}

impl DrrState {
    pub(crate) fn new() -> Self {
        Self {
            deficits: Vec::new(),
            cursor: 0,
        }
    }

    /// Tracks a newly registered bucket.
    pub(crate) fn grow(&mut self) {
        self.deficits.push(0.0);
    }

    /// Picks the next bucket to serve. `want[i]` is the width bucket `i`
    /// would put in its next batch (0 = no plannable work); `quantum[i]`
    /// its per-round credit. Returns `None` when nothing wants service.
    pub(crate) fn select(&mut self, want: &[usize], quantum: &[f64]) -> Option<usize> {
        debug_assert_eq!(want.len(), self.deficits.len());
        debug_assert_eq!(quantum.len(), self.deficits.len());
        if want.iter().all(|&w| w == 0) {
            return None;
        }
        for (d, &w) in self.deficits.iter_mut().zip(want) {
            if w == 0 {
                *d = 0.0;
            }
        }
        let n = want.len();
        loop {
            for step in 0..n {
                let i = (self.cursor + step) % n;
                if want[i] > 0 && self.deficits[i] >= want[i] as f64 {
                    self.cursor = i;
                    return Some(i);
                }
            }
            // Top-up round: every backlogged bucket earns its quantum.
            // Positive quanta guarantee progress (validated at
            // registration), so the loop terminates.
            for (d, (&w, &q)) in self.deficits.iter_mut().zip(want.iter().zip(quantum)) {
                if w > 0 {
                    *d += q;
                }
            }
        }
    }

    /// Charges a served batch against its bucket. The cursor stays on the
    /// bucket while its credit lasts (it keeps serving — classic DRR);
    /// once the credit cannot cover even a single op, the pointer moves
    /// to the next bucket.
    pub(crate) fn charge(&mut self, bucket: usize, width: usize) {
        self.deficits[bucket] -= width as f64;
        if self.deficits[bucket] < 1.0 {
            self.cursor = (bucket + 1) % self.deficits.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SessionId {
        SessionId(n)
    }

    #[test]
    fn key_footprint_follows_the_hybrid_keyswitch_shape() {
        let p = CkksParams::test_small();
        let limbs = (p.max_level() + 1 + p.special_primes()) as u64;
        assert_eq!(
            switch_key_bytes(&p),
            p.dnum() as u64 * 2 * limbs * p.n() as u64 * 4
        );
        // One relin key plus one per galois step.
        assert_eq!(key_set_bytes(&p, 0), switch_key_bytes(&p));
        assert_eq!(key_set_bytes(&p, 9), 10 * switch_key_bytes(&p));
        // Default step set: 2·log2(N/2).
        let steps = default_galois_steps(&p);
        assert_eq!(steps, 2 * (p.n() / 2).trailing_zeros() as usize);
        // Paper scale is hundreds of MB: Set-C (N=2^14) must exceed 100 MB.
        let set_c = CkksParams::heax_set_c();
        assert!(
            key_set_bytes(&set_c, default_galois_steps(&set_c)) > 100 << 20,
            "Set-C key set should be paper-scale"
        );
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        // Capacity 100: A(40), B(40) fit; touching A refreshes it, so
        // C(40) must evict B (the least recently used), not A.
        let mut c = KeyCache::new(100, 1);
        c.place(&[(sid(0), 40)], 1); // A: miss + upload
        c.place(&[(sid(1), 40)], 1); // B: miss + upload
        c.place(&[(sid(0), 40)], 1); // A again: hit, refreshes recency
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        c.place(&[(sid(2), 40)], 1); // C: evicts B
        assert_eq!(c.evictions(), 1);
        assert!(c.is_resident(0, sid(0)), "A stays (recently used)");
        assert!(!c.is_resident(0, sid(1)), "B is the LRU victim");
        assert!(c.is_resident(0, sid(2)));
        let evicted: Vec<SessionId> = c
            .trace()
            .iter()
            .filter_map(|e| match e {
                ResidencyEvent::Evict { session, .. } => Some(*session),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, vec![sid(1)], "trace shows the eviction");
    }

    #[test]
    fn oversized_footprints_stream_instead_of_thrashing() {
        let mut c = KeyCache::new(100, 1);
        c.place(&[(sid(0), 60)], 1);
        // 150 > capacity: uploads every time, never resident, evicts
        // nothing.
        let up = c.place(&[(sid(1), 150)], 1);
        assert_eq!(up, 150);
        assert_eq!(c.evictions(), 0);
        assert!(c.is_resident(0, sid(0)), "resident set untouched");
        assert!(!c.is_resident(0, sid(1)));
        let up = c.place(&[(sid(1), 150)], 1);
        assert_eq!(up, 150, "streams again on reuse");
    }

    #[test]
    fn placement_prefers_key_resident_devices() {
        let mut c = KeyCache::new(100, 2);
        // Warm device 0 with A by sharding width-1 (1 device).
        let first = c.place(&[(sid(0), 80)], 1);
        assert_eq!(first, 80);
        // A single-shard batch for A must land on device 0 (no missing
        // bytes) rather than device 1.
        let again = c.place(&[(sid(0), 80)], 1);
        assert_eq!(again, 0, "resident device preferred: no upload");
        assert_eq!(c.hits(), 1);
        assert!(!c.is_resident(1, sid(0)), "device 1 never touched");
        // A two-shard batch must warm the second device too; the critical
        // path is the one missing upload.
        let both = c.place(&[(sid(0), 80)], 2);
        assert_eq!(both, 80, "parallel DMA: max over devices, not sum");
        assert!(c.is_resident(1, sid(0)));
    }

    #[test]
    fn hit_rate_counts_per_device_lookups() {
        let mut c = KeyCache::new(1000, 1);
        assert_eq!(c.hit_rate(), 1.0, "no lookups yet");
        c.place(&[(sid(0), 10), (sid(1), 10)], 1);
        c.place(&[(sid(0), 10), (sid(1), 10)], 1);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hit_rate(), 0.5);
        assert_eq!(c.uploaded_bytes(), 20);
    }

    #[test]
    fn drr_alternates_between_backlogged_buckets() {
        let mut d = DrrState::new();
        d.grow();
        d.grow();
        let quantum = [16.0, 16.0];
        // Both buckets backlogged at a full batch each: strict
        // alternation regardless of who is "first".
        let mut order = Vec::new();
        let mut want = [160usize, 160];
        for _ in 0..8 {
            let i = d.select(&[want[0].min(16), want[1].min(16)], &quantum);
            let i = i.expect("work pending");
            d.charge(i, 16);
            want[i] -= 16;
            order.push(i);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn drr_weights_scale_service_shares() {
        let mut d = DrrState::new();
        d.grow();
        d.grow();
        // Bucket 0 has triple weight: over a long backlog it must be
        // served ~3× as often.
        let quantum = [48.0, 16.0];
        let mut served = [0usize, 0];
        for _ in 0..40 {
            let i = d.select(&[16, 16], &quantum).expect("backlogged");
            d.charge(i, 16);
            served[i] += 16;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.35,
            "3:1 quanta must give ~3:1 service, got {ratio} ({served:?})"
        );
    }

    #[test]
    fn drr_idle_buckets_forfeit_credit() {
        let mut d = DrrState::new();
        d.grow();
        d.grow();
        let quantum = [16.0, 16.0];
        // Bucket 1 idles while bucket 0 is served repeatedly…
        for _ in 0..10 {
            assert_eq!(d.select(&[16, 0], &quantum), Some(0));
            d.charge(0, 16);
        }
        // …then wakes with a backlog: it must not have banked 10 rounds
        // of credit and monopolise the service now.
        let mut consecutive_1 = 0usize;
        let mut max_run = 0usize;
        for _ in 0..12 {
            let i = d.select(&[16, 16], &quantum).expect("backlogged");
            d.charge(i, 16);
            if i == 1 {
                consecutive_1 += 1;
                max_run = max_run.max(consecutive_1);
            } else {
                consecutive_1 = 0;
            }
        }
        assert!(
            max_run <= 2,
            "idle bucket banked credit: served {max_run} in a row"
        );
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One session hogging everything: 1/n.
        assert!((jain_index(&[12.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_index(&[8.0, 4.0]);
        assert!(mid > 0.5 && mid < 1.0, "skew lands between: {mid}");
    }

    #[test]
    fn session_config_builder_round_trips() {
        let c = SessionConfig::new("tenant-a")
            .galois_steps(12)
            .weight(2.5)
            .deadline_us(5_000.0)
            .queue_cap(64);
        assert_eq!(c.name, "tenant-a");
        assert_eq!(c.galois_steps, Some(12));
        assert!((c.weight - 2.5).abs() < 1e-12);
        assert_eq!(c.deadline_us, Some(5_000.0));
        assert_eq!(c.queue_cap, Some(64));
    }
}
