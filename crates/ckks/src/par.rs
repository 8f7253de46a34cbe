//! Limb jobs on every core: the one runner the key switch and RESCALE split
//! their limb loops with.
//!
//! An operation is a short list of *phases*, each a loop of independent
//! jobs (one per limb, say). [`run_phases`] runs them all under one
//! `std::thread::scope`: the caller and its helpers claim jobs in order
//! from one counter, and a job of phase `p + 1` starts only once every job
//! of phase `p` has finished. A job writes only its own [`Slots`] entry, and
//! later phases read earlier entries, so what an operation computes does
//! not depend on the thread count or on which thread ran which job.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// Fewest words an operation transforms before its phases split across
/// threads, set from `split_gate_timing` (an ignored test in `keyswitch`)
/// on a 2-vCPU VM: one- against two-thread runs alternated round by round,
/// the rounds grouped by whether a two-thread probe found the second vCPU
/// free (133 rounds) or taken (145 rounds).
///
/// * Key switch, second core free: two threads lose below `2^15` words
///   (0.62–0.91× at 9–25 K; one outlier, set B's shape at `N = 2^11`
///   level 0, 31 K: 1.16×), break even near 36 K (1.02–1.08×), win
///   1.08–1.20× from 41 K to 66 K (HEAX set A's top level, `2^16` words:
///   1.15×, 105 of 133 rounds) and 1.36–1.57× at set B (level 0, 123 K
///   words: 133 of 133).
/// * Key switch, second core taken: 0.68–0.95× below `2^15`, 0.91–0.96×
///   from 36 K to 98 K, 0.95–0.98× at set B (two level-0 shapes of 31 K
///   and 37 K: 1.04–1.06×).
/// * RESCALE (`(2 + 2l)·N` words; a second run of the probe, second core
///   free in 36 rounds and taken in 90): with it free, two threads lose
///   below `2^15` words (0.47–0.83× at 4–16 K, HEAX set A's only rescale
///   0.80×), break even at set B level 1 (33 K: 0.97×) and win 1.18× at
///   set B level 2 (49 K) and 1.26× at level 3 (`2^16`); with it taken,
///   0.95× at `2^16`. The same run put the key switch at 1.34× at set A's
///   top level and 1.55–1.80× at set B with the core free, 0.97–1.04×
///   with it taken.
///
/// The gate is the round size past the key switch's crossover band: from
/// `2^16` up every measured shape won at least 1.15× with the core free
/// and lost at most 6 % with it taken. It leaves RESCALE's 49 K-word
/// shape, which would also win, on one thread.
const SPLIT_MIN_WORDS: usize = 1 << 16;

/// The machine's cores, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Threads an operation that transforms `words` words runs its phases on:
/// every core from [`SPLIT_MIN_WORDS`] up, one below.
pub(crate) fn split_threads(words: usize) -> usize {
    if words >= SPLIT_MIN_WORDS {
        cores()
    } else {
        1
    }
}

/// Spin-loop hints a waiting thread issues before it starts yielding.
const SPINS: usize = 64;

/// Sets the shared abort flag if its thread unwinds, so that threads
/// waiting on a phase the panicking job belongs to stop waiting.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Runs `job(p, i)` for every phase `p` and every `i < counts[p]`, phase by
/// phase: no job of phase `p + 1` starts before every job of phase `p` has
/// returned. `threads` counts the caller; above one, up to `threads − 1`
/// scoped helpers (never more than the widest phase needs) and the caller
/// claim jobs in order from one counter, under one `std::thread::scope`. A
/// thread that claims a job of a phase still in flight spins briefly, then
/// yields, until the phase before it is done. A helper that gets no core
/// before the jobs run out costs only its spawn. If a job panics, the
/// other threads stop claiming and waiting, and the panic reaches the
/// caller once every helper has returned.
pub(crate) fn run_phases(threads: usize, counts: &[usize], job: impl Fn(usize, usize) + Sync) {
    let widest = counts.iter().copied().max().unwrap_or(0);
    let workers = threads.min(widest);
    if workers <= 1 {
        for (p, &count) in counts.iter().enumerate() {
            (0..count).for_each(|i| job(p, i));
        }
        return;
    }
    // Job `g` of the flattened order is job `g − starts[p]` of the last
    // phase `p` with `starts[p] <= g`; it may start once `starts[p]` jobs
    // have finished.
    let starts: Vec<usize> = counts
        .iter()
        .scan(0, |start, &count| {
            let first = *start;
            *start += count;
            Some(first)
        })
        .collect();
    let total: usize = counts.iter().sum();
    let (next, finished, aborted) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicBool::new(false),
    );
    let work = || {
        let _abort = AbortOnUnwind(&aborted);
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            if g >= total || aborted.load(Ordering::Acquire) {
                return;
            }
            let p = starts.partition_point(|&start| start <= g) - 1;
            let mut spins = 0;
            while finished.load(Ordering::Acquire) < starts[p] {
                if aborted.load(Ordering::Acquire) {
                    return;
                }
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
            job(p, g - starts[p]);
            finished.fetch_add(1, Ordering::Release);
        }
    };
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                resume_unwind(panic);
            }
        }
    });
}

/// Rows a caller prepares before its scope opens, for its jobs to take in
/// any order: chunks of a pooled block for rows that die with the
/// operation, empty vectors with room for a row for rows that outlive it.
/// A helper's own heap arena starts cold in every scope, so rows it
/// allocated itself would cost it fresh pages (a RESCALE at HEAX set B's top
/// level: 410 → 340 µs on two threads, 2-vCPU VM); rows allocated and freed
/// once per operation cost fresh pages on every operation (`eval_butterfly`
/// on one core: 4× the page faults and 12 % fewer ops/s than with the
/// pooled block).
pub(crate) struct Stock<T>(Mutex<Vec<T>>);

impl<T> Stock<T> {
    /// A stock of `rows`.
    pub(crate) fn new(rows: Vec<T>) -> Self {
        Self(Mutex::new(rows))
    }

    /// One of the rows.
    ///
    /// # Panics
    ///
    /// Panics if the jobs take more rows than the caller stocked.
    pub(crate) fn take(&self) -> T {
        let row = self.0.lock().unwrap_or_else(PoisonError::into_inner).pop();
        row.expect("the caller stocks a row for every take")
    }
}

/// One output per job of a phase, written once by its job and read by the
/// jobs of later phases (or by the caller once [`run_phases`] returns).
pub(crate) struct Slots<T>(Vec<OnceLock<T>>);

impl<T> Slots<T> {
    /// `len` empty slots.
    pub(crate) fn new(len: usize) -> Self {
        Self((0..len).map(|_| OnceLock::new()).collect())
    }

    /// Fills slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if slot `i` is already filled.
    pub(crate) fn put(&self, i: usize, value: T) {
        assert!(self.0[i].set(value).is_ok(), "slot {i} filled twice");
    }

    /// Slot `i`, which a finished phase has filled.
    ///
    /// # Panics
    ///
    /// Panics if slot `i` is empty.
    pub(crate) fn get(&self, i: usize) -> &T {
        self.0[i].get().expect("an earlier phase fills every slot")
    }

    /// Every slot's value, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if a slot is empty.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller() {
        // Phase 0's first job (the caller's) waits until a helper has
        // claimed a job, and every helper's job panics: the panic must come
        // back through the caller, and no thread may wait on phase 1.
        let caller = thread::current().id();
        let claimed = AtomicBool::new(false);
        let later = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            run_phases(2, &[4, 4], |p, _| {
                if p == 1 {
                    later.fetch_add(1, Ordering::Relaxed);
                } else if thread::current().id() != caller {
                    claimed.store(true, Ordering::Release);
                    panic!("job failed on a helper");
                } else {
                    while !claimed.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                }
            });
        }));
        let payload = got.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"job failed on a helper")
        );
        assert_eq!(later.load(Ordering::Relaxed), 0, "phase 1 never ran");
    }

    #[test]
    fn a_panic_on_the_caller_stops_the_waiting_helpers() {
        // The helpers' phase-0 jobs hold until the caller has a phase-0 job
        // of its own, which panics; helpers then wait on a phase 0 that
        // never finishes, and must give up.
        let caller = thread::current().id();
        let claimed = AtomicBool::new(false);
        let got = catch_unwind(AssertUnwindSafe(|| {
            run_phases(3, &[8, 8], |p, _| {
                if p > 0 {
                    return;
                }
                if thread::current().id() == caller {
                    claimed.store(true, Ordering::Release);
                    panic!("job failed on the caller");
                } else {
                    while !claimed.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                }
            });
        }));
        let payload = got.expect_err("the caller's panic propagates");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"job failed on the caller")
        );
    }

    #[test]
    fn empty_phases_are_skipped() {
        for threads in [1, 2, 3] {
            let ran = Mutex::new(Vec::new());
            run_phases(threads, &[0, 3, 0, 2, 0], |p, i| {
                ran.lock().expect("no job panics").push((p, i));
            });
            let mut ran = ran.into_inner().expect("no job panics");
            ran.sort_unstable();
            assert_eq!(ran, [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1)], "{threads}");
        }
        run_phases(2, &[], |_, _| panic!("no jobs"));
        run_phases(2, &[0, 0], |_, _| panic!("no jobs"));
    }

    #[test]
    fn a_phase_sees_every_output_of_the_phase_before() {
        for threads in [2, 3] {
            for _ in 0..1000 {
                let firsts = Slots::new(5);
                let seen = AtomicUsize::new(0);
                run_phases(threads, &[5, 3], |p, i| {
                    if p == 0 {
                        firsts.put(i, i * i);
                    } else if (0..5).all(|k| firsts.0[k].get() == Some(&(k * k))) {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert_eq!(seen.load(Ordering::Relaxed), 3, "{threads} threads");
                assert_eq!(firsts.into_vec(), [0, 1, 4, 9, 16]);
            }
        }
    }
}
