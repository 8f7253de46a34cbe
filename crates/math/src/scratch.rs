//! Thread-local reusable scratch buffers for the hot GEMM paths.
//!
//! The batched NTT and basis-conversion kernels stage their operands in
//! short-lived dense buffers (gather/twiddle repacks, `y`-rows, wide
//! accumulators). Allocating those per call is invisible at simulation
//! scale but shows up as allocator churn once the host backend executes
//! the same GEMMs for real on every drain. This module keeps a small
//! per-thread pool of `u64`/`u128` buffers: a kernel *takes* a buffer of
//! the length it needs, uses it, and *gives* it back, so a steady-state
//! drain loop reuses the same allocations instead of growing the heap —
//! the property `scratch` tests pin via [`thread_stats`]. A take is
//! zero-filled ([`take_u64`]) unless the kernel overwrites the whole buffer
//! anyway and asks for it dirty ([`take_dirty_u64`]): a recycled buffer
//! then comes back with whatever it last held and costs no memory pass.
//!
//! The pool is thread-local on purpose: worker threads never contend, no
//! ordering is introduced (determinism lints stay trivially satisfied),
//! and buffers follow the thread that does the GEMM work.

use std::cell::RefCell;

/// Retention bound per element type: a pool never holds more than this
/// many idle buffers (excess `give`s drop the smallest so peak shapes
/// stay cached).
const MAX_POOLED: usize = 16;

#[derive(Default)]
struct Pool {
    u64s: Vec<Vec<u64>>,
    u128s: Vec<Vec<u128>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Snapshot of this thread's pool, for allocation-churn tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Idle `u64` buffers held.
    pub u64_buffers: usize,
    /// Total capacity (elements) across idle `u64` buffers.
    pub u64_capacity: usize,
    /// Idle `u128` buffers held.
    pub u128_buffers: usize,
    /// Total capacity (elements) across idle `u128` buffers.
    pub u128_capacity: usize,
}

/// This thread's pool occupancy. Stable across repeated identical
/// workloads once warm — the "no allocation growth" property.
#[must_use]
pub fn thread_stats() -> ScratchStats {
    POOL.with(|p| {
        let p = p.borrow();
        ScratchStats {
            u64_buffers: p.u64s.len(),
            u64_capacity: p.u64s.iter().map(Vec::capacity).sum(),
            u128_buffers: p.u128s.len(),
            u128_capacity: p.u128s.iter().map(Vec::capacity).sum(),
        }
    })
}

/// Drops every pooled buffer on this thread (test isolation).
pub fn clear_thread_pool() {
    POOL.with(|p| *p.borrow_mut() = Pool::default());
}

/// Best-fit take: the smallest pooled buffer whose capacity covers `len`,
/// else the largest available (it will regrow once and then be retained),
/// else a fresh allocation.
///
/// `dirty` keeps the recycled contents (every element initialised, values
/// unspecified) and writes `T::default()` only into growth past the
/// buffer's previous length; otherwise the whole buffer is reset.
fn take_from<T: Clone + Default>(pool: &mut Vec<Vec<T>>, len: usize, dirty: bool) -> Vec<T> {
    let mut best: Option<usize> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        let better = match best {
            None => true,
            Some(j) => {
                let bcap = pool[j].capacity();
                if bcap >= len {
                    cap >= len && cap < bcap
                } else {
                    cap > bcap
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    let mut buf = match best {
        Some(i) => pool.swap_remove(i),
        None => Vec::new(),
    };
    if !dirty {
        buf.clear();
    }
    buf.resize(len, T::default());
    buf
}

fn give_to<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() == 0 {
        return;
    }
    pool.push(buf);
    if pool.len() > MAX_POOLED {
        // Drop the smallest so the pool keeps the shapes worth caching.
        let min = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            .expect("non-empty pool");
        pool.swap_remove(min);
    }
}

/// Takes a zero-filled `u64` buffer of exactly `len` elements.
#[must_use]
pub fn take_u64(len: usize) -> Vec<u64> {
    POOL.with(|p| take_from(&mut p.borrow_mut().u64s, len, false))
}

/// Takes a `u64` buffer of exactly `len` elements with **unspecified
/// contents** (initialised, but whatever a recycled buffer last held; only
/// growth past its previous length is zero-filled). For kernels that
/// overwrite the buffer whole before reading it.
#[must_use]
pub fn take_dirty_u64(len: usize) -> Vec<u64> {
    POOL.with(|p| take_from(&mut p.borrow_mut().u64s, len, true))
}

/// Returns a `u64` buffer to this thread's pool.
pub fn give_u64(buf: Vec<u64>) {
    POOL.with(|p| give_to(&mut p.borrow_mut().u64s, buf));
}

/// Takes a zero-filled `u128` buffer of exactly `len` elements.
#[must_use]
pub fn take_u128(len: usize) -> Vec<u128> {
    POOL.with(|p| take_from(&mut p.borrow_mut().u128s, len, false))
}

/// Returns a `u128` buffer to this thread's pool.
pub fn give_u128(buf: Vec<u128>) {
    POOL.with(|p| give_to(&mut p.borrow_mut().u128s, buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_exact_length() {
        clear_thread_pool();
        let mut a = take_u64(10);
        a.iter_mut().for_each(|x| *x = 7);
        give_u64(a);
        let b = take_u64(6);
        assert_eq!(b.len(), 6);
        assert!(b.iter().all(|&x| x == 0), "recycled buffer must be zeroed");
        give_u64(b);
    }

    #[test]
    fn dirty_take_keeps_contents_and_zero_fills_only_growth() {
        clear_thread_pool();
        let mut a = take_u64(8);
        a.iter_mut().for_each(|x| *x = 7);
        give_u64(a);
        let b = take_dirty_u64(12);
        assert_eq!(b.len(), 12);
        assert!(b[..8].iter().all(|&x| x == 7), "recycled part is kept");
        assert!(b[8..].iter().all(|&x| x == 0), "growth is zero-filled");
        give_u64(b);
        let c = take_dirty_u64(5);
        assert_eq!(c, [7; 5], "a shorter take truncates, nothing is written");
        give_u64(c);
        assert!(
            take_u64(12).iter().all(|&x| x == 0),
            "plain takes still zero"
        );
    }

    #[test]
    fn steady_state_stops_growing() {
        clear_thread_pool();
        let workload = || {
            let a = take_u64(1000);
            let b = take_u64(64);
            let c = take_u128(256);
            give_u128(c);
            give_u64(b);
            give_u64(a);
        };
        workload();
        let warm = thread_stats();
        for _ in 0..50 {
            workload();
        }
        assert_eq!(thread_stats(), warm, "pool grew under a repeated workload");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        clear_thread_pool();
        give_u64(Vec::with_capacity(1000));
        give_u64(Vec::with_capacity(100));
        let b = take_u64(50);
        assert!(b.capacity() >= 50 && b.capacity() <= 100, "best fit");
        give_u64(b);
    }

    #[test]
    fn pool_retention_is_bounded() {
        clear_thread_pool();
        for i in 1..=(MAX_POOLED + 10) {
            give_u64(Vec::with_capacity(i));
        }
        let s = thread_stats();
        assert!(s.u64_buffers <= MAX_POOLED);
        clear_thread_pool();
    }
}
