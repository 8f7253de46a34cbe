//! The machine's clock state, and the three gated times stated at its fast
//! state.
//!
//! The sandbox's cores switch between clock states about a quarter apart
//! (4.2 GHz and about 3.4 GHz) that last from half a second to minutes, so
//! wall-clock times of identical code cluster in two modes, and a run's
//! median lands on whichever state held for most of it. Over ten seeds the
//! raw `round_ms_p50` spread (interquartile range over median) by 20 to 33 %
//! on `eval_gemm` and `svc_sim` in two sessions of four: more than the
//! largest bound the driver's contract allows a gated metric. A fixed chain
//! of dependent integer multiply-adds follows the core clock and nothing
//! else, and the timed rounds followed it to within a few per cent (the
//! same runs spread 3 to 5 % once divided by it). So the harness times the
//! chain before every round and states the three gated times, and only
//! those, at the fast state: wall-clock seconds times [`FAST_CHAIN_US`] over
//! what the chain just took. In the fast state that is wall-clock time.
//! Raw times are printed beside them, and everything a traced run reports
//! (spans, per-layer metrics, the reconciliation) is raw wall-clock.

use std::hint::black_box;
use std::time::Instant;

/// Dependent multiply-add steps in the chain: 4 cycles each.
const CHAIN_STEPS: u32 = 200_000;
/// Microseconds the chain takes in the sandbox's fast state (800 000 cycles
/// at 4.2 GHz; the slow states read 228 to 242). Measured once, then frozen:
/// it only fixes the unit.
pub const FAST_CHAIN_US: f64 = 190.4;

/// Microseconds the chain takes right now.
#[must_use]
pub fn chain_us() -> f64 {
    let t = Instant::now();
    let mut x = black_box(1u64);
    for _ in 0..CHAIN_STEPS {
        // `black_box` per step keeps the recurrence a real dependency chain.
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// `secs` of wall-clock time, measured when the chain took `chain_us`, as
/// the fast clock state would have taken.
#[must_use]
pub fn at_fast_clock(secs: f64, chain_us: f64) -> f64 {
    secs * FAST_CHAIN_US / chain_us
}
