//! Bootstrapping demo: exhaust a ciphertext's level budget, refresh it with
//! the slim bootstrap (Fig. 6), and keep computing on it.
//!
//! Run with: `cargo run --release --example bootstrap_demo`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe::boot::sine::SineConfig;
use tensorfhe::boot::{BootConfig, Bootstrapper};
use tensorfhe::ckks::{CkksContext, CkksParams, Evaluator, KeyChain};
use tensorfhe::math::Complex64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CkksParams::new("boot-demo", 1 << 8, 19, 4, 5, 29, 29, 1)?;
    let ctx = CkksContext::new(&params)?;
    let mut rng = StdRng::seed_from_u64(99);
    let mut keys = KeyChain::generate_sparse(&ctx, 8, &mut rng);

    let cfg = BootConfig {
        sine: SineConfig {
            taylor_degree: 7,
            double_angles: 6,
        },
    };
    let boot = Bootstrapper::new(&ctx, cfg);
    println!(
        "generating {} rotation keys…",
        boot.required_rotations().len()
    );
    keys.gen_rotation_keys(&boot.required_rotations(), &mut rng);
    keys.gen_conjugation_key(&mut rng);

    let slots = params.slots();
    let vals: Vec<Complex64> = (0..slots)
        .map(|i| Complex64::new(0.3 * ((i as f64) * 0.21).sin(), 0.0))
        .collect();
    let ct = keys.encrypt(&ctx.encode(&vals, params.scale())?, &mut rng);

    let mut eval = Evaluator::new(&ctx);
    let exhausted = eval.mod_switch_to(&ct, 0)?;
    println!("ciphertext exhausted: level {}", exhausted.level());

    let refreshed = boot.bootstrap(&mut eval, &keys, &exhausted)?;
    println!("after bootstrap:      level {}", refreshed.level());

    let dec = ctx.decode(&keys.decrypt(&refreshed))?;
    let max_err = vals
        .iter()
        .zip(&dec)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max);
    println!("max slot error after refresh: {max_err:.2e}");
    // The bound `boot/tests/bootstrap.rs` holds the slim bootstrap to.
    assert!(max_err < 0.02, "bootstrap error {max_err} too large");

    // Prove the refreshed ciphertext is computable: square it.
    let sq = eval.square(&refreshed, &keys)?;
    let sq = eval.rescale(&sq)?;
    let dec = ctx.decode(&keys.decrypt(&sq))?;
    println!(
        "square after refresh: slot 3 = {:.4} (expected {:.4})",
        dec[3].re,
        vals[3].re * vals[3].re
    );
    Ok(())
}
