//! Table VII: Bootstrap execution time (batch 128, N = 2^16, L = 34,
//! dnum = 5).
//!
//! A second, unpinned table gives the host wall-clock of each variant's
//! costing on a fresh engine (the median of [`TRIALS`] runs and their
//! interquartile spread): what the cost model itself costs.

use std::hint::black_box;
use tensorfhe_bench::baselines::TABLE7;
use tensorfhe_bench::timing::{median_spread, sample_secs};
use tensorfhe_bench::{cost_op, fmt, print_table};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::engine::Variant;

/// Host-timed costings per variant.
const TRIALS: usize = 7;

fn main() {
    let params = CkksParams::table_vii_bootstrap();
    let op = FheOp::Bootstrap {
        taylor_degree: 7,
        double_angles: 6,
    };
    let mut host_rows: Vec<Vec<String>> = Vec::new();

    let mut rows: Vec<Vec<String>> = TABLE7
        .iter()
        .map(|(name, v)| vec![format!("paper: {name}"), fmt(*v)])
        .collect();

    for (name, variant) in [
        ("ours: TensorFHE-NT", Variant::Butterfly),
        ("ours: TensorFHE-CO", Variant::FourStep),
        ("ours: TensorFHE", Variant::TensorCore),
    ] {
        let cost = || {
            let mut api = TensorFhe::builder(&params)
                .variant(variant)
                .build()
                .expect("single-device build");
            cost_op(&mut api, op, params.max_level(), 128)
        };
        let r = cost();
        rows.push(vec![name.to_string(), fmt(r.time_us / 1e3)]);
        let (secs, spread) = median_spread(
            (0..TRIALS)
                .map(|_| sample_secs(1, || drop(black_box(cost()))))
                .collect(),
        );
        host_rows.push(vec![
            name.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}%", spread * 100.0),
        ]);
        if variant == Variant::TensorCore {
            println!(
                "TensorFHE bootstrap: {} launches, occupancy {:.1}%",
                r.launches,
                r.occupancy * 100.0
            );
        }
    }
    print_table(
        "Table VII — Bootstrap time (ms, batch 128, N=2^16 L=34 dnum=5)",
        &["system", "time (ms)"],
        &rows,
    );
    println!("\npaper shape: TensorFHE ≈ 1.3× faster than 100x; NT/CO slower than 100x.");
    print_table(
        "Host wall-clock of one bootstrap costing on a fresh engine (not pinned)",
        &["system", "host ms", "IQR spread"],
        &host_rows,
    );
}
