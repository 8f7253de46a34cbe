//! Table X: full-workload execution time vs CPU, the ASIC accelerators and
//! 100x.
//!
//! A second, unpinned table gives the host wall-clock of each workload's
//! costing on a fresh engine (the median of [`TRIALS`] runs and their
//! interquartile spread): what the cost model itself costs.

use std::hint::black_box;
use tensorfhe_bench::baselines::{TABLE10, TABLE10_WORKLOADS};
use tensorfhe_bench::timing::{median_spread, sample_secs};
use tensorfhe_bench::{fmt, fmt_opt, print_table};
use tensorfhe_core::engine::Variant;
use tensorfhe_workloads::schedules;
use tensorfhe_workloads::spec::run_workload;

/// Host-timed costings per workload.
const TRIALS: usize = 7;

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut host_rows: Vec<Vec<String>> = Vec::new();
    for (system, vals) in TABLE10 {
        let mut row = vec![format!("paper: {system}")];
        row.extend(vals.iter().map(|v| fmt_opt(*v)));
        rows.push(row);
    }

    let mut ours = vec!["ours: TensorFHE".to_string()];
    let mut lr_time = 0.0;
    for spec in schedules::all() {
        let report = run_workload(&spec, Variant::TensorCore);
        if spec.name == "Logistic Regression" {
            lr_time = report.time_s;
        }
        ours.push(fmt(report.time_s));
        eprintln!(
            "  {}: {:.1}s, occupancy {:.1}%, {} ops",
            spec.name,
            report.time_s,
            report.occupancy * 100.0,
            spec.op_count()
        );
        let (secs, spread) = median_spread(
            (0..TRIALS)
                .map(|_| {
                    sample_secs(1, || {
                        drop(black_box(run_workload(&spec, Variant::TensorCore)));
                    })
                })
                .collect(),
        );
        host_rows.push(vec![
            spec.name.clone(),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}%", spread * 100.0),
        ]);
    }
    rows.push(ours);

    let mut header = vec!["system"];
    header.extend(TABLE10_WORKLOADS);
    print_table(
        "Table X — workload execution time (seconds)",
        &header,
        &rows,
    );

    let f1_lr = TABLE10[1].1[1].expect("present");
    println!(
        "\nLR vs F1+: paper 2.9x faster, ours {:.2}x (vs quoted F1+ time)",
        f1_lr / lr_time.max(1e-9)
    );
    println!("paper shape: beats F1+ on LR; trails CraterLake/BTS/ARK by up to ~40x.");
    print_table(
        "Host wall-clock of one workload costing on a fresh engine (not pinned)",
        &["workload", "host ms", "IQR spread"],
        &host_rows,
    );
}
