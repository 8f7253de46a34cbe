//! Shared infrastructure for the table/figure benchmark harness.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the paper: it runs the reproduction (simulated A100/V100) and prints the
//! paper's reported numbers next to ours. Baseline rows (CPU, PrivFT, 100x,
//! HEAX, and the ASIC accelerators) are constants quoted from the paper —
//! exactly as the paper itself "directly collect\[s\] data from the
//! literature" for those systems.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod report;
pub mod timing;

use tensorfhe_core::api::{FheOp, OpReport, TensorFhe};

/// Costs one fixed-width schedule run at the engine level — the
/// bench-harness replacement for the retired `run_op` shim: build the
/// kernel workflow, run it at `batch`, report at the device's power draw.
pub fn cost_op(api: &mut TensorFhe, op: FheOp, level: usize, batch: usize) -> OpReport {
    let events = api.schedule_of(op, level);
    let stats = api.engine_mut().run_schedule(op.name(), &events, batch);
    let power = api.engine().config().device.power_watts;
    OpReport::from_stats(op, batch, power, stats)
}

/// Prints a fixed-width table: header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float compactly for table cells.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats an optional paper value ("-" when the paper has no number).
#[must_use]
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(42.25), "42.2");
        assert_eq!(fmt(1.5), "1.500");
        assert_eq!(fmt_opt(None), "-");
    }
}
