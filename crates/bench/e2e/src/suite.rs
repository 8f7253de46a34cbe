//! Whole-benchmark modes: every workload in its own child process (so peak
//! RSS and the plan cache are per workload), and the repeat check.

use crate::catalog::{self, END_TO_END, WORKLOADS};
use crate::emit::{parse_child, ChildReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Settings shared by every child run.
#[derive(Debug)]
pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
}

/// One pass over all workloads: `(workload, traced)` to what it printed.
type Pass = BTreeMap<(&'static str, bool), ChildReport>;

impl Suite {
    /// Runs one workload in a child of this executable, echoing its output.
    fn child(&self, workload: &str, traced: bool) -> Result<ChildReport, String> {
        println!(
            "--- {workload} ({}) ---",
            if traced { "traced" } else { "untraced" }
        );
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&self.out_dir)
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The JSON line is for the driver; the lines above it say the same.
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("  {line}");
        }
        if out.status.success() {
            Ok(parse_child(&stdout))
        } else {
            Err(format!(
                "{workload} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }

    /// All workloads, untraced and (if asked) traced; `Err` lists failures.
    fn pass(&self, traced: bool) -> Result<Pass, Vec<String>> {
        let mut pass = Pass::new();
        let mut errors = Vec::new();
        for (workload, _) in WORKLOADS {
            for mode in [false, true] {
                if mode && !traced {
                    continue;
                }
                match self.child(workload, mode) {
                    Ok(report) => {
                        pass.insert((workload, mode), report);
                    }
                    Err(e) => errors.push(e),
                }
            }
        }
        // Every NTT formulation is bit-identical, so the two evaluator
        // workloads must end on the same ciphertexts.
        let digest = |w: &'static str| {
            pass.get(&(w, false))
                .and_then(|r| r.digests.get("ct_digest"))
        };
        match (digest(catalog::EVAL_BUTTERFLY), digest(catalog::EVAL_GEMM)) {
            (Some(a), Some(b)) if a == b => {
                println!("oracle: eval_gemm's ct_digest equals eval_butterfly's ({a:#018x})");
            }
            (a, b) => errors.push(format!(
                "ct_digest differs or is missing: eval_butterfly {a:x?}, eval_gemm {b:x?}"
            )),
        }
        if errors.is_empty() {
            Ok(pass)
        } else {
            Err(errors)
        }
    }

    fn summary(pass: &Pass) {
        println!("--- summary (end-to-end, untraced) ---");
        print!("{:<16}", "workload");
        for m in END_TO_END {
            print!("{:>20}", format!("{} [{}]", m.name, m.unit));
        }
        println!("{:>14}", "failed_frac");
        for (workload, _) in WORKLOADS {
            let Some(r) = pass.get(&(workload, false)) else {
                continue;
            };
            print!("{workload:<16}");
            for name in END_TO_END.iter().map(|m| m.name).chain(["failed_frac"]) {
                let v = r.metrics.get(name).map_or(f64::NAN, |m| m.0);
                print!("{v:>20.4}");
            }
            println!();
        }
    }

    /// Every workload once; with `traced`, a traced pass of each as well.
    pub fn run(&self, traced: bool) -> ExitCode {
        match self.pass(traced) {
            Ok(pass) => {
                Self::summary(&pass);
                ExitCode::SUCCESS
            }
            Err(errors) => {
                errors.iter().for_each(|e| eprintln!("tfhe-e2e: {e}"));
                ExitCode::FAILURE
            }
        }
    }

    /// The whole benchmark twice. Fails unless every end-to-end metric
    /// agrees within its own bound, every exact value and digest is
    /// bit-equal, and nothing failed.
    pub fn check_repeat(&self) -> ExitCode {
        let (first, second) = match (self.pass(true), self.pass(true)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                for e in a.err().into_iter().chain(b.err()).flatten() {
                    eprintln!("tfhe-e2e: {e}");
                }
                return ExitCode::FAILURE;
            }
        };
        println!("--- repeat check: run 1 vs run 2 ---");
        let mut bad = 0usize;
        for (key, a) in &first {
            let b = &second[key];
            let (workload, traced) = *key;
            let tag = if traced { "traced" } else { "untraced" };
            for (name, (va, unit)) in &a.metrics {
                let Some((vb, _)) = b.metrics.get(name) else {
                    println!("FAIL {workload} {name}: missing from run 2");
                    bad += 1;
                    continue;
                };
                let bits_equal = va.to_bits() == vb.to_bits();
                let (rule, ok) = if name == "failed_frac" {
                    ("must be 0".to_string(), *va == 0.0 && *vb == 0.0)
                } else if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    let spread = (va - vb).abs() / va.min(*vb);
                    (
                        format!("spread {:.2} % <= {:.0} %", 100.0 * spread, 100.0 * m.bound),
                        spread <= m.bound,
                    )
                } else if catalog::per_layer(name).is_some_and(|m| m.exact) {
                    ("bit-equal".to_string(), bits_equal)
                } else {
                    ("measured".to_string(), true)
                };
                println!(
                    "{} {workload:<15} {tag:<8} {name:<32} {va:>18.6} {vb:>18.6} {unit:<8} {rule}",
                    if ok { "ok  " } else { "FAIL" }
                );
                bad += usize::from(!ok);
            }
            for (name, da) in &a.digests {
                let ok = b.digests.get(name) == Some(da);
                println!(
                    "{} {workload:<15} {tag:<8} {name:<32} {da:#018x} {:#018x} digest, bit-equal",
                    if ok { "ok  " } else { "FAIL" },
                    b.digests.get(name).copied().unwrap_or(0)
                );
                bad += usize::from(!ok);
            }
        }
        if bad == 0 {
            println!("repeat check passed");
            ExitCode::SUCCESS
        } else {
            println!("repeat check FAILED: {bad} disagreements");
            ExitCode::FAILURE
        }
    }
}
