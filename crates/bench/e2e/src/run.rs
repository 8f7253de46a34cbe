//! One workload, one process: set up, warm up, time a fixed number of
//! rounds, check outputs, and print every metric by name.
//!
//! The timed phase is a closed loop on one caller thread. Its round count is
//! frozen per workload ([`Spec::rounds`]) and scales with `--seconds`, so two
//! commits always do the same work. The three gated times (`ops_per_s`,
//! `round_ms_p50`, `setup_s`) are stated at the machine's fast clock state
//! (see [`crate::speed`]); everything a traced run reports is raw. What
//! must repeat bit for bit (counts, simulated values, digests) is taken at
//! the end of the first [`CHECKED_ROUNDS`] timed rounds, so it does not
//! depend on `--seconds` or on the run being traced.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::emit::{self, Value};
use crate::span::{chrome_trace_json, Recorder};
use crate::stats::{median, percentile, period_rates, samples_beyond};
use crate::{eval, paper, speed, svc};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fixed shape of a workload's run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Untimed rounds at the end of set-up (about 5 % of a run's rounds).
    pub warmup: usize,
    /// Rounds after which the request pattern repeats; a timed phase is a
    /// whole number of periods.
    pub period: usize,
    /// Timed rounds of a run of [`catalog::RUN_SECONDS`], chosen once so the
    /// run took about that long on the 2-core sandbox, then frozen. Other
    /// `--seconds` scale it.
    pub rounds: usize,
}

impl Spec {
    /// Rounds of a phase given `seconds` of the run: the frozen count
    /// scaled, at least `floor`, in whole periods.
    fn rounds_for(&self, seconds: f64, floor: usize) -> usize {
        let scaled = self.rounds as f64 * seconds / catalog::RUN_SECONDS as f64;
        (scaled.ceil() as usize)
            .max(floor)
            .next_multiple_of(self.period)
    }
}

/// Timed rounds every run makes at least, however small `--seconds`: the
/// p90 then has 10 samples beyond it. Also the checked rounds: their
/// results are digested and the exact counts are read at their end.
pub const CHECKED_ROUNDS: usize = 100;

/// What one round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOut {
    /// FHE ops (or costed figures) attempted.
    pub ops: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
}

/// Everything a workload reports besides round timings.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-layer metrics measured so far.
    pub layer: Vec<(&'static str, f64)>,
    /// Values that must repeat bit for bit for one seed.
    pub digests: Vec<(&'static str, u64)>,
    /// Human-readable lines (reconciliation, roofline rows, sizes).
    pub notes: Vec<String>,
    /// Whole-run oracle failures.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail(&mut self, what: String) {
        self.errors.push(what);
    }

    /// A value reported earlier in this run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.layer
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A benchmark workload. The runner owns the clock; the workload owns the
/// program under test, the request stream and the oracle.
pub trait Workload {
    fn spec(&self) -> Spec;
    /// Untimed load-generator work before a round (builds the next wave).
    fn prepare(&mut self) {}
    /// One timed round; opens its own `round` span.
    fn round(&mut self, rec: &mut Recorder) -> RoundOut;
    /// Untimed oracle on the round just run; returns ops found wrong.
    fn check(&mut self) -> u64;
    /// Called once, after the last checked round: exact values and digests.
    fn snapshot(&mut self, out: &mut Report);
    /// Whole-run oracles after the timed phase.
    fn finish(&mut self, out: &mut Report);
    /// Traced run only: per-layer metrics from spans and layer probes.
    /// `round_ms_p50` is the untraced reference phase's median round.
    fn layers(&mut self, rec: &mut Recorder, round_ms_p50: f64, out: &mut Report);
}

/// Builds a workload by name: everything before the warm-up rounds.
#[must_use]
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        catalog::EVAL_BUTTERFLY => Box::new(eval::Eval::setup(false, seed)),
        catalog::EVAL_GEMM => Box::new(eval::Eval::setup(true, seed)),
        catalog::SVC_HOST => Box::new(svc::Svc::setup(svc::Kind::Host, seed)),
        catalog::SVC_SIM => Box::new(svc::Svc::setup(svc::Kind::Sim, seed)),
        catalog::PAPER_MODEL => Box::new(paper::Paper::setup(seed)),
        _ => return None,
    })
}

/// Executor worker threads a workload may use: the caller thread plus at
/// most this many.
#[must_use]
pub fn worker_budget() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Command-line arguments of a single-workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// An untraced run sets up again and again, at least this often and for at
/// least this long; `setup_s` is the median (the driver's contract asks for
/// several set-ups in a run). The time span lets the half-second set-ups see
/// more than one of the machine's clock states, like the longer ones do.
const SETUP_REPS: usize = 3;
const SETUP_SPAN: Duration = Duration::from_secs(4);
/// Rounds a traced phase makes at least: a quarter of the checked rounds.
const TRACED_ROUNDS: usize = CHECKED_ROUNDS / 4;

#[derive(Debug, Default)]
struct Phase {
    /// Round times, seconds of the host clock.
    secs: Vec<f64>,
    /// The clock-state probe taken before each round, µs.
    chain_us: Vec<f64>,
    ops: Vec<u64>,
    failed: u64,
}

impl Phase {
    /// Round times at the fast clock state, seconds.
    fn fast_secs(&self) -> Vec<f64> {
        self.secs
            .iter()
            .zip(&self.chain_us)
            .map(|(&s, &chain)| speed::at_fast_clock(s, chain))
            .collect()
    }
}

/// Runs `rounds` rounds; `at_round` sees the count after every round.
fn phase(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    rounds: usize,
    mut at_round: impl FnMut(&mut dyn Workload, usize),
) -> Phase {
    let mut p = Phase::default();
    for done in 1..=rounds {
        w.prepare();
        rec.set_round(u32::try_from(p.secs.len()).ok());
        // A quarter of a millisecond in registers, untimed. It also spreads
        // `svc_sim`'s short waves over more wall time, and so over more of
        // the machine's clock states.
        p.chain_us.push(speed::chain_us());
        let t = Instant::now();
        let out = w.round(rec);
        p.secs.push(t.elapsed().as_secs_f64());
        p.ops.push(out.ops);
        p.failed += out.failed + w.check();
        at_round(w, done);
    }
    rec.set_round(None);
    p
}

fn to_ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up plus warm-up. Returns the workload, the seconds it took at the
/// fast clock state (probed before and after), and the ops attempted and
/// failed meanwhile.
fn set_up(name: &str, seed: u64) -> Option<(Box<dyn Workload>, f64, u64, u64)> {
    let chain_before = speed::chain_us();
    let t = Instant::now();
    let mut w = build(name, seed)?;
    let mut rec = Recorder::new(false);
    let (mut ops, mut failed) = (0, 0);
    for _ in 0..w.spec().warmup {
        w.prepare();
        let out = w.round(&mut rec);
        ops += out.ops;
        failed += out.failed + w.check();
    }
    let secs = t.elapsed().as_secs_f64();
    let chain = (chain_before + speed::chain_us()) / 2.0;
    Some((w, speed::at_fast_clock(secs, chain), ops, failed))
}

fn write_trace(dir: &Path, workload: &str, rec: &Recorder) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, chrome_trace_json(rec.spans()))?;
    Ok(path)
}

/// Runs one workload and prints its result; the last stdout line is the
/// driver's JSON object.
pub fn run_workload(args: &Args) -> ExitCode {
    // An untraced run sets up several times and reports the median (a traced
    // one sets up once); the first is the only one that pays for process-wide
    // caches (NTT plans) and is printed beside it. Each earlier workload is
    // dropped before the next is built, so peak memory is that of one.
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    let started = Instant::now();
    while built.is_none()
        || !args.trace && (setups.len() < SETUP_REPS || started.elapsed() < SETUP_SPAN)
    {
        drop(built.take());
        let Some((w, secs, ops, bad)) = set_up(&args.workload, args.seed) else {
            eprintln!("tfhe-e2e: unknown workload {}", args.workload);
            return ExitCode::from(2);
        };
        setups.push(secs);
        attempted += ops;
        failed += bad;
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");
    let spec = w.spec();
    let mut report = Report::default();
    let mut rec = Recorder::new(false);
    println!(
        "workload {} seed {} seconds {} trace {} threads {} (closed loop, 1 caller + at most {} workers)",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        worker_budget(),
    );

    // Reference phase, untraced. A traced run makes a quarter of the rounds
    // here and a quarter traced; the rest of its time goes to layer probes.
    let share = if args.trace { 0.25 } else { 1.0 };
    let rounds = spec.rounds_for(args.seconds * share, CHECKED_ROUNDS);
    let reference = phase(&mut *w, &mut rec, rounds, |w, done| {
        if done == CHECKED_ROUNDS {
            w.snapshot(&mut report);
        }
    });
    let rss = peak_rss_mb();
    let round_ms = to_ms(&reference.secs);
    let fast_secs = reference.fast_secs();
    let fast_p50 = median(&to_ms(&fast_secs));
    let p50 = median(&round_ms);
    let p90 = percentile(&round_ms, 90.0);
    let beyond_p90 = samples_beyond(round_ms.len(), 90.0);
    if beyond_p90 < 10 {
        report.fail(format!("only {beyond_p90} samples lie beyond the p90"));
    }
    attempted += reference.ops.iter().sum::<u64>();
    failed += reference.failed;

    let mut traced_p50 = None;
    if args.trace {
        rec.set_on(true);
        let rounds = spec.rounds_for(args.seconds * share, TRACED_ROUNDS);
        let traced = phase(&mut *w, &mut rec, rounds, |_, _| {});
        attempted += traced.ops.iter().sum::<u64>();
        failed += traced.failed;
        traced_p50 = Some(median(&to_ms(&traced.fast_secs())));
    }
    w.finish(&mut report);

    // The JSON metric set: end-to-end untraced, per-layer traced.
    let mut metrics: Vec<Value> = Vec::new();
    if let Some(traced_p50) = traced_p50 {
        // The one ratio of two phases: both at the fast clock state, or a
        // change of state between them would read as overhead.
        report.set("bench.trace_overhead_frac", traced_p50 / fast_p50 - 1.0);
        report.set("bench.round_ms_p90", p90);
        report.set("bench.rounds", round_ms.len() as f64);
        report.set("bench.chain_us", median(&reference.chain_us));
        w.layers(&mut rec, p50, &mut report);
        match write_trace(&args.out_dir, spec.name, &rec) {
            Ok(path) => println!("trace: {} spans -> {}", rec.spans().len(), path.display()),
            Err(e) => report.fail(format!("writing the trace file: {e}")),
        }
        for m in PER_LAYER {
            let applies = m.on.contains(&spec.name);
            let got = report.get(m.name);
            if applies != got.is_some() {
                report.fail(format!(
                    "{}: applies {applies}, reported {}",
                    m.name,
                    got.is_some()
                ));
            }
            metrics.push(layer_value(m, got.unwrap_or(0.0)));
        }
    } else {
        let rates = period_rates(&reference.ops, &fast_secs, spec.period);
        let values = [
            median(&rates),
            fast_p50,
            rss.unwrap_or(f64::NAN),
            median(&setups),
        ];
        for (m, value) in END_TO_END.iter().zip(values) {
            metrics.push(Value {
                name: m.name.into(),
                value,
                unit: m.unit.into(),
            });
        }
        println!(
            "rounds: {} timed, frozen ({} for {} s, scaled to --seconds), the first {CHECKED_ROUNDS} checked; \
             round_ms_p50 over {} samples; raw wall-clock p50 {p50:.4} ms, p90 {p90:.4} ms with {beyond_p90} samples beyond it",
            round_ms.len(),
            spec.rounds,
            catalog::RUN_SECONDS,
            round_ms.len(),
        );
        println!(
            "ops_per_s over {} periods of {} rounds; set-ups in this process: {setups:.3?} s, the first one cold; \
             ops_per_s, round_ms_p50 and setup_s are at the fast clock state: wall-clock x {:.1} us / clock-state probe, \
             whose median was {:.1} us",
            rates.len(),
            spec.period,
            speed::FAST_CHAIN_US,
            median(&reference.chain_us),
        );
    }
    for name in report
        .layer
        .iter()
        .map(|(n, _)| n)
        .filter(|n| catalog::per_layer(n).is_none())
    {
        report
            .errors
            .push(format!("{name} is not in the catalogue"));
    }
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        report
            .errors
            .push(format!("{} is not a finite number", m.name));
        m.value = 0.0;
    }
    failed += report.errors.len() as u64;
    let correct = failed == 0;

    // Every metric by name with its unit: the JSON set (where it applies to
    // this workload), then whatever else the run measured on the way.
    for m in &metrics {
        match catalog::per_layer(&m.name) {
            None => {
                let e = END_TO_END
                    .iter()
                    .find(|e| e.name == m.name)
                    .expect("an end-to-end metric");
                println!(
                    "{}  ({} is better) -- {}",
                    emit::metric_line(m),
                    e.better.label(),
                    e.what
                );
            }
            Some(p) if p.on.contains(&spec.name) => {
                println!(
                    "{}  ({} is better) -> {}",
                    emit::metric_line(m),
                    p.better.label(),
                    p.moves
                );
            }
            Some(_) => {}
        }
    }
    for (name, v) in &report.layer {
        if let Some(p) = catalog::per_layer(name).filter(|_| !args.trace) {
            println!("{}", emit::metric_line(&layer_value(p, *v)));
        }
    }
    let failed_frac = Value {
        name: "failed_frac".into(),
        value: failed as f64 / attempted.max(1) as f64,
        unit: "ratio".into(),
    };
    println!("{}", emit::metric_line(&failed_frac));
    for (name, d) in &report.digests {
        println!("{}", emit::digest_line(name, *d));
    }
    for line in &report.notes {
        println!("{line}");
    }
    for e in &report.errors {
        println!("ORACLE FAILURE: {e}");
    }
    println!(
        "{}",
        emit::result_json(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn layer_value(m: &catalog::PerLayer, value: f64) -> Value {
    Value {
        name: m.name.into(),
        value,
        unit: m.unit.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_scale_with_seconds_in_whole_periods_above_the_floor() {
        let spec = Spec {
            name: "t",
            warmup: 0,
            period: 16,
            rounds: 480,
        };
        let run = catalog::RUN_SECONDS as f64;
        assert_eq!(spec.rounds_for(run, CHECKED_ROUNDS), 480);
        assert_eq!(spec.rounds_for(run * 2.0, CHECKED_ROUNDS), 960);
        // A quarter is 120 rounds: up to the next whole period.
        assert_eq!(spec.rounds_for(run / 4.0, CHECKED_ROUNDS), 128);
        // Never below the floor, itself rounded up to whole periods.
        assert_eq!(spec.rounds_for(0.1, CHECKED_ROUNDS), 112);
        assert_eq!(spec.rounds_for(0.1, TRACED_ROUNDS), 32);
    }
}
