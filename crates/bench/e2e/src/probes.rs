//! Layer probes: timings of the `math` and `ntt` layers' public kernels at
//! the HEAX set B shapes the workloads' event streams contain, plus the two
//! roofline calibration probes. Every rate is the median of [`REPS`] timed
//! repetitions after one untimed one; every repetition is also a span.

use crate::run::Report;
use crate::span::Recorder;
use crate::stats::median;
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;
use tensorfhe_core::tracer::split;
use tensorfhe_math::crt::BasisConvGemm;
use tensorfhe_math::gemm_fast::{gemm_lm, gemm_rm, gemm_rm_with, MontOperand};
use tensorfhe_math::montgomery::Montgomery;
use tensorfhe_math::{simd, Modulus};
use tensorfhe_ntt::{BatchedGemmNtt, NttAlgorithm, NttBatchOps, NttOps, PlanCache};

/// Timed repetitions behind every probe's median.
pub const REPS: usize = 9;
/// Rows per chunk the host executor hands the fast kernels at N = 2^13
/// (16 Ki elements): the batch width of the fast-kernel probes.
pub const EXECUTOR_CHUNK_ROWS: usize = 2;

/// Median seconds of [`REPS`] runs of `run` on fresh state from `fresh`
/// (untimed), after one warm-up run.
pub fn timed_with<S>(
    rec: &mut Recorder,
    name: &'static str,
    mut fresh: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    run(fresh());
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = fresh();
            rec.begin(name);
            let t = Instant::now();
            run(state);
            let dt = t.elapsed().as_secs_f64();
            rec.end();
            dt
        })
        .collect();
    median(&secs)
}

/// [`timed_with`] for probes that need no per-repetition state.
pub fn timed(rec: &mut Recorder, name: &'static str, mut run: impl FnMut()) -> f64 {
    timed_with(rec, name, || (), |()| run())
}

/// `rows` vectors of `n` uniform residues below `q`.
pub fn random_rows(rng: &mut StdRng, rows: usize, n: usize, q: u64) -> Vec<Vec<u64>> {
    (0..rows)
        .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
        .collect()
}

/// Rows per second of one batched transform call over `rows` rows.
pub fn ntt_rows_per_s(
    rec: &mut Recorder,
    name: &'static str,
    plan: &BatchedGemmNtt,
    rows: usize,
    rng: &mut StdRng,
    transform: impl Fn(&BatchedGemmNtt, &mut [&mut [u64]]),
) -> f64 {
    let mut data = random_rows(rng, rows, plan.degree(), plan.modulus());
    // In place: every repetition transforms the previous output, which is
    // again a vector of reduced residues.
    let secs = timed(rec, name, || {
        let mut views: Vec<&mut [u64]> = data.iter_mut().map(Vec::as_mut_slice).collect();
        transform(plan, &mut views);
    });
    rows as f64 / secs
}

/// Metric names of the fast-kernel pair.
pub const FAST_NAMES: (&str, &str) = (
    "ntt.fourstep_fast_fwd_rows_s",
    "ntt.fourstep_fast_inv_rows_s",
);

/// Forward/inverse row rates of one plan, through `NttBatchOps` or (`fast`)
/// through the Montgomery fast kernels.
pub fn ntt_pair(
    rec: &mut Recorder,
    out: &mut Report,
    names: (&'static str, &'static str),
    plan: &BatchedGemmNtt,
    rows: usize,
    fast: bool,
    rng: &mut StdRng,
) -> (f64, f64) {
    type Transform = fn(&BatchedGemmNtt, &mut [&mut [u64]]);
    let (forward, inverse): (Transform, Transform) = if fast {
        (
            |p, r| p.forward_batch_fast(r),
            |p, r| p.inverse_batch_fast(r),
        )
    } else {
        (|p, r| p.forward_batch(r), |p, r| p.inverse_batch(r))
    };
    let fwd = ntt_rows_per_s(rec, names.0, plan, rows, rng, forward);
    let inv = ntt_rows_per_s(rec, names.1, plan, rows, rng, inverse);
    out.set(names.0, fwd);
    out.set(names.1, inv);
    (fwd, inv)
}

/// Computed work of one four-step row: MACs of the two GEMMs plus the
/// twiddle Hadamard, and bytes of row data through the five stages (pack,
/// N2-GEMM, twiddle, N1-GEMM, unpack: 11 row-sized reads or writes of
/// 8-byte words), twiddle operands assumed cache-resident.
#[must_use]
pub fn fourstep_row_work(n: usize) -> (f64, f64) {
    let (n1, n2) = split(n);
    ((n * (n1 + n2) + n) as f64, (11 * n * 8) as f64)
}

/// Cold plan construction: a fresh cache, so nothing is shared.
pub fn plan_build_ms(rec: &mut Recorder, out: &mut Report, n: usize, q: u64) {
    let secs = timed(rec, "ntt.plan_build", || {
        black_box(PlanCache::new().get(n, q, NttAlgorithm::FourStep));
    });
    out.set("ntt.plan_build_ms", secs * 1e3);
    let (macs, bytes) = fourstep_row_work(n);
    out.set("ntt.fourstep_macs_per_row", macs);
    out.set("ntt.fourstep_bytes_per_row", bytes);
}

/// ns per element of a modular multiply over `n`-element arrays.
fn modmul_ns(
    rec: &mut Recorder,
    name: &'static str,
    a: &[u64],
    b: &[u64],
    mul: impl Fn(u64, u64) -> u64,
) -> f64 {
    let mut dst = vec![0u64; a.len()];
    let secs = timed(rec, name, || {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = mul(x, y);
        }
        black_box(&mut dst);
    });
    secs * 1e9 / a.len() as f64
}

/// `math.barrett_mul_ns`: the reference modular multiply every element-wise
/// evaluator kernel and Barrett GEMM is made of.
pub fn barrett_mul(rec: &mut Recorder, out: &mut Report, n: usize, q: u64, rng: &mut StdRng) {
    let rows = random_rows(rng, 2, 8 * n, q);
    let m = Modulus::new(q);
    let ns = modmul_ns(rec, "math.barrett_mul", &rows[0], &rows[1], |x, y| {
        m.mul(x, y)
    });
    out.set("math.barrett_mul_ns", ns);
}

/// The HEAX set B key-switch conversion set: `digits` ModUp conversions
/// (`alpha → rest + K` limbs, `n` columns) plus one batched ModDown
/// (`K → l+1` limbs, `2n` columns). Returns output elements per call.
pub struct ConvSet {
    modup: BasisConvGemm,
    moddown: BasisConvGemm,
    digits: usize,
    n: usize,
}

impl ConvSet {
    /// Conversion plans for one top-level key switch over `q` / `p` primes
    /// with single-prime digits (α = 1, as at HEAX set B).
    #[must_use]
    pub fn new(q: &[u64], p: &[u64], n: usize) -> Self {
        let rest: Vec<u64> = q[1..].iter().chain(p).copied().collect();
        Self {
            modup: BasisConvGemm::new(&q[..1], &rest),
            moddown: BasisConvGemm::new(p, q),
            digits: q.len(),
            n,
        }
    }

    /// Output elements of one pass over the set.
    #[must_use]
    pub fn out_elems(&self) -> usize {
        self.digits * self.modup.l_dst() * self.n + self.moddown.l_dst() * 2 * self.n
    }

    /// MACs and bytes (computed) of one pass: per output element `l_src`
    /// MACs plus the `l_src`-wide y-stage per column; every source and
    /// destination element moves once.
    #[must_use]
    pub fn work(&self) -> (f64, f64) {
        let up = (self.modup.l_src(), self.modup.l_dst(), self.digits * self.n);
        let down = (self.moddown.l_src(), self.moddown.l_dst(), 2 * self.n);
        let macs = |(s, d, w): (usize, usize, usize)| (s * d * w + s * w) as f64;
        let bytes = |(s, d, w): (usize, usize, usize)| ((s + d) * w * 8) as f64;
        (macs(up) + macs(down), bytes(up) + bytes(down))
    }

    /// Melem/s of one pass through `convert` (Barrett or Montgomery entry).
    pub fn rate(
        &self,
        rec: &mut Recorder,
        name: &'static str,
        rng: &mut StdRng,
        convert: impl Fn(&BasisConvGemm, &[&[u64]], &mut [&mut [u64]]),
    ) -> f64 {
        let src = |conv: &BasisConvGemm, width: usize, rng: &mut StdRng| -> Vec<Vec<u64>> {
            conv.src_moduli()
                .iter()
                .map(|m| (0..width).map(|_| rng.gen_range(0..m.value())).collect())
                .collect()
        };
        let up_src = src(&self.modup, self.n, rng);
        let down_src = src(&self.moddown, 2 * self.n, rng);
        let mut up_dst = vec![vec![0u64; self.n]; self.modup.l_dst()];
        let mut down_dst = vec![vec![0u64; 2 * self.n]; self.moddown.l_dst()];
        let secs = timed(rec, name, || {
            let up_rows: Vec<&[u64]> = up_src.iter().map(Vec::as_slice).collect();
            for _ in 0..self.digits {
                let mut dst: Vec<&mut [u64]> = up_dst.iter_mut().map(Vec::as_mut_slice).collect();
                convert(&self.modup, &up_rows, &mut dst);
            }
            let down_rows: Vec<&[u64]> = down_src.iter().map(Vec::as_slice).collect();
            let mut dst: Vec<&mut [u64]> = down_dst.iter_mut().map(Vec::as_mut_slice).collect();
            convert(&self.moddown, &down_rows, &mut dst);
        });
        self.out_elems() as f64 / secs / 1e6
    }
}

/// `math.bconv_barrett_melem_s` over the key-switch conversion set.
pub fn bconv_barrett(rec: &mut Recorder, out: &mut Report, set: &ConvSet, rng: &mut StdRng) -> f64 {
    let rate = set.rate(rec, "math.bconv_barrett", rng, |c, s, d| {
        c.convert_block_into(s, d)
    });
    out.set("math.bconv_barrett_melem_s", rate);
    rate
}

/// Kernel rows waiting for the roofline bounds. The calibration probes run
/// last, in [`Roofline::report`]: the stream probe walks an array several
/// times the last-level cache and would disturb any probe that followed it.
#[derive(Debug, Default)]
pub struct Roofline {
    /// `(label, MACs, computed bytes, seconds)` of one call of each kernel.
    rows: Vec<(String, f64, f64, f64)>,
}

/// Last-level cache size: the largest `size` under cpu0's sysfs cache
/// directory, or 32 MiB (stated) when sysfs is not readable.
fn last_level_cache_bytes() -> (usize, &'static str) {
    let mut best = 0usize;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let t = text.trim();
        let bytes = t
            .strip_suffix('K')
            .and_then(|v| v.parse::<usize>().ok().map(|v| v << 10))
            .or_else(|| {
                t.strip_suffix('M')
                    .and_then(|v| v.parse::<usize>().ok().map(|v| v << 20))
            });
        best = best.max(bytes.unwrap_or(0));
    }
    if best == 0 {
        (32 << 20, "assumed")
    } else {
        (best, "sysfs")
    }
}

/// Independent accumulator lanes of the peak probe: accumulators,
/// multiplicands and multipliers all fit the vector registers (32 lanes was
/// the fastest of 8, 16, 32 and 64 on the sandbox: 11.5 Gmac/s).
const PEAK_LANES: usize = 32;
const PEAK_ITERS: usize = 1 << 22;

/// One pass of the peak probe. The multiplicand advances by one add per MAC
/// so the compiler cannot fold the loop into a closed form.
fn peak_pass() -> f64 {
    const LOW: u64 = 0xffff_ffff;
    let mut x: [u64; PEAK_LANES] = std::array::from_fn(|l| black_box(0x9e37_79b9 + l as u64));
    let y: [u64; PEAK_LANES] = std::array::from_fn(|l| black_box(0x85eb_ca6b + 2 * l as u64));
    let mut acc = [0u64; PEAK_LANES];
    let t = Instant::now();
    for _ in 0..PEAK_ITERS {
        for l in 0..PEAK_LANES {
            acc[l] = acc[l].wrapping_add((x[l] & LOW) * (y[l] & LOW));
            x[l] = x[l].wrapping_add(y[l]);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(acc);
    (PEAK_LANES * PEAK_ITERS) as f64 / secs / 1e6
}

/// Ceiling on the stream array, so a host with a very large shared cache
/// cannot make the probe exhaust memory; stated when it binds.
const STREAM_CAP_BYTES: usize = 2 << 30;

impl Roofline {
    /// Adds a kernel: one call did `macs` MACs over `bytes` computed bytes
    /// in `secs`.
    pub fn row(&mut self, label: impl Into<String>, macs: f64, bytes: f64, secs: f64) {
        self.rows.push((label.into(), macs, bytes, secs));
    }

    /// Adds a four-step transform measured at `rows_per_s`.
    pub fn ntt_row(&mut self, label: &str, n: usize, rows_per_s: f64) {
        let (macs, bytes) = fourstep_row_work(n);
        self.row(label, macs, bytes, 1.0 / rows_per_s);
    }

    /// Measures both bounds (best of a few passes: a bound, not a typical
    /// value), then prints each row's achieved rate, computed bytes,
    /// ops/byte and share of the lower bound — all single-threaded.
    pub fn report(self, rec: &mut Recorder, out: &mut Report) {
        rec.begin("math.peak_probe");
        let peak_mmac_s = (0..5).map(|_| peak_pass()).fold(0.0, f64::max);
        rec.end();

        let (llc, source) = last_level_cache_bytes();
        let bytes = (4 * llc).min(STREAM_CAP_BYTES);
        rec.begin("math.stream_probe");
        let data: Vec<u64> = (0..(bytes / 8) as u64).collect();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let sum = data.iter().fold(0u64, |a, &w| a.wrapping_add(w));
            best = best.min(t.elapsed().as_secs_f64());
            black_box(sum);
        }
        rec.end();
        let stream_gb_s = bytes as f64 / best / 1e9;
        out.set("math.peak_mmac_s", peak_mmac_s);
        out.set("math.stream_gb_s", stream_gb_s);
        out.note(format!(
            "roofline calibration: peak {peak_mmac_s:.0} Mmac/s (1 thread, {PEAK_LANES} register lanes, one add per MAC), \
             stream {stream_gb_s:.2} GB/s reading a {} MiB array = {}x the {} MiB last-level cache ({source}){}",
            bytes >> 20,
            bytes / llc,
            llc >> 20,
            if bytes < 4 * llc { ", capped below 4x" } else { "" },
        ));
        for (label, macs, bytes, secs) in self.rows {
            let achieved = macs / secs / 1e6;
            let intensity = macs / bytes;
            let bound = peak_mmac_s.min(stream_gb_s * 1e3 * intensity);
            out.note(format!(
                "roofline {label}: {achieved:.0} Mmac/s, {bytes:.0} B computed, {intensity:.2} mac/B, \
                 {:.1} % of the {} bound ({bound:.0} Mmac/s)",
                100.0 * achieved / bound,
                if bound < peak_mmac_s { "memory" } else { "compute" },
            ));
        }
    }
}

/// The `math` layer's fast kernels at the HEAX set B four-step panel of an
/// executor chunk: both GEMM orientations, both register tiles, the
/// Montgomery multiply and the Montgomery conversion.
pub fn math_fast_kernels(
    rec: &mut Recorder,
    out: &mut Report,
    n: usize,
    q: u64,
    set: &ConvSet,
    roofline: &mut Roofline,
    rng: &mut StdRng,
) {
    let (n1, n2) = split(n);
    let rows = EXECUTOR_CHUNK_ROWS;
    let flat = |rng: &mut StdRng, len: usize| -> Vec<u64> {
        (0..len).map(|_| rng.gen_range(0..q)).collect()
    };

    // stacked (rows·N1 × N2) × W (N2 × N2): the inner N2-NTT of every row.
    let (m, k) = (rows * n1, n2);
    let a = flat(rng, m * k);
    let w = MontOperand::new(q, &flat(rng, k * k), k, k);
    let mut c = vec![0u64; m * k];
    let macs = (m * k * k) as f64;
    let bytes = (8 * (m * k + k * k + m * k)) as f64;
    let rm = timed(rec, "math.gemm_rm", || gemm_rm(&a, m, &w, &mut c));
    out.set("math.gemm_rm_mmac_s", macs / rm / 1e6);
    out.set("math.gemm_ops_per_byte", macs / bytes);
    roofline.row(format!("gemm_rm {m}x{k}x{k}"), macs, bytes, rm);
    for (name, span, tile) in [
        (
            "math.tile_scalar_mmac_s",
            "math.tile_scalar",
            simd::scalar_tile(),
        ),
        ("math.tile_simd4_mmac_s", "math.tile_simd4", simd::simd4()),
    ] {
        let secs = timed(rec, span, || gemm_rm_with(&a, m, &w, tile, &mut c));
        out.set(name, macs / secs / 1e6);
    }

    // W (N1 × N1) × wide (N1 × rows·N2): the outer N1-DFT of every row.
    let (k, cols) = (n1, rows * n2);
    let w = MontOperand::new(q, &flat(rng, k * k), k, k);
    let b = flat(rng, k * cols);
    let mut c = vec![0u64; k * cols];
    let macs = (k * k * cols) as f64;
    let bytes = (8 * (k * k + 2 * k * cols)) as f64;
    let lm = timed(rec, "math.gemm_lm", || gemm_lm(&w, &b, cols, &mut c));
    out.set("math.gemm_lm_mmac_s", macs / lm / 1e6);
    roofline.row(format!("gemm_lm {k}x{k}x{cols}"), macs, bytes, lm);

    let x = flat(rng, 8 * n);
    let y = flat(rng, 8 * n);
    let mont = Montgomery::new(q);
    let ns = modmul_ns(rec, "math.mont_mul", &x, &y, |a, b| mont.mul(a, b));
    out.set("math.mont_mul_ns", ns);

    let rate = set.rate(rec, "math.bconv_mont", rng, |c, s, d| {
        c.convert_block_into_mont(s, d)
    });
    out.set("math.bconv_mont_melem_s", rate);
    let (macs, bytes) = set.work();
    let secs = set.out_elems() as f64 / rate / 1e6;
    roofline.row("bconv_mont key-switch set", macs, bytes, secs);
}
