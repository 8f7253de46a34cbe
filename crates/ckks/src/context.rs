//! The CKKS context: primes, NTT tables, conversion caches, Galois maps.
//!
//! Everything here is a pure function of the parameter set and is computed
//! lazily — benches that only cost kernel schedules never
//! pay for `N = 2^16` twiddle tables they don't touch. Tables that depend
//! on less than the whole parameter set live in process-wide caches
//! ([`PlanCache`] for NTT and basis-conversion plans, [`TableCache`] for
//! encoders and Galois maps), so contexts built and dropped over and over
//! hold on to nothing new.

use crate::encoder::Encoder;
use crate::error::CkksError;
use crate::params::CkksParams;
use crate::poly::Plaintext;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use tensorfhe_math::crt::RnsBasis;
use tensorfhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use tensorfhe_math::{Complex64, Modulus};
use tensorfhe_ntt::{BasisConvGemm, BatchedGemmNtt, NttAlgorithm, PlanCache};

/// Pre-computed tables for one Galois element `g` (rotation/conjugation).
#[derive(Debug, Clone)]
pub struct GaloisTables {
    /// The Galois element (odd, `< 2N`).
    pub g: u64,
    /// NTT-domain slot permutation: `out[t] = in[perm[t]]` — the paper's
    /// `π_r(x) = ([5^r(2x+1)]_{2N} - 1)/2` (ForbeniusMap kernel).
    pub ntt_perm: Vec<u32>,
    /// Coefficient-domain gather: `out[t] = ±in[src]`; entry is
    /// `(src, negate)`.
    pub coeff_map: Vec<(u32, bool)>,
}

impl GaloisTables {
    /// Builds the tables of element `g` at degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or not below `2n`.
    #[must_use]
    pub(crate) fn new(n: usize, g: u64) -> Self {
        let n = n as u64;
        let two_n = 2 * n;
        assert!(
            g % 2 == 1 && g < two_n,
            "galois element must be odd and < 2N"
        );

        // NTT-domain permutation: out[t] = in[π(t)], π(t) = (g(2t+1) mod 2N - 1)/2.
        let mut ntt_perm = Vec::with_capacity(n as usize);
        for t in 0..n {
            let x = (g as u128 * (2 * t + 1) as u128 % two_n as u128) as u64;
            ntt_perm.push(((x - 1) / 2) as u32);
        }

        // Coefficient-domain gather with sign: source k maps to k·g mod 2N.
        let mut coeff_map = vec![(0u32, false); n as usize];
        for k in 0..n {
            let idx = (k as u128 * g as u128 % two_n as u128) as u64;
            if idx < n {
                coeff_map[idx as usize] = (k as u32, false);
            } else {
                coeff_map[(idx - n) as usize] = (k as u32, true);
            }
        }

        Self {
            g,
            ntt_perm,
            coeff_map,
        }
    }
}

/// Process-wide cache of the tables that depend on the ring degree alone:
/// one [`Encoder`] per `N` and one [`GaloisTables`] per `(N, g)`.
///
/// The companion of [`PlanCache`]: every [`CkksContext`] of a degree shares
/// these, whatever its primes or NTT formulation, so a context costs no
/// encoder or Galois memory of its own. Thread-safe; tables are handed out
/// as [`Arc`]s and built on first use.
#[derive(Debug, Default)]
pub struct TableCache {
    encoders: Mutex<BTreeMap<usize, Arc<Encoder>>>,
    galois: Mutex<BTreeMap<(usize, u64), Arc<GaloisTables>>>,
}

impl TableCache {
    /// Creates an empty cache (prefer [`TableCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    #[must_use]
    pub fn global() -> &'static TableCache {
        static GLOBAL: OnceLock<TableCache> = OnceLock::new();
        GLOBAL.get_or_init(TableCache::new)
    }

    /// The shared encoder for degree `n`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Encoder::new`].
    #[must_use]
    pub fn encoder(&self, n: usize) -> Arc<Encoder> {
        shared(&self.encoders, n, || Encoder::new(n))
    }

    /// The shared Galois tables of element `g` at degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or not below `2n`.
    #[must_use]
    pub fn galois(&self, n: usize, g: u64) -> Arc<GaloisTables> {
        shared(&self.galois, (n, g), || GaloisTables::new(n, g))
    }

    /// Number of cached encoders (Galois tables are counted by
    /// [`TableCache::galois_len`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.encoders.lock().expect("table cache poisoned").len()
    }

    /// Number of cached Galois tables.
    #[must_use]
    pub fn galois_len(&self) -> usize {
        self.galois.lock().expect("table cache poisoned").len()
    }

    /// Whether the cache holds no tables of either kind.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.galois_len() == 0
    }
}

/// The entry for `key`, built on first use. Both kinds are cheap `O(N)`
/// builds, so unlike [`PlanCache`] this holds the lock through one.
fn shared<K: Ord, V>(
    map: &Mutex<BTreeMap<K, Arc<V>>>,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    let mut map = map.lock().expect("table cache poisoned");
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(build())))
}

/// Basis-extension tables for one key-switching digit at one level.
#[derive(Debug)]
pub struct ModUpTable {
    /// First source limb index (inclusive).
    pub src_start: usize,
    /// One past the last source limb index.
    pub src_end: usize,
    /// GEMM-lowered conversion from the digit's primes to the complement
    /// basis (`q`s outside the digit followed by all `p`s), shared through
    /// the process-wide [`PlanCache`] — digits at different levels with the
    /// same `(src, dst)` prime lists share one conversion matrix.
    pub conv: Arc<BasisConvGemm>,
}

impl ModUpTable {
    /// Which target row of [`ModUpTable::conv`] is extended limb `e` (the
    /// `q` limbs of the level in order, then the special limbs): `None` for
    /// a limb the digit owns.
    #[must_use]
    pub fn target_index(&self, e: usize) -> Option<usize> {
        if e < self.src_start {
            Some(e)
        } else if e < self.src_end {
            None
        } else {
            Some(e - (self.src_end - self.src_start))
        }
    }
}

/// Tables for `ModDown` at one level: conversion from the special basis `P`
/// to `q_0..q_l` plus `P^{-1} mod q_i`.
#[derive(Debug)]
pub struct ModDownTable {
    /// GEMM-lowered conversion from `{p_k}` to `{q_0..q_l}` (shared through
    /// the process-wide [`PlanCache`]).
    pub conv: Arc<BasisConvGemm>,
    /// `P^{-1} mod q_i` for `i ≤ l`.
    pub p_inv_mod_q: Vec<u64>,
}

/// The shared, immutable CKKS context.
///
/// Create once per parameter set; cheap to share by reference. Interior
/// caches are lazily filled, deterministic, and thread-safe (`Mutex` /
/// `OnceLock` / `Arc`), so a context is `Send + Sync` and can back
/// parallel per-device executor workers without cloning its tables.
///
/// Which tables are whose:
///
/// * **Process-wide**, fetched on first use and held as [`Arc`]s: the NTT
///   plans and the basis-conversion matrices ([`PlanCache`], keyed on
///   `(N, q, algorithm)` and on the prime lists), the [`Encoder`]
///   ([`TableCache`], keyed on `N`) and the [`GaloisTables`]
///   ([`TableCache`], keyed on `(N, g)`).
/// * **Per context**: the prime chain and its [`Modulus`] handles, the
///   rescale constants, the per-level [`RnsBasis`] and the ModUp / ModDown
///   entries, which own only their index ranges and `P^{-1} mod q_i` and
///   borrow the conversion matrices from [`PlanCache`].
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    algorithm: NttAlgorithm,
    q_primes: Vec<u64>,
    p_primes: Vec<u64>,
    q_mods: Vec<Modulus>,
    p_mods: Vec<Modulus>,
    ntt_q: Vec<OnceLock<Arc<BatchedGemmNtt>>>,
    ntt_p: Vec<OnceLock<Arc<BatchedGemmNtt>>>,
    encoder: OnceLock<Arc<Encoder>>,
    rns_per_level: Vec<OnceLock<RnsBasis>>,
    modup: Mutex<HashMap<(usize, usize), Arc<ModUpTable>>>, // lint: ordered-ok (keyed get/insert only)
    moddown: Mutex<HashMap<usize, Arc<ModDownTable>>>, // lint: ordered-ok (keyed get/insert only)
    /// `rescale_inv[l][j] = q_l^{-1} mod q_j` for `j < l`.
    rescale_inv: Vec<Vec<u64>>,
}

impl CkksContext {
    /// Builds the context for a parameter set with the butterfly NTT
    /// formulation (the TensorFHE-NT baseline).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if not enough NTT-friendly primes
    /// of the requested size exist for the degree.
    pub fn new(params: &CkksParams) -> Result<Self, CkksError> {
        Self::with_algorithm(params, NttAlgorithm::Butterfly)
    }

    /// Builds the context with an explicit NTT formulation (Table IV).
    ///
    /// Every formulation computes the *same* transform bit-exactly; the
    /// choice selects the execution shape (butterfly stages vs batched wide
    /// GEMMs). Tables come from the process-wide [`PlanCache`], so contexts
    /// sharing `(N, q, algorithm)` keys share twiddle plans.
    ///
    /// [`NttAlgorithm::FourStep`] is the host fast path for the GEMM
    /// formulation: every transform the evaluator issues — per-limb
    /// (keygen, encrypt, decrypt) or batched (key switch, ModDown,
    /// rescale) — runs the plan's fused Montgomery/SIMD two-GEMM pipeline
    /// (`tensorfhe_ntt::batch`), the same kernels the `host-parallel`
    /// service backend executes. [`NttAlgorithm::TensorCore`] executes the
    /// segmented u8 formulation, a faithful model of the device datapath
    /// rather than a fast host kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if not enough NTT-friendly primes
    /// of the requested size exist for the degree.
    pub fn with_algorithm(params: &CkksParams, algorithm: NttAlgorithm) -> Result<Self, CkksError> {
        let n = params.n() as u64;
        let l1 = params.max_level() + 1;
        let k = params.special_primes();
        // Deterministic prime chain: q's scan down from 2^bits, p's continue
        // past them (disjoint by construction).
        let q_primes = std::panic::catch_unwind(|| generate_ntt_primes(l1, params.prime_bits(), n))
            .map_err(|_| {
                CkksError::InvalidParams(format!(
                    "not enough {}-bit NTT primes for N={}",
                    params.prime_bits(),
                    params.n()
                ))
            })?;
        let p_primes = std::panic::catch_unwind(|| {
            generate_ntt_primes_excluding(k, params.prime_bits(), n, &q_primes)
        })
        .map_err(|_| {
            CkksError::InvalidParams("not enough special primes for the parameter set".into())
        })?;

        // All ciphertext primes share one bit width, so any two are within
        // a factor of two: RESCALE's centred top-limb residue (|v| ≤ q_l/2)
        // then fits every lower modulus without a division.
        let (q_min, q_max) = q_primes
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &q| (lo.min(q), hi.max(q)));
        assert!(q_max < 2 * q_min, "ciphertext primes differ in width");

        let q_mods: Vec<Modulus> = q_primes.iter().map(|&q| Modulus::new(q)).collect();
        let p_mods: Vec<Modulus> = p_primes.iter().map(|&p| Modulus::new(p)).collect();

        let mut rescale_inv = Vec::with_capacity(l1);
        for (l, &ql) in q_primes.iter().enumerate().take(l1) {
            let row = q_mods[..l].iter().map(|mj| mj.inv(mj.reduce(ql))).collect();
            rescale_inv.push(row);
        }

        Ok(Self {
            params: params.clone(),
            algorithm,
            ntt_q: (0..l1).map(|_| OnceLock::new()).collect(),
            ntt_p: (0..k).map(|_| OnceLock::new()).collect(),
            encoder: OnceLock::new(),
            rns_per_level: (0..l1).map(|_| OnceLock::new()).collect(),
            modup: Mutex::new(HashMap::new()),
            moddown: Mutex::new(HashMap::new()),
            q_primes,
            p_primes,
            q_mods,
            p_mods,
            rescale_inv,
        })
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Ciphertext primes `q_0..q_L`.
    #[must_use]
    pub fn q_primes(&self) -> &[u64] {
        &self.q_primes
    }

    /// Special primes `p_0..p_{K-1}`.
    #[must_use]
    pub fn p_primes(&self) -> &[u64] {
        &self.p_primes
    }

    /// Modulus handle for ciphertext prime `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > L`.
    #[must_use]
    pub fn q_mod(&self, i: usize) -> &Modulus {
        &self.q_mods[i]
    }

    /// Modulus handle for special prime `k`.
    #[must_use]
    pub fn p_mod(&self, k: usize) -> &Modulus {
        &self.p_mods[k]
    }

    /// The NTT formulation this context executes with.
    #[must_use]
    pub fn ntt_algorithm(&self) -> NttAlgorithm {
        self.algorithm
    }

    /// NTT plan for ciphertext prime `i` (fetched from the process-wide
    /// [`PlanCache`] on first use).
    #[must_use]
    pub fn ntt_q(&self, i: usize) -> &BatchedGemmNtt {
        self.ntt_q[i].get_or_init(|| {
            PlanCache::global().get(self.params.n(), self.q_primes[i], self.algorithm)
        })
    }

    /// NTT plan for special prime `k` (fetched from the process-wide
    /// [`PlanCache`] on first use).
    #[must_use]
    pub fn ntt_p(&self, k: usize) -> &BatchedGemmNtt {
        self.ntt_p[k].get_or_init(|| {
            PlanCache::global().get(self.params.n(), self.p_primes[k], self.algorithm)
        })
    }

    /// `q_l^{-1} mod q_j` (rescale constant).
    #[must_use]
    pub fn rescale_inv(&self, l: usize, j: usize) -> u64 {
        self.rescale_inv[l][j]
    }

    /// The RNS basis `{q_0..q_l}` for a level (built on first use).
    #[must_use]
    pub fn rns_basis(&self, level: usize) -> &RnsBasis {
        self.rns_per_level[level].get_or_init(|| RnsBasis::new(&self.q_primes[..=level]))
    }

    /// ModUp tables for key-switch digit `j` at ciphertext level `level`.
    ///
    /// The digit covers source limbs `[jα, min((j+1)α, level+1))`; the
    /// conversion targets the complement `q`s and all special primes.
    ///
    /// # Panics
    ///
    /// Panics if the digit is empty at this level.
    #[must_use]
    pub fn modup_table(&self, digit: usize, level: usize) -> Arc<ModUpTable> {
        if let Some(t) = self.modup.lock().expect("modup cache").get(&(digit, level)) {
            return Arc::clone(t);
        }
        let alpha = self.params.alpha();
        let src_start = digit * alpha;
        let src_end = ((digit + 1) * alpha).min(level + 1);
        assert!(src_start < src_end, "digit {digit} empty at level {level}");
        let mut dst: Vec<u64> = Vec::new();
        for (i, &q) in self.q_primes[..=level].iter().enumerate() {
            if i < src_start || i >= src_end {
                dst.push(q);
            }
        }
        dst.extend_from_slice(&self.p_primes);
        let table = Arc::new(ModUpTable {
            src_start,
            src_end,
            conv: PlanCache::global().get_bconv(&self.q_primes[src_start..src_end], &dst),
        });
        self.modup
            .lock()
            .expect("modup cache")
            .insert((digit, level), Arc::clone(&table));
        table
    }

    /// ModDown tables at `level` (built on first use).
    #[must_use]
    pub fn moddown_table(&self, level: usize) -> Arc<ModDownTable> {
        if let Some(t) = self.moddown.lock().expect("moddown cache").get(&level) {
            return Arc::clone(t);
        }
        let conv = PlanCache::global().get_bconv(&self.p_primes, &self.q_primes[..=level]);
        let p_inv_mod_q = self.q_mods[..=level]
            .iter()
            .map(|m| {
                let mut p = 1u64;
                for &pk in &self.p_primes {
                    p = m.mul(p, m.reduce(pk));
                }
                m.inv(p)
            })
            .collect();
        let table = Arc::new(ModDownTable { conv, p_inv_mod_q });
        self.moddown
            .lock()
            .expect("moddown cache")
            .insert(level, Arc::clone(&table));
        table
    }

    /// The Galois element for a rotation by `r` slots: `5^r mod 2N`
    /// (negative `r` rotates the other way).
    #[must_use]
    pub fn galois_element(&self, r: i64) -> u64 {
        let two_n = 2 * self.params.n() as u64;
        let half = self.params.n() as i64 / 2;
        let r = r.rem_euclid(half) as u64;
        let m = Modulus::new(two_n);
        m.pow(5, r)
    }

    /// The Galois element of complex conjugation: `2N - 1`.
    #[must_use]
    pub fn conjugation_element(&self) -> u64 {
        2 * self.params.n() as u64 - 1
    }

    /// Galois tables for element `g`, shared through [`TableCache`] by
    /// every context of this degree.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or out of range.
    #[must_use]
    pub fn galois_tables(&self, g: u64) -> Arc<GaloisTables> {
        TableCache::global().galois(self.params.n(), g)
    }

    /// The encoder of this degree, shared through [`TableCache`] by every
    /// context of the degree.
    #[must_use]
    pub fn encoder(&self) -> &Arc<Encoder> {
        self.encoder
            .get_or_init(|| TableCache::global().encoder(self.params.n()))
    }

    /// Encodes complex values into a plaintext at the top level.
    ///
    /// # Errors
    ///
    /// As [`CkksContext::encode_at`].
    pub fn encode(&self, values: &[Complex64], scale: f64) -> Result<Plaintext, CkksError> {
        self.encode_at(values, scale, self.params.max_level())
    }

    /// Encodes at a specific level (used after rescaling).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] if more than `N/2` values are
    /// given, and [`CkksError::Unencodable`] if a value is not finite or a
    /// rounded coefficient `c` has `|c| ≥ min(2^126, Q_l/2)`, `Q_l` the
    /// product of the level's primes.
    pub fn encode_at(
        &self,
        values: &[Complex64],
        scale: f64,
        level: usize,
    ) -> Result<Plaintext, CkksError> {
        let coeffs = self.encoder().encode(values, scale)?;
        // The encoder already holds |c| below 2^126; a Q_l past u128 is
        // wider than that.
        let q_l = self.q_primes[..=level]
            .iter()
            .try_fold(1u128, |q, &p| q.checked_mul(u128::from(p)));
        if let Some(half) = q_l.map(|q| q / 2) {
            if let Some(k) = coeffs.iter().position(|c| c.unsigned_abs() > half) {
                return Err(CkksError::Unencodable(format!(
                    "coefficient {k} = {} is outside ±Q_{level}/2",
                    coeffs[k]
                )));
            }
        }
        let mut poly = crate::poly::RnsPoly::from_i128_coeffs(self, &coeffs, level);
        poly.ntt_forward(self);
        Ok(Plaintext { poly, scale })
    }

    /// Decodes a plaintext back to complex values.
    ///
    /// # Errors
    ///
    /// Currently infallible for well-formed plaintexts, but kept fallible for
    /// future strict-mode checks.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<Complex64>, CkksError> {
        let mut poly = pt.poly.clone();
        if poly.domain() == crate::poly::Domain::Ntt {
            poly.ntt_inverse(self);
        }
        let level = poly.level();
        let basis = self.rns_basis(level);
        let n = self.params.n();
        let mut coeffs = Vec::with_capacity(n);
        let mut residues = vec![0u64; level + 1];
        for i in 0..n {
            for (l, r) in residues.iter_mut().enumerate() {
                *r = poly.limb(l)[i];
            }
            coeffs.push(basis.compose_centered(&residues) as f64 / pt.scale);
        }
        Ok(self.encoder().decode(&coeffs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CkksContext {
        CkksContext::new(&CkksParams::test_small()).expect("params valid")
    }

    #[test]
    fn primes_are_distinct_and_ntt_friendly() {
        let c = ctx();
        let two_n = 2 * c.params().n() as u64;
        let mut all: Vec<u64> = c.q_primes().to_vec();
        all.extend_from_slice(c.p_primes());
        for &q in &all {
            assert_eq!(q % two_n, 1);
        }
        let unique: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn galois_element_structure() {
        let c = ctx();
        assert_eq!(c.galois_element(0), 1);
        assert_eq!(c.galois_element(1), 5);
        assert_eq!(c.galois_element(2), 25);
        // Rotation by slots/2 wraps to identity.
        let half = c.params().slots() as i64;
        assert_eq!(c.galois_element(half), 1);
        assert!(c.conjugation_element() % 2 == 1);
    }

    #[test]
    fn ntt_perm_is_permutation() {
        let c = ctx();
        let t = c.galois_tables(c.galois_element(3));
        let mut seen = vec![false; c.params().n()];
        for &p in &t.ntt_perm {
            assert!(!seen[p as usize], "duplicate target {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn galois_tables_cached() {
        let c = ctx();
        let a = c.galois_tables(5);
        let b = c.galois_tables(5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn table_cache_keys_on_degree_and_element() {
        let cache = TableCache::new();
        assert!(cache.is_empty());
        assert!(Arc::ptr_eq(&cache.encoder(64), &cache.encoder(64)));
        assert!(!Arc::ptr_eq(&cache.encoder(64), &cache.encoder(128)));
        assert!(Arc::ptr_eq(&cache.galois(64, 5), &cache.galois(64, 5)));
        assert!(!Arc::ptr_eq(&cache.galois(64, 5), &cache.galois(64, 25)));
        assert!(!Arc::ptr_eq(&cache.galois(64, 5), &cache.galois(128, 5)));
        assert_eq!((cache.len(), cache.galois_len()), (2, 3));
    }

    #[test]
    fn modup_table_shapes() {
        let c = ctx();
        // test_small: L=7, dnum=4 → α=2. Digit 1 at level 7 covers limbs 2..4.
        let t = c.modup_table(1, 7);
        assert_eq!((t.src_start, t.src_end), (2, 4));
        // Complement = 6 q-limbs + 2 p-limbs.
        assert_eq!(t.conv.dst_moduli().len(), 6 + 2);
    }

    #[test]
    fn moddown_p_inverse_correct() {
        let c = ctx();
        let t = c.moddown_table(3);
        for (i, &inv) in t.p_inv_mod_q.iter().enumerate() {
            let m = c.q_mod(i);
            let mut p = 1u64;
            for &pk in c.p_primes() {
                p = m.mul(p, m.reduce(pk));
            }
            assert_eq!(m.mul(p, inv), 1);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = ctx();
        let vals: Vec<Complex64> = (0..c.params().slots())
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let pt = c.encode(&vals, c.params().scale()).expect("fits");
        let back = c.decode(&pt).expect("decode");
        for (a, b) in vals.iter().zip(&back) {
            assert!((*a - *b).norm() < 1e-4, "slot error too large: {a} vs {b}");
        }
    }

    #[test]
    fn context_is_send_and_sync() {
        // The key switch's and RESCALE's limb jobs share one context
        // across threads; a reintroduced `Rc`/`RefCell` must fail to
        // compile here.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CkksContext>();
        assert_send_sync::<ModUpTable>();
        assert_send_sync::<ModDownTable>();
        assert_send_sync::<GaloisTables>();
        assert_send_sync::<TableCache>();
    }

    #[test]
    fn encode_rejects_overflow() {
        let c = ctx();
        let too_many = vec![Complex64::one(); c.params().slots() + 1];
        assert!(matches!(
            c.encode(&too_many, c.params().scale()),
            Err(CkksError::TooManySlots { .. })
        ));
    }

    #[test]
    fn encode_at_refuses_non_finite_values() {
        let c = ctx();
        let scale = c.params().scale();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let vals = [Complex64::one(), Complex64::new(bad, 0.0)];
            for level in [0, c.params().max_level()] {
                assert!(matches!(
                    c.encode_at(&vals, scale, level),
                    Err(CkksError::Unencodable(_))
                ));
            }
            // A non-finite scale makes every coefficient non-finite.
            assert!(matches!(
                c.encode_at(&[Complex64::one()], bad, 0),
                Err(CkksError::Unencodable(_))
            ));
        }
    }

    #[test]
    fn encode_at_refuses_coefficients_past_half_the_level_modulus() {
        let c = ctx();
        let scale = c.params().scale();
        // A constant in every slot encodes to the constant coefficient Δ·v.
        let constant = |v: f64| vec![Complex64::new(v, 0.0); c.params().slots()];
        // Level 0: Q_0/2 ≈ 2^27 against Δ = 2^26.
        assert!(c.encode_at(&constant(1.0), scale, 0).is_ok());
        assert!(matches!(
            c.encode_at(&constant(4.0), scale, 0),
            Err(CkksError::Unencodable(_))
        ));
        // Level 3: Q_3 ≈ 2^112 still fits u128 and bounds the coefficient.
        let big = constant(94f64.exp2());
        assert!(matches!(
            c.encode_at(&big, scale, 3),
            Err(CkksError::Unencodable(_))
        ));
        // Top level: Q_7 ≈ 2^224, so 2^120 fits and 2^126 is the bound.
        assert!(c.encode_at(&big, scale, 7).is_ok());
        assert!(matches!(
            c.encode_at(&constant(100f64.exp2()), scale, 7),
            Err(CkksError::Unencodable(_))
        ));
    }
}
