//! Property-based tests of the modular arithmetic and CRT substrate.

use proptest::prelude::*;
use tensorfhe_math::crt::RnsBasis;
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_math::{Modulus, ShoupMul};

const P30: u64 = (1 << 30) - 35;
const P61: u64 = (1 << 61) - 1;

proptest! {
    #[test]
    fn mul_matches_u128_reference(a in 0..P61, b in 0..P61) {
        let m = Modulus::new(P61);
        prop_assert_eq!(m.mul(a, b), (a as u128 * b as u128 % P61 as u128) as u64);
    }

    #[test]
    fn reduce_u128_matches_reference(x in any::<u128>()) {
        let m = Modulus::new(P30);
        prop_assert_eq!(m.reduce_u128(x), (x % P30 as u128) as u64);
    }

    #[test]
    fn field_axioms(a in 0..P30, b in 0..P30, c in 0..P30) {
        let m = Modulus::new(P30);
        // Commutativity and associativity of both operations.
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.mul(a, b), m.mul(b, a));
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        prop_assert_eq!(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)));
        // Distributivity.
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
    }

    #[test]
    fn inverses_cancel(a in 1..P30) {
        let m = Modulus::new(P30);
        prop_assert_eq!(m.mul(a, m.inv(a)), 1);
        prop_assert_eq!(m.add(a, m.neg(a)), 0);
    }

    #[test]
    fn shoup_agrees_with_barrett(w in 0..P30, x in 0..P30) {
        let m = Modulus::new(P30);
        let s = ShoupMul::new(w, &m);
        prop_assert_eq!(s.mul(x, &m), m.mul(w, x));
    }

    #[test]
    fn pow_is_repeated_multiplication(base in 0..P30, exp in 0u64..64) {
        let m = Modulus::new(P30);
        let mut want = 1u64;
        for _ in 0..exp {
            want = m.mul(want, base);
        }
        prop_assert_eq!(m.pow(base, exp), want);
    }

    #[test]
    fn centered_representation_roundtrips(v in -(1i64 << 40)..(1i64 << 40)) {
        let m = Modulus::new(P61);
        prop_assert_eq!(m.to_centered(m.from_i64(v)), v);
    }
}

/// The moduli the slice-kernel properties run over: the extremes of the
/// CKKS range (20, 28 and 31 bits, the last the largest NTT prime below
/// 2^31) on the word-size path, and a 32- and a 59-bit prime on the wide
/// one.
fn slice_kernel_moduli() -> Vec<Modulus> {
    [20, 28, 31, 32, 59]
        .iter()
        .map(|&bits| Modulus::new(generate_ntt_primes(1, bits, 1 << 8)[0]))
        .collect()
}

/// A vector of residues with both range ends planted: `q − 1` first,
/// `0` second, the rest drawn from `seed`.
fn residues(m: &Modulus, len: usize, seed: u64) -> Vec<u64> {
    let q = m.value();
    let mut state = seed;
    (0..len)
        .map(|i| match i {
            0 => q - 1,
            1 => 0,
            _ => {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 1) % q
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every slice kernel against the scalar `Modulus::{mul, add, sub}` it
    /// replaces, element for element, at lengths on both sides of a vector
    /// width; `q − 1` operands meet each other in the first element.
    #[test]
    fn slice_kernels_match_scalar_ops(len in 2usize..70, seed in any::<u64>()) {
        for m in slice_kernel_moduli() {
            let q = m.value();
            prop_assert_eq!(m.is_word_size(), q < 1 << 31);
            let (a, b, acc) = (residues(&m, len, seed), residues(&m, len, !seed), residues(&m, len, seed ^ 0x5eed));
            for c in [0, 1, q / 2, q - 1, b[len - 1]] {
                let mut got = a.clone();
                m.scale_slice(&mut got, c);
                let want: Vec<u64> = a.iter().map(|&x| m.mul(x, c)).collect();
                prop_assert_eq!(&got, &want, "scale_slice q={} c={}", q, c);

                let mut got = a.clone();
                m.sub_scale_slice(&mut got, &b, c);
                let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(m.sub(x, y), c)).collect();
                prop_assert_eq!(&got, &want, "sub_scale_slice q={} c={}", q, c);
            }
            let mut got = a.clone();
            m.mul_slice(&mut got, &b);
            let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
            prop_assert_eq!(&got, &want, "mul_slice q={}", q);
            prop_assert_eq!(&m.mul_to_vec(&a, &b), &want, "mul_to_vec q={}", q);

            let mut got = acc.clone();
            m.mul_acc_slice(&mut got, &a, &b);
            let want: Vec<u64> = acc
                .iter()
                .zip(a.iter().zip(&b))
                .map(|(&s, (&x, &y))| m.add(s, m.mul(x, y)))
                .collect();
            prop_assert_eq!(&got, &want, "mul_acc_slice q={}", q);
        }
    }

    /// The lazy 32-bit Shoup product stays in `[0, 2q)` and congruent to
    /// `w·x` for every `x < 2^32`, reduced or not.
    #[test]
    fn shoup32_lazy_product_is_in_range(w_seed in any::<u64>(), x in 0u64..(1 << 32)) {
        for m in slice_kernel_moduli().into_iter().filter(Modulus::is_word_size) {
            let q = m.value();
            for w in [0, 1, q - 1, w_seed % q] {
                let ws = m.shoup32(w);
                for x in [x, 0, q - 1, 2 * q - 1, (1 << 32) - 1] {
                    let r = m.mul_shoup32_lazy(w, ws, x);
                    prop_assert!(r < 2 * q, "q={} w={} x={} r={}", q, w, x, r);
                    prop_assert_eq!(r % q, m.mul(w, m.reduce(x)));
                }
            }
        }
    }

    #[test]
    fn crt_compose_decompose_roundtrip(v in -(1i128 << 80)..(1i128 << 80)) {
        let primes = generate_ntt_primes(4, 28, 1 << 8);
        let basis = RnsBasis::new(&primes);
        let residues = basis.decompose_i128(v);
        prop_assert_eq!(basis.compose_centered(&residues), v);
    }

    #[test]
    fn crt_is_additive(a in -(1i128 << 60)..(1i128 << 60), b in -(1i128 << 60)..(1i128 << 60)) {
        let primes = generate_ntt_primes(3, 28, 1 << 8);
        let basis = RnsBasis::new(&primes);
        let ra = basis.decompose_i128(a);
        let rb = basis.decompose_i128(b);
        let sum: Vec<u64> = ra
            .iter()
            .zip(&rb)
            .zip(basis.moduli())
            .map(|((&x, &y), m)| m.add(x, y))
            .collect();
        prop_assert_eq!(basis.compose_centered(&sum), a + b);
    }
}
