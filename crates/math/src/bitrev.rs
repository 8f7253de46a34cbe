//! Bit-reversal permutation helpers shared by the NTT implementations.

/// Reverses the low `bits` bits of `x`.
///
/// # Examples
///
/// ```
/// use tensorfhe_math::bitrev::reverse_bits;
/// assert_eq!(reverse_bits(0b0011, 4), 0b1100);
/// assert_eq!(reverse_bits(1, 3), 4);
/// ```
#[inline]
#[must_use]
pub fn reverse_bits(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Side of the square tiles [`bit_reverse_permute`] moves: eight `u64`s are
/// one cache line.
const TILE: usize = 8;

/// Bit reversal of the three-bit tile coordinates.
const TILE_REV: [usize; TILE] = [0, 4, 2, 6, 1, 5, 3, 7];

/// Applies the in-place bit-reversal permutation to a slice whose length is a
/// power of two.
///
/// From 64 elements up the permutation is cache-blocked: with the index
/// split as `(r, m, s)` — three row bits, the middle bits, three column
/// bits — bit reversal sends `(r, m, s)` to `(brv s, brv m, brv r)`, so the
/// 8×8 tile of middle value `m` exchanges with the tile of `brv m`,
/// transposed and with both coordinates bit-reversed. Each pair of tiles
/// is read into two stack buffers and written back from them: every cache
/// line is read once and written once, no index is bit-reversed per element
/// beyond a three-bit table lookup, and no store sits between two loads
/// whose addresses agree in their low twelve bits (the power-of-two strides
/// of the naive swap loop make nearly all of them do).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute<T: Copy + Default>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    if n < TILE * TILE {
        for i in 0..n {
            let j = reverse_bits(i, bits);
            if i < j {
                data.swap(i, j);
            }
        }
        return;
    }
    let mid_bits = bits - 2 * TILE.trailing_zeros();
    let row_stride = n / TILE;
    let tile_row = |data: &[T], m: usize, r: usize| -> [T; TILE] {
        let at = r * row_stride + m * TILE;
        data[at..at + TILE].try_into().expect("tile row")
    };
    let write_tile = |data: &mut [T], m: usize, from: &[[T; TILE]; TILE]| {
        for r in 0..TILE {
            let at = r * row_stride + m * TILE;
            for (s, dst) in data[at..at + TILE].iter_mut().enumerate() {
                *dst = from[TILE_REV[s]][TILE_REV[r]];
            }
        }
    };
    let (mut ours, mut theirs) = ([[T::default(); TILE]; TILE], [[T::default(); TILE]; TILE]);
    for m in 0..1usize << mid_bits {
        let partner = reverse_bits(m, mid_bits);
        if m > partner {
            continue;
        }
        for r in 0..TILE {
            ours[r] = tile_row(data, m, r);
            theirs[r] = tile_row(data, partner, r);
        }
        write_tile(data, m, &theirs);
        if m != partner {
            write_tile(data, partner, &ours);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_roundtrip() {
        for bits in 1..16u32 {
            for x in [0usize, 1, (1 << bits) - 1, (1 << bits) / 3] {
                assert_eq!(reverse_bits(reverse_bits(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn permutation_is_involution() {
        let mut v: Vec<u32> = (0..64).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn known_order_8() {
        let mut v: Vec<u32> = (0..8).collect();
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn blocked_path_matches_definition() {
        // 2^6 is the first blocked size (one self-paired tile); odd and even
        // bit counts, and a non-u64 element type.
        for bits in [6u32, 7, 8, 11, 13, 16] {
            let n = 1usize << bits;
            let mut v: Vec<u32> = (0..n as u32).collect();
            bit_reverse_permute(&mut v);
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x as usize, reverse_bits(i, bits), "n=2^{bits} i={i}");
            }
        }
    }

    #[test]
    fn singleton_is_fixed() {
        let mut v = vec![42u8];
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![42]);
    }
}
