//! 64-bit FNV-1a: the one hash behind checkpoint checksums, fault-site
//! seeding and the result hashes clients compare across runs. It detects
//! truncation, bit rot and bitwise result changes — not tampering.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state.
fn extend(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    extend(OFFSET, bytes)
}

/// FNV-1a over the little-endian bytes of a `u32` array.
pub fn hash_u32s(xs: &[u32]) -> u64 {
    xs.iter().fold(OFFSET, |h, x| extend(h, &x.to_le_bytes()))
}

/// FNV-1a over the IEEE-754 bit patterns of an `f64` array — equal
/// hashes mean bit-identical vectors (`0.0` and `-0.0` differ).
pub fn hash_f64s(xs: &[f64]) -> u64 {
    xs.iter().fold(OFFSET, |h, x| extend(h, &x.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned values: result hashes travel in responses and are compared
    /// across builds, so the bytes hashed and their order must not move.
    #[test]
    fn hashes_are_pinned() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_u32s(&[1, 2, 3]), fnv1a(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]));
        assert_eq!(hash_u32s(&[1, 2, 3]), 0xfd1f_0f43_81eb_0395);
        assert_eq!(hash_f64s(&[1.0]), 0xaab1_6932_29ba_1db8);
    }
}
