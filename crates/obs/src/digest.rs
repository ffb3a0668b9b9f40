//! 64-bit FNV-1a: the one hash behind every pinned digest in the
//! workspace (trace, campaign, differential fuzz, fleet and golden-file
//! digests).
//!
//! Digests are folds: start from [`FNV_OFFSET`] and feed bytes in a
//! fixed order. Changing either constant or the byte layout a caller
//! feeds invalidates every golden digest, so the test vectors below pin
//! the primitive itself.

/// The FNV-1a 64-bit offset basis — the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running digest `h`.
#[inline]
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds the little-endian bytes of `v` into the running digest `h`.
#[inline]
pub fn fold_u64(h: u64, v: u64) -> u64 {
    fold_bytes(h, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_the_fnv1a_64_test_vectors() {
        assert_eq!(fold_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fold_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold_bytes(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
