//! CRC-32 (IEEE, reflected) for torn-write detection in log records, page
//! trailers and append-only store nodes and headers.
//!
//! Slicing-by-8: eight bytes per step through eight 256-entry tables built
//! at compile time, then the tail one byte per step through the first table.
//! [`crc32_bytewise`] runs that tail step over the whole buffer.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    bytes(c, words.remainder()) ^ 0xFFFF_FFFF
}

/// [`crc32`] one byte per step: the same values at about a quarter of the
/// speed. `relstore` page trailers and the `wal` block framing stay on it
/// until the repo benchmark can resolve what [`crc32`] does to `tpcc_rel`
/// and `linkbench_rel` (DESIGN.md, "Checksums"); moving them over is their
/// eight call sites and nothing else.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    bytes(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the CRC state `c` over `data`, one table lookup per byte.
fn bytes(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{rng, Rng};

    /// Bit-at-a-time reference: no tables, the polynomial applied per bit.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 64];
        let a = crc32(&data);
        data[20] ^= 0x10;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn matches_reference_at_every_short_length_and_offset() {
        // Every split between the 8-byte steps and the byte tail, at every
        // alignment of the slice start.
        let mut r = rng(0xC2C);
        let buf: Vec<u8> = (0..80).map(|_| r.gen::<u8>()).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
                assert_eq!(crc32_bytewise(s), crc32_reference(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_random_buffers() {
        let mut r = rng(0x51C8);
        for _ in 0..64 {
            let len = r.gen_range(0..=64 * 1024usize);
            let buf: Vec<u8> = (0..len).map(|_| r.gen::<u8>()).collect();
            assert_eq!(crc32(&buf), crc32_reference(&buf), "len {len}");
            assert_eq!(crc32_bytewise(&buf), crc32_reference(&buf), "len {len}");
        }
    }
}
