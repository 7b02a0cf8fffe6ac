//! CRC-32 (IEEE, reflected) for torn-write detection in log records, page
//! trailers and append-only store nodes and headers.
//!
//! One function, [`crc32`], with two kernels behind it; both produce the
//! values of the byte-at-a-time table loop, so nothing written on media
//! depends on which one ran.
//!
//! * On x86_64, a buffer of at least 64 bytes is folded 128 bits at a time by
//!   carry-less multiplication (PCLMULQDQ) when the CPU has it and SSE4.1
//!   ("Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//!   Intel, 2009). The CPU's features are the only input to that choice.
//! * Everything else goes through slicing-by-8: eight bytes per step through
//!   eight 256-entry tables built at compile time, then the tail one byte per
//!   step through the first table.

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
    #[cfg(target_arch = "x86_64")]
    if let Some(c) = clmul::update(0xFFFF_FFFF, data) {
        return c ^ 0xFFFF_FFFF;
    }
    sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the CRC state `c` over `data` by slicing-by-8.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    bytes(c, words.remainder())
}

/// Advance the CRC state `c` over `data`, one table lookup per byte.
fn bytes(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folded kernel. Four 128-bit lanes fold forward by 512 bits per
/// 64-byte step, then into one lane, which folds forward by 128 bits per
/// 16-byte block; the remainder reduces 128 → 64 bits, then to 32 by Barrett
/// reduction, and the tail under 16 bytes goes through the byte table. The
/// constants are the paper's for the bit-reflected polynomial: `K1..K5` are
/// `(x^e mod P << 32)' << 1` for the exponent noted beside each, `P_X` is
/// `P` and `MU` is `(x^64 / P)'`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest buffer the kernel takes: one block per lane.
    const MIN_LEN: usize = 64;

    const K1: i64 = 0x1_5444_2BD4; // e = 4*128+32
    const K2: i64 = 0x1_C6E4_1596; // e = 4*128-32
    const K3: i64 = 0x1_7519_97D0; // e = 128+32
    const K4: i64 = 0x0_CCAA_009E; // e = 128-32
    const K5: i64 = 0x1_63CD_6124; // e = 64
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`fold`]. The standard library detects the
    /// features once per process and caches them.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The CRC state `c` advanced over `data`, or `None` when the kernel does
    /// not take it: fewer than [`MIN_LEN`] bytes, or a CPU without the
    /// instructions.
    pub(super) fn update(c: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN || !available() {
            return None;
        }
        // SAFETY: `fold` requires PCLMULQDQ and SSE4.1, and `available`
        // has just confirmed that this CPU has both.
        Some(unsafe { fold(c, data) })
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and an unaligned load has no
        // other requirement (SSE2 is part of every x86_64 CPU).
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried forward over the distance `k` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// The CRC state `c` advanced over `data`, which must hold at least
    /// [`MIN_LEN`] bytes (it panics otherwise). Outside code compiled for
    /// both features, only a caller that has checked [`available`] may call
    /// it, as [`update`] does.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_first_chunk::<4>().expect("at least MIN_LEN bytes");
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_into(x, lane, k3k4);
        }
        for block in singles {
            x = fold_into(x, load(block), k3k4);
        }
        // 128 → 64 bits: the low half folded into the high half, then the
        // low 32 bits of that folded into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // 64 → 32 bits by Barrett reduction; reflected, the remainder is the
        // upper half.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::bytes(c, tail)
    }
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

    /// Every code path's CRC of `data`, named: the public function, the
    /// slicing-by-8 fallback, and the folded kernel where this CPU runs it.
    fn every_kernel(data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out =
            vec![("crc32", crc32(data)), ("sliced", sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF)];
        #[cfg(target_arch = "x86_64")]
        if let Some(c) = clmul::update(0xFFFF_FFFF, data) {
            out.push(("folded", c ^ 0xFFFF_FFFF));
        }
        out
    }

    fn assert_all_match(data: &[u8], what: &str) {
        let want = crc32_reference(data);
        for (kernel, got) in every_kernel(data) {
            assert_eq!(got, want, "{kernel}: {what}");
        }
    }

    #[test]
    fn folded_kernel_runs_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            assert_eq!(every_kernel(&[0u8; 64]).len(), 3);
            assert_eq!(every_kernel(&[0u8; 63]).len(), 2, "below 64 bytes the sliced path runs");
            return;
        }
        eprintln!("no PCLMULQDQ + SSE4.1 on this CPU: the folded kernel is not tested");
    }

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    /// What is on media is pinned: these values were computed by the
    /// byte-at-a-time loop that wrote every page trailer and log frame
    /// before the faster kernels, so a kernel that changes them fails here.
    #[test]
    fn on_media_values_are_pinned() {
        // A page body: the 4,092 bytes a 4 KiB page's trailer CRC covers.
        let page: Vec<u8> =
            (0..4092u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8).collect();
        // A WAL file header: magic, then the checkpoint LSN.
        let mut header = [0u8; 16];
        header[..8].copy_from_slice(&0x5741_4C48_4452_3031u64.to_le_bytes());
        header[8..].copy_from_slice(&0x1234_5678_9ABCu64.to_le_bytes());
        for (data, want) in
            [(&page[..], 0x5310_D709), (&header[..], 0xB363_8749), (b"123456789", 0xCBF4_3926)]
        {
            for (kernel, got) in every_kernel(data) {
                assert_eq!(got, want, "{kernel}: {} bytes", data.len());
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 64];
        let a = crc32(&data);
        data[20] ^= 0x10;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn matches_reference_at_every_length_and_offset() {
        // Every length across the 64-byte switch between the kernels and
        // every 16-byte tail of the folded one, at every alignment of the
        // slice start within a 16-byte load.
        let mut r = rng(0xC2C);
        let buf: Vec<u8> = (0..1024 + 16).map(|_| r.gen::<u8>()).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                assert_all_match(&buf[start..start + len], &format!("start {start} len {len}"));
            }
        }
    }

    #[test]
    fn matches_reference_on_random_buffers() {
        let mut r = rng(0x51C8);
        for _ in 0..64 {
            let len = r.gen_range(0..=64 * 1024usize);
            let buf: Vec<u8> = (0..len).map(|_| r.gen::<u8>()).collect();
            assert_all_match(&buf, &format!("len {len}"));
        }
    }
}
