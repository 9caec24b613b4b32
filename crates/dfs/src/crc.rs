//! CRC32 (IEEE 802.3 polynomial, the one HDFS's `ChecksumFileSystem` uses)
//! with compile-time lookup tables. Per-chunk checksums computed at write
//! time let the reader detect both at-rest tampering and simulated wire
//! corruption instead of handing garbage bytes to a SerDe.
//!
//! The kernel is slicing-by-16: table `k` maps a byte to its CRC
//! contribution when it is followed by `k` more bytes, so one step folds 16
//! input bytes with 16 independent lookups instead of a 16-deep chain of
//! dependent ones. The result is the plain bytewise CRC's, bit for bit.

const POLY: u32 = 0xedb88320;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

static TABLES: [[u32; 256]; SLICE] = tables();

const fn tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Advance the (pre-inverted) CRC `state` over `data`.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(SLICE);
    for c in &mut chunks {
        let s = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[15][(s & 0xff) as usize]
            ^ t[14][((s >> 8) & 0xff) as usize]
            ^ t[13][((s >> 16) & 0xff) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Streaming variant for checksumming a block image assembled from pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC by its definition: one bit at a time, no table.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn random_bytes(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello distributed filesystem";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn sliced_kernel_equals_the_bitwise_definition() {
        let data = random_bytes(64 + SLICE, 0x9e37_79b9_7f4a_7c15);
        for align in 0..SLICE {
            for len in 0..=64 {
                let piece = &data[align..align + len];
                assert_eq!(
                    crc32(piece),
                    bitwise_crc32(piece),
                    "len {len} at alignment {align}"
                );
            }
        }
        let big = random_bytes(1 << 20, 0x2545_f491_4f6c_dd1d);
        assert_eq!(crc32(&big), bitwise_crc32(&big));
    }

    #[test]
    fn streaming_split_anywhere_matches_one_shot() {
        let data = random_bytes(4099, 0x853c_49e6_748f_ea9b);
        let whole = crc32(&data);
        for cut in [0usize, 1, 7, 15, 16, 17, 100, 2048, 4095, 4098, 4099] {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
        // Many uneven pieces, none a multiple of the slice width.
        let mut c = Crc32::new();
        let mut start = 0;
        for step in (1..40).cycle() {
            let end = (start + step).min(data.len());
            c.update(&data[start..end]);
            start = end;
            if start == data.len() {
                break;
            }
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let clean = vec![0xa5u8; 4096];
        let base = crc32(&clean);
        for pos in [0usize, 1, 2047, 4095] {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[pos] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at {pos}:{bit} undetected");
            }
        }
    }
}
