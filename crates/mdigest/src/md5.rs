//! The MD5 compression function and streaming context (RFC 1321).

use crate::Digest128;

/// Streaming MD5 context.
///
/// Feed data with [`update`](Md5::update) and produce the digest with
/// [`finalize`](Md5::finalize).
///
/// # Examples
///
/// ```
/// let mut ctx = mdigest::Md5::new();
/// ctx.update(b"message ");
/// ctx.update(b"digest");
/// assert_eq!(ctx.finalize().to_hex(), "f96b697d7cb7938d525a2f31aaf161d0");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64).
    len: u64,
    buf: [u8; 64],
    /// Bytes buffered in `buf`; always `< 64` between calls.
    buf_len: usize,
}

impl Md5 {
    /// Creates a fresh context with the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            if self.buf_len < 64 {
                // Everything fit in the partial block (possibly nothing
                // arrived); the buffered tail must survive this call.
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
            rest = &rest[take..];
        }
        // Full blocks compress straight from the caller's slice.
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Appends the 64-bit little-endian length of a `u64` to the digest state.
    ///
    /// Convenience for hashing integers without allocating.
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// Appends a UTF-8 string, prefixed with its length to keep the encoding
    /// unambiguous when hashing sequences of strings.
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// Pads the message and returns the final digest, consuming the context.
    pub fn finalize(mut self) -> Digest128 {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit bit length.
        // When the 0x80 lands past byte 55 the length no longer fits, so the
        // padding spills into a second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf[..56].fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest128::from_bytes(out)
    }
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

/// One MD5 step: `a = b + ((a + f(b, c, d) + m + k) <<< s)`.
macro_rules! step {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($f($b, $c, $d))
                .wrapping_add($m)
                .wrapping_add($k)
                .rotate_left($s),
        );
    };
}

#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    // (b & c) | (!b & d), with one operation fewer.
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    // (b & d) | (c & !d)
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// The RFC 1321 compression function, unrolled: each round's message-word
/// order, rotation amounts and sine-derived constants
/// (`floor(2^32 * |sin(j + 1)|)` for step `j`) are written out in place.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;

    // Round 1: m[j].
    step!(f, a, b, c, d, m[0], 0xd76a_a478, 7);
    step!(f, d, a, b, c, m[1], 0xe8c7_b756, 12);
    step!(f, c, d, a, b, m[2], 0x2420_70db, 17);
    step!(f, b, c, d, a, m[3], 0xc1bd_ceee, 22);
    step!(f, a, b, c, d, m[4], 0xf57c_0faf, 7);
    step!(f, d, a, b, c, m[5], 0x4787_c62a, 12);
    step!(f, c, d, a, b, m[6], 0xa830_4613, 17);
    step!(f, b, c, d, a, m[7], 0xfd46_9501, 22);
    step!(f, a, b, c, d, m[8], 0x6980_98d8, 7);
    step!(f, d, a, b, c, m[9], 0x8b44_f7af, 12);
    step!(f, c, d, a, b, m[10], 0xffff_5bb1, 17);
    step!(f, b, c, d, a, m[11], 0x895c_d7be, 22);
    step!(f, a, b, c, d, m[12], 0x6b90_1122, 7);
    step!(f, d, a, b, c, m[13], 0xfd98_7193, 12);
    step!(f, c, d, a, b, m[14], 0xa679_438e, 17);
    step!(f, b, c, d, a, m[15], 0x49b4_0821, 22);

    // Round 2: m[(5j + 1) mod 16].
    step!(g, a, b, c, d, m[1], 0xf61e_2562, 5);
    step!(g, d, a, b, c, m[6], 0xc040_b340, 9);
    step!(g, c, d, a, b, m[11], 0x265e_5a51, 14);
    step!(g, b, c, d, a, m[0], 0xe9b6_c7aa, 20);
    step!(g, a, b, c, d, m[5], 0xd62f_105d, 5);
    step!(g, d, a, b, c, m[10], 0x0244_1453, 9);
    step!(g, c, d, a, b, m[15], 0xd8a1_e681, 14);
    step!(g, b, c, d, a, m[4], 0xe7d3_fbc8, 20);
    step!(g, a, b, c, d, m[9], 0x21e1_cde6, 5);
    step!(g, d, a, b, c, m[14], 0xc337_07d6, 9);
    step!(g, c, d, a, b, m[3], 0xf4d5_0d87, 14);
    step!(g, b, c, d, a, m[8], 0x455a_14ed, 20);
    step!(g, a, b, c, d, m[13], 0xa9e3_e905, 5);
    step!(g, d, a, b, c, m[2], 0xfcef_a3f8, 9);
    step!(g, c, d, a, b, m[7], 0x676f_02d9, 14);
    step!(g, b, c, d, a, m[12], 0x8d2a_4c8a, 20);

    // Round 3: m[(3j + 5) mod 16].
    step!(h, a, b, c, d, m[5], 0xfffa_3942, 4);
    step!(h, d, a, b, c, m[8], 0x8771_f681, 11);
    step!(h, c, d, a, b, m[11], 0x6d9d_6122, 16);
    step!(h, b, c, d, a, m[14], 0xfde5_380c, 23);
    step!(h, a, b, c, d, m[1], 0xa4be_ea44, 4);
    step!(h, d, a, b, c, m[4], 0x4bde_cfa9, 11);
    step!(h, c, d, a, b, m[7], 0xf6bb_4b60, 16);
    step!(h, b, c, d, a, m[10], 0xbebf_bc70, 23);
    step!(h, a, b, c, d, m[13], 0x289b_7ec6, 4);
    step!(h, d, a, b, c, m[0], 0xeaa1_27fa, 11);
    step!(h, c, d, a, b, m[3], 0xd4ef_3085, 16);
    step!(h, b, c, d, a, m[6], 0x0488_1d05, 23);
    step!(h, a, b, c, d, m[9], 0xd9d4_d039, 4);
    step!(h, d, a, b, c, m[12], 0xe6db_99e5, 11);
    step!(h, c, d, a, b, m[15], 0x1fa2_7cf8, 16);
    step!(h, b, c, d, a, m[2], 0xc4ac_5665, 23);

    // Round 4: m[7j mod 16].
    step!(i, a, b, c, d, m[0], 0xf429_2244, 6);
    step!(i, d, a, b, c, m[7], 0x432a_ff97, 10);
    step!(i, c, d, a, b, m[14], 0xab94_23a7, 15);
    step!(i, b, c, d, a, m[5], 0xfc93_a039, 21);
    step!(i, a, b, c, d, m[12], 0x655b_59c3, 6);
    step!(i, d, a, b, c, m[3], 0x8f0c_cc92, 10);
    step!(i, c, d, a, b, m[10], 0xffef_f47d, 15);
    step!(i, b, c, d, a, m[1], 0x8584_5dd1, 21);
    step!(i, a, b, c, d, m[8], 0x6fa8_7e4f, 6);
    step!(i, d, a, b, c, m[15], 0xfe2c_e6e0, 10);
    step!(i, c, d, a, b, m[6], 0xa301_4314, 15);
    step!(i, b, c, d, a, m[13], 0x4e08_11a1, 21);
    step!(i, a, b, c, d, m[4], 0xf753_7e82, 6);
    step!(i, d, a, b, c, m[11], 0xbd3a_f235, 10);
    step!(i, c, d, a, b, m[2], 0x2ad7_d2bb, 15);
    step!(i, b, c, d, a, m[9], 0xeb86_d391, 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_str_is_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must hash differently because the
        // length prefix disambiguates the boundaries.
        let mut x = Md5::new();
        x.update_str("ab");
        x.update_str("c");
        let mut y = Md5::new();
        y.update_str("a");
        y.update_str("bc");
        assert_ne!(x.finalize(), y.finalize());
    }

    #[test]
    fn update_u64_equals_le_bytes() {
        let mut x = Md5::new();
        x.update_u64(0xdead_beef_0102_0304);
        let mut y = Md5::new();
        y.update(&0xdead_beef_0102_0304u64.to_le_bytes());
        assert_eq!(x.finalize(), y.finalize());
    }

    #[test]
    fn exactly_one_block() {
        // 64 bytes: padding must spill into a second block.
        let data = [0xabu8; 64];
        let d = crate::md5(&data);
        // Reference value computed with the standard md5 implementation.
        assert_eq!(d.to_hex(), "5bb6f6136cad3c71da7caae9a81b6492");
        let mut ctx = Md5::new();
        ctx.update(&data[..31]);
        ctx.update(&data[31..]);
        assert_eq!(ctx.finalize(), d);
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_messages() {
        // 55 bytes fits padding in one block, 56 forces two; both must work.
        for n in [55usize, 56, 57, 63, 64, 65] {
            let data = vec![b'x'; n];
            let a = crate::md5(&data);
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), a, "length {n}");
        }
    }

    #[test]
    fn every_split_with_an_empty_update_matches_oneshot() {
        // Every length across the one- and two-block padding cases and a
        // few full blocks, split at every point with an empty update in
        // between: a buffered tail must survive the empty call.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let oneshot = crate::md5(msg);
            for split in 0..=len {
                let mut ctx = Md5::new();
                ctx.update(&msg[..split]);
                ctx.update(&[]);
                ctx.update(&msg[split..]);
                assert_eq!(ctx.finalize(), oneshot, "length {len}, split {split}");
            }
        }
    }
}
