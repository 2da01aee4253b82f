//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The trace format stores almost every field as an unsigned LEB128
//! varint: 7 payload bits per byte, continuation in the high bit,
//! little-endian. Address deltas, which can be negative, are first folded
//! through the zigzag mapping so that small magnitudes of either sign stay
//! small.

use crate::TraceError;

/// Appends `v` to `buf` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Maps a signed value to unsigned so small magnitudes encode short:
/// `0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked read position over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn truncated(&self, what: &str) -> TraceError {
        TraceError::Malformed {
            offset: self.pos,
            reason: format!("truncated {what}"),
        }
    }

    /// Reads one raw byte.
    #[inline]
    pub fn read_u8(&mut self, what: &str) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one unsigned LEB128 varint.
    ///
    /// Most trace fields fit in one byte, so that case is inlined. A
    /// longer value of up to nine bytes (63 bits: every address below
    /// 2^63) decodes with one bounds check when ten bytes remain. A
    /// ten-byte value, the buffer's last bytes and every error take the
    /// out-of-line loop, which starts from the same position and so
    /// reports the same offsets and messages.
    #[inline]
    pub fn read_u64(&mut self, what: &str) -> Result<u64, TraceError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte & 0x80 == 0 => {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
            None => return self.read_u64_multi(what),
            Some(_) => {}
        }
        if let Some(bytes) = self.buf.get(self.pos..self.pos + 10) {
            // Nine payloads of seven bits cannot overflow.
            let mut v = 0u64;
            for (i, &byte) in bytes[..9].iter().enumerate() {
                v |= u64::from(byte & 0x7f) << (7 * i);
                if byte & 0x80 == 0 {
                    self.pos += i + 1;
                    return Ok(v);
                }
            }
        }
        self.read_u64_multi(what)
    }

    #[inline(never)]
    fn read_u64_multi(&mut self, what: &str) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8(what)?;
            let payload = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(TraceError::Malformed {
                    offset: self.pos,
                    reason: format!("varint overflow in {what}"),
                });
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Consumes the next `N` bytes when each is a whole one-byte varint
    /// (high bit clear) and returns them; otherwise consumes nothing and
    /// returns `None`. A fast path for runs of small fields, which the
    /// caller falls back from to [`Cursor::read_u64`] per field.
    #[inline]
    pub fn read_small<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let bytes: [u8; N] = self.buf.get(self.pos..end)?.try_into().ok()?;
        if bytes.iter().any(|b| b & 0x80 != 0) {
            return None;
        }
        self.pos = end;
        Some(bytes)
    }

    /// Reads one zigzag-folded signed varint.
    #[inline]
    pub fn read_i64(&mut self, what: &str) -> Result<i64, TraceError> {
        Ok(unzigzag(self.read_u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        let probes = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &probes {
            write_u64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &probes {
            assert_eq!(cur.read_u64("probe").unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -2, 2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// The typed error `read_u64` gives on `buf` after first reading
    /// `skip` values.
    fn malformed_after(buf: &[u8], skip: usize) -> (usize, String) {
        let mut cur = Cursor::new(buf);
        for _ in 0..skip {
            cur.read_u64("x").unwrap();
        }
        match cur.read_u64("x") {
            Err(TraceError::Malformed { offset, reason }) => (offset, reason),
            other => panic!("expected a malformed varint, got {other:?}"),
        }
    }

    #[test]
    fn truncated_varint_is_an_error() {
        // A lone continuation byte at the end of the buffer.
        assert_eq!(malformed_after(&[0x80], 0), (1, "truncated x".into()));
        assert_eq!(malformed_after(&[0x05, 0x80], 1), (2, "truncated x".into()));
    }

    #[test]
    fn overlong_varint_is_an_error() {
        // Eleven continuation bytes: the tenth byte's payload overflows.
        assert_eq!(
            malformed_after(&[0xff; 11], 0),
            (10, "varint overflow in x".into())
        );
        // A value of 0 padded to eleven bytes: the tenth byte's payload
        // fits, the eleventh starts past bit 63.
        let mut buf = [0x80; 11];
        buf[10] = 0x00;
        assert_eq!(
            malformed_after(&buf, 0),
            (11, "varint overflow in x".into())
        );
    }

    #[test]
    fn one_byte_value_at_end_of_buffer() {
        let mut cur = Cursor::new(&[0x85, 0x01, 0x7f]);
        assert_eq!(cur.read_u64("x").unwrap(), 133);
        assert_eq!(cur.read_u64("x").unwrap(), 127);
        assert_eq!(cur.pos(), 3);
        assert!(cur.is_empty());
        // Reading past the end is a truncation at the end offset.
        assert_eq!(malformed_after(&[0x05], 1), (1, "truncated x".into()));
    }

    #[test]
    fn ten_byte_max_value_round_trips() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], 0x01);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.read_u64("x").unwrap(), u64::MAX);
        assert_eq!(cur.pos(), 10);
        // One more payload bit in the tenth byte no longer fits.
        buf[9] = 0x02;
        assert_eq!(
            malformed_after(&buf, 0),
            (10, "varint overflow in x".into())
        );
    }

    /// Every varint length decodes to the same value and end position
    /// whether ten bytes remain (the fast path) or fewer (the loop).
    #[test]
    fn fast_path_and_loop_agree_on_every_length() {
        for bits in 0..64 {
            for v in [1u64 << bits, (1u64 << bits) - 1, u64::MAX >> (63 - bits)] {
                let mut buf = Vec::new();
                write_u64(&mut buf, v);
                let len = buf.len();
                let mut cur = Cursor::new(&buf);
                assert_eq!(cur.read_u64("x").unwrap(), v);
                assert_eq!(cur.pos(), len);
                buf.extend_from_slice(&[0xff; 10]);
                let mut cur = Cursor::new(&buf);
                assert_eq!(cur.read_u64("x").unwrap(), v);
                assert_eq!(cur.pos(), len);
            }
        }
    }

    #[test]
    fn bounds_checked_reads() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.read_bytes(2, "x").unwrap(), &[1, 2]);
        assert!(cur.read_bytes(2, "x").is_err());
        assert_eq!(cur.read_u8("x").unwrap(), 3);
        assert!(cur.read_u8("x").is_err());
    }
}
