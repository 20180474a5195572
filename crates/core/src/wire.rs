//! The one wire codec: RPC frames, ORFS requests and responses, NBD
//! requests, KV payloads and the socket stream header are written through
//! [`Enc`] and read through [`Dec`], little-endian. [`Enc`] appends to a
//! caller's buffer (a recycled one keeps a warm path allocation-free);
//! [`Dec`] checks every read, so a short message is a typed [`Truncated`],
//! never a panic. Whether bytes may trail a message is each decoder's
//! rule, read off [`Dec::rest`]. Error codes travel as one table per
//! service, read both ways by [`code_of`] and [`from_code`]. The per-field
//! methods are `#[inline]`: every caller is in another crate.

/// A read ran past the end of the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Truncated;

/// Appends little-endian fields to a buffer, after what it already holds.
pub struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    #[inline]
    pub fn u8(self, v: u8) -> Self {
        self.buf.push(v);
        self
    }

    #[inline]
    pub fn u16(self, v: u16) -> Self {
        self.bytes(v.to_le_bytes())
    }

    #[inline]
    pub fn u32(self, v: u32) -> Self {
        self.bytes(v.to_le_bytes())
    }

    #[inline]
    pub fn u64(self, v: u64) -> Self {
        self.bytes(v.to_le_bytes())
    }

    /// Raw bytes, without a length.
    pub fn bytes(self, b: impl AsRef<[u8]>) -> Self {
        self.buf.extend_from_slice(b.as_ref());
        self
    }

    /// A `u16` length (`len as u16`; the caller bounds it), then the bytes.
    pub fn bytes_u16(self, b: impl AsRef<[u8]>) -> Self {
        let b = b.as_ref();
        self.u16(b.len() as u16).bytes(b)
    }

    /// A `u32` length (`len as u32`), then the bytes.
    pub fn bytes_u32(self, b: impl AsRef<[u8]>) -> Self {
        let b = b.as_ref();
        self.u32(b.len() as u32).bytes(b)
    }
}

/// Reads little-endian fields off the front of a message, bounds-checked.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let s = self.buf[self.pos..].get(..n).ok_or(Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        self.take(N)?.try_into().map_err(|_| Truncated)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u16` length, then that many bytes.
    pub fn bytes_u16(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u16()?;
        self.take(n.into())
    }

    /// A `u32` length, then that many bytes.
    #[inline]
    pub fn bytes_u32(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u32()?;
        self.take(n as usize)
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

/// `v`'s code in `table`: `i + 1` for `table[i]` (0 is the caller's). A
/// value missing from the table gets the next code, which [`from_code`] refuses.
pub fn code_of<T: PartialEq>(table: &[T], v: T) -> u8 {
    table.iter().position(|t| *t == v).unwrap_or(table.len()) as u8 + 1
}

/// The value code `code` names in `table` (see [`code_of`]); `None` for 0
/// and for any code past the table.
pub fn from_code<T: Copy>(table: &[T], code: u8) -> Option<T> {
    table.get(usize::from(code).checked_sub(1)?).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0xEE];
        Enc::new(&mut buf)
            .u8(1)
            .u16(0x0302)
            .u32(0x0706_0504)
            .u64(0x0f0e_0d0c_0b0a_0908)
            .bytes_u16(b"ab")
            .bytes_u32(b"cde")
            .bytes(b"f");
        buf
    }

    #[test]
    fn fields_are_little_endian_and_appended() {
        let mut want = vec![0xEE];
        want.extend(1..=15);
        want.extend([2, 0, b'a', b'b', 3, 0, 0, 0, b'c', b'd', b'e', b'f']);
        assert_eq!(sample(), want);
    }

    #[test]
    fn every_field_reads_back() {
        let buf = sample();
        let mut d = Dec::new(&buf[1..]);
        assert_eq!(d.u8(), Ok(1));
        assert_eq!(d.u16(), Ok(0x0302));
        assert_eq!(d.u32(), Ok(0x0706_0504));
        assert_eq!(d.u64(), Ok(0x0f0e_0d0c_0b0a_0908));
        assert_eq!(d.bytes_u16(), Ok(&b"ab"[..]));
        assert_eq!(d.bytes_u32(), Ok(&b"cde"[..]));
        assert_eq!(d.pos(), buf.len() - 2);
        assert_eq!(d.rest(), b"f");
        assert_eq!(d.take(1), Ok(&b"f"[..]));
        assert!(d.rest().is_empty());
    }

    /// Each read, on every prefix of a message too short for it, is
    /// `Truncated`; on the whole message it succeeds.
    #[test]
    fn every_read_past_the_end_is_truncated() {
        type Read = fn(&mut Dec) -> Result<usize, Truncated>;
        let reads: [(&[u8], Read); 7] = [
            (&[7], |d| d.u8().map(usize::from)),
            (&[7; 2], |d| d.u16().map(usize::from)),
            (&[7; 4], |d| d.u32().map(|v| v as usize)),
            (&[7; 8], |d| d.u64().map(|v| v as usize)),
            (&[1, 0, 7], |d| d.bytes_u16().map(<[u8]>::len)),
            (&[1, 0, 0, 0, 7], |d| d.bytes_u32().map(<[u8]>::len)),
            (&[7; 9], |d| d.take(9).map(<[u8]>::len)),
        ];
        for (msg, read) in reads {
            for cut in 0..msg.len() {
                let got = read(&mut Dec::new(&msg[..cut]));
                assert_eq!(got, Err(Truncated), "{msg:?} cut at {cut}");
            }
            assert!(read(&mut Dec::new(msg)).is_ok(), "{msg:?}");
        }
        assert_eq!(Dec::new(&[]).take(usize::MAX), Err(Truncated));
    }

    #[test]
    fn a_length_past_the_end_is_truncated() {
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2];
        assert_eq!(Dec::new(&buf).bytes_u16(), Err(Truncated));
        assert_eq!(Dec::new(&buf).bytes_u32(), Err(Truncated));
    }

    #[test]
    fn one_table_reads_both_ways() {
        let table = ['a', 'b', 'c'];
        for (i, v) in table.into_iter().enumerate() {
            let code = code_of(&table, v);
            assert_eq!(usize::from(code), i + 1);
            assert_eq!(from_code(&table, code), Some(v));
        }
        assert_eq!(code_of(&table, 'z'), 4, "a missing value is past the table");
        assert_eq!(from_code(&table, 0), None);
        assert_eq!(from_code(&table, 4), None);
        assert_eq!(from_code(&table, u8::MAX), None);
    }
}
