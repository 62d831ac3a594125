//! Little-endian primitives of the one binary on-disk format (the
//! journal's records): appenders that write into one caller-owned
//! buffer, and a [`Reader`] whose every read is bounds-checked, so
//! bytes from outside the program can produce a decode error but never
//! a panic, and never an allocation sized by a count they merely claim:
//! a count is believed only up to the number of elements the remaining
//! bytes could hold.

/// Error text of a failed read.
pub type DecodeError = String;

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an element count as a `u32`. A count that does not fit
/// saturates: the record holding it is then over 4 GiB, which
/// [`crate::wal::Wal::append_batch`] refuses before anything is written.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).unwrap_or(u32::MAX));
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends the raw bits of each float, with no count.
pub fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// The floats whose raw bits `bytes` holds; a trailing partial quad is
/// ignored, so callers size the slice first.
pub fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|q| f32::from_le_bytes([q[0], q[1], q[2], q[3]]))
        .collect()
}

/// A cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Every byte not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(format!(
                "field of {n} byte(s) runs past the record's end ({} left)",
                self.rest.len()
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u64` that must fit this platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("{v} does not fit a usize"))
    }

    /// An `f32` from its raw bits.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, refused unless that many elements of at
    /// least `min_bytes` each can still follow — the check that keeps a
    /// forged count from sizing an allocation.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_bytes.max(1) {
            return Err(format!(
                "count {n} needs more than the {} byte(s) left",
                self.rest.len()
            ));
        }
        Ok(n)
    }

    /// A counted list of elements of at least `min_bytes` each.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(min_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let bytes = self.bytes()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(e) => Err(format!("string is not utf-8: {e}")),
        }
    }

    /// A counted float vector.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        Ok(f32s(self.take(n * 4)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_roundtrip_bit_exactly() {
        let edge = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::from_bits(1),       // smallest subnormal
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NAN,
            0.1,
        ];
        let mut buf = Vec::new();
        put_f32s(&mut buf, &edge);
        assert_eq!(buf.len(), edge.len() * 4);
        let back = f32s(&buf);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&edge));
    }

    #[test]
    fn reads_are_bounds_checked() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_bytes(&mut buf, "λ".as_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.string().unwrap(), "λ");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
        // Every strict prefix fails somewhere, without panicking.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r
                .u32()
                .and_then(|_| r.u64())
                .and_then(|_| r.string())
                .is_err());
        }
    }

    #[test]
    fn forged_counts_are_refused_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0; 16]);
        assert!(Reader::new(&buf).f32_vec().is_err());
        assert!(Reader::new(&buf).bytes().is_err());
        assert!(Reader::new(&buf).count(24).is_err());
        assert!(Reader::new(&buf).list(4, Reader::string).is_err());
        // Four floats fit in sixteen bytes, five do not.
        let mut exact = Vec::new();
        put_u32(&mut exact, 4);
        exact.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&exact).f32_vec().unwrap(), vec![0.0; 4]);
        exact[0] = 5;
        assert!(Reader::new(&exact).f32_vec().is_err());
        // Bad UTF-8 is an error, not a lossy string.
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xff, 0xfe]);
        assert!(Reader::new(&bad).string().is_err());
    }
}
