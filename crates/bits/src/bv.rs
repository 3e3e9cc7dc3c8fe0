//! The [`Bv`] bitvector type: structure, slicing, conversion.

use crate::Bit;

/// A bitvector of lifted bits, stored most-significant-bit first.
///
/// Index `0` is the most significant bit, matching POWER's MSB0 numbering
/// (paper §3: "in the POWER description indices increase along a bitvector,
/// from MSB to LSB"). Architected registers with non-zero start indices
/// (e.g. `CR` numbered 32..63) are handled at the register-model level by
/// subtracting the start index; a `Bv` itself is always 0-based.
///
/// `Bv` values are immutable in style: operations return new vectors.
///
/// # Representation
///
/// Vectors of at most 64 bits — every architected register, address,
/// memory value, and flag in the model — are stored inline as two packed
/// words (`ones` and `undef` planes), so constructing, slicing, and
/// combining them never allocates. Longer vectors (the 128-bit
/// intermediate products of the multiply family, and multi-byte memory
/// writes such as the up-to-512-bit initial-memory runs of the
/// sequential ISA tests) use the *multiword* form: the same two planes,
/// each a run of 64-bit words, in one heap allocation. Both forms are
/// LSB-aligned, so concatenating, slicing, splicing, and comparing move
/// whole words. The representation is *canonical*: `len <= 64` if and
/// only if the inline form is used, which lets equality and hashing
/// compare the packed words directly.
///
/// # Example
///
/// ```
/// use ppc_bits::{Bit, Bv};
///
/// let v = Bv::from_u64(0b1010, 4);
/// assert_eq!(v.bit(0), Bit::One);   // MSB
/// assert_eq!(v.bit(3), Bit::Zero);  // LSB
/// assert_eq!(v.slice(1, 2).to_u64().unwrap(), 0b01);
/// ```
#[derive(Clone)]
pub struct Bv {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `len <= 64`. MSB0 bit `i` lives at u64 bit position `len - 1 - i`
    /// (LSB-aligned), so `ones` *is* `to_u64()` for fully defined
    /// vectors. Invariants: `ones & undef == 0` (an undef bit has no
    /// ones-plane value) and bits at positions `>= len` are zero in both
    /// planes.
    Small { len: u8, ones: u64, undef: u64 },
    /// `len > 64` only (the canonicality invariant). The buffer is
    /// `[len, ones words…, undef words…]`, each plane
    /// `len.div_ceil(64)` words with the least significant word first;
    /// MSB0 bit `i` is plane bit `len - 1 - i`, as in the small form,
    /// and the same invariants hold. One allocation keeps `Bv` at 24
    /// bytes.
    Wide(Box<[u64]>),
}

/// The low-`len` bit mask (`len <= 64`).
pub(crate) fn mask(len: usize) -> u64 {
    debug_assert!(len <= 64);
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// The `(ones, undef)` planes of a multiword buffer.
fn planes(buf: &[u64]) -> (&[u64], &[u64]) {
    buf[1..].split_at((buf.len() - 1) / 2)
}

/// `(pos, n)` pieces of at most 64 bits covering positions `0..len`.
fn chunks(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(64)
        .map(move |pos| (pos, (len - pos).min(64)))
}

/// The `n <= 64` bits of `plane` starting at bit position `pos`.
fn read_bits(plane: &[u64], pos: usize, n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let (w, off) = (pos / 64, pos % 64);
    let mut v = plane[w] >> off;
    if off + n > 64 {
        v |= plane[w + 1] << (64 - off);
    }
    v & mask(n)
}

/// OR the low `n <= 64` bits of `v` into `plane` at bit position `pos`.
fn or_bits(plane: &mut [u64], pos: usize, n: usize, v: u64) {
    if n == 0 {
        return;
    }
    let v = v & mask(n);
    let (w, off) = (pos / 64, pos % 64);
    plane[w] |= v << off;
    if off + n > 64 {
        plane[w + 1] |= v >> (64 - off);
    }
}

/// A zeroed multiword vector under construction: fields are OR-ed in,
/// so each bit position may be written once.
struct WideBuf(Box<[u64]>);

impl WideBuf {
    fn new(len: usize) -> Self {
        debug_assert!(len > 64, "multiword form holds more than 64 bits");
        let mut buf = vec![0u64; 1 + 2 * len.div_ceil(64)].into_boxed_slice();
        buf[0] = len as u64;
        WideBuf(buf)
    }

    /// OR `n <= 64` bits of both planes in at position `pos`.
    fn or_in(&mut self, pos: usize, n: usize, ones: u64, undef: u64) {
        let nw = (self.0.len() - 1) / 2;
        let (o, u) = self.0[1..].split_at_mut(nw);
        or_bits(o, pos, n, ones);
        or_bits(u, pos, n, undef);
    }

    /// Copy the `n` bits of `src` at position `from` to position `pos`.
    fn copy(&mut self, pos: usize, src: &Bv, from: usize, n: usize) {
        for (k, c) in chunks(n) {
            let (o, u) = src.planes_at(from + k, c);
            self.or_in(pos + k, c, o, u);
        }
    }

    fn finish(self) -> Bv {
        let (o, u) = planes(&self.0);
        debug_assert!(
            o.iter().zip(u).all(|(a, b)| a & b == 0),
            "ones/undef planes overlap"
        );
        Bv {
            repr: Repr::Wide(self.0),
        }
    }
}

/// Incremental MSB-first constructor: packs into the small form and
/// spills to a bit list at the 65th bit, packed into the multiword form
/// by `finish`. [`FromIterator`] and the generic paths of the bitwise
/// operations are built on this.
pub(crate) enum Builder {
    Small { len: usize, ones: u64, undef: u64 },
    Heap(Vec<Bit>),
}

impl Builder {
    pub(crate) fn new() -> Self {
        Builder::Small {
            len: 0,
            ones: 0,
            undef: 0,
        }
    }

    pub(crate) fn push(&mut self, b: Bit) {
        match self {
            Builder::Small { len, ones, undef } if *len < 64 => {
                *ones <<= 1;
                *undef <<= 1;
                match b {
                    Bit::Zero => {}
                    Bit::One => *ones |= 1,
                    Bit::Undef => *undef |= 1,
                }
                *len += 1;
            }
            Builder::Small { len, ones, undef } => {
                let mut bits = Vec::with_capacity(*len + 1);
                for i in 0..*len {
                    let p = *len - 1 - i;
                    bits.push(unpack(*ones, *undef, p));
                }
                bits.push(b);
                *self = Builder::Heap(bits);
            }
            Builder::Heap(bits) => bits.push(b),
        }
    }

    pub(crate) fn finish(self) -> Bv {
        match self {
            Builder::Small { len, ones, undef } => Bv::small(len, ones, undef),
            Builder::Heap(bits) => Bv::from_bits(bits),
        }
    }
}

/// The bit stored at u64 position `p` of the packed planes.
fn unpack(ones: u64, undef: u64, p: usize) -> Bit {
    if (undef >> p) & 1 == 1 {
        Bit::Undef
    } else if (ones >> p) & 1 == 1 {
        Bit::One
    } else {
        Bit::Zero
    }
}

impl Bv {
    /// The canonical small constructor; enforces the representation
    /// invariants in debug builds.
    pub(crate) fn small(len: usize, ones: u64, undef: u64) -> Self {
        debug_assert!(len <= 64, "small form holds at most 64 bits");
        debug_assert_eq!(ones & undef, 0, "ones/undef planes overlap");
        debug_assert_eq!(
            (ones | undef) & !mask(len),
            0,
            "bits set above the vector length"
        );
        Bv {
            repr: Repr::Small {
                len: len as u8,
                ones,
                undef,
            },
        }
    }

    /// The packed planes `(len, ones, undef)` when in small form — the
    /// hook the fast paths in `arith.rs` dispatch on.
    pub(crate) fn small_parts(&self) -> Option<(usize, u64, u64)> {
        match &self.repr {
            Repr::Small { len, ones, undef } => Some((*len as usize, *ones, *undef)),
            Repr::Wide(_) => None,
        }
    }

    /// The `(ones, undef)` planes of the `n <= 64` bits at u64 bit
    /// position `pos` (counted from the LSB), in either form.
    fn planes_at(&self, pos: usize, n: usize) -> (u64, u64) {
        match &self.repr {
            _ if n == 0 => (0, 0),
            Repr::Small { ones, undef, .. } => ((ones >> pos) & mask(n), (undef >> pos) & mask(n)),
            Repr::Wide(buf) => {
                let (o, u) = planes(buf);
                (read_bits(o, pos, n), read_bits(u, pos, n))
            }
        }
    }

    /// `len` copies of the low bit of each plane word (`0` or `u64::MAX`).
    fn splat(len: usize, ones: u64, undef: u64) -> Self {
        if len <= 64 {
            return Bv::small(len, ones & mask(len), undef & mask(len));
        }
        let mut out = WideBuf::new(len);
        for (pos, n) in chunks(len) {
            out.or_in(pos, n, ones, undef);
        }
        out.finish()
    }

    /// An empty (zero-length) bitvector.
    #[must_use]
    pub fn empty() -> Self {
        Bv::small(0, 0, 0)
    }

    /// A vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Bv::splat(len, 0, 0)
    }

    /// A vector of `len` one bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        Bv::splat(len, u64::MAX, 0)
    }

    /// A vector of `len` undefined bits.
    ///
    /// This is both the value of architecturally undefined results and the
    /// distinguished *unknown* fed to reads during footprint analysis.
    #[must_use]
    pub fn undef(len: usize) -> Self {
        Bv::splat(len, 0, u64::MAX)
    }

    /// Build from an explicit MSB-first bit sequence.
    #[must_use]
    pub fn from_bits(bits: Vec<Bit>) -> Self {
        let n = bits.len();
        if n <= 64 {
            return bits.into_iter().collect();
        }
        let mut out = WideBuf::new(n);
        for (i, b) in bits.into_iter().enumerate() {
            out.or_in(
                n - 1 - i,
                1,
                u64::from(b == Bit::One),
                u64::from(b.is_undef()),
            );
        }
        out.finish()
    }

    /// The low `len` bits of `value`, MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        Bv::small(len, value & mask(len), 0)
    }

    /// The low `len` bits of a signed value, two's complement, MSB-first.
    #[must_use]
    pub fn from_i64(value: i64, len: usize) -> Self {
        Self::from_u64(value as u64, len)
    }

    /// A single bit as a 1-length vector.
    #[must_use]
    pub fn from_bit(b: Bit) -> Self {
        match b {
            Bit::Zero => Bv::small(1, 0, 0),
            Bit::One => Bv::small(1, 1, 0),
            Bit::Undef => Bv::small(1, 0, 1),
        }
    }

    /// Build from big-endian bytes (byte 0 is most significant).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() <= 8 {
            let mut ones = 0u64;
            for &byte in bytes {
                ones = (ones << 8) | u64::from(byte);
            }
            Bv::small(bytes.len() * 8, ones, 0)
        } else {
            let n = bytes.len() * 8;
            let mut out = WideBuf::new(n);
            for (k, &byte) in bytes.iter().enumerate() {
                out.or_in(n - 8 * (k + 1), 8, u64::from(byte), 0);
            }
            out.finish()
        }
    }

    /// The number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { len, .. } => *len as usize,
            Repr::Wide(buf) => buf[0] as usize,
        }
    }

    /// Whether the vector has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bit at MSB0 index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> Bit {
        match &self.repr {
            Repr::Small { len, ones, undef } => {
                let len = *len as usize;
                assert!(i < len, "bit index {i} out of range for Bv of length {len}");
                unpack(*ones, *undef, len - 1 - i)
            }
            Repr::Wide(buf) => {
                let len = buf[0] as usize;
                assert!(i < len, "bit index {i} out of range for Bv of length {len}");
                let p = len - 1 - i;
                let (o, u) = planes(buf);
                unpack(o[p / 64], u[p / 64], p % 64)
            }
        }
    }

    /// Replace the bit at MSB0 index `i`, returning the new vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn with_bit(&self, i: usize, b: Bit) -> Self {
        match &self.repr {
            Repr::Small { len, ones, undef } => {
                let len = *len as usize;
                assert!(i < len, "bit index {i} out of range for Bv of length {len}");
                let p = len - 1 - i;
                let (mut ones, mut undef) = (ones & !(1 << p), undef & !(1 << p));
                match b {
                    Bit::Zero => {}
                    Bit::One => ones |= 1 << p,
                    Bit::Undef => undef |= 1 << p,
                }
                Bv::small(len, ones, undef)
            }
            Repr::Wide(_) => self.with_slice(i, &Bv::from_bit(b)),
        }
    }

    /// Iterate over bits MSB-first.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        (0..self.len()).map(|i| self.bit(i))
    }

    /// Whether any bit is undefined.
    #[must_use]
    pub fn has_undef(&self) -> bool {
        match &self.repr {
            Repr::Small { undef, .. } => *undef != 0,
            Repr::Wide(buf) => planes(buf).1.iter().any(|&w| w != 0),
        }
    }

    /// Whether every bit is undefined.
    #[must_use]
    pub fn all_undef(&self) -> bool {
        match &self.repr {
            Repr::Small { len, undef, .. } => *len > 0 && *undef == mask(*len as usize),
            Repr::Wide(buf) => {
                let undef_bits: u32 = planes(buf).1.iter().map(|w| w.count_ones()).sum();
                undef_bits as usize == self.len()
            }
        }
    }

    /// The concrete unsigned value, if fully defined and at most 64 bits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small { ones, undef: 0, .. } => Some(*ones),
            _ => None,
        }
    }

    /// The concrete signed (two's complement) value, if fully defined.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        if self.is_empty() || self.len() > 64 {
            return None;
        }
        let raw = self.to_u64()?;
        let shift = 64 - self.len();
        Some(((raw << shift) as i64) >> shift)
    }

    /// Big-endian bytes, if the length is a whole number of fully defined
    /// bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        let n = self.len();
        if !n.is_multiple_of(8) || self.has_undef() {
            return None;
        }
        Some(
            (0..n / 8)
                .map(|k| self.planes_at(n - 8 * (k + 1), 8).0 as u8)
                .collect(),
        )
    }

    /// Big-endian bytes as lifted 8-bit vectors (always succeeds for whole
    /// bytes, preserving undef bits).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of 8.
    #[must_use]
    pub fn to_lifted_bytes(&self) -> Vec<Bv> {
        assert!(
            self.len().is_multiple_of(8),
            "to_lifted_bytes requires whole bytes"
        );
        (0..self.len() / 8).map(|k| self.slice(8 * k, 8)).collect()
    }

    /// The contiguous slice of `len` bits starting at MSB0 index `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len(),
            "slice [{start}..{}] out of range for Bv of length {}",
            start + len,
            self.len()
        );
        let pos = self.len() - start - len;
        if len <= 64 {
            let (ones, undef) = self.planes_at(pos, len);
            return Bv::small(len, ones, undef);
        }
        let mut out = WideBuf::new(len);
        out.copy(0, self, pos, len);
        out.finish()
    }

    /// Replace the `value.len()` bits starting at MSB0 index `start`.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    #[must_use]
    pub fn with_slice(&self, start: usize, value: &Bv) -> Self {
        assert!(
            start + value.len() <= self.len(),
            "with_slice [{start}..{}] out of range for Bv of length {}",
            start + value.len(),
            self.len()
        );
        match &self.repr {
            Repr::Small { len, ones, undef } => {
                // value.len() <= self.len() <= 64, so value is small too.
                let (vlen, vones, vundef) = value.small_parts().expect("canonical small");
                let n = *len as usize;
                let shift = n - start - vlen;
                let field = mask(vlen) << shift;
                Bv::small(
                    n,
                    (ones & !field) | (vones << shift),
                    (undef & !field) | (vundef << shift),
                )
            }
            Repr::Wide(_) => {
                // Low part of self, then value, then the high part.
                let (n, vlen) = (self.len(), value.len());
                let pos = n - start - vlen;
                let mut out = WideBuf::new(n);
                out.copy(0, self, 0, pos);
                out.copy(pos, value, 0, vlen);
                out.copy(pos + vlen, self, pos + vlen, start);
                out.finish()
            }
        }
    }

    /// Concatenate `self` (more significant) with `other` (less significant).
    #[must_use]
    pub fn concat(&self, other: &Bv) -> Self {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        if let (Some((an, ao, au)), Some((bn, bo, bu))) = (self.small_parts(), other.small_parts())
        {
            // Both non-empty, so the shifts below are by at most 63.
            if an + bn <= 64 {
                return Bv::small(an + bn, (ao << bn) | bo, (au << bn) | bu);
            }
        }
        let (an, bn) = (self.len(), other.len());
        let mut out = WideBuf::new(an + bn);
        out.copy(0, other, 0, bn);
        out.copy(bn, self, 0, an);
        out.finish()
    }

    /// Zero-extend (or truncate, keeping low bits) to `len` bits.
    #[must_use]
    pub fn extz(&self, len: usize) -> Self {
        if len <= self.len() {
            return self.slice(self.len() - len, len);
        }
        if len <= 64 {
            // Small (self.len() < len <= 64): the packed value is already
            // LSB-aligned, so widening is a no-op on the planes.
            let (_, ones, undef) = self.small_parts().expect("canonical small");
            return Bv::small(len, ones, undef);
        }
        std::iter::repeat_n(Bit::Zero, len - self.len())
            .chain(self.iter())
            .collect()
    }

    /// Sign-extend (or truncate, keeping low bits) to `len` bits.
    ///
    /// Sign-extending an empty vector yields zeros.
    #[must_use]
    pub fn exts(&self, len: usize) -> Self {
        if len <= self.len() {
            return self.slice(self.len() - len, len);
        }
        if self.is_empty() {
            return Bv::zeros(len);
        }
        let sign = self.bit(0);
        if len <= 64 {
            let (n, mut ones, mut undef) = self.small_parts().expect("canonical small");
            let ext = mask(len) ^ mask(n);
            match sign {
                Bit::Zero => {}
                Bit::One => ones |= ext,
                Bit::Undef => undef |= ext,
            }
            return Bv::small(len, ones, undef);
        }
        std::iter::repeat_n(sign, len - self.len())
            .chain(self.iter())
            .collect()
    }

    /// Whether two vectors are equal *up to undef*: same length and every
    /// bit pair [`Bit::compatible`]. Used for comparing model results with
    /// observed hardware values (paper §7).
    #[must_use]
    pub fn compatible(&self, other: &Bv) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // Incompatible iff some mutually defined position differs.
        chunks(self.len()).all(|(pos, n)| {
            let (ao, au) = self.planes_at(pos, n);
            let (bo, bu) = other.planes_at(pos, n);
            (ao ^ bo) & !au & !bu == 0
        })
    }

    /// Reverse the byte order (for the byte-reversed load/store family).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a multiple of 8.
    #[must_use]
    pub fn byte_reverse(&self) -> Self {
        assert!(
            self.len().is_multiple_of(8),
            "byte_reverse requires whole bytes"
        );
        match &self.repr {
            Repr::Small { len: 0, .. } => Bv::empty(),
            Repr::Small { len, ones, undef } => {
                // Shift the value to the top of the word so swap_bytes
                // lands the reversed bytes LSB-aligned again.
                let shift = 64 - *len as usize;
                Bv::small(
                    *len as usize,
                    (ones << shift).swap_bytes(),
                    (undef << shift).swap_bytes(),
                )
            }
            Repr::Wide(_) => {
                let n = self.len();
                let mut out = WideBuf::new(n);
                for pos in (0..n).step_by(8) {
                    out.copy(n - 8 - pos, self, pos, 8);
                }
                out.finish()
            }
        }
    }
}

impl Default for Bv {
    fn default() -> Self {
        Bv::empty()
    }
}

impl PartialEq for Bv {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (
                Repr::Small { len, ones, undef },
                Repr::Small {
                    len: l2,
                    ones: o2,
                    undef: u2,
                },
            ) => len == l2 && ones == o2 && undef == u2,
            (Repr::Wide(a), Repr::Wide(b)) => a == b,
            // Canonical representation: different variants have different
            // lengths (<= 64 vs > 64).
            _ => false,
        }
    }
}

impl Eq for Bv {}

impl Ord for Bv {
    /// Lexicographic MSB-first per-bit order with `Zero < One < Undef`
    /// (the order the pre-packed `Vec<Bit>` representation derived).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if let (Some((an, ao, au)), Some((bn, bo, bu))) = (self.small_parts(), other.small_parts())
        {
            let common = an.min(bn);
            if common == 0 {
                return an.cmp(&bn);
            }
            // Align the top `common` bits of both vectors (shifts <= 63).
            let (ao, au) = (ao >> (an - common), au >> (an - common));
            let (bo, bu) = (bo >> (bn - common), bu >> (bn - common));
            let diff = (ao ^ bo) | (au ^ bu);
            if diff == 0 {
                return an.cmp(&bn);
            }
            // Highest differing position is the first MSB0 difference;
            // per-bit code Zero=0 < One=1 < Undef=2.
            let p = 63 - diff.leading_zeros();
            let code = |ones: u64, undef: u64| ((ones >> p) & 1) | (((undef >> p) & 1) << 1);
            return code(ao, au).cmp(&code(bo, bu));
        }
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Bv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Bv {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Equal values share a representation (canonicality), so each
        // variant may hash its own natural form.
        match &self.repr {
            Repr::Small { len, ones, undef } => {
                state.write_u8(*len);
                state.write_u64(*ones);
                state.write_u64(*undef);
            }
            Repr::Wide(buf) => buf.hash(state),
        }
    }
}

impl From<bool> for Bv {
    fn from(b: bool) -> Self {
        Bv::from_bit(Bit::from_bool(b))
    }
}

impl FromIterator<Bit> for Bv {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> Self {
        let mut b = Builder::new();
        for bit in iter {
            b.push(bit);
        }
        b.finish()
    }
}
