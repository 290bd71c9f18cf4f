//! Runtime values: bits, bit-vectors, integers and arrays.
//!
//! [`Value`]'s `Clone`, `PartialEq` and `Hash` are written by hand with
//! the derived impls' meaning: equal values stay exactly the values
//! whose variants and payloads are equal, and equal values hash
//! equally. The derives recurse through `Array`, which keeps them out
//! of line; the hand-written impls inline their scalar arms. Equality
//! and hashing leave arrays to out-of-line helpers. `clone_from` also
//! overwrites a value in place: a same-variant scalar is assigned, and
//! an `Array` keeps its allocation, which is what the model checker's
//! scratch state does on every restore.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::SpecError;
use crate::types::Ty;

/// A fixed-width vector of bits, stored least-significant-bit first.
///
/// `BitVec` is the payload type moved over buses: messages are concatenated
/// into one `BitVec` and sliced into bus words by the generated protocol
/// procedures.
///
/// # Representation
///
/// Bits are packed into 64-bit limbs, least-significant limb first; the
/// logical width is tracked separately from the storage. Vectors of 64
/// bits or fewer live in a single inline limb (no heap allocation —
/// every bus word and every message under 65 bits stays on the stack);
/// wider vectors use a `Vec<u64>` with exactly `ceil(width / 64)` limbs.
///
/// Two invariants keep the representation canonical, so the derived
/// `PartialEq`/`Hash` compare logical values:
///
/// * storage kind is determined by width (`width <= 64` ⇔ inline);
/// * all storage bits at positions `>= width` are zero (the top limb is
///   masked after every operation).
///
/// # Example
///
/// ```
/// use ifsyn_spec::BitVec;
///
/// let v = BitVec::from_u64(0b1010, 4);
/// assert_eq!(v.width(), 4);
/// assert_eq!(v.to_u64(), 0b1010);
/// assert_eq!(v.to_string(), "1010");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    /// Logical width in bits; storage may round up to a limb boundary.
    width: u32,
    /// Packed limbs, index 0 holding bits 0..=63.
    limbs: Limbs,
}

/// Limb storage: one inline limb for `width <= 64`, heap limbs above.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Limbs {
    /// The single limb of a vector no wider than 64 bits.
    Inline(u64),
    /// `ceil(width / 64)` limbs of a wider vector.
    Heap(Vec<u64>),
}

/// Limbs needed to hold `width` bits.
const fn limb_count(width: u32) -> usize {
    width.div_ceil(64) as usize
}

/// Mask selecting the valid bits of a single-limb vector of `width` bits.
const fn low_mask(width: u32) -> u64 {
    if width == 0 {
        0
    } else if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Mask selecting the valid bits of the topmost limb of a `width`-bit
/// vector (all ones when the width is a limb multiple).
const fn top_mask(width: u32) -> u64 {
    let r = width % 64;
    if r == 0 {
        u64::MAX
    } else {
        (1u64 << r) - 1
    }
}

impl BitVec {
    /// Builds the canonical vector for `width` from a limb producer.
    ///
    /// `get(i)` must return limb `i` of the (unmasked) source; the top
    /// limb is masked here.
    fn build(width: u32, get: impl Fn(usize) -> u64) -> Self {
        if width <= 64 {
            Self {
                width,
                limbs: Limbs::Inline(get(0) & low_mask(width)),
            }
        } else {
            let n = limb_count(width);
            let mut v: Vec<u64> = (0..n).map(get).collect();
            v[n - 1] &= top_mask(width);
            Self {
                width,
                limbs: Limbs::Heap(v),
            }
        }
    }

    /// Read-only view of the limb storage.
    ///
    /// Inline vectors expose a one-limb slice even at width 0; bits at
    /// positions `>= width` are guaranteed zero.
    fn words(&self) -> &[u64] {
        match &self.limbs {
            Limbs::Inline(w) => std::slice::from_ref(w),
            Limbs::Heap(v) => v,
        }
    }

    /// Mutable view of the limb storage; callers must re-establish the
    /// masked-top-limb invariant.
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.limbs {
            Limbs::Inline(w) => std::slice::from_mut(w),
            Limbs::Heap(v) => v,
        }
    }

    /// Extracts `width` bits starting at bit `lo` of `src`, reading
    /// zeros past the end of `src`.
    fn extract(src: &[u64], lo: u32, width: u32) -> Self {
        let lw = (lo / 64) as usize;
        let off = lo % 64;
        let get = |i: usize| src.get(i).copied().unwrap_or(0);
        Self::build(width, |i| {
            let mut w = get(lw + i) >> off;
            if off > 0 {
                w |= get(lw + i + 1) << (64 - off);
            }
            w
        })
    }

    /// Overwrites bits `offset..offset + src_width` of `dst` with the
    /// low `src_width` bits of `src` (whose top limb must be masked).
    fn write_bits(dst: &mut [u64], src: &[u64], src_width: u32, offset: u32) {
        let nw = limb_count(src_width);
        let off_word = (offset / 64) as usize;
        let off_bit = offset % 64;
        for i in 0..nw {
            let m = if i + 1 == nw {
                top_mask(src_width)
            } else {
                u64::MAX
            };
            let w = src[i];
            dst[off_word + i] = (dst[off_word + i] & !(m << off_bit)) | (w << off_bit);
            if off_bit > 0 {
                let mh = m >> (64 - off_bit);
                if mh != 0 {
                    let k = off_word + i + 1;
                    dst[k] = (dst[k] & !mh) | (w >> (64 - off_bit));
                }
            }
        }
    }

    /// Creates an all-zero vector of `width` bits.
    pub fn zeros(width: u32) -> Self {
        if width <= 64 {
            Self {
                width,
                limbs: Limbs::Inline(0),
            }
        } else {
            Self {
                width,
                limbs: Limbs::Heap(vec![0; limb_count(width)]),
            }
        }
    }

    /// Creates a vector from the low `width` bits of `value`.
    ///
    /// Bits of `value` above `width` are discarded.
    pub fn from_u64(value: u64, width: u32) -> Self {
        Self::build(width, |i| if i == 0 { value } else { 0 })
    }

    /// Creates a vector from bits given least-significant first.
    pub fn from_bits_lsb_first<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = vec![0u64];
        let mut n: u32 = 0;
        for b in bits {
            let i = (n / 64) as usize;
            if i == words.len() {
                words.push(0);
            }
            if b {
                words[i] |= 1 << (n % 64);
            }
            n += 1;
        }
        if n <= 64 {
            Self {
                width: n,
                limbs: Limbs::Inline(words[0]),
            }
        } else {
            Self {
                width: n,
                limbs: Limbs::Heap(words),
            }
        }
    }

    /// Returns the number of bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns `true` if the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Returns bit `index` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn bit(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit index {index} out of range for width {}",
            self.width
        );
        (self.words()[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: u32, value: bool) {
        assert!(
            index < self.width,
            "bit index {index} out of range for width {}",
            self.width
        );
        let word = &mut self.words_mut()[(index / 64) as usize];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Interprets the low 64 bits as an unsigned integer.
    ///
    /// Bits beyond the 64th are ignored; use [`BitVec::width`] to detect
    /// wide vectors first if exactness matters.
    pub fn to_u64(&self) -> u64 {
        self.words()[0]
    }

    /// Read-only view of the packed limbs, least-significant limb first.
    ///
    /// The slice has exactly `ceil(width / 64)` entries (empty at width
    /// 0) and bits at positions `>= width` in the top limb are zero.
    pub fn as_limbs(&self) -> &[u64] {
        &self.words()[..limb_count(self.width)]
    }

    /// Returns bits `lo..=hi` as a new vector (`hi downto lo` in VHDL terms).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    pub fn slice(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "slice hi ({hi}) must be >= lo ({lo})");
        assert!(
            hi < self.width(),
            "slice hi ({hi}) out of range for width {}",
            self.width()
        );
        Self::extract(self.words(), lo, hi - lo + 1)
    }

    /// Overwrites bits `lo..=hi` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `value.width()` does not
    /// equal `hi - lo + 1`.
    pub fn write_slice(&mut self, hi: u32, lo: u32, value: &BitVec) {
        assert!(hi >= lo, "slice hi ({hi}) must be >= lo ({lo})");
        assert!(hi < self.width(), "slice out of range");
        assert_eq!(value.width(), hi - lo + 1, "slice width mismatch");
        Self::write_bits(self.words_mut(), value.words(), value.width, lo);
    }

    /// Concatenates `high` above `self`: result = `high & self` in VHDL
    /// terms (`self` keeps the low bit positions).
    pub fn concat(&self, high: &BitVec) -> Self {
        if high.width == 0 {
            return self.clone();
        }
        if self.width == 0 {
            return high.clone();
        }
        let width = self.width + high.width;
        if width <= 64 {
            // self.width <= 63 here since high is non-empty.
            return Self {
                width,
                limbs: Limbs::Inline(self.to_u64() | (high.to_u64() << self.width)),
            };
        }
        let mut v = vec![0u64; limb_count(width)];
        v[..limb_count(self.width)].copy_from_slice(self.as_limbs());
        Self::write_bits(&mut v, high.words(), high.width, self.width);
        Self {
            width,
            limbs: Limbs::Heap(v),
        }
    }

    /// Returns a copy zero-extended or truncated to `width` bits.
    pub fn resized(&self, width: u32) -> Self {
        if width == self.width {
            return self.clone();
        }
        Self::extract(self.words(), 0, width)
    }

    /// Iterates over bits, least significant first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let words = self.words();
        (0..self.width).map(move |i| (words[(i / 64) as usize] >> (i % 64)) & 1 == 1)
    }

    /// Limb-wise binary operation, zero-extending the narrower operand
    /// to `max(widths)`.
    fn zip_words(&self, other: &BitVec, f: impl Fn(u64, u64) -> u64) -> Self {
        let a = self.words();
        let b = other.words();
        let get = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        Self::build(self.width.max(other.width), |i| f(get(a, i), get(b, i)))
    }

    /// Bitwise AND; the narrower operand is zero-extended.
    pub fn and(&self, other: &BitVec) -> Self {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR; the narrower operand is zero-extended.
    pub fn or(&self, other: &BitVec) -> Self {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR; the narrower operand is zero-extended.
    pub fn xor(&self, other: &BitVec) -> Self {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise complement within the vector's own width.
    pub fn complement(&self) -> Self {
        let w = self.words();
        Self::build(self.width, |i| !w[i.min(w.len() - 1)])
    }

    /// Modular sum at `max(widths)` bits; the narrower operand is
    /// zero-extended and the carry out of the top bit is discarded.
    pub fn wrapping_add(&self, other: &BitVec) -> Self {
        let a = self.words();
        let b = other.words();
        let get = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        let width = self.width.max(other.width);
        if width <= 64 {
            return Self {
                width,
                limbs: Limbs::Inline(get(a, 0).wrapping_add(get(b, 0)) & low_mask(width)),
            };
        }
        let n = limb_count(width);
        let mut v = vec![0u64; n];
        let mut carry = 0u64;
        for (i, out) in v.iter_mut().enumerate() {
            let (s1, c1) = get(a, i).overflowing_add(get(b, i));
            let (s2, c2) = s1.overflowing_add(carry);
            *out = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        v[n - 1] &= top_mask(width);
        Self {
            width,
            limbs: Limbs::Heap(v),
        }
    }

    /// Modular difference (`self - other`) at `max(widths)` bits; the
    /// narrower operand is zero-extended and the borrow out of the top
    /// bit is discarded (two's-complement wraparound).
    pub fn wrapping_sub(&self, other: &BitVec) -> Self {
        let a = self.words();
        let b = other.words();
        let get = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        let width = self.width.max(other.width);
        if width <= 64 {
            return Self {
                width,
                limbs: Limbs::Inline(get(a, 0).wrapping_sub(get(b, 0)) & low_mask(width)),
            };
        }
        let n = limb_count(width);
        let mut v = vec![0u64; n];
        let mut borrow = 0u64;
        for (i, out) in v.iter_mut().enumerate() {
            let (d1, b1) = get(a, i).overflowing_sub(get(b, i));
            let (d2, b2) = d1.overflowing_sub(borrow);
            *out = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        v[n - 1] &= top_mask(width);
        Self {
            width,
            limbs: Limbs::Heap(v),
        }
    }

    /// Unsigned comparison of the numeric values, limb at a time from
    /// the top; widths may differ (the narrower operand zero-extends).
    pub fn cmp_unsigned(&self, other: &BitVec) -> std::cmp::Ordering {
        let a = self.as_limbs();
        let b = other.as_limbs();
        let get = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        for i in (0..a.len().max(b.len())).rev() {
            match get(a, i).cmp(&get(b, i)) {
                std::cmp::Ordering::Equal => {}
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl Default for BitVec {
    fn default() -> Self {
        Self {
            width: 0,
            limbs: Limbs::Inline(0),
        }
    }
}

impl fmt::Display for BitVec {
    /// Formats most-significant bit first, VHDL literal style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "\"\"");
        }
        let words = self.words();
        for i in (0..self.width).rev() {
            let b = (words[(i / 64) as usize] >> (i % 64)) & 1 == 1;
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Binary for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::LowerHex for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let words = self.words();
        for k in (0..self.width.div_ceil(4)).rev() {
            let lo = k * 4;
            let mut n = (words[(lo / 64) as usize] >> (lo % 64)) & 0xf;
            // A nibble straddling a limb boundary picks up its high bits
            // from the next limb; bits past the width read as zero.
            let straddle = 64 - lo % 64;
            if straddle < 4 {
                if let Some(&next) = words.get((lo / 64) as usize + 1) {
                    n |= (next << straddle) & 0xf;
                }
            }
            if lo + 4 > self.width {
                n &= low_mask(self.width - lo);
            }
            write!(f, "{n:x}")?;
        }
        Ok(())
    }
}

impl From<bool> for BitVec {
    fn from(b: bool) -> Self {
        Self {
            width: 1,
            limbs: Limbs::Inline(u64::from(b)),
        }
    }
}

/// A runtime value in the specification language.
///
/// Values are what the simulator stores in variables and drives onto
/// signals, and what [`crate::Expr::Const`] embeds in the IR.
#[derive(Debug)]
pub enum Value {
    /// A single bit.
    Bit(bool),
    /// A fixed-width bit vector.
    Bits(BitVec),
    /// A bounded integer carrying its declared bit width.
    Int {
        /// The integer value.
        value: i64,
        /// Declared width in bits (used when packing into messages).
        width: u32,
    },
    /// A homogeneous array of values.
    Array(Vec<Value>),
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Value::Bit(b) => Value::Bit(*b),
            Value::Int { value, width } => Value::Int {
                value: *value,
                width: *width,
            },
            Value::Bits(v) => Value::Bits(v.clone()),
            Value::Array(items) => Value::Array(items.clone()),
        }
    }

    /// Overwrites in place: a same-variant scalar is assigned, and an
    /// `Array` keeps its allocation.
    #[inline]
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (Value::Bit(dst), Value::Bit(b)) => *dst = *b,
            (Value::Int { value, width }, Value::Int { value: v, width: w }) => {
                *value = *v;
                *width = *w;
            }
            (Value::Array(dst), Value::Array(items)) => dst.clone_from(items),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bit(a), Value::Bit(b)) => a == b,
            (Value::Int { value, width }, Value::Int { value: v, width: w }) => {
                value == v && width == w
            }
            (Value::Bits(a), Value::Bits(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => items_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Value {}

/// Element-wise array equality, out of line so that [`Value::eq`] does
/// not recurse.
#[inline(never)]
fn items_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// The word a value's hash starts with: its variant in the low byte and
/// its width (an array's length) above. `Bit` spends a tag per bit and
/// writes nothing more.
#[inline]
fn tag_word(tag: u8, width: u32) -> u64 {
    u64::from(tag) | u64::from(width) << 32
}

impl Hash for Value {
    /// One tag-and-width word, then the payload: the limbs of `Bits`,
    /// the integer of `Int` and each element of an `Array`.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bit(b) => state.write_u64(tag_word(u8::from(*b), 1)),
            Value::Int { value, width } => {
                state.write_u64(tag_word(2, *width));
                state.write_i64(*value);
            }
            Value::Bits(v) => {
                state.write_u64(tag_word(3, v.width()));
                for &limb in v.as_limbs() {
                    state.write_u64(limb);
                }
            }
            Value::Array(items) => hash_items(items, state),
        }
    }
}

/// Hashes an array out of line so that [`Value::hash`] does not recurse.
#[inline(never)]
fn hash_items<H: Hasher>(items: &[Value], state: &mut H) {
    state.write_u64(tag_word(4, items.len() as u32));
    for item in items {
        item.hash(state);
    }
}

impl Value {
    /// Creates an integer value of the given width.
    pub fn int(value: i64, width: u32) -> Self {
        Value::Int { value, width }
    }

    /// Returns the default (all-zero) value of type `ty`.
    pub fn default_of(ty: &Ty) -> Self {
        match ty {
            Ty::Bit => Value::Bit(false),
            Ty::Bits(w) => Value::Bits(BitVec::zeros(*w)),
            Ty::Int(w) => Value::Int {
                value: 0,
                width: *w,
            },
            Ty::Array { elem, len } => Value::Array(vec![Value::default_of(elem); *len as usize]),
        }
    }

    /// Returns the type of this value.
    pub fn ty(&self) -> Ty {
        match self {
            Value::Bit(_) => Ty::Bit,
            Value::Bits(v) => Ty::Bits(v.width()),
            Value::Int { width, .. } => Ty::Int(*width),
            Value::Array(items) => {
                let elem = items.first().map(Value::ty).unwrap_or(Ty::Bit);
                Ty::Array {
                    elem: Box::new(elem),
                    len: items.len() as u32,
                }
            }
        }
    }

    /// Interprets the value as an unsigned integer where meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::TypeMismatch`] for arrays.
    pub fn as_u64(&self) -> Result<u64, SpecError> {
        match self {
            Value::Bit(b) => Ok(*b as u64),
            Value::Bits(v) => Ok(v.to_u64()),
            Value::Int { value, .. } => Ok(*value as u64),
            Value::Array(_) => Err(SpecError::TypeMismatch {
                context: "array used as scalar".to_string(),
            }),
        }
    }

    /// Interprets the value as a signed integer where meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::TypeMismatch`] for arrays.
    pub fn as_i64(&self) -> Result<i64, SpecError> {
        match self {
            Value::Bit(b) => Ok(*b as i64),
            Value::Bits(v) => Ok(v.to_u64() as i64),
            Value::Int { value, .. } => Ok(*value),
            Value::Array(_) => Err(SpecError::TypeMismatch {
                context: "array used as scalar".to_string(),
            }),
        }
    }

    /// Interprets the value as a single bit.
    ///
    /// Nonzero integers and bit-vectors count as `true`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::TypeMismatch`] for arrays.
    pub fn as_bool(&self) -> Result<bool, SpecError> {
        Ok(self.as_u64()? != 0)
    }

    /// Packs the value into a [`BitVec`] of its natural width.
    ///
    /// Integers pack as two's complement of their declared width; arrays
    /// pack element 0 in the lowest positions.
    ///
    /// # Example
    ///
    /// ```
    /// use ifsyn_spec::Value;
    ///
    /// let v = Value::int(5, 4);
    /// assert_eq!(v.to_bits().to_string(), "0101");
    /// ```
    pub fn to_bits(&self) -> BitVec {
        match self {
            Value::Bit(b) => BitVec::from(*b),
            Value::Bits(v) => v.clone(),
            Value::Int { value, width } => BitVec::from_u64(*value as u64, *width),
            Value::Array(items) => {
                let mut acc = BitVec::zeros(0);
                for item in items {
                    acc = acc.concat(&item.to_bits());
                }
                acc
            }
        }
    }

    /// Reconstructs a value of type `ty` from packed bits.
    ///
    /// Inverse of [`Value::to_bits`] for scalar and array types.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is narrower than `ty.bit_width()`.
    pub fn from_bits(ty: &Ty, bits: &BitVec) -> Self {
        match ty {
            Ty::Bit => Value::Bit(!bits.is_empty() && bits.bit(0)),
            Ty::Bits(w) => Value::Bits(bits.resized(*w)),
            Ty::Int(w) => {
                let raw = bits.resized(*w).to_u64();
                // Sign-extend from declared width.
                let value = if *w > 0 && *w < 64 && (raw >> (*w - 1)) & 1 == 1 {
                    (raw | !((1u64 << *w) - 1)) as i64
                } else {
                    raw as i64
                };
                Value::Int { value, width: *w }
            }
            Ty::Array { elem, len } => {
                let ew = elem.bit_width();
                let items = (0..*len)
                    .map(|i| {
                        let lo = i * ew;
                        let hi = lo + ew - 1;
                        Value::from_bits(elem, &bits.slice(hi, lo))
                    })
                    .collect();
                Value::Array(items)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bit(b) => write!(f, "'{}'", if *b { '1' } else { '0' }),
            Value::Bits(v) => write!(f, "\"{v}\""),
            Value::Int { value, .. } => write!(f, "{value}"),
            Value::Array(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bit(b)
    }
}

impl From<BitVec> for Value {
    fn from(v: BitVec) -> Self {
        Value::Bits(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_from_to_u64_roundtrip() {
        for v in [0u64, 1, 2, 0xff, 0xdead, u64::MAX] {
            assert_eq!(BitVec::from_u64(v, 64).to_u64(), v);
        }
    }

    #[test]
    fn bitvec_truncates_above_width() {
        assert_eq!(BitVec::from_u64(0xff, 4).to_u64(), 0xf);
    }

    #[test]
    fn bitvec_slice_matches_vhdl_downto() {
        // "11010" (msb first) = bit4..bit0 = 1,1,0,1,0.
        let v = BitVec::from_u64(0b11010, 5);
        assert_eq!(v.slice(4, 3).to_string(), "11");
        assert_eq!(v.slice(2, 0).to_string(), "010");
    }

    #[test]
    fn bitvec_write_slice() {
        let mut v = BitVec::zeros(8);
        v.write_slice(7, 4, &BitVec::from_u64(0b1010, 4));
        assert_eq!(v.to_u64(), 0b1010_0000);
    }

    #[test]
    fn bitvec_concat_places_first_operand_low() {
        let low = BitVec::from_u64(0b01, 2);
        let high = BitVec::from_u64(0b11, 2);
        assert_eq!(low.concat(&high).to_u64(), 0b1101);
    }

    #[test]
    fn bitvec_resized_extends_and_truncates() {
        let v = BitVec::from_u64(0b101, 3);
        assert_eq!(v.resized(5).to_u64(), 0b101);
        assert_eq!(v.resized(2).to_u64(), 0b01);
    }

    #[test]
    fn bitvec_hex_format() {
        let v = BitVec::from_u64(0xa5, 8);
        assert_eq!(format!("{v:x}"), "a5");
    }

    #[test]
    fn bitvec_display_wide() {
        let v = BitVec::from_u64(1, 70);
        assert_eq!(v.width(), 70);
        assert!(v.to_string().ends_with('1'));
        assert_eq!(v.to_u64(), 1);
    }

    #[test]
    fn bitvec_limbs_are_canonical() {
        assert_eq!(BitVec::zeros(0).as_limbs(), &[] as &[u64]);
        assert_eq!(BitVec::from_u64(5, 3).as_limbs(), &[5]);
        let wide = BitVec::from_u64(u64::MAX, 65);
        assert_eq!(wide.as_limbs(), &[u64::MAX, 0]);
        // Top limb stays masked after mutation at the boundary.
        let mut v = BitVec::zeros(65);
        v.set_bit(64, true);
        assert_eq!(v.as_limbs(), &[0, 1]);
    }

    #[test]
    fn bitvec_logic_ops_zero_extend() {
        let a = BitVec::from_u64(0b1100, 4);
        let b = BitVec::from_u64(0b10, 2);
        assert_eq!(a.and(&b).to_u64(), 0b0000);
        assert_eq!(a.or(&b).to_u64(), 0b1110);
        assert_eq!(a.xor(&b).to_u64(), 0b1110);
        assert_eq!(a.and(&b).width(), 4);
        assert_eq!(a.complement().to_u64(), 0b0011);
    }

    #[test]
    fn bitvec_add_sub_wrap_at_width() {
        let a = BitVec::from_u64(0b111, 3);
        let b = BitVec::from_u64(0b001, 3);
        assert_eq!(a.wrapping_add(&b).to_u64(), 0);
        assert_eq!(b.wrapping_sub(&a).to_u64(), 0b010);
        // Carry propagates across the limb boundary.
        let lo = BitVec::from_u64(u64::MAX, 65);
        let one = BitVec::from_u64(1, 65);
        assert_eq!(lo.wrapping_add(&one).as_limbs(), &[0, 1]);
        assert_eq!(
            BitVec::zeros(65).wrapping_sub(&one).as_limbs(),
            &[u64::MAX, 1]
        );
    }

    #[test]
    fn bitvec_cmp_unsigned_across_widths() {
        use std::cmp::Ordering;
        let small = BitVec::from_u64(7, 8);
        let wide = BitVec::from_u64(7, 128);
        assert_eq!(small.cmp_unsigned(&wide), Ordering::Equal);
        let mut big = BitVec::zeros(128);
        big.set_bit(100, true);
        assert_eq!(small.cmp_unsigned(&big), Ordering::Less);
        assert_eq!(big.cmp_unsigned(&small), Ordering::Greater);
    }

    #[test]
    fn value_default_of_matches_type() {
        let ty = Ty::Array {
            elem: Box::new(Ty::Bits(8)),
            len: 3,
        };
        let v = Value::default_of(&ty);
        assert_eq!(v.ty(), ty);
    }

    #[test]
    fn value_int_bits_roundtrip_signed() {
        let v = Value::int(-3, 16);
        let bits = v.to_bits();
        assert_eq!(bits.width(), 16);
        assert_eq!(Value::from_bits(&Ty::Int(16), &bits), v);
    }

    #[test]
    fn value_array_bits_roundtrip() {
        let ty = Ty::Array {
            elem: Box::new(Ty::Int(8)),
            len: 4,
        };
        let v = Value::Array(vec![
            Value::int(1, 8),
            Value::int(-1, 8),
            Value::int(64, 8),
            Value::int(0, 8),
        ]);
        let bits = v.to_bits();
        assert_eq!(bits.width(), 32);
        assert_eq!(Value::from_bits(&ty, &bits), v);
    }

    #[test]
    fn value_as_bool_and_ints() {
        assert!(Value::Bit(true).as_bool().unwrap());
        assert!(!Value::int(0, 8).as_bool().unwrap());
        assert_eq!(Value::int(-5, 16).as_i64().unwrap(), -5);
        assert!(Value::Array(vec![]).as_u64().is_err());
    }

    #[test]
    fn value_display_forms() {
        assert_eq!(Value::Bit(true).to_string(), "'1'");
        assert_eq!(Value::int(42, 8).to_string(), "42");
        assert_eq!(Value::Bits(BitVec::from_u64(0b10, 2)).to_string(), "\"10\"");
    }
}
