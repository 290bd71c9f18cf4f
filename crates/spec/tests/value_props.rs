//! Property tests for the value layer (BitVec and Value).
//!
//! `BitVec` is differential-tested against a naive `Vec<bool>` reference
//! model: every operation is executed on both representations and the
//! results must agree bit for bit. Widths cross every limb boundary of
//! the packed representation (0, 1, 63, 64, 65, 128) plus random widths.

use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{BitVec, Ty, Value};

/// The reference model: one `bool` per bit, LSB first.
#[derive(Debug, Clone, PartialEq)]
struct RefBits(Vec<bool>);

impl RefBits {
    fn random(rng: &mut SplitMix64, width: u32) -> Self {
        Self((0..width).map(|_| rng.bool()).collect())
    }

    fn to_bitvec(&self) -> BitVec {
        BitVec::from_bits_lsb_first(self.0.iter().copied())
    }

    fn to_u64(&self) -> u64 {
        self.0
            .iter()
            .take(64)
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    fn slice(&self, hi: u32, lo: u32) -> Self {
        Self(self.0[lo as usize..=hi as usize].to_vec())
    }

    fn write_slice(&mut self, hi: u32, lo: u32, v: &RefBits) {
        assert_eq!(v.0.len() as u32, hi - lo + 1);
        self.0[lo as usize..=hi as usize].copy_from_slice(&v.0);
    }

    fn concat(&self, high: &RefBits) -> Self {
        let mut bits = self.0.clone();
        bits.extend_from_slice(&high.0);
        Self(bits)
    }

    fn resized(&self, width: u32) -> Self {
        let mut bits = self.0.clone();
        bits.resize(width as usize, false);
        Self(bits)
    }
}

/// Asserts that `bv` and the model agree through every observation.
fn assert_agrees(bv: &BitVec, model: &RefBits) {
    assert_eq!(bv.width() as usize, model.0.len());
    for (i, &b) in model.0.iter().enumerate() {
        assert_eq!(bv.bit(i as u32), b, "bit {i} of {bv}");
    }
    assert_eq!(bv.to_u64(), model.to_u64());
    assert_eq!(*bv, model.to_bitvec(), "Eq against rebuilt vector");
    let display = bv.to_string();
    if model.0.is_empty() {
        assert_eq!(display, "\"\"");
    } else {
        assert_eq!(display.len() as u32, bv.width());
        for (i, c) in display.chars().rev().enumerate() {
            assert_eq!(c == '1', model.0[i], "display bit {i}");
        }
    }
    let iterated: Vec<bool> = bv.iter().collect();
    assert_eq!(iterated, model.0);
}

/// The limb-boundary widths the packed representation must survive.
const WIDTHS: [u32; 6] = [0, 1, 63, 64, 65, 128];

fn cases(seed: u64) -> impl Iterator<Item = (SplitMix64, u32)> {
    let mut seeds = SplitMix64::new(seed);
    let mut all: Vec<u32> = WIDTHS.to_vec();
    for _ in 0..10 {
        all.push(seeds.range_u32(2, 200));
    }
    all.into_iter()
        .map(move |w| (SplitMix64::new(seeds.next_u64()), w))
}

#[test]
fn construction_and_observation_match_model() {
    for (mut rng, w) in cases(0x11) {
        for _ in 0..20 {
            let model = RefBits::random(&mut rng, w);
            assert_agrees(&model.to_bitvec(), &model);
        }
        // from_u64 keeps only the low w bits.
        for _ in 0..20 {
            let v = rng.next_u64();
            let bv = BitVec::from_u64(v, w);
            let model = RefBits((0..w).map(|i| i < 64 && (v >> i) & 1 == 1).collect());
            assert_agrees(&bv, &model);
        }
        assert_agrees(&BitVec::zeros(w), &RefBits(vec![false; w as usize]));
    }
}

#[test]
fn set_bit_matches_model() {
    for (mut rng, w) in cases(0x22) {
        if w == 0 {
            continue;
        }
        let model = RefBits::random(&mut rng, w);
        let mut bv = model.to_bitvec();
        let mut model = model;
        for _ in 0..50 {
            let i = rng.range_u32(0, w - 1);
            let b = rng.bool();
            bv.set_bit(i, b);
            model.0[i as usize] = b;
        }
        assert_agrees(&bv, &model);
    }
}

#[test]
fn slice_matches_model() {
    for (mut rng, w) in cases(0x33) {
        if w == 0 {
            continue;
        }
        let model = RefBits::random(&mut rng, w);
        let bv = model.to_bitvec();
        for _ in 0..30 {
            let lo = rng.range_u32(0, w - 1);
            let hi = rng.range_u32(lo, w - 1);
            assert_agrees(&bv.slice(hi, lo), &model.slice(hi, lo));
        }
        // Full-width slice is the identity.
        assert_agrees(&bv.slice(w - 1, 0), &model);
    }
}

#[test]
fn write_slice_matches_model() {
    for (mut rng, w) in cases(0x44) {
        if w == 0 {
            continue;
        }
        for _ in 0..30 {
            let mut model = RefBits::random(&mut rng, w);
            let mut bv = model.to_bitvec();
            let lo = rng.range_u32(0, w - 1);
            let hi = rng.range_u32(lo, w - 1);
            let patch = RefBits::random(&mut rng, hi - lo + 1);
            bv.write_slice(hi, lo, &patch.to_bitvec());
            model.write_slice(hi, lo, &patch);
            assert_agrees(&bv, &model);
        }
    }
}

#[test]
fn slice_then_concat_reassembles() {
    for (mut rng, w) in cases(0x55) {
        if w < 2 {
            continue;
        }
        for _ in 0..20 {
            let model = RefBits::random(&mut rng, w);
            let bv = model.to_bitvec();
            let cut = rng.range_u32(1, w - 1);
            let low = bv.slice(cut - 1, 0);
            let high = bv.slice(w - 1, cut);
            assert_eq!(low.concat(&high), bv);
        }
    }
}

#[test]
fn concat_matches_model_across_boundaries() {
    let mut rng = SplitMix64::new(0x66);
    for &wa in &WIDTHS {
        for &wb in &WIDTHS {
            let a = RefBits::random(&mut rng, wa);
            let b = RefBits::random(&mut rng, wb);
            assert_agrees(&a.to_bitvec().concat(&b.to_bitvec()), &a.concat(&b));
        }
    }
}

#[test]
fn resized_matches_model() {
    let mut rng = SplitMix64::new(0x77);
    for &w in &WIDTHS {
        for &w2 in &WIDTHS {
            let model = RefBits::random(&mut rng, w);
            let bv = model.to_bitvec();
            let r = bv.resized(w2);
            assert_agrees(&r, &model.resized(w2));
            // Round-trip: grow then shrink back preserves the value.
            assert_eq!(bv.resized(w + 7).resized(w), bv);
        }
    }
}

#[test]
fn equality_and_hash_ignore_storage_history() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut rng = SplitMix64::new(0x88);
    for &w in &WIDTHS {
        let model = RefBits::random(&mut rng, w);
        let a = model.to_bitvec();
        // Build the same value by a different construction path.
        let mut b = BitVec::zeros(w);
        for (i, &bit) in model.0.iter().enumerate() {
            if bit {
                b.set_bit(i as u32, true);
            }
        }
        assert_eq!(a, b);
        let hash = |v: &BitVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // Differing width must not compare equal even when all bits are 0.
        assert_ne!(BitVec::zeros(w), BitVec::zeros(w + 1));
    }
}

#[test]
fn from_to_u64_roundtrip() {
    let mut rng = SplitMix64::new(0x99);
    for _ in 0..200 {
        let v = rng.next_u64();
        let w = rng.range_u32(1, 64);
        let bv = BitVec::from_u64(v, w);
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        assert_eq!(bv.to_u64(), v & mask);
        assert_eq!(bv.width(), w);
    }
}

#[test]
fn int_value_bits_roundtrip() {
    let mut rng = SplitMix64::new(0xaa);
    for _ in 0..200 {
        let w = rng.range_u32(16, 32);
        let v = rng.range_i64(-32768, 32767);
        let val = Value::int(v, w);
        assert_eq!(Value::from_bits(&Ty::Int(w), &val.to_bits()), val);
    }
}

#[test]
fn array_value_bits_roundtrip() {
    let mut rng = SplitMix64::new(0xbb);
    for _ in 0..100 {
        let w = rng.range_u32(1, 70); // crosses the 64-bit limb boundary
        let len = rng.range_u32(1, 7);
        let ty = Ty::array(Ty::Bits(w), len);
        let val = Value::Array(
            (0..len)
                .map(|_| Value::Bits(BitVec::from_u64(rng.next_u64(), w.min(64)).resized(w)))
                .collect(),
        );
        let bits = val.to_bits();
        assert_eq!(bits.width(), w * len);
        assert_eq!(Value::from_bits(&ty, &bits), val);
    }
}

#[test]
fn default_of_has_declared_type() {
    let mut rng = SplitMix64::new(0xcc);
    for _ in 0..100 {
        let ty = Ty::array(Ty::Bits(rng.range_u32(1, 31)), rng.range_u32(1, 7));
        assert_eq!(Value::default_of(&ty).ty(), ty);
    }
}

#[test]
fn addr_bits_covers_every_index() {
    let mut rng = SplitMix64::new(0xdd);
    for _ in 0..200 {
        let len = rng.range_u32(2, 1999);
        let ty = Ty::array(Ty::Bit, len);
        let a = ty.addr_bits();
        // Every index 0..len-1 must fit in a bits; a-1 bits must not.
        assert!(u64::from(len - 1) < (1u64 << a));
        assert!(u64::from(len - 1) >= (1u64 << (a - 1)) || a == 1);
    }
}

/// The representation classes `Value`'s hand-written impls branch on.
fn kind(v: &Value) -> usize {
    match v {
        Value::Bit(_) => 0,
        Value::Int { .. } => 1,
        Value::Bits(b) if b.width() <= 64 => 2,
        Value::Bits(_) => 3,
        Value::Array(_) => 4,
    }
}

/// A random value from small domains, so equal pairs are common:
/// `Bit`, `Int`, inline and heap `Bits`, and `Array`s nesting up to
/// `depth` more levels.
fn random_value(rng: &mut SplitMix64, depth: u32) -> Value {
    match rng.below(if depth == 0 { 4 } else { 5 }) {
        0 => Value::Bit(rng.bool()),
        1 => Value::int(rng.range_i64(-1, 1), rng.range_u32(7, 8)),
        2 => Value::Bits(BitVec::from_u64(rng.below(2), *rng.pick(&[0, 1, 64]))),
        3 => {
            let mut v = BitVec::zeros(*rng.pick(&[65, 128]));
            v.set_bit(*rng.pick(&[0, 64]), rng.bool());
            Value::Bits(v)
        }
        _ => Value::Array(
            (0..rng.below(3))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
    }
}

/// `Value`'s `PartialEq`, `Hash` and `clone_from` are written by hand;
/// over every pair of a seeded sample they must mean what the derives
/// did: equality is equality of the `{:?}` texts, equal values hash
/// equally, and `clone_from` leaves an equal copy from whatever value
/// the target held.
#[test]
fn value_eq_hash_and_clone_from_keep_their_derived_meaning() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let mut rng = SplitMix64::new(0xcc);
    let values: Vec<Value> = (0..120).map(|_| random_value(&mut rng, 2)).collect();
    let mut kinds = [[0u32; 5]; 5];
    let mut equal_pairs = 0;
    for a in &values {
        for b in &values {
            let (ta, tb) = (format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a == b, ta == tb, "{ta} vs {tb}");
            if a == b {
                equal_pairs += 1;
                assert_eq!(hash(a), hash(b), "{ta}");
            }
            let mut x = a.clone();
            assert_eq!(format!("{x:?}"), ta);
            x.clone_from(b);
            assert!(x == *b, "{ta} cloned from {tb}");
            assert_eq!(format!("{x:?}"), tb);
            kinds[kind(a)][kind(b)] += 1;
        }
    }
    // Every pair of representations met, heap to inline `Bits` and
    // `Array` to scalar among them, and not only equal values.
    assert!(kinds.iter().flatten().all(|&n| n > 0), "{kinds:?}");
    assert!(equal_pairs > values.len(), "{equal_pairs}");
    assert!(values.iter().any(|v| match v {
        Value::Array(items) => items.iter().any(|i| matches!(i, Value::Array(_))),
        _ => false,
    }));
}
