//! A keyed hasher for the exact-match sets keyed by flow identity.
//!
//! The switch probes its blacklist, its controller maps, the sketch
//! eviction book and the mitigation log on every packet or digest, with
//! small fixed-layout keys: a 5-tuple or a `u64` sequence tag. A probe of
//! a 4,096-entry 5-tuple set costs about 31 ns under std's default
//! SipHash-1-3 and 7 ns under a multiply-mix hash (the `pipeline` group of
//! `cargo bench -p iguard-bench`), so [`FlowSet`] and [`FlowMap`] use
//! [`FlowBuildHasher`] instead:
//!
//! * **Keyed per instance.** Every [`FlowBuildHasher`] draws a fresh key
//!   (initial state and odd multiplier) from std's [`RandomState`]. The
//!   blacklist is filled with attacker-chosen 5-tuples; without the key an
//!   attacker cannot aim flows at one bucket (HashDoS). Like hashbrown's
//!   own keyed default, this is not a cryptographic PRF.
//! * **Robust mixing.** The sub-word writes of a derived `Hash` impl (a
//!   5-tuple writes u32, u32, u16, u16, u8) are packed into 64-bit words.
//!   Each word is folded into the state with a keyed 64×64→128-bit
//!   multiply, and [`Hasher::finish`] ends with a SplitMix64 avalanche, so
//!   the low bits (the bucket index) and the top bits (hashbrown's tag
//!   byte) both depend on every input bit under every key.
//!
//! The key changes which bucket an entry lands in, never which entries a
//! set holds. Code whose output depends on iteration order must sort first
//! (as every exported blacklist and controller view does), exactly as with
//! std's randomly keyed default.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashSet` keyed by [`FlowBuildHasher`].
pub type FlowSet<K> = HashSet<K, FlowBuildHasher>;

/// A `HashMap` keyed by [`FlowBuildHasher`].
pub type FlowMap<K, V> = HashMap<K, V, FlowBuildHasher>;

/// SplitMix64's output avalanche: every input bit flips each output bit
/// with probability close to one half.
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one 64-bit word into the state: the full 128-bit product of
/// `acc ^ word` and the keyed multiplier, high half XORed onto low.
#[inline]
fn fold(acc: u64, word: u64, mul: u64) -> u64 {
    let p = u128::from(acc ^ word) * u128::from(mul);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`FlowHasher`]s under one random per-instance key. `Default`
/// draws a fresh key, so every `FlowSet::default()` is keyed on its own.
#[derive(Clone, Copy, Debug)]
pub struct FlowBuildHasher {
    /// Initial state of every hasher.
    seed: u64,
    /// Multiplier of every fold (odd, so never zero).
    mul: u64,
}

impl FlowBuildHasher {
    /// A builder with a fresh key drawn from std's [`RandomState`].
    pub fn new() -> Self {
        let rs = RandomState::new();
        Self { seed: rs.hash_one(0u64), mul: rs.hash_one(1u64) | 1 }
    }
}

impl Default for FlowBuildHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for FlowBuildHasher {
    type Hasher = FlowHasher;

    #[inline]
    fn build_hasher(&self) -> FlowHasher {
        FlowHasher { acc: self.seed, mul: self.mul, pending: 0, bits: 0 }
    }
}

/// The streaming state of one hash (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FlowHasher {
    acc: u64,
    mul: u64,
    /// Sub-word writes not yet folded, packed from the low end.
    pending: u64,
    /// Bits used in `pending` (0..=64).
    bits: u32,
}

impl FlowHasher {
    /// Appends a sub-word write of `bits` ≤ 32 bits, folding the packed
    /// word first when the write would not fit.
    #[inline]
    fn push(&mut self, v: u64, bits: u32) {
        if self.bits + bits > 64 {
            self.acc = fold(self.acc, self.pending, self.mul);
            self.pending = 0;
            self.bits = 0;
        }
        self.pending |= v << self.bits;
        self.bits += bits;
    }
}

impl Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let acc = if self.bits > 0 { fold(self.acc, self.pending, self.mul) } else { self.acc };
        avalanche(acc)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(b));
        }
        for &b in words.remainder() {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.push(u64::from(v), 8);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.push(u64::from(v), 16);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.push(u64::from(v), 32);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        if self.bits > 0 {
            self.acc = fold(self.acc, self.pending, self.mul);
            self.pending = 0;
            self.bits = 0;
        }
        self.acc = fold(self.acc, v, self.mul);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The field layout of `iguard_flow::five_tuple::FiveTuple` (this
    /// crate sits below the flow crate): its derived `Hash` issues the
    /// same u32, u32, u16, u16, u8 writes.
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Tuple {
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        proto: u8,
    }

    const BASE: Tuple = Tuple {
        src_ip: 0x0A00_0001,
        dst_ip: 0xC0A8_0102,
        src_port: 443,
        dst_port: 51234,
        proto: 6,
    };

    const KEYS: usize = 16_384;
    const BUCKETS: usize = 4_096;

    /// Fresh keys drawn per run. A weak construction fails under only some
    /// keys: with a keyed multiplier but no finalizer, about one key in
    /// twenty clumps the sequential tags past `MAX_LOAD` (up to 43 in one
    /// bucket), so 128 keys catch it with probability above 0.99.
    const INSTANCES: usize = 128;

    /// Ceiling on the fullest of the 4,096 buckets under 16,384 keys (mean
    /// load 4). A uniform hash reaches 24 with probability below
    /// 4,096 · P(Poisson(4) ≥ 24) ≈ 4e-8 per check, about 3e-5 over the
    /// 768 checks below; over 300 keys the hasher's fullest bucket was 20.
    const MAX_LOAD: usize = 24;

    fn max_load(hashes: &[u64], bucket: impl Fn(u64) -> usize) -> usize {
        let mut load = vec![0usize; BUCKETS];
        for &h in hashes {
            load[bucket(h)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn one_instance_hashes_equal_keys_equally() {
        let b = FlowBuildHasher::new();
        let t = BASE;
        assert_eq!(b.hash_one(t), b.hash_one(BASE));
        assert_eq!(b.hash_one(7u64), b.hash_one(7u64));
        // A copy of the builder shares its key.
        let c = b;
        assert_eq!(b.hash_one(t), c.hash_one(t));
        assert_ne!(b.hash_one(t), b.hash_one(Tuple { proto: 17, ..t }));
    }

    #[test]
    fn instances_draw_different_keys() {
        let a = FlowBuildHasher::new();
        let b = FlowBuildHasher::new();
        assert_ne!((a.seed, a.mul), (b.seed, b.mul));
        assert_ne!(a.hash_one(BASE), b.hash_one(BASE));
        assert_ne!(a.hash_one(1u64), b.hash_one(1u64));
    }

    #[test]
    fn write_packs_bytes_like_sub_word_writes() {
        // A byte-slice write folds whole words exactly as write_u64 does.
        let b = FlowBuildHasher::new();
        let mut x = b.build_hasher();
        x.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        let mut y = b.build_hasher();
        y.write_u64(0x0123_4567_89AB_CDEF);
        assert_eq!(x.finish(), y.finish());
    }

    #[test]
    fn sequential_keys_spread_over_buckets_under_every_key() {
        let port_seq: Vec<Tuple> =
            (0..KEYS).map(|i| Tuple { src_port: i as u16, ..BASE }).collect();
        let addr_seq: Vec<Tuple> =
            (0..KEYS).map(|i| Tuple { src_ip: BASE.src_ip + i as u32, ..BASE }).collect();
        let tags: Vec<u64> = (0..KEYS as u64).collect();
        for instance in 0..INSTANCES {
            let b = FlowBuildHasher::new();
            let sets: [(&str, Vec<u64>); 3] = [
                ("sequential port", port_seq.iter().map(|t| b.hash_one(t)).collect()),
                ("sequential address", addr_seq.iter().map(|t| b.hash_one(t)).collect()),
                ("sequential seq tag", tags.iter().map(|t| b.hash_one(t)).collect()),
            ];
            for (name, hashes) in &sets {
                // Low bits pick the bucket; the top bits are hashbrown's
                // tag byte, so both ends must spread.
                let low = max_load(hashes, |h| h as usize % BUCKETS);
                let high = max_load(hashes, |h| (h >> 52) as usize);
                assert!(
                    low <= MAX_LOAD && high <= MAX_LOAD,
                    "instance {instance}, {name}: max load low {low} / high {high} > {MAX_LOAD}"
                );
            }
        }
    }
}
