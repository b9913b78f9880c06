//! Rule and flow builders shared by the switch integration suites. Each
//! suite compiles this module on its own and uses a subset of it.

#![allow(dead_code)]

use iguard_core::rules::{Hypercube, RuleSet};
use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP, PROTO_UDP};
use iguard_runtime::rng::Rng;

/// A whitelist with one unbounded hypercube: every row is benign.
pub fn accept_all(dim: usize) -> RuleSet {
    RuleSet {
        bounds: vec![(0.0, 1.0); dim],
        whitelist: vec![Hypercube {
            lo: vec![f32::NEG_INFINITY; dim],
            hi: vec![f32::INFINITY; dim],
        }],
        total_regions: 1,
    }
}

/// FL whitelist benign iff mean packet size (feature 2) < `cut`. With
/// per-flow-constant sizes this classifies each flow identically on every
/// (re-)derivation; as a phase whitelist, large-packet flows convict at
/// the boundary and the rest escalate toward the final threshold.
pub fn fl_mean_size_below(cut: f32) -> RuleSet {
    let mut lo = vec![f32::NEG_INFINITY; 13];
    let mut hi = vec![f32::INFINITY; 13];
    lo[2] = f32::NEG_INFINITY;
    hi[2] = cut;
    RuleSet {
        bounds: vec![(0.0, 2000.0); 13],
        whitelist: vec![Hypercube { lo, hi }],
        total_regions: 2,
    }
}

/// A random whitelist: a handful of hypercubes with open/closed faces
/// (sometimes empty — then nothing matches and everything is malicious).
pub fn random_rules(rng: &mut Rng, dim: usize) -> RuleSet {
    let n = rng.gen_range(0usize..4);
    let whitelist = (0..n)
        .map(|_| {
            let mut lo = vec![f32::NEG_INFINITY; dim];
            let mut hi = vec![f32::INFINITY; dim];
            for d in 0..dim {
                if rng.gen_bool(0.5) {
                    lo[d] = rng.gen_range(-10.0f32..1000.0);
                }
                if rng.gen_bool(0.5) {
                    hi[d] = lo[d].max(0.0) + rng.gen_range(0.0f32..1500.0);
                }
            }
            Hypercube { lo, hi }
        })
        .collect();
    RuleSet { bounds: vec![(0.0, 2000.0); dim], whitelist, total_regions: n.max(1) }
}

/// `flows` random five-tuples from a small address/port space, so flows
/// collide in the tables and repeat across a packet stream.
pub fn random_pool(rng: &mut Rng, flows: usize) -> Vec<FiveTuple> {
    (0..flows)
        .map(|_| {
            FiveTuple::new(
                0x0A00_0000 | rng.gen_range(0u32..64),
                0xC0A8_0000 | rng.gen_range(0u32..64),
                rng.gen_range(1024u16..1024 + 32),
                [80u16, 443, 53][rng.gen_range(0..3usize)],
                if rng.gen_bool(0.7) { PROTO_TCP } else { PROTO_UDP },
            )
        })
        .collect()
}
