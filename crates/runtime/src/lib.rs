//! # iguard-runtime — the hermetic substrate under every other crate
//!
//! The workspace builds with **zero external dependencies**; everything the
//! training/inference loop needs from the ecosystem is re-implemented here,
//! small and auditable:
//!
//! * [`rng`] — a seeded, splittable xoshiro256++ PRNG (SplitMix64 seeding)
//!   with the uniform / normal / choose / shuffle helpers the models use.
//!   Child streams ([`rng::Rng::derive`]) make parallel work byte-identical
//!   at any worker count.
//! * [`par`] — a scoped parallel map on `std::thread::scope` for offline
//!   work, and [`par::Crew`], a persistent worker crew that hands a job to
//!   long-lived threads with an epoch counter and a spin-then-park wait,
//!   for the per-batch shard work of the sharded data plane. Worker count
//!   defaults to `available_parallelism`, is overridable with the
//!   `IGUARD_WORKERS` env var, and can be pinned per call tree with
//!   [`par::with_workers`]. Results always come back in input order.
//! * [`fault`] — deterministic fault injection: seeded [`fault::FaultPlan`]s
//!   (drop / duplicate / reorder / delay probabilities, scripted outage
//!   windows) with one derived RNG stream per channel, so chaos runs are
//!   byte-identical at any worker count.
//! * [`dataset`] — a columnar (row-major, flat-buffer) [`dataset::Dataset`]
//!   replacing `Vec<Vec<f32>>` on the batch paths, cache-friendly for
//!   batched scoring and matrix construction.
//! * [`scratch`] — reusable scratch buffers ([`scratch::VecPool`],
//!   [`scratch::ShardBins`]) so per-batch hot loops allocate only at
//!   warm-up, not per iteration.
//! * [`hash`] — [`hash::FlowSet`] / [`hash::FlowMap`], std hash containers
//!   under a per-instance keyed multiply-mix hasher, for the exact-match
//!   sets keyed by flow identity on the switch's per-packet and
//!   per-digest paths.
//! * [`builder`] — the [`builder_setters!`] macro generating the chained
//!   `with_*` config setters every config family in the workspace shares,
//!   so builder conventions are enforced in one place.
//! * [`mod@proptest_lite`] — a seeded randomized-input test loop (macro
//!   [`proptest_lite!`]) with shrinking-free failure reporting.
//! * [`timing`] — a tiny benchmark harness (warmup + calibrated iteration
//!   count, min/mean/max in ns) for `benches/` targets with
//!   `harness = false`.
//!
//! The crate denies `unsafe` code; the one exception is the crew's
//! lifetime erasure in [`par`], argued in its `SAFETY:` comment.

#![deny(unsafe_code)]

pub mod builder;
pub mod dataset;
pub mod fault;
pub mod hash;
pub mod par;
pub mod proptest_lite;
pub mod rng;
pub mod scratch;
pub mod timing;

pub use dataset::Dataset;
pub use fault::{ChannelKind, FaultPlan, FaultStream, OutageWindow};
pub use rng::{Rng, SliceRandom};
