//! # iguard-switch — software emulation of the Tofino data plane
//!
//! The paper deploys iGuard on an Edgecore 32X (Tofino 1). This crate
//! emulates the parts of that deployment the evaluation measures:
//!
//! * [`tcam`] — the native-range TCAM table ([`RangeTable`], one entry
//!   per rule, first match by priority) whitelist rules are installed
//!   with and the source of Table 1's TCAM numbers. Range→TCAM
//!   compilation is **grid-exact**: an installed entry matches key `k`
//!   iff the float rule contains `dequantize(k)`, so the TCAM model, the
//!   float rules, and the compiled indexes agree on every representable
//!   key.
//! * [`rule_index`] — [`rule_index::RangeIndex`]: the compiled first-match
//!   index of a [`RangeTable`] (binary-searchable per-field cut points +
//!   priority-ordered rule bitmaps), returning the identical entry as the
//!   linear scan at a fraction of the cost.
//! * [`ruleset`] — the transactional whitelist lifecycle: canonical
//!   entry ordering, the minimal install/remove diff between two compiled
//!   [`RangeTable`]s, and the versioned [`ruleset::RulesetTxn`] the
//!   backends apply hitlessly (one epoch replaced under `&mut self`, see
//!   [`pipeline`]).
//! * [`resources`] — a Tofino-1-like resource model (TCAM/SRAM blocks,
//!   stateful ALUs, VLIW actions, pipeline stages) that converts an
//!   installed iGuard configuration into the utilisation percentages of
//!   Table 1 and the memory fraction ρ of the §4.2.1 reward.
//! * [`pipeline`] — the match-action pipeline of Fig. 4 with all six
//!   execution paths (blacklist, early/brown, threshold/blue,
//!   collision/orange, early-decision/purple, loopback/green), digest
//!   emission, and loopback mirroring: [`Pipeline`], the one data plane
//!   for every layout, and [`ScalarPipeline`], its per-packet oracle.
//! * [`data_plane`] — the [`DataPlane`] trait both implement and its
//!   [`DataPlaneStats`] snapshot; controller and replay are generic over it.
//! * [`sharded`] — the sharded layout ([`ShardedPipelineConfig`]): the
//!   same pipeline partitioned across logical shards and driven on the
//!   runtime's worker pool, with deterministic (sequence-ordered) digest
//!   merging.
//! * [`sketched`] — the sketched layout ([`SketchedPipelineConfig`]): a
//!   Bloom/CMS admission stage at the flow table's untracked seam, under
//!   a resident-byte budget with pluggable eviction.
//! * [`channel`] — the fallible digest/action channels between data plane
//!   and controller, driven by a seeded
//!   [`FaultPlan`](iguard_runtime::FaultPlan) (drop / duplicate / reorder /
//!   delay / outage faults, deterministically replayable).
//! * [`controller`] — the control plane: consumes digests (idempotently,
//!   dedup'd on sequence tags), installs blacklist rules (FIFO or LRU
//!   eviction) with bounded retry + backoff on send failures, clears flow
//!   storage, degrades gracefully when saturated, checkpoints and rebuilds
//!   after crashes, and accounts control-plane bandwidth (App. B.2).
//! * [`replay`] — trace replay through any [`DataPlane`] with
//!   cycle-accounting to estimate throughput and per-packet latency
//!   (App. B.1), including a HorusEye-style control-plane detour model for
//!   comparison and deterministic fault injection on the control loop; one
//!   loop serves materialised traces and generated packet streams.

#![forbid(unsafe_code)]

pub mod channel;
pub mod controller;
pub mod data_plane;
pub mod pipeline;
pub mod replay;
pub mod resources;
pub mod rule_index;
pub mod ruleset;
pub mod sharded;
pub mod sketched;
pub mod tcam;

pub use channel::{ActionChannel, ActionStats, ChannelStats, DigestChannel};
pub use controller::{
    Controller, ControllerConfig, ControllerSnapshot, ControllerStats, EvictionPolicy, RetryPolicy,
};
pub use data_plane::{DataPlane, DataPlaneStats, OverloadStats, SketchStats, SketchView};
pub use pipeline::{
    Layout, OverloadConfig, PacketVerdict, PathTaken, Pipeline, PipelineConfig, ScalarPipeline,
    SeqDigest, WhitelistCounters, RESYNC_SEQ_BASE,
};
pub use replay::{
    replay_source, ChaosConfig, CrashRecovery, CrashSpec, MitigationLog, MitigationRecord,
    PacketSource, TraceSource,
};
pub use resources::{ResourceModel, ResourceUsage};
pub use rule_index::RangeIndex;
pub use ruleset::{canonical_entries, RulesetCounters, RulesetDiff, RulesetTxn};
pub use sharded::{ShardedPipeline, ShardedPipelineConfig, LOGICAL_SHARDS};
pub use sketched::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
pub use tcam::{RangeEntry, RangeTable};
