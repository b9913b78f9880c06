//! # iguard-flow — packet and flow substrate for iGuard
//!
//! Everything between raw bytes on the wire and the feature vectors the
//! models consume:
//!
//! * [`wire`] — typed Ethernet II / IPv4 / TCP / UDP header views with
//!   checksum generation and validation (smoltcp-style, zero-copy reads).
//! * [`packet`] — the parsed [`packet::Packet`] record used by generators
//!   and the switch emulator, with byte-level encode/decode.
//! * [`five_tuple`] — [`five_tuple::FiveTuple`] flow identity and the
//!   **bi-hash** (direction-symmetric hash) HorusEye uses for bidirectional
//!   flow indexing in the data plane.
//! * [`stats`] — streaming per-flow statistics (Welford variance, inter-
//!   packet delays, TCP flag counts) updatable at line rate, one packet at
//!   a time, with O(1) state — exactly the register state a switch keeps.
//! * [`features`] — the three feature views of the paper: the 13 switch
//!   flow-level features (§4.2), the 4 packet-level features for early
//!   packets (§3.3.1), and the richer Magnifier-grade CPU feature set (§4.1).
//! * [`table`] — the data-plane flow table: two hash tables with double
//!   hashing, explicit collision reporting, idle timeout `δ`, and the
//!   per-flow packet-count threshold `n` (§3.3.1).
//! * [`batch`] — structure-of-arrays feature columns
//!   ([`batch::FeatureColumns`]), which the batched index probes of the
//!   switch hot path read, and [`batch::PacketBatch`], a whole-batch
//!   columnar ingest (canonical keys plus the four PL columns).

#![forbid(unsafe_code)]

pub mod batch;
pub mod features;
pub mod five_tuple;
pub mod packet;
pub mod sketch;
pub mod stats;
pub mod table;
pub mod wire;

pub use batch::{FeatureColumns, PacketBatch};
pub use features::{FeatureSet, MAGNIFIER_DIM, PL_DIM, SWITCH_FL_DIM};
pub use five_tuple::FiveTuple;
pub use packet::{Packet, TcpFlags};
pub use sketch::{BloomFilter, CountMinSketch};
pub use stats::FlowStats;
pub use table::{
    FlowShard, FlowTableConfig, FlowTableStats, InsertOutcome, PhaseSchedule, SlotClaim,
};
