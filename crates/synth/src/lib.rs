//! # iguard-synth — synthetic traffic standing in for the paper's datasets
//!
//! The paper evaluates on captured PCAPs: benign IoT traffic (HorusEye's
//! normal set, Sivanathan et al.'s IoT traces) and 15 attacks drawn from
//! IoT-malware and Bot-IoT datasets. Those captures are not redistributable,
//! so this crate provides **parametric generators** that synthesise packet
//! traces with the same flow-level structure:
//!
//! * [`benign`] — a mixture of IoT device behaviours (periodic telemetry,
//!   bursty cloud sync, DNS chatter, keep-alives) whose flow-feature
//!   distributions overlap heavily with low-rate attacks — reproducing the
//!   path-length overlap that motivates iGuard (paper Fig. 2/7).
//! * [`attacks`] — the 15 attack generators (Mirai, Aidra, Bashlite,
//!   UDP/TCP/HTTP DDoS, OS/service/port scans, data theft, keylogging, and
//!   the five "router" variants observed through an aggregating gateway).
//! * [`adversarial`] — the black-box adversarial transforms of Tables 2–3:
//!   low-rate dilution (1/100 rate), training-set poisoning (2 %/10 %), and
//!   benign-blending evasion (1:2, 1:4).
//! * [`trace`] — trace assembly: interleaving flows by timestamp, splitting
//!   train/validation/test the way HorusEye does (§4), and turning traces
//!   into labelled feature matrices via `iguard-flow`.
//!
//! Every generator takes an explicit RNG so experiments are reproducible.

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod attacks;
pub mod benign;
mod loser_tree;
pub mod pcap;
pub mod profile;
pub mod scenarios;
pub mod streaming;
pub mod trace;

pub use attacks::{Attack, ALL_ATTACKS};
pub use scenarios::{Scenario, ALL_SCENARIOS};
pub use streaming::{StreamingConfig, StreamingTrace, Zipf};
pub use trace::{LabeledFlows, Trace};
