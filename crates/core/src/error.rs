//! The workspace-wide error type.
//!
//! Before this module each layer had its own enum — [`RuleGenError`] in
//! rule generation, panicking asserts in the TCAM compiler, `WireError` in
//! the packet parsers — and cross-layer callers (the bench harness, the
//! facade examples) had to thread three incompatible `Result` types.
//! [`IguardError`] is the union: every concrete enum keeps its precise
//! variants and `From` impls lift them, so `?` works across layer
//! boundaries while matching on the concrete error stays possible.

use std::fmt;

use crate::rules::RuleGenError;
use iguard_flow::wire::WireError;

/// TCAM compilation failures.
///
/// The range compiler lives in `iguard-switch`, which depends on this
/// crate — so the error type is defined here, where the unified
/// [`IguardError`] can name it without a dependency cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcamError {
    /// Field width outside the supported 1..=32 bits.
    BadFieldWidth { bits: u8 },
    /// A quantisation scale that is zero, negative, or non-finite.
    BadScale,
    /// Rule dimensionality disagrees with the field-spec list.
    DimensionMismatch { rules: usize, specs: usize },
}

impl fmt::Display for TcamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcamError::BadFieldWidth { bits } => {
                write!(f, "field width {bits} outside supported 1..=32 bits")
            }
            TcamError::BadScale => write!(f, "quantisation scale must be positive and finite"),
            TcamError::DimensionMismatch { rules, specs } => {
                write!(f, "rule set has {rules} fields but {specs} field specs were given")
            }
        }
    }
}

impl std::error::Error for TcamError {}

/// Control-loop failures of the emulated switch deployment.
///
/// Rule installs travel a fallible channel to a finite TCAM: both the
/// transport and the destination can refuse. Defined here (like
/// [`TcamError`]) so the unified [`IguardError`] can name it without a
/// dependency cycle on `iguard-switch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchError {
    /// The data-plane blacklist TCAM has no free entry for an install.
    TcamFull { capacity: usize },
    /// The control channel is down (scripted outage or transient fault);
    /// the command was not delivered.
    ChannelDown,
    /// A ruleset transaction arrived out of order: its diff was computed
    /// against a base version the data plane does not hold, so applying
    /// it would install a partial table. `expected` is the next version
    /// the plane accepts; `got` is the transaction's version. (Versions
    /// at or below the installed one are idempotent no-ops, not errors.)
    StaleRuleset { expected: u64, got: u64 },
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::TcamFull { capacity } => {
                write!(f, "blacklist TCAM full at {capacity} entries")
            }
            SwitchError::ChannelDown => write!(f, "control channel down"),
            SwitchError::StaleRuleset { expected, got } => {
                write!(f, "stale ruleset transaction: expected version {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// The unified error of the iGuard workspace.
///
/// Wraps the layer-specific enums; construct via `From`/`?` and match on
/// the variant to recover the concrete error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IguardError {
    /// Whitelist-rule generation failed (region budget exceeded, …).
    RuleGen(RuleGenError),
    /// TCAM range compilation failed.
    Tcam(TcamError),
    /// A wire-format parse failed (truncated, bad checksum, …).
    Wire(WireError),
    /// A switch control-loop operation failed (channel down, TCAM full, …).
    Switch(SwitchError),
}

impl fmt::Display for IguardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IguardError::RuleGen(e) => write!(f, "rule generation: {e}"),
            IguardError::Tcam(e) => write!(f, "tcam compile: {e}"),
            IguardError::Wire(e) => write!(f, "wire parse: {e}"),
            IguardError::Switch(e) => write!(f, "switch control loop: {e}"),
        }
    }
}

impl From<SwitchError> for IguardError {
    fn from(e: SwitchError) -> Self {
        IguardError::Switch(e)
    }
}

impl From<RuleGenError> for IguardError {
    fn from(e: RuleGenError) -> Self {
        IguardError::RuleGen(e)
    }
}

impl From<TcamError> for IguardError {
    fn from(e: TcamError) -> Self {
        IguardError::Tcam(e)
    }
}

impl From<WireError> for IguardError {
    fn from(e: WireError) -> Self {
        IguardError::Wire(e)
    }
}

impl std::error::Error for IguardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IguardError::RuleGen(e) => Some(e),
            IguardError::Tcam(e) => Some(e),
            IguardError::Wire(e) => Some(e),
            IguardError::Switch(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_lift_each_layer() {
        let r: IguardError = RuleGenError::TooManyRegions { budget: 10, reached: 11 }.into();
        assert!(matches!(r, IguardError::RuleGen(_)));
        let t: IguardError = TcamError::BadScale.into();
        assert!(matches!(t, IguardError::Tcam(TcamError::BadScale)));
        let w: IguardError = WireError::Truncated.into();
        assert!(matches!(w, IguardError::Wire(WireError::Truncated)));
        let s: IguardError = SwitchError::ChannelDown.into();
        assert!(matches!(s, IguardError::Switch(SwitchError::ChannelDown)));
    }

    #[test]
    fn switch_errors_display_their_detail() {
        assert!(IguardError::Switch(SwitchError::TcamFull { capacity: 64 })
            .to_string()
            .contains("64 entries"));
        let s = IguardError::Switch(SwitchError::StaleRuleset { expected: 3, got: 7 }).to_string();
        assert!(s.contains("version 3") && s.contains("got 7"), "{s}");
    }

    #[test]
    fn display_prefixes_layer_and_keeps_detail() {
        let e = IguardError::Tcam(TcamError::DimensionMismatch { rules: 9, specs: 3 });
        let s = e.to_string();
        assert!(s.contains("tcam"), "{s}");
        assert!(s.contains("9 fields") && s.contains("3 field specs"), "{s}");
        let e = IguardError::RuleGen(RuleGenError::TooManyRegions { budget: 2, reached: 5 });
        assert!(e.to_string().contains("budget of 2"), "{e}");
    }

    #[test]
    fn question_mark_crosses_layers() {
        fn parse() -> Result<(), IguardError> {
            Err(WireError::BadChecksum)?
        }
        assert_eq!(parse().unwrap_err(), IguardError::Wire(WireError::BadChecksum));
    }

    #[test]
    fn source_chains_to_concrete_error() {
        use std::error::Error;
        let e = IguardError::Wire(WireError::BadLength);
        assert!(e.source().is_some());
    }
}
