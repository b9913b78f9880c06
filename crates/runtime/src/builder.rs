//! The workspace-wide builder-setter convention, as one macro.
//!
//! Every config struct in the workspace (`ReplayConfig`, `ChaosConfig`,
//! `ShardedPipelineConfig`, `SketchedPipelineConfig`, `DriftConfig`, …)
//! exposes the same builder shape: public fields, a semantic `Default`,
//! and chained consuming `with_*` setters so call sites read
//!
//! ```text
//! let cfg = ReplayConfig::default().with_batch_size(64).with_exercise_wire(true);
//! ```
//!
//! Before PR 8 each family hand-wrote those setters;
//! [`builder_setters!`](crate::builder_setters) generates the plain
//! `self.field = value` ones so every family stays mechanically identical.
//! Setters with real bodies — clamping, asserts, `Option` wrapping, list
//! pushes — remain hand-written next to the macro invocation, where the
//! divergence from the plain shape is visible. See DESIGN.md ("Config builder conventions") for the full
//! rules.

/// Generates chained consuming `with_*` setters on a config struct.
///
/// Each row is `[doc comments] setter_name => field: Type`; the
/// generated method moves `self`, assigns the field verbatim, and
/// returns `self`. One invocation produces one `impl` block, so
/// hand-written setters with custom bodies live in a separate
/// `impl` next to it.
///
/// ```
/// #[derive(Default)]
/// pub struct Cfg {
///     pub workers: usize,
///     pub verbose: bool,
/// }
///
/// iguard_runtime::builder_setters! { Cfg =>
///     /// Builder: worker count.
///     with_workers => workers: usize,
///     /// Builder: chatty logging.
///     with_verbose => verbose: bool,
/// }
///
/// let cfg = Cfg::default().with_workers(8).with_verbose(true);
/// assert_eq!((cfg.workers, cfg.verbose), (8, true));
/// ```
#[macro_export]
macro_rules! builder_setters {
    ($ty:ty => $( $(#[$doc:meta])* $setter:ident => $field:ident : $t:ty ),+ $(,)?) => {
        impl $ty {
            $(
                $(#[$doc])*
                #[must_use = "builder setters return the updated config"]
                pub fn $setter(mut self, value: $t) -> Self {
                    self.$field = value;
                    self
                }
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Demo {
        rate: f64,
        on: bool,
        tag: u32,
    }

    crate::builder_setters! { Demo =>
        /// Builder: rate.
        with_rate => rate: f64,
        /// Builder: toggle.
        with_on => on: bool,
        /// Builder: tag word.
        with_tag => tag: u32,
    }

    #[test]
    fn setters_chain_and_assign() {
        let d = Demo::default().with_rate(2.5).with_on(true).with_tag(7);
        assert_eq!(d, Demo { rate: 2.5, on: true, tag: 7 });
    }

    #[test]
    fn later_calls_overwrite_earlier_ones() {
        let d = Demo::default().with_tag(1).with_tag(9);
        assert_eq!(d.tag, 9);
    }
}
