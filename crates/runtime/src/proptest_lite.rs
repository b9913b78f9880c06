//! Seeded randomized-input test loop — the in-repo stand-in for `proptest`.
//!
//! Each test body runs [`DEFAULT_CASES`] times (override per test with
//! `cases = N`, or globally with the `IGUARD_PROPTEST_CASES` env var), with a
//! fresh [`Rng`] per case seeded from a hash of the test name and the case
//! index. A failing case panics with the case number and seed so it can be
//! replayed; there is no shrinking — rerun with the reported seed and bisect
//! by hand.
//!
//! ```
//! use iguard_runtime::proptest_lite;
//!
//! proptest_lite! {
//!     /// Addition commutes.
//!     fn add_commutes(rng) {
//!         let (a, b) = (rng.gen_range(0u32..1000), rng.gen_range(0u32..1000));
//!         assert_eq!(a + b, b + a);
//!     }
//!
//!     fn cheap_but_many(rng, cases = 256) {
//!         assert!(rng.gen_range(0.0f64..1.0) < 1.0);
//!     }
//! }
//! # fn main() {}
//! ```

use crate::rng::Rng;

/// Cases per test when not specified at the call site.
pub const DEFAULT_CASES: u64 = 32;

/// FNV-1a — stable name hash so each test gets its own seed family.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Cases to run: env override (`IGUARD_PROPTEST_CASES`) else `requested`.
pub fn case_count(requested: u64) -> u64 {
    std::env::var("IGUARD_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(requested)
}

/// Drive `body` through `cases` seeded runs, reporting the failing case.
pub fn run<F: FnMut(&mut Rng)>(name: &str, cases: u64, mut body: F) {
    let base = fnv1a(name);
    let cases = case_count(cases);
    for case in 0..cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "proptest_lite `{name}` failed at case {case}/{cases} \
                 (replay seed {seed:#018x}): {msg}"
            );
        }
    }
}

/// Replay a single case by seed — paste the seed from a failure message.
pub fn replay<F: FnMut(&mut Rng)>(seed: u64, mut body: F) {
    let mut rng = Rng::seed_from_u64(seed);
    body(&mut rng);
}

/// Declare seeded randomized tests. Each item becomes a `#[test]` whose body
/// receives `rng: &mut Rng`; draw inputs from it instead of proptest
/// strategies.
#[macro_export]
macro_rules! proptest_lite {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($rng:ident, cases = $cases:expr) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::proptest_lite::run(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
                |$rng: &mut $crate::rng::Rng| $body,
            );
        }
        $crate::proptest_lite! { $($rest)* }
    };
    ($(#[$meta:meta])* fn $name:ident($rng:ident) $body:block $($rest:tt)*) => {
        $crate::proptest_lite! {
            $(#[$meta])*
            fn $name($rng, cases = $crate::proptest_lite::DEFAULT_CASES) $body
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_case_with_distinct_seeds() {
        let mut draws = Vec::new();
        run("seed_family", 16, |rng| draws.push(rng.next_u64()));
        assert_eq!(draws.len(), 16);
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "each case should get a fresh stream");
    }

    #[test]
    fn failure_reports_case_and_seed() {
        let result = std::panic::catch_unwind(|| {
            run("always_fails_late", 8, |rng| {
                let x = rng.gen_range(0u32..100);
                assert!(x < u32::MAX, "force rng use");
                if true {
                    panic!("boom {x}");
                }
            });
        });
        let payload = result.expect_err("should propagate failure");
        let msg = payload.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails_late"), "{msg}");
        assert!(msg.contains("replay seed"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn replay_reproduces_case_stream() {
        let mut first = 0u64;
        run("replayable", 1, |rng| first = rng.next_u64());
        let base = fnv1a("replayable");
        let mut again = 0u64;
        replay(base, |rng| again = rng.next_u64());
        assert_eq!(first, again);
    }

    proptest_lite! {
        /// The macro itself compiles, runs, and hands out a usable rng.
        fn macro_smoke(rng) {
            let v = rng.gen_range(1usize..10);
            assert!((1..10).contains(&v));
        }

        fn macro_case_override(rng, cases = 3) {
            assert!(rng.gen_bool(1.0));
        }
    }
}
