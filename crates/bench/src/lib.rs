//! # iguard-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. The
//! modules map to paper artefacts:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`pathlen`] | Figs. 2 & 7 — path-length overlap motivation |
//! | [`cpu`] | Figs. 5 & 8 — CPU detection comparison |
//! | [`testbed`] | Figs. 6 & 9, Table 1, Tables 2–3, §3.2.3, App. B.1 |
//! | [`ablation`] | DESIGN.md §5 — guidance, τ_split and k ablations |
//! | [`candidates`] | Fig. 10 — teacher-candidate study |
//! | [`data`] | §4's dataset protocol (train / val+20 % / test+20 %) |
//!
//! Every experiment follows §4's protocol through shared steps: the
//! Magnifier teacher ([`cpu::fit_teacher`]), the student recipe
//! ([`cpu::train_student`]: fit, distill, calibrate the vote threshold on
//! validation) and, for a scored detector, [`data::Scenario::tune_and_test`]
//! (threshold on validation, summary on test).
//!
//! The `figures` binary drives these with one subcommand per artefact;
//! `figures all` trains each testbed [`testbed::Deployment`] once and
//! renders Figs. 6/9, Table 1, §3.2.3 and App. B.1 from it. The timing
//! benches under `benches/` cover the micro-costs (training, inference,
//! rule compilation, per-packet pipeline work).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod candidates;
pub mod cpu;
pub mod data;
pub mod pathlen;
pub mod report;
pub mod testbed;

pub use cpu::Effort;

/// Runs `f` for every attack across the runtime worker pool (scoped
/// threads, `IGUARD_WORKERS` sizing) and returns results in attack order.
pub fn per_attack_parallel<T: Send>(
    attacks: &[iguard_synth::attacks::Attack],
    f: impl Fn(iguard_synth::attacks::Attack) -> T + Sync,
) -> Vec<T> {
    iguard_runtime::par::par_map(attacks, |&attack| f(attack))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_synth::attacks::Attack;

    #[test]
    fn parallel_preserves_order() {
        let attacks = [Attack::Mirai, Attack::Aidra, Attack::Bashlite];
        let names = per_attack_parallel(&attacks, |a| a.name().to_string());
        assert_eq!(names, vec!["Mirai", "Aidra", "Bashlite"]);
    }
}
