//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [<artefact>|all] [--full] [--seed N]
//!   artefacts: fig2 fig7 fig5 fig8 fig6 fig9 fig10 table1 table2 table3
//!              consistency b1 b2 ablations
//! ```
//!
//! Numbers are produced by the same library code the tests exercise; the
//! tables print the same rows/series the paper reports. Shapes (who wins,
//! by roughly what factor) are the reproduction target — absolute values
//! depend on the synthetic traffic substitution documented in DESIGN.md.
//!
//! One process trains each testbed deployment once: Figs. 6/9, Table 1,
//! the consistency check and B.1 all measure the deployments that
//! [`Run::testbed`] keeps.

use iguard_bench::cpu::{self, Effort};
use iguard_bench::data::AttackTransform;
use iguard_bench::report::{histogram_row, m3, pct, table};
use iguard_bench::testbed::{self, Deployment};
use iguard_bench::{candidates, pathlen, per_attack_parallel};
use iguard_metrics::DetectionSummary;
use iguard_runtime::par::par_map;
use iguard_switch::replay::ControlPlaneModel;
use iguard_synth::attacks::{Attack, ALL_ATTACKS};

/// Fig. 2 uses these five attacks; Fig. 7 the other ten.
const FIG2_ATTACKS: [Attack; 5] =
    [Attack::Aidra, Attack::Mirai, Attack::Bashlite, Attack::UdpDdos, Attack::OsScan];

fn fig7_attacks() -> Vec<Attack> {
    ALL_ATTACKS.iter().copied().filter(|a| !FIG2_ATTACKS.contains(a)).collect()
}

/// An artefact's name and renderer.
type Artefact = (&'static str, fn(&mut Run));

/// Every artefact, in the order `all` renders them.
const ARTEFACTS: [Artefact; 14] = [
    ("fig2", |r| path_overlap("Figure 2", &FIG2_ATTACKS, r.seed)),
    ("fig7", |r| path_overlap("Figure 7", &fig7_attacks(), r.seed)),
    ("fig5", |r| cpu_comparison("Figure 5", &FIG2_ATTACKS, r.seed, r.effort)),
    ("fig8", |r| cpu_comparison("Figure 8", &fig7_attacks(), r.seed, r.effort)),
    ("fig6", |r| testbed_comparison("Figure 6", &r.testbed(&FIG2_ATTACKS))),
    ("fig9", |r| testbed_comparison("Figure 9", &r.testbed(&fig7_attacks()))),
    ("fig10", |r| fig10(r.seed, r.effort)),
    ("table1", |r| table1(&r.testbed(&ALL_ATTACKS))),
    ("table2", |r| adversarial(&TABLE2, r)),
    ("table3", |r| adversarial(&TABLE3, r)),
    ("consistency", |r| consistency_check(&r.testbed(&ALL_ATTACKS))),
    ("b1", |r| throughput_latency(&r.testbed(&ALL_ATTACKS))),
    ("b2", |_| digest_overhead()),
    ("ablations", |r| ablations(r.seed)),
];

/// One invocation's settings and the testbed deployments it has trained.
struct Run {
    seed: u64,
    effort: Effort,
    testbed: Vec<Deployment>,
}

impl Run {
    /// The testbed deployments of `attacks`, in order, training only the
    /// attacks no earlier artefact of this run needed.
    fn testbed(&mut self, attacks: &[Attack]) -> Vec<&Deployment> {
        let known = |a: &Attack| self.testbed.iter().any(|r| r.attack == *a);
        let missing: Vec<Attack> = attacks.iter().copied().filter(|a| !known(a)).collect();
        let (seed, effort) = (self.seed, self.effort);
        self.testbed.extend(per_attack_parallel(&missing, |a| Deployment::train(a, seed, effort)));
        let find = |a: &Attack| self.testbed.iter().find(|r| r.attack == *a).expect("trained");
        attacks.iter().map(find).collect()
    }
}

/// Parses `[<artefact>|all] [--full] [--seed N]` into the artefacts to
/// render and a fresh [`Run`].
fn parse(args: &[String]) -> Result<(&'static [Artefact], Run), String> {
    let mut args = args.iter().map(String::as_str);
    let artefacts = match args.next().unwrap_or("all") {
        "all" => &ARTEFACTS[..],
        name => {
            let i = ARTEFACTS.iter().position(|a| a.0 == name);
            let i = i.ok_or_else(|| format!("unknown artefact `{name}`"))?;
            &ARTEFACTS[i..=i]
        }
    };
    let mut run = Run { seed: 7, effort: Effort::Quick, testbed: Vec::new() };
    while let Some(arg) = args.next() {
        match arg {
            "--full" => run.effort = Effort::Full,
            "--seed" => {
                let seed = args.next().and_then(|v| v.parse().ok());
                run.seed = seed.ok_or("`--seed` needs a non-negative integer")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((artefacts, run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((artefacts, mut run)) => artefacts.iter().for_each(|(_, render)| render(&mut run)),
        Err(e) => {
            let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.0).collect();
            eprintln!("{e}");
            eprintln!("usage: figures <{}|all> [--full] [--seed N]", names.join("|"));
            std::process::exit(2);
        }
    }
}

/// Figs. 2 / 7: expected-path-length histograms + overlap coefficient.
fn path_overlap(title: &str, attacks: &[Attack], seed: u64) {
    println!("== {title}: iForest expected-path-length overlap (§3.1) ==");
    let results = per_attack_parallel(attacks, |a| pathlen::run_attack(a, seed, 24));
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.attack.name().to_string(),
            histogram_row(&r.benign),
            histogram_row(&r.malicious),
            m3(r.overlap),
            m3(r.containment),
        ]);
    }
    println!(
        "{}",
        table(
            &["attack", "benign E[h] hist", "malicious E[h] hist", "overlap", "containment"],
            &rows
        )
    );
    let mean: f64 = results.iter().map(|r| r.overlap).sum::<f64>() / results.len() as f64;
    let meanc: f64 = results.iter().map(|r| r.containment).sum::<f64>() / results.len() as f64;
    println!("mean overlap {mean:.3}; mean containment {meanc:.3}");
    println!("(paper: \"significant overlap\" — malicious E[h] inside the benign range)\n");
}

/// Figs. 5 / 8: CPU detection comparison.
fn cpu_comparison(title: &str, attacks: &[Attack], seed: u64, effort: Effort) {
    println!("== {title}: CPU detection — iForest vs Magnifier vs iGuard (§4.1) ==");
    let results = per_attack_parallel(attacks, |a| cpu::run_attack(a, seed, effort));
    let mut rows = Vec::new();
    let mut avg = [[0.0f64; 3]; 3];
    for r in &results {
        rows.push(vec![
            r.attack.name().to_string(),
            m3(r.iforest.macro_f1),
            m3(r.iforest.pr_auc),
            m3(r.iforest.roc_auc),
            m3(r.magnifier.macro_f1),
            m3(r.magnifier.pr_auc),
            m3(r.magnifier.roc_auc),
            m3(r.iguard.macro_f1),
            m3(r.iguard.pr_auc),
            m3(r.iguard.roc_auc),
        ]);
        for (i, s) in [r.iforest, r.magnifier, r.iguard].iter().enumerate() {
            avg[i][0] += s.macro_f1;
            avg[i][1] += s.pr_auc;
            avg[i][2] += s.roc_auc;
        }
    }
    let n = results.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        m3(avg[0][0] / n),
        m3(avg[0][1] / n),
        m3(avg[0][2] / n),
        m3(avg[1][0] / n),
        m3(avg[1][1] / n),
        m3(avg[1][2] / n),
        m3(avg[2][0] / n),
        m3(avg[2][1] / n),
        m3(avg[2][2] / n),
    ]);
    println!(
        "{}",
        table(
            &[
                "attack", "iF F1", "iF PR", "iF ROC", "Mag F1", "Mag PR", "Mag ROC", "iG F1",
                "iG PR", "iG ROC"
            ],
            &rows
        )
    );
    println!("paper shape: iGuard ≈ Magnifier ≥ iForest (improvements 1.8–62.9% F1)\n");
}

/// Figs. 6 / 9: testbed comparison on the emulated switch.
fn testbed_comparison(title: &str, deployments: &[&Deployment]) {
    println!("== {title}: testbed (emulated switch) — iForest vs iGuard (§4.2.1) ==");
    let summaries = par_map(deployments, |d| d.summaries());
    let mut rows = Vec::new();
    let mut avg = [[0.0f64; 3]; 2];
    for (d, &(iforest, iguard)) in deployments.iter().zip(&summaries) {
        rows.push(vec![
            d.attack.name().to_string(),
            m3(iforest.macro_f1),
            m3(iforest.roc_auc),
            m3(iforest.pr_auc),
            m3(iguard.macro_f1),
            m3(iguard.roc_auc),
            m3(iguard.pr_auc),
            format!("{}", d.iguard_rules.len()),
            format!("{}", d.iforest_rules.len()),
        ]);
        for (i, s) in [iforest, iguard].iter().enumerate() {
            avg[i][0] += s.macro_f1;
            avg[i][1] += s.roc_auc;
            avg[i][2] += s.pr_auc;
        }
    }
    let n = deployments.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        m3(avg[0][0] / n),
        m3(avg[0][1] / n),
        m3(avg[0][2] / n),
        m3(avg[1][0] / n),
        m3(avg[1][1] / n),
        m3(avg[1][2] / n),
        String::new(),
        String::new(),
    ]);
    println!(
        "{}",
        table(
            &[
                "attack", "iF F1", "iF ROC", "iF PR", "iG F1", "iG ROC", "iG PR", "iG rules",
                "iF rules"
            ],
            &rows
        )
    );
    println!("paper shape: iGuard improves F1 by 5–48.3% with a smaller rule table\n");
}

/// Fig. 10: candidate-teacher study.
fn fig10(seed: u64, effort: Effort) {
    println!("== Figure 10: candidate teachers, macro F1 on 15 attacks (App. A) ==");
    let results = per_attack_parallel(&ALL_ATTACKS, |a| candidates::run_attack(a, seed, effort));
    let mut rows = Vec::new();
    let mut avg = [0.0f64; 6];
    for r in &results {
        let mut row = vec![r.attack.name().to_string()];
        for (i, v) in r.macro_f1.iter().enumerate() {
            row.push(m3(*v));
            avg[i] += v;
        }
        rows.push(row);
    }
    let n = results.len() as f64;
    let mut last = vec!["AVERAGE".to_string()];
    for v in avg {
        last.push(m3(v / n));
    }
    rows.push(last);
    let mut headers = vec!["attack"];
    headers.extend(candidates::CANDIDATES);
    println!("{}", table(&headers, &rows));
    println!("paper shape: Magnifier wins on average → chosen as iGuard's teacher\n");
}

/// Table 1: average switch resource consumption across the 15 attacks.
fn table1(deployments: &[&Deployment]) {
    println!("== Table 1: switch resources, averaged over 15 attacks (§4.2.2) ==");
    let usages = par_map(deployments, |d| d.resources());
    let mut acc = [[0.0f64; 4]; 2];
    for (iforest, iguard) in &usages {
        for (i, u) in [iforest, iguard].iter().enumerate() {
            acc[i][0] += u.tcam;
            acc[i][1] += u.sram;
            acc[i][2] += u.salu;
            acc[i][3] += u.vliw;
        }
    }
    let n = usages.len() as f64;
    let rows = vec![
        vec![
            "iForest [15]".to_string(),
            pct(acc[0][0] / n),
            pct(acc[0][1] / n),
            pct(acc[0][2] / n),
            pct(acc[0][3] / n),
            "12".into(),
        ],
        vec![
            "iGuard".to_string(),
            pct(acc[1][0] / n),
            pct(acc[1][1] / n),
            pct(acc[1][2] / n),
            pct(acc[1][3] / n),
            "12".into(),
        ],
    ];
    println!("{}", table(&["model", "TCAM", "SRAM", "sALUs", "VLIWs", "Stages"], &rows));
    println!("paper: iForest 16.47/11.55/19.59/7.75 vs iGuard 13.34/11.51/19.62/7.79 — iGuard's");
    println!("extra stopping criterion shrinks the whitelist, cutting TCAM in particular\n");
}

/// One black-box adversary of Tables 2–3: row label, attack, traffic
/// transform and the poisoned fraction of the training set.
type Adversary = (&'static str, Attack, AttackTransform, f64);

/// A table of adversaries: its title, its rows and the paper's shape.
type AdversaryTable = (&'static str, [Adversary; 4], &'static str);

/// Table 2: low-rate and poisoning adversaries.
const TABLE2: AdversaryTable = (
    "Table 2: black-box low-rate & poisoning adversaries (App.)",
    [
        ("Low rate (UDPDDoS 1/100)", Attack::UdpDdos, AttackTransform::LowRate(100.0), 0.0),
        ("Low rate (TCPDDoS 1/100)", Attack::TcpDdos, AttackTransform::LowRate(100.0), 0.0),
        ("Poison (Mirai 2%)", Attack::Mirai, AttackTransform::None, 0.02),
        ("Poison (Mirai 10%)", Attack::Mirai, AttackTransform::None, 0.10),
    ],
    "paper shape: iGuard degrades far less than iForest (improvements 22–57%)",
);

/// Table 3: evasion-by-blending adversaries.
const TABLE3: AdversaryTable = (
    "Table 3: black-box evasion (benign blending) adversaries (App.)",
    [
        ("Evasion (UDPDDoS 1:2)", Attack::UdpDdos, AttackTransform::Evasion(2), 0.0),
        ("Evasion (TCPDDoS 1:2)", Attack::TcpDdos, AttackTransform::Evasion(2), 0.0),
        ("Evasion (UDPDDoS 1:4)", Attack::UdpDdos, AttackTransform::Evasion(4), 0.0),
        ("Evasion (TCPDDoS 1:4)", Attack::TcpDdos, AttackTransform::Evasion(4), 0.0),
    ],
    "paper shape: iGuard retains detection under blending (improvements 30–80%)",
);

/// Tables 2–3: both testbed models against black-box adversaries.
fn adversarial((title, adversaries, footer): &AdversaryTable, run: &Run) {
    println!("== {title} ==");
    let summaries = par_map(adversaries, |&(_, attack, transform, poison)| {
        testbed::run_adversarial(attack, transform, poison, run.seed, run.effort)
    });
    let cell =
        |s: &DetectionSummary| format!("{}/{}/{}", pct(s.macro_f1), pct(s.roc_auc), pct(s.pr_auc));
    let mut rows = Vec::new();
    for ((label, ..), (iforest, iguard)) in adversaries.iter().zip(&summaries) {
        rows.push(vec![label.to_string(), "iForest [15]".into(), cell(iforest)]);
        rows.push(vec![String::new(), "iGuard".into(), cell(iguard)]);
    }
    println!("{}", table(&["scenario", "model", "macroF1/ROCAUC/PRAUC"], &rows));
    println!("{footer}\n");
}

/// §3.2.3: whitelist-rule consistency with the distilled forest.
fn consistency_check(deployments: &[&Deployment]) {
    println!("== §3.2.3: rule/forest consistency C across 15 attacks ==");
    let mut rows = Vec::new();
    let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for (d, c) in deployments.iter().zip(par_map(deployments, |d| d.consistency())) {
        rows.push(vec![d.attack.name().to_string(), format!("{c:.4}")]);
        lo = lo.min(c);
        hi = hi.max(c);
        sum += c;
    }
    println!("{}", table(&["attack", "consistency C"], &rows));
    println!(
        "range [{:.4}, {:.4}], mean {:.4}  (paper: C = 0.992–0.996)\n",
        lo,
        hi,
        sum / deployments.len() as f64
    );
}

/// App. B.1: throughput and per-packet latency.
fn throughput_latency(deployments: &[&Deployment]) {
    println!("== App. B.1: throughput & latency on the emulated 40 Gbps link ==");
    let replays = par_map(deployments, |d| {
        let cp_detect = ControlPlaneModel::control_plane_detection();
        (d.replay(ControlPlaneModel::iguard()), d.replay(cp_detect))
    });
    let mut rows = Vec::new();
    let (mut tput, mut lat, mut he_tput) = (0.0, 0.0, 0.0);
    for (d, (ig, he)) in deployments.iter().zip(&replays) {
        rows.push(vec![
            d.attack.name().to_string(),
            format!("{:.2}", ig.throughput_gbps),
            format!("{:.2}", he.throughput_gbps),
            format!("{:.1}", ig.avg_latency_ns),
        ]);
        tput += ig.throughput_gbps;
        he_tput += he.throughput_gbps;
        lat += ig.avg_latency_ns;
    }
    let n = deployments.len() as f64;
    println!("{}", table(&["attack", "iGuard Gbps", "CP-detect Gbps", "iGuard latency ns"], &rows));
    println!(
        "average: iGuard {:.2} Gbps vs control-plane detection {:.2} Gbps ({:+.1}%), latency {:.1} ns",
        tput / n,
        he_tput / n,
        (tput / he_tput - 1.0) * 100.0,
        lat / n
    );
    println!("paper: 39.6 Gbps (+66.47% over HorusEye), 532.8 ns\n");
}

/// DESIGN.md §5 ablations on a fixed scenario (UDP DDoS).
fn ablations(seed: u64) {
    use iguard_bench::ablation::{Ablation, AblationPoint};
    let render = |title: &str, points: &[AblationPoint]| {
        println!("-- ablation: {title} (UDP DDoS) --");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    m3(p.summary.macro_f1),
                    m3(p.summary.roc_auc),
                    m3(p.summary.pr_auc),
                    p.rules.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                    if p.total_leaves > 0 { p.total_leaves.to_string() } else { "-".into() },
                ]
            })
            .collect();
        println!("{}", table(&["variant", "F1", "ROC", "PR", "rules", "leaves"], &rows));
    };
    println!("== Ablations (DESIGN.md §5) ==");
    let ablation = Ablation::new(Attack::UdpDdos, seed);
    render("guided vs unguided growth", &ablation.guidance());
    render("tau_split sweep", &ablation.tau_split());
    render("augmentation k sweep", &ablation.k_augment());
}

/// App. B.2: control-plane digest overhead.
fn digest_overhead() {
    use iguard_switch::controller::{Controller, ControllerConfig};
    use iguard_switch::pipeline::{Digest, SeqDigest, DIGEST_BYTES_HORUSEYE, DIGEST_BYTES_IGUARD};
    println!("== App. B.2: control-plane digest overhead (50k digests / 30 s) ==");
    let run = |bytes: f64| -> f64 {
        let mut c = Controller::new(ControllerConfig { digest_bytes: bytes, ..Default::default() });
        let mut actions = Vec::new();
        for i in 0..50_000u32 {
            let five = iguard_flow::five_tuple::FiveTuple::new(i, 1, 1, 80, 6);
            let sd = SeqDigest { seq: i as u64, digest: Digest::new(five, false) };
            c.process_seq_digests_into(&[sd], &mut actions);
        }
        c.overhead_kbps(30.0)
    };
    let ig = run(DIGEST_BYTES_IGUARD);
    let he = run(DIGEST_BYTES_HORUSEYE);
    let rows = vec![
        vec!["iGuard (13 B + 1 bit)".to_string(), format!("{ig:.1} KBps")],
        vec!["CP-detection (+~52 B features)".to_string(), format!("{he:.1} KBps")],
        vec!["ratio".to_string(), format!("{:.1}x", he / ig)],
    ];
    println!("{}", table(&["design", "overhead"], &rows));
    println!("paper: 21 KBps vs 110 KBps (5.2x)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(Vec<&'static str>, u64, Effort), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
            .map(|(artefacts, run)| (artefacts.iter().map(|a| a.0).collect(), run.seed, run.effort))
    }

    #[test]
    fn defaults_render_everything_at_seed_7_quick() {
        let all: Vec<&str> = ARTEFACTS.iter().map(|a| a.0).collect();
        assert_eq!(parse_line(""), Ok((all.clone(), 7, Effort::Quick)));
        assert_eq!(parse_line("all"), Ok((all, 7, Effort::Quick)));
    }

    #[test]
    fn one_artefact_with_flags_in_any_order() {
        assert_eq!(parse_line("fig6 --seed 3 --full"), Ok((vec!["fig6"], 3, Effort::Full)));
        assert_eq!(
            parse_line("ablations --full --seed 0"),
            Ok((vec!["ablations"], 0, Effort::Full))
        );
        assert_eq!(parse_line("b2"), Ok((vec!["b2"], 7, Effort::Quick)));
    }

    #[test]
    fn every_artefact_name_is_unique_and_parses() {
        for (i, (name, _)) in ARTEFACTS.iter().enumerate() {
            assert!(ARTEFACTS[..i].iter().all(|a| a.0 != *name), "`{name}` listed twice");
            assert_eq!(parse_line(name).map(|p| p.0), Ok(vec![*name]));
        }
    }

    #[test]
    fn bad_lines_are_errors() {
        for line in [
            "nope",
            "--full",
            "fig6 --seed",
            "fig6 --seed abc",
            "fig6 --seed -1",
            "fig6 --seed 3 extra",
            "fig6 --fast",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` parsed");
        }
    }
}
