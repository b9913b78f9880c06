//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <artefact> [--full] [--seed N]
//!   artefacts: fig2 fig7 fig5 fig8 fig6 fig9 fig10
//!              table1 table2 table3 consistency b1 b2 all
//! ```
//!
//! Numbers are produced by the same library code the tests exercise; the
//! tables print the same rows/series the paper reports. Shapes (who wins,
//! by roughly what factor) are the reproduction target — absolute values
//! depend on the synthetic traffic substitution documented in DESIGN.md.

use iguard_bench::cpu::{self, Effort};
use iguard_bench::data::AttackTransform;
use iguard_bench::report::{histogram_row, m3, pct, table};
use iguard_bench::{candidates, pathlen, per_attack_parallel, testbed};
use iguard_switch::replay::ControlPlaneModel;
use iguard_synth::attacks::{Attack, ALL_ATTACKS};

/// Fig. 2 uses these five attacks; Fig. 7 the other ten.
const FIG2_ATTACKS: [Attack; 5] =
    [Attack::Aidra, Attack::Mirai, Attack::Bashlite, Attack::UdpDdos, Attack::OsScan];

fn fig7_attacks() -> Vec<Attack> {
    ALL_ATTACKS.iter().copied().filter(|a| !FIG2_ATTACKS.contains(a)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artefact = args.first().map(String::as_str).unwrap_or("all");
    let effort = if args.iter().any(|a| a == "--full") { Effort::Full } else { Effort::Quick };
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    match artefact {
        "fig2" => path_overlap("Figure 2", &FIG2_ATTACKS, seed),
        "fig7" => path_overlap("Figure 7", &fig7_attacks(), seed),
        "fig5" => cpu_comparison("Figure 5", &FIG2_ATTACKS, seed, effort),
        "fig8" => cpu_comparison("Figure 8", &fig7_attacks(), seed, effort),
        "fig6" => testbed_comparison("Figure 6", &FIG2_ATTACKS, seed, effort),
        "fig9" => testbed_comparison("Figure 9", &fig7_attacks(), seed, effort),
        "fig10" => fig10(seed, effort),
        "table1" => table1(seed, effort),
        "table2" => table2(seed, effort),
        "table3" => table3(seed, effort),
        "consistency" => consistency_check(seed, effort),
        "b1" => throughput_latency(seed, effort),
        "b2" => digest_overhead(),
        "ablations" => ablations(seed),
        "all" => {
            path_overlap("Figure 2", &FIG2_ATTACKS, seed);
            path_overlap("Figure 7", &fig7_attacks(), seed);
            cpu_comparison("Figure 5", &FIG2_ATTACKS, seed, effort);
            cpu_comparison("Figure 8", &fig7_attacks(), seed, effort);
            testbed_comparison("Figure 6", &FIG2_ATTACKS, seed, effort);
            testbed_comparison("Figure 9", &fig7_attacks(), seed, effort);
            fig10(seed, effort);
            table1(seed, effort);
            table2(seed, effort);
            table3(seed, effort);
            consistency_check(seed, effort);
            throughput_latency(seed, effort);
            digest_overhead();
            ablations(seed);
        }
        other => {
            eprintln!("unknown artefact `{other}`");
            eprintln!(
                "usage: figures <fig2|fig5|fig6|fig7|fig8|fig9|fig10|table1|table2|table3|consistency|b1|b2|all> [--full] [--seed N]"
            );
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
fn testbed_comparison(title: &str, attacks: &[Attack], seed: u64, effort: Effort) {
    println!("== {title}: testbed (emulated switch) — iForest vs iGuard (§4.2.1) ==");
    let results = per_attack_parallel(attacks, |a| testbed::run_attack(a, seed, effort));
    let mut rows = Vec::new();
    let mut avg = [[0.0f64; 3]; 2];
    for r in &results {
        rows.push(vec![
            r.attack.name().to_string(),
            m3(r.iforest.macro_f1),
            m3(r.iforest.roc_auc),
            m3(r.iforest.pr_auc),
            m3(r.iguard.macro_f1),
            m3(r.iguard.roc_auc),
            m3(r.iguard.pr_auc),
            format!("{}", r.iguard_rules),
            format!("{}", r.iforest_rules),
        ]);
        for (i, s) in [r.iforest, r.iguard].iter().enumerate() {
            avg[i][0] += s.macro_f1;
            avg[i][1] += s.roc_auc;
            avg[i][2] += s.pr_auc;
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
fn table1(seed: u64, effort: Effort) {
    println!("== Table 1: switch resources, averaged over 15 attacks (§4.2.2) ==");
    let results = per_attack_parallel(&ALL_ATTACKS, |a| testbed::run_attack(a, seed, effort));
    let mut acc = [[0.0f64; 4]; 2];
    for r in &results {
        for (i, u) in [r.iforest_usage, r.iguard_usage].iter().enumerate() {
            acc[i][0] += u.tcam;
            acc[i][1] += u.sram;
            acc[i][2] += u.salu;
            acc[i][3] += u.vliw;
        }
    }
    let n = results.len() as f64;
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

fn adv_rows(
    label: &str,
    attack: Attack,
    transform: AttackTransform,
    poison: f64,
    seed: u64,
    effort: Effort,
) -> Vec<Vec<String>> {
    let (iforest, iguard) = testbed::run_adversarial(attack, transform, poison, seed, effort);
    vec![
        vec![
            label.to_string(),
            "iForest [15]".into(),
            format!("{}/{}/{}", pct(iforest.macro_f1), pct(iforest.roc_auc), pct(iforest.pr_auc)),
        ],
        vec![
            String::new(),
            "iGuard".into(),
            format!("{}/{}/{}", pct(iguard.macro_f1), pct(iguard.roc_auc), pct(iguard.pr_auc)),
        ],
    ]
}

/// Table 2: low-rate and poisoning adversaries.
fn table2(seed: u64, effort: Effort) {
    println!("== Table 2: black-box low-rate & poisoning adversaries (App.) ==");
    let mut rows = Vec::new();
    rows.extend(adv_rows(
        "Low rate (UDPDDoS 1/100)",
        Attack::UdpDdos,
        AttackTransform::LowRate(100.0),
        0.0,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Low rate (TCPDDoS 1/100)",
        Attack::TcpDdos,
        AttackTransform::LowRate(100.0),
        0.0,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Poison (Mirai 2%)",
        Attack::Mirai,
        AttackTransform::None,
        0.02,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Poison (Mirai 10%)",
        Attack::Mirai,
        AttackTransform::None,
        0.10,
        seed,
        effort,
    ));
    println!("{}", table(&["scenario", "model", "macroF1/ROCAUC/PRAUC"], &rows));
    println!("paper shape: iGuard degrades far less than iForest (improvements 22–57%)\n");
}

/// Table 3: evasion-by-blending adversaries.
fn table3(seed: u64, effort: Effort) {
    println!("== Table 3: black-box evasion (benign blending) adversaries (App.) ==");
    let mut rows = Vec::new();
    rows.extend(adv_rows(
        "Evasion (UDPDDoS 1:2)",
        Attack::UdpDdos,
        AttackTransform::Evasion(2),
        0.0,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Evasion (TCPDDoS 1:2)",
        Attack::TcpDdos,
        AttackTransform::Evasion(2),
        0.0,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Evasion (UDPDDoS 1:4)",
        Attack::UdpDdos,
        AttackTransform::Evasion(4),
        0.0,
        seed,
        effort,
    ));
    rows.extend(adv_rows(
        "Evasion (TCPDDoS 1:4)",
        Attack::TcpDdos,
        AttackTransform::Evasion(4),
        0.0,
        seed,
        effort,
    ));
    println!("{}", table(&["scenario", "model", "macroF1/ROCAUC/PRAUC"], &rows));
    println!("paper shape: iGuard retains detection under blending (improvements 30–80%)\n");
}

/// §3.2.3: whitelist-rule consistency with the distilled forest.
fn consistency_check(seed: u64, effort: Effort) {
    println!("== §3.2.3: rule/forest consistency C across 15 attacks ==");
    let results = per_attack_parallel(&ALL_ATTACKS, |a| testbed::run_attack(a, seed, effort));
    let mut rows = Vec::new();
    let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for r in &results {
        rows.push(vec![r.attack.name().to_string(), format!("{:.4}", r.consistency)]);
        lo = lo.min(r.consistency);
        hi = hi.max(r.consistency);
        sum += r.consistency;
    }
    println!("{}", table(&["attack", "consistency C"], &rows));
    println!(
        "range [{:.4}, {:.4}], mean {:.4}  (paper: C = 0.992–0.996)\n",
        lo,
        hi,
        sum / results.len() as f64
    );
}

/// App. B.1: throughput and per-packet latency.
fn throughput_latency(seed: u64, effort: Effort) {
    println!("== App. B.1: throughput & latency on the emulated 40 Gbps link ==");
    let results = per_attack_parallel(&ALL_ATTACKS, |a| {
        let scenario =
            iguard_bench::data::build(a, &iguard_bench::data::ScenarioConfig::testbed(seed));
        let d = testbed::train_deployment(&scenario, effort, seed);
        let ig = testbed::replay_iguard(&scenario, &d, ControlPlaneModel::iguard());
        let he =
            testbed::replay_iguard(&scenario, &d, ControlPlaneModel::control_plane_detection());
        (a, ig, he)
    });
    let mut rows = Vec::new();
    let (mut tput, mut lat, mut he_tput) = (0.0, 0.0, 0.0);
    for (a, ig, he) in &results {
        rows.push(vec![
            a.name().to_string(),
            format!("{:.2}", ig.throughput_gbps),
            format!("{:.2}", he.throughput_gbps),
            format!("{:.1}", ig.avg_latency_ns),
        ]);
        tput += ig.throughput_gbps;
        he_tput += he.throughput_gbps;
        lat += ig.avg_latency_ns;
    }
    let n = results.len() as f64;
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

/// App. B.2: control-plane digest overhead.
/// DESIGN.md §5 ablations on a fixed scenario (UDP DDoS).
fn ablations(seed: u64) {
    use iguard_bench::ablation::{self, AblationPoint};
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
    render("guided vs unguided growth", &ablation::guidance(Attack::UdpDdos, seed));
    render("tau_split sweep", &ablation::tau_split(Attack::UdpDdos, seed));
    render("augmentation k sweep", &ablation::k_augment(Attack::UdpDdos, seed));
}

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
