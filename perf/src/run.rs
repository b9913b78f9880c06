//! One workload's run: set-up, reps, correctness gates and metrics.
//!
//! A run lasts `--seconds` from its start, set-up included. `--trace 0`
//! measures the end-to-end metrics with tracing and telemetry off: one
//! set-up, a warm-up rep and one untimed `replay_chaos_traced` pass with a
//! `MitigationLog`, then rounds of a reference-kernel pass, a timed rep and
//! one cold and one warm compile cycle (with further set-ups spread among
//! them) for the rest of the run. Timings are reported at the reference
//! kernel's nominal speed. `--trace 1` sets up once and measures the
//! per-layer metrics: the isolated component timings and the offline stage
//! timings, then untraced reps alternating with traced reps, which put a
//! span around every layer call, for the rest of the run.

use std::time::{Duration, Instant};

use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::pipeline::FINAL_PHASE;
use iguard_switch::replay::{replay_chaos_traced, ChaosConfig, MitigationLog, ReplayConfig};

use crate::drive::{self, Counts, Fingerprint, Layer, Recorder, LAYERS};
use crate::metrics::Metrics;
use crate::model::{self, StageTimes};
use crate::stats;
use crate::workloads::{self, Backend, Inputs, Scale, Workload};
use crate::{components, host};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Timed reps run even when `--seconds` is spent sooner.
const MIN_REPS: usize = 5;

/// Fewest untraced/traced rep pairs of a traced run; `trace_overhead`
/// compares the fastest of each kind, and the per-layer metrics come from
/// the fastest traced rep.
const TRACE_REPS: usize = 3;

/// Cold and warm compile cycles at full scale.
const CYCLES: usize = 15;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Default)]
pub struct RunOutput {
    pub metrics: Metrics,
    /// Packets offered by the measured reps.
    pub attempted: u64,
    /// Control operations of the measured reps that failed or were
    /// abandoned.
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub failures: Vec<String>,
    /// Diagnostic lines for the host record.
    pub notes: Vec<String>,
}

impl RunOutput {
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Median, quartiles and sample count of a timing, for the record.
    fn note_spread(&mut self, name: &str, best: &str, values: &[f64]) {
        let (q1, med, q3) = stats::quartiles(values).unwrap_or((values[0], values[0], values[0]));
        self.notes.push(format!(
            "{name}: samples={} {best} median={med:.6} q1={q1:.6} q3={q3:.6}",
            values.len()
        ));
    }
}

/// One finished rep: what it counted, its clock, and its backend.
struct Rep {
    counts: Counts,
    rec: Recorder,
    backend: Backend,
    controller: Controller,
    fingerprint: Fingerprint,
}

fn rep(inputs: &Inputs, shards: usize, tracing: bool) -> Rep {
    let mut backend = Backend::new(inputs, shards);
    let mut controller = Controller::new(ControllerConfig::default());
    let mut rec = Recorder::new(inputs.trace.len().div_ceil(inputs.batch), tracing);
    let counts = drive::replay(
        &inputs.trace,
        inputs.batch,
        &inputs.swaps,
        backend.dp(),
        &mut controller,
        &mut rec,
    );
    let fingerprint = Fingerprint::of_loop(&counts, backend.view());
    Rep { counts, rec, backend, controller, fingerprint }
}

/// The library replay loop with a mitigation log, for time to mitigation
/// and as the reference fingerprint of the benchmark's own loop.
struct MitigationPass {
    fingerprint: Fingerprint,
    log: MitigationLog,
    overload: iguard_switch::data_plane::OverloadStats,
}

fn mitigation_pass(inputs: &Inputs, shards: usize) -> MitigationPass {
    let mut backend = Backend::new(inputs, shards);
    let mut controller = Controller::new(ControllerConfig::default());
    let mut chaos = ChaosConfig::default();
    for (tick, txn) in &inputs.swaps {
        chaos = chaos.with_ruleset_swap(*tick, txn.clone());
    }
    let mut log = MitigationLog::default();
    let cfg = ReplayConfig::default().with_batch_size(inputs.batch);
    let report = replay_chaos_traced(
        &inputs.trace,
        backend.dp(),
        &mut controller,
        &cfg,
        &chaos,
        Some(&mut log),
    );
    MitigationPass {
        fingerprint: Fingerprint::of_report(&report, backend.view()),
        overload: backend.view().overload_stats(),
        log,
    }
}

/// Gates every rep must pass whatever it is compared with.
fn check_rep(out: &mut RunOutput, inputs: &Inputs, r: &Rep) {
    out.gate(r.fingerprint.packets == inputs.trace.len() as u64, || {
        format!("rep processed {} of {} packets", r.fingerprint.packets, inputs.trace.len())
    });
    out.gate(r.counts.swaps_delivered == inputs.swaps.len() as u64, || {
        format!("{} of {} ruleset swaps landed", r.counts.swaps_delivered, inputs.swaps.len())
    });
    if let Some(s) = r.backend.view().sketch_stats() {
        let within =
            s.tracked <= s.max_tracked && s.budget_bytes.is_none_or(|b| s.resident_bytes <= b);
        out.gate(within, || {
            format!(
                "sketch budget broken: {} of {} flows tracked, {} of {:?} bytes resident",
                s.tracked, s.max_tracked, s.resident_bytes, s.budget_bytes
            )
        });
    }
}

fn setup(cfg: &RunConfig) -> (Inputs, f64) {
    let t = Instant::now();
    let inputs = workloads::build(cfg.workload, cfg.seed, cfg.scale);
    drop(Backend::new(&inputs, cfg.workload.workers()));
    (inputs, t.elapsed().as_secs_f64())
}

/// Runs one workload with its worker count pinned.
pub fn run(cfg: &RunConfig) -> RunOutput {
    iguard_runtime::par::with_workers(cfg.workload.workers(), || {
        if cfg.trace {
            trace_run(cfg)
        } else {
            measure_run(cfg)
        }
    })
}

fn cycles(scale: Scale) -> usize {
    (CYCLES / scale.div).max(1)
}

fn measure_run(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let shards = cfg.workload.workers();
    let n_cycles = cycles(cfg.scale);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (mut inputs, secs) = setup(cfg);
    let mut setup_s = vec![secs];
    let warm = rep(&inputs, shards, false);
    check_rep(&mut out, &inputs, &warm);

    // The untimed passes run before the timed rounds, so that the rounds
    // fill the rest of the run's `--seconds`.
    let pass = mitigation_pass(&inputs, shards);
    out.gate(pass.fingerprint == warm.fingerprint, || {
        format!(
            "benchmark loop {} != replay_chaos_traced {}",
            warm.fingerprint.summary(),
            pass.fingerprint.summary()
        )
    });
    if cfg.workload == Workload::StormSharded {
        let serial = iguard_runtime::par::with_workers(1, || mitigation_pass(&inputs, 1));
        let same = serial.fingerprint == pass.fingerprint
            && serial.log.records == pass.log.records
            && serial.log.unmitigated() == pass.log.unmitigated()
            && serial.overload == pass.overload;
        out.gate(same, || format!("{shards} shards x {shards} workers diverged from 1 x 1"));
    }

    // Rounds interleave the timed samples — a pass of the reference
    // kernel, a rep, a cold and a warm compile cycle, and every
    // `stride`-th round a fresh set-up — so each statistic draws from the
    // whole run: the host slows down for seconds at a time.
    let rounds_start = start.elapsed();
    let (mut ticks, mut walls) = (Vec::new(), Vec::new());
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut ref_ns = Vec::new();
    let mut stride = 1;
    let mut round = 0;
    while start.elapsed() < budget
        || walls.len() < MIN_REPS
        || cold_ms.len() < n_cycles
        || setup_s.len() < SETUP_REPS
    {
        let due = round % stride == 0 || start.elapsed() >= budget;
        if round > 0 && setup_s.len() < SETUP_REPS && due {
            drop(inputs); // one copy of the inputs at a time
            let (fresh, secs) = setup(cfg);
            inputs = fresh;
            setup_s.push(secs);
        }
        ref_ns.push(host::reference_pass_ns() as f64);
        let r = rep(&inputs, shards, false);
        check_rep(&mut out, &inputs, &r);
        out.gate(r.fingerprint == warm.fingerprint, || {
            format!("timed rep {} diverged from the warm-up rep", walls.len())
        });
        out.attempted += r.counts.packets;
        out.failed += r.counts.failed();
        walls.push(r.rec.wall_ns);
        ticks.push(r.rec.tick_ns);
        compile_cycle(&mut out, &inputs, &mut cold_ms, &mut warm_ms);
        if round == 0 {
            let round_s = (start.elapsed() - rounds_start).as_secs_f64();
            let rounds = budget.saturating_sub(rounds_start).as_secs_f64() / round_s;
            stride = ((rounds / SETUP_REPS as f64) as usize).max(1);
        }
        round += 1;
    }

    let packets = inputs.trace.len() as u64;
    let floor = stats::tick_floor(&ticks);
    let mut sorted_floor = floor.clone();
    sorted_floor.sort_unstable();
    let (tp, fp, tn, fn_) = pass.fingerprint.confusion;
    let ttm = pass.log.ttm_packets_sorted();
    let records = pass.log.records.len() as f64;
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // Every timing is reported at the reference kernel's nominal speed:
    // scaled by how much slower than nominal the host ran it in this run.
    let slowdown = fastest(&ref_ns) / host::REF_NOMINAL_NS;
    let raw_pps = packets as f64 / (floor.iter().sum::<u64>().max(1) as f64 / 1e9);
    let raw_p99_us = stats::percentile(&sorted_floor, 99.0).map(|p| p as f64 / 1e3);
    let raw_setup_s = stats::median(&setup_s);
    let m = &mut out.metrics;
    m.set("pps", raw_pps * slowdown);
    match raw_p99_us {
        Some(p99) => m.set("tick_p99_us", p99 / slowdown),
        None => out.failures.push(format!("{} ticks cannot support a p99", floor.len())),
    }
    m.set("tpr", tp as f64 / (tp + fn_).max(1) as f64);
    m.set("fpr", fp as f64 / (fp + tn).max(1) as f64);
    if let Some(v) = stats::percentile(&ttm, 50.0) {
        m.set("ttm_p50_pkts", v as f64);
    }
    if let Some(v) = stats::percentile(&ttm, 99.0) {
        m.set("ttm_p99_pkts", v as f64);
    }
    m.set("mitigated_frac", records / (records + pass.log.unmitigated() as f64).max(1.0));
    m.set("setup_s", raw_setup_s / slowdown);
    m.set("compile_ms", fastest(&cold_ms) / slowdown);
    m.set("adapt_ms", fastest(&warm_ms) / slowdown);
    match host::peak_rss_mib() {
        Some(mib) => m.set("peak_rss_mb", mib),
        None => out.failures.push("VmHWM unavailable in /proc/self/status".into()),
    }

    // Per-rep views of the gated timings, so a noisy run shows.
    let rep_pps: Vec<f64> = walls.iter().map(|&w| packets as f64 / (w as f64 / 1e9)).collect();
    let rep_p99: Vec<f64> = ticks
        .iter()
        .filter_map(|t| {
            let mut t = t.clone();
            t.sort_unstable();
            stats::percentile(&t, 99.0).map(|p| p as f64 / 1e3)
        })
        .collect();
    out.note_spread("reference_ns", &format!("slowdown={slowdown:.5}"), &ref_ns);
    out.notes.push(format!(
        "unscaled: pps={raw_pps:.1} tick_p99_us={} setup_s={raw_setup_s:.6} compile_ms={:.6} \
         adapt_ms={:.6}",
        raw_p99_us.map_or("none".into(), |p| format!("{p:.3}")),
        fastest(&cold_ms),
        fastest(&warm_ms)
    ));
    out.note_spread("setup_s", "reported=median", &setup_s);
    let best_pps = rep_pps.iter().copied().fold(0.0, f64::max);
    out.note_spread("rep_pps", &format!("fastest_rep={best_pps:.1}"), &rep_pps);
    if !rep_p99.is_empty() {
        out.note_spread("rep_tick_p99_us", &format!("lowest={:.3}", fastest(&rep_p99)), &rep_p99);
    }
    out.note_spread("compile_ms", "reported=fastest", &cold_ms);
    out.note_spread("adapt_ms", "reported=fastest", &warm_ms);
    out.notes.push(format!(
        "inputs: packets={packets} ticks={} batch={} swaps={} reps={} mitigation_records={}",
        warm.counts.ticks,
        inputs.batch,
        inputs.swaps.len(),
        walls.len(),
        pass.log.records.len()
    ));
    out
}

/// One timed cold and one timed warm compile cycle, in ms, on one worker
/// whatever the workload's count, so every workload times the same work
/// (on two workers the warm cycle's fastest time swung between 14 and
/// 23 ms from run to run, with the host's placement of the two vCPUs).
/// Both must compile the same rules as the set-up did.
fn compile_cycle(
    out: &mut RunOutput,
    inputs: &Inputs,
    cold_ms: &mut Vec<f64>,
    warm_ms: &mut Vec<f64>,
) {
    let models = &inputs.models;
    let (m, gen) = iguard_runtime::par::with_workers(1, || {
        let t = Instant::now();
        let (m, _) = model::cold_cycle(&inputs.training);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (gen, _, _) = model::warm_cycle(models, &inputs.training);
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        (m, gen)
    });
    let same = m.cold.table.entries() == models.cold.table.entries()
        && m.pl_table.entries() == models.pl_table.entries()
        && gen.table.entries() == inputs.warm.table.entries();
    out.gate(same, || "a compile cycle produced different rules than the set-up".into());
}

fn trace_run(cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let shards = cfg.workload.workers();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (inputs, _) = setup(cfg);
    let packets = inputs.trace.len() as u64;
    check_rep(&mut out, &inputs, &rep(&inputs, shards, false));

    // The untimed pass, the isolated component timings and the offline
    // stages run first; untraced and traced reps then alternate for the
    // rest of the run's `--seconds`.
    let pass = mitigation_pass(&inputs, shards);
    let flow_cfg = workloads::flow_table_config(cfg.workload);
    out.metrics.set(
        "flow.batch_fill_ns_per_pkt",
        components::batch_fill_ns_per_pkt(&inputs.trace, inputs.batch),
    );
    out.metrics
        .set("flow.observe_ns_per_pkt", components::observe_ns_per_pkt(&inputs.trace, flow_cfg));
    out.metrics.set("sketch.ns_per_pkt", components::sketch_ns_per_pkt(&inputs.trace));
    out.metrics
        .set("whitelist.classify_ns_per_row", components::classify_ns_per_row(&inputs, shards));
    offline_stages(&mut out, &inputs, cfg);

    let mut untraced = u64::MAX;
    let mut fastest: Option<(Rep, u64)> = None;
    let mut reps = 0;
    while reps < TRACE_REPS || start.elapsed() < budget {
        let r = rep(&inputs, shards, false);
        check_rep(&mut out, &inputs, &r);
        untraced = untraced.min(r.rec.wall_ns);
        let before = crate::alloc_calls();
        let r = rep(&inputs, shards, true);
        let allocs = crate::alloc_calls() - before;
        check_rep(&mut out, &inputs, &r);
        if fastest.as_ref().is_none_or(|(f, _)| r.rec.wall_ns < f.rec.wall_ns) {
            fastest = Some((r, allocs));
        }
        reps += 1;
    }
    let (t, allocs) = fastest.expect("at least one traced rep");
    out.gate(t.fingerprint == pass.fingerprint, || {
        format!(
            "traced loop {} != replay_chaos_traced {}",
            t.fingerprint.summary(),
            pass.fingerprint.summary()
        )
    });
    let totals = t.rec.layer_totals();
    let layer_sum = stats::layer_sum_ratio(&totals, t.rec.wall_ns);
    out.gate(stats::layer_sum_ok(layer_sum), || {
        format!("layer spans cover {layer_sum:.3} of the traced rep's wall time")
    });
    for (layer, ns) in LAYERS.iter().zip(totals) {
        out.notes.push(format!(
            "span {:<12} total_ms={:.3} share={:.4}",
            layer.name(),
            ns as f64 / 1e6,
            ns as f64 / t.rec.wall_ns as f64
        ));
    }

    let c = &t.counts;
    let dp = t.backend.view();
    let m = &mut out.metrics;
    let per_pkt = |ns: u64| ns as f64 / packets.max(1) as f64;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let span = |l: Layer| totals[l as usize];
    m.set("synth.gen_ns_per_pkt", per_pkt(inputs.gen_ns));
    m.set("dataplane.ns_per_pkt", per_pkt(span(Layer::Dataplane)));
    m.set("dataplane.share", per(span(Layer::Dataplane), t.rec.wall_ns));
    let table = dp.flow_table_stats();
    m.set("flow_table.collision_frac", per(table.collision_packets, packets));
    m.set("flow_table.occupancy", table.fill());
    let sk = dp.sketch_stats().unwrap_or_default();
    m.set("sketch.promoted_per_kpkt", per(sk.promoted * 1000, packets));
    m.set("sketch.evicted_per_kpkt", per(sk.evicted * 1000, packets));
    m.set("sketch.absorbed_frac", per(sk.absorbed, packets));
    m.set("sketch.resident_bytes", sk.resident_bytes as f64);
    let wl = dp.whitelist_counters();
    m.set("whitelist.lookups_per_pkt", per(wl.lookups, packets));
    m.set("whitelist.hit_frac", per(wl.hits, wl.lookups));
    let paths = dp.counters();
    m.set("paths.blacklist_frac", per(paths.blacklist, packets));
    m.set("paths.brown_frac", per(paths.brown, packets));
    m.set("paths.blue_frac", per(paths.blue, packets));
    m.set("paths.orange_frac", per(paths.orange, packets));
    m.set("paths.purple_frac", per(paths.purple, packets));
    m.set("paths.loopback_frac", per(paths.green_loopback, packets));
    m.set("digest.per_kpkt", per(c.digests * 1000, packets));
    m.set("digest.drain_ns_per_digest", per(span(Layer::DigestDrain), c.digests));
    m.set("channel.ns_per_digest", per(span(Layer::Channel), c.digests));
    m.set("controller.ns_per_digest", per(span(Layer::Controller), c.digests));
    m.set("controller.actions_per_digest", per(c.actions, c.digests));
    m.set("controller.dup_digests", t.controller.dup_digests() as f64);
    m.set("controller.installed", c.installs as f64);
    m.set("action.ns_per_action", per(span(Layer::Action), c.actions));
    let rs = dp.ruleset_counters();
    m.set("ruleset.swaps", c.swaps_delivered as f64);
    m.set("ruleset.entries_written", (rs.installed + rs.removed) as f64);
    m.set("sharded.imbalance_ratio", t.backend.imbalance_ratio());
    m.set("sharded.shard_packets", t.backend.group_packets().into_iter().max().unwrap_or(0) as f64);
    let ov = dp.overload_stats();
    m.set("overload.degraded_batches", ov.degraded_batches as f64);
    m.set("overload.shed_benign", ov.shed_benign as f64);
    m.set("overload.shed_malicious", ov.shed_malicious as f64);
    m.set("overload.pressure_hwm_milli", c.pressure_hwm_milli as f64);
    let early = pass.log.records.iter().filter(|r| r.deciding_phase != FINAL_PHASE).count();
    m.set("phase.early_frac", per(early as u64, pass.log.records.len() as u64));
    m.set("replay.accounting_ns_per_pkt", per_pkt(span(Layer::Accounting)));
    m.set("replay.allocs_per_tick", per(allocs, t.rec.tick_ns.len() as u64));
    m.set("layer_sum_ratio", layer_sum);
    m.set("trace_overhead", t.rec.wall_ns as f64 / untraced as f64);
    out.attempted = packets;
    out.failed = c.failed();
    out
}

/// Fastest time of each offline stage over a few cycles — on one worker,
/// as the timed compile cycles run — plus the rule counts the cycles
/// compile.
fn offline_stages(out: &mut RunOutput, inputs: &Inputs, cfg: &RunConfig) {
    let n = cycles(cfg.scale).min(3);
    let best = |a: StageTimes, b: StageTimes| StageTimes {
        fit: a.fit.min(b.fit),
        distill: a.distill.min(b.distill),
        rulegen_fl: a.rulegen_fl.min(b.rulegen_fl),
        rulegen_pl: a.rulegen_pl.min(b.rulegen_pl),
        refit_warm: a.refit_warm.min(b.refit_warm),
        tcam_compile: a.tcam_compile.min(b.tcam_compile),
        index_build: a.index_build.min(b.index_build),
        diff: a.diff.min(b.diff),
    };
    let mut churn = 0;
    let (cold, warm) = iguard_runtime::par::with_workers(1, || {
        let cold =
            (0..n).map(|_| model::cold_cycle(&inputs.training).1).reduce(best).expect("cycles");
        let warm = (0..n)
            .map(|_| {
                let (_, txn, times) = model::warm_cycle(&inputs.models, &inputs.training);
                churn = txn.churn();
                times
            })
            .reduce(best)
            .expect("cycles");
        (cold, warm)
    });
    let t = Instant::now();
    model::phase_rulesets();
    let phase_ns = t.elapsed().as_nanos() as u64;

    let ms = |ns: u64| ns as f64 / 1e6;
    let models = &inputs.models;
    let m = &mut out.metrics;
    m.set("core.fit_ms", ms(cold.fit));
    m.set("core.distill_ms", ms(cold.distill));
    m.set("core.rulegen_fl_ms", ms(cold.rulegen_fl));
    m.set("core.rulegen_pl_ms", ms(cold.rulegen_pl));
    m.set("core.refit_warm_ms", ms(warm.refit_warm));
    m.set("core.phase_train_ms", ms(phase_ns));
    m.set("switch.tcam_compile_ms", ms(cold.tcam_compile));
    m.set("rule_index.build_ms", ms(cold.index_build));
    m.set("ruleset.diff_ms", ms(warm.diff));
    m.set("rules.fl", models.cold.fl.len() as f64);
    m.set("rules.pl", models.pl.len() as f64);
    m.set("tcam.fl_entries", models.cold.table.len() as f64);
    m.set("ruleset.diff_churn", churn as f64);
    m.set("ruleset.apply_us", components::ruleset_apply_us(inputs, cfg.workload.workers()));
    out.notes.push(format!(
        "offline: fl_rules={} pl_rules={} fl_tcam_entries={} index_rules={} warm_diff_churn={}",
        models.cold.fl.len(),
        models.pl.len(),
        models.cold.table.len(),
        models.index_rules,
        churn
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Runs a workload in both modes at 1/100 scale (flows and batch sizes
    /// alike, so the tick count stays near full scale) and demands every
    /// gate hold and every metric be measured. The one exception is the
    /// p99 time to mitigation, which a hundredth of the attack flows is
    /// too few to support.
    fn runs_end_to_end(workload: Workload) {
        for trace in [false, true] {
            let cfg =
                RunConfig { workload, seed: 3, seconds: 0.0, trace, scale: Scale { div: 100 } };
            let out = run(&cfg);
            assert!(
                out.failures.is_empty(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.failures
            );
            assert!(out.attempted > 0);
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let missing: Vec<&str> =
                catalogue.iter().map(|d| d.name).filter(|n| out.metrics.get(n).is_none()).collect();
            assert!(
                missing.iter().all(|n| *n == "ttm_p99_pkts"),
                "{} trace={trace} did not measure {missing:?}",
                workload.name()
            );
        }
    }

    #[test]
    fn stream_exact_runs_end_to_end() {
        runs_end_to_end(Workload::StreamExact);
    }

    #[test]
    fn stream_sketched_runs_end_to_end() {
        runs_end_to_end(Workload::StreamSketched);
    }

    #[test]
    fn storm_sharded_runs_end_to_end() {
        runs_end_to_end(Workload::StormSharded);
    }

    #[test]
    fn adapt_swap_runs_end_to_end() {
        runs_end_to_end(Workload::AdaptSwap);
    }
}
