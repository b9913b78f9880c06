//! `perf` — the repository benchmark of the emulated iGuard switch.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --seed N [--workload NAME] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process; without `--workload` the binary
//! re-executes itself once per workload. A run prints its host record and
//! diagnostics, then, as its last line, one JSON object: `correct`,
//! `attempted` (packets offered), `failed` (control operations that failed
//! or were abandoned) and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A broken
//! correctness gate prints `"correct": false` and exits 1. See README.md.

mod components;
mod drive;
mod host;
mod metrics;
mod model;
mod run;
mod stats;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};

use run::{RunConfig, RunOutput};
use workloads::{Scale, Workload};

/// Counts allocator calls for `replay.allocs_per_tick`; one relaxed
/// atomic add per call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls (allocations and reallocations) so far.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

const USAGE: &str = "usage: perf --seed N [--workload NAME] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in workloads::ALL {
        match Command::new(&exe).args(args).args(["--workload", w.name()]).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perf: workload {} exited with {status}", w.name());
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perf: cannot run workload {}: {e}", w.name());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else { return run_all(&raw) };

    iguard_telemetry::set_enabled(false);
    let jiffies = host::cpu_jiffies();
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::FULL,
    };
    let out = run::run(&cfg);
    let steal = match (jiffies, host::cpu_jiffies()) {
        (Some(a), Some(b)) => format!("{:.5}", host::steal_fraction(a, b)),
        _ => "unknown".into(),
    };
    println!(
        "# perf workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host cpu={:?} nproc={} profile={} workers={} steal_frac={steal}",
        host::cpu_model().unwrap_or_else(|| "unknown".into()),
        host::nproc(),
        host::profile(),
        workload.workers()
    );
    report(&out, if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END })
}

/// Prints the diagnostics and the result line; the exit code says whether
/// every gate held.
fn report(out: &RunOutput, catalogue: &[metrics::Def]) -> ExitCode {
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        eprintln!("perf: gate failed: {f}");
    }
    let rendered = match out.metrics.render(catalogue) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {rendered}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
