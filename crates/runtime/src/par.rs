//! Parallel maps on `std::thread::scope`, and a persistent worker crew.
//!
//! * Worker count: [`with_workers`] override (per call tree, thread-local)
//!   → `IGUARD_WORKERS` env var → `available_parallelism()`, the last two
//!   read once per process.
//! * Results are always returned **in input order**, regardless of which
//!   worker computed what — callers can rely on positional correspondence.
//! * The `par_map*` family distributes work through a shared atomic
//!   cursor, so uneven task costs balance automatically. It spawns scoped
//!   threads per call: right for offline fits, whose tasks run for
//!   milliseconds.
//! * [`Crew`] keeps its threads alive between jobs and hands each job off
//!   with an epoch counter and a spin-then-park wait, for callers that
//!   issue a job every few microseconds (the sharded data plane, once per
//!   packet batch).
//!
//! Determinism: neither introduces randomness of its own and both
//! preserve order, so as long as each task draws only from its own derived
//! RNG stream (see `rng::Rng::derive`), output is byte-identical at any
//! worker count — `IGUARD_WORKERS=1` and `IGUARD_WORKERS=64` agree.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Hardware threads available to the process (`available_parallelism()`,
/// else 1), read once: the query re-reads the cgroup files on every call.
fn hardware_workers() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker count from the environment: `IGUARD_WORKERS` if set and positive,
/// else `available_parallelism()`, else 1. Read once per process; set the
/// variable before the first parallel call.
pub fn env_workers() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("IGUARD_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(hardware_workers)
    })
}

/// Worker count in effect on this thread (override, else environment).
pub fn current_workers() -> usize {
    WORKER_OVERRIDE.with(|o| o.get()).unwrap_or_else(env_workers)
}

/// Run `f` with the worker count pinned to `n` for every `par_map` issued
/// from this thread inside the closure. Used by the determinism tests to
/// compare 1/2/8-worker runs without racing on the process environment.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = WORKER_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Parallel map over `0..n` task indices; results in index order.
///
/// The core primitive: slices, datasets, and owned work lists all reduce to
/// an index space. Falls back to a serial loop when one worker suffices.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = current_workers().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                results.lock().unwrap().extend(local);
            });
        }
    });

    let mut pairs = results.into_inner().unwrap();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// How long a waiting crew thread — a worker waiting for the next job, or
/// the caller waiting for the workers to finish — spins before it parks.
/// It must cover the gap between two batches of the sharded data plane,
/// controller tick included (a few hundred µs): a worker that parks in the
/// gap costs a wake-up (50–290 µs on a 2-vCPU VM) on the next job instead
/// of a ~1.5 µs round trip. Measured in time, not spins, because spin
/// cost varies by CPU.
const SPIN_BUDGET: Duration = Duration::from_micros(400);

/// Spins between clock reads while waiting.
const SPINS_PER_CLOCK_READ: u32 = 32;

/// Spins until `ready()` or until `budget` runs out, then parks until
/// `ready()`. Whoever makes `ready()` true must `unpark` the waiter
/// afterwards; a stray unpark token only costs one extra check.
fn spin_then_park(budget: Duration, ready: impl Fn() -> bool) {
    let mut deadline = None;
    let mut spins = 0u32;
    while !ready() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(SPINS_PER_CLOCK_READ) {
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + budget) {
                while !ready() {
                    thread::park();
                }
                return;
            }
        }
        std::hint::spin_loop();
    }
}

/// Locks `m`, ignoring poison: no crew lock is held across user code.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The job in flight: the lifetime-erased closure every worker runs once,
/// and the thread to wake when the last worker finishes.
#[derive(Clone)]
struct Job {
    run: &'static (dyn Fn() + Sync),
    caller: Thread,
}

/// State shared between a [`Crew`] and its threads.
#[derive(Default)]
struct Shared {
    /// Bumped once per job (and once at shutdown); a worker runs the job
    /// when the epoch moves past the last one it saw.
    epoch: AtomicU64,
    /// Workers still running the current job.
    pending: AtomicUsize,
    job: Mutex<Option<Job>>,
    /// The first worker panic of the current job, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

/// A worker thread's loop: wait for a new epoch, run the job, report.
fn work(shared: Arc<Shared>, spin: Duration) {
    let mut seen = 0;
    loop {
        spin_then_park(spin, || shared.epoch.load(Ordering::Acquire) != seen);
        seen = shared.epoch.load(Ordering::Acquire);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Job { run, caller } = lock(&shared.job).clone().expect("job published with its epoch");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
            lock(&shared.panic).get_or_insert(payload);
        }
        // Release: the job's writes happen-before the caller's return.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// A persistent worker crew: `workers − 1` long-lived threads plus the
/// calling thread, which runs the first chunk of every job inline.
///
/// Spawning and joining scoped threads costs tens of µs per call; a crew
/// pays that once and then hands each job off in well under a µs while
/// its threads are spinning. Threads spin [`SPIN_BUDGET`] between jobs
/// before parking — unless the crew has more threads than the host has
/// hardware threads, where spinning would only steal time from the
/// threads with work, so they park at once. Dropping the crew joins
/// every thread.
pub struct Crew {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    spin: Duration,
}

impl Crew {
    /// A crew of `workers` (at least 1) threads, the caller included.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let spin = if workers <= hardware_workers() { SPIN_BUDGET } else { Duration::ZERO };
        let shared = Arc::new(Shared::default());
        let threads = (1..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("iguard-crew-{k}"))
                    .spawn(move || work(shared, spin))
                    .expect("spawn crew thread")
            })
            .collect();
        Self { shared, threads, spin }
    }

    /// The crew in `slot`, sized to `workers`: created on first use and
    /// rebuilt only when the count changes.
    pub fn sized(slot: &mut Option<Crew>, workers: usize) -> &mut Crew {
        let workers = workers.max(1);
        if slot.as_ref().is_some_and(|c| c.workers() != workers) {
            // Join the old threads before the new ones start.
            *slot = None;
        }
        slot.get_or_insert_with(|| Crew::new(workers))
    }

    /// Threads in the crew, the caller included.
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Calls `f(i, &mut items[i])` for every element, one contiguous chunk
    /// per worker: chunk 0 on the calling thread, the rest on the crew.
    /// Returns once every call has finished; a panic in any chunk is
    /// re-raised here, and the crew stays usable.
    pub fn for_each_mut<T, F>(&mut self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let workers = self.workers().min(n);
        if workers <= 1 {
            items.iter_mut().enumerate().for_each(|(i, t)| f(i, t));
            return;
        }
        let chunk = n.div_ceil(workers);
        let visit = |c: usize, slice: &mut [T]| {
            for (i, t) in slice.iter_mut().enumerate() {
                f(c * chunk + i, t);
            }
        };
        // At most `workers` chunks: the caller takes chunk 0 before the
        // handoff, and each crew thread takes at most one of the rest.
        let chunks = Mutex::new(items.chunks_mut(chunk).enumerate());
        let first = lock(&chunks).next();
        let job = || {
            let next = lock(&chunks).next();
            if let Some((c, slice)) = next {
                visit(c, slice);
            }
        };
        self.run(&job, || {
            if let Some((c, slice)) = first {
                visit(c, slice);
            }
        });
    }

    /// Runs `job` once on every crew thread and `inline` on the caller,
    /// returning when all of them have finished.
    #[allow(unsafe_code)]
    fn run(&mut self, job: &(dyn Fn() + Sync), inline: impl FnOnce()) {
        let shared = &*self.shared;
        // SAFETY: the crew threads need the job as `'static`; this erases
        // its lifetime, and every use of the erased reference happens
        // while the borrow is still live. This function publishes it, then
        // neither returns nor unwinds until every crew thread has
        // decremented `pending` for this job: an inline panic is caught,
        // the wait below completes, and only then is the panic resumed.
        // A thread never touches the job after its decrement, and the job
        // slot is cleared before this function returns, so no later epoch
        // can find the reference.
        let run =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        *lock(&shared.job) = Some(Job { run, caller: thread::current() });
        shared.pending.store(self.threads.len(), Ordering::Relaxed);
        // Release: publishes the job slot and `pending` with the epoch.
        shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        let inline = panic::catch_unwind(AssertUnwindSafe(inline));
        spin_then_park(self.spin, || shared.pending.load(Ordering::Acquire) == 0);
        lock(&shared.job).take();
        if let Err(payload) = inline {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = lock(&shared.panic).take() {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        for t in self.threads.drain(..) {
            // Workers catch job panics, so a join error cannot occur.
            let _ = t.join();
        }
    }
}

/// Parallel map over a slice; results in input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Parallel map consuming a `Vec`; results in input order.
pub fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map_range(slots.len(), |i| {
        let item = slots[i].lock().unwrap().take().expect("each slot taken once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map_range(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn slice_and_vec_variants() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(par_map(&items, |&x| x + 1), (1..38).collect::<Vec<_>>());
        assert_eq!(par_map_vec(items, |x| x * 2), (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn with_workers_pins_and_restores() {
        assert_eq!(with_workers(3, current_workers), 3);
        with_workers(2, || {
            assert_eq!(current_workers(), 2);
            with_workers(5, || assert_eq!(current_workers(), 5));
            assert_eq!(current_workers(), 2);
        });
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = with_workers(1, || par_map_range(64, |i| i as u64 * 3 + 1));
        let wide = with_workers(8, || par_map_range(64, |i| i as u64 * 3 + 1));
        assert_eq!(serial, wide);
    }

    #[test]
    fn with_workers_overrides_memoised_env() {
        let env = env_workers();
        assert_eq!(env_workers(), env, "memoised value is stable");
        assert_eq!(with_workers(env + 3, current_workers), env + 3);
        assert_eq!(current_workers(), env);
    }

    #[test]
    fn crew_mutates_each_element_once_in_order() {
        let mut items: Vec<(u64, u32)> = (0..97).map(|x| (x, 0)).collect();
        Crew::new(4).for_each_mut(&mut items, |i, (x, visits)| {
            *x = (*x + 1) * i as u64;
            *visits += 1;
        });
        assert_eq!(items, (0..97).map(|i| ((i + 1) * i, 1)).collect::<Vec<_>>());
    }

    /// Back-to-back jobs exercise the epoch handoff and its memory
    /// ordering: every round reads the previous round's worker writes.
    #[test]
    fn crew_back_to_back_jobs_match_serial() {
        let step = |round: u64, i: usize, x: &mut u64| {
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round ^ i as u64).rotate_left(7)
        };
        let mut want: Vec<u64> = (0..16).collect();
        for round in 0..10_000 {
            want.iter_mut().enumerate().for_each(|(i, x)| step(round, i, x));
        }
        for workers in [1, 2, 8] {
            let mut crew = Crew::new(workers);
            let mut got: Vec<u64> = (0..16).collect();
            for round in 0..10_000 {
                crew.for_each_mut(&mut got, |i, x| step(round, i, x));
            }
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn crew_reraises_panics_and_stays_usable() {
        for workers in [2, 8] {
            let mut crew = Crew::new(workers);
            let mut items = vec![0u64; 16];
            // Element 0 is in the inline chunk; the last is a crew thread's.
            for bad in [0, 15] {
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    crew.for_each_mut(&mut items, |i, x| {
                        assert_ne!(i, bad, "boom");
                        *x += 1;
                    })
                }));
                assert!(caught.is_err(), "panic at element {bad} must reach the caller");
            }
            let mut fresh = vec![0u64; 16];
            crew.for_each_mut(&mut fresh, |i, x| *x = i as u64);
            assert_eq!(fresh, (0..16).collect::<Vec<u64>>(), "{workers} workers");
        }
    }

    #[test]
    fn crew_drop_joins_every_thread() {
        let crew = Crew::new(4);
        let shared = Arc::clone(&crew.shared);
        assert_eq!(Arc::strong_count(&shared), 5);
        drop(crew);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn crew_empty_and_single() {
        let mut crew = Crew::new(4);
        let mut empty: Vec<u64> = Vec::new();
        crew.for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![5u64];
        crew.for_each_mut(&mut one, |i, x| *x += i as u64 + 1);
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn crew_sized_rebuilds_only_on_change() {
        let mut slot = None;
        let first = Arc::clone(&Crew::sized(&mut slot, 3).shared);
        assert!(Arc::ptr_eq(&first, &Crew::sized(&mut slot, 3).shared));
        assert_eq!(Crew::sized(&mut slot, 2).workers(), 2);
        assert_eq!(Arc::strong_count(&first), 1, "the replaced crew is joined");
        assert_eq!(Crew::sized(&mut slot, 0).workers(), 1);
    }

    #[test]
    fn uneven_tasks_balance() {
        let out = with_workers(4, || {
            par_map_range(32, |i| {
                // Skew work toward low indices; order must still hold.
                let spins = if i < 4 { 200_000 } else { 10 };
                (0..spins).fold(i as u64, |acc, _| {
                    acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
                }) ^ i as u64
            })
        });
        let reference = with_workers(1, || {
            par_map_range(32, |i| {
                let spins = if i < 4 { 200_000 } else { 10 };
                (0..spins).fold(i as u64, |acc, _| {
                    acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
                }) ^ i as u64
            })
        });
        assert_eq!(out, reference);
    }
}
