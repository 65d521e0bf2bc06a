//! Deterministic data-parallel runtime for the AdvHunter pipeline.
//!
//! Every heavy stage of the pipeline — per-image instrumented traces,
//! per-(class, event) GMM fitting, batch NLL scoring — is embarrassingly
//! parallel, but the repo's reproducibility contract is *seeded
//! determinism everywhere*. This crate provides the two pieces that square
//! those requirements:
//!
//! * [`derive_seed`] — a SplitMix64-style pure function from a caller seed
//!   and an item index to an independent per-item seed. Because each
//!   item's randomness is a function of `(seed, index)` only, results
//!   never depend on which worker ran the item or in what order.
//! * [`parallel_map`] / [`parallel_tasks`] — an order-preserving map over
//!   a scoped `std::thread` worker pool (no dependencies, no unsafe).
//!   Workers pull item indices from a shared atomic counter and results
//!   are reassembled in item order, so the output is bit-for-bit
//!   identical for any thread count, including the exact sequential path
//!   at one thread.
//!
//! Thread count comes from [`Parallelism`]: defaults to the machine's
//! available cores, overridable with the `ADVHUNTER_THREADS` environment
//! variable, with `1` giving the plain sequential loop.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use advhunter_telemetry::{Counter, Histogram};

/// Telemetry handles for the worker pool, registered once in the global
/// registry. Purely observational: nothing here feeds back into
/// scheduling or results (the determinism contract), and the wall-clock
/// reads are skipped entirely when `advhunter_telemetry::disabled()`.
struct PoolMetrics {
    parallel_runs: Arc<Counter>,
    sequential_runs: Arc<Counter>,
    tasks: Arc<Counter>,
    workers: Arc<Counter>,
    worker_items: Arc<Histogram>,
    worker_busy_ns: Arc<Histogram>,
    worker_idle_ns: Arc<Histogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = advhunter_telemetry::global();
        PoolMetrics {
            parallel_runs: r.counter(
                "advhunter_runtime_parallel_runs_total",
                "Pool fan-outs that spawned worker threads",
            ),
            sequential_runs: r.counter(
                "advhunter_runtime_sequential_runs_total",
                "Pool runs that took the exact sequential path",
            ),
            tasks: r.counter(
                "advhunter_runtime_tasks_total",
                "Items executed across all pool runs",
            ),
            workers: r.counter(
                "advhunter_runtime_workers_total",
                "Worker threads spawned across all fan-outs",
            ),
            worker_items: r.histogram(
                "advhunter_runtime_worker_items",
                "Items one worker claimed in one fan-out (work-distribution balance)",
            ),
            worker_busy_ns: r.histogram(
                "advhunter_runtime_worker_busy_ns",
                "Per-worker wall time spent inside item closures, per fan-out",
            ),
            worker_idle_ns: r.histogram(
                "advhunter_runtime_worker_idle_ns",
                "Per-worker wall time spent claiming work or waiting, per fan-out",
            ),
        }
    })
}

/// How many worker threads a parallel stage may use.
///
/// ```
/// use advhunter_runtime::Parallelism;
///
/// let seq = Parallelism::sequential();
/// assert_eq!(seq.threads(), 1);
/// let four = Parallelism::new(4);
/// assert_eq!(four.threads(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers; `0` is promoted to `1`.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The exact sequential path: one worker, no thread spawns.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// One worker per available core (ignoring `ADVHUNTER_THREADS`).
    pub fn available_cores() -> Self {
        Self {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The environment-driven default: `ADVHUNTER_THREADS` if set to a
    /// positive integer, otherwise one worker per available core.
    pub fn from_env() -> Self {
        match std::env::var("ADVHUNTER_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Self::new(n),
                _ => Self::available_cores(),
            },
            Err(_) => Self::available_cores(),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Execution options shared by every deterministic batch entry point: the
/// seed that roots all per-item random streams plus the worker count.
///
/// The unified pipeline APIs (`collect_template`, `Detector::fit`,
/// `measure_dataset`, `measure_examples`, the monitor service) all take an
/// `ExecOptions` instead of separate `rng`/`seed`/`parallelism` arguments.
/// Under the runtime's determinism contract the `parallelism` field never
/// changes results — only `seed` does.
///
/// ```
/// use advhunter_runtime::{ExecOptions, Parallelism};
///
/// let opts = ExecOptions::seeded(42).with_threads(4);
/// assert_eq!(opts.seed, 42);
/// assert_eq!(opts.parallelism.threads(), 4);
/// assert_eq!(ExecOptions::sequential(7).parallelism, Parallelism::sequential());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Root seed for derived per-item random streams.
    pub seed: u64,
    /// Worker count for the parallel stages.
    pub parallelism: Parallelism,
}

impl ExecOptions {
    /// Options with an explicit seed and worker count.
    pub fn new(seed: u64, parallelism: Parallelism) -> Self {
        Self { seed, parallelism }
    }

    /// A validating builder starting from the defaults ([`Self::default`]):
    /// seed `0`, environment-driven worker count.
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder::default()
    }

    /// Options with the environment-driven default worker count
    /// (`ADVHUNTER_THREADS`, else available cores).
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, Parallelism::default())
    }

    /// Options running the exact sequential path.
    pub fn sequential(seed: u64) -> Self {
        Self::new(seed, Parallelism::sequential())
    }

    /// The same options with `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = Parallelism::new(threads);
        self
    }

    /// The same options with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Options for pipeline stage `stage`, with an independent seed derived
    /// from this one via [`derive_seed`]. Lets one root seed drive a whole
    /// multi-stage pipeline without correlated streams:
    ///
    /// ```
    /// use advhunter_runtime::ExecOptions;
    ///
    /// let root = ExecOptions::seeded(42);
    /// assert_ne!(root.stage(0).seed, root.stage(1).seed);
    /// assert_eq!(root.stage(1), root.stage(1));
    /// ```
    pub fn stage(&self, stage: u64) -> Self {
        Self {
            seed: derive_seed(self.seed, stage),
            parallelism: self.parallelism,
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::seeded(0)
    }
}

/// Validation failures from [`ExecOptionsBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecOptionsError {
    /// `threads(0)` was requested. [`Parallelism::new`] silently promotes
    /// zero to one; the builder instead reports the contradiction so
    /// callers wiring thread counts from config files catch the mistake.
    ZeroThreads,
}

impl std::fmt::Display for ExecOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroThreads => {
                write!(f, "thread count must be at least 1 (got 0)")
            }
        }
    }
}

impl std::error::Error for ExecOptionsError {}

/// Builder for [`ExecOptions`] that rejects nonsensical settings with a
/// typed [`ExecOptionsError`] instead of silently normalising them — the
/// same contract as `DetectorConfig::builder()` in the core crate.
///
/// ```
/// use advhunter_runtime::{ExecOptions, ExecOptionsError};
///
/// let opts = ExecOptions::builder().seed(42).threads(4).build().unwrap();
/// assert_eq!(opts.seed, 42);
/// assert_eq!(opts.parallelism.threads(), 4);
/// assert_eq!(
///     ExecOptions::builder().threads(0).build(),
///     Err(ExecOptionsError::ZeroThreads)
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecOptionsBuilder {
    seed: u64,
    threads: Option<usize>,
}

impl ExecOptionsBuilder {
    /// Root seed for derived per-item random streams (default `0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit worker count. When unset, [`build`](Self::build) falls
    /// back to the environment-driven default ([`Parallelism::from_env`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Validates and produces the options.
    ///
    /// Returns an [`ExecOptionsError`] naming the first invalid field.
    pub fn build(self) -> Result<ExecOptions, ExecOptionsError> {
        let parallelism = match self.threads {
            Some(0) => return Err(ExecOptionsError::ZeroThreads),
            Some(t) => Parallelism::new(t),
            None => Parallelism::default(),
        };
        Ok(ExecOptions::new(self.seed, parallelism))
    }
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the seed of item `index`'s private random stream from the
/// caller's `seed`.
///
/// SplitMix64 output function over the state `seed + (index + 1)·γ`: for a
/// fixed `seed` the map is injective in `index` (the additive step is a
/// bijection of `u64` and the finalizer is a bijection), so distinct items
/// always receive distinct seeds, and the result is a pure function of
/// `(seed, index)` — the property that makes parallel batch results
/// independent of scheduling.
///
/// ```
/// use advhunter_runtime::derive_seed;
///
/// assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
/// assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
/// ```
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f(index)` for every `index in 0..n` and returns the results in
/// index order, fanning out over the configured worker pool.
///
/// `f` must be a pure function of `index` (plus captured shared state) for
/// the determinism guarantee to mean anything; under that contract the
/// output is identical for every thread count. A panic in any worker is
/// propagated to the caller with its original payload.
pub fn parallel_tasks<R, F>(parallelism: &Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_tasks_with(parallelism, n, || (), |(), i| f(i))
}

/// [`parallel_tasks`] with per-worker scratch state: every worker calls
/// `init()` once and then runs `f(&mut state, index)` for each item it
/// pulls.
///
/// This is the hook for reusable workspaces (e.g. preallocated activation
/// buffers): the state amortizes across a worker's items without being
/// shared between threads. The determinism contract still requires each
/// *result* to be a pure function of `index` — the state may cache buffers
/// but must not leak information from one item into the next item's output.
pub fn parallel_tasks_with<S, R, I, F>(parallelism: &Parallelism, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let metrics = pool_metrics();
    metrics.tasks.add(n as u64);
    // Never oversubscribe: the workers are CPU-bound, so spawning more of
    // them than there are cores only adds context switches and cache
    // ping-pong between per-worker scratch states. Results are identical
    // for any worker count (the determinism contract), so capping a
    // too-large request is observationally safe.
    let core_cap = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
    let threads = parallelism.threads().min(n).min(core_cap);
    if threads <= 1 {
        metrics.sequential_runs.inc();
        let started = advhunter_telemetry::now();
        let mut state = init();
        let out = (0..n).map(|i| f(&mut state, i)).collect();
        if started.is_some() {
            metrics.worker_items.record(n as u64);
            metrics
                .worker_busy_ns
                .record(advhunter_telemetry::elapsed_nanos(started));
        }
        return out;
    }
    metrics.parallel_runs.inc();
    metrics.workers.add(threads as u64);

    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let spawned = advhunter_telemetry::now();
                    let mut busy = Duration::ZERO;
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item_start = advhunter_telemetry::now();
                        local.push((i, f(&mut state, i)));
                        if let Some(start) = item_start {
                            busy += start.elapsed();
                        }
                    }
                    if let Some(spawned) = spawned {
                        let wall = spawned.elapsed();
                        metrics.worker_items.record(local.len() as u64);
                        metrics.worker_busy_ns.record_duration(busy);
                        metrics
                            .worker_idle_ns
                            .record_duration(wall.saturating_sub(busy));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Order-preserving parallel map over a slice: `out[i] = f(i, &items[i])`.
///
/// See [`parallel_tasks`] for the determinism contract.
pub fn parallel_map<T, R, F>(parallelism: &Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_tasks(parallelism, items.len(), |i| f(i, &items[i]))
}

/// [`parallel_map`] with per-worker scratch state (see
/// [`parallel_tasks_with`]): `out[i] = f(&mut state, i, &items[i])`.
pub fn parallel_map_with<S, T, R, I, F>(
    parallelism: &Parallelism,
    items: &[T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    parallel_tasks_with(parallelism, items.len(), init, |state, i| {
        f(state, i, &items[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let square = |_i: usize, x: &u64| x * x + derive_seed(5, *x);
        let seq = parallel_map(&Parallelism::sequential(), &items, square);
        for threads in [2, 3, 4, 8] {
            let par = parallel_map(&Parallelism::new(threads), &items, square);
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&Parallelism::new(4), &items, |i, _| i);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_tiny_inputs_work_at_any_thread_count() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&Parallelism::new(8), &empty, |_, x| *x).is_empty());
        let one = [41u8];
        assert_eq!(
            parallel_map(&Parallelism::new(8), &one, |_, x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn worker_panics_propagate() {
        let items = [0u8; 16];
        let result = std::panic::catch_unwind(|| {
            parallel_map(&Parallelism::new(4), &items, |i, _| {
                assert!(i != 7, "boom at 7");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn parallelism_clamps_and_reads_env() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert!(Parallelism::available_cores().threads() >= 1);
        std::env::set_var("ADVHUNTER_THREADS", "3");
        assert_eq!(Parallelism::from_env().threads(), 3);
        std::env::set_var("ADVHUNTER_THREADS", "not-a-number");
        assert!(Parallelism::from_env().threads() >= 1);
        std::env::remove_var("ADVHUNTER_THREADS");
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = parallel_tasks_with(
            &Parallelism::new(3),
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(8)
            },
            |scratch, i| {
                scratch.push(i);
                i * 2
            },
        );
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 3, "one init per worker");
    }

    #[test]
    fn stateful_map_matches_stateless_at_any_thread_count() {
        let items: Vec<u64> = (0..123).collect();
        let seq = parallel_map(&Parallelism::sequential(), &items, |i, x| {
            derive_seed(*x, i as u64)
        });
        for threads in [1, 2, 5] {
            let par = parallel_map_with(
                &Parallelism::new(threads),
                &items,
                || (),
                |(), i, x| derive_seed(*x, i as u64),
            );
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn empty_input_skips_state_init() {
        let out = parallel_tasks_with(
            &Parallelism::new(4),
            0,
            || panic!("init must not run for empty input"),
            |_: &mut (), i| i,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn exec_options_builders_compose() {
        let opts = ExecOptions::new(9, Parallelism::new(2));
        assert_eq!(opts.with_seed(10).seed, 10);
        assert_eq!(opts.with_threads(8).parallelism.threads(), 8);
        assert_eq!(opts.with_seed(10).parallelism, opts.parallelism);
        // Stage derivation is pure and injective across stage indices.
        assert_eq!(opts.stage(3), opts.stage(3));
        assert_ne!(opts.stage(3).seed, opts.stage(4).seed);
        assert_eq!(opts.stage(3).parallelism, opts.parallelism);
    }

    #[test]
    fn builder_validates_and_mirrors_constructors() {
        let opts = ExecOptions::builder().seed(9).threads(2).build().unwrap();
        assert_eq!(opts, ExecOptions::new(9, Parallelism::new(2)));
        assert_eq!(
            ExecOptions::builder().threads(0).build(),
            Err(ExecOptionsError::ZeroThreads)
        );
        // Unset threads falls back to the environment-driven default.
        let defaulted = ExecOptions::builder().seed(3).build().unwrap();
        assert_eq!(defaulted.seed, 3);
        assert!(defaulted.parallelism.threads() >= 1);
        assert_eq!(
            ExecOptionsError::ZeroThreads.to_string(),
            "thread count must be at least 1 (got 0)"
        );
    }

    #[test]
    fn derived_seeds_are_distinct_across_indices() {
        let seen: std::collections::HashSet<u64> =
            (0..10_000).map(|i| derive_seed(123, i)).collect();
        assert_eq!(seen.len(), 10_000);
    }
}
