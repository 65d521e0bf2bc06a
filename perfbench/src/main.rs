//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_s1_mixed|serve_w8_closed|calibrate_s3_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The first run in a checkout trains every
//! workload's model into `.bench_build/perfbench/prepared`; later runs
//! start from that store. With `--trace 0` the last stdout line reports
//! the end-to-end metrics, with `--trace 1` the per-layer ones (see
//! `perfbench/README.md`). Any failed correctness check makes the command
//! exit with code 1.

mod calibrate;
mod layers;
mod prep;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use advhunter::{ArtifactStore, Parallelism, PipelineConfig};
use advhunter_nn::MatKernels;
use advhunter_runtime::derive_seed;

use crate::prep::{ImageSource, Query, QueryKind, Reference};
use advhunter_monitor::StatsSnapshot;

use crate::serve::{Reply, Traffic};
use crate::stats::{mean, median, percentile};

/// The three workloads; see `perfbench/README.md` for why each was chosen.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    spec: &'static str,
    kind: Kind,
    /// Cold calibrations per run (median reported as `calibrate_s`).
    calibrations: usize,
    /// Boots per run (median reported as `setup_s`).
    boots: usize,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Clean, FGSM and NES traffic from many tenants over the wire, with
    /// `window` requests outstanding.
    ServeMixed { window: usize },
    /// One tenant's distinct images (every few an FGSM one) over the wire,
    /// with `window` requests outstanding.
    ServeOneTenant { window: usize },
    /// In-process held-out screening of `per_second × seconds` images.
    Evaluate { per_second: usize },
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_s1_mixed",
        spec: "specs/s1.ahg",
        kind: Kind::ServeMixed { window: 4 },
        calibrations: 2,
        boots: 5,
    },
    Workload {
        name: "serve_w8_closed",
        spec: "specs/case_w8.ahg",
        kind: Kind::ServeOneTenant { window: 16 },
        calibrations: 3,
        boots: 5,
    },
    Workload {
        name: "calibrate_s3_cold",
        spec: "specs/s3.ahg",
        kind: Kind::Evaluate { per_second: 360 },
        calibrations: 1,
        boots: 3,
    },
];

/// Serving traffic in the first second after boot warms caches, pools and
/// the freshly booted threads; it is checked but not timed.
const WARMUP_S: f64 = 1.0;
/// Held-out images each freshly booted evaluator screens before timing.
const EVAL_WARMUP: usize = 16;
/// Mixed traffic: shares of FGSM images and NES queries (the rest is
/// clean), cycled from a pool of this many requests. The shares are an
/// arbitrary synthetic choice, fixed so that runs compare: every class is
/// rated on its own (`detect_tpr`, `clean_tnr`), so they mostly set how
/// often the fingerprint matches.
const MIXED_FGSM_SHARE: f64 = 0.15;
const MIXED_NES_SHARE: f64 = 0.25;
const MIXED_POOL: usize = 2048;
/// Concurrent NES attackers in the mixed traffic, as in the repository's
/// NES experiment (EXPERIMENTS.md); each bursts from its own tenant.
const NES_ATTACKERS: usize = 3;
/// NES gradient estimates per burst (13 queries each).
const NES_STEPS: usize = 3;
/// Clean-traffic tenants in the mixed traffic (arbitrary; more than the
/// attackers, so a clean tenant's queries rarely share a window).
const CLEAN_TENANTS: u64 = 32;
/// Single-tenant image pool (larger than the fingerprint window, so every
/// query is new to its tenant) and its FGSM stride.
const ONE_TENANT_POOL: usize = 4096;
const ONE_TENANT_FGSM_EVERY: usize = 8;
/// Held-out FGSM stride of the evaluation stream.
const EVAL_FGSM_EVERY: usize = 4;
/// Images measured at 1 and at `nproc` threads for the count check.
const THREAD_CHECK_IMAGES: usize = 16;

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(PREPARE) {
        return match prep::ensure_prepared() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Internal flag: train the prepared store in a child process, so that
/// training never shows in a run's `peak_rss_mb`.
const PREPARE: &str = "--prepare";

/// Prepares the store in a child process and waits for it.
fn prepare() -> Result<(), String> {
    if prep::is_prepared()? {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg(PREPARE)
        .status()
        .map_err(|e| format!("preparation: {e}"))?;
    if !status.success() {
        return Err(format!("preparation failed: {status}"));
    }
    Ok(())
}

/// Everything one run measured and checked.
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    e2e: Metrics,
    layers: Metrics,
}

impl Run {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what.into());
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    prepare()?;
    let spec = prep::spec(w.spec)?;
    let config = PipelineConfig::for_spec(spec.clone());
    let clock = Instant::now();
    let phase = |what: &str| {
        eprintln!(
            "perfbench: {what} done at {:.2} s",
            clock.elapsed().as_secs_f64()
        )
    };
    let art = Reference::load(&config)?;
    phase("reference load");
    let exec_seed = derive_seed(args.seed, 0xE5EC);
    println!("descriptor {}", descriptor(args, &art.kernels, &art.model));

    let mut run = Run {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        e2e: Metrics::default(),
        layers: Metrics::default(),
    };

    // Seeded inputs (untimed).
    let mut source = ImageSource::new(&spec, args.seed)?;
    let target = spec.target_class;
    let queries = match w.kind {
        Kind::ServeMixed { .. } => mixed_stream(&mut source, &art.model, target, MIXED_POOL),
        Kind::ServeOneTenant { .. } => strided_mix(
            &mut source,
            &art.model,
            target,
            ONE_TENANT_POOL,
            ONE_TENANT_FGSM_EVERY,
            1,
        ),
        Kind::Evaluate { per_second } => strided_mix(
            &mut source,
            &art.model,
            target,
            (per_second as f64 * args.seconds).round() as usize,
            EVAL_FGSM_EVERY,
            0,
        ),
    };

    phase("input generation");
    // `peak_rss_mb` covers the workload, not training or input generation.
    reset_peak_rss()?;

    let serving = !matches!(w.kind, Kind::Evaluate { .. });
    let mut cal = Calibrator {
        config: &config,
        reference: &art.detector_bytes,
        secs: Vec::new(),
        store: None,
    };
    let ctx = Ctx {
        args,
        config: &config,
        art: &art,
        queries: &queries,
        exec_seed,
    };
    let (client_p50_ms, first) = match w.kind {
        Kind::ServeMixed { window } | Kind::ServeOneTenant { window } => {
            serve_workload(&ctx, window, &mut cal, &mut run)?
        }
        Kind::Evaluate { .. } => evaluate_workload(&ctx, &mut cal, &mut run)?,
    };
    let calibrate_s = median(&cal.secs);
    drop(cal);
    phase("workload");

    // Counts and verdict inputs must not depend on the thread count.
    let images: Vec<_> = queries
        .iter()
        .take(THREAD_CHECK_IMAGES)
        .map(|q| q.image.clone())
        .collect();
    let one = art
        .engine
        .measure_batch(&art.model, &images, exec_seed, &Parallelism::sequential());
    let all = art.engine.measure_batch(
        &art.model,
        &images,
        exec_seed,
        &Parallelism::available_cores(),
    );
    run.check(
        one == all,
        "measurements differ between 1 and nproc threads",
    );

    phase("thread-count check");
    if args.trace {
        let (tracer, problems) = layers::replay(
            &layers::ReplayInput {
                config: &config,
                art: &art,
                queries: &queries,
                first,
                exec_seed,
                client_p50_ms,
                serving,
                calibrate_s,
            },
            &mut run.layers,
        );
        run.check(problems.is_empty(), problems.join("; "));
        let dir = prep::work_dir().join("spans");
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.tsv", w.name, args.seed));
        fs::write(&path, tracer.to_tsv()).map_err(|e| e.to_string())?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    run.e2e.push("calibrate_s", calibrate_s, "s");

    let correct = run.failed == 0;
    for p in run.problems.iter().take(20) {
        eprintln!("perfbench: FAILED {p}");
    }
    let metrics = if args.trace { &run.layers } else { &run.e2e };
    for (name, value, unit) in &metrics.0 {
        println!("{:<10} {name:<34} {value:>14.4} {unit}", w.name);
    }
    println!(
        "{}",
        result_json(correct, run.attempted, run.failed, metrics)
    );
    Ok(correct)
}

/// The mixed traffic: clean images from many tenants, FGSM images, and NES
/// query bursts, each burst from its own tenant.
fn mixed_stream(
    source: &mut ImageSource,
    model: &advhunter_nn::Graph,
    target: usize,
    n: usize,
) -> Vec<Query> {
    let kinds: Vec<QueryKind> = (0..n)
        .map(|_| {
            let u: f64 = rand::Rng::gen(source.rng());
            if u < MIXED_FGSM_SHARE {
                QueryKind::Fgsm
            } else if u < MIXED_FGSM_SHARE + MIXED_NES_SHARE {
                QueryKind::Nes
            } else {
                QueryKind::Clean
            }
        })
        .collect();
    let count = |k| kinds.iter().filter(|&&x| x == k).count();
    let mut fgsm = source
        .fgsm(model, target, count(QueryKind::Fgsm))
        .into_iter();
    let mut clean = source.clean(count(QueryKind::Clean)).into_iter();
    let mut bursts: Vec<std::vec::IntoIter<advhunter_tensor::Tensor>> = Vec::new();
    let mut burst_tenant = [0u64; NES_ATTACKERS];
    let mut next_tenant = 1000;
    kinds
        .into_iter()
        .map(|kind| {
            let (image, tenant) = match kind {
                QueryKind::Clean => (
                    clean.next().expect("counted"),
                    rand::Rng::gen_range(source.rng(), 1..=CLEAN_TENANTS),
                ),
                QueryKind::Fgsm => (
                    fgsm.next().expect("counted"),
                    rand::Rng::gen_range(source.rng(), 1..=CLEAN_TENANTS),
                ),
                QueryKind::Nes => {
                    let a = rand::Rng::gen_range(source.rng(), 0..NES_ATTACKERS);
                    if bursts.len() <= a {
                        bursts.resize_with(a + 1, || Vec::new().into_iter());
                    }
                    let image = match bursts[a].next() {
                        Some(image) => image,
                        None => {
                            bursts[a] = source.nes_burst(model, target, NES_STEPS).into_iter();
                            burst_tenant[a] = next_tenant;
                            next_tenant += 1;
                            bursts[a].next().expect("a burst has queries")
                        }
                    };
                    (image, burst_tenant[a])
                }
            };
            Query {
                image,
                tenant,
                kind,
            }
        })
        .collect()
}

/// `n` images for one tenant: clean, with every `every`-th an FGSM image.
fn strided_mix(
    source: &mut ImageSource,
    model: &advhunter_nn::Graph,
    target: usize,
    n: usize,
    every: usize,
    tenant: u64,
) -> Vec<Query> {
    let n_fgsm = n / every;
    let mut fgsm = source.fgsm(model, target, n_fgsm).into_iter();
    let mut clean = source.clean(n - n_fgsm).into_iter();
    (0..n)
        .map(|i| {
            let (image, kind) = if i % every == every - 1 {
                (fgsm.next().expect("counted"), QueryKind::Fgsm)
            } else {
                (clean.next().expect("counted"), QueryKind::Clean)
            };
            Query {
                image,
                tenant,
                kind,
            }
        })
        .collect()
}

/// What every workload function needs from the run.
struct Ctx<'a> {
    args: &'a Args,
    config: &'a PipelineConfig,
    art: &'a Reference,
    queries: &'a [Query],
    exec_seed: u64,
}

/// Cold calibrations from the trained model, spread over the workload's
/// rounds (one at the start of each of the first `calibrations` rounds) so
/// that every timing samples the whole run; boots use the latest
/// calibrated store.
struct Calibrator<'a> {
    config: &'a PipelineConfig,
    reference: &'a [u8],
    secs: Vec<f64>,
    store: Option<ArtifactStore>,
}

impl Calibrator<'_> {
    fn round(
        &mut self,
        round: usize,
        wanted: usize,
        run: &mut Run,
    ) -> Result<ArtifactStore, String> {
        if round < wanted || self.store.is_none() {
            let (store, secs, identical) =
                calibrate::cold_calibration(self.config, self.reference, &format!("cal{round}"))?;
            run.check(
                identical,
                "cold-calibrated detector differs from the reference artifact",
            );
            self.secs.push(secs);
            if let Some(old) = self.store.replace(store) {
                prep::remove_store(&old);
            }
        }
        Ok(self.store.clone().expect("calibrated above"))
    }
}

impl Drop for Calibrator<'_> {
    fn drop(&mut self) {
        if let Some(store) = self.store.take() {
            prep::remove_store(&store);
        }
    }
}

/// Runs the workload's rounds: each round boots the serving stack once
/// (median is `setup_s`) and then drives one closed-loop traffic segment.
/// The first boot is the server every segment talks to (after an untimed
/// warm-up); later boots are timed and stopped again. An untimed tail
/// completes the first pass over the pool if the timed traffic fell short
/// of it. Returns the client's median verdict latency and the first timed
/// request.
fn serve_workload(
    ctx: &Ctx<'_>,
    window: usize,
    cal: &mut Calibrator<'_>,
    run: &mut Run,
) -> Result<(f64, usize), String> {
    let (args, queries) = (ctx.args, ctx.queries);
    let rounds = args.workload.boots;
    let mut setup = Vec::new();
    let mut traffic = Traffic::default();
    let mut server: Option<serve::Booted> = None;
    for r in 0..rounds {
        let store = cal.round(r, args.workload.calibrations, run)?;
        let t0 = Instant::now();
        let booted = serve::boot(ctx.exec_seed, ctx.config, &store)?;
        setup.push(t0.elapsed().as_secs_f64());
        let live = match &server {
            Some(live) => {
                booted.stop();
                live
            }
            None => {
                let live = server.insert(booted);
                serve::closed_segment(
                    &live.stream,
                    queries,
                    window,
                    (WARMUP_S, 0),
                    false,
                    &mut traffic,
                )?;
                live
            }
        };
        serve::closed_segment(
            &live.stream,
            queries,
            window,
            (args.seconds / rounds as f64, 0),
            true,
            &mut traffic,
        )?;
    }
    let live = server.ok_or("no boot ran")?;
    if traffic.due.len() < queries.len() {
        let pass = (0.0, queries.len());
        serve::closed_segment(&live.stream, queries, window, pass, false, &mut traffic)?;
    }
    let stats = live.stop();
    run.e2e.push("peak_rss_mb", peak_rss_mb()?, "MB");
    if traffic.replies.len() < queries.len() {
        return Err("the connection closed before one pass over the pool".into());
    }
    let (ok, problems) =
        serve::check_verdicts(&traffic, queries, ctx.art, ctx.exec_seed, args.seed);
    let n = traffic.replies.len();
    run.attempted += n as u64;
    run.failed += ok.iter().filter(|&&good| !good).count() as u64;
    run.problems.extend(problems);
    let first = traffic
        .timed
        .iter()
        .position(|&t| t)
        .ok_or("no timed request")?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latency: Vec<Option<f64>> = (0..n)
        .filter(|&i| traffic.timed[i])
        .map(|i| {
            let at = traffic.replied[i]?;
            ok[i].then(|| ms(at - traffic.due[i]))
        })
        .collect();
    let p50 = percentile(&latency, 50.0)?;
    run.layers.push("bench.verdict_p50_ms", p50, "ms");
    run.layers
        .push("bench.verdict_p95_ms", percentile(&latency, 95.0)?, "ms");
    run.layers
        .push("bench.verdict_p99_ms", percentile(&latency, 99.0)?, "ms");
    run.layers
        .push("bench.timed_verdicts", latency.len() as f64, "count");
    let timed_ok = (0..n).filter(|&i| traffic.timed[i] && ok[i]).count();
    // The detection rates cover exactly the first pass over the pool, so
    // each seed gives one value however fast the traffic ran.
    let rates = Rates::of(queries.iter().enumerate().map(|(i, q)| {
        let flagged = matches!(&traffic.replies[i], Reply::Verdict(v) if v.flagged);
        (q.kind, flagged, ok[i])
    }));
    let e = &mut run.e2e;
    e.push("setup_s", median(&setup), "s");
    e.push("verdict_mean_ms", mean(&latency), "ms");
    e.push(
        "verdicts_per_s",
        timed_ok as f64 / traffic.timed_secs,
        "1/s",
    );
    e.push(
        "ok_share",
        ok.iter().filter(|&&g| g).count() as f64 / n as f64,
        "share",
    );
    rates.push(e);
    serving_layer_metrics(&traffic, &stats, &mut run.layers)?;
    Ok((p50, first))
}

/// Per-layer figures the serving run itself yields: monitor counters from
/// its `StatsSnapshot`, wire rejects and load-generator lateness.
fn serving_layer_metrics(
    traffic: &Traffic,
    s: &StatsSnapshot,
    m: &mut Metrics,
) -> Result<(), String> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.push("monitor.queue_wait_ms", ms(s.mean_queued()), "ms");
    m.push(
        "monitor.batch_size_mean",
        s.completed as f64 / s.batches.max(1) as f64,
        "count",
    );
    m.push("monitor.shed_total", s.shed as f64, "count");
    m.push(
        "fingerprint.match_share",
        s.fingerprint_matched as f64 / s.completed.max(1) as f64,
        "share",
    );
    let rejects = traffic
        .replies
        .iter()
        .filter(|r| matches!(r, Reply::Rejected(_)))
        .count();
    m.push("wire.reject_total", rejects as f64, "count");
    let lag: Vec<Option<f64>> = traffic
        .sent
        .iter()
        .zip(&traffic.due)
        .map(|(s, d)| Some(ms(s.saturating_duration_since(*d))))
        .collect();
    m.push("loadgen.lag_p99_ms", percentile(&lag, 99.0)?, "ms");
    Ok(())
}

/// Runs the workload's rounds: each boots the evaluator (median is
/// `setup_s`) and screens one chunk of the held-out stream with one worker
/// per core; a seeded sample is checked against the reference.
fn evaluate_workload(
    ctx: &Ctx<'_>,
    cal: &mut Calibrator<'_>,
    run: &mut Run,
) -> Result<(f64, usize), String> {
    let (args, queries) = (ctx.args, ctx.queries);
    let rounds = args.workload.boots;
    let per = queries.len() / rounds;
    let mut setup = Vec::new();
    let mut evaluated = Vec::with_capacity(queries.len());
    let mut timed = Vec::with_capacity(queries.len());
    let mut wall = 0.0;
    for r in 0..rounds {
        let store = cal.round(r, args.workload.calibrations, run)?;
        let t0 = Instant::now();
        let art = calibrate::boot(ctx.config, &store)?;
        setup.push(t0.elapsed().as_secs_f64());
        let end = if r + 1 == rounds {
            queries.len()
        } else {
            (r + 1) * per
        };
        let t0 = Instant::now();
        evaluated.extend(calibrate::evaluate(
            &art,
            queries,
            r * per..end,
            ctx.exec_seed,
        ));
        wall += t0.elapsed().as_secs_f64();
        timed.extend((r * per..end).map(|i| i - r * per >= EVAL_WARMUP));
    }
    run.e2e.push("peak_rss_mb", peak_rss_mb()?, "MB");
    let wrong = calibrate::check_evaluated(&evaluated, queries, ctx.art, ctx.exec_seed, args.seed);
    for i in 0..queries.len() {
        run.check(
            !wrong.contains(&i),
            format!("held-out image {i}: verdict differs from recomputation"),
        );
    }
    let latency: Vec<Option<f64>> = evaluated
        .iter()
        .enumerate()
        .filter(|&(i, _)| timed[i])
        .map(|(i, e)| (!wrong.contains(&i)).then_some(e.latency_ms))
        .collect();
    let p50 = percentile(&latency, 50.0)?;
    let rates = Rates::of(
        queries
            .iter()
            .zip(&evaluated)
            .enumerate()
            .map(|(i, (q, e))| (q.kind, e.verdict.flagged_any(), !wrong.contains(&i))),
    );
    let n = queries.len();
    let e = &mut run.e2e;
    e.push("setup_s", median(&setup), "s");
    e.push("verdict_mean_ms", mean(&latency), "ms");
    run.layers.push("bench.verdict_p50_ms", p50, "ms");
    run.layers
        .push("bench.verdict_p95_ms", percentile(&latency, 95.0)?, "ms");
    run.layers
        .push("bench.verdict_p99_ms", percentile(&latency, 99.0)?, "ms");
    run.layers
        .push("bench.timed_verdicts", latency.len() as f64, "count");
    e.push("verdicts_per_s", n as f64 / wall, "1/s");
    e.push("ok_share", (n - wrong.len()) as f64 / n as f64, "share");
    rates.push(e);
    // No monitor, wire or load generator runs in this workload.
    for (name, unit) in [
        ("monitor.queue_wait_ms", "ms"),
        ("monitor.batch_size_mean", "count"),
        ("monitor.shed_total", "count"),
        ("fingerprint.match_share", "share"),
        ("wire.reject_total", "count"),
        ("loadgen.lag_p99_ms", "ms"),
    ] {
        run.layers.push(name, 0.0, unit);
    }
    Ok((p50, EVAL_WARMUP))
}

/// Flag counts over a fixed set of requests: adversarial ones flagged and
/// clean ones passed, each only when the verdict checked out correct.
#[derive(Debug, Default)]
struct Rates {
    adv: u64,
    adv_flagged: u64,
    clean: u64,
    clean_passed: u64,
}

impl Rates {
    /// From `(kind, flagged, correct)` per request.
    fn of(requests: impl Iterator<Item = (QueryKind, bool, bool)>) -> Self {
        let mut r = Self::default();
        for (kind, flagged, correct) in requests {
            if kind.adversarial() {
                r.adv += 1;
                r.adv_flagged += u64::from(flagged && correct);
            } else {
                r.clean += 1;
                r.clean_passed += u64::from(!flagged && correct);
            }
        }
        r
    }

    fn push(&self, m: &mut Metrics) {
        let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        m.push("detect_tpr", share(self.adv_flagged, self.adv), "share");
        m.push("clean_tnr", share(self.clean_passed, self.clean), "share");
    }
}

/// Resets this process's resident-memory high-water mark.
fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The run descriptor: machine, toolchain, code identity, seed, and the
/// packed-kernel variant every matrix node dispatches.
fn descriptor(args: &Args, kernels: &MatKernels, model: &advhunter_nn::Graph) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let target_cpu = fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|c| {
            c.split("target-cpu=").nth(1).map(|r| {
                r.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect::<String>()
            })
        })
        .unwrap_or_else(|| "default".into());
    let variants: Vec<String> = model
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            kernels.node(i).map(|k| {
                format!(
                    "{}: {{\"geometry\": {}, \"variant\": {}}}",
                    json_str(&node.name),
                    json_str(&k.geometry.to_string()),
                    json_str(k.variant.label())
                )
            })
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"target_cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"kernels\": {{{}}}}}",
        json_str(args.workload.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&target_cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
        json_str(&source_digest()),
        variants.join(", ")
    )
}

/// The git commit when run from a git checkout, else `none`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over every Rust source, manifest and spec file the measured
/// program is built from, so runs from checkouts without git history
/// still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "ahg" | "lock")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "specs", ".cargo"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
