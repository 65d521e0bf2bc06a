//! Sustained throughput of the online monitor service at 1/2/4 worker
//! threads, against the single-image `measure` rate as the scaling
//! baseline — plus a *simulated-multicore* mode that proves the worker
//! loop's measurement stage shares no `&mut` engine state across
//! workers.
//!
//! Results land in `BENCH_monitor.json` at the repo root. The target on a
//! machine with enough cores is sustained monitor throughput ≥
//! single-image rate × 0.9 × threads: micro-batch coalescing plus the
//! per-worker scratch pool should make service overhead (queue, channel,
//! telemetry) disappear next to the trace simulation itself. The
//! single-image rate is the warm median `time` reports for the same call
//! `BENCH_inference.json` records; each monitor stream is one stateful
//! pass, timed by one wall clock.
//!
//! # Simulated multicore
//!
//! CI boxes rarely have 4 idle cores, so real-thread scaling numbers are
//! noisy there. The sim mode replays the worker loop's exact per-batch
//! structure on one thread: requests are dealt round-robin onto W virtual
//! cores, each virtual core measures its share sequentially with its own
//! pooled scratch (`worker_scratch` + `measure_indexed_with` — the same
//! calls the service's measurement fan-out makes), and the simulated
//! batch wall-time is the *max* over the cores' sequential times plus the
//! sequential scoring stage. Because measurement takes no `&mut` shared
//! state, the only serial parts are scoring and queue bookkeeping — so
//! simulated speedup at 4 workers must approach 4×.
//!
//! The stream is `scaled(256, 32)` requests under `ADVHUNTER_SCALE`;
//! `ADVHUNTER_BENCH_MS` sets the single-image budget, and
//! `ADVHUNTER_BENCH_ASSERT=1` makes the run fail unless the simulated
//! 4-worker speedup over 1 worker is ≥ 1.8×.

use std::time::Instant;

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate};
use advhunter_bench::timing::{self, row, time, Report};
use advhunter_exec::TraceEngine;
use advhunter_monitor::{MonitorBuilder, OverloadPolicy};
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLASSES: usize = 10;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SIM_WORKERS: [usize; 3] = [1, 2, 4];
const MICRO_BATCH: usize = 16;

/// A fitted detector for the benchmark model, built from measured traces
/// of random images binned round-robin into categories. (The detector's
/// quality is irrelevant here — only the work per request matters.)
fn fitted_detector(engine: &TraceEngine, model: &advhunter_nn::Graph) -> Detector {
    let mut rng = StdRng::seed_from_u64(2);
    let images: Vec<Tensor> = (0..CLASSES * 12)
        .map(|_| init::uniform(&mut rng, &[3, 32, 32], 0.0, 1.0))
        .collect();
    let opts = ExecOptions::seeded(3);
    let measurements = engine.measure_batch(model, &images, opts.seed, &opts.parallelism);
    let mut per_class = vec![Vec::new(); CLASSES];
    for (i, m) in measurements.iter().enumerate() {
        per_class[i % CLASSES].push(m.sample);
    }
    let template = OfflineTemplate::from_samples(per_class);
    Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1))
        .expect("detector fit on synthetic template")
}

/// Replays the worker loop's batch structure on W virtual cores and
/// returns the simulated wall-clock seconds for the whole stream.
fn simulate_workers(
    engine: &TraceEngine,
    model: &advhunter_nn::Graph,
    detector: &Detector,
    images: &[Tensor],
    workers: usize,
) -> f64 {
    let mut scratches: Vec<_> = (0..workers).map(|_| engine.worker_scratch(model)).collect();
    // Warm every virtual core's scratch so pool setup is off the clock.
    for scratch in &mut scratches {
        std::hint::black_box(engine.measure_indexed_with(model, &images[0], 7, 0, scratch));
    }
    let mut sim_wall = 0.0f64;
    let mut index = 0u64;
    let mut measurements = Vec::with_capacity(MICRO_BATCH);
    for batch in images.chunks(MICRO_BATCH) {
        // Measurement: round-robin deal onto virtual cores; each core's
        // share runs sequentially on its own scratch, so the simulated
        // parallel wall-time is the slowest core's total.
        let mut core_time = vec![0.0f64; workers];
        for (j, image) in batch.iter().enumerate() {
            let core = j % workers;
            let t = Instant::now();
            let m = engine.measure_indexed_with(model, image, 7, index, &mut scratches[core]);
            core_time[core] += t.elapsed().as_secs_f64();
            measurements.push(m);
            index += 1;
        }
        // Scoring stays sequential in the service (drift determinism),
        // so it counts fully against every worker count.
        let t = Instant::now();
        for m in &measurements {
            std::hint::black_box(detector.evaluate(m.predicted, &m.sample));
        }
        let score = t.elapsed().as_secs_f64();
        sim_wall += core_time.iter().copied().fold(0.0, f64::max) + score;
        measurements.clear();
    }
    sim_wall
}

fn main() {
    let n = advhunter_bench::scaled(256, 32);
    let budget = timing::budget();
    let mut rng = StdRng::seed_from_u64(1);
    let model = advhunter::scenario::ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("checked-in spec compiles");
    let images: Vec<Tensor> = (0..n)
        .map(|_| init::uniform(&mut rng, &[3, 32, 32], 0.0, 1.0))
        .collect();

    advhunter_bench::section("Online monitor throughput (case-study CNN, 3x32x32)");

    // Baseline: raw single-image measurement rate, no service in the way.
    let engine = TraceEngine::new(&model);
    let mut index = 0u64;
    let single = time(budget, || {
        let image = &images[index as usize % n];
        std::hint::black_box(engine.measure_indexed(&model, image, 7, index));
        index += 1;
    });
    let single_per_s = 1e6 / single.median;
    row("measure/single_image", &single);

    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let engine = TraceEngine::new(&model);
        let detector = fitted_detector(&engine, &model);
        let monitor = MonitorBuilder::new(ExecOptions::seeded(7).with_threads(threads))
            .queue_capacity(n.max(1))
            .micro_batch(MICRO_BATCH)
            .overload(OverloadPolicy::Block)
            .spawn(engine, model.clone(), detector)
            .expect("spawn monitor");

        let t0 = Instant::now();
        for image in &images {
            monitor.submit(image.clone()).expect("submit");
        }
        monitor.close();
        let mut received = 0usize;
        while let Some(v) = monitor.recv() {
            std::hint::black_box(&v.verdict);
            received += 1;
        }
        let elapsed = t0.elapsed();
        assert_eq!(received, n, "monitor must deliver one verdict per request");
        let stats = monitor.shutdown();
        let per_s = n as f64 / elapsed.as_secs_f64();
        let target = single_per_s * 0.9 * threads as f64;
        println!(
            "monitor/{threads}t: {per_s:>8.1} images/s over {n} requests \
             ({} micro-batches, target {target:.1}/s, {:.2}x of target)",
            stats.batches,
            per_s / target,
        );
        rows.push((threads, per_s, target, elapsed));
    }

    // Simulated multicore: the same per-batch structure, virtual cores.
    let engine = TraceEngine::new(&model);
    let detector = fitted_detector(&engine, &model);
    let mut sim_rows = Vec::new();
    for workers in SIM_WORKERS {
        let sim_wall = simulate_workers(&engine, &model, &detector, &images, workers);
        let per_s = n as f64 / sim_wall;
        println!("monitor/sim_{workers}w: {per_s:>8.1} images/s (simulated wall {sim_wall:.3}s)");
        sim_rows.push((workers, per_s, sim_wall));
    }
    // SIM_WORKERS runs 1 worker first and 4 workers last.
    let sim_speedup = sim_rows[2].1 / sim_rows[0].1;
    println!("monitor/sim_speedup_4w_over_1w: {sim_speedup:.2}x");
    let mut report = Report::new("monitor_throughput", budget);
    report
        .int("stream_len", n as u64)
        .timing("single_image_us", &single)
        .num("single_image_per_s", single_per_s);
    for (threads, per_s, target, elapsed) in &rows {
        report
            .num(&format!("monitor_{threads}t_per_s"), *per_s)
            .num(&format!("monitor_{threads}t_target_per_s"), *target)
            .num(
                &format!("monitor_{threads}t_elapsed_ms"),
                elapsed.as_secs_f64() * 1e3,
            );
    }
    for (workers, per_s, sim_wall) in &sim_rows {
        report
            .num(&format!("sim_monitor_{workers}w_per_s"), *per_s)
            .num(&format!("sim_monitor_{workers}w_wall_ms"), sim_wall * 1e3);
    }
    report.num("sim_speedup_4w_over_1w", sim_speedup);
    report.write("BENCH_monitor.json");

    if timing::asserting() {
        assert!(
            sim_speedup >= 1.8,
            "simulated 4-worker speedup {sim_speedup:.2}x below the 1.8x floor: \
             the measurement stage is sharing mutable engine state"
        );
        println!("sim scaling assertion passed (>= 1.8x)");
    }
}
