//! Inference hot-path throughput: single-image `measure` (packed kernels
//! vs the reference loops), per-layer GEMM breakdown, plan-time autotuner
//! cold/warm cost, batched measurement at 1/4 workers, the offline
//! template+fit pipeline end-to-end, and the telemetry overhead on
//! `measure`.
//!
//! Every repeated timing goes through `advhunter_bench::timing`, and the
//! results land in `BENCH_inference.json` at the repo root. Comparisons
//! (packed vs reference loops, telemetry on vs off) are interleaved A/B
//! rounds, so clock drift hits both arms alike. `ADVHUNTER_BENCH_MS` sets
//! the budget per section (default 300 ms); `ADVHUNTER_BENCH_ASSERT=1`
//! turns the packed-kernel and tune-cache floors into hard asserts.

use std::hint::black_box;
use std::time::Instant;

use advhunter::offline::collect_template;
use advhunter::{Detector, DetectorConfig, ExecOptions, Parallelism, ScenarioId};
use advhunter_bench::timing::{self, row, time, time_ab, Report};
use advhunter_data::{scenarios, SplitSizes};
use advhunter_exec::TraceEngine;
use advhunter_nn::gemm_geometries;
use advhunter_tensor::init;
use advhunter_tensor::ops::{
    gemm_packed_bias_into, linear_into, linear_packed_bias_into, matmul_into, GemmOpKind,
    PackedWeights,
};
use advhunter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rounds per interleaved A/B section.
const ROUNDS: usize = 32;

fn main() {
    let budget = timing::budget();
    let mut report = Report::new("inference_throughput", budget);
    let mut rng = StdRng::seed_from_u64(1);
    let model = ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("case-study spec compiles");

    advhunter_bench::section("Inference throughput (case-study CNN, 3x32x32)");

    // Plan-time autotuner cost. The process-global memo makes only the very
    // first call cold (it micro-benchmarks every distinct geometry), so this
    // one-shot must run before any engine is built; every later call prices
    // a fully warm plan build (memo hits + weight packing only).
    let t0 = Instant::now();
    let kernels = advhunter_exec::tuned_kernels(&model, None);
    let tune_cold_us = t0.elapsed().as_secs_f64() * 1e6;
    let tune_warm = time(budget / 4, || {
        black_box(advhunter_exec::tuned_kernels(&model, None));
    });
    println!(
        "tune/plan_build: cold {tune_cold_us:.1} µs, warm {tune_warm} \
         ({} packed floats)",
        kernels.packed_floats()
    );
    report
        .num("tune_cold_us", tune_cold_us)
        .timing("tune_warm_us", &tune_warm);

    // Reference engine (ADVHUNTER_TUNE=reference leaves the kernel table
    // empty, so every matrix node runs the reference loops) vs the tuned
    // packed-kernel engine.
    std::env::set_var("ADVHUNTER_TUNE", "reference");
    let reference_engine = TraceEngine::new(&model);
    std::env::remove_var("ADVHUNTER_TUNE");
    let engine = TraceEngine::new(&model);
    let image = init::uniform(&mut StdRng::seed_from_u64(5), &[3, 32, 32], 0.0, 1.0);

    // Single-image measure: the unit of both the offline and online phases.
    let (mut packed_rng, mut reference_rng) = (StdRng::seed_from_u64(2), StdRng::seed_from_u64(2));
    let single = time_ab(
        budget * 2,
        ROUNDS,
        [
            &mut || {
                black_box(engine.measure(&model, &image, &mut packed_rng));
            },
            &mut || {
                black_box(reference_engine.measure(&model, &image, &mut reference_rng));
            },
        ],
    );
    let packed_speedup = single.ratio();
    row("measure/single_image", &single.a);
    row("measure/single_image/reference_loops", &single.b);
    println!(
        "packed kernels {packed_speedup:.2}x faster (paired per-round difference {:+.1}% ± {:.1} IQR)",
        single.delta_pct.median,
        single.delta_pct.iqr()
    );
    report
        .timing("single_image_us", &single.a)
        .num("single_image_per_s", 1e6 / single.a.median)
        .timing("reference_single_image_us", &single.b)
        .num("packed_speedup_vs_reference", packed_speedup)
        .timing("reference_minus_packed_pct", &single.delta_pct);

    // Per-layer GEMM breakdown: each matrix node's reference loops vs its
    // tuned packed kernel, on synthetic operands of the node's geometry.
    let mut log_speedups = Vec::new();
    for (i, (node, geometry)) in model
        .nodes()
        .iter()
        .zip(gemm_geometries(&model))
        .enumerate()
    {
        let Some(geo) = geometry else { continue };
        let kernel = kernels.node(i).expect("matrix node has a kernel");
        let (m, k, n) = (geo.m, geo.k, geo.n);
        let wt = init::uniform(
            &mut StdRng::seed_from_u64(40 + i as u64),
            &[m, k],
            -0.1,
            0.1,
        );
        let data = init::uniform(
            &mut StdRng::seed_from_u64(80 + i as u64),
            &[k, n],
            -1.0,
            1.0,
        );
        let bias = init::uniform(&mut StdRng::seed_from_u64(120 + i as u64), &[m], -0.1, 0.1);
        let packed = PackedWeights::pack_tensor(&wt, kernel.variant);

        let ab = match geo.op {
            GemmOpKind::Conv => {
                let mut out = Tensor::zeros(&[m, n]);
                let mut pout = vec![0.0f32; m * n];
                time_ab(
                    budget / 2,
                    ROUNDS,
                    [
                        &mut || {
                            matmul_into(&wt, &data, &mut out);
                            for (j, v) in out.data_mut().iter_mut().enumerate() {
                                *v += bias.data()[j / n];
                            }
                            black_box(&out);
                        },
                        &mut || {
                            gemm_packed_bias_into(&packed, data.data(), n, bias.data(), &mut pout);
                            black_box(&pout);
                        },
                    ],
                )
            }
            GemmOpKind::Linear => {
                let x = init::uniform(
                    &mut StdRng::seed_from_u64(160 + i as u64),
                    &[1, k],
                    -1.0,
                    1.0,
                );
                let mut out = Tensor::zeros(&[1, m]);
                let mut pout = vec![0.0f32; m];
                time_ab(
                    budget / 2,
                    ROUNDS,
                    [
                        &mut || {
                            linear_into(&x, &wt, &bias, &mut out);
                            black_box(&out);
                        },
                        &mut || {
                            linear_packed_bias_into(&packed, x.data(), 1, bias.data(), &mut pout);
                            black_box(&pout);
                        },
                    ],
                )
            }
        };
        let speedup = 1.0 / ab.ratio();
        println!(
            "gemm/{:<8} {:>3}x{:>4}x{:>4} [{}]: ref {:>8.2} µs  packed {:>8.2} µs  ({speedup:.2}x)",
            node.name,
            m,
            k,
            n,
            kernel.variant.label(),
            ab.a.median,
            ab.b.median,
        );
        log_speedups.push(speedup.ln());
        report
            .text(
                &format!("gemm_{}_variant", node.name),
                kernel.variant.label(),
            )
            .timing(&format!("gemm_{}_reference_us", node.name), &ab.a)
            .timing(&format!("gemm_{}_packed_us", node.name), &ab.b);
    }
    let gemm_geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    println!("gemm speedup geomean: {gemm_geomean:.2}x");
    report.num("gemm_speedup_geomean", gemm_geomean);

    // Batched measurement at 1 and 4 workers (per-worker scratch reuse).
    // The pool never oversubscribes, so on a host with fewer than 4 cores
    // the 4-worker row actually runs with `available_parallelism` workers
    // — say so, or the row reads like a scaling regression.
    let cores = timing::cores();
    if cores < 4 {
        println!("note: only {cores} core(s) available — worker requests are capped there");
    }
    let mut img_rng = StdRng::seed_from_u64(3);
    let images: Vec<_> = (0..32)
        .map(|_| init::uniform(&mut img_rng, &[3, 32, 32], 0.0, 1.0))
        .collect();
    for threads in [1usize, 4] {
        let parallelism = Parallelism::new(threads);
        let batch = time(budget, || {
            black_box(engine.measure_batch(&model, &images, 7, &parallelism));
        });
        row(&format!("measure_batch/32_images/{threads}t"), &batch);
        report.timing(&format!("measure_batch_32_{threads}t_us"), &batch);
    }

    // Offline phase end-to-end: template collection + GMM-bank fit.
    let split = scenarios::cifar10_like(
        9,
        &SplitSizes {
            train: 4,
            val: 6,
            test: 4,
        },
    );
    let opts = ExecOptions::seeded(21).with_threads(4);
    let fit = time(budget, || {
        let template = collect_template(&engine, &model, &split.val, None, &opts.stage(0));
        black_box(Detector::fit(
            &template,
            &DetectorConfig::default(),
            &opts.stage(1),
        ))
        .ok();
    });
    row("offline/collect+fit/6_images/4t", &fit);
    report.timing("offline_collect_fit_us", &fit);

    // Telemetry overhead: the same `measure_indexed` call (pure in image,
    // seed and index) with recording off and on. The enabled path pays two
    // stage spans (four clock reads) plus a few relaxed atomic adds; the
    // disabled path skips the clock reads. The figure is the paired
    // per-round difference with its spread: an overhead inside the IQR is
    // below what this machine can resolve, not a measured saving.
    let was_enabled = advhunter_telemetry::enabled();
    let telemetry = time_ab(
        budget,
        ROUNDS,
        [
            &mut || {
                advhunter_telemetry::disable();
                black_box(engine.measure_indexed(&model, &image, 7, 0));
            },
            &mut || {
                advhunter_telemetry::enable();
                black_box(engine.measure_indexed(&model, &image, 7, 0));
            },
        ],
    );
    advhunter_telemetry::set_enabled(was_enabled);
    row("measure/single_image/telemetry_off", &telemetry.a);
    row("measure/single_image/telemetry_on", &telemetry.b);
    println!(
        "telemetry overhead: {:+.2}% ± {:.2} IQR over {ROUNDS} paired rounds",
        telemetry.delta_pct.median,
        telemetry.delta_pct.iqr()
    );
    report
        .timing("telemetry_disabled_single_image_us", &telemetry.a)
        .timing("telemetry_enabled_single_image_us", &telemetry.b)
        .timing("telemetry_overhead_pct", &telemetry.delta_pct);
    report.write("BENCH_inference.json");

    // CI perf floors, on medians (speedups come from the median paired
    // per-round difference): relative floors only — the packed kernels
    // must actually beat the reference loops, and the warm tuner must not
    // re-benchmark. Absolute-µs floors would be noise. The kernel floor is
    // the geometric mean of per-layer GEMM speedups: the full measure path
    // is half trace simulation, which would dilute the signal.
    if timing::asserting() {
        assert!(
            gemm_geomean >= 1.2,
            "packed GEMM kernels only {gemm_geomean:.2}x (geomean) over reference loops \
             (floor 1.2x)"
        );
        assert!(
            packed_speedup >= 1.0,
            "packed kernels made the full measure path slower \
             ({packed_speedup:.2}x vs reference loops)"
        );
        assert!(
            tune_warm.median * 2.0 < tune_cold_us,
            "warm plan build ({:.1} µs) not clearly cheaper than cold \
             ({tune_cold_us:.1} µs) — tune memo miss?",
            tune_warm.median
        );
        println!("ADVHUNTER_BENCH_ASSERT: packed-kernel floors hold");
    }
}
