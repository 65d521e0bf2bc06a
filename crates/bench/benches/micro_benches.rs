//! Micro-benchmarks for the substrates: cache-simulator throughput,
//! branch prediction, convolution, GMM fitting, instrumented inference
//! against the plain forward pass it instruments, online detector
//! scoring, and the trace-replay patterns one inference streams through
//! the simulated machine.
//!
//! Every row is one [`time`] section: median µs per call ± IQR, minimum
//! and sample count. `plain_forward` runs the tuned kernels into a reused
//! workspace, exactly the forward half of `trace_inference`, so the trace
//! replay costs `trace_inference − plain_forward`. `ADVHUNTER_BENCH_MS`
//! sets the budget per row.

use std::hint::black_box;

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, ScenarioId};
use advhunter_bench::timing::{self, row, time};
use advhunter_exec::TraceEngine;
use advhunter_gmm::{EmConfig, Gmm1d};
use advhunter_nn::Mode;
use advhunter_tensor::ops::{conv2d, Conv2dSpec};
use advhunter_tensor::{init, Tensor};
use advhunter_uarch::{
    AccessKind, BranchPredictor, Cache, CacheConfig, CounterGroup, HpcEvent, HpcSample,
    MachineConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let budget = timing::budget();
    let bench = |name: &str, f: &mut dyn FnMut()| row(name, &time(budget, f));
    advhunter_bench::section(&format!(
        "Micro-benchmarks ({} cores, target-cpu {}, {} ms per row)",
        timing::cores(),
        timing::target_cpu(),
        budget.as_millis()
    ));

    let mut rng = StdRng::seed_from_u64(0);
    let addrs: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..4_000_000u64)).collect();
    bench("cache_8k_random_accesses", &mut || {
        let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8));
        for &a in &addrs {
            cache.access(black_box(a), AccessKind::Read);
        }
        black_box(cache.stats().misses());
    });

    bench("branch_predictor_4k_loops", &mut || {
        let mut bp = BranchPredictor::new(12);
        for pc in 0..4096u64 {
            bp.predict_loop(black_box(pc * 4), 64);
        }
        black_box(bp.misses());
    });

    let mut rng = StdRng::seed_from_u64(1);
    let spec = Conv2dSpec::new(16, 16, 3, 1, 1);
    let x = init::normal(&mut rng, &[1, 16, 32, 32], 0.0, 1.0);
    let w = init::normal(&mut rng, &[16, 16 * 9], 0.0, 0.1);
    let bias = Tensor::zeros(&[16]);
    bench("conv2d_16x16_32x32", &mut || {
        black_box(conv2d(black_box(&x), &w, &bias, &spec));
    });

    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<f64> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                rng.gen_range(-1.0..1.0)
            } else {
                10.0 + rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    bench("gmm1d_fit_k2_200pts", &mut || {
        let mut r = StdRng::seed_from_u64(3);
        black_box(Gmm1d::fit(black_box(&data), 2, &EmConfig::default(), &mut r).unwrap());
    });

    let mut rng = StdRng::seed_from_u64(4);
    let model = ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("case-study spec compiles");
    let engine = TraceEngine::new(&model);
    let img = init::uniform(&mut rng, &[3, 32, 32], 0.0, 1.0);
    bench("trace_inference_case_study_cnn", &mut || {
        black_box(engine.true_counts(&model, black_box(&img)));
    });
    let kernels = advhunter_exec::tuned_kernels(&model, None);
    let mut ws = model.workspace(1);
    bench("plain_forward_case_study_cnn", &mut || {
        model.forward_with_kernels(black_box(&img), Mode::Eval, &mut ws, &kernels);
        black_box(&ws);
    });

    row(
        "detector_score_all_events",
        &time(budget, score_all_bench()),
    );

    // Trace-replay patterns on a raw counter group, each from a reset
    // machine: an fc1-style cold weight stream (16384 lines, 1 MiB), a
    // conv-style warm re-stream (1024 lines 16 times, mostly hits), and
    // scattered single loads like the activation probes.
    let mut g = CounterGroup::new(MachineConfig::default());
    bench("reset_machine", &mut || {
        g.reset_machine();
        black_box(&g);
    });
    let mut replay = |name: &str, pattern: &dyn Fn(&mut CounterGroup)| {
        bench(name, &mut || {
            g.reset_machine();
            g.enable();
            pattern(&mut g);
            g.disable();
            black_box(&g);
        });
    };
    replay("stream_read_16384_cold_lines", &|g| {
        g.stream_read(0x100000, 16384)
    });
    replay("stream_read_16x1024_warm_lines", &|g| {
        for _ in 0..16 {
            g.stream_read(0x100000, 1024);
        }
    });
    replay("load_2048_scattered_lines", &|g| {
        for i in 0..2048u64 {
            g.load(0x100000 + i * 64);
        }
    });
}

/// Online scoring of one probe against a detector fitted on a synthetic
/// ten-class template.
fn score_all_bench() -> impl FnMut() {
    let mut rng = StdRng::seed_from_u64(5);
    let per_class: Vec<Vec<HpcSample>> = (0..10)
        .map(|cl| {
            (0..60)
                .map(|_| {
                    let mut s = HpcSample::default();
                    s.set(
                        HpcEvent::CacheMisses,
                        10_000.0 + cl as f64 * 500.0 + rng.gen_range(-100.0..100.0),
                    );
                    s
                })
                .collect()
        })
        .collect();
    let template = OfflineTemplate::from_samples(per_class);
    let detector = Detector::fit(
        &template,
        &DetectorConfig::default(),
        &ExecOptions::seeded(6),
    )
    .unwrap();
    let mut probe = HpcSample::default();
    probe.set(HpcEvent::CacheMisses, 12_345.0);
    move || {
        black_box(detector.score_all(black_box(3), &probe));
    }
}
