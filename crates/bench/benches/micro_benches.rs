//! Criterion micro-benchmarks for the substrates: cache-simulator
//! throughput, branch prediction, convolution, GMM fitting, instrumented
//! inference, and online detector scoring.

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, ScenarioId};
use advhunter_exec::TraceEngine;
use advhunter_gmm::{EmConfig, Gmm1d};
use advhunter_nn::Mode;
use advhunter_tensor::ops::{conv2d, Conv2dSpec};
use advhunter_tensor::{init, Tensor};
use advhunter_uarch::{AccessKind, BranchPredictor, Cache, CacheConfig, HpcEvent, HpcSample};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_cache_access(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let addrs: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..4_000_000u64)).collect();
    c.bench_function("cache_8k_random_accesses", |b| {
        b.iter(|| {
            let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8));
            for &a in &addrs {
                cache.access(black_box(a), AccessKind::Read);
            }
            black_box(cache.stats().misses())
        })
    });
}

fn bench_branch_predictor(c: &mut Criterion) {
    c.bench_function("branch_predictor_4k_loops", |b| {
        b.iter(|| {
            let mut bp = BranchPredictor::new(12);
            for pc in 0..4096u64 {
                bp.predict_loop(black_box(pc * 4), 64);
            }
            black_box(bp.misses())
        })
    });
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let spec = Conv2dSpec::new(16, 16, 3, 1, 1);
    let x = init::normal(&mut rng, &[1, 16, 32, 32], 0.0, 1.0);
    let w = init::normal(&mut rng, &[16, 16 * 9], 0.0, 0.1);
    let bias = Tensor::zeros(&[16]);
    c.bench_function("conv2d_16x16_32x32", |b| {
        b.iter(|| black_box(conv2d(black_box(&x), &w, &bias, &spec)))
    });
}

fn bench_gmm_fit(c: &mut Criterion) {
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
    c.bench_function("gmm1d_fit_k2_200pts", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(3);
            black_box(Gmm1d::fit(black_box(&data), 2, &EmConfig::default(), &mut r).unwrap())
        })
    });
}

fn bench_instrumented_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let model = ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("case-study spec compiles");
    let engine = TraceEngine::new(&model);
    let img = init::uniform(&mut rng, &[3, 32, 32], 0.0, 1.0);
    c.bench_function("trace_inference_case_study_cnn", |b| {
        b.iter(|| black_box(engine.true_counts(&model, black_box(&img))))
    });
    let batch = Tensor::stack(std::slice::from_ref(&img));
    c.bench_function("plain_forward_case_study_cnn", |b| {
        b.iter(|| black_box(model.forward(black_box(&batch), Mode::Eval)))
    });
}

fn bench_detector_scoring(c: &mut Criterion) {
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
    c.bench_function("detector_score_all_events", |b| {
        b.iter(|| black_box(detector.score_all(black_box(3), &probe)))
    });
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_branch_predictor,
    bench_conv2d,
    bench_gmm_fit,
    bench_instrumented_inference,
    bench_detector_scoring
);
criterion_main!(benches);
