//! The unified, `ExecOptions`-driven entry points (`collect_template`,
//! `Detector::fit`, `measure_dataset`, `measure_examples`) are
//! thread-count invariant: the sequential path and the worker-pool path
//! at 2 and 4 threads produce bit-identical results. This is exactly the
//! guarantee the retired seq/`_par` API split used to encode in two
//! function names — now it is one function and a property test.

use advhunter::experiment::{measure_dataset, measure_examples};
use advhunter::offline::collect_template;
use advhunter::scenario::{build_scenario, ScenarioArtifacts, ScenarioId};
use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, Verdict};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_data::SplitSizes;
use advhunter_monitor::{
    FingerprintConfig, FusionPolicy, MonitorBuilder, MonitorRequest, OverloadPolicy,
};
use advhunter_uarch::{HpcEvent, HpcSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sequential baseline plus the pool sizes the results must agree across.
const THREAD_COUNTS: [usize; 2] = [2, 4];

fn tiny_scenario() -> ScenarioArtifacts {
    let sizes = SplitSizes {
        train: 12,
        val: 10,
        test: 8,
    };
    build_scenario(ScenarioId::CaseStudy, Some(sizes))
}

fn synthetic_template() -> OfflineTemplate {
    let mut rng = StdRng::seed_from_u64(11);
    let per_class: Vec<Vec<HpcSample>> = (0..4)
        .map(|c| {
            (0..40)
                .map(|_| {
                    let mut s = HpcSample::default();
                    for (slot, event) in HpcEvent::ALL.into_iter().enumerate() {
                        s.set(
                            event,
                            5_000.0 * (c + 1) as f64
                                + 250.0 * slot as f64
                                + rng.gen_range(-60.0..60.0),
                        );
                    }
                    s
                })
                .collect()
        })
        .collect();
    OfflineTemplate::from_samples(per_class)
}

#[test]
fn collect_template_matches_sequential_at_any_thread_count() {
    let art = tiny_scenario();
    let baseline = collect_template(
        &art.engine,
        &art.model,
        &art.split().val,
        None,
        &ExecOptions::sequential(41),
    );
    for threads in THREAD_COUNTS {
        let pooled = collect_template(
            &art.engine,
            &art.model,
            &art.split().val,
            None,
            &ExecOptions::seeded(41).with_threads(threads),
        );
        assert_eq!(
            baseline, pooled,
            "collect_template diverged at {threads} threads"
        );
    }
}

#[test]
fn detector_fit_matches_sequential_at_any_thread_count() {
    let template = synthetic_template();
    let config = DetectorConfig::default();
    let baseline = Detector::fit(&template, &config, &ExecOptions::sequential(42)).unwrap();
    for threads in THREAD_COUNTS {
        let pooled = Detector::fit(
            &template,
            &config,
            &ExecOptions::seeded(42).with_threads(threads),
        )
        .unwrap();
        // Detector equality covers every GMM parameter and threshold.
        assert_eq!(
            baseline, pooled,
            "Detector::fit diverged at {threads} threads"
        );
    }
}

#[test]
fn measure_dataset_matches_sequential_at_any_thread_count() {
    let art = tiny_scenario();
    let baseline = measure_dataset(
        &art,
        &art.split().test,
        Some(3),
        &ExecOptions::sequential(43),
    );
    assert!(!baseline.is_empty());
    for threads in THREAD_COUNTS {
        let pooled = measure_dataset(
            &art,
            &art.split().test,
            Some(3),
            &ExecOptions::seeded(43).with_threads(threads),
        );
        assert_eq!(
            baseline, pooled,
            "measure_dataset diverged at {threads} threads"
        );
    }
}

#[test]
fn measure_examples_matches_sequential_at_any_thread_count() {
    let art = tiny_scenario();
    let mut rng = StdRng::seed_from_u64(0xEA);
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Untargeted,
        Some(6),
        &mut rng,
    );
    assert!(!report.examples.is_empty(), "attack produced no examples");
    let baseline = measure_examples(&art, &report.examples, &ExecOptions::sequential(44));
    for threads in THREAD_COUNTS {
        let pooled = measure_examples(
            &art,
            &report.examples,
            &ExecOptions::seeded(44).with_threads(threads),
        );
        assert_eq!(
            baseline, pooled,
            "measure_examples diverged at {threads} threads"
        );
    }
}

/// The deterministic slice of one fused verdict.
type FusedOutcome = (u64, u64, Verdict, bool, bool, bool);

/// A fingerprint stage tuned to the tiny scenario's images.
fn fused_fp_config() -> FingerprintConfig {
    let mut fp = FingerprintConfig::default().with_window(16);
    fp.probe_window = 8;
    fp.stride = 2;
    fp
}

/// The deterministic multi-tenant query stream every fused run replays:
/// each test image is submitted twice (so the fingerprint stage has real
/// matches to make), alternating between two tenants.
fn fused_stream(art: &ScenarioArtifacts) -> Vec<(u64, advhunter_tensor::Tensor)> {
    let mut stream = Vec::new();
    for (i, image) in art.split().test.images().iter().enumerate() {
        let tenant = (i % 2) as u64;
        stream.push((tenant, image.clone()));
        stream.push((tenant, image.clone()));
    }
    stream
}

/// Runs the fused monitor over the canonical stream and returns every
/// deterministic field of every verdict, in admission order.
fn run_fused(threads: usize, overload: OverloadPolicy, trickle: bool) -> Vec<FusedOutcome> {
    let art = tiny_scenario();
    // Group validation measurements by *true* label (the tiny model may
    // never predict some classes, which would leave prediction-grouped
    // template categories empty).
    let opts = ExecOptions::sequential(41);
    let measurements = art.engine.measure_batch(
        &art.model,
        art.split().val.images(),
        opts.seed,
        &opts.parallelism,
    );
    let labels = art.split().val.labels();
    let num_classes = labels.iter().max().copied().unwrap_or(0) + 1;
    let mut per_class = vec![Vec::new(); num_classes];
    for (m, &label) in measurements.iter().zip(labels) {
        per_class[label].push(m.sample);
    }
    let template = OfflineTemplate::from_samples(per_class);
    let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1)).unwrap();
    let stream = fused_stream(&art);
    let monitor = MonitorBuilder::new(ExecOptions::seeded(46).with_threads(threads))
        .queue_capacity(stream.len().max(1))
        .micro_batch(3)
        .overload(overload)
        .fingerprint(fused_fp_config())
        .fusion(FusionPolicy::Or)
        .spawn(art.engine, art.model, detector)
        .unwrap();
    let mut out = Vec::new();
    for (tenant, image) in stream {
        monitor
            .submit(MonitorRequest::new(image).tenant(tenant))
            .unwrap();
        if trickle {
            // Consume each verdict before the next submission — the
            // maximally different arrival pattern.
            let v = monitor.recv().unwrap();
            out.push((
                v.request_id,
                v.tenant,
                v.verdict,
                v.hpc_anomalous,
                v.query_correlated,
                v.flagged,
            ));
        }
    }
    monitor.close();
    while let Some(v) = monitor.recv() {
        out.push((
            v.request_id,
            v.tenant,
            v.verdict,
            v.hpc_anomalous,
            v.query_correlated,
            v.flagged,
        ));
    }
    out
}

#[test]
fn fused_verdicts_match_sequential_at_any_thread_count() {
    let baseline = run_fused(1, OverloadPolicy::Block, false);
    assert!(
        baseline
            .iter()
            .any(|(_, _, _, _, correlated, _)| *correlated),
        "the duplicated stream must trip query correlation somewhere"
    );
    for threads in THREAD_COUNTS {
        let pooled = run_fused(threads, OverloadPolicy::Block, false);
        assert_eq!(
            baseline, pooled,
            "fused verdicts diverged at {threads} threads"
        );
    }
}

#[test]
fn fused_verdicts_are_invariant_to_overload_policy_and_arrival() {
    let baseline = run_fused(2, OverloadPolicy::Block, false);
    // Same admissions under the shed policy (the queue is sized to never
    // actually shed) and under a one-by-one trickle: identical verdicts.
    assert_eq!(
        baseline,
        run_fused(2, OverloadPolicy::Shed, false),
        "overload policy changed fused verdicts"
    );
    assert_eq!(
        baseline,
        run_fused(2, OverloadPolicy::Shed, true),
        "arrival batching changed fused verdicts"
    );
}

#[test]
fn stage_seeds_are_independent() {
    // Two stages of the same ExecOptions must not share a noise stream:
    // measuring the same dataset under stage(0) and stage(1) yields
    // different samples, while repeating a stage reproduces it exactly.
    let art = tiny_scenario();
    let opts = ExecOptions::seeded(45);
    let a = measure_dataset(&art, &art.split().test, Some(2), &opts.stage(0));
    let b = measure_dataset(&art, &art.split().test, Some(2), &opts.stage(0));
    let c = measure_dataset(&art, &art.split().test, Some(2), &opts.stage(1));
    assert_eq!(a, b, "same stage must reproduce bit-identically");
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.sample != y.sample),
        "different stages must draw different measurement noise"
    );
}
