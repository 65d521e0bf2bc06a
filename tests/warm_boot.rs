//! Warm boots load, they don't recompute: the data split and the clean
//! accuracy are generated on first read, so a warm pipeline run and a
//! monitor booted from a warm store touch no data, and a cold calibration
//! from a trained model never scores an accuracy.
//!
//! The checks read process-global histograms, so this file holds a single
//! test: no other test in the process can move the counts between reads.

use std::path::PathBuf;

use advhunter::persist::model_to_bytes;
use advhunter::scenario::ScenarioId;
use advhunter::{ArtifactStore, ExecOptions, Pipeline, PipelineConfig, Stage, StageOutcome};
use advhunter_data::{SplitDataset, SplitSizes};
use advhunter_monitor::MonitorBuilder;
use advhunter_nn::train::evaluate;

/// How many times the split was generated and the accuracy scored.
fn counts() -> (u64, u64) {
    let snapshot = advhunter_telemetry::global().snapshot();
    let count = |name| snapshot.histogram(name).map_or(0, |h| h.count);
    (
        count("advhunter_pipeline_split_ns"),
        count("advhunter_pipeline_clean_accuracy_ns"),
    )
}

fn scratch_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let root =
        std::env::temp_dir().join(format!("advhunter-warm-boot-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    (
        ArtifactStore::open(&root).expect("open scratch store"),
        root,
    )
}

fn assert_bit_identical(lazy: &SplitDataset, eager: &SplitDataset) {
    for (part, (l, e)) in [
        ("train", (&lazy.train, &eager.train)),
        ("val", (&lazy.val, &eager.val)),
        ("test", (&lazy.test, &eager.test)),
    ] {
        assert_eq!(l.labels(), e.labels(), "{part} labels");
        assert_eq!(l.len(), e.len(), "{part} length");
        for (i, (a, b)) in l.images().iter().zip(e.images()).enumerate() {
            assert_eq!(a.shape(), b.shape(), "{part} image {i} shape");
            let bits = |t: &advhunter_tensor::Tensor| -> Vec<u32> {
                t.data().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "{part} image {i}");
        }
    }
}

#[test]
fn warm_boots_touch_no_data_and_lazy_values_match_eager_ones() {
    let sizes = SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    };
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(sizes);
    let (store, root) = scratch_store("full");

    // Cold: training reads the split once; nothing scores accuracy.
    let before = counts();
    let (_, cold) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    assert_eq!(cold.recomputed(), 4);
    assert_eq!(counts(), (before.0 + 1, before.1), "cold run");

    // Warm: every stage loads; neither the split nor the accuracy moves.
    let warm_counts = counts();
    let (art, warm) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("warm run");
    assert!(warm.all_hits());
    let model_run = Pipeline::new(config.clone(), store.clone())
        .run_model()
        .expect("warm model run");
    assert!(model_run.report.outcome.is_hit());
    let monitor = MonitorBuilder::new(ExecOptions::seeded(7).with_threads(1))
        .spawn_from_store(config.clone(), store)
        .expect("monitor boot");
    monitor.shutdown();
    assert_eq!(counts(), warm_counts, "warm boots must not touch data");

    // Cold calibration from a store holding only the trained model: the
    // validation split is generated for CollectTemplate, accuracy is not.
    let (calib_store, calib_root) = scratch_store("calibrate");
    calib_store
        .save(
            Stage::TrainModel.artifact_kind(),
            config.fingerprint(Stage::TrainModel),
            &model_to_bytes(&art.model),
        )
        .expect("seed the trained model");
    let before = counts();
    let (calibrated, report) = Pipeline::new(config, calib_store)
        .run()
        .expect("cold calibration");
    assert!(report.stages[0].outcome.is_hit());
    assert!(report.stages[1..]
        .iter()
        .all(|s| s.outcome == StageOutcome::Miss));
    assert_eq!(counts(), (before.0 + 1, before.1), "cold calibration");
    assert_eq!(calibrated.detector, art.detector);

    // First reads generate and score, bit-identical to the eager path.
    let spec = ScenarioId::CaseStudy.spec();
    let family = ScenarioId::CaseStudy.dataset_family();
    let eager = family.generate(spec.input, spec.classes, spec.dataset_seed, &sizes);
    let eager_accuracy = evaluate(&art.model, eager.test.images(), eager.test.labels());
    let before = counts();
    assert_bit_identical(art.split(), &eager);
    assert_eq!(art.clean_accuracy().to_bits(), eager_accuracy.to_bits());
    assert_eq!(counts(), (before.0 + 1, before.1 + 1), "first reads");

    // Second reads return the kept values without regenerating.
    assert_bit_identical(art.split(), &eager);
    assert_eq!(art.clean_accuracy().to_bits(), eager_accuracy.to_bits());
    assert_eq!(counts(), (before.0 + 1, before.1 + 1), "second reads");

    // `ModelRun` reads through the same lazy type to the same values.
    assert_bit_identical(model_run.split(), &eager);
    assert_eq!(
        model_run.clean_accuracy().to_bits(),
        eager_accuracy.to_bits()
    );
    assert_eq!(counts(), (before.0 + 2, before.1 + 2), "model-run reads");

    std::fs::remove_dir_all(root).ok();
    std::fs::remove_dir_all(calib_root).ok();
}
