//! The staged offline pipeline and its content-addressed artifact store:
//! fingerprints are golden (stable across runs and thread counts, and
//! every knob re-addresses exactly its downstream stages), cached bytes
//! are bit-identical to freshly computed ones, corruption is healed by
//! recomputation, and a warm run is an order of magnitude faster than a
//! cold one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use advhunter::persist::{detector_to_bytes, model_to_bytes, template_to_bytes};
use advhunter::scenario::ScenarioId;
use advhunter::{
    ArtifactStore, Parallelism, Pipeline, PipelineArtifacts, PipelineConfig, PipelineReport, Stage,
    StageOutcome,
};
use advhunter_data::SplitSizes;

/// A fresh, unique store root under the system temp dir.
fn scratch_store() -> (ArtifactStore, PathBuf) {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "advhunter-pipeline-test-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let store = ArtifactStore::open(&root).expect("open scratch store");
    (store, root)
}

fn tiny_config() -> PipelineConfig {
    PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    })
}

/// Serialized payload bytes of every artifact a run produced.
fn artifact_bytes(art: &PipelineArtifacts) -> [Vec<u8>; 3] {
    [
        model_to_bytes(&art.model),
        template_to_bytes(&art.template),
        detector_to_bytes(&art.detector),
    ]
}

/// On-disk store file for each stage of `config`.
fn stage_files(store: &ArtifactStore, config: &PipelineConfig) -> Vec<PathBuf> {
    Stage::ALL
        .iter()
        .map(|&s| store.path_for(s.artifact_kind(), config.fingerprint(s)))
        .collect()
}

#[test]
fn golden_fingerprints_pin_the_addressing_scheme() {
    // These literals pin the fingerprint recipe: any change to the hash
    // function, the field order, or the canonical seeds re-addresses every
    // stored artifact and must be deliberate (bump the domain-tag version
    // and update these values).
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy);
    let got: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| config.fingerprint(s).to_string())
        .collect();
    let expected = [
        "9990407ccef04e52",
        "9970edffc4a23da1",
        "4cc87e0150697026",
        "2e674c5ad8b784ef",
    ];
    assert_eq!(got, expected, "fingerprint recipe changed");
}

#[test]
fn each_knob_re_addresses_exactly_its_downstream_stages() {
    let base = tiny_config();
    let fps = |c: &PipelineConfig| Stage::ALL.map(|s| c.fingerprint(s));
    let base_fps = fps(&base);

    // Upstream training knobs re-address everything.
    for variant in [
        base.clone().with_train_seed(123),
        base.clone().with_sizes(SplitSizes {
            train: 31,
            val: 40,
            test: 10,
        }),
    ] {
        let v = fps(&variant);
        for i in 0..4 {
            assert_ne!(base_fps[i], v[i], "stage {} must be re-addressed", i);
        }
    }

    // Measurement knobs leave the trained model alone.
    for variant in [
        base.clone().with_seed(99),
        base.clone().with_repeats(3),
        base.clone().with_per_class_cap(Some(5)),
    ] {
        let v = fps(&variant);
        assert_eq!(base_fps[0], v[0], "TrainModel must keep its address");
        for i in 1..4 {
            assert_ne!(base_fps[i], v[i], "stage {} must be re-addressed", i);
        }
    }

    // The sigma factor affects only threshold calibration.
    let mut detector = base.detector.clone();
    detector.sigma_factor = 2.5;
    let v = fps(&base.with_detector(detector));
    assert_eq!(base_fps[..3], v[..3], "sigma must not touch fit or earlier");
    assert_ne!(base_fps[3], v[3], "sigma must re-address Calibrate");
}

#[test]
fn defense_knobs_never_invalidate_offline_artifacts() {
    // The online defense (query fingerprinting) is configured on the same
    // PipelineConfig but is deliberately outside every offline stage's
    // input closure: flipping any defense knob must leave all four golden
    // addresses — and therefore every cached artifact — untouched.
    let base = tiny_config();
    let base_fps = Stage::ALL.map(|s| base.fingerprint(s));

    let tuned = advhunter::FingerprintConfig {
        window: 512,
        probes: 64,
        salt: 0xDEAD_BEEF,
        ..Default::default()
    };
    for variant in [
        base.clone()
            .with_defense(advhunter::FingerprintConfig::default()),
        base.clone().with_defense(tuned),
    ] {
        assert_eq!(
            base_fps,
            Stage::ALL.map(|s| variant.fingerprint(s)),
            "defense knobs must not re-address offline stages"
        );
    }

    // The defense itself *is* addressed — under its own sibling
    // fingerprint, so deployments can tell defense configurations apart
    // without churning the offline cache.
    let a = base.defense_fingerprint();
    let b = base
        .clone()
        .with_defense(advhunter::FingerprintConfig::default())
        .defense_fingerprint();
    let c = base.with_defense(tuned).defense_fingerprint();
    assert_ne!(a, b, "enabling the defense must change its address");
    assert_ne!(b, c, "each defense knob must change the defense address");
}

#[test]
fn cold_warm_forced_and_rebuilt_artifacts_are_bit_identical() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let run = |force: bool| -> (PipelineArtifacts, PipelineReport) {
        Pipeline::new(config.clone(), store.clone())
            .force(force)
            .run()
            .expect("pipeline run")
    };

    // Cold: every stage computes and stores.
    let (cold_art, cold_report) = run(false);
    assert!(
        cold_report
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Miss),
        "cold run must miss everywhere, got {:?}",
        cold_report
    );
    let cold_bytes = artifact_bytes(&cold_art);
    let files = stage_files(&store, &config);
    let cold_files: Vec<Vec<u8>> = files
        .iter()
        .map(|p| std::fs::read(p).expect("stage artifact on disk"))
        .collect();

    // Warm: pure cache hits, identical artifacts.
    let (warm_art, warm_report) = run(false);
    assert!(warm_report.all_hits(), "warm run must hit everywhere");
    assert_eq!(cold_bytes, artifact_bytes(&warm_art));

    // Forced: recomputes everything, rewrites the same bytes.
    let (forced_art, forced_report) = run(true);
    assert!(
        forced_report
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Forced),
        "forced run must recompute everywhere"
    );
    assert_eq!(cold_bytes, artifact_bytes(&forced_art));
    for (path, before) in files.iter().zip(&cold_files) {
        assert_eq!(
            &std::fs::read(path).expect("stage artifact on disk"),
            before,
            "forced rewrite must be bit-identical"
        );
    }

    // Corruption: flip one payload byte of the calibrated detector and
    // truncate the template. Both stages must evict and recompute, the
    // pipeline must return the original artifacts, and the store must be
    // healed to the original bytes.
    let calibrate_file = &files[3];
    let mut corrupt = cold_files[3].clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    std::fs::write(calibrate_file, &corrupt).unwrap();
    let template_file = &files[1];
    std::fs::write(template_file, &cold_files[1][..10]).unwrap();

    let (healed_art, healed_report) = run(false);
    let outcomes: Vec<StageOutcome> = healed_report.stages.iter().map(|s| s.outcome).collect();
    assert_eq!(
        outcomes,
        vec![
            StageOutcome::Hit,
            StageOutcome::Rebuilt,
            StageOutcome::Hit,
            StageOutcome::Rebuilt
        ],
        "corrupt stages rebuild, intact stages keep hitting"
    );
    assert_eq!(cold_bytes, artifact_bytes(&healed_art));
    for (path, before) in files.iter().zip(&cold_files) {
        assert_eq!(
            &std::fs::read(path).expect("stage artifact on disk"),
            before,
            "store must be healed to the original bytes"
        );
    }

    std::fs::remove_dir_all(root).ok();
}

#[test]
fn artifacts_are_bit_identical_across_thread_counts() {
    let config = tiny_config();
    let mut baseline: Option<[Vec<u8>; 3]> = None;
    for threads in [1usize, 2, 4] {
        // A fresh store per thread count: every run is cold, so the bytes
        // compared are genuinely recomputed, not replayed from a cache.
        let (store, root) = scratch_store();
        let (art, report) = Pipeline::new(config.clone(), store)
            .with_parallelism(Parallelism::new(threads))
            .run()
            .expect("pipeline run");
        assert_eq!(report.recomputed(), 4);
        let bytes = artifact_bytes(&art);
        match &baseline {
            None => baseline = Some(bytes),
            Some(expected) => assert_eq!(
                expected, &bytes,
                "artifacts must be bit-identical at {threads} threads"
            ),
        }
        std::fs::remove_dir_all(root).ok();
    }
}

/// Filename → file bytes of every autotune verdict in the store, sorted.
fn tune_artifacts(store: &ArtifactStore) -> Vec<(String, Vec<u8>)> {
    let dir = store.root().join("tune");
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("tune dir exists")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn tune_verdicts_are_cached_and_byte_stable() {
    // The autotuner's decision table is content-addressed like every other
    // artifact: a cold run populates it, and warm + forced runs (at any
    // thread count) leave every byte untouched. Verdict files are
    // per-geometry and keyed outside the offline stage closures, so the
    // four stage fingerprints never move when tuning state changes.
    //
    // Every arm starts from one shared trained model (weights only, no
    // tune table), so its "cold" run still tunes from scratch but skips
    // retraining; the forced run retrains at the arm's thread count.
    let config = tiny_config();
    let weights = {
        let (store, root) = scratch_store();
        let run = Pipeline::new(config.clone(), store)
            .run_model()
            .expect("train the shared model");
        std::fs::remove_dir_all(root).ok();
        model_to_bytes(&run.model)
    };
    let mut baseline: Option<Vec<(String, Vec<u8>)>> = None;
    for threads in [1usize, 2, 4] {
        let (store, root) = scratch_store();
        store
            .save(
                Stage::TrainModel.artifact_kind(),
                config.fingerprint(Stage::TrainModel),
                &weights,
            )
            .expect("seed the trained model");
        assert!(tune_artifacts(&store).is_empty(), "seed holds no verdicts");
        let run = |force: bool| {
            Pipeline::new(config.clone(), store.clone())
                .with_parallelism(Parallelism::new(threads))
                .force(force)
                .run()
                .expect("pipeline run")
        };

        run(false);
        let cold = tune_artifacts(&store);
        assert!(
            !cold.is_empty(),
            "a cold run must persist autotune verdicts"
        );
        for (name, bytes) in &cold {
            // AHS1 envelope (29 bytes) + 1-byte kernel-variant tag.
            assert_eq!(bytes.len(), 30, "{name}: tune payload is one tag byte");
        }

        run(false);
        assert_eq!(cold, tune_artifacts(&store), "warm run changed verdicts");
        run(true);
        assert_eq!(cold, tune_artifacts(&store), "forced run changed verdicts");

        // Tuning state must never re-address the offline stages.
        for path in stage_files(&store, &config) {
            assert!(path.exists(), "offline artifact missing: {path:?}");
        }

        match &baseline {
            None => baseline = Some(cold),
            Some(expected) => assert_eq!(
                expected, &cold,
                "tune artifacts must be byte-identical at {threads} threads"
            ),
        }
        std::fs::remove_dir_all(root).ok();
    }
}

#[test]
fn warm_run_is_an_order_of_magnitude_faster_than_cold() {
    let (store, root) = scratch_store();
    let config = tiny_config();

    let t0 = std::time::Instant::now();
    let (_, cold) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    let cold_time = t0.elapsed();
    assert_eq!(cold.recomputed(), 4);

    let t1 = std::time::Instant::now();
    let (_, warm) = Pipeline::new(config, store).run().expect("warm run");
    let warm_time = t1.elapsed();
    assert!(warm.all_hits());

    assert!(
        warm_time * 10 <= cold_time,
        "warm run must be >= 10x faster: cold {:?}, warm {:?}",
        cold_time,
        warm_time
    );
    std::fs::remove_dir_all(root).ok();
}
