//! Hot-swap, drift-driven recalibration, and graceful-drain guarantees:
//! detector replacement under load never drops a request, every verdict
//! is stamped with the epoch it was scored under, a firing drift test
//! pulls a recalibrated detector from the source at the exact next
//! request, and the store watcher picks up externally deployed
//! detectors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use advhunter::scenario::ScenarioId;
use advhunter::{
    ArtifactStore, Detector, DetectorConfig, ExecOptions, OfflineTemplate, Pipeline, PipelineConfig,
};
use advhunter_data::SplitSizes;
use advhunter_exec::TraceEngine;
use advhunter_monitor::{
    DetectorSource, DriftConfig, DriftObservation, MonitorBuilder, MonitorRequest,
};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded tiny-CNN fixture (same recipe as the service tests). The
/// detector's thresholds are lifted by `threshold_lift` so tests can
/// force every verdict to be unflagged (the drift tracker only ingests
/// clean verdicts).
fn fixture(threshold_lift: f64) -> (Graph, TraceEngine, Detector, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new(&[1, 6, 6]);
    let input = b.input();
    let c = b.conv2d("c", input, 4, 3, 1, 1, &mut rng);
    let r = b.relu("r", c);
    let g = b.global_avgpool("g", r);
    b.linear("fc", g, 2, &mut rng);
    let model = b.build();
    let engine = TraceEngine::new(&model);

    let mut images = Vec::new();
    for _ in 0..40 {
        images.push(init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0));
    }
    let opts = ExecOptions::sequential(7);
    let measurements = engine.measure_batch(&model, &images, opts.seed, &opts.parallelism);
    let mut per_class = vec![Vec::new(); 2];
    for (i, m) in measurements.iter().enumerate() {
        per_class[i % 2].push(m.sample);
    }
    let template = OfflineTemplate::from_samples(per_class);
    let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1))
        .unwrap()
        .shifted(threshold_lift);

    let mut stream = Vec::new();
    for _ in 0..18 {
        stream.push(init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0));
    }
    (model, engine, detector, stream)
}

/// An external swap lands at a micro-batch boundary, every verdict is
/// stamped with the epoch that scored it, and nothing is dropped.
#[test]
fn swap_under_load_drops_nothing_and_stamps_epochs() {
    let (model, engine, detector, stream) = fixture(0.0);
    let replacement = detector.shifted(1000.0);
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(2))
        .queue_capacity(stream.len())
        .micro_batch(3)
        .spawn(engine, model, detector)
        .unwrap();

    // First half under epoch 0.
    let half = stream.len() / 2;
    for image in &stream[..half] {
        monitor.submit(image.clone()).unwrap();
    }
    let mut first = Vec::new();
    for _ in 0..half {
        first.push(monitor.recv().unwrap());
    }
    // Swap while the queue is briefly empty, then load the second half.
    assert_eq!(monitor.swap_detector(replacement), 1);
    assert_eq!(monitor.config_epoch(), 1);
    for image in &stream[half..] {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    let mut second = Vec::new();
    while let Some(v) = monitor.recv() {
        second.push(v);
    }

    assert_eq!(
        first.len() + second.len(),
        stream.len(),
        "no request dropped"
    );
    for v in &first {
        assert_eq!(v.config_epoch, 0, "pre-swap verdict stamped wrong epoch");
    }
    for v in &second {
        assert_eq!(v.config_epoch, 1, "post-swap verdict stamped wrong epoch");
        // The replacement's thresholds sit 1000 NLL higher: nothing the
        // swapped-in detector scores can flag.
        assert!(
            !v.flagged,
            "post-swap verdict flagged despite lifted thresholds"
        );
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.completed, stream.len() as u64);
    assert_eq!(stats.detector_swaps, 1);
    assert_eq!(stats.config_epoch, 1);
    assert_eq!(stats.drift_events, 0);
    assert_eq!(stats.shed, 0);
}

/// A [`DetectorSource`] stub that counts recalibration calls and serves
/// a canned replacement.
struct StubSource {
    replacement: Mutex<Option<Detector>>,
    recalibrations: AtomicU64,
    last_shift: Mutex<Option<f64>>,
}

impl DetectorSource for StubSource {
    fn recalibrate(&self, observation: &DriftObservation) -> Option<Detector> {
        self.recalibrations.fetch_add(1, Ordering::SeqCst);
        *self.last_shift.lock().unwrap() = Some(observation.shift());
        self.replacement.lock().unwrap().take()
    }
}

/// A miscalibrated deploy gets caught and corrected by the drift test:
/// swapping in a detector fit on a degenerate template (variance at the
/// floor) makes every clean NLL jump far above the baseline, the CUSUM
/// fires, recalibration pulls a replacement from the source, and the
/// corrected detector is hot-swapped at the exact next request — all
/// mid-stream, with zero dropped requests.
#[test]
fn drift_firing_recalibrates_and_swaps() {
    // Thresholds lifted far above any NLL: every verdict stays clean, so
    // each one feeds the drift tracker.
    let (model, engine, detector, _) = fixture(1.0e18);
    // The bad deploy: a detector fit on four copies of a single sample
    // per class. Its variances sit on the EM floor, so genuine
    // measurement noise scores astronomically high NLLs.
    let opts = ExecOptions::sequential(7);
    let mut rng = StdRng::seed_from_u64(5);
    let probes: Vec<Tensor> = (0..2)
        .map(|_| init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0))
        .collect();
    let samples = engine.measure_batch(&model, &probes, opts.seed, &opts.parallelism);
    let degenerate =
        OfflineTemplate::from_samples(vec![vec![samples[0].sample; 4], vec![samples[1].sample; 4]]);
    let miscalibrated = Detector::fit(&degenerate, &DetectorConfig::default(), &opts.stage(1))
        .unwrap()
        .shifted(1.0e18);
    // What recalibration restores: the well-fit detector again.
    let replacement = detector.clone();
    let source = Arc::new(StubSource {
        replacement: Mutex::new(Some(replacement)),
        recalibrations: AtomicU64::new(0),
        last_shift: Mutex::new(None),
    });
    let drift = DriftConfig {
        window: 8,
        slack: 0.25,
        threshold: 4.0,
    };
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(2))
        .queue_capacity(64)
        .micro_batch(4)
        .drift(drift)
        .detector_source(Arc::clone(&source) as Arc<dyn DetectorSource>)
        .spawn(engine, model, detector)
        .unwrap();

    // Baseline traffic under the good detector fills the drift window.
    let mut rng = StdRng::seed_from_u64(99);
    let total = 8 + 24;
    for _ in 0..8 {
        let image: Tensor = init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0);
        monitor.submit(image).unwrap();
    }
    for v in (0..8).map(|_| monitor.recv().unwrap()) {
        assert_eq!(v.config_epoch, 0);
        assert!(!v.flagged);
    }
    // The bad deploy lands (epoch 1), then traffic continues.
    assert_eq!(monitor.swap_detector(miscalibrated), 1);
    for _ in 0..24 {
        let image: Tensor = init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0);
        monitor.submit(image).unwrap();
    }
    monitor.close();
    let mut verdicts = Vec::new();
    while let Some(v) = monitor.recv() {
        verdicts.push(v);
    }
    assert_eq!(
        verdicts.len(),
        total - 8,
        "no request dropped across the swaps"
    );

    let stats = monitor.shutdown();
    assert!(
        stats.drift_events >= 1,
        "the NLL explosion never fired the CUSUM"
    );
    assert_eq!(
        source.recalibrations.load(Ordering::SeqCst),
        stats.drift_events
    );
    assert_eq!(
        stats.detector_swaps, 2,
        "the bad deploy plus the drift correction"
    );
    assert_eq!(stats.config_epoch, 2);
    assert!(
        source.last_shift.lock().unwrap().unwrap() > 0.0,
        "the observed shift must be upward"
    );
    // Epochs are monotone along the stream: a (possibly empty) prefix
    // scored under the bad deploy, then the corrected detector from the
    // exact request after the firing (drift swaps do not wait for a
    // batch boundary).
    let flip = verdicts
        .iter()
        .position(|v| v.config_epoch == 2)
        .expect("the corrected detector scored some suffix");
    assert!(
        flip >= 1,
        "the firing sample itself is scored under the bad deploy"
    );
    for (i, v) in verdicts.iter().enumerate() {
        assert_eq!(v.config_epoch, if i >= flip { 2 } else { 1 });
    }
}

/// Graceful shutdown drains the queue: requests still queued at `close`
/// are measured, scored, delivered, and counted as `drained` — never
/// silently dropped.
#[test]
fn close_drains_queued_requests_without_drops() {
    let (model, engine, detector, stream) = fixture(0.0);
    let monitor = MonitorBuilder::new(ExecOptions::sequential(5))
        .queue_capacity(8)
        .micro_batch(3)
        .spawn(engine, model, detector)
        .unwrap();
    // Hold the worker so all six requests are still queued at close.
    monitor.pause();
    for image in stream.iter().take(6) {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    monitor.resume();
    let mut ids = Vec::new();
    while let Some(v) = monitor.recv() {
        ids.push(v.request_id);
    }
    assert_eq!(
        ids,
        vec![0, 1, 2, 3, 4, 5],
        "every queued request delivered"
    );
    let stats = monitor.shutdown();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.drained, 6, "the backlog at close is accounted for");
    assert_eq!(stats.shed, 0);
}

/// The store watcher: an externally deployed detector (same pipeline
/// fingerprint, new payload) is hot-swapped in without restarting the
/// service, and later verdicts carry the bumped epoch.
#[test]
fn store_watcher_swaps_externally_deployed_detector() {
    let root = std::env::temp_dir().join(format!(
        "advhunter-hotswap-test-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let store = ArtifactStore::open(&root).expect("open scratch store");
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    });
    // Warm the store and keep a copy of the calibrated detector.
    let (art, _) = Pipeline::new(config.clone(), store.clone()).run().unwrap();
    let deployed = art.detector.shifted(123.0);

    let monitor = MonitorBuilder::new(ExecOptions::seeded(7).with_threads(2))
        .queue_capacity(16)
        .micro_batch(4)
        .watch_store(Duration::from_millis(10))
        .spawn_from_store(config.clone(), store.clone())
        .unwrap();
    assert_eq!(monitor.config_epoch(), 0);

    // "advhunter deploy": rewrite the Calibrate artifact the watcher is
    // polling.
    Pipeline::new(config, store)
        .deploy_detector(&deployed)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while monitor.config_epoch() == 0 {
        assert!(
            Instant::now() < deadline,
            "watcher never picked up the deploy"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(monitor.config_epoch(), 1);

    // A request scored after the swap carries the new epoch.
    let image = art.split().test.images()[0].clone();
    monitor
        .submit(MonitorRequest::new(image).request_id(1))
        .unwrap();
    let verdict = monitor.recv().unwrap();
    assert_eq!(verdict.config_epoch, 1);
    assert_eq!(verdict.correlation_id, Some(1));
    let stats = monitor.shutdown();
    assert_eq!(stats.detector_swaps, 1);
    assert_eq!(stats.completed, 1);
    let _ = std::fs::remove_dir_all(&root);
}
