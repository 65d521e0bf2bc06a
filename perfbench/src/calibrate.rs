//! Cold calibration (CollectTemplate → FitDetector → Calibrate from a
//! trained model) and the in-process held-out evaluation of the
//! `calibrate_s3_cold` workload.

use std::time::Instant;

use advhunter::pipeline::PipelineArtifacts;
use advhunter::{ArtifactStore, Pipeline, PipelineConfig, StageOutcome, Verdict};
use advhunter_runtime::{derive_seed, parallel_map_with, Parallelism};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::prep::{self, Query, Reference};
use crate::serve::RECOMPUTE_SAMPLE;

/// Runs the offline pipeline on a fresh store that holds only the trained
/// model and tune table, returning the store, the wall time in seconds and
/// whether the calibrated detector is byte-identical to `reference`.
pub fn cold_calibration(
    config: &PipelineConfig,
    reference: &[u8],
    tag: &str,
) -> Result<(ArtifactStore, f64, bool), String> {
    let store = prep::fresh_store(tag)?;
    let t0 = Instant::now();
    let (_, report) = Pipeline::new(config.clone(), store.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let cold = report.stages[0].outcome.is_hit()
        && report.stages[1..]
            .iter()
            .all(|s| s.outcome == StageOutcome::Miss);
    if !cold {
        return Err(format!("calibration was not cold: {report:?}"));
    }
    let bytes = prep::calibrated_detector(&store, config)?;
    Ok((store, secs, bytes == reference))
}

/// Boots the evaluator from a calibrated store: the warm pipeline load
/// (model, template, detector) and the engine build.
pub fn boot(config: &PipelineConfig, store: &ArtifactStore) -> Result<PipelineArtifacts, String> {
    let (art, report) = Pipeline::new(config.clone(), store.clone())
        .run()
        .map_err(|e| e.to_string())?;
    if !report.all_hits() {
        return Err("evaluator boot recomputed a stage".into());
    }
    Ok(art)
}

/// One held-out verdict and its latency.
pub struct Evaluated {
    pub verdict: Verdict,
    pub latency_ms: f64,
}

/// Screens `queries[ids]` the way a defender checks a fresh detector: one
/// worker per core, each running `measure_indexed_with` +
/// `Detector::evaluate` image by image on its own scratch, with the image's
/// stream position as its noise index (so verdicts do not depend on the
/// worker count).
pub fn evaluate(
    art: &PipelineArtifacts,
    queries: &[Query],
    ids: std::ops::Range<usize>,
    exec_seed: u64,
) -> Vec<Evaluated> {
    let ids: Vec<usize> = ids.collect();
    parallel_map_with(
        &Parallelism::available_cores(),
        &ids,
        || art.engine.worker_scratch(&art.model),
        |scratch, _, &i| {
            let t0 = Instant::now();
            let m = art.engine.measure_indexed_with(
                &art.model,
                &queries[i].image,
                exec_seed,
                i as u64,
                scratch,
            );
            let verdict = art.detector.evaluate(m.predicted, &m.sample);
            Evaluated {
                verdict,
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        },
    )
}

/// Recomputes a seeded sample of held-out verdicts with an independent
/// engine (`reference`) and the pooled `measure_indexed`; returns the
/// indices that differ.
pub fn check_evaluated(
    evaluated: &[Evaluated],
    queries: &[Query],
    reference: &Reference,
    exec_seed: u64,
    sample_seed: u64,
) -> Vec<usize> {
    let mut sample: Vec<usize> = (0..evaluated.len()).collect();
    sample.shuffle(&mut StdRng::seed_from_u64(derive_seed(sample_seed, 0x5A3)));
    sample.truncate(RECOMPUTE_SAMPLE);
    sample.sort_unstable();
    sample
        .into_iter()
        .filter(|&i| {
            let m = reference.engine.measure_indexed(
                &reference.model,
                &queries[i].image,
                exec_seed,
                i as u64,
            );
            reference.detector.evaluate(m.predicted, &m.sample) != evaluated[i].verdict
        })
        .collect()
}
