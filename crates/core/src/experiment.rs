//! Evaluation protocols shared by the table/figure reproduction harnesses.
//!
//! The flow mirrors the paper's §6: measure clean test inferences, generate
//! adversarial examples and measure their inferences, then ask the detector
//! to separate the two sets per HPC event, scoring accuracy and F1.

use advhunter_attacks::{attack_dataset, AdversarialExample, Attack, AttackGoal, AttackReport};
use advhunter_data::Dataset;
use advhunter_runtime::ExecOptions;
use advhunter_uarch::{HpcEvent, HpcSample};
use rand::Rng;

use crate::metrics::BinaryConfusion;
use crate::scenario::ScenarioArtifacts;
use crate::verdict::AnomalyDetector;

/// One measured inference with ground truth attached (ground truth is for
/// scoring only; the detector itself sees just `predicted` and `sample`).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// The input's true class (for AEs: the source class).
    pub true_class: usize,
    /// The model's hard-label prediction.
    pub predicted: usize,
    /// The HPC reading (mean over `R` repetitions).
    pub sample: HpcSample,
}

/// Measures (up to `limit_per_class`) images of a dataset through the
/// scenario's engine.
///
/// The cap is applied by label in dataset order (it never depends on
/// predictions), then the kept images are measured as one batch over the
/// runtime's worker pool. Item `i` of the kept set draws noise from the
/// stream seeded by `derive_seed(opts.seed, i)`, so results are identical
/// for every thread count, including [`Parallelism::sequential`].
pub fn measure_dataset(
    art: &ScenarioArtifacts,
    dataset: &Dataset,
    limit_per_class: Option<usize>,
    opts: &ExecOptions,
) -> Vec<LabeledSample> {
    let cap = limit_per_class.unwrap_or(usize::MAX);
    let mut taken = vec![0usize; dataset.num_classes()];
    let mut kept: Vec<usize> = Vec::new();
    for i in 0..dataset.len() {
        let label = dataset.labels()[i];
        if taken[label] >= cap {
            continue;
        }
        taken[label] += 1;
        kept.push(i);
    }
    let images: Vec<_> = kept.iter().map(|&i| dataset.images()[i].clone()).collect();
    let measurements = art
        .engine
        .measure_batch(&art.model, &images, opts.seed, &opts.parallelism);
    kept.iter()
        .zip(measurements)
        .map(|(&i, m)| LabeledSample {
            true_class: dataset.labels()[i],
            predicted: m.predicted,
            sample: m.sample,
        })
        .collect()
}

/// Measures a batch of adversarial examples through the scenario's engine
/// as one batch over the runtime's worker pool, with per-item noise
/// streams derived from `(opts.seed, index)`.
pub fn measure_examples(
    art: &ScenarioArtifacts,
    examples: &[AdversarialExample],
    opts: &ExecOptions,
) -> Vec<LabeledSample> {
    let images: Vec<_> = examples.iter().map(|ex| ex.image.clone()).collect();
    let measurements = art
        .engine
        .measure_batch(&art.model, &images, opts.seed, &opts.parallelism);
    examples
        .iter()
        .zip(measurements)
        .map(|(ex, m)| LabeledSample {
            true_class: ex.original_label,
            predicted: m.predicted,
            sample: m.sample,
        })
        .collect()
}

/// Scores a detector on one event over a clean set and an adversarial
/// set. Clean inputs are only scored when the model classified them
/// correctly (mirroring the paper's protocol: the clean side of each
/// comparison is images the DNN handles normally); adversarial inputs are
/// scored under their (wrong) predicted class.
///
/// Each inference is screened through [`AnomalyDetector::evaluate`] and
/// the [`Verdict::flagged_by`] view of `event`, so any detector producing
/// verdicts — the paper's GMM [`Detector`], the baselines — is scored by
/// the same rule. Samples whose predicted category is unmodelled for
/// `event` are skipped, exactly as in the old `detect_batch` path.
///
/// [`Detector`]: crate::Detector
/// [`Verdict::flagged_by`]: crate::Verdict::flagged_by
pub fn detection_confusion<D: AnomalyDetector + ?Sized>(
    detector: &D,
    event: HpcEvent,
    clean: &[LabeledSample],
    adversarial: &[LabeledSample],
) -> BinaryConfusion {
    let mut confusion = BinaryConfusion::default();
    let clean_flags = clean
        .iter()
        .filter(|s| s.predicted == s.true_class)
        .filter_map(|s| detector.evaluate(s.predicted, &s.sample).flagged_by(event));
    for flagged in clean_flags {
        confusion.record(false, flagged);
    }
    let adv_flags = adversarial
        .iter()
        .filter_map(|s| detector.evaluate(s.predicted, &s.sample).flagged_by(event));
    for flagged in adv_flags {
        confusion.record(true, flagged);
    }
    confusion
}

/// Detection quality of one event for one attack setting.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDetection {
    /// The HPC event used.
    pub event: HpcEvent,
    /// The confusion counts.
    pub confusion: BinaryConfusion,
}

impl EventDetection {
    /// Detection accuracy.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Detection F1.
    pub fn f1(&self) -> f64 {
        self.confusion.f1()
    }
}

/// The result of one (scenario, attack, goal, strength) cell of the
/// evaluation: attack effectiveness plus per-event detection quality.
#[derive(Debug, Clone)]
pub struct AttackDetectionRun {
    /// Attack name ("FGSM", "PGD", "DeepFool").
    pub attack_name: String,
    /// Attack strength (ε, or overshoot for DeepFool).
    pub strength: f32,
    /// The goal that was attacked.
    pub goal: AttackGoal,
    /// Model accuracy on the attacked images (untargeted effectiveness).
    pub adversarial_accuracy: f32,
    /// Fraction of attacked images classified as the target (targeted
    /// effectiveness).
    pub targeted_accuracy: f32,
    /// Number of successful adversarial examples measured.
    pub num_adversarial: usize,
    /// Detection quality per event.
    pub per_event: Vec<EventDetection>,
}

/// Runs the full protocol for one attack setting: generate AEs from the
/// scenario's test split, measure them, and score the detector per event
/// against the provided clean measurements.
///
/// `rng` drives adversarial-example generation (image selection and
/// attack randomness); the measurement phase is governed by `opts` and is
/// thread-count invariant like every other unified entry point.
#[allow(clippy::too_many_arguments)]
pub fn run_attack_detection<D: AnomalyDetector + ?Sized>(
    art: &ScenarioArtifacts,
    detector: &D,
    attack: &Attack,
    goal: AttackGoal,
    events: &[HpcEvent],
    max_attacked: Option<usize>,
    clean: &[LabeledSample],
    rng: &mut impl Rng,
    opts: &ExecOptions,
) -> AttackDetectionRun {
    let report: AttackReport = attack_dataset(
        &art.model,
        &art.split().test,
        attack,
        goal,
        max_attacked,
        rng,
    );
    let adv_samples = measure_examples(art, &report.examples, opts);
    let per_event = events
        .iter()
        .map(|&event| EventDetection {
            event,
            confusion: detection_confusion(detector, event, clean, &adv_samples),
        })
        .collect();
    AttackDetectionRun {
        attack_name: attack.name().to_string(),
        strength: attack.strength(),
        goal,
        adversarial_accuracy: report.adversarial_accuracy,
        targeted_accuracy: report.targeted_accuracy,
        num_adversarial: adv_samples.len(),
        per_event,
    }
}

/// Splits labeled samples by true class — used by the per-category rows of
/// Table 2.
pub fn by_true_class(samples: &[LabeledSample], class: usize) -> Vec<LabeledSample> {
    samples
        .iter()
        .filter(|s| s.true_class == class)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DetectorConfig, OfflineTemplate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_with(event: HpcEvent, v: f64) -> HpcSample {
        let mut s = HpcSample::default();
        s.set(event, v);
        s
    }

    fn fitted_detector(rng: &mut StdRng) -> Detector {
        let per_class = (0..2)
            .map(|c| {
                (0..50)
                    .map(|_| {
                        sample_with(
                            HpcEvent::CacheMisses,
                            1_000.0 + c as f64 * 500.0 + rng.gen_range(-30.0..30.0),
                        )
                    })
                    .collect()
            })
            .collect();
        let t = OfflineTemplate::from_samples(per_class);
        Detector::fit(
            &t,
            &DetectorConfig {
                events: vec![HpcEvent::CacheMisses],
                ..DetectorConfig::default()
            },
            &ExecOptions::seeded(rng.gen()),
        )
        .unwrap()
    }

    #[test]
    fn detection_confusion_separates_clear_cases() {
        let mut rng = StdRng::seed_from_u64(0);
        let det = fitted_detector(&mut rng);
        let clean: Vec<LabeledSample> = (0..20)
            .map(|_| LabeledSample {
                true_class: 0,
                predicted: 0,
                sample: sample_with(HpcEvent::CacheMisses, 1_000.0 + rng.gen_range(-30.0..30.0)),
            })
            .collect();
        let adv: Vec<LabeledSample> = (0..20)
            .map(|_| LabeledSample {
                true_class: 1,
                predicted: 0, // misclassified into class 0
                sample: sample_with(HpcEvent::CacheMisses, 2_000.0),
            })
            .collect();
        let c = detection_confusion(&det, HpcEvent::CacheMisses, &clean, &adv);
        assert!(c.accuracy() > 0.9, "confusion: {c:?}");
        assert!(c.f1() > 0.9);
    }

    #[test]
    fn misclassified_clean_samples_are_excluded() {
        let mut rng = StdRng::seed_from_u64(1);
        let det = fitted_detector(&mut rng);
        let clean = vec![LabeledSample {
            true_class: 0,
            predicted: 1, // model got it wrong: excluded from the clean side
            sample: sample_with(HpcEvent::CacheMisses, 1_000.0),
        }];
        let c = detection_confusion(&det, HpcEvent::CacheMisses, &clean, &[]);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn by_true_class_filters() {
        let samples = vec![
            LabeledSample {
                true_class: 0,
                predicted: 0,
                sample: HpcSample::default(),
            },
            LabeledSample {
                true_class: 1,
                predicted: 0,
                sample: HpcSample::default(),
            },
            LabeledSample {
                true_class: 0,
                predicted: 1,
                sample: HpcSample::default(),
            },
        ];
        assert_eq!(by_true_class(&samples, 0).len(), 2);
        assert_eq!(by_true_class(&samples, 1).len(), 1);
    }
}
