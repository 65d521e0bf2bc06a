//! Extension: the paper's GMM + three-sigma detector versus simpler
//! anomaly-detection baselines (single-Gaussian z-score and k-NN distance)
//! on the same HPC readings, plus the MI-FGSM attack the paper's PGD
//! citation actually describes.

use advhunter::baseline::{KnnDetector, ZScoreDetector};
use advhunter::experiment::{detection_confusion, measure_examples, LabeledSample};
use advhunter::scenario::ScenarioId;
use advhunter::{BinaryConfusion, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_detector, prepare_scenario, scaled, section};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn confusion_with(
    verdict: impl Fn(&LabeledSample) -> Option<bool>,
    clean: &[LabeledSample],
    adv: &[LabeledSample],
) -> BinaryConfusion {
    let mut c = BinaryConfusion::default();
    for s in clean {
        if s.predicted != s.true_class {
            continue;
        }
        if let Some(flagged) = verdict(s) {
            c.record(false, flagged);
        }
    }
    for s in adv {
        if let Some(flagged) = verdict(s) {
            c.record(true, flagged);
        }
    }
    c
}

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let prep = prepare_detector(&art, None, Some(scaled(40, 15)), 0xBA5E);
    let mut rng = StdRng::seed_from_u64(0xBA5F);
    let target = art.target_class();

    let knn = KnnDetector::fit(&prep.template, 5, 3.0);
    let zscore = ZScoreDetector::fit(&prep.template, 3.0);
    let event = HpcEvent::CacheMisses;

    section("Extension: detector baselines on cache-misses (S2)");
    println!(
        "{:<10} {:>8} | {:<18} {:>10} {:>8}",
        "attack", "eps", "detector", "accuracy%", "F1"
    );
    for (attack, goal) in [
        (Attack::fgsm(0.5), AttackGoal::Targeted(target)),
        (Attack::mi_fgsm(0.35), AttackGoal::Targeted(target)),
        (Attack::fgsm(0.1), AttackGoal::Untargeted),
    ] {
        let report = attack_dataset(
            &art.model,
            &art.split().test,
            &attack,
            goal,
            Some(scaled(150, 40)),
            &mut rng,
        );
        let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xBA60));
        let rows: Vec<(&str, BinaryConfusion)> = vec![
            (
                "GMM + 3σ (paper)",
                detection_confusion(&prep.detector, event, &prep.clean_test, &adv),
            ),
            (
                "z-score (K=1)",
                confusion_with(
                    |s| zscore.is_adversarial(s.predicted, event, &s.sample),
                    &prep.clean_test,
                    &adv,
                ),
            ),
            (
                "k-NN (k=5)",
                confusion_with(
                    |s| knn.is_adversarial(s.predicted, event, &s.sample),
                    &prep.clean_test,
                    &adv,
                ),
            ),
        ];
        for (name, c) in rows {
            println!(
                "{:<10} {:>8.2} | {:<18} {:>10.2} {:>8.4}",
                attack.name(),
                attack.strength(),
                name,
                c.accuracy() * 100.0,
                c.f1()
            );
        }
    }
    println!(
        "\nReading: all three separate strong attacks; the GMM's advantage\n\
         appears on multimodal classes (several prototypes) where a single\n\
         Gaussian over-covers the clean support."
    );
}
