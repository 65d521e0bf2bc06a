//! Ablation (beyond the paper): the three-sigma rule versus other threshold
//! multipliers.
//!
//! The paper fixes Δ = μ + 3σ over the validation NLLs (§5.3). This harness
//! sweeps the multiplier to expose the precision/recall trade-off behind
//! that choice, on S2 / targeted FGSM ε = 0.5 / cache-misses.

use advhunter::experiment::{detection_confusion, measure_examples};
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_detector, prepare_scenario, scaled, section};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let prep = prepare_detector(&art, None, Some(scaled(40, 15)), 0xAB20);
    let mut rng = StdRng::seed_from_u64(0xAB21);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(200, 40)),
        &mut rng,
    );
    let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xAB22));

    section("Ablation: threshold multiplier k in Δ = μ + k·σ (S2, targeted FGSM ε=0.5)");
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>10}",
        "k", "accuracy%", "F1", "precision", "recall"
    );
    for k in [1.0f64, 2.0, 3.0, 4.0, 5.0] {
        let cfg = DetectorConfig {
            events: vec![HpcEvent::CacheMisses],
            sigma_factor: k,
            ..DetectorConfig::default()
        };
        let detector = Detector::fit(&prep.template, &cfg, &ExecOptions::seeded(0xAB23))
            .expect("detector fit");
        let c = detection_confusion(&detector, HpcEvent::CacheMisses, &prep.clean_test, &adv);
        println!(
            "{:<6.1} {:>10.2} {:>10.4} {:>12.4} {:>10.4}",
            k,
            c.accuracy() * 100.0,
            c.f1(),
            c.precision(),
            c.recall()
        );
    }
    println!(
        "\nExpectation: small k floods the defender with false positives\n\
         (precision drops); large k lets AEs through (recall drops); the\n\
         paper's k = 3 sits near the F1 optimum."
    );
}
