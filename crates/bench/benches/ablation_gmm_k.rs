//! Ablation (beyond the paper): BIC-selected GMM component count versus a
//! fixed K.
//!
//! The paper motivates BIC selection (§5.3) but never quantifies it; this
//! harness compares detection quality with K fixed at 1, 2, and 4 against
//! the BIC-selected default, using S2 / targeted FGSM ε = 0.5 /
//! cache-misses.

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
    let prep = prepare_detector(&art, None, Some(scaled(40, 15)), 0xAB10);
    let mut rng = StdRng::seed_from_u64(0xAB11);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(200, 40)),
        &mut rng,
    );
    let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xAB12));

    section("Ablation: GMM component count (S2, targeted FGSM ε=0.5, cache-misses)");
    println!("{:<12} {:>10} {:>10}", "components", "accuracy%", "F1");
    let mut configs: Vec<(String, DetectorConfig)> = vec![(
        "BIC (1..=4)".to_string(),
        DetectorConfig {
            events: vec![HpcEvent::CacheMisses],
            ..DetectorConfig::default()
        },
    )];
    for k in [1usize, 2, 4] {
        configs.push((
            format!("fixed K={k}"),
            DetectorConfig {
                events: vec![HpcEvent::CacheMisses],
                k_range: k..=k,
                ..DetectorConfig::default()
            },
        ));
    }
    for (name, cfg) in configs {
        let detector = Detector::fit(&prep.template, &cfg, &ExecOptions::seeded(0xAB13))
            .expect("detector fit");
        let c = detection_confusion(&detector, HpcEvent::CacheMisses, &prep.clean_test, &adv);
        println!(
            "{:<12} {:>10.2} {:>10.4}",
            name,
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    println!(
        "\nExpectation: BIC matches or beats any fixed K, because per-class\n\
         modality varies (each class mixes several prototypes)."
    );
}
