//! CIFAR-style monitoring scenario (paper scenario S2): a defender guards a
//! ResNet image classifier against targeted FGSM, comparing how well each
//! HPC event separates clean from adversarial inferences.
//!
//! ```text
//! cargo run --release --example cifar_fgsm_monitor
//! ```

use advhunter::experiment::{detection_confusion, measure_dataset, measure_examples};
use advhunter::offline::collect_template;
use advhunter::scenario::{build_scenario, ScenarioId};
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let art = build_scenario(ScenarioId::S2, None);
    let names = art.class_names();
    let target = art.target_class();
    println!(
        "victim: {} on {} (clean accuracy {:.1}%), target class '{}'",
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy() * 100.0,
        names[target]
    );

    // Offline phase.
    let opts = ExecOptions::seeded(7);
    let template = collect_template(
        &art.engine,
        &art.model,
        &art.split().val,
        None,
        &opts.stage(0),
    );
    let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1))?;

    // The adversary: targeted FGSM pushing every category toward 'frog'.
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(120),
        &mut rng,
    );
    println!(
        "attack: targeted FGSM ε=0.5 — {:.1}% of attacked images now classify as '{}'",
        report.targeted_accuracy * 100.0,
        names[target]
    );

    // Measure both populations and score every event.
    let adv = measure_examples(&art, &report.examples, &opts.stage(2));
    let clean = measure_dataset(&art, &art.split().test, Some(20), &opts.stage(3));
    let clean_target: Vec<_> = clean
        .into_iter()
        .filter(|s| s.true_class == target)
        .collect();

    println!(
        "\nper-event detection quality (clean '{}' vs AEs):",
        names[target]
    );
    println!("{:>24} {:>10} {:>8}", "event", "accuracy", "F1");
    for event in HpcEvent::ALL {
        let c = detection_confusion(&detector, event, &clean_target, &adv);
        println!(
            "{:>24} {:>9.1}% {:>8.4}",
            event.perf_name(),
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    println!("\ncache-misses should dominate — that is AdvHunter's headline result.");
    Ok(())
}
