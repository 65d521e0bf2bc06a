//! Figure 5: distributions of the four cache-related HPC events for clean
//! and adversarial inputs in scenario S2 under untargeted FGSM.
//!
//! The paper uses ε = 0.01 on real CIFAR-10; the synthetic stand-in needs a
//! larger ε for a comparable (weak) attack, so the lowest rung of the
//! Table 3 sweep (ε = 0.05) is used. The paper's shape:
//! `L1-icache-load-misses` overlaps heavily, `LLC-store-misses` is somewhat
//! distinctive, and `LLC-load-misses` / `L1-dcache-load-misses` separate
//! significantly.

use advhunter::experiment::measure_examples;
use advhunter::scenario::ScenarioId;
use advhunter::ExecOptions;
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{
    distribution_overlap, prepare_detector, prepare_scenario, render_two_histograms, scaled,
    section,
};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let prep = prepare_detector(&art, None, Some(scaled(40, 15)), 0xF500);
    let mut rng = StdRng::seed_from_u64(0xF501);

    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.05),
        AttackGoal::Untargeted,
        Some(scaled(250, 50)),
        &mut rng,
    );
    eprintln!(
        "untargeted FGSM eps=0.05: model accuracy under attack {:.1}%, {} AEs",
        report.adversarial_accuracy * 100.0,
        report.examples.len()
    );
    let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xF502));
    let clean: Vec<_> = prep
        .clean_test
        .iter()
        .filter(|s| s.predicted == s.true_class)
        .cloned()
        .collect();

    section("Figure 5: cache-event distributions, clean vs adversarial (S2, untargeted FGSM)");
    let events_notes = [
        (HpcEvent::L1dLoadMisses, "paper: significant difference"),
        (HpcEvent::L1iLoadMisses, "paper: substantial overlap"),
        (HpcEvent::LlcLoadMisses, "paper: significant difference"),
        (HpcEvent::LlcStoreMisses, "paper: somewhat distinctive"),
    ];
    for (event, note) in events_notes {
        let c: Vec<f64> = clean.iter().map(|s| s.sample.get(event)).collect();
        let a: Vec<f64> = adv.iter().map(|s| s.sample.get(event)).collect();
        println!(
            "\n--- {} (overlap {:.2}; {note}) ---",
            event.perf_name(),
            distribution_overlap(&c, &a, 16)
        );
        print!(
            "{}",
            render_two_histograms("clean", &c, "adversarial", &a, 12)
        );
    }
}
