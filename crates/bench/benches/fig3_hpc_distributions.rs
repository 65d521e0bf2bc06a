//! Figure 3: distributions of HPC events for clean inputs and their
//! adversarial counterparts in scenario S2 under targeted FGSM (ε = 0.5).
//!
//! The paper's observation: `branches` and `branch-misses` overlap almost
//! completely, `cache-references` overlaps a little less, and
//! `cache-misses` separates clearly — and every event's per-class values
//! look like a mixture of Gaussians (motivating the GMM).

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
    let prep = prepare_detector(&art, None, Some(scaled(60, 20)), 0xF163);
    let mut rng = StdRng::seed_from_u64(0xF164);
    let target = art.target_class();

    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(200, 40)),
        &mut rng,
    );
    eprintln!(
        "targeted FGSM eps=0.5: targeted accuracy {:.2}% (paper: 94.04%)",
        report.targeted_accuracy * 100.0
    );
    let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xF165));
    let clean: Vec<_> = prep
        .clean_test
        .iter()
        .filter(|s| s.true_class == target && s.predicted == target)
        .cloned()
        .collect();

    section("Figure 3: HPC event distributions, clean vs adversarial (S2, targeted FGSM ε=0.5)");
    // The paper plots branches, branch-misses, cache-references,
    // cache-misses (instructions behaves like branches).
    let events = [
        HpcEvent::Branches,
        HpcEvent::BranchMisses,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
    ];
    let paper_note = [
        "paper: substantial overlap",
        "paper: substantial overlap",
        "paper: marginally reduced overlap",
        "paper: significant distinction",
    ];
    for (event, note) in events.iter().zip(paper_note) {
        let c: Vec<f64> = clean.iter().map(|s| s.sample.get(*event)).collect();
        let a: Vec<f64> = adv.iter().map(|s| s.sample.get(*event)).collect();
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
