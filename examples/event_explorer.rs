//! Event explorer: print the clean-vs-adversarial distribution of any HPC
//! event as an ASCII histogram (the data behind the paper's Figures 3/5).
//!
//! ```text
//! cargo run --release --example event_explorer -- cache-misses
//! cargo run --release --example event_explorer -- branches
//! ```

use advhunter::experiment::{measure_dataset, measure_examples};
use advhunter::scenario::{build_scenario, ScenarioId};
use advhunter::ExecOptions;
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let event_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "cache-misses".to_string());
    let Some(event) = HpcEvent::ALL
        .iter()
        .find(|e| e.perf_name() == event_name)
        .copied()
    else {
        eprintln!("unknown event '{event_name}'; available:");
        for e in HpcEvent::ALL {
            eprintln!("  {}", e.perf_name());
        }
        std::process::exit(2);
    };

    let mut rng = StdRng::seed_from_u64(5);
    let art = build_scenario(ScenarioId::S2, None);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(120),
        &mut rng,
    );
    let opts = ExecOptions::seeded(5);
    let adv = measure_examples(&art, &report.examples, &opts.stage(0));
    let clean = measure_dataset(&art, &art.split().test, Some(15), &opts.stage(1));
    let clean_target: Vec<f64> = clean
        .iter()
        .filter(|s| s.true_class == target && s.predicted == target)
        .map(|s| s.sample.get(event))
        .collect();
    let adv_vals: Vec<f64> = adv.iter().map(|s| s.sample.get(event)).collect();

    println!(
        "distribution of '{}' (S2, targeted FGSM ε=0.5):",
        event.perf_name()
    );
    print_histogram("clean", &clean_target, "adversarial", &adv_vals);
    Ok(())
}

fn print_histogram(la: &str, a: &[f64], lb: &str, b: &[f64]) {
    let lo = a.iter().chain(b).copied().fold(f64::INFINITY, f64::min);
    let hi = a.iter().chain(b).copied().fold(f64::NEG_INFINITY, f64::max);
    let bins = 14;
    let width = (hi - lo).max(1e-9);
    let hist = |xs: &[f64]| {
        let mut h = vec![0usize; bins];
        for &x in xs {
            let i = (((x - lo) / width) * bins as f64) as usize;
            h[i.min(bins - 1)] += 1;
        }
        h
    };
    let ha = hist(a);
    let hb = hist(b);
    let max = ha
        .iter()
        .chain(hb.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    println!(
        "  {la}: '#' ({} samples)   {lb}: 'o' ({} samples)",
        a.len(),
        b.len()
    );
    for i in 0..bins {
        println!(
            "  {:>10.0} |{}",
            lo + (i as f64 + 0.5) / bins as f64 * width,
            "#".repeat(ha[i] * 36 / max)
        );
        println!("             |{}", "o".repeat(hb[i] * 36 / max));
    }
}
