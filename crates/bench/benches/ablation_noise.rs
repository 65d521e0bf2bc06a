//! Ablation (beyond the paper): measurement-noise robustness.
//!
//! Scales the calibrated noise model's sigma globally (0× = clean
//! simulator, 1× = calibrated, 4× = very noisy co-tenant) and measures how
//! detection via `cache-misses` degrades — the knob a defender cannot
//! control on shared infrastructure.

use advhunter::experiment::{detection_confusion, LabeledSample};
use advhunter::offline::collect_template;
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_scenario, scaled, section};
use advhunter_exec::TraceEngine;
use advhunter_uarch::{HpcEvent, MachineConfig, NoiseModel, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let mut rng = StdRng::seed_from_u64(0xAB60);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(150, 40)),
        &mut rng,
    );

    section("Ablation: measurement-noise scale (S2, targeted FGSM ε=0.5, cache-misses)");
    println!("{:<8} {:>10} {:>10}", "scale", "accuracy%", "F1");
    for scale_factor in [0.0f64, 0.5, 1.0, 2.0, 4.0] {
        let sampler = Sampler {
            noise: NoiseModel {
                sigma_scale: scale_factor,
                ..NoiseModel::default()
            },
            ..Sampler::default()
        };
        let engine = TraceEngine::with_config(&art.model, MachineConfig::default(), sampler);
        let mut r = StdRng::seed_from_u64(0xAB61);
        let opts = ExecOptions::seeded(0xAB61);
        let template =
            collect_template(&engine, &art.model, &art.split().val, None, &opts.stage(0));
        let cfg = DetectorConfig {
            events: vec![HpcEvent::CacheMisses],
            ..DetectorConfig::default()
        };
        let detector = Detector::fit(&template, &cfg, &opts.stage(1)).expect("detector fit");
        let clean: Vec<LabeledSample> = (0..art.split().test.len())
            .take(scaled(300, 80))
            .map(|i| {
                let (img, label) = art.split().test.item(i);
                let m = engine.measure(&art.model, img, &mut r);
                LabeledSample {
                    true_class: label,
                    predicted: m.predicted,
                    sample: m.sample,
                }
            })
            .collect();
        let adv: Vec<LabeledSample> = report
            .examples
            .iter()
            .map(|ex| {
                let m = engine.measure(&art.model, &ex.image, &mut r);
                LabeledSample {
                    true_class: ex.original_label,
                    predicted: m.predicted,
                    sample: m.sample,
                }
            })
            .collect();
        let c = detection_confusion(&detector, HpcEvent::CacheMisses, &clean, &adv);
        println!(
            "{:<8.1} {:>10.2} {:>10.4}",
            scale_factor,
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    println!(
        "\nExpectation: detection is near its ceiling without noise, holds at\n\
         the calibrated level (R = 10 averaging absorbs it), and degrades\n\
         gracefully as background activity grows."
    );
}
