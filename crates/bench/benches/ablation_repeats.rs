//! Ablation (beyond the paper): measurement repetitions `R`.
//!
//! The paper fixes R = 10 (§6 setup) to average out background noise. This
//! harness sweeps R to show how much repetition the detector actually
//! needs on this substrate (S2, targeted FGSM ε = 0.5, cache-misses).

use advhunter::experiment::{detection_confusion, LabeledSample};
use advhunter::offline::collect_template;
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_scenario, scaled, section};
use advhunter_exec::TraceEngine;
use advhunter_uarch::{HpcEvent, MachineConfig, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let mut rng = StdRng::seed_from_u64(0xAB30);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(150, 40)),
        &mut rng,
    );

    section("Ablation: measurement repetitions R (S2, targeted FGSM ε=0.5, cache-misses)");
    println!("{:<4} {:>10} {:>10}", "R", "accuracy%", "F1");
    for repeats in [1usize, 3, 5, 10, 20] {
        let engine = TraceEngine::with_config(
            &art.model,
            MachineConfig::default(),
            Sampler {
                repeats,
                ..Sampler::default()
            },
        );
        let mut r = StdRng::seed_from_u64(0xAB31 + repeats as u64);
        let opts = ExecOptions::seeded(0xAB31 + repeats as u64);
        let template =
            collect_template(&engine, &art.model, &art.split().val, None, &opts.stage(0));
        let cfg = DetectorConfig {
            events: vec![HpcEvent::CacheMisses],
            ..DetectorConfig::default()
        };
        let detector = Detector::fit(&template, &cfg, &opts.stage(1)).expect("detector fit");

        let clean: Vec<LabeledSample> = (0..art.split().test.len())
            .take(scaled(400, 100))
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
            "{:<4} {:>10.2} {:>10.4}",
            repeats,
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    println!(
        "\nExpectation: F1 improves with R and saturates near the paper's\n\
         R = 10; single-shot measurement (R = 1) pays a noise penalty."
    );
}
