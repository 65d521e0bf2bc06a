//! Ablation (beyond the paper): hardware prefetching on vs. off.
//!
//! With the next-line prefetcher enabled, streaming weight fetches pull
//! extra lines into the LLC; `cache-references` inflates and the miss
//! pattern changes. This harness measures how much the detector cares,
//! using S2 / targeted FGSM ε = 0.5.

use advhunter::experiment::{detection_confusion, LabeledSample};
use advhunter::offline::collect_template;
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_scenario, scaled, section};
use advhunter_exec::TraceEngine;
use advhunter_uarch::{HpcEvent, MachineConfig, PrefetchConfig, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let mut rng = StdRng::seed_from_u64(0xAB50);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        Some(scaled(150, 40)),
        &mut rng,
    );

    section("Ablation: hardware prefetcher (S2, targeted FGSM ε=0.5)");
    println!(
        "{:<16} {:>22} {:>10} {:>8}",
        "prefetcher", "event", "accuracy%", "F1"
    );
    for (name, prefetch) in [
        ("off (default)", PrefetchConfig::default()),
        ("aggressive", PrefetchConfig::aggressive()),
    ] {
        let machine = MachineConfig {
            prefetch,
            ..MachineConfig::default()
        };
        let engine = TraceEngine::with_config(&art.model, machine, Sampler::default());
        let mut r = StdRng::seed_from_u64(0xAB51);
        let opts = ExecOptions::seeded(0xAB51);
        let template =
            collect_template(&engine, &art.model, &art.split().val, None, &opts.stage(0));
        let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1))
            .expect("detector fit");
        let measure =
            |img: &advhunter_tensor::Tensor, label: usize, r: &mut StdRng| -> LabeledSample {
                let m = engine.measure(&art.model, img, r);
                LabeledSample {
                    true_class: label,
                    predicted: m.predicted,
                    sample: m.sample,
                }
            };
        let clean: Vec<LabeledSample> = (0..art.split().test.len())
            .take(scaled(300, 80))
            .map(|i| {
                let (img, label) = art.split().test.item(i);
                measure(img, label, &mut r)
            })
            .collect();
        let adv: Vec<LabeledSample> = report
            .examples
            .iter()
            .map(|ex| measure(&ex.image, ex.original_label, &mut r))
            .collect();
        for event in [HpcEvent::CacheMisses, HpcEvent::CacheReferences] {
            let c = detection_confusion(&detector, event, &clean, &adv);
            println!(
                "{:<16} {:>22} {:>10.2} {:>8.4}",
                name,
                event.perf_name(),
                c.accuracy() * 100.0,
                c.f1()
            );
        }
    }
    println!(
        "\nExpectation: detection via cache-misses survives prefetching\n\
         (compulsory weight misses still dominate); cache-references gains\n\
         extra prefetch traffic."
    );
}
