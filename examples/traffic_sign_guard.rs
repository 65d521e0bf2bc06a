//! Traffic-sign guard (paper scenario S3): a GTSRB-style classifier behind
//! an AdvHunter monitor processes a mixed stream of clean and PGD-perturbed
//! sign images; every inference is screened via its `cache-misses` reading.
//!
//! ```text
//! cargo run --release --example traffic_sign_guard
//! ```

use advhunter::offline::collect_template;
use advhunter::scenario::{build_scenario, ScenarioId};
use advhunter::{BinaryConfusion, Detector, DetectorConfig, ExecOptions};
use advhunter_attacks::{Attack, AttackGoal};
use advhunter_tensor::Tensor;
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(33);
    let art = build_scenario(ScenarioId::S3, None);
    let names = art.class_names();
    println!(
        "guarding {} on {} — {} sign classes, clean accuracy {:.1}%",
        art.model_name(),
        art.dataset_name(),
        art.num_classes(),
        art.clean_accuracy() * 100.0
    );

    let opts = ExecOptions::seeded(33);
    let template = collect_template(
        &art.engine,
        &art.model,
        &art.split().val,
        None,
        &opts.stage(0),
    );
    let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1))?;

    // A stream of 40 inferences: each is either a clean test sign or a
    // PGD-perturbed one (untargeted, ε = 0.2).
    let attack = Attack::pgd(0.2);
    let mut confusion = BinaryConfusion::default();
    let mut shown = 0;
    for i in 0..art.split().test.len() {
        if shown >= 40 {
            break;
        }
        let (image, label) = art.split().test.item(i);
        // Only start from signs the model reads correctly.
        let batch = Tensor::stack(std::slice::from_ref(image));
        if art.model.predict(&batch)[0] != label {
            continue;
        }
        let attack_this = rng.gen_bool(0.5);
        let input = if attack_this {
            attack.perturb(&art.model, image, label, AttackGoal::Untargeted, &mut rng)
        } else {
            image.clone()
        };
        let m = art.engine.measure(&art.model, &input, &mut rng);
        // An unsuccessful attack leaves the prediction intact; the stream
        // item is then effectively clean.
        let is_adversarial = attack_this && m.predicted != label;
        let flagged = detector
            .is_adversarial(m.predicted, HpcEvent::CacheMisses, &m.sample)
            .unwrap_or(false);
        confusion.record(is_adversarial, flagged);
        shown += 1;
        println!(
            "[{shown:>2}] true '{}' -> predicted '{}' | {} | monitor: {}",
            names[label],
            names[m.predicted],
            if is_adversarial {
                "ADVERSARIAL"
            } else {
                "clean     "
            },
            if flagged { "FLAG" } else { "pass" },
        );
    }
    println!(
        "\nstream summary: accuracy {:.1}%, F1 {:.3} ({} decisions)",
        confusion.accuracy() * 100.0,
        confusion.f1(),
        confusion.total()
    );
    Ok(())
}
