//! Perturbation gallery: render a clean image, its adversarial versions
//! under each attack, and the (amplified) perturbations as PPM files under
//! `target/gallery/`.
//!
//! ```text
//! cargo run --release --example perturbation_gallery
//! ```

use advhunter::scenario::{build_scenario, ScenarioId};
use advhunter_attacks::{Attack, AttackGoal};
use advhunter_data::export::{write_difference, write_image};
use advhunter_data::SplitSizes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(21);
    let sizes = SplitSizes {
        train: 60,
        val: 40,
        test: 20,
    };
    let art = build_scenario(ScenarioId::CaseStudy, Some(sizes));
    let out = PathBuf::from("target").join("gallery");

    let (image, label) = art.split().test.item(3);
    write_image(image, &out.join("clean.ppm"))?;
    println!(
        "clean image (class {label}) -> {}",
        out.join("clean.ppm").display()
    );

    for attack in [
        Attack::fgsm(0.1),
        Attack::pgd(0.1),
        Attack::mi_fgsm(0.1),
        Attack::deepfool(),
    ] {
        let adv = attack.perturb(&art.model, image, label, AttackGoal::Untargeted, &mut rng);
        let name = attack.name().to_lowercase().replace('-', "");
        write_image(&adv, &out.join(format!("{name}.ppm")))?;
        // Perturbations are tiny; amplify 5x around mid-gray.
        write_difference(&adv, image, 5.0, &out.join(format!("{name}_delta.ppm")))?;
        let batch = advhunter_tensor::Tensor::stack(std::slice::from_ref(&adv));
        println!(
            "{:>8}: prediction {} -> {}, L∞ {:.3}, L2 {:.3}  ({} + _delta.ppm)",
            attack.name(),
            label,
            art.model.predict(&batch)[0],
            (&adv - image).linf_norm(),
            (&adv - image).l2_norm(),
            out.join(format!("{name}.ppm")).display(),
        );
    }
    Ok(())
}
