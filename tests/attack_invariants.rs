//! Cross-crate integration: attack guarantees hold against real (trained)
//! models on the synthetic datasets.

use advhunter::scenario::{build_scenario, ScenarioId};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_data::SplitSizes;
use advhunter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn artifacts() -> advhunter::scenario::ScenarioArtifacts {
    build_scenario(
        ScenarioId::CaseStudy,
        Some(SplitSizes {
            train: 40,
            val: 10,
            test: 12,
        }),
    )
}

#[test]
fn linf_attacks_respect_epsilon_and_pixel_range() {
    let art = artifacts();
    let mut rng = StdRng::seed_from_u64(1);
    for attack in [Attack::fgsm(0.07), Attack::pgd(0.07)] {
        for i in 0..6 {
            let (img, label) = art.split().test.item(i);
            let adv = attack.perturb(&art.model, img, label, AttackGoal::Untargeted, &mut rng);
            assert!(
                (&adv - img).linf_norm() <= 0.07 + 1e-5,
                "{} exceeded its L∞ budget",
                attack.name()
            );
            assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

#[test]
fn stronger_attacks_fool_more() {
    let art = artifacts();
    let mut rng = StdRng::seed_from_u64(2);
    let weak = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::pgd(0.02),
        AttackGoal::Untargeted,
        None,
        &mut rng,
    );
    let strong = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::pgd(0.3),
        AttackGoal::Untargeted,
        None,
        &mut rng,
    );
    assert!(strong.adversarial_accuracy <= weak.adversarial_accuracy);
    assert!(strong.success_rate() >= weak.success_rate());
    assert!(
        strong.adversarial_accuracy < 0.5,
        "PGD ε=0.3 should fool a small CNN, adv accuracy {:.2}",
        strong.adversarial_accuracy
    );
}

#[test]
fn successful_examples_really_fool_the_model() {
    let art = artifacts();
    let mut rng = StdRng::seed_from_u64(3);
    let target = art.target_class();
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::pgd(0.4),
        AttackGoal::Targeted(target),
        Some(40),
        &mut rng,
    );
    for ex in &report.examples {
        let batch = Tensor::stack(std::slice::from_ref(&ex.image));
        assert_eq!(art.model.predict(&batch)[0], target);
        assert_eq!(ex.predicted, target);
        assert_ne!(ex.original_label, target);
    }
}

#[test]
fn deepfool_finds_smaller_perturbations_than_fgsm() {
    let art = artifacts();
    let mut rng = StdRng::seed_from_u64(4);
    let df = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::deepfool(),
        AttackGoal::Untargeted,
        Some(10),
        &mut rng,
    );
    assert!(!df.examples.is_empty(), "DeepFool should succeed somewhere");
    // Compare mean L2 against FGSM at a strength with similar success.
    let fg = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.3),
        AttackGoal::Untargeted,
        Some(10),
        &mut rng,
    );
    let mean_l2 = |examples: &[advhunter_attacks::AdversarialExample],
                   base: &advhunter_data::Dataset| {
        let mut total = 0.0f32;
        let mut n = 0;
        for ex in examples {
            // Locate the source image by label order scan.
            for i in 0..base.len() {
                let (img, label) = base.item(i);
                if label == ex.original_label {
                    total += (&ex.image - img).l2_norm();
                    n += 1;
                    break;
                }
            }
        }
        total / n.max(1) as f32
    };
    let df_l2 = mean_l2(&df.examples, &art.split().test);
    let fg_l2 = mean_l2(&fg.examples, &art.split().test);
    assert!(
        df_l2 < fg_l2 * 1.5,
        "DeepFool perturbations should not be larger: {df_l2} vs {fg_l2}"
    );
}
