//! Figure 1: distributions of activated neurons at different activation
//! layers for clean and adversarially perturbed inputs.
//!
//! Reproduces the paper's case study: a 4-conv/2-fc CNN on CIFAR-10-like
//! data; one batch of clean 'bird' images versus one batch of images from
//! other categories perturbed with targeted FGSM (ε = 0.1) to be
//! misclassified as 'bird'. For each activation layer we compare the
//! per-neuron firing-frequency histograms of the two batches; the paper's
//! observation is that deeper layers (its "Activation Layer #3") separate
//! clearly while others overlap more.

use advhunter::scenario::ScenarioId;
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_scenario, scaled, section};
use advhunter_nn::record::{activation_stats, histogram_overlap};
use advhunter_nn::Mode;
use advhunter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::CaseStudy);
    let mut rng = StdRng::seed_from_u64(0xF161);
    let bird = 2usize; // CIFAR-10 'bird'
    let budget = scaled(400, 60);

    // Clean batch: correctly-classified test images of 'bird'.
    let mut clean_images: Vec<Tensor> = Vec::new();
    for i in 0..art.split().test.len() {
        let (img, label) = art.split().test.item(i);
        if label != bird || clean_images.len() >= budget {
            continue;
        }
        let batch = Tensor::stack(std::slice::from_ref(img));
        if art.model.predict(&batch)[0] == bird {
            clean_images.push(img.clone());
        }
    }

    // Adversarial batch: other categories pushed into 'bird' (FGSM ε=0.1,
    // targeted). The paper uses attack strength 0.1.
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &Attack::fgsm(0.1),
        AttackGoal::Targeted(bird),
        Some(budget * 3),
        &mut rng,
    );
    let adv_images: Vec<Tensor> = report.examples.iter().map(|e| e.image.clone()).collect();
    eprintln!(
        "clean 'bird' batch: {} images; adversarial batch: {} images (attack success {:.1}%)",
        clean_images.len(),
        adv_images.len(),
        report.success_rate() * 100.0
    );

    let clean_trace = art.model.forward(&Tensor::stack(&clean_images), Mode::Eval);
    let adv_trace = art.model.forward(&Tensor::stack(&adv_images), Mode::Eval);
    let clean_stats = activation_stats(&art.model, &clean_trace);
    let adv_stats = activation_stats(&art.model, &adv_trace);

    section("Figure 1: activated-neuron frequency distributions per activation layer");
    println!(
        "{:<8} {:>9} {:>16} {:>16} {:>10}",
        "layer", "neurons", "clean act-frac", "adv act-frac", "overlap"
    );
    let bins = 20;
    for (c, a) in clean_stats.iter().zip(adv_stats.iter()) {
        let hc = c.frequency_histogram(bins);
        let ha = a.frequency_histogram(bins);
        println!(
            "{:<8} {:>9} {:>15.1}% {:>15.1}% {:>10.3}",
            c.name,
            c.neurons,
            c.mean_active_fraction * 100.0,
            a.mean_active_fraction * 100.0,
            histogram_overlap(&hc, &ha),
        );
    }

    // The paper's qualitative claim: at least one activation layer shows a
    // clear difference between the two input populations.
    let min_overlap = clean_stats
        .iter()
        .zip(adv_stats.iter())
        .map(|(c, a)| {
            histogram_overlap(&c.frequency_histogram(bins), &a.frequency_histogram(bins)) as f64
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nmost-separating layer overlap: {min_overlap:.3} \
         (paper: Activation Layer #3 separates clearly; 1.0 = identical)"
    );
}
