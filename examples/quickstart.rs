//! Quickstart: the whole AdvHunter pipeline in one file.
//!
//! Trains (or loads) a small CNN victim, runs the offline phase on clean
//! validation images, crafts one adversarial example, and asks the detector
//! about both a clean and the adversarial inference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use advhunter::scenario::ScenarioId;
use advhunter::{ArtifactStore, ExecOptions, Pipeline, PipelineConfig};
use advhunter_attacks::{Attack, AttackGoal};
use advhunter_data::SplitSizes;
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);
    // One ExecOptions drives every deterministic online stage: the seed
    // fixes the noise streams, the parallelism picks the worker count
    // (available cores, or the ADVHUNTER_THREADS override). Results are
    // identical at any thread count.
    let opts = ExecOptions::seeded(42);
    println!(
        "parallel runtime: {} worker thread(s)",
        opts.parallelism.threads()
    );

    // 1+2. The whole offline phase as one staged pipeline: train the CNN
    //    victim (hard-label black box), measure HPCs for clean validation
    //    images, fit one GMM per (category, event), and calibrate the
    //    three-sigma thresholds. Every stage persists its artifact in the
    //    content-addressed store under target/advhunter-cache, so a second
    //    run is pure cache hits. (Small split sizes keep the first run
    //    under a minute.)
    let sizes = SplitSizes {
        train: 60,
        val: 40,
        test: 20,
    };
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(sizes);
    let (art, report) = Pipeline::new(config, ArtifactStore::shared()?).run()?;
    println!(
        "victim: {} on {} — clean accuracy {:.1}%",
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy() * 100.0
    );
    let (template, detector) = (&art.template, &art.detector);
    println!(
        "offline phase done ({} of 4 stages from cache): {} categories, {} events, M ≥ {} images/category",
        report.hits(),
        detector.num_classes(),
        detector.events().len(),
        template.min_samples_per_class()
    );

    // 3. Online phase, clean inputs: measure a small batch of inferences
    //    and score them together through the batched online API.
    let batch_len = art.split().test.len().min(4);
    let clean_images = &art.split().test.images()[..batch_len];
    let measurements = art
        .engine
        .measure_batch(&art.model, clean_images, 44, &opts.parallelism);
    let queries: Vec<(usize, _)> = measurements
        .iter()
        .map(|m| (m.predicted, m.sample))
        .collect();
    let verdicts = detector.detect_batch(&queries, HpcEvent::CacheMisses, &opts.parallelism);
    for (i, (m, verdict)) in measurements.iter().zip(&verdicts).enumerate() {
        let label = art.split().test.labels()[i];
        println!(
            "clean image {i} (class {label}): predicted {}, cache-misses {:.0}, flagged: {}",
            m.predicted,
            m.sample.get(HpcEvent::CacheMisses),
            verdict.unwrap_or(false)
        );
    }
    let (clean_image, label) = art.split().test.item(0);

    // 4. Online phase, adversarial input: craft an FGSM example and score
    //    its inference the same way.
    let attack = Attack::fgsm(0.3);
    let adv_image = attack.perturb(
        &art.model,
        clean_image,
        label,
        AttackGoal::Untargeted,
        &mut rng,
    );
    let m = art.engine.measure(&art.model, &adv_image, &mut rng);
    let scores = detector.score_all(m.predicted, &m.sample);
    println!(
        "adversarial image: predicted {} (was {label}), per-event verdicts:",
        m.predicted
    );
    for s in scores {
        println!(
            "  {:>22}: NLL {:>8.2} vs threshold {:>8.2} -> {}",
            s.event.perf_name(),
            s.nll,
            s.threshold,
            if s.is_adversarial() {
                "ADVERSARIAL"
            } else {
                "clean"
            }
        );
    }
    Ok(())
}
