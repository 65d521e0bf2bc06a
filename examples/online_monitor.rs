//! Online monitoring: the paper's deployment story as a running service.
//!
//! A [`Monitor`] owns the instrumented engine, the victim model, and a
//! fitted detector. This example spawns one, feeds it a mixed stream of
//! clean and FGSM-perturbed images, and reads back one structured verdict
//! per request — predicted class, per-event NLL scores, flagged bit, and
//! queue/latency telemetry.
//!
//! ```text
//! cargo run --release --example online_monitor
//! ```

use advhunter::scenario::ScenarioId;
use advhunter::{ArtifactStore, ExecOptions, Pipeline, PipelineConfig};
use advhunter_attacks::{Attack, AttackGoal};
use advhunter_data::SplitSizes;
use advhunter_monitor::{MonitorBuilder, OverloadPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0x0411);
    let opts = ExecOptions::seeded(0x0411);

    // 1. Victim model + offline phase through the staged pipeline; every
    //    stage artifact lands in the shared content-addressed store. We
    //    run it once here to get the data split and model for crafting
    //    the request stream.
    let sizes = SplitSizes {
        train: 60,
        val: 40,
        test: 20,
    };
    let pipeline = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(sizes);
    let store = ArtifactStore::shared()?;
    let (art, _) = Pipeline::new(pipeline.clone(), store.clone()).run()?;
    println!(
        "victim: {} on {} (clean accuracy {:.1}%), detector over {} events",
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy() * 100.0,
        art.detector.events().len(),
    );

    // 2. Spawn the service straight from the store: the monitor replays
    //    the same pipeline (all cache hits now) and takes ownership of
    //    the engine, model, and detector it yields. `opts.stage(2)` seeds
    //    every request's noise stream (request i is measured with
    //    derive_seed(seed, i), so the verdict stream is bit-identical at
    //    any thread count or batching).
    let monitor = MonitorBuilder::new(opts.stage(2))
        .queue_capacity(32)
        .micro_batch(8)
        .overload(OverloadPolicy::Block)
        .spawn_from_store(pipeline, store)?;

    // 3. The request stream: alternate clean test images with untargeted
    //    FGSM perturbations of the same images.
    let attack = Attack::fgsm(0.3);
    let mut truth = Vec::new();
    for i in 0..art.split().test.len().min(8) {
        let (image, label) = art.split().test.item(i);
        monitor.submit(image.clone())?;
        truth.push((false, label));
        let adv = attack.perturb(&art.model, image, label, AttackGoal::Untargeted, &mut rng);
        monitor.submit(adv)?;
        truth.push((true, label));
    }
    monitor.close();

    // 4. Verdicts come back in admission order, one per request.
    println!("\n  id  truth        predicted  flagged  queue  batch   latency");
    while let Some(v) = monitor.recv() {
        let (adversarial, label) = truth[v.request_id as usize];
        println!(
            "  {:>2}  {}  {:>9}  {:>7}  {:>5}  {:>5}  {:>7.1}µs",
            v.request_id,
            if adversarial {
                "ADVERSARIAL"
            } else {
                "clean      "
            },
            format!("{} ({label})", v.verdict.predicted()),
            if v.flagged { "FLAG" } else { "pass" },
            v.telemetry.depth_at_admission,
            v.telemetry.batch_size,
            v.telemetry.measure.as_secs_f64() * 1e6,
        );
    }

    // 5. Operational counters survive the stream.
    let stats = monitor.shutdown();
    println!(
        "\nprocessed {} requests in {} micro-batches (max queue depth {}, shed {})",
        stats.completed, stats.batches, stats.max_queue_depth, stats.shed,
    );
    for (class, s) in stats.per_class.iter().enumerate() {
        if s.screened > 0 {
            println!(
                "  class {class}: {} screened, {} flagged ({:.0}%)",
                s.screened,
                s.flagged,
                s.flag_rate() * 100.0
            );
        }
    }
    Ok(())
}
