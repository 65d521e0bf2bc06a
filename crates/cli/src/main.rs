//! `advhunter` — command-line front end for the detector.
//!
//! ```text
//! advhunter events                      list monitorable HPC events
//! advhunter scenarios                   list evaluation scenarios
//! advhunter validate <spec.ahg>...      parse + validate graph-spec files
//! advhunter pipeline <MODEL> [--store DIR] [--force] [--tiny]
//!                  [--seed N] [--metrics-json PATH]
//!                                       run the staged offline pipeline
//!                                       with per-stage cache status
//! advhunter train  <MODEL>              train/cache a scenario model
//! advhunter fit    <MODEL> <out.ahd>    run the offline phase, save detector
//! advhunter detect <MODEL> <det.ahd> [--attack fgsm|pgd|mifgsm|deepfool|nes]
//!                  [--eps F] [--targeted] [-n N]
//!                                       screen clean + attacked inferences
//! advhunter monitor <MODEL> [--attack A] [--eps F] [-n N] [--capacity N]
//!                  [--batch N] [--shed] [--tiny]
//!                  [--fingerprint] [--fp-window N] [--fp-threshold F]
//!                  [--fp-quant F] [--fusion hpc|fingerprint|or|and]
//!                  [--tenants N] [--metrics-json PATH]
//!                                       replay a clean + attacked stream
//!                                       through the online monitor service
//! advhunter serve  <MODEL> [--addr A] [--store DIR] [--tiny] [--seed N]
//!                  [--capacity N] [--batch N] [--shed] [--watch-ms N]
//!                  [--drift] [--drift-window N] [--drift-slack F]
//!                  [--drift-threshold F] [--allow-remote-control]
//!                                       serve the monitor over TCP (AHP1
//!                                       wire protocol) until a client
//!                                       sends the shutdown control
//! advhunter deploy <MODEL> [--store DIR] [--tiny] [--sigma F]
//!                                       recalibrate the detector and
//!                                       rewrite the store's Calibrate
//!                                       artifact (running servers
//!                                       watching the store hot-swap it)
//! ```
//!
//! `<MODEL>` is either a canonical scenario label (`S1|S2|S3|CASE`) or
//! `--graph FILE.ahg`, which loads any graph-spec file — the checked-in
//! `specs/*.ahg` variants or one you wrote yourself — and runs the same
//! staged pipeline against it, cached in the store under the spec's
//! content digest.
//!
//! `pipeline` runs the four offline stages (`train-model`,
//! `collect-template`, `fit-detector`, `calibrate`) against a
//! content-addressed artifact store and prints one status line per stage
//! (`hit` = loaded, `miss`/`rebuilt`/`forced` = recomputed). `train`,
//! `fit`, and `monitor` are thin views over the same stages, so anything
//! the pipeline cached they load instead of recomputing.
//!
//! `monitor` extras: `--tiny` shrinks the dataset splits for smoke runs,
//! `--metrics-json PATH` writes the unified telemetry snapshot (monitor +
//! engine + worker pool) as JSON on shutdown, and a `metrics:` summary
//! line goes to stderr periodically during the stream.
//!
//! `--fingerprint` turns on the query-fingerprint defense layer
//! (Blacklight-style near-duplicate query detection); `--fp-window`,
//! `--fp-threshold`, `--fp-quant`, and `--tenants` tune its sliding
//! window, match threshold, quantization step, and tenant cap, and
//! `--fusion` picks how the HPC verdict and the query-correlation signal
//! combine into the headline flag (default `or`).
//!
//! `serve` binds a TCP listener (port 0 gives an ephemeral port; the
//! bound address is printed as `listening on ADDR`), boots the monitor
//! from the staged pipeline, and serves the `AHP1` wire protocol until
//! some client sends the shutdown control. Control frames
//! (pause/resume/shutdown) are honored only from loopback peers unless
//! `--allow-remote-control` is passed; denied ops get a typed reject and
//! the connection keeps scoring. It watches the store for
//! redeployed detectors every `--watch-ms` (50 by default, 0 disables)
//! and hot-swaps without dropping a request; `--drift*` arms the
//! clean-NLL drift test that triggers automatic recalibration. `deploy`
//! is the other half: it recomputes the calibrated detector (optionally
//! under a new `--sigma`) and rewrites the artifact a running server is
//! watching.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use advhunter::experiment::{detection_confusion, measure_dataset, measure_examples};
use advhunter::scenario::{build_from_spec, ScenarioId, SplitSizes};
use advhunter::{
    load_detector, load_spec, save_detector, ArtifactStore, ExecOptions, GraphSpec, Pipeline,
    PipelineConfig,
};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_monitor::{
    ControlAccess, DriftConfig, FingerprintConfig, FusionPolicy, MonitorBuilder, OverloadPolicy,
    WireServer,
};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("events") => {
            for e in HpcEvent::ALL {
                println!("{}", e.perf_name());
            }
            Ok(())
        }
        Some("scenarios") => {
            for id in ScenarioId::ALL {
                println!(
                    "{:<10} {:<18} {:<20} {:>2} classes  specs/{}.ahg  digest {:016x}",
                    id.label(),
                    id.dataset_name(),
                    id.model_name(),
                    id.num_classes(),
                    id.spec().name.replace('-', "_"),
                    id.spec().digest()
                );
            }
            println!("(any other architecture: pass --graph FILE.ahg in place of the label)");
            Ok(())
        }
        Some("validate") => cmd_validate(&args[1..]),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("fit") => cmd_fit(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("deploy") => cmd_deploy(&args[1..]),
        _ => {
            eprintln!(
                "usage: advhunter <events|scenarios|validate|pipeline|train|fit|detect|monitor|serve|deploy> ..."
            );
            eprintln!("see the crate docs or README for details");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_scenario(arg: Option<&String>) -> Result<ScenarioId, String> {
    match arg.map(|s| s.to_uppercase()).as_deref() {
        Some("S1") => Ok(ScenarioId::S1),
        Some("S2") => Ok(ScenarioId::S2),
        Some("S3") => Ok(ScenarioId::S3),
        Some("CASE") | Some("CASESTUDY") => Ok(ScenarioId::CaseStudy),
        other => Err(format!(
            "expected a scenario (S1|S2|S3|CASE), got {:?}",
            other.unwrap_or("nothing")
        )),
    }
}

/// The model a subcommand operates on: either a canonical scenario label
/// (`S1|S2|S3|CASE`) or `--graph FILE.ahg` anywhere among the arguments,
/// which loads any graph-spec file and runs the same staged machinery
/// against it.
struct ModelArg {
    spec: Arc<GraphSpec>,
    /// `S1`-style label for scenarios, the spec's name for graph files.
    label: String,
}

/// Extracts the model reference from `args`, returning it plus the
/// remaining (non-model) arguments in their original order.
fn parse_model(args: &[String]) -> Result<(ModelArg, Vec<String>), String> {
    if let Some(j) = args.iter().position(|a| a == "--graph") {
        let path = args.get(j + 1).ok_or("--graph needs a .ahg file path")?;
        let spec = load_spec(Path::new(path))?;
        let label = spec.name.clone();
        let mut rest: Vec<String> = args[..j].to_vec();
        rest.extend_from_slice(&args[j + 2..]);
        Ok((ModelArg { spec, label }, rest))
    } else {
        let id = parse_scenario(args.first())
            .map_err(|e| format!("{e} (or --graph FILE.ahg to run an arbitrary graph spec)"))?;
        Ok((
            ModelArg {
                spec: Arc::clone(id.spec()),
                label: id.label().to_string(),
            },
            args[1..].to_vec(),
        ))
    }
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("usage: advhunter validate <spec.ahg>...".into());
    }
    for path in args {
        let spec = load_spec(Path::new(path))?;
        println!(
            "{path}: ok — {} on {} ({} nodes, {} parameters, digest {:016x})",
            spec.model,
            spec.dataset,
            spec.nodes.len(),
            spec.num_parameters(),
            spec.digest()
        );
    }
    Ok(())
}

/// The smoke-test split used by `--tiny` across subcommands.
fn tiny_sizes() -> SplitSizes {
    SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    }
}

fn cmd_pipeline(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut store_dir: Option<String> = None;
    let mut force = false;
    let mut tiny = false;
    let mut seed: Option<u64> = None;
    let mut metrics_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                store_dir = Some(args.get(i + 1).ok_or("--store needs a directory")?.clone());
                i += 2;
            }
            "--force" => {
                force = true;
                i += 1;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs a number")?,
                );
                i += 2;
            }
            "--metrics-json" => {
                metrics_json = Some(
                    args.get(i + 1)
                        .ok_or("--metrics-json needs a path")?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut config = PipelineConfig::for_spec(Arc::clone(&model.spec));
    if tiny {
        config = config.with_sizes(tiny_sizes());
    }
    if let Some(seed) = seed {
        config = config.with_seed(seed);
    }
    let store = match store_dir {
        Some(dir) => ArtifactStore::open(dir),
        None => ArtifactStore::shared(),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "{} offline pipeline, store {}",
        model.label,
        store.root().display()
    );
    let start = Instant::now();
    let (art, report) = Pipeline::new(config, store)
        .force(force)
        .run()
        .map_err(|e| e.to_string())?;
    let total_ms = start.elapsed().as_millis();
    println!("{:<18} {:<18} status", "stage", "fingerprint");
    for s in &report.stages {
        println!(
            "{:<18} {:<18} {}",
            s.stage.name(),
            s.fingerprint.to_string(),
            s.outcome
        );
    }
    println!(
        "pipeline: hits={} recomputed={} total_ms={}",
        report.hits(),
        report.recomputed(),
        total_ms
    );
    let tune = advhunter::tune_stats();
    println!(
        "tune: hits={} misses={} evals={}",
        tune.hits, tune.misses, tune.evals
    );
    println!(
        "clean accuracy {:.2}%, template M >= {}, detector {} categories x {} events",
        art.clean_accuracy() * 100.0,
        art.template.min_samples_per_class(),
        art.detector.num_classes(),
        art.detector.events().len()
    );
    if let Some(path) = metrics_json {
        std::fs::write(
            &path,
            advhunter_telemetry::global().snapshot().render_json(),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    Ok(())
}

/// Attack-stream flags shared by `detect` and `monitor`.
struct AttackFlags {
    attack: Attack,
    targeted: bool,
    n: usize,
    capacity: usize,
    batch: usize,
    shed: bool,
    tiny: bool,
    fingerprint: Option<FingerprintConfig>,
    fusion: FusionPolicy,
    metrics_json: Option<String>,
}

impl AttackFlags {
    /// Split sizes for the pipeline: the scenario default, or a
    /// smoke-test split under `--tiny`.
    fn sizes(&self) -> Option<SplitSizes> {
        self.tiny.then_some(tiny_sizes())
    }
}

/// Parses the attack-stream flags. `detect` screens offline, so with
/// `service` false every monitor-service flag is an unknown flag.
fn parse_attack_flags(args: &[String], service: bool) -> Result<AttackFlags, String> {
    let mut attack_name = "fgsm".to_string();
    let mut eps = 0.5f32;
    let mut targeted = false;
    let mut n = 60usize;
    let mut capacity = 64usize;
    let mut batch = 8usize;
    let mut shed = false;
    let mut tiny = false;
    let mut fingerprint = false;
    let mut fp = FingerprintConfig::default();
    let mut fusion = FusionPolicy::Or;
    let mut metrics_json = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if !service && !matches!(flag, "--attack" | "--eps" | "--targeted" | "-n") {
            return Err(format!("unknown flag {flag}"));
        }
        match flag {
            "--attack" => {
                attack_name = args.get(i + 1).ok_or("--attack needs a value")?.clone();
                i += 2;
            }
            "--eps" => {
                eps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--eps needs a number")?;
                i += 2;
            }
            "--targeted" => {
                targeted = true;
                i += 1;
            }
            "-n" => {
                n = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("-n needs a number")?;
                i += 2;
            }
            "--capacity" => {
                capacity = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--capacity needs a number")?;
                i += 2;
            }
            "--batch" => {
                batch = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--batch needs a number")?;
                i += 2;
            }
            "--shed" => {
                shed = true;
                i += 1;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--fingerprint" => {
                fingerprint = true;
                i += 1;
            }
            "--fp-window" => {
                fp.window = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--fp-window needs a number")?;
                fingerprint = true;
                i += 2;
            }
            "--fp-threshold" => {
                fp.match_threshold = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--fp-threshold needs a number")?;
                fingerprint = true;
                i += 2;
            }
            "--fp-quant" => {
                fp.quant_step = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--fp-quant needs a number")?;
                fingerprint = true;
                i += 2;
            }
            "--tenants" => {
                fp.max_tenants = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tenants needs a number")?;
                fingerprint = true;
                i += 2;
            }
            "--fusion" => {
                fusion = match args.get(i + 1).map(String::as_str) {
                    Some("hpc") => FusionPolicy::HpcOnly,
                    Some("fingerprint") => FusionPolicy::FingerprintOnly,
                    Some("or") => FusionPolicy::Or,
                    Some("and") => FusionPolicy::And,
                    other => {
                        return Err(format!(
                            "--fusion expects hpc|fingerprint|or|and, got {:?}",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
                i += 2;
            }
            "--metrics-json" => {
                metrics_json = Some(
                    args.get(i + 1)
                        .ok_or("--metrics-json needs a path")?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let attack = match attack_name.as_str() {
        "fgsm" => Attack::fgsm(eps),
        "pgd" => Attack::pgd(eps),
        "mifgsm" => Attack::mi_fgsm(eps),
        "deepfool" => Attack::deepfool(),
        "nes" => Attack::nes(eps),
        other => return Err(format!("unknown attack {other}")),
    };
    Ok(AttackFlags {
        attack,
        targeted,
        n,
        capacity,
        batch,
        shed,
        tiny,
        fingerprint: fingerprint.then_some(fp),
        fusion,
        metrics_json,
    })
}

/// Rejects the first argument a subcommand does not use.
fn reject_extra(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(()),
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let (model, rest) = parse_model(args)?;
    reject_extra(&rest)?;
    let art = build_from_spec(Arc::clone(&model.spec), None);
    println!(
        "{}: {} on {} — clean accuracy {:.2}% ({})",
        model.label,
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy() * 100.0,
        if art.from_cache {
            "loaded from store"
        } else {
            "trained"
        }
    );
    Ok(())
}

fn cmd_fit(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let out = args.first().ok_or("missing output path for the detector")?;
    reject_extra(&args[1..])?;
    let store = ArtifactStore::shared().map_err(|e| e.to_string())?;
    println!("running offline pipeline (cached stages load from the store) ...");
    let (art, report) = Pipeline::new(PipelineConfig::for_spec(Arc::clone(&model.spec)), store)
        .run()
        .map_err(|e| e.to_string())?;
    save_detector(&art.detector, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "detector saved to {out}: {} categories × {} events, M ≥ {} ({} stage hits)",
        art.detector.num_classes(),
        art.detector.events().len(),
        art.template.min_samples_per_class(),
        report.hits()
    );
    Ok(())
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let det_path = args
        .first()
        .ok_or("missing detector path (run `fit` first)")?;
    let flags = parse_attack_flags(&args[1..], false)?;

    let detector = load_detector(Path::new(det_path)).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0xC13);
    let art = build_from_spec(Arc::clone(&model.spec), None);
    let goal = if flags.targeted {
        AttackGoal::Targeted(art.target_class())
    } else {
        AttackGoal::Untargeted
    };
    println!(
        "attacking up to {} test images with {} ...",
        flags.n,
        flags.attack.name()
    );
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &flags.attack,
        goal,
        Some(flags.n),
        &mut rng,
    );
    println!(
        "attack: {} attacked, {:.1}% success",
        report.attacked,
        report.success_rate() * 100.0
    );
    let opts = ExecOptions::seeded(0xC13);
    let adv = measure_examples(&art, &report.examples, &opts.stage(0));
    let clean = measure_dataset(&art, &art.split().test, Some(10), &opts.stage(1));
    println!("\n{:>24} {:>10} {:>8}", "event", "accuracy", "F1");
    for event in HpcEvent::ALL {
        let c = detection_confusion(&detector, event, &clean, &adv);
        println!(
            "{:>24} {:>9.1}% {:>8.4}",
            event.perf_name(),
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    Ok(())
}

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let flags = parse_attack_flags(&args, true)?;
    let mut rng = StdRng::seed_from_u64(0xC14);
    let opts = ExecOptions::seeded(0xC14);

    // Offline phase through the staged pipeline: on a warm store every
    // stage is a load, so the monitor boots without training, measuring,
    // or fitting anything.
    println!("offline phase: running the staged pipeline (cached stages load) ...");
    let mut config = PipelineConfig::for_spec(Arc::clone(&model.spec));
    if let Some(sizes) = flags.sizes() {
        config = config.with_sizes(sizes);
    }
    let store = ArtifactStore::shared().map_err(|e| e.to_string())?;
    let (art, report) = Pipeline::new(config, store)
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "offline phase ready: {}/{} stage cache hits",
        report.hits(),
        report.stages.len()
    );
    let detector = art.detector.clone();

    // Build the replay stream: clean test images interleaved with
    // adversarial examples generated from the same split.
    let num_classes = art.num_classes();
    let goal = if flags.targeted {
        AttackGoal::Targeted(art.target_class())
    } else {
        AttackGoal::Untargeted
    };
    println!(
        "attacking up to {} test images with {} ...",
        flags.n,
        flags.attack.name()
    );
    let report = attack_dataset(
        &art.model,
        &art.split().test,
        &flags.attack,
        goal,
        Some(flags.n),
        &mut rng,
    );
    let clean_images: Vec<_> = art
        .split()
        .test
        .images()
        .iter()
        .take(flags.n)
        .cloned()
        .collect();
    // true = adversarial, indexed by submission order (= request id).
    let mut stream = Vec::new();
    let mut adv_iter = report.examples.iter();
    for image in clean_images {
        stream.push((image, false));
        if let Some(ex) = adv_iter.next() {
            stream.push((ex.image.clone(), true));
        }
    }
    for ex in adv_iter {
        stream.push((ex.image.clone(), true));
    }

    let mut builder = MonitorBuilder::new(opts.stage(2))
        .queue_capacity(flags.capacity)
        .micro_batch(flags.batch)
        .overload(if flags.shed {
            OverloadPolicy::Shed
        } else {
            OverloadPolicy::Block
        })
        .fusion(flags.fusion);
    if let Some(fp) = flags.fingerprint {
        builder = builder.fingerprint(fp);
    }
    let monitor = builder
        .spawn(art.engine, art.model, detector)
        .map_err(|e| e.to_string())?;

    println!(
        "monitor up: queue capacity {}, micro-batch {}, policy {}, {} requests",
        flags.capacity,
        flags.batch,
        if flags.shed { "shed" } else { "block" },
        stream.len()
    );
    if let Some(fp) = flags.fingerprint {
        println!(
            "fingerprint defense on: window {}, threshold {:.2}, quant {}, \
             {} tenants max, fusion {}",
            fp.window,
            fp.match_threshold,
            fp.quant_step,
            fp.max_tenants,
            flags.fusion.name()
        );
    }
    println!(
        "\n{:>8} {:>8} {:>8} {:>10} {:>10}",
        "done", "depth", "shed", "clean-flag", "adv-flag"
    );

    let start = Instant::now();
    let mut admitted = vec![false; stream.len()];
    for (i, (image, _)) in stream.iter().enumerate() {
        // A failed submit was shed under the shed policy; the service
        // counts it.
        admitted[i] = monitor.submit(image.clone()).is_ok();
    }
    monitor.close();

    // Verdicts arrive in admission order; map them back onto the stream
    // (shed submissions never got an id, so walk the admitted ones).
    let truth: Vec<bool> = stream
        .iter()
        .zip(&admitted)
        .filter(|(_, &adm)| adm)
        .map(|((_, adv), _)| *adv)
        .collect();
    let mut clean_seen = 0u64;
    let mut clean_flagged = 0u64;
    let mut adv_seen = 0u64;
    let mut adv_flagged = 0u64;
    let mut done = 0u64;
    let mut correlated = 0u64;
    while let Some(v) = monitor.recv() {
        correlated += u64::from(v.query_correlated);
        let is_adv = truth[usize::try_from(v.request_id).expect("id fits usize")];
        if is_adv {
            adv_seen += 1;
            adv_flagged += u64::from(v.flagged);
        } else {
            clean_seen += 1;
            clean_flagged += u64::from(v.flagged);
        }
        done += 1;
        if done.is_multiple_of(flags.batch as u64 * 4) {
            let s = monitor.stats();
            println!(
                "{:>8} {:>8} {:>8} {:>9.1}% {:>9.1}%",
                done,
                monitor.queue_depth(),
                s.shed,
                rate(clean_flagged, clean_seen) * 100.0,
                rate(adv_flagged, adv_seen) * 100.0
            );
            // Periodic operational summary on stderr, from the unified
            // telemetry snapshot (stdout stays a clean results table).
            let snap = monitor.metrics_snapshot();
            let p50_us = snap
                .histogram("advhunter_monitor_verdict_latency_ns")
                .and_then(|h| h.quantile(0.5))
                .unwrap_or(0)
                / 1_000;
            eprintln!(
                "metrics: completed={done} depth={} shed={} blocked={} \
                 batches={} p50_verdict_latency_us<={p50_us}",
                monitor.queue_depth(),
                s.shed,
                s.blocked,
                s.batches,
            );
        }
    }
    let elapsed = start.elapsed();
    if let Some(path) = &flags.metrics_json {
        std::fs::write(path, monitor.metrics_snapshot().render_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    let stats = monitor.shutdown();

    println!("\nstream done in {:.2}s", elapsed.as_secs_f64());
    println!(
        "  throughput      {:.1} inferences/s",
        stats.completed as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  submitted {} · completed {} · shed {} · blocked {} · {} micro-batches · max depth {}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.blocked,
        stats.batches,
        stats.max_queue_depth
    );
    println!(
        "  mean queued {:?} · mean measure/batch {:?} · mean score/batch {:?}",
        stats.mean_queued(),
        stats.mean_measure_per_batch(),
        stats.mean_score_per_batch()
    );
    println!(
        "  clean flagged   {:>5.1}%  (false-positive rate, any-event fusion)",
        rate(clean_flagged, clean_seen) * 100.0
    );
    println!(
        "  adv flagged     {:>5.1}%  (recall, any-event fusion)",
        rate(adv_flagged, adv_seen) * 100.0
    );
    if flags.fingerprint.is_some() {
        println!(
            "  query-correlated {} · fp matched {} · fp shed {} · fp stage {:?}",
            correlated, stats.fingerprint_matched, stats.fingerprint_shed, stats.fingerprint
        );
    }
    println!("\n{:>8} {:>10} {:>10}", "class", "screened", "flag-rate");
    for (class, c) in stats.per_class.iter().enumerate() {
        if c.screened == 0 {
            continue;
        }
        let label = if class < num_classes {
            format!("{class}")
        } else {
            "other".to_string()
        };
        println!(
            "{:>8} {:>10} {:>9.1}%",
            label,
            c.screened,
            c.flag_rate() * 100.0
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut addr = "127.0.0.1:0".to_string();
    let mut store_dir: Option<String> = None;
    let mut tiny = false;
    let mut seed: Option<u64> = None;
    let mut capacity = 64usize;
    let mut batch = 8usize;
    let mut shed = false;
    let mut watch_ms = 50u64;
    let mut drift = false;
    let mut drift_config = DriftConfig::default();
    let mut control = ControlAccess::Loopback;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs host:port")?.clone();
                i += 2;
            }
            "--store" => {
                store_dir = Some(args.get(i + 1).ok_or("--store needs a directory")?.clone());
                i += 2;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs a number")?,
                );
                i += 2;
            }
            "--capacity" => {
                capacity = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--capacity needs a number")?;
                i += 2;
            }
            "--batch" => {
                batch = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--batch needs a number")?;
                i += 2;
            }
            "--shed" => {
                shed = true;
                i += 1;
            }
            "--watch-ms" => {
                watch_ms = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--watch-ms needs a number (0 disables watching)")?;
                i += 2;
            }
            "--drift" => {
                drift = true;
                i += 1;
            }
            "--allow-remote-control" => {
                control = ControlAccess::Any;
                i += 1;
            }
            "--drift-window" => {
                drift_config.window = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--drift-window needs a number")?;
                drift = true;
                i += 2;
            }
            "--drift-slack" => {
                drift_config.slack = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--drift-slack needs a number")?;
                drift = true;
                i += 2;
            }
            "--drift-threshold" => {
                drift_config.threshold = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--drift-threshold needs a number")?;
                drift = true;
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let mut config = PipelineConfig::for_spec(Arc::clone(&model.spec));
    if tiny {
        config = config.with_sizes(tiny_sizes());
    }
    if let Some(seed) = seed {
        config = config.with_seed(seed);
    }
    let store = match store_dir {
        Some(dir) => ArtifactStore::open(dir),
        None => ArtifactStore::shared(),
    }
    .map_err(|e| e.to_string())?;

    let opts = ExecOptions::seeded(0xC15);
    let mut builder = MonitorBuilder::new(opts.stage(2))
        .queue_capacity(capacity)
        .micro_batch(batch)
        .overload(if shed {
            OverloadPolicy::Shed
        } else {
            OverloadPolicy::Block
        });
    if watch_ms > 0 {
        builder = builder.watch_store(std::time::Duration::from_millis(watch_ms));
    }
    if drift {
        builder = builder.drift(drift_config);
    }
    println!("offline phase: running the staged pipeline (cached stages load) ...");
    let monitor = builder
        .spawn_from_store(config, store)
        .map_err(|e| e.to_string())?;
    let server = WireServer::bind_with(monitor, &*addr, control).map_err(|e| e.to_string())?;
    // The port-0 contract: this exact line is how scripts learn the port.
    println!("listening on {}", server.local_addr());
    println!(
        "serve: {} capacity {}, micro-batch {}, policy {}, watch {}, drift {}",
        model.label,
        capacity,
        batch,
        if shed { "shed" } else { "block" },
        if watch_ms > 0 {
            format!("{watch_ms}ms")
        } else {
            "off".to_string()
        },
        if drift { "on" } else { "off" },
    );
    server.wait_for_shutdown();
    println!("shutdown requested; draining ...");
    let stats = server.stop();
    println!(
        "serve: submitted={} completed={} shed={} drained={} swaps={} drift={} epoch={}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.drained,
        stats.detector_swaps,
        stats.drift_events,
        stats.config_epoch,
    );
    Ok(())
}

fn cmd_deploy(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut store_dir: Option<String> = None;
    let mut tiny = false;
    let mut sigma: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                store_dir = Some(args.get(i + 1).ok_or("--store needs a directory")?.clone());
                i += 2;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--sigma" => {
                sigma = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--sigma needs a number")?,
                );
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let mut base = PipelineConfig::for_spec(Arc::clone(&model.spec));
    if tiny {
        base = base.with_sizes(tiny_sizes());
    }
    let store = match store_dir {
        Some(dir) => ArtifactStore::open(dir),
        None => ArtifactStore::shared(),
    }
    .map_err(|e| e.to_string())?;

    // Recalibrate under the requested sigma, but *publish* at the base
    // configuration's Calibrate fingerprint — that is the key a running
    // `serve --watch-ms` is polling, so the swap is picked up live.
    let detector = match sigma {
        Some(sigma) => {
            let mut det = base.detector.clone();
            det.sigma_factor = sigma;
            let tuned = Pipeline::new(base.clone().with_detector(det), store.clone());
            let (detector, _) = tuned.run_calibrate_only().map_err(|e| e.to_string())?;
            detector
        }
        None => {
            let (detector, _) = Pipeline::new(base.clone(), store.clone())
                .run_calibrate_only()
                .map_err(|e| e.to_string())?;
            detector
        }
    };
    let fp = Pipeline::new(base, store)
        .deploy_detector(&detector)
        .map_err(|e| e.to_string())?;
    println!(
        "deploy: detector recalibrated (sigma {}) and written at {fp} — \
         watching servers hot-swap it at their next poll",
        sigma.map_or_else(|| "unchanged".to_string(), |s| format!("{s}")),
    );
    Ok(())
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    // Every rejection below happens before a model is built, so none of
    // these tests trains or loads anything.

    #[test]
    fn train_rejects_every_extra_argument() {
        for extra in ["--tiny", "--seed", "extra"] {
            assert_eq!(
                cmd_train(&args(&["CASE", extra])),
                Err(format!("unknown flag {extra}"))
            );
        }
    }

    #[test]
    fn fit_rejects_arguments_after_its_output_path() {
        for extra in ["--tiny", "--store", "second.ahd"] {
            assert_eq!(
                cmd_fit(&args(&["CASE", "out.ahd", extra])),
                Err(format!("unknown flag {extra}"))
            );
        }
    }

    #[test]
    fn detect_rejects_monitor_service_flags() {
        let service = "--tiny --capacity --batch --shed --fingerprint --fp-window \
                       --fp-threshold --fp-quant --tenants --fusion --metrics-json";
        for flag in service.split_whitespace() {
            assert_eq!(
                cmd_detect(&args(&["CASE", "det.ahd", "--eps", "0.1", flag, "4"])),
                Err(format!("unknown flag {flag}"))
            );
        }
    }

    #[test]
    fn detect_and_monitor_share_the_attack_flags() {
        let attack = args(&["--attack", "pgd", "--eps", "0.1", "--targeted", "-n", "3"]);
        for service in [false, true] {
            let flags = parse_attack_flags(&attack, service).unwrap();
            assert!(flags.targeted);
            assert_eq!(flags.n, 3);
        }
        assert!(parse_attack_flags(&args(&["--shed"]), true).unwrap().shed);
    }
}
