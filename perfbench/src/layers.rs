//! The traced per-layer replay. Every figure here times a layer's public
//! call from outside, inside a [`Tracer`] span; nothing inside the program
//! is instrumented.

use std::time::Instant;

use advhunter::persist::detector_to_bytes;
use advhunter::pipeline::CANONICAL_FIT_SIGMA;
use advhunter::{
    collect_template, ArtifactKind, ArtifactStore, Detector, ExecOptions, Fingerprint, Parallelism,
    PipelineConfig, StoreTunePersistence,
};
use advhunter_exec::{TraceEngine, TraceScratch};
use advhunter_fingerprint::FingerprintStore;
use advhunter_nn::{MatKernels, Mode, NodeKernel};
use advhunter_tensor::ops::{gemm_packed_bias_into, linear_packed_bias_into, GemmOpKind};
use advhunter_uarch::{HpcEvent, MachineConfig, Sampler};
use advhunter_wire::{Frame, MonitorRequest, WireVerdict};

use crate::prep::{self, Query, Reference};
use crate::serve;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::Metrics;

/// Requests replayed per pass, from the workload's own stream (odd, so
/// the median LLC reference count is one image's exact count).
const WINDOW: usize = 129;
/// Passes of paired untraced/traced request replays behind the tracing
/// overhead.
const PAIRS: usize = 5;
/// Repetitions of the cheap offline calls (engine build, store I/O,
/// recalibration, batch measurement).
const REPS: usize = 5;

/// The request-path calls one request makes, in order. With a tracer,
/// each call runs in a span under a `bench.request` root.
struct PathReplay<'a> {
    art: &'a Reference,
    exec_seed: u64,
}

/// The per-connection state a replayed request path carries: the
/// measurement scratch and the tenant fingerprint windows.
struct PathState {
    scratch: TraceScratch,
    fp: FingerprintStore,
}

impl PathReplay<'_> {
    fn state(&self) -> PathState {
        PathState {
            scratch: self.art.engine.scratch(&self.art.model),
            fp: FingerprintStore::new(serve::defense()),
        }
    }

    /// Replays one request; returns its wall time in µs.
    fn request(
        &self,
        st: &mut PathState,
        id: u64,
        q: &Query,
        tenant: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> f64 {
        let art = self.art;
        let PathState { scratch, fp } = st;
        let t0 = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("bench.request", None, Some(id)));
        let mut step = |name: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
            Some(t) => t.span(name, root, Some(id), f),
            None => f(),
        };
        let request = Frame::Request(
            MonitorRequest::new(q.image.clone())
                .tenant(tenant)
                .request_id(id),
        );
        let mut bytes = Vec::new();
        step("wire.request_encode", &mut || {
            bytes = request.encode().expect("request frame fits");
        });
        step("wire.request_decode", &mut || {
            Frame::decode(&bytes).expect("request frame decodes");
        });
        let mut report = None;
        step("fingerprint.observe", &mut || {
            report = Some(fp.observe_query(tenant, q.image.data()));
        });
        let mut measured = None;
        step("exec.measure", &mut || {
            measured = Some(art.engine.measure_indexed_with(
                &art.model,
                &q.image,
                self.exec_seed,
                id,
                scratch,
            ));
        });
        let m = measured.expect("measured");
        let mut verdict = None;
        step("core.score", &mut || {
            verdict = Some(art.detector.evaluate(m.predicted, &m.sample));
        });
        let verdict = verdict.expect("scored");
        let report = report.expect("observed");
        let hpc_anomalous = verdict.flagged_any();
        let reply = Frame::Verdict(WireVerdict {
            request_id: id,
            correlation_id: Some(id),
            tenant,
            config_epoch: 0,
            verdict,
            hpc_anomalous,
            query_correlated: report.matched,
            fingerprint: Some(report),
            flagged: hpc_anomalous || report.matched,
        });
        step("wire.verdict_encode", &mut || {
            bytes = reply.encode().expect("verdict frame fits");
        });
        step("wire.verdict_decode", &mut || {
            Frame::decode(&bytes).expect("verdict frame decodes");
        });
        if let (Some(t), Some(r)) = (tracer, root) {
            t.close(r);
        }
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// The spans on the request path whose medians add up to one verdict.
const SERVE_PATH: [&str; 7] = [
    "wire.request_encode",
    "wire.request_decode",
    "fingerprint.observe",
    "exec.measure",
    "core.score",
    "wire.verdict_encode",
    "wire.verdict_decode",
];
const EVAL_PATH: [&str; 2] = ["exec.measure", "core.score"];

/// What the replay needs from the workload run.
pub struct ReplayInput<'a> {
    pub config: &'a PipelineConfig,
    pub art: &'a Reference,
    pub queries: &'a [Query],
    pub first: usize,
    pub exec_seed: u64,
    /// The median end-to-end verdict latency of the traced run, in ms.
    pub client_p50_ms: f64,
    /// Whether verdicts travel the wire and the monitor (serving
    /// workloads) or are screened in-process.
    pub serving: bool,
    pub calibrate_s: f64,
}

/// Replays the workload through every layer's public call and returns the
/// per-layer metrics, the tracer holding every span, and any mismatch the
/// replay found.
pub fn replay(input: &ReplayInput<'_>, m: &mut Metrics) -> (Tracer, Vec<String>) {
    let mut t = Tracer::new();
    let mut problems = Vec::new();
    let art = input.art;
    let threads = Parallelism::available_cores();

    // Offline layers.
    let offline = t.open("bench.offline", None, None);
    let prepared = prep::prepared_store().expect("prepared store opens");
    let tuning = StoreTunePersistence::new(prepared);
    let sampler = Sampler {
        repeats: input.config.repeats,
        ..Sampler::default()
    };
    for _ in 0..REPS {
        t.span("exec.engine_build", Some(offline), None, || {
            TraceEngine::with_config_tuned(
                &art.model,
                MachineConfig::default(),
                sampler,
                Some(&tuning),
            )
        });
    }
    let opts = ExecOptions::new(input.config.seed, threads);
    let split = prep::split(input.config).expect("the spec's dataset family is known");
    let template = t.span("core.collect_template", Some(offline), None, || {
        collect_template(
            &art.engine,
            &art.model,
            &split.val,
            input.config.per_class_cap,
            &opts.stage(0),
        )
    });
    let mut fit_config = input.config.detector.clone();
    fit_config.sigma_factor = CANONICAL_FIT_SIGMA;
    let fitted = t.span("gmm.fit", Some(offline), None, || {
        Detector::fit(&template, &fit_config, &opts.stage(1))
    });
    let fitted = match fitted {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("replayed FitDetector failed: {e}"));
            art.detector.clone()
        }
    };
    let mut detector = fitted.clone();
    for _ in 0..REPS {
        detector = t.span("gmm.recalibrate", Some(offline), None, || {
            fitted.recalibrated(&template, input.config.detector.sigma_factor)
        });
    }
    let bytes = detector_to_bytes(&detector);
    if bytes != art.detector_bytes {
        problems.push("replayed CollectTemplate → FitDetector → Calibrate differs from the reference detector".into());
    }
    let scratch_store = ArtifactStore::open(
        prep::work_dir()
            .join("runs")
            .join(format!("{}-store-io", std::process::id())),
    )
    .expect("scratch store opens");
    for i in 0..REPS {
        let fp = Fingerprint(i as u64);
        t.span("core.store_save", Some(offline), None, || {
            scratch_store
                .save(ArtifactKind::Detector, fp, &bytes)
                .expect("scratch store writes")
        });
        t.span("core.store_load", Some(offline), None, || {
            scratch_store
                .load(ArtifactKind::Detector, fp)
                .expect("scratch store reads")
        });
    }
    prep::remove_store(&scratch_store);
    let batch: Vec<_> = input
        .queries
        .iter()
        .take(32)
        .map(|q| q.image.clone())
        .collect();
    let mut per_s_1t = Vec::new();
    let mut per_s_nt = Vec::new();
    for _ in 0..REPS {
        for (par, out, name) in [
            (
                Parallelism::sequential(),
                &mut per_s_1t,
                "runtime.measure_batch_1t",
            ),
            (threads, &mut per_s_nt, "runtime.measure_batch_nt"),
        ] {
            let t0 = Instant::now();
            t.span(name, Some(offline), None, || {
                art.engine
                    .measure_batch(&art.model, &batch, input.exec_seed, &par)
            });
            out.push(batch.len() as f64 / t0.elapsed().as_secs_f64());
        }
    }
    t.close(offline);

    // Request path: interleaved untraced/traced passes over one window of
    // the workload's stream, ids as in the stream.
    let window: Vec<(u64, &Query, u64)> = (input.first..input.first + WINDOW)
        .map(|i| {
            let (q, tenant) = serve::query(input.queries, i);
            (i as u64, q, tenant)
        })
        .collect();
    let path = PathReplay {
        art,
        exec_seed: input.exec_seed,
    };
    // Each request runs untraced and traced back to back (alternating
    // which goes first) on separate path states, so both see the same
    // stream and machine drift cancels within the pair. Per pass, the
    // overhead is the median of the paired relative differences.
    let mut overhead = Vec::new();
    for pass in 0..=PAIRS {
        let (mut plain_st, mut traced_st) = (path.state(), path.state());
        let mut diffs = Vec::with_capacity(window.len());
        for (j, &(id, q, tenant)) in window.iter().enumerate() {
            let (plain, traced) = if (pass + j) % 2 == 0 {
                let plain = path.request(&mut plain_st, id, q, tenant, None);
                (
                    plain,
                    path.request(&mut traced_st, id, q, tenant, Some(&mut t)),
                )
            } else {
                let traced = path.request(&mut traced_st, id, q, tenant, Some(&mut t));
                (path.request(&mut plain_st, id, q, tenant, None), traced)
            };
            diffs.push((traced - plain) / plain * 100.0);
        }
        // The first pass only warms the path.
        if pass > 0 {
            overhead.push(median(&diffs));
        }
    }

    // Breakdown of `measure` (separate calls, same request ids).
    let mut ws = art.model.workspace(1);
    let mut llc_refs = Vec::new();
    let mut gemm_ops = GemmOperands::new(&art.kernels);
    for &(id, q, _) in &window {
        let root = t.open("bench.breakdown", None, Some(id));
        t.span("nn.forward", Some(root), Some(id), || {
            art.model
                .forward_with_kernels(&q.image, Mode::Eval, &mut ws, &art.kernels)
        });
        let counts = t.span("exec.true_counts", Some(root), Some(id), || {
            art.engine.true_counts(&art.model, &q.image)
        });
        llc_refs.push(counts.get(HpcEvent::CacheReferences) as f64);
        t.span("uarch.sample", Some(root), Some(id), || {
            art.engine
                .sampler()
                .sample_indexed(&counts, input.exec_seed, id)
        });
        t.span("tensor.gemm", Some(root), Some(id), || gemm_ops.run());
        t.close(root);
    }

    let self_us = t.self_times_us();
    let med = |name: &str| self_us.get(name).map_or(0.0, |v| median(v));
    let forward = med("nn.forward");
    let measure = med("exec.measure");
    let trace_us = med("exec.true_counts") - forward;
    let llc = median(&llc_refs);
    m.push("nn.forward_us", forward, "us");
    m.push("tensor.gemm_us", med("tensor.gemm"), "us");
    m.push("tensor.gemm_macs", gemm_ops.macs as f64, "count");
    m.push("exec.measure_us", measure, "us");
    m.push("exec.engine_build_ms", med("exec.engine_build") / 1e3, "ms");
    m.push("uarch.trace_us", trace_us, "us");
    m.push("uarch.llc_refs_per_image", llc, "count");
    m.push("uarch.ns_per_llc_ref", trace_us * 1e3 / llc, "ns");
    m.push("uarch.sample_us", med("uarch.sample"), "us");
    let (p1, pn) = (median(&per_s_1t), median(&per_s_nt));
    m.push("runtime.batch_images_per_s_1t", p1, "1/s");
    m.push("runtime.batch_images_per_s_nt", pn, "1/s");
    m.push(
        "runtime.parallel_efficiency",
        pn / (p1 * threads.threads() as f64),
        "ratio",
    );
    let fit_s = med("gmm.fit") / 1e6;
    m.push("gmm.fit_s", fit_s, "s");
    m.push("gmm.recalibrate_ms", med("gmm.recalibrate") / 1e3, "ms");
    m.push(
        "gmm.fits",
        (detector.num_classes() * detector.events().len()) as f64,
        "count",
    );
    m.push(
        "core.collect_template_s",
        med("core.collect_template") / 1e6,
        "s",
    );
    m.push("core.score_us", med("core.score"), "us");
    m.push("core.store_save_ms", med("core.store_save") / 1e3, "ms");
    m.push("core.store_load_ms", med("core.store_load") / 1e3, "ms");
    m.push("fingerprint.observe_us", med("fingerprint.observe"), "us");
    m.push("wire.request_encode_us", med("wire.request_encode"), "us");
    m.push("wire.request_decode_us", med("wire.request_decode"), "us");
    m.push("wire.verdict_encode_us", med("wire.verdict_encode"), "us");
    m.push("wire.verdict_decode_us", med("wire.verdict_decode"), "us");
    let path_names: &[&str] = if input.serving {
        &SERVE_PATH
    } else {
        &EVAL_PATH
    };
    let path_sum: f64 = path_names.iter().map(|n| med(n)).sum();
    m.push(
        "monitor.overhead_us",
        input.client_p50_ms * 1e3 - path_sum,
        "us",
    );
    let (q1, q2, q3) = quartiles(&overhead);
    m.push("bench.trace_overhead_pct", q2, "%");
    m.push("bench.trace_overhead_spread_pct", q3 - q1, "%");
    m.push("share.forward_of_measure", forward / measure, "ratio");
    m.push("share.trace_of_measure", trace_us / measure, "ratio");
    m.push("share.gmm_of_calibrate", fit_s / input.calibrate_s, "ratio");
    (t, problems)
}

/// One packed GEMM with synthetic operands at its measurement-path
/// geometry.
struct GemmNode<'a> {
    kernel: &'a NodeKernel,
    data: Vec<f32>,
    bias: Vec<f32>,
    out: Vec<f32>,
}

/// Every packed GEMM of the model, runnable without the rest of the
/// forward pass.
struct GemmOperands<'a> {
    nodes: Vec<GemmNode<'a>>,
    macs: usize,
}

impl<'a> GemmOperands<'a> {
    fn new(kernels: &'a MatKernels) -> Self {
        let fill = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|i| ((i * 31 + salt * 7) % 17) as f32 / 17.0 - 0.5)
                .collect()
        };
        let nodes = kernels
            .iter()
            .map(|kernel| {
                let g = kernel.geometry;
                GemmNode {
                    kernel,
                    data: fill(g.k * g.n, 1),
                    bias: fill(g.m, 2),
                    out: vec![0.0; g.m * g.n],
                }
            })
            .collect();
        let macs = kernels
            .iter()
            .map(|k| k.geometry.m * k.geometry.k * k.geometry.n)
            .sum();
        Self { nodes, macs }
    }

    fn run(&mut self) {
        for node in &mut self.nodes {
            let (g, packed) = (node.kernel.geometry, &node.kernel.packed);
            match g.op {
                GemmOpKind::Conv => {
                    gemm_packed_bias_into(packed, &node.data, g.n, &node.bias, &mut node.out)
                }
                GemmOpKind::Linear => {
                    linear_packed_bias_into(packed, &node.data, g.n, &node.bias, &mut node.out)
                }
            }
        }
    }
}
