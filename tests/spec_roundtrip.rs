//! The graph-spec (`.ahg`) contract: canonical serialization round-trips
//! bit-identically (so the content digest is stable), the four scenario
//! specs address the store exactly like the pre-redesign hardcoded
//! builders did, and every checked-in spec compiles into a model with its
//! family's structure, shapes and size. `tests/golden_counts.rs` pins what
//! each spec compiles to, bit for bit.

use std::sync::Arc;

use advhunter::scenario::ScenarioId;
use advhunter::{load_spec, GraphSpec, PipelineConfig, Stage};
use advhunter_nn::spec::{SpecNode, SpecOp, SpecSrc};
use advhunter_nn::{Graph, Mode, Op};
use advhunter_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every checked-in spec, keyed by file stem.
fn checked_in_specs() -> Vec<(String, Arc<GraphSpec>)> {
    std::fs::read_dir("specs")
        .expect("specs dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("ahg"))
        .map(|path| {
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
            (
                stem.to_string(),
                load_spec(&path).unwrap_or_else(|e| panic!("{e}")),
            )
        })
        .collect()
}

fn compile(spec: &GraphSpec) -> Graph {
    spec.build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

#[test]
fn every_checked_in_spec_roundtrips_bit_identically() {
    let specs = checked_in_specs();
    for (stem, spec) in &specs {
        let canon = spec.to_canonical_string();
        let reparsed = GraphSpec::parse(&canon).expect("canonical text reparses");
        assert_eq!(&reparsed, &**spec, "{stem}: reparse drifted");
        assert_eq!(
            reparsed.to_canonical_string(),
            canon,
            "{stem}: canonicalization is not a fixed point"
        );
        assert_eq!(reparsed.digest(), spec.digest(), "{stem}");
        assert_eq!(
            compile(spec).num_parameters(),
            spec.num_parameters(),
            "{stem}: compiled parameter count disagrees with the spec"
        );
    }
    assert!(
        specs.len() >= 16,
        "expected the full spec library, found {}",
        specs.len()
    );
}

/// A named predicate over graph ops.
type OpCheck = (&'static str, fn(&Op) -> bool);

/// Each architecture family: the file-stem prefixes it covers and the
/// ops its characteristic data flow is built from.
const FAMILIES: [(&[&str], &[OpCheck]); 5] = [
    (&["case"], &[]),
    (
        &["s2", "resnet"],
        &[("residual add", |op| matches!(op, Op::Add))],
    ),
    (
        &["s1", "effnet"],
        &[
            ("depthwise conv", |op| matches!(op, Op::DwConv2d(_))),
            ("squeeze-excitation scale", |op| {
                matches!(op, Op::ScaleChannels)
            }),
        ],
    ),
    (
        &["s3", "dense"],
        &[("dense concat", |op| matches!(op, Op::ConcatChannels))],
    ),
    (
        &["unet"],
        &[("skip concat", |op| matches!(op, Op::ConcatChannels))],
    ),
];

#[test]
fn every_spec_family_keeps_its_distinctive_structure() {
    for (stem, spec) in checked_in_specs() {
        let mut families = FAMILIES
            .iter()
            .filter(|(prefixes, _)| prefixes.iter().any(|p| stem.starts_with(p)));
        let (_, ops) = families
            .next()
            .unwrap_or_else(|| panic!("{stem}: no family"));
        assert!(families.next().is_none(), "{stem}: in two families");
        let g = compile(&spec);
        for (what, is_op) in *ops {
            assert!(
                g.nodes().iter().any(|n| is_op(&n.op)),
                "{stem}: no {what} node"
            );
        }
    }
    // The Figure 1 case study: 4 convs + 2 fcs => 12 parameter tensors,
    // and 5 activation layers (4 conv acts + the fc act).
    let case = compile(ScenarioId::CaseStudy.spec());
    assert_eq!(case.param_tensors().len(), 12);
    let n_act = case.nodes().iter().filter(|n| n.op.is_activation()).count();
    assert_eq!(n_act, 5);
}

#[test]
fn every_spec_runs_forward_and_backward_with_the_right_shapes() {
    for (stem, spec) in checked_in_specs() {
        let g = compile(&spec);
        let mut dims = vec![2];
        dims.extend_from_slice(&spec.input);
        let trace = g.forward(&Tensor::zeros(&dims), Mode::Eval);
        assert_eq!(trace.output().shape().dims(), &[2, spec.classes], "{stem}");
        // Backward must run through the whole graph to the input.
        let grads = g.backward(&trace, &Tensor::ones(&[2, spec.classes]));
        assert_eq!(grads.input.shape().dims(), &dims[..], "{stem}");
    }
}

#[test]
fn scenario_models_are_reasonably_sized() {
    for (id, lo, hi) in [
        (ScenarioId::CaseStudy, 50_000, 600_000),
        (ScenarioId::S2, 200_000, 2_500_000),
        (ScenarioId::S1, 100_000, 2_500_000),
        (ScenarioId::S3, 100_000, 2_500_000),
    ] {
        let p = compile(id.spec()).num_parameters();
        assert!(
            (lo..=hi).contains(&p),
            "{}: parameter count {p} outside [{lo}, {hi}]",
            id.label()
        );
    }
}

#[test]
fn the_same_seed_compiles_the_same_model() {
    for (stem, spec) in checked_in_specs() {
        assert_eq!(compile(&spec), compile(&spec), "{stem}");
    }
}

#[test]
fn variant_library_is_large_and_distinct() {
    let specs = checked_in_specs();
    let variants: Vec<&GraphSpec> = specs
        .iter()
        .map(|(_, spec)| &**spec)
        .filter(|spec| ScenarioId::for_digest(spec.digest()).is_none())
        .collect();
    assert!(
        variants.len() >= 12,
        "need >= 12 variants, have {}",
        variants.len()
    );
    let mut names: Vec<&str> = specs.iter().map(|(_, s)| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), specs.len(), "spec names must be unique");
    let mut digests: Vec<u64> = specs.iter().map(|(_, s)| s.digest()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), specs.len(), "spec digests must be unique");
    // At least one skip/concat encoder–decoder topology.
    assert!(variants.iter().any(|v| {
        v.name.starts_with("unet")
            && v.nodes
                .iter()
                .any(|n| matches!(n.op, SpecOp::ConcatChannels))
    }));
}

/// A small conv net with a residual add, parameterized enough to exercise
/// every serialization branch (explicit refs, default previous-node
/// inputs, unary chains).
fn synthetic_spec(w1: usize, w2: usize, fc: usize, classes: usize, seed: u64) -> GraphSpec {
    let conv = |out| SpecOp::Conv2d {
        out_channels: out,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let node = |name: &str, op: SpecOp, inputs: Vec<SpecSrc>| SpecNode {
        name: name.to_string(),
        op,
        inputs,
    };
    GraphSpec {
        name: format!("prop-{w1}-{w2}-{fc}-{classes}-{seed}"),
        model: "PropNet".to_string(),
        dataset: "cifar10-like".to_string(),
        input: [3, 16, 16],
        classes,
        target_class: classes - 1,
        dataset_seed: seed,
        model_seed: seed ^ 0xABCD,
        sizes: Default::default(),
        train: Default::default(),
        nodes: vec![
            node("c1", conv(w1), vec![SpecSrc::Input]),
            node("r1", SpecOp::ReLU, vec![SpecSrc::Node(0)]),
            node("c2", conv(w1), vec![SpecSrc::Node(1)]),
            node(
                "skip",
                SpecOp::Add,
                vec![SpecSrc::Node(2), SpecSrc::Node(1)],
            ),
            node(
                "pool",
                SpecOp::MaxPool2d { k: 2, s: 2 },
                vec![SpecSrc::Node(3)],
            ),
            node("c3", conv(w2), vec![SpecSrc::Node(4)]),
            node("r3", SpecOp::ReLU, vec![SpecSrc::Node(5)]),
            node("gap", SpecOp::GlobalAvgPool, vec![SpecSrc::Node(6)]),
            node(
                "fc1",
                SpecOp::Linear { out_features: fc },
                vec![SpecSrc::Node(7)],
            ),
            node("r4", SpecOp::ReLU, vec![SpecSrc::Node(8)]),
            node(
                "fc2",
                SpecOp::Linear {
                    out_features: classes,
                },
                vec![SpecSrc::Node(9)],
            ),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// parse(canonicalize(spec)) == spec, and the digest survives the trip.
    #[test]
    fn random_specs_roundtrip_through_canonical_text(
        w1 in 4usize..24,
        w2 in 4usize..24,
        fc in 8usize..64,
        classes in 2usize..12,
        seed in 0u64..1000,
    ) {
        let spec = synthetic_spec(w1, w2, fc, classes, seed);
        spec.validate().expect("generated spec is valid");
        let canon = spec.to_canonical_string();
        let reparsed = GraphSpec::parse(&canon).expect("canonical text reparses");
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_canonical_string(), canon);
        prop_assert_eq!(reparsed.digest(), spec.digest());
    }
}

#[test]
fn scenario_stage_fingerprints_are_golden() {
    // These literals pin the spec-addressed store layout for all four
    // canonical scenarios. The TrainModel row is the same recipe the
    // pre-redesign ScenarioId-keyed builders produced, so warm stores
    // survive the 0.8 API break; any drift here silently orphans every
    // cached artifact and must be deliberate.
    let expected: [(ScenarioId, [&str; 4]); 4] = [
        (
            ScenarioId::S1,
            [
                "1da6e6d5f4da8970",
                "79170799c8db3c83",
                "71e19f1295e3aa39",
                "e381b2153dc4543d",
            ],
        ),
        (
            ScenarioId::S2,
            [
                "5ba556749989bd0d",
                "4bb70bef1f0ba3fa",
                "ceb7c4d2247c4c6c",
                "73bcd772108ae428",
            ],
        ),
        (
            ScenarioId::S3,
            [
                "baab7d8d6f531419",
                "3fad6ba4e20867bc",
                "42454d323d8bd36f",
                "617ea72e1b3e5ab7",
            ],
        ),
        (
            ScenarioId::CaseStudy,
            [
                "9990407ccef04e52",
                "9970edffc4a23da1",
                "4cc87e0150697026",
                "2e674c5ad8b784ef",
            ],
        ),
    ];
    for (id, want) in expected {
        let config = PipelineConfig::for_spec(Arc::clone(id.spec()));
        let got: Vec<String> = Stage::ALL
            .iter()
            .map(|&s| config.fingerprint(s).to_string())
            .collect();
        assert_eq!(got, want, "{} fingerprints drifted", id.label());
    }
}
