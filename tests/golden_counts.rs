//! Golden-counts pin for the instrumented inference path.
//!
//! The values below were captured from the implementation *before* the
//! zero-allocation / precomputed-trace-plan refactor of the hot path.
//! They pin `Measurement` down to the bit level: the predicted class, every
//! `HpcCounts` event, and the exact f64 bit pattern of every `HpcSample`
//! event. Any change to the simulated trace order, the cache replacement
//! behaviour, the branch predictor accounting, or the noise stream shows
//! up here as a hard failure.
//!
//! Two fixtures cover the op zoo: `small` is a conv/relu/flatten/linear
//! stack, `zoo` routes through all sixteen graph ops (batchnorm, silu,
//! dwconv, leaky_relu, tanh, add, max/avg pool, concat, global_avgpool,
//! sigmoid, scale_channels, ...).
//!
//! A third table pins every checked-in `specs/*.ahg` file: the spec,
//! compiled under its own `model-seed`, must produce the same weights
//! (FNV-1a digest of the `AHW1` weight bytes) and the same prediction and
//! noise-free counts on one seeded image. The rows were captured while
//! the spec compiler was still proven bit-identical to the hardcoded
//! builders and to the variant generator, so they carry that proof now
//! that the spec files are the only definition of a model. Adding an
//! architecture means adding its row here.

use advhunter::persist::model_to_bytes;
use advhunter::GraphSpec;
use advhunter_exec::TraceEngine;
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::Tensor;
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_model() -> Graph {
    let mut rng = StdRng::seed_from_u64(3);
    let mut b = GraphBuilder::new(&[1, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d("c1", input, 8, 3, 1, 1, &mut rng);
    let r1 = b.relu("r1", c1);
    let c2 = b.conv2d("c2", r1, 8, 3, 1, 1, &mut rng);
    let r2 = b.relu("r2", c2);
    let f = b.flatten("f", r2);
    b.linear("fc", f, 4, &mut rng);
    b.build()
}

fn zoo_model() -> Graph {
    let mut rng = StdRng::seed_from_u64(17);
    let mut b = GraphBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d("c1", input, 8, 3, 1, 1, &mut rng);
    let bn = b.batchnorm("bn", c1);
    let s1 = b.silu("silu", bn);
    let dw = b.dwconv2d("dw", s1, 3, 1, 1, &mut rng);
    let lr = b.leaky_relu("lrelu", dw, 0.1);
    let th = b.tanh("tanh", lr);
    let ad = b.add("add", th, s1);
    let mp = b.maxpool("mp", ad, 2, 2);
    let ap = b.avgpool("ap", ad, 2, 2);
    let cc = b.concat("cat", mp, ap);
    let rr = b.relu("relu", cc);
    let gp = b.global_avgpool("gap", rr);
    let se = b.linear("se", gp, 16, &mut rng);
    let sg = b.sigmoid("sig", se);
    let sc = b.scale_channels("scale", rr, sg);
    let fl = b.flatten("flat", sc);
    b.linear("fc", fl, 5, &mut rng);
    b.build()
}

fn image(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    advhunter_tensor::init::uniform(&mut rng, dims, 0.0, 1.0)
}

/// One pinned measurement: predicted class, counts in `HpcEvent::ALL`
/// order, and sample f64 bit patterns in the same order.
struct Golden {
    seed: u64,
    predicted: usize,
    counts: [u64; 9],
    sample_bits: [u64; 9],
}

const SMALL_GOLDEN: [Golden; 3] = [
    Golden {
        seed: 0,
        predicted: 2,
        counts: [13558, 366, 11, 336, 336, 80, 192, 272, 64],
        sample_bits: [
            0x40cee4a1e4faf7ae,
            0x408367b46b9161b3,
            0x403adb7c47e41eed,
            0x407b162073ba221a,
            0x407645a912f9c5c9,
            0x40649dfa0d58d5da,
            0x406bad7c371647a0,
            0x407253f8202e2ea0,
            0x40522fa6b8bd981e,
        ],
    },
    Golden {
        seed: 1,
        predicted: 2,
        counts: [13558, 366, 11, 343, 343, 87, 192, 279, 64],
        sample_bits: [
            0x40ccb35c94442503,
            0x4083842bc5e8eda4,
            0x403d80bb646e67b3,
            0x407d5c2763b54c1b,
            0x4076e4cae179965f,
            0x40650e9d6aa64ba2,
            0x406b69e46f68efad,
            0x4071f0c4b611747a,
            0x4052a255963eee88,
        ],
    },
    Golden {
        seed: 2,
        predicted: 3,
        counts: [13558, 366, 11, 350, 350, 94, 192, 286, 64],
        sample_bits: [
            0x40ce491bf339fe3d,
            0x408591f75cffef01,
            0x4043c7ce534a938c,
            0x407cbc358bc9618e,
            0x4076f03d1dc31674,
            0x4063d9b90ec8f392,
            0x40697ed64d198b42,
            0x4073002036b9c192,
            0x405301d8dac42fd3,
        ],
    },
];

const ZOO_GOLDEN: [Golden; 3] = [
    Golden {
        seed: 0,
        predicted: 0,
        counts: [12094, 514, 24, 1107, 1107, 51, 960, 1011, 96],
        sample_bits: [
            0x40cc0671c46e2c12,
            0x408808838aa95376,
            0x404412b6caeb6311,
            0x4092b7c6d97a16b2,
            0x40919ffcee1660db,
            0x4060f5b4bb5107d8,
            0x408dfd0999f0118e,
            0x40902551d60ad3b4,
            0x405a11f70197ab6d,
        ],
    },
    Golden {
        seed: 1,
        predicted: 3,
        counts: [12094, 514, 24, 1109, 1109, 53, 960, 1013, 96],
        sample_bits: [
            0x40c9d720853b517d,
            0x408820b403a7d3d8,
            0x40451866717ee7ce,
            0x4093646060f8f4ae,
            0x4091bec4898502f1,
            0x4060cfc577155f9a,
            0x408e80401b26fe33,
            0x408fe1c70e31b068,
            0x405a9df7b6678ca3,
        ],
    },
    Golden {
        seed: 2,
        predicted: 3,
        counts: [12094, 514, 24, 1110, 1110, 54, 960, 1014, 96],
        sample_bits: [
            0x40cb6efd2d9cc6be,
            0x408a2d38d8f6b02a,
            0x404a1f6b59f464d8,
            0x4092f50f4166138b,
            0x4091a4ddef3c47f2,
            0x405dfcf8997853f3,
            0x408d8da6c4383fa8,
            0x409024f5c8d2a092,
            0x405b1340b49c780d,
        ],
    },
];

fn check(name: &str, g: &Graph, dims: &[usize], golden: &[Golden; 3]) {
    let e = TraceEngine::new(g);
    for gold in golden {
        let img = image(dims, gold.seed);
        let m = e.measure_indexed(g, &img, 42, gold.seed);
        assert_eq!(
            m.predicted, gold.predicted,
            "{name} seed {}: predicted class drifted",
            gold.seed
        );
        for (slot, ev) in HpcEvent::ALL.into_iter().enumerate() {
            assert_eq!(
                m.counts.get(ev),
                gold.counts[slot],
                "{name} seed {}: count for {ev:?} drifted",
                gold.seed
            );
            assert_eq!(
                m.sample.get(ev).to_bits(),
                gold.sample_bits[slot],
                "{name} seed {}: sample bits for {ev:?} drifted (got {})",
                gold.seed,
                m.sample.get(ev)
            );
        }
    }
}

#[test]
fn small_model_measurements_match_pre_refactor_golden() {
    check("small", &small_model(), &[1, 8, 8], &SMALL_GOLDEN);
}

#[test]
fn zoo_model_measurements_match_pre_refactor_golden() {
    check("zoo", &zoo_model(), &[2, 8, 8], &ZOO_GOLDEN);
}

#[test]
fn repeated_measurements_reuse_state_without_drift() {
    // The engine may pool scratch memory across calls; re-measuring the
    // same image three times must keep returning the golden values.
    let g = small_model();
    let e = TraceEngine::new(&g);
    let img = image(&[1, 8, 8], 0);
    let first = e.measure_indexed(&g, &img, 42, 0);
    for _ in 0..3 {
        let again = e.measure_indexed(&g, &img, 42, 0);
        assert_eq!(first.predicted, again.predicted);
        assert_eq!(first.counts, again.counts);
        assert_eq!(first.sample, again.sample);
    }
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every checked-in spec, sorted by file stem.
fn checked_in_specs() -> Vec<(String, GraphSpec)> {
    let mut specs: Vec<(String, GraphSpec)> = std::fs::read_dir("specs")
        .expect("specs dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("ahg"))
        .map(|path| {
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
            let text = std::fs::read_to_string(&path).expect("read spec");
            let spec = GraphSpec::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
            (stem.to_string(), spec)
        })
        .collect();
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

/// One spec compiled under its own model seed: the weight digest, then
/// the predicted class and noise-free counts (in `HpcEvent::ALL` order)
/// on a uniform image drawn from `StdRng::seed_from_u64(11)`.
fn spec_row(spec: &GraphSpec) -> (u64, usize, [u64; 9]) {
    let g = spec
        .build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
        .expect("spec compiles");
    let img = image(&spec.input, 11);
    let counts = TraceEngine::new(&g).true_counts(&g, &img);
    let predicted = g.predict(&Tensor::stack(std::slice::from_ref(&img)))[0];
    (
        fnv1a(&model_to_bytes(&g)),
        predicted,
        HpcEvent::ALL.map(|ev| counts.get(ev)),
    )
}

/// `(file stem, weight digest, predicted class, counts)` per checked-in
/// spec, sorted by file stem.
#[rustfmt::skip]
const SPEC_GOLDEN: [(&str, u64, usize, [u64; 9]); 17] = [
    ("case_d3", 0x941041fd16ef578d, 6, [1314061, 13989, 34, 16703, 4842, 6269, 256, 3306, 1536]),
    ("case_study", 0x4767775ea2a23a98, 6, [1813788, 27316, 25, 26068, 10403, 12740, 256, 8346, 2057]),
    ("case_w24", 0x9b8348c6e251e878, 4, [3857800, 47752, 25, 41856, 15801, 21996, 256, 12719, 3082]),
    ("case_w8", 0xbf30479db6fa82a7, 3, [528041, 11481, 25, 9446, 4462, 3322, 256, 3438, 1024]),
    ("dense_d4", 0xa98cd20509659dd0, 24, [4548184, 75976, 74, 150631, 37954, 55977, 384, 5570, 32384]),
    ("dense_g12", 0xde8de53641c5a130, 13, [4856538, 70410, 62, 133325, 32772, 49141, 384, 4580, 28192]),
    ("dense_g4", 0x22634c1aa4655a4d, 19, [1600687, 37631, 62, 76712, 19325, 26948, 384, 2749, 16576]),
    ("effnet_d3", 0x6d490b438326839d, 0, [1433048, 106036, 101, 65727, 6967, 21639, 960, 2263, 4704]),
    ("effnet_w24", 0x1d96871766a76ad5, 1, [2083654, 184530, 72, 73480, 8591, 25036, 576, 1504, 7087]),
    ("resnet_d3", 0x56ddd0b6b699a320, 5, [3716428, 61156, 53, 65319, 19668, 31209, 320, 16580, 3088]),
    ("resnet_w24", 0x6b454233aec62f69, 8, [5928738, 131258, 38, 108550, 43865, 63670, 320, 39241, 4624]),
    ("resnet_w8", 0xe38cdf7a637e66a9, 8, [886549, 35141, 38, 28753, 13715, 14257, 320, 12173, 1542]),
    ("s1", 0xd01049237be2ff82, 2, [1172425, 98725, 73, 48503, 5467, 14847, 576, 763, 4704]),
    ("s2", 0x07d4ef74ecdf6757, 3, [2903628, 87012, 38, 72421, 32131, 42389, 320, 29043, 3088]),
    ("s3", 0x06f17ebeaa959a48, 15, [3024403, 54787, 62, 105811, 26841, 38719, 384, 4418, 22423]),
    ("unet_mini", 0x9d4639d27a7a9eee, 8, [2175812, 17780, 35, 23511, 8837, 9975, 320, 5509, 3328]),
    ("unet_wide", 0x70d34c0aba9b9120, 6, [4173320, 29600, 35, 34675, 12062, 14947, 320, 7454, 4608]),
];

#[test]
fn checked_in_specs_compile_to_golden_weights_and_counts() {
    let specs = checked_in_specs();
    let stems: Vec<&str> = specs.iter().map(|(stem, _)| stem.as_str()).collect();
    let pinned: Vec<&str> = SPEC_GOLDEN.iter().map(|row| row.0).collect();
    let unpinned: Vec<String> = specs
        .iter()
        .filter(|(stem, _)| !pinned.contains(&stem.as_str()))
        .map(|(stem, spec)| {
            let (digest, predicted, counts) = spec_row(spec);
            format!("    (\"{stem}\", 0x{digest:016x}, {predicted}, {counts:?}),")
        })
        .collect();
    assert_eq!(
        stems,
        pinned,
        "every checked-in spec needs exactly one golden row; unpinned specs compile to:\n{}",
        unpinned.join("\n")
    );
    for ((stem, spec), &(_, digest, predicted, counts)) in specs.iter().zip(&SPEC_GOLDEN) {
        let (got_digest, got_predicted, got_counts) = spec_row(spec);
        assert_eq!(got_digest, digest, "{stem}: compiled weights drifted");
        assert_eq!(got_predicted, predicted, "{stem}: predicted class drifted");
        assert_eq!(got_counts, counts, "{stem}: counts drifted");
    }
}
