//! Throughput of the query-fingerprint store: the defense must keep up
//! with the inference service it guards, so `observe` (probe lookup +
//! window insert + eviction) has a hard floor of 100k queries/s.
//!
//! Three rates are measured against the default production configuration
//! (window 256, 32 probes, 1024-tenant cap):
//!
//! * `fingerprint_compute` — quantize + rolling-hash a CIFAR-sized query
//!   (3×32×32) into its probe sketch;
//! * `store_observe` — match + insert a precomputed sketch (the hot path
//!   the floor applies to);
//! * `end_to_end` — both, i.e. what one monitor request pays.
//!
//! Fingerprint compute is stateless and timed by `timing::time`; the two
//! store rows are one pass each over a stateful stream (windows fill,
//! tenants evict), timed by one wall clock. Results land in
//! `BENCH_fingerprint.json` at the repo root. The stream is
//! `scaled(100_000, 20_000)` queries under `ADVHUNTER_SCALE`;
//! `ADVHUNTER_BENCH_ASSERT=1` turns the 100k q/s floor into a hard assert
//! (set in CI's bench smoke).

use std::time::Instant;

use advhunter_bench::timing::{self, Report};
use advhunter_fingerprint::{FingerprintConfig, FingerprintStore, QueryFingerprint};

/// The throughput floor (queries/s) CI enforces on `store_observe`.
const FLOOR_PER_S: f64 = 100_000.0;
/// Tenants the stream round-robins across.
const TENANTS: u64 = 64;
/// CIFAR-shaped query length for the compute-side measurements.
const QUERY_LEN: usize = 3 * 32 * 32;

/// splitmix64 — a cheap deterministic generator for synthetic probes.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A synthetic probe sketch drawn from a bounded universe so the
/// inverted index sees realistic bucket collisions.
fn synthetic_sketch(seed: u64, probes: usize) -> QueryFingerprint {
    let universe = 1u64 << 16;
    QueryFingerprint::from_probes(
        (0..probes as u64)
            .map(|i| mix(seed ^ (i << 40)) % universe)
            .collect(),
    )
}

/// A deterministic pseudo-random query image in `[0, 1]`.
fn query_image(seed: u64) -> Vec<f32> {
    (0..QUERY_LEN)
        .map(|i| (mix(seed.wrapping_add(i as u64)) >> 40) as f32 / (1u64 << 24) as f32)
        .collect()
}

fn main() {
    let n = advhunter_bench::scaled(100_000, 20_000);
    let budget = timing::budget();
    let config = FingerprintConfig::default();

    advhunter_bench::section("Query-fingerprint store throughput (default config)");
    println!(
        "window {}, probes {}, probe_window {}, stride {}, {} tenants over a {}-tenant cap",
        config.window,
        config.probes,
        config.probe_window,
        config.stride,
        TENANTS,
        config.max_tenants
    );

    // Fingerprint compute: quantize + rolling hash over CIFAR-sized data.
    let pool: Vec<Vec<f32>> = (0..64).map(|i| query_image(i * 7919)).collect();
    let scratch_store = FingerprintStore::new(config);
    let mut next = 0usize;
    let compute = timing::time(budget, || {
        std::hint::black_box(scratch_store.fingerprint(&pool[next % pool.len()]));
        next += 1;
    });
    let compute_per_s = 1e6 / compute.median;
    println!(
        "fingerprint_compute: {compute} µs/query  {compute_per_s:>10.0} queries/s \
         (queries of {QUERY_LEN} values)"
    );

    // Store observe: the floor-bearing hot path, on precomputed sketches.
    let sketches: Vec<QueryFingerprint> = (0..n)
        .map(|i| synthetic_sketch(i as u64, config.probes))
        .collect();
    let mut store = FingerprintStore::new(config);
    let t0 = Instant::now();
    for (i, sketch) in sketches.iter().enumerate() {
        std::hint::black_box(store.observe(i as u64 % TENANTS, sketch));
    }
    let observe_elapsed = t0.elapsed();
    let observe_ns = observe_elapsed.as_secs_f64() * 1e9 / n as f64;
    let observe_per_s = n as f64 / observe_elapsed.as_secs_f64();
    let stats = store.stats();
    println!(
        "store_observe:       {:>8.2} µs/query  {observe_per_s:>10.0} queries/s \
         ({n} queries, {} matched, {} evictions, floor {FLOOR_PER_S:.0}/s)",
        observe_ns / 1e3,
        stats.matched,
        stats.evictions,
    );

    // End to end: what one monitor request pays for the defense stage.
    let e2e_n = n.min(4_096);
    let mut e2e_store = FingerprintStore::new(config);
    let t0 = Instant::now();
    for i in 0..e2e_n {
        let data = &pool[i % pool.len()];
        std::hint::black_box(e2e_store.observe_query(i as u64 % TENANTS, data));
    }
    let e2e_us = t0.elapsed().as_secs_f64() * 1e6 / e2e_n as f64;
    let e2e_per_s = 1e6 / e2e_us;
    println!("end_to_end:          {e2e_us:>8.2} µs/query  {e2e_per_s:>10.0} queries/s");

    let pass = observe_per_s >= FLOOR_PER_S;
    println!(
        "floor: store_observe {} {FLOOR_PER_S:.0}/s ({})",
        if pass { ">=" } else { "<" },
        if pass { "pass" } else { "FAIL" }
    );

    Report::new("fingerprint_lookup", budget)
        .int("stream_len", n as u64)
        .int("tenants", TENANTS)
        .int("window", config.window as u64)
        .int("probes", config.probes as u64)
        .timing("compute_us", &compute)
        .num("compute_per_s", compute_per_s)
        .num("observe_ns", observe_ns)
        .num("observe_per_s", observe_per_s)
        .num("end_to_end_us", e2e_us)
        .num("end_to_end_per_s", e2e_per_s)
        .num("floor_per_s", FLOOR_PER_S)
        .flag("pass", pass)
        .write("BENCH_fingerprint.json");

    if timing::asserting() {
        assert!(
            pass,
            "fingerprint store below the {FLOOR_PER_S:.0} queries/s floor: {observe_per_s:.0}/s"
        );
    }
}
