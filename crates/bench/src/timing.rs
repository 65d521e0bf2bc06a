//! The one timing harness: every repeated timing in the benches goes
//! through [`time`] or [`time_ab`], and every `BENCH_*.json` file comes
//! from [`Report`].
//!
//! A timed section runs its closure once to warm up, picks a batch of
//! calls long enough that the two clock reads per sample cost well under
//! 1%, and then samples batches until the budget is spent. It reports the
//! median per-call time with its quartiles, the minimum and the sample
//! count, so every figure states its own spread. [`time_ab`] alternates
//! two arms in short rounds, reversing their order every round, so clock
//! drift and frequency steps hit both arms alike; the difference is the
//! median of the paired per-round differences.
//!
//! One pass over stateful work (a monitor stream, a fingerprint stream)
//! cannot be repeated without changing what it measures; those stay a
//! plain `Instant` around the pass.
//!
//! Knobs: `ADVHUNTER_BENCH_MS` sets the budget per timed section in
//! milliseconds (default 300); `ADVHUNTER_BENCH_ASSERT=1` turns every
//! bench's floors into hard asserts.

use std::fmt;
use std::time::{Duration, Instant};

/// Budget per timed section when `ADVHUNTER_BENCH_MS` is unset.
const DEFAULT_BUDGET_MS: u64 = 300;

/// Shortest batch timed as one sample.
const MIN_SAMPLE: Duration = Duration::from_micros(20);

/// The measuring budget per timed section: `ADVHUNTER_BENCH_MS`
/// milliseconds (default 300).
pub fn budget() -> Duration {
    budget_from(std::env::var("ADVHUNTER_BENCH_MS").ok().as_deref())
}

fn budget_from(ms: Option<&str>) -> Duration {
    Duration::from_millis(ms.and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_BUDGET_MS))
}

/// Whether `ADVHUNTER_BENCH_ASSERT=1` asks the benches to enforce their
/// floors.
pub fn asserting() -> bool {
    std::env::var("ADVHUNTER_BENCH_ASSERT").is_ok_and(|v| v == "1")
}

/// Order statistics of a sample set. Quartiles interpolate linearly
/// between closest ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every timed section samples at least once.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = p * (v.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        };
        Self {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n: v.len(),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} IQR (min {:.2}, n {})",
            self.median,
            self.iqr(),
            self.min,
            self.n
        )
    }
}

/// Prints one timed row: `name`, then its per-call µs summary.
pub fn row(name: &str, s: &Summary) {
    println!("{name:<44} µs/call {s}");
}

/// Times `f` for about `budget` and summarises its cost in µs per call.
pub fn time<F: FnMut()>(budget: Duration, mut f: F) -> Summary {
    Summary::of(&samples(budget, &mut f))
}

/// An interleaved A/B timing: each arm's per-call µs over all rounds, and
/// the paired per-round difference `(b − a) / a` in percent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbTiming {
    /// Arm `a`, all rounds pooled.
    pub a: Summary,
    /// Arm `b`, all rounds pooled.
    pub b: Summary,
    /// Per-round `(median b − median a) / median a × 100`, one value per
    /// round.
    pub delta_pct: Summary,
}

impl AbTiming {
    /// Arm `b`'s cost over arm `a`'s, from the median paired per-round
    /// difference. Pooled medians are not compared: a host that slows for
    /// a few rounds skews them, but shifts both arms of a round alike.
    pub fn ratio(&self) -> f64 {
        1.0 + self.delta_pct.median / 100.0
    }
}

/// Times two arms for about `budget` in total, alternating them over
/// `rounds` rounds and reversing their order every round.
pub fn time_ab(budget: Duration, rounds: usize, arms: [&mut dyn FnMut(); 2]) -> AbTiming {
    let rounds = rounds.max(1);
    let slice = budget / (2 * rounds as u32);
    let mut pooled = [Vec::new(), Vec::new()];
    let mut deltas = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut medians = [0.0; 2];
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for arm in order {
            let s = samples(slice, &mut *arms[arm]);
            medians[arm] = Summary::of(&s).median;
            pooled[arm].extend(s);
        }
        deltas.push((medians[1] - medians[0]) / medians[0] * 100.0);
    }
    AbTiming {
        a: Summary::of(&pooled[0]),
        b: Summary::of(&pooled[1]),
        delta_pct: Summary::of(&deltas),
    }
}

/// Per-call µs samples of `f` over about `budget`, after one warm-up call.
fn samples(budget: Duration, f: &mut dyn FnMut()) -> Vec<f64> {
    f();
    let batch = batch_size(f);
    let mut out = Vec::new();
    let start = Instant::now();
    while out.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        out.push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(batch));
    }
    out
}

/// Calls per sample: doubles from one until a batch lasts [`MIN_SAMPLE`].
fn batch_size(f: &mut dyn FnMut()) -> u32 {
    let mut batch = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= MIN_SAMPLE || batch >= 1 << 20 {
            return batch;
        }
        batch *= 2;
    }
}

/// A `BENCH_*.json` document: ordered fields behind one header
/// (`benchmark`, `cores`, `target_cpu`, `budget_ms`).
#[derive(Clone, Debug)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    /// Starts a report for `benchmark`, measured with `budget` per timed
    /// section.
    pub fn new(benchmark: &str, budget: Duration) -> Self {
        let mut report = Self { fields: Vec::new() };
        report
            .text("benchmark", benchmark)
            .int("cores", cores() as u64)
            .text("target_cpu", target_cpu())
            .int("budget_ms", budget.as_millis() as u64);
        report
    }

    /// Appends a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, format!("{value:?}"))
    }

    /// Appends an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Appends a number field, kept to four significant digits.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, number(value))
    }

    /// Appends a boolean field.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Appends a timed field: its median, IQR, min and n.
    pub fn timing(&mut self, key: &str, s: &Summary) -> &mut Self {
        let value = format!(
            "{{\"median\": {}, \"iqr\": {}, \"min\": {}, \"n\": {}}}",
            number(s.median),
            number(s.iqr()),
            number(s.min),
            s.n
        );
        self.push(key, value)
    }

    fn push(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((format!("{key:?}"), value));
        self
    }

    /// The JSON text, one field per line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  {k}: {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Writes the report to `file_name` at the repository root.
    pub fn write(&self, file_name: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file_name);
        match std::fs::write(&path, self.render()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `target-cpu` the workspace's `.cargo/config.toml` builds for.
pub fn target_cpu() -> &'static str {
    const CONFIG: &str = include_str!("../../../.cargo/config.toml");
    CONFIG
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .find_map(|line| line.split("target-cpu=").nth(1))
        .and_then(|rest| rest.split(['"', ' ']).next())
        .unwrap_or("default")
}

/// A JSON number with four significant digits (`null` if not finite).
fn number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let decimals = (3 - x.abs().max(1e-9).log10().floor() as i32).clamp(0, 6) as usize;
    let s = format!("{x:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn summary_has_known_median_and_quartiles() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 3.0, 5.0, 7.0, 9));
        assert_eq!(s.iqr(), 4.0);
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        let one = Summary::of(&[3.5]);
        assert_eq!((one.min, one.q1, one.median, one.q3), (3.5, 3.5, 3.5, 3.5));
    }

    #[test]
    fn time_ab_reverses_arm_order_every_round() {
        let log = RefCell::new(Vec::new());
        let (mut a, mut b) = (|| log.borrow_mut().push('a'), || log.borrow_mut().push('b'));
        let ab = time_ab(Duration::ZERO, 4, [&mut a, &mut b]);
        let mut runs = log.into_inner();
        runs.dedup();
        // Rounds a|b, b|a, a|b, b|a: adjacent rounds join on the same arm.
        assert_eq!(runs, ['a', 'b', 'a', 'b', 'a']);
        assert_eq!(ab.delta_pct.n, 4);
        assert!(ab.a.n >= 4 && ab.b.n >= 4);
    }

    #[test]
    fn budget_defaults_and_overrides() {
        assert_eq!(budget_from(None), Duration::from_millis(DEFAULT_BUDGET_MS));
        assert_eq!(budget_from(Some("garbage")), Duration::from_millis(300));
        assert_eq!(budget_from(Some("20")), Duration::from_millis(20));
    }

    #[test]
    fn time_reports_at_least_one_sample() {
        let mut calls = 0u64;
        let s = time(Duration::ZERO, || calls += 1);
        assert!(s.n >= 1 && calls > s.n as u64);
        assert!(s.min >= 0.0 && s.min <= s.median);
    }

    #[test]
    fn report_is_json_with_the_header_first() {
        let mut report = Report::new("unit", Duration::from_millis(20));
        report
            .num("ratio", 2.2857)
            .int("count", 7)
            .flag("pass", true)
            .text("variant", "mr8nr8")
            .timing("x_us", &Summary::of(&[1.0, 2.0, 3.0]));
        let expected = [
            "{".to_string(),
            "  \"benchmark\": \"unit\",".into(),
            format!("  \"cores\": {},", cores()),
            "  \"target_cpu\": \"x86-64-v3\",".into(),
            "  \"budget_ms\": 20,".into(),
            "  \"ratio\": 2.286,".into(),
            "  \"count\": 7,".into(),
            "  \"pass\": true,".into(),
            "  \"variant\": \"mr8nr8\",".into(),
            "  \"x_us\": {\"median\": 2, \"iqr\": 1, \"min\": 1, \"n\": 3}".into(),
            "}".into(),
        ];
        assert_eq!(report.render(), expected.join("\n") + "\n");
    }

    #[test]
    fn numbers_keep_four_significant_digits() {
        assert_eq!(number(287_985.4), "287985");
        assert_eq!(number(816.94), "816.9");
        assert_eq!(number(0.2), "0.2");
        assert_eq!(number(-3.7612), "-3.761");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(f64::NAN), "null");
    }
}
