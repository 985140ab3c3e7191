//! pgfmu-rs benchmark: two workloads built from a seed, each checked
//! for correctness, reporting end-to-end metrics from an untraced run
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_simulate --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a readable report (host fingerprint, checks, every metric with
//! its unit).

mod calibrate;
mod fleet;
mod host;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use pgfmu_sqlmini::Database;

/// Workloads the benchmark runs.
const WORKLOADS: &[&str] = &["calibrate_mi", "fleet_simulate"];

/// End-to-end metrics, printed on every workload by an untraced run:
/// `(name, unit)`. Mirrors the `end_to_end` list of BENCHMARK.json.
///
/// * `setup_s`: median time to build the workload's state from nothing.
/// * `round_s`: median wall time of one round of the workflow the
///   workload measures (store, calibrate, simulate and validate on
///   `calibrate_mi`; reset, simulate-and-store and validate on
///   `fleet_simulate`).
/// * `validate_s`: the SQL validation part of a round, the analytic
///   read over the stored simulation output.
/// * `peak_rss_mb`: the process's peak resident set.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s", "s"),
    ("validate_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed on every workload by a traced run (0 where
/// the layer does no work on that workload). Mirrors the `per_layer`
/// list of BENCHMARK.json. Counts are per round.
const PER_LAYER: &[(&str, &str)] = &[
    ("sqlmini.stmt_cache_hit_ratio", "ratio"),
    ("sqlmini.plan_cache_hit_ratio", "ratio"),
    ("sqlmini.insert_rows_s", "rows/s"),
    ("sqlmini.validate_query_s", "s"),
    ("sqlmini.vectorized_share", "ratio"),
    ("sqlmini.hash_joins", "count"),
    ("sqlmini.vacuum_ms", "ms"),
    ("fmi.simulate_us", "us"),
    ("fmi.output_points", "count"),
    ("core.simulate_us", "us"),
    ("core.simulate_input_read_us", "us"),
    ("core.fleet_task_s", "s"),
    ("core.fleet_parallel_eff", "ratio"),
    ("core.parest_input_read_us", "us"),
    ("catalog.instantiate_us", "us"),
    ("catalog.reset_us", "us"),
    ("catalog.update_values_us", "us"),
    ("catalog.copy_us", "us"),
    ("estimation.global_evals", "count"),
    ("estimation.local_evals", "count"),
    ("estimation.global_s", "s"),
    ("estimation.local_s", "s"),
    ("estimation.eval_us", "us"),
    ("estimation.lo_share", "ratio"),
    ("modelica.compile_ms", "ms"),
    ("datagen.generate_ms", "ms"),
    ("datagen.load_ms", "ms"),
    ("failed_ops_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("host.ref_kernel_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Counts every attempted operation and keeps the first few errors.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    /// Count one operation's result; `None` when it failed.
    pub fn check<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks (all must hold).
    pub checks: Vec<(String, bool)>,
    pub ops: Ops,
    /// End-to-end metric values by name (untraced run).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced run).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Readable report lines.
    pub notes: Vec<String>,
    /// Spans to write out (traced run).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// `pgfmu_stats()` read through SQL: the surface the benchmark asserts
/// its path claims against.
pub fn sql_stats(db: &Database) -> SqlStats {
    let rows: Vec<(String, i64)> = db.query_as("SELECT stat, value FROM pgfmu_stats()", &[])?;
    Ok(rows.into_iter().collect())
}

/// One read of `pgfmu_stats()`: counter name → value.
pub type SqlStats = Result<BTreeMap<String, i64>, pgfmu_sqlmini::SqlError>;

/// Counter deltas `after − before` of two `pgfmu_stats()` reads (counters
/// absent before count from 0). A failed read fails a check instead.
pub fn stats_delta(
    out: &mut Outcome,
    before: SqlStats,
    after: SqlStats,
) -> Option<BTreeMap<String, i64>> {
    match (before, after) {
        (Ok(b), Ok(a)) => Some(
            a.iter()
                .map(|(k, v)| (k.clone(), v - b.get(k).copied().unwrap_or(0)))
                .collect(),
        ),
        (b, a) => {
            out.check("pgfmu_stats readable", false);
            if let Err(e) = b.and(a) {
                out.note(format!("pgfmu_stats: {e}"));
            }
            None
        }
    }
}

/// The set-up times of a run; `setup_s` is their median.
///
/// A workload builds the state it measures once, then builds (and drops)
/// further copies between its rounds, so the set-ups sample the host
/// over the same stretch of time as the rounds. Nine set-ups back to
/// back at the start of a run fell into whichever speed the shared host
/// was in for that second, and their median spread 0.14–0.35 from run
/// to run.
#[derive(Default)]
pub struct Setups {
    secs: Vec<f64>,
}

impl Setups {
    /// Build a workload's state once, timed.
    pub fn time<T>(&mut self, build: impl FnOnce() -> Option<T>) -> Option<T> {
        let t0 = Instant::now();
        let state = build();
        self.secs.push(t0.elapsed().as_secs_f64());
        state
    }

    /// Build and drop `n` copies of a workload's state, timed.
    pub fn extra<T>(&mut self, n: usize, mut build: impl FnMut() -> Option<T>) {
        for _ in 0..n {
            drop(self.time(&mut build));
        }
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.secs.len()
    }

    /// Record `setup_s` and a report line with the set-ups' quartiles.
    pub fn report(&self, out: &mut Outcome) {
        out.end_to_end.insert("setup_s", stats::median(&self.secs));
        if let Some([q1, q2, q3]) = stats::quartiles(&self.secs) {
            out.note(format!(
                "setup_s over {} set-ups: quartiles {q1:.4} / {q2:.4} / {q3:.4} s",
                self.count()
            ));
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer figures every workload derives the same way from its
/// `pgfmu_stats()` deltas; `per` normalizes counts (rounds or seconds).
pub fn sqlmini_counter_metrics(out: &mut Outcome, d: &BTreeMap<String, i64>, per: f64) {
    let g = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let m = &mut out.per_layer;
    m.insert(
        "sqlmini.stmt_cache_hit_ratio",
        ratio(g("cache_hits"), g("cache_hits") + g("parses")),
    );
    m.insert(
        "sqlmini.plan_cache_hit_ratio",
        ratio(
            g("plan_cache_hits"),
            g("plan_cache_hits") + g("plans_built"),
        ),
    );
    m.insert(
        "sqlmini.vectorized_share",
        ratio(
            g("vectorized_ops"),
            g("vectorized_ops") + g("vectorized_fallbacks"),
        ),
    );
    m.insert("sqlmini.hash_joins", ratio(g("hash_joins"), per));
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory, which the repository ignores.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <calibrate_mi|fleet_simulate> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let ref_ms = host::reference_kernel_ms();
    println!(
        "# host cores={} cpu=\"{}\" rustc=\"{}\" ref_kernel_ms={:.3}",
        host::cores(),
        host::cpu_model(),
        host::rustc_version(),
        ref_ms
    );
    println!(
        "# run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut out = match args.workload.as_str() {
        "calibrate_mi" => calibrate::run(&args),
        "fleet_simulate" => fleet::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    out.end_to_end.insert("peak_rss_mb", host::peak_rss_mb());
    out.per_layer.insert("host.ref_kernel_ms", ref_ms);
    out.per_layer.insert(
        "failed_ops_frac",
        ratio(out.ops.failed as f64, out.ops.attempted as f64),
    );

    for line in &out.notes {
        println!("# {line}");
    }
    for e in &out.ops.errors {
        println!("# error {e}");
    }
    let mut correct = out.ops.failed == 0;
    for (name, ok) in &out.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
        correct &= ok;
    }
    if args.trace {
        let path = trace_path(&args);
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => println!("# spans {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let source = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match source.get(name) {
            Some(v) => *v,
            // Untraced runs must produce every end-to-end metric; a layer
            // idle on this workload reports 0.
            None if args.trace => 0.0,
            None => {
                println!("# metric {name} missing");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            println!("# metric {name} is not finite");
            correct = false;
            0.0
        };
        println!("# metric {name} = {value:.6} {unit}");
        // `{:?}` prints the shortest text that reads back to the same f64.
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("# total {:.1} s", t0.elapsed().as_secs_f64());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.attempted,
        out.ops.failed,
        fields.join(", ")
    );
}
