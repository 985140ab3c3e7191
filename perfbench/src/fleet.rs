//! `fleet_simulate`: 100 builtin-HP1 instances, each with its own
//! (Cp, R) scenario, simulated over one shared 672 h input table; the
//! long output is stored in SQL and validated against the measured
//! indoor temperature with a hash join and a grouped rollup.
//!
//! A round resets every instance and re-applies its scenario (the
//! solver persists final states), clears the previous output, then runs
//! `INSERT INTO pred SELECT * FROM fmu_simulate_fleet(…)` and the two
//! validation statements. `estimation` does no work here.

use std::time::Instant;

use pgfmu::convert::decode_rows;
use pgfmu::{params, PgFmu, QueryResult, Value};
use pgfmu_datagen::hp::hp1_dataset;
use pgfmu_fmi::{InputSeries, InputSet, Interpolation, SimulationOptions};

use crate::stats::{median, quartiles, Rng};
use crate::trace::{child_coverage, layers, Tracer, NO_ROUND};
use crate::{
    host, ratio, sql_stats, sqlmini_counter_metrics, stats_delta, Args, Ops, Outcome, Setups,
};

/// Fleet size.
pub const INSTANCES: usize = 100;
/// Instances the traced run probes layer by layer after its rounds.
const PROBES: usize = 10;
/// RMSE bound (°C) for the instance that carries the true parameters:
/// the dataset's measurement noise is σ = 0.54 °C.
const TRUTH_RMSE_BOUND: f64 = 1.0;
/// Series HP1 reports per grid point: state `x` and output `y`.
const OUTPUT_VARS: usize = 2;
/// Extra set-ups timed after each round (see [`Setups`]).
const SETUPS_PER_ROUND: usize = 1;

const INPUT_SQL: &str = "SELECT ts, u FROM measurements";
const SIM_STORE_SQL: &str =
    "INSERT INTO pred SELECT * FROM fmu_simulate_fleet($1, $2, NULL, NULL, $3)";
const VALIDATE_JOIN_SQL: &str = "SELECT p.instanceid, count(*), \
     sqrt(avg((p.value - m.x) * (p.value - m.x))) \
     FROM pred p JOIN measurements m ON p.simulationtime = m.ts \
     WHERE p.varname = 'x' GROUP BY p.instanceid ORDER BY p.instanceid";
const VALIDATE_ROLLUP_SQL: &str = "SELECT instanceid, count(*), min(value), max(value) \
     FROM pred WHERE varname = 'x' GROUP BY instanceid ORDER BY instanceid";

struct Fleet {
    s: PgFmu,
    ids: Vec<String>,
    /// `{id,id,…}` array literal for the fleet UDF.
    id_array: String,
    /// Per-instance (Cp, R) scenario.
    scenario: Vec<[(String, f64); 2]>,
    /// Measurement samples (one per simulated grid point).
    samples: usize,
}

fn setup(seed: u64, tr: &mut Tracer, ops: &mut Ops) -> Option<Fleet> {
    let data = tr.span("datagen.generate", |_| hp1_dataset(seed));
    let s = ops.check("session", PgFmu::new())?;
    ops.check(
        "load measurements",
        tr.span("datagen.load", |_| data.load_into(s.db(), "measurements")),
    )?;
    ops.check(
        "create pred",
        s.execute(
            "CREATE TABLE pred (simulationtime timestamp, instanceid text, \
             varname text, value float)",
        ),
    )?;
    let ids: Vec<String> = (0..INSTANCES).map(|i| format!("hp_{i:03}")).collect();
    ops.check(
        "fmu_create",
        tr.span("catalog.create", |_| s.fmu_create("HP1", Some(&ids[0]))),
    )?;
    for id in &ids[1..] {
        ops.check(
            "fmu_copy",
            tr.span("catalog.copy", |_| s.fmu_copy(&ids[0], Some(id))),
        )?;
    }
    // Instance 0 carries the true parameters; the rest are what-if
    // scenarios around them.
    let mut rng = Rng::new(seed, 0xF1EE7);
    let scenario = (0..INSTANCES)
        .map(|i| {
            let (cp, r) = if i == 0 {
                (1.5, 1.5)
            } else {
                (rng.range(1.0, 2.0), rng.range(1.0, 2.0))
            };
            [("Cp".to_string(), cp), ("R".to_string(), r)]
        })
        .collect();
    Some(Fleet {
        id_array: format!("{{{}}}", ids.join(",")),
        s,
        ids,
        scenario,
        samples: data.len(),
    })
}

/// Rewind every instance to its declared start values and re-apply its
/// scenario.
fn reset_fleet(f: &Fleet, tr: &mut Tracer, ops: &mut Ops) {
    for (id, sc) in f.ids.iter().zip(&f.scenario) {
        ops.check("fmu_reset", tr.span("catalog.reset", |_| f.s.fmu_reset(id)));
        ops.check(
            "update_values",
            tr.span("catalog.update_values", |_| {
                f.s.catalog().update_values(id, sc)
            }),
        );
    }
}

/// Timings and results of one round.
struct Round {
    /// The reset part of `sim_store_s`.
    reset_s: f64,
    sim_store_s: f64,
    validate_s: f64,
    join: QueryResult,
    rollup: QueryResult,
    /// Fleet task time and wall time of the simulate step (traced rounds).
    fleet_task_ns: u64,
    fleet_wall_ns: u64,
    rows_stored: usize,
}

fn round(f: &Fleet, workers: usize, tr: &mut Tracer, ops: &mut Ops) -> Option<Round> {
    let db = f.s.db();
    tr.span("round", |tr| {
        let t0 = Instant::now();
        reset_fleet(f, tr, ops);
        let reset_s = t0.elapsed().as_secs_f64();
        ops.check(
            "delete pred",
            tr.span("sqlmini.delete", |_| f.s.execute("DELETE FROM pred")),
        )?;
        tr.span("sqlmini.vacuum", |_| db.vacuum());
        let (mut fleet_task_ns, mut fleet_wall_ns) = (0, 0);
        let rows_stored = if tr.enabled() {
            // The traced replay splits the statement into its two layers:
            // the fleet UDF's work and the bulk write of its output.
            let (_, _, task0) = db.fleet_stats();
            let w0 = Instant::now();
            let out = ops.check(
                "fmu_simulate_fleet",
                tr.span("core.simulate_fleet", |_| {
                    f.s.fmu_simulate_fleet(&f.ids, Some(INPUT_SQL), None, None, Some(workers))
                }),
            )?;
            fleet_wall_ns = w0.elapsed().as_nanos() as u64;
            fleet_task_ns = db.fleet_stats().2 - task0;
            ops.check(
                "insert_rows",
                tr.span("sqlmini.insert_rows", |_| db.insert_rows("pred", out.rows)),
            )?
        } else {
            let r = ops.check(
                "simulate and store",
                f.s.query(
                    SIM_STORE_SQL,
                    params![f.id_array.as_str(), INPUT_SQL, workers as i64],
                ),
            )?;
            r.rows
                .first()
                .and_then(|row| row.first())
                .and_then(|v| match v {
                    Value::Int(n) => Some(*n as usize),
                    _ => None,
                })?
        };
        let sim_store_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let join = ops.check(
            "validate join",
            tr.span("sqlmini.validate_join", |_| {
                f.s.query(VALIDATE_JOIN_SQL, &[])
            }),
        )?;
        let rollup = ops.check(
            "validate rollup",
            tr.span("sqlmini.validate_rollup", |_| {
                f.s.query(VALIDATE_ROLLUP_SQL, &[])
            }),
        )?;
        Some(Round {
            reset_s,
            sim_store_s,
            validate_s: t1.elapsed().as_secs_f64(),
            join,
            rollup,
            fleet_task_ns,
            fleet_wall_ns,
            rows_stored,
        })
    })
}

/// Checks on one round's validation output.
fn validation_ok(f: &Fleet, r: &Round) -> bool {
    let n = f.samples as i64;
    let join_ok = r.join.rows.len() == INSTANCES
        && r.join.rows.iter().zip(&f.ids).all(|(row, id)| {
            row[0] == Value::Text(id.clone())
                && row[1] == Value::Int(n)
                && matches!(row[2], Value::Float(e) if e.is_finite() && e >= 0.0)
        })
        && matches!(r.join.rows[0][2], Value::Float(e) if e < TRUTH_RMSE_BOUND);
    // Indoor temperatures stay physically plausible in every scenario.
    let rollup_ok = r.rollup.rows.len() == INSTANCES
        && r.rollup.rows.iter().all(|row| {
            row[1] == Value::Int(n)
                && matches!((&row[2], &row[3]), (Value::Float(lo), Value::Float(hi))
                    if *lo > -30.0 && *hi < 60.0)
        });
    join_ok && rollup_ok && r.rows_stored == INSTANCES * f.samples * OUTPUT_VARS
}

/// Traced-only probes of single layers on a few instances, outside the
/// rounds: catalogue instantiation, the input read, the bare solver and
/// the whole `fmu_simulate` UDF.
fn probes(f: &Fleet, tr: &mut Tracer, ops: &mut Ops) -> u64 {
    tr.set_round(NO_ROUND);
    reset_fleet(f, &mut Tracer::new(false, Instant::now()), ops);
    let mut points = 0;
    for id in f.ids.iter().take(PROBES) {
        let Some((_, inst)) = ops.check(
            "instantiate",
            tr.span("catalog.instantiate", |_| f.s.catalog().instantiate(id)),
        ) else {
            continue;
        };
        let Some(decoded) = ops.check(
            "input read",
            tr.span("core.simulate_input_read", |_| {
                let rows = f.s.query_rows(INPUT_SQL, &[])?;
                let cols = rows.columns().to_vec();
                decode_rows(&cols, rows)
            }),
        ) else {
            continue;
        };
        let u = decoded
            .columns
            .iter()
            .find(|(n, _)| n == "u")
            .map(|(_, c)| c.clone());
        let inputs = u
            .ok_or_else(|| "input query has no column u".to_string())
            .and_then(|u| {
                InputSeries::new("u", decoded.times_hours.clone(), u, Interpolation::Hold)
                    .and_then(|s| InputSet::bind(&["u"], vec![s]))
                    .map_err(|e| e.to_string())
            });
        let Some(inputs) = ops.check("bind inputs", inputs) else {
            continue;
        };
        let opts = SimulationOptions {
            start: decoded.times_hours.first().copied(),
            stop: decoded.times_hours.last().copied(),
            output_step: Some(decoded.times_hours[1] - decoded.times_hours[0]),
            ..Default::default()
        };
        if let Some(res) = ops.check(
            "simulate",
            tr.span("fmi.simulate", |_| inst.simulate(&inputs, &opts)),
        ) {
            points += (res.len() * res.names().len()) as u64;
        }
        ops.check(
            "fmu_simulate",
            tr.span("core.simulate", |_| {
                f.s.fmu_simulate(id, Some(INPUT_SQL), None, None)
            }),
        );
    }
    points / PROBES as u64
}

/// Rows of a result rendered with full float precision, for a
/// byte-level comparison.
fn render(q: &QueryResult) -> String {
    format!("{:?}", q.rows)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ops = Ops::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let workers = host::cores().min(2);

    let mut setups = Setups::default();
    let Some(f) = setups.time(|| setup(args.seed, &mut tr, &mut ops)) else {
        out.check("setup", false);
        out.ops = ops;
        return out;
    };

    let before = sql_stats(f.s.db());
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let start = Instant::now();
    let mut r = 0u32;
    // At least four rounds, so a traced run has two of each kind.
    while r < 4 || start.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates untraced and traced rounds; their
        // difference is the tracing overhead.
        let traced = args.trace && r % 2 == 1;
        tr.set_enabled(traced);
        tr.set_round(r);
        match round(&f, workers, &mut tr, &mut ops) {
            Some(x) => rounds.push((traced, x)),
            None => break,
        }
        tr.set_enabled(args.trace);
        tr.set_round(NO_ROUND);
        setups.extra(SETUPS_PER_ROUND, || setup(args.seed, &mut tr, &mut ops));
        r += 1;
    }
    tr.set_enabled(args.trace);
    let after = sql_stats(f.s.db());
    setups.report(&mut out);

    // Correctness, outside the timed rounds.
    let first = &rounds.first().map(|(_, x)| render(&x.join));
    out.check("rounds completed", rounds.len() >= 4);
    out.check(
        "validation (row counts, RMSE of the true-parameter instance, plausible range)",
        !rounds.is_empty() && rounds.iter().all(|(_, x)| validation_ok(&f, x)),
    );
    out.check(
        "every round validates identically",
        rounds.iter().all(|(_, x)| Some(render(&x.join)) == *first),
    );
    let stored = ops.check(
        "count pred",
        f.s.query_as::<i64>("SELECT count(*) FROM pred", &[]),
    );
    let quiet = &mut Tracer::new(false, epoch);
    reset_fleet(&f, quiet, &mut ops);
    let pooled = ops.check(
        "fleet reference",
        f.s.fmu_simulate_fleet(&f.ids, Some(INPUT_SQL), None, None, Some(workers)),
    );
    reset_fleet(&f, quiet, &mut ops);
    let mut serial: Option<QueryResult> = None;
    for id in &f.ids {
        if let Some(q) = ops.check(
            "serial simulate",
            f.s.fmu_simulate(id, Some(INPUT_SQL), None, None),
        ) {
            match serial.as_mut() {
                Some(acc) => acc.rows.extend(q.rows),
                None => serial = Some(q),
            }
        }
    }
    out.check(
        "fleet output byte-identical to the serial fmu_simulate loop",
        matches!((&pooled, &serial), (Some(a), Some(b)) if render(a) == render(b)),
    );
    out.check(
        "stored rows equal the fleet output",
        matches!((&stored, &pooled), (Some(n), Some(p)) if n.first() == Some(&(p.rows.len() as i64))),
    );

    let n_rounds = rounds.len().max(1) as f64;
    if let Some(d) = stats_delta(&mut out, before, after) {
        let g = |k: &str| d.get(k).copied().unwrap_or(0);
        out.check(
            "pgfmu_stats: every validation join hashed",
            g("hash_joins") >= rounds.len() as i64,
        );
        out.check("pgfmu_stats: rollups vectorized", g("vectorized_ops") > 0);
        out.check(
            "pgfmu_stats: one fleet task per instance per round",
            g("fleet_tasks") == (INSTANCES * rounds.len()) as i64,
        );
        out.note(format!(
            "pgfmu_stats deltas over {} rounds: hash_joins={} vectorized_ops={} \
             fleet_tasks={} fleet_task_ns={} versions_gc={} group_commits={}",
            rounds.len(),
            g("hash_joins"),
            g("vectorized_ops"),
            g("fleet_tasks"),
            g("fleet_task_ns"),
            g("versions_gc"),
            g("group_commits")
        ));
        sqlmini_counter_metrics(&mut out, &d, n_rounds);
        out.per_layer.insert(
            "core.fleet_task_s",
            ratio(g("fleet_task_ns") as f64 / 1e9, g("fleet_tasks") as f64),
        );
    }

    let sim_store: Vec<f64> = rounds.iter().map(|(_, x)| x.sim_store_s).collect();
    let validate: Vec<f64> = rounds.iter().map(|(_, x)| x.validate_s).collect();
    let whole: Vec<f64> = rounds
        .iter()
        .map(|(_, x)| x.sim_store_s + x.validate_s)
        .collect();
    out.end_to_end.insert("round_s", median(&whole));
    out.end_to_end.insert("validate_s", median(&validate));
    for (name, v) in [
        ("round_s", &whole),
        ("reset + simulate-and-store", &sim_store),
        ("validate_s", &validate),
    ] {
        if let Some([q1, q2, q3]) = quartiles(v) {
            out.note(format!("{name} quartiles {q1:.4} / {q2:.4} / {q3:.4} s"));
        }
    }
    out.note(format!(
        "instances={INSTANCES} samples={} workers={workers} rounds={}",
        f.samples,
        rounds.len()
    ));

    if args.trace {
        let points = probes(&f, &mut tr, &mut ops);
        let spans = tr.spans();
        let l = layers(spans);
        let get = |k: &str| l.get(k).copied().unwrap_or_default();
        let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, x)| x).collect();
        // Overhead over the parts both kinds of round run the same way:
        // the reset and the validation. (The traced simulate-and-store
        // replays the statement as two calls, a different path.)
        let same_path = |want: bool| -> Vec<f64> {
            rounds
                .iter()
                .filter(|(t, _)| *t == want)
                .map(|(_, x)| x.reset_s + x.validate_s)
                .collect()
        };
        let (plain, with) = (same_path(false), same_path(true));
        let n_traced = traced.len().max(1) as f64;
        let m = &mut out.per_layer;
        m.insert("catalog.copy_us", get("catalog.copy").self_us());
        m.insert("catalog.reset_us", get("catalog.reset").self_us());
        m.insert(
            "catalog.update_values_us",
            get("catalog.update_values").self_us(),
        );
        m.insert(
            "catalog.instantiate_us",
            get("catalog.instantiate").self_us(),
        );
        m.insert("core.simulate_us", get("core.simulate").self_us());
        m.insert(
            "core.simulate_input_read_us",
            get("core.simulate_input_read").self_us(),
        );
        m.insert("fmi.simulate_us", get("fmi.simulate").self_us());
        m.insert("fmi.output_points", points as f64);
        let stored: usize = traced.iter().map(|x| x.rows_stored).sum();
        m.insert(
            "sqlmini.insert_rows_s",
            ratio(
                stored as f64,
                get("sqlmini.insert_rows").self_ns as f64 / 1e9,
            ),
        );
        m.insert(
            "sqlmini.validate_query_s",
            (get("sqlmini.validate_join").total_ns + get("sqlmini.validate_rollup").total_ns)
                as f64
                / 1e9
                / n_traced,
        );
        m.insert(
            "sqlmini.vacuum_ms",
            get("sqlmini.vacuum").total_ns as f64 / 1e6 / n_traced,
        );
        let task_ns: u64 = traced.iter().map(|x| x.fleet_task_ns).sum();
        let wall_ns: u64 = traced.iter().map(|x| x.fleet_wall_ns).sum();
        m.insert(
            "core.fleet_parallel_eff",
            ratio(task_ns as f64, (workers as u64 * wall_ns) as f64),
        );
        m.insert(
            "datagen.generate_ms",
            get("datagen.generate").total_ns as f64 / 1e6 / setups.count() as f64,
        );
        m.insert(
            "datagen.load_ms",
            get("datagen.load").total_ns as f64 / 1e6 / setups.count() as f64,
        );
        m.insert("trace.coverage", child_coverage(spans, "round"));
        m.insert(
            "trace.overhead_pct",
            100.0 * (median(&with) / median(&plain) - 1.0),
        );
        out.spans = spans.to_vec();
    }
    out.ops = ops;
    out
}
