//! Sharded version storage: multi-writer stress over one table, cursor
//! pinning at shard granularity, and the S=1-vs-S>1 equivalence
//! contract. The shard count only picks the arena layout — S=1 is a
//! one-arena layout over the same append and commit code — so a
//! single-threaded session must observe *byte-identical* results
//! (including row order and error text) whatever the shard count,
//! because home-shard routing keeps one thread's appends in one arena.
//! Run in release mode by CI's concurrency step and swept by the
//! `PGFMU_TABLE_SHARDS` matrix.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use pgfmu_sqlmini::{params, Database, Value};

/// Disjoint-range writers (auto-commit, transactional, and rolled-back
/// rounds) churn one table from four threads while streaming readers and
/// a vacuum loop run against it. Snapshot isolation: every streamed row
/// must satisfy the writers' `v = 2k` invariant, and the final multiset
/// of keys is exactly the committed inserts.
#[test]
fn disjoint_writers_with_readers_and_vacuum() {
    const WRITERS: usize = 4;
    const PER_WRITER: i64 = 300;
    let db = Database::with_table_shards(8);
    db.execute("CREATE TABLE u (k int, v int)").unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    let ins = db.prepare("INSERT INTO u VALUES ($1, $2)").unwrap();
                    let base = w as i64 * 10_000;
                    for i in 0..PER_WRITER {
                        let k = base + i;
                        match i % 10 {
                            // Transactional rounds ride group commit.
                            3 => {
                                db.execute("BEGIN").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                                db.execute("COMMIT").unwrap();
                            }
                            // Rolled-back rounds must leave no trace:
                            // re-insert the key afterwards so the final
                            // key set stays dense.
                            7 => {
                                db.execute("BEGIN").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                                db.execute("ROLLBACK").unwrap();
                                ins.query(params![k, 2 * k]).unwrap();
                            }
                            _ => {
                                ins.query(params![k, 2 * k]).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut n = 0i64;
                    for r in db.query_rows("SELECT k, v FROM u", &[]).unwrap() {
                        let r = r.unwrap();
                        let (k, v) = (r[0].as_i64().unwrap(), r[1].as_i64().unwrap());
                        assert_eq!(v, 2 * k, "torn row: k={k} v={v}");
                        n += 1;
                    }
                    assert!(n <= WRITERS as i64 * PER_WRITER);
                }
            });
        }
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.vacuum();
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let q = db
        .execute("SELECT count(*), sum(k), sum(v) FROM u")
        .unwrap();
    let expect_n = WRITERS as i64 * PER_WRITER;
    let expect_k: i64 = (0..WRITERS as i64)
        .flat_map(|w| (0..PER_WRITER).map(move |i| w * 10_000 + i))
        .sum();
    assert_eq!(q.rows[0][0], Value::Int(expect_n));
    assert_eq!(q.rows[0][1], Value::Float(expect_k as f64));
    assert_eq!(q.rows[0][2], Value::Float(2.0 * expect_k as f64));
    let (shards, _, group_commits, _) = db.shard_stats();
    assert_eq!(shards, 8);
    assert!(
        group_commits >= 1,
        "transactional rounds at S>1 must go through group commit"
    );
}

/// A half-open streaming cursor pins version storage at shard
/// granularity. Whichever shards vacuum reclaims mid-stream (drained
/// ones may compact; the one being drained may not), the cursor's
/// snapshot must stream back complete and untorn even though a
/// transactional DELETE killed every row under it.
#[test]
fn mid_stream_vacuum_never_disturbs_the_cursor_snapshot() {
    const N: i64 = 512;
    let db = Database::with_table_shards(8);
    db.execute("CREATE TABLE t (k int)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES ($1)").unwrap();
    // Two writer threads so the rows straddle more than one home shard
    // (each thread appends to its own arena).
    std::thread::scope(|s| {
        for w in 0..2 {
            let ins = &ins;
            s.spawn(move || {
                for i in 0..N / 2 {
                    ins.query(params![w * (N / 2) + i]).unwrap();
                }
            });
        }
    });
    let mut rows = db.query_rows("SELECT k FROM t", &[]).unwrap();
    let mut sum = 0i64;
    // Consume a bit, then kill every row the cursor still has to read.
    // The cursor's snapshot predates the DELETE, and streaming cursors
    // pin shards, not the GC watermark — so the pin is the only thing
    // keeping vacuum away from versions the stream still needs.
    sum += rows.next().unwrap().unwrap()[0].as_i64().unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM t").unwrap();
    db.execute("COMMIT").unwrap();
    db.vacuum();
    for r in rows {
        sum += r.unwrap()[0].as_i64().unwrap();
    }
    assert_eq!(sum, (0..N).sum::<i64>(), "cursor lost or repeated rows");
    // With the cursor gone, the dead versions are fully reclaimable.
    db.vacuum();
    assert!(db.gc_stats() >= N as u64, "gc_stats {}", db.gc_stats());
    assert_eq!(
        db.execute("SELECT count(*) FROM t").unwrap().rows[0][0],
        Value::Int(0)
    );
}

/// Every shard count commits both a transaction and a streamed
/// auto-commit `INSERT … SELECT` through one group-commit round each.
#[test]
fn commits_go_through_group_commit_at_one_shard() {
    let db = Database::with_table_shards(1);
    db.execute("CREATE TABLE t (k int)").unwrap();
    let rounds = || {
        db.execute("SELECT value FROM pgfmu_stats() WHERE stat = 'group_commits'")
            .unwrap()
            .rows[0][0]
            .as_i64()
            .unwrap()
    };
    let r0 = rounds();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(rounds(), r0 + 1, "COMMIT is one group-commit round");
    db.execute("INSERT INTO t SELECT * FROM generate_series(2, 9)")
        .unwrap();
    assert_eq!(
        rounds(),
        r0 + 2,
        "a streamed auto-commit INSERT … SELECT is one group-commit round"
    );
    assert_eq!(
        db.execute("SELECT count(*) FROM t").unwrap().rows[0][0],
        Value::Int(9)
    );
}

/// One step of the equivalence script: the same statement is applied to
/// the S=1 and the S=8 database.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    /// `INSERT … SELECT` streamed from `generate_series(lo, hi)`.
    InsertSeries {
        lo: i64,
        hi: i64,
    },
    /// One [`Database::insert_rows`] batch.
    Load(Vec<i64>),
    Update {
        mul: i64,
        lo: i64,
        hi: i64,
    },
    Delete {
        lo: i64,
        hi: i64,
    },
    /// BEGIN; a write per key; COMMIT or ROLLBACK.
    Txn {
        keys: Vec<i64>,
        commit: bool,
    },
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        proptest::collection::vec(0i64..400, 1..8).prop_map(Op::Insert),
        (2i64..5, 0i64..400, 1i64..200).prop_map(|(mul, lo, w)| Op::Update {
            mul,
            lo,
            hi: lo + w,
        }),
        (0i64..400, 1i64..60).prop_map(|(lo, w)| Op::Delete { lo, hi: lo + w }),
        (0i64..400, 0i64..8).prop_map(|(lo, w)| Op::InsertSeries { lo, hi: lo + w }),
        proptest::collection::vec(0i64..400, 1..8).prop_map(Op::Load),
        (proptest::collection::vec(0i64..400, 1..5), 0i64..2).prop_map(|(keys, commit)| Op::Txn {
            keys,
            commit: commit == 1,
        }),
    ]
    .boxed()
}

/// Apply the script, returning each statement's outcome — `ok` or the
/// error text — so failures are compared as well as final rows.
fn apply(db: &Database, ops: &[Op]) -> Vec<String> {
    let ins = db.prepare("INSERT INTO e VALUES ($1, $2)").unwrap();
    let mut out = Vec::new();
    let mut note = |r: pgfmu_sqlmini::Result<()>| {
        out.push(r.map_or_else(|e| e.to_string(), |()| "ok".into()));
    };
    for op in ops {
        match op {
            Op::Insert(keys) => {
                for &k in keys {
                    note(ins.query(params![k, 10 * k]).map(drop));
                }
            }
            Op::InsertSeries { lo, hi } => note(
                db.query(
                    "INSERT INTO e SELECT g, 10 * g FROM generate_series($1, $2) AS g",
                    params![*lo, *hi],
                )
                .map(drop),
            ),
            Op::Load(keys) => note(
                db.insert_rows(
                    "e",
                    keys.iter()
                        .map(|&k| vec![Value::Int(k), Value::Int(10 * k)])
                        .collect(),
                )
                .map(drop),
            ),
            Op::Update { mul, lo, hi } => note(
                db.query(
                    "UPDATE e SET v = v * $1 WHERE k >= $2 AND k < $3",
                    params![*mul, *lo, *hi],
                )
                .map(drop),
            ),
            Op::Delete { lo, hi } => note(
                db.query("DELETE FROM e WHERE k >= $1 AND k < $2", params![*lo, *hi])
                    .map(drop),
            ),
            Op::Txn { keys, commit } => {
                db.execute("BEGIN").unwrap();
                for &k in keys {
                    note(ins.query(params![k, 10 * k]).map(drop));
                }
                db.execute(if *commit { "COMMIT" } else { "ROLLBACK" })
                    .unwrap();
            }
        }
    }
    out
}

/// Everything a session can observe, in raw scan order: un-ORDERed
/// SELECT output (both materialized and streamed), an aggregate, and the
/// point-probe answers with the planner's index choice on and off.
fn observe(db: &Database) -> Vec<Vec<Value>> {
    let mut out = db.query("SELECT k, v FROM e", &[]).unwrap().rows;
    out.extend(
        db.query_rows("SELECT v, k FROM e", &[])
            .unwrap()
            .map(|r| r.unwrap()),
    );
    out.extend(
        db.query("SELECT count(*), sum(v) FROM e", &[])
            .unwrap()
            .rows,
    );
    db.execute("CREATE INDEX e_k ON e (k)").unwrap();
    for probe in [7i64, 100, 399] {
        let ix = db
            .query("SELECT v FROM e WHERE k = $1", params![probe])
            .unwrap()
            .rows;
        db.set_index_access_enabled(false);
        let seq = db
            .query("SELECT v FROM e WHERE k = $1", params![probe])
            .unwrap()
            .rows;
        db.set_index_access_enabled(true);
        assert_eq!(ix, seq, "index scan diverged from seq scan at k={probe}");
        out.extend(ix);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shard count is invisible to a single-threaded session: the
    /// same DML script — row, streamed and loader inserts, updates,
    /// deletes, transactions — produces byte-identical observations
    /// (including raw scan order) at S=1 and S=8, through rollbacks,
    /// index probes and a final vacuum. With a unique index on `k` the
    /// script's duplicate inserts fail, and they must fail with the same
    /// error text at the same statements.
    #[test]
    fn single_threaded_session_is_identical_at_any_shard_count(
        ops in proptest::collection::vec(arb_op(), 1..12),
        unique in 0i64..2,
    ) {
        let one = Database::with_table_shards(1);
        let eight = Database::with_table_shards(8);
        for db in [&one, &eight] {
            db.execute("CREATE TABLE e (k int, v int)").unwrap();
            if unique == 1 {
                db.execute("CREATE UNIQUE INDEX e_uk ON e (k)").unwrap();
            }
        }
        let outcomes = apply(&one, &ops);
        prop_assert!(
            unique == 1 || outcomes.iter().all(|o| o == "ok"),
            "without a unique index every statement succeeds: {:?}",
            outcomes
        );
        prop_assert_eq!(outcomes, apply(&eight, &ops));
        prop_assert_eq!(observe(&one), observe(&eight));
        one.vacuum();
        eight.vacuum();
        prop_assert_eq!(
            one.query("SELECT k, v FROM e", &[]).unwrap().rows,
            eight.query("SELECT k, v FROM e", &[]).unwrap().rows,
            "post-vacuum scan order diverged"
        );
    }
}
