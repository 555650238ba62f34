//! The benchmark measures the same program as the legacy benches: with
//! the legacy seeds, the scale cells reproduce the n = 256 rows of
//! `BENCH_scale.json` and the KV figures reproduce `BENCH_kv.json`.
//! Run with `cargo test --release` (the cells are n = 256 worlds).

use perfbench::stats::percentile;
use perfbench::{kv, scale};

fn legacy(file: &str) -> serde::Value {
    let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn scale_cells_reproduce_the_bench_scale_rows() {
    let bench = legacy("BENCH_scale.json");
    let serde::Value::Arr(rows) = bench.field("cells") else {
        panic!("BENCH_scale.json has no cells array");
    };
    for cell in scale::CELLS {
        let (class, net) = cell.row_key();
        let row = rows
            .iter()
            .find(|r| {
                r.field("n").as_u64() == Some(scale::N as u64)
                    && r.field("class").as_str() == Some(class)
                    && r.field("net").as_str() == Some(net)
            })
            .unwrap_or_else(|| panic!("no n={} {class}/{net} row", scale::N));
        let seeds = row.field("seeds").as_u64().expect("row has a seed count");
        let runs = scale::runs(&cell, 0..seeds);
        assert!(
            runs.iter().all(|(_, r)| r.violation.is_none()),
            "{}: monitor failed",
            cell.key
        );
        let (digest, events, messages) = scale::fold(&runs);
        assert_eq!(
            Some(format!("{digest:016x}").as_str()),
            row.field("digest").as_str(),
            "{} digest",
            cell.key
        );
        assert_eq!(
            row.field("events").as_u64(),
            Some(events),
            "{} events",
            cell.key
        );
        assert_eq!(
            row.field("messages").as_u64(),
            Some(messages),
            "{} messages",
            cell.key
        );
    }
}

#[test]
fn kv_figures_reproduce_bench_kv() {
    let bench = legacy("BENCH_kv.json");
    let seeds = bench
        .field("seeds")
        .as_u64()
        .expect("BENCH_kv.json has a seed count");
    assert_eq!(
        seeds,
        kv::SIM_SEEDS,
        "the benchmark's simulated sample is the legacy one"
    );
    for class in kv::CLASSES {
        let row = bench.field("detectors").field(class.key);
        let (sim, failed) = kv::class_sim(&class, 0..seeds);
        assert_eq!(failed, 0, "{}: monitor failures", class.key);
        let commit = row.field("commit_us");
        assert_eq!(
            commit.field("count").as_u64(),
            Some(sim.commit_us.len() as u64),
            "{} commits",
            class.key
        );
        assert_eq!(
            commit.field("p50").as_u64(),
            percentile(&sim.commit_us, 500),
            "{} commit p50",
            class.key
        );
        assert_eq!(
            commit.field("p99").as_u64(),
            percentile(&sim.commit_us, 990),
            "{} commit p99",
            class.key
        );
        let blackout = row.field("blackout_us");
        assert_eq!(
            blackout.field("p50").as_u64(),
            percentile(&sim.blackout_us, 500),
            "{} blackout p50",
            class.key
        );
        // The legacy commit count leaves out the ops that never commit.
        assert_eq!(
            sim.scheduled - sim.uncommitted,
            sim.commit_us.len() as u64,
            "{}: every scheduled op either commits once or is counted as failed",
            class.key
        );
    }
}
