//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a table naming every metric with its unit and sample basis,
//! then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A plain run of one
//! workload reports the shared end-to-end metrics (`setup_s`,
//! `peak_rss_mb`, `throughput_per_s`); the traced run reports every
//! per-layer metric of every workload and writes its spans to
//! `<CARGO_TARGET_DIR or perfbench/target>/perfbench/spans-seed<N>.jsonl`.
//! Exits 1 on any correctness failure, 2 on bad arguments.

use perfbench::report::{json_line, render, Outcome};
use perfbench::spans::Spans;
use perfbench::{traced, Opts, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: fd_obs::CountingAllocator = fd_obs::CountingAllocator;

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
    };
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {} or all",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts,
        trace,
    })
}

fn spans_path(seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench")
        .join(format!("spans-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = args.opts;
    let (total, keyed) = if args.trace {
        let mut spans = Spans::new();
        let mut total = Outcome::default();
        for (name, out) in traced(&opts, &mut spans) {
            print!(
                "{}",
                render(
                    &format!("{name} (traced profile, seed {})", opts.seed),
                    &out
                )
            );
            total.absorb(out);
        }
        let path = spans_path(opts.seed);
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => total.problem(format!("writing spans to {}: {e}", path.display())),
        }
        (total, false)
    } else {
        let mut total = Outcome::default();
        for w in WORKLOADS
            .iter()
            .filter(|w| args.workload == "all" || w.name == args.workload)
        {
            let mut out = (w.run)(&opts);
            print!(
                "{}",
                render(
                    &format!("{} (seed {}, {} s)", w.name, opts.seed, opts.seconds),
                    &out
                )
            );
            if args.workload == "all" {
                for m in &mut out.metrics {
                    m.name = format!("{}.{}", w.name, m.name);
                }
            }
            total.absorb(out);
        }
        // One workload's result carries the shared end-to-end keys; the
        // combined result of `all` names every figure by workload.
        (total, args.workload != "all")
    };
    println!("{}", json_line(&total, keyed));
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
