//! Run every experiment (E1–E8), print all tables, and refresh the
//! kernel benchmark (`BENCH_kernel.json`).

// Counted allocations feed the `allocs_per_event` field of
// BENCH_kernel.json; one relaxed atomic increment per allocation.
#[global_allocator]
static ALLOC: fd_obs::CountingAllocator = fd_obs::CountingAllocator;

fn write_json(path: &str, v: &serde::Value) {
    match serde_json::to_string_pretty(v) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("({path} export failed: {e})");
            }
        }
        Err(e) => eprintln!("({path} serialize failed: {e})"),
    }
}

fn main() {
    for table in fd_bench::experiments::run_all() {
        table.emit();
    }
    let bench = fd_bench::campaign::kernel_bench(1000);
    let path = "BENCH_kernel.json";
    write_json(path, &bench);
    println!(
        "kernel bench: {} events in {:.2}s ({:.0} events/sec) → {path}",
        bench.field("events").as_u64().unwrap_or(0),
        bench.field("wall_ns").as_u64().unwrap_or(0) as f64 / 1e9,
        bench.field("events_per_sec").as_f64().unwrap_or(0.0),
    );
}
