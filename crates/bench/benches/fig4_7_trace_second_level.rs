//! Fig. 4.7 — impact of the second-level buffer size for the real-life
//! (trace) workload, 1,000-page main-memory buffer.

mod common;

use tpsim::presets::{self, TraceStorage};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_trace;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_7_trace_second_level");
    for size in [1_000usize, 4_000] {
        for (label, storage) in [
            ("vol_disk_cache", TraceStorage::VolatileDiskCache(size)),
            ("nv_disk_cache", TraceStorage::NonVolatileDiskCache(size)),
            ("nvem_cache", TraceStorage::NvemCache(size)),
        ] {
            group.bench_function(format!("{label}/{size}"), |b| {
                b.iter(|| {
                    let report = run_trace(
                        &settings,
                        presets::trace_config(1_000, storage, settings.trace_rate),
                    );
                    black_box((report.response_time.mean, report.nvem_hit_ratio()))
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
