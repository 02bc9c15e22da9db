//! Fig. 4.6 — impact of the main-memory buffer size for the real-life (trace)
//! workload.

mod common;

use tpsim::presets::{self, TraceStorage};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_trace;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_6_trace_mm_sweep");
    let series = [
        ("mm_only", TraceStorage::MmOnly),
        (
            "vol_disk_cache_2000",
            TraceStorage::VolatileDiskCache(2_000),
        ),
        ("nvem_cache_2000", TraceStorage::NvemCache(2_000)),
        ("nvem_resident", TraceStorage::NvemResident),
    ];
    for (label, storage) in series {
        for mm in [200usize, 1_000] {
            group.bench_function(format!("{label}/mm{mm}"), |b| {
                b.iter(|| {
                    let report = run_trace(
                        &settings,
                        presets::trace_config(mm, storage, settings.trace_rate),
                    );
                    black_box(report.response_time.mean)
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
