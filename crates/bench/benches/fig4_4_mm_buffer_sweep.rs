//! Fig. 4.4 — impact of caching for different main-memory buffer sizes
//! (Debit-Credit, NOFORCE, fixed arrival rate).

mod common;

use tpsim::presets::{self, SecondLevel};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_debit_credit;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_4_mm_buffer_sweep");
    let series = [
        ("mm_only", SecondLevel::None),
        ("vol_disk_cache_1000", SecondLevel::VolatileDiskCache(1_000)),
        (
            "nv_disk_cache_1000",
            SecondLevel::NonVolatileDiskCache(1_000),
        ),
        ("nvem_cache_1000", SecondLevel::NvemCache(1_000)),
    ];
    for (label, second) in series {
        for mm in [500usize, 2_000] {
            group.bench_function(format!("{label}/mm{mm}"), |b| {
                b.iter(|| {
                    let report = run_debit_credit(
                        &settings,
                        presets::caching_config(mm, second, false, settings.caching_rate),
                    );
                    black_box((report.response_time.mean, report.mm_hit_ratio()))
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
