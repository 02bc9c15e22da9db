//! Fig. 4.5 — impact of the second-level buffer size (Debit-Credit, NOFORCE,
//! 500-page main-memory buffer).

mod common;

use tpsim::presets::{self, SecondLevel};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_debit_credit;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_5_second_level_sweep");
    for size in [500usize, 2_000] {
        for (label, second) in [
            ("vol_disk_cache", SecondLevel::VolatileDiskCache(size)),
            ("nv_disk_cache", SecondLevel::NonVolatileDiskCache(size)),
            ("nvem_cache", SecondLevel::NvemCache(size)),
        ] {
            group.bench_function(format!("{label}/{size}"), |b| {
                b.iter(|| {
                    let report = run_debit_credit(
                        &settings,
                        presets::caching_config(500, second, false, settings.caching_rate),
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
