//! Table 4.2 — main-memory and second-level cache hit ratios for NOFORCE and
//! FORCE.

mod common;

use tpsim::presets::{self, SecondLevel};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_debit_credit;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("table4_2_hit_ratios");
    for force in [false, true] {
        let strategy = if force { "force" } else { "noforce" };
        for (label, second) in [
            ("vol_disk_cache", SecondLevel::VolatileDiskCache(1_000)),
            ("nv_disk_cache", SecondLevel::NonVolatileDiskCache(1_000)),
            ("nvem_cache", SecondLevel::NvemCache(1_000)),
        ] {
            group.bench_function(format!("{strategy}/{label}"), |b| {
                b.iter(|| {
                    let report = run_debit_credit(
                        &settings,
                        presets::caching_config(500, second, force, settings.caching_rate),
                    );
                    black_box((report.mm_hit_ratio(), report.nvem_hit_ratio()))
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
