//! Fig. 4.8 — page- vs object-level locking for different allocation
//! strategies (high-contention synthetic workload).

mod common;

use lockmgr::CcMode;
use tpsim::presets::{self, ContentionAllocation};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_contention;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_8_lock_contention");
    for allocation in ContentionAllocation::ALL {
        for granularity in [CcMode::Page, CcMode::Object] {
            let name = format!(
                "{}/{}",
                allocation.label(),
                if granularity == CcMode::Page {
                    "page"
                } else {
                    "object"
                }
            );
            group.bench_function(name, |b| {
                b.iter(|| {
                    let report = run_contention(
                        &settings,
                        presets::contention_config(allocation, granularity, 150.0),
                    );
                    black_box((report.throughput_tps, report.lock_conflict_ratio()))
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
