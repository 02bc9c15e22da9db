//! Fig. 4.1 — influence of the log file allocation (Debit-Credit, NOFORCE).
//!
//! Each benchmark iteration runs a complete (scaled-down) simulation of one
//! log-allocation alternative at 150 TPS and reports the simulated response
//! time through a Criterion measurement of the simulation run itself.

mod common;

use tpsim::presets::{self, LogVariant};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_debit_credit;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_1_log_allocation");
    for variant in LogVariant::ALL {
        group.bench_function(variant.label(), |b| {
            b.iter(|| {
                let report =
                    run_debit_credit(&settings, presets::log_allocation_config(variant, 150.0));
                black_box(report.response_time.mean)
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
