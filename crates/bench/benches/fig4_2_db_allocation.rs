//! Fig. 4.2 — impact of the database allocation (Debit-Credit, NOFORCE).

mod common;

use tpsim::presets::{self, DebitCreditStorage};
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_debit_credit;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let mut group = c.benchmark_group("fig4_2_db_allocation");
    for storage in DebitCreditStorage::ALL {
        group.bench_function(storage.label(), |b| {
            b.iter(|| {
                let report =
                    run_debit_credit(&settings, presets::debit_credit_config(storage, 200.0));
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
