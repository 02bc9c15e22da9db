//! Fig. 6.x — restart time after a crash (beyond the paper).
//!
//! Crosses FORCE/NOFORCE with a disk- vs NVEM-resident log at a fixed
//! checkpoint interval, crashes every run at the same point of the
//! measurement interval and reports the simulated restart time.  The §3.3
//! trade-off this measures: NOFORCE with a disk-resident log gives the best
//! steady-state commit path but the slowest restart (the whole redo tail is
//! read back at disk latency), while an NVEM-resident log tail collapses the
//! restart's log-read component and FORCE removes the page-redo component
//! entirely.

mod common;

use tpsim::presets;
use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::run_recovery_crash;

fn bench(c: &mut Criterion) {
    let settings = common::settings();
    let checkpoint_interval_ms = settings.measure_ms / 4.0;
    let mut group = c.benchmark_group("fig6_restart_time");
    for (label, force, nvem_log) in [
        ("noforce_disk_log", false, false),
        ("noforce_nvem_log", false, true),
        ("force_disk_log", true, false),
        ("force_nvem_log", true, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = run_recovery_crash(
                    &settings,
                    presets::recovery_config(force, nvem_log, checkpoint_interval_ms, 150.0),
                );
                black_box(report.restart_ms())
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
