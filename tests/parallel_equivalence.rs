//! Sweep-level parallelism equivalence: `runner::run_sweep` must produce
//! the same `SimulationReport` for every point whether the points run one
//! by one or spread over a worker pool.
//!
//! Each point is an independent simulation whose seed comes from
//! `derive_run_seed(base, index)`, never from the worker that ran it, so any
//! difference at all (one transaction, one `f64` statistic, one histogram
//! bucket) is a runner bug, not a tolerance question.
//!
//! The tests cover the byte-identity goldens in `paper_shape.rs`
//! (quickstart on disk and on NVEM, fig5.x 8-node, fig7.x 4-node shared
//! nothing, the fig10.x burst + Zipf point and fig6.x crash/replay).  Every
//! row is swept [`REPLICAS`] times, each replica at its own derived seed, so
//! even a single-configuration test spreads over the pool.  The sweep runs
//! serially, then on 2 and on 3 workers; 2 workers split 3 replicas
//! unevenly.  The node-count and shaped-workload sweeps are covered by the
//! runner's own unit tests.

use tpsim::presets::{
    data_sharing_config, debit_credit_config, recovery_config, shared_nothing_config,
    DebitCreditStorage,
};
use tpsim::{SimulationConfig, SimulationReport, WorkloadParams, WorkloadSchedule};
use tpsim_bench::runner::{self, Family, RunSettings};

/// Sweep points per row.
const REPLICAS: usize = 3;

/// One sweep point plus the extra property its report must show.
struct Row {
    series: &'static str,
    config: SimulationConfig,
    family: Family,
    check: fn(&SimulationReport),
}

impl Row {
    fn debit_credit(series: &'static str, config: SimulationConfig) -> Self {
        Row {
            series,
            config,
            family: Family::DebitCredit,
            check: |_| {},
        }
    }
}

fn sweep(rows: &[Row], workers: Option<usize>) -> Vec<runner::SweepPoint> {
    // `RunSettings::apply` overwrites each config's warm-up and measurement
    // times with the quick settings' ones.
    let mut settings = RunSettings::quick();
    settings.parallel = workers.is_some();
    settings.threads = workers.unwrap_or(0);
    let points = rows
        .iter()
        .flat_map(|r| {
            (0..REPLICAS).map(|i| (r.series.to_string(), i as f64, r.config.clone(), r.family))
        })
        .collect();
    runner::run_sweep(&settings, points)
}

/// Sweeps `rows` serially and on 2 and 3 workers and asserts full report
/// equality point by point.
fn assert_sweeps_match_serial(rows: &[Row]) {
    let serial = sweep(rows, None);
    assert_eq!(serial.len(), rows.len() * REPLICAS);
    for (row, points) in rows.iter().zip(serial.chunks(REPLICAS)) {
        for point in points {
            assert_eq!(point.series, row.series);
            assert!(
                point.report.completed > 0,
                "'{}' completed nothing",
                row.series
            );
            (row.check)(&point.report);
        }
    }
    for workers in [2, 3] {
        let parallel = sweep(rows, Some(workers));
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!((&s.series, s.x), (&p.series, p.x));
            assert_eq!(
                s.report, p.report,
                "'{}' replica {} diverged from the serial sweep on {workers} workers",
                s.series, s.x
            );
        }
    }
}

#[test]
fn quickstart_reports_are_thread_count_invariant() {
    assert_sweeps_match_serial(&[
        Row::debit_credit(
            "quickstart/disk",
            debit_credit_config(DebitCreditStorage::Disk, 100.0),
        ),
        Row::debit_credit(
            "quickstart/nvem",
            debit_credit_config(DebitCreditStorage::NvemResident, 100.0),
        ),
    ]);
}

#[test]
fn fig5x_8_node_report_is_thread_count_invariant() {
    assert_sweeps_match_serial(&[Row {
        check: |r| assert_eq!(r.nodes.len(), 8),
        ..Row::debit_credit("fig5.x/8-node", data_sharing_config(8, 8.0 * 60.0))
    }]);
}

#[test]
fn fig7x_shared_nothing_report_is_thread_count_invariant() {
    assert_sweeps_match_serial(&[Row {
        check: |r| assert_eq!(r.nodes.len(), 4),
        ..Row::debit_credit(
            "fig7.x/4-node shared nothing",
            shared_nothing_config(4, 4.0 * 60.0),
        )
    }]);
}

#[test]
fn fig10x_shaped_workload_report_is_thread_count_invariant() {
    // A bursty arrival schedule over a Zipf 0.9 hot set.
    let mut config = data_sharing_config(2, 2.0 * 60.0);
    config.workload = WorkloadParams::skewed(0.9, 0.2);
    config.workload.schedule = WorkloadSchedule::Burst {
        period_ms: 1_000.0,
        burst_fraction: 0.25,
        burst_factor: 4.0,
    };
    assert_sweeps_match_serial(&[Row {
        // Shaped runs carry a non-empty, monotone tail section.
        check: |r| {
            let tail = r.tail.expect("shaped run carries the tail section");
            assert!(tail.count > 0);
            assert!(tail.p50 <= tail.p99 && tail.p99 <= tail.p999);
        },
        ..Row::debit_credit("fig10.x/burst+zipf", config)
    }]);
}

#[test]
fn fig6x_crash_replay_report_is_thread_count_invariant() {
    assert_sweeps_match_serial(&[Row {
        series: "fig6.x/crash-replay",
        config: recovery_config(false, false, 400.0, 120.0),
        family: Family::RecoveryCrash,
        check: |r| assert!(r.recovery.is_some()),
    }]);
}
