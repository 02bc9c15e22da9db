//! Output checks on simulation reports: value ranges, conservation, tail
//! ordering, Little's law and stability.

use tpsim::{SimulationConfig, SimulationReport};

use crate::stats::ratio;

/// Relative tolerance of the per-point Little's-law gate.  A 20 s window
/// that ends inside a congestion burst inflates L over X·R: sharing-cluster
/// points reach 1.6% that way (4000 points: sd 0.14%, extremes 0.985 and
/// 1.016; moving the window end by 0.3 s brings them back under 0.1%).
pub const LITTLE_TOLERANCE: f64 = 0.03;

/// Relative tolerance of the run-level Little's-law gate on the median of
/// the points' L/(X·R): a systematic accounting error moves every point,
/// window-edge bursts do not.
pub const LITTLE_RUN_TOLERANCE: f64 = 0.002;

/// Mean offered arrival rate (TPS) over the measurement window, integrating
/// the rate schedule.
pub fn mean_offered_tps(config: &SimulationConfig) -> f64 {
    let window_s = config.measure_ms / 1e3;
    let arrivals = match config
        .workload
        .schedule
        .to_piecewise(config.arrival_rate_tps)
    {
        None => config.arrival_rate_tps * window_s,
        Some(rate) => rate.expected_events(config.warmup_ms, config.total_time_ms()),
    };
    ratio(arrivals, window_s)
}

/// Throughput ÷ mean offered rate.
pub fn offered_ratio(report: &SimulationReport, config: &SimulationConfig) -> f64 {
    ratio(report.throughput_tps, mean_offered_tps(config))
}

/// Little's law L/(X·R): transactions in the system (active plus input
/// queue) over throughput times mean response time.
pub fn little_ratio(report: &SimulationReport) -> f64 {
    let in_system = report.avg_active_transactions + report.avg_input_queue;
    ratio(
        in_system,
        report.throughput_tps / 1e3 * report.response_time.mean,
    )
}

/// Expected arrivals in the measurement window.
pub fn expected_arrivals(config: &SimulationConfig) -> f64 {
    mean_offered_tps(config) * config.measure_ms / 1e3
}

/// 3% plus `sds` standard deviations of a Poisson count of `expected`
/// arrivals, as a share of `expected`.
fn shortfall_tolerance(expected: f64, sds: f64) -> f64 {
    0.03 + sds / expected.max(1.0).sqrt()
}

/// Largest shortfall of throughput below the mean offered rate a stable
/// point may show: 3% plus five standard deviations of the Poisson count of
/// arrivals in the window.  A saturated queue falls far below it (the
/// fig5.x 8-node profile point delivers 200 of 480 TPS offered).
pub fn stability_tolerance(config: &SimulationConfig) -> f64 {
    shortfall_tolerance(expected_arrivals(config), 5.0)
}

/// Largest shortfall of a run's mean throughput ÷ mean offered rate below 1:
/// 3% plus four standard deviations of the Poisson count of all the run's
/// expected arrivals.  That noise term is 0.4–2.8% on the four workloads
/// (trace-replay has the fewest arrivals), against 8–38% for one point, so a
/// run that saturates early fails here even when no single point does.
pub fn run_stability_tolerance(configs: &[&SimulationConfig]) -> f64 {
    shortfall_tolerance(configs.iter().map(|c| expected_arrivals(c)).sum(), 4.0)
}

/// Every check a point's report must pass; returns one line per violation.
pub fn check_report(
    report: &SimulationReport,
    config: &SimulationConfig,
    gate_little: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut unit = |name: String, value: f64| {
        if !(0.0..=1.0).contains(&value) {
            bad.push(format!("{name} = {value} is outside [0, 1]"));
        }
    };
    unit("cpu_utilization".into(), report.cpu_utilization);
    unit("nvem_utilization".into(), report.nvem_utilization);
    unit("mm_hit_ratio".into(), report.mm_hit_ratio());
    unit("nvem_hit_ratio".into(), report.nvem_hit_ratio());
    for (i, d) in report.devices.iter().enumerate() {
        unit(format!("devices[{i}].disk_utilization"), d.disk_utilization);
        unit(
            format!("devices[{i}].controller_utilization"),
            d.controller_utilization,
        );
        unit(
            format!("devices[{i}].read_hit_ratio"),
            d.stats.read_hit_ratio(),
        );
    }
    for n in &report.nodes {
        unit(
            format!("nodes[{}].cpu_utilization", n.node),
            n.cpu_utilization,
        );
        unit(
            format!("nodes[{}].mm_hit_ratio", n.node),
            n.buffer.mm_hit_ratio(),
        );
        unit(
            format!("nodes[{}].nvem_hit_ratio", n.node),
            n.buffer.nvem_hit_ratio(),
        );
    }

    let per_type: u64 = report.per_type.iter().map(|t| t.count).sum();
    if per_type != report.completed {
        bad.push(format!(
            "per-type counts sum to {per_type}, completed is {}",
            report.completed
        ));
    }
    if report.response_time.count != report.completed {
        bad.push(format!(
            "response-time count {} != completed {}",
            report.response_time.count, report.completed
        ));
    }

    if let Some(t) = &report.tail {
        let chain = [t.p50, t.p95, t.p99, t.p999, t.max];
        if chain.windows(2).any(|w| w[0] > w[1]) {
            bad.push(format!(
                "tail percentiles not monotone and <= max: {chain:?}"
            ));
        }
    }

    let little = little_ratio(report);
    if gate_little && (little - 1.0).abs() > LITTLE_TOLERANCE {
        bad.push(format!(
            "Little's law L/(X*R) = {little:.4} is not within 3%"
        ));
    }

    let offered = offered_ratio(report, config);
    let tolerance = stability_tolerance(config);
    if offered < 1.0 - tolerance {
        bad.push(format!(
            "unstable: throughput / mean offered = {offered:.4} < {:.4}",
            1.0 - tolerance
        ));
    }
    bad
}

/// The run-level Little's-law gate over the points' L/(X·R) values.
pub fn check_run_little(ratios: &[f64]) -> Option<String> {
    let median = crate::stats::median(ratios);
    ((median - 1.0).abs() > LITTLE_RUN_TOLERANCE)
        .then(|| format!("run-level Little's law: median L/(X*R) = {median:.5} is not within 0.2%"))
}

/// The run-level stability gate on the mean of the points' throughput ÷
/// mean offered rate (every point of a run offers the same load).
pub fn check_run_offered(ratios: &[f64], tolerance: f64) -> Option<String> {
    let mean = ratio(ratios.iter().sum(), ratios.len() as f64);
    (mean < 1.0 - tolerance).then(|| {
        format!(
            "run-level stability: mean throughput / mean offered = {mean:.4} < {:.4}",
            1.0 - tolerance
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::{Simulation, TailLatencyReport};

    fn small_run() -> (SimulationReport, SimulationConfig) {
        let mut config =
            tpsim::presets::debit_credit_config(tpsim::presets::DebitCreditStorage::Disk, 50.0);
        config.warmup_ms = 500.0;
        config.measure_ms = 4_000.0;
        let workload = tpsim::presets::debit_credit_workload(200);
        (Simulation::new(config.clone(), workload).run(), config)
    }

    #[test]
    fn a_real_report_passes() {
        let (report, config) = small_run();
        assert_eq!(check_report(&report, &config, true), Vec::<String>::new());
    }

    #[test]
    fn a_hand_built_bad_report_is_rejected_on_every_count() {
        let (mut report, config) = small_run();
        report.cpu_utilization = 1.5;
        report.completed += 1;
        report.tail = Some(TailLatencyReport {
            count: 10,
            p50: 5.0,
            p95: 4.0,
            p99: 6.0,
            p999: 7.0,
            max: 6.5,
            rank_error_bound: 0,
        });
        report.avg_active_transactions *= 2.0;
        report.throughput_tps *= 0.5;
        let bad = check_report(&report, &config, true);
        let has = |needle: &str| bad.iter().any(|b| b.contains(needle));
        assert!(has("cpu_utilization = 1.5"), "{bad:?}");
        assert!(has("per-type counts"), "{bad:?}");
        assert!(has("tail percentiles"), "{bad:?}");
        assert!(has("Little's law"), "{bad:?}");
        assert!(has("unstable"), "{bad:?}");
    }

    #[test]
    fn run_level_little_gate_uses_the_median() {
        assert_eq!(check_run_little(&[1.0, 0.9995, 1.02, 1.0005]), None);
        assert!(check_run_little(&[1.003, 1.004, 0.99]).is_some());
    }

    #[test]
    fn run_level_stability_gate_uses_the_mean() {
        let config = tpsim::presets::data_sharing_config(32, 160.0);
        // 250 points of 3200 expected arrivals: 3% plus 4 / sqrt(800000).
        let tolerance = run_stability_tolerance(&[&config; 250]);
        assert!((tolerance - (0.03 + 4.0 / 800_000f64.sqrt())).abs() < 1e-12);
        assert_eq!(check_run_offered(&[0.99, 0.975, 0.985], tolerance), None);
        assert!(check_run_offered(&[0.965; 250], tolerance).is_some());
        // A run that delivers 90% of the offered load is saturated even
        // though every point passes its own gate.
        assert!(0.9 > 1.0 - stability_tolerance(&config));
        assert!(check_run_offered(&[0.9; 250], tolerance).is_some());
    }

    #[test]
    fn little_gate_can_be_waived() {
        let (mut report, config) = small_run();
        report.avg_active_transactions *= 1.2;
        assert!(check_report(&report, &config, true)
            .iter()
            .any(|b| b.contains("Little")));
        assert!(check_report(&report, &config, false).is_empty());
    }

    #[test]
    fn offered_rate_integrates_a_burst_schedule() {
        let mut config = tpsim::presets::shared_nothing_config(2, 100.0);
        config.warmup_ms = 3_000.0;
        config.measure_ms = 20_000.0;
        config.workload.schedule = tpsim::WorkloadSchedule::Burst {
            period_ms: 400.0,
            burst_fraction: 0.25,
            burst_factor: 4.0,
        };
        // 25% of the time at 4x, 75% at 1x: 1.75x the base rate.
        assert!((mean_offered_tps(&config) - 175.0).abs() < 1e-6);
        // 3500 expected arrivals: 3% plus five Poisson standard deviations.
        let expected = 0.03 + 5.0 / 3500f64.sqrt();
        assert!((stability_tolerance(&config) - expected).abs() < 1e-12);
    }
}
