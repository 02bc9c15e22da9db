//! The four benchmark workloads: their configurations, generators, point
//! seeds, gates and run sizes.

use tpsim::dbmodel::WorkloadGenerator;
use tpsim::presets::{self, SecondLevel, TraceStorage};
use tpsim::{SimulationConfig, WorkloadParams, WorkloadSchedule};
use tpsim_bench::runner::{self, derive_run_seed, Family, RunSettings};

/// Seed of the synthetic §4.6 trace.  `runner::run_sweep` always replays
/// this trace, so the serial pass must too for its reports to match the
/// sweep's; the seed argument drives everything else (arrivals, service
/// draws, routing).
pub const TRACE_SEED: u64 = 7;

/// Point executions a serial pass needs at least: the 90th percentile then
/// has ten samples beyond it.
pub const MIN_POINTS: usize = 100;

/// Points of a traced run (each runs once untraced and once traced).
pub const TRACED_POINTS: usize = 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-node Debit-Credit at 500 TPS, MM 1000 + NVEM cache 2000.
    CentralDc,
    /// Data sharing, 32 nodes at 5 TPS each.
    SharingCluster,
    /// The §4.6 synthetic trace at 10 TPS, MM 1000 + NVEM cache 2000.
    TraceReplay,
    /// Shared nothing, 8 nodes at 25 TPS each, Zipf 0.9 over a 20% hot set,
    /// 4x bursts for 25% of every 400 ms.
    NothingSkew,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CentralDc,
        Workload::SharingCluster,
        Workload::TraceReplay,
        Workload::NothingSkew,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CentralDc => "central-dc",
            Workload::SharingCluster => "sharing-cluster",
            Workload::TraceReplay => "trace-replay",
            Workload::NothingSkew => "nothing-skew",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep-runner family that builds this workload's generator.
    pub fn family(self) -> Family {
        match self {
            Workload::TraceReplay => Family::Trace,
            _ => Family::DebitCredit,
        }
    }

    /// Whether Little's law is gated on this workload.  On the trace
    /// workload ~1 s transactions are still in flight at the edges of the
    /// measurement window, so L/(X·R) is reported but not gated there.
    pub fn gates_little(self) -> bool {
        self != Workload::TraceReplay
    }

    /// The workload's configuration with the run settings' simulated
    /// durations and `seed` as the base seed.
    pub fn base_config(self, seed: u64) -> SimulationConfig {
        let mut config = match self {
            Workload::CentralDc => {
                presets::caching_config(1000, SecondLevel::NvemCache(2000), false, 500.0)
            }
            Workload::SharingCluster => presets::data_sharing_config(32, 160.0),
            Workload::TraceReplay => {
                presets::trace_config(1000, TraceStorage::NvemCache(2000), 10.0)
            }
            Workload::NothingSkew => {
                let mut shape = WorkloadParams::skewed(0.9, 0.2);
                shape.schedule = WorkloadSchedule::Burst {
                    period_ms: 400.0,
                    burst_fraction: 0.25,
                    burst_factor: 4.0,
                };
                runner::workload_point(true, 8, 25.0, shape)
            }
        };
        let settings = run_settings(1);
        config.warmup_ms = settings.warmup_ms;
        config.measure_ms = settings.measure_ms;
        config.seed = seed;
        config
    }

    /// Configuration of point `index`: the seed derivation `run_sweep`
    /// applies to the same point list.
    pub fn point_config(self, seed: u64, index: usize) -> SimulationConfig {
        self.base_config(derive_run_seed(seed, index as u64))
    }

    /// Host milliseconds one point takes on the reference host (2 CPUs), used
    /// only to size a run: the point count depends on `--seconds`, never on
    /// the speed of the program under test.
    fn nominal_point_ms(self) -> f64 {
        match self {
            Workload::CentralDc => 80.0,
            Workload::SharingCluster => 40.0,
            Workload::TraceReplay => 130.0,
            Workload::NothingSkew => 300.0,
        }
    }

    /// Points of a measured run of `seconds`: the serial pass plus the
    /// sweep (about half a serial pass on two workers) fill the budget, with
    /// at least [`MIN_POINTS`].
    pub fn points(self, seconds: u64) -> usize {
        let fit = seconds as f64 * 1e3 / (1.5 * self.nominal_point_ms());
        (fit as usize).max(MIN_POINTS)
    }
}

/// Calls `run` with a freshly built generator of `family`: the constructor
/// call itself happens inside `run`'s `make` argument, so callers can time
/// it.
pub fn with_generator<R>(family: Family, run: impl GeneratorUser<R>) -> R {
    match family {
        Family::Trace => run.use_generator(|| presets::trace_workload(1, TRACE_SEED)),
        _ => run.use_generator(|| presets::debit_credit_workload(1)),
    }
}

/// Code generic over the concrete generator type (the serial pass runs the
/// same monomorphised engine the sweep runner does).
pub trait GeneratorUser<R> {
    /// Runs with `make`, which builds the generator when called.
    fn use_generator<W: WorkloadGenerator>(self, make: impl FnOnce() -> W) -> R;
}

/// The sweep settings: full-scale databases and the full simulated
/// durations, with `workers` threads.
pub fn run_settings(workers: usize) -> RunSettings {
    let mut settings = RunSettings::full();
    settings.parallel = true;
    settings.threads = workers;
    settings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn configs_validate_and_point_seeds_differ() {
        for w in Workload::ALL {
            let a = w.point_config(1, 0);
            let b = w.point_config(1, 1);
            assert!(a.validate().is_ok(), "{}", w.name());
            assert_ne!(a.seed, b.seed);
        }
    }

    #[test]
    fn runs_have_enough_points_for_a_p90() {
        for w in Workload::ALL {
            assert!(w.points(1) >= MIN_POINTS);
            assert!(w.points(60) >= w.points(20));
        }
    }
}
