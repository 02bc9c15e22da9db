//! Kernel hot-path throughput: the calendar event queue in isolation, and
//! whole-engine event throughput on representative configurations.
//!
//! Four groups:
//!
//! * `event_queue` — the classic *hold model* directly against
//!   [`simkernel::EventQueue`]: a fixed event population, each pop schedules
//!   one replacement.  This isolates the future event list from the rest of
//!   the engine (the structure the calendar queue replaced a binary heap in).
//! * `quantile_sketch_insert` — streaming inserts into
//!   [`simkernel::QuantileSketch`] at several capacities: the per-completion
//!   cost of the report's one percentile path, which every run pays (it
//!   feeds `response_time.p95` as well as the tail-latency section).
//! * `zipf` — [`simkernel::dist::Zipf`], the hot-spot sampler's ranking
//!   distribution: its build at the hot 20 % of Debit-Credit's 50M accounts,
//!   and its per-draw cost at the size of the largest synthetic trace file.
//! * `engine` — complete simulation runs (single-node quickstart point and
//!   the 8-node fig5.x point), reporting the kernel's events/sec via
//!   [`tpsim::Simulation::run_profiled`].
//!
//! ```bash
//! cargo bench -p tpsim-bench --bench kernel_throughput
//! ```

mod common;

use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::{self, Family, RunSettings};

use simkernel::dist::Zipf;
use simkernel::{EventQueue, QuantileSketch, SimRng};

/// One hold-model iteration: `churn` pop+schedule pairs over a primed queue.
fn hold_model(population: usize, churn: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(42);
    for i in 0..population {
        q.schedule_at(rng.exponential(5.0), i as u64);
    }
    let mut checksum = 0.0;
    for i in 0..churn {
        let e = q.pop().expect("population never drains");
        checksum += e.time;
        q.schedule_in(rng.exponential(5.0), (population + i) as u64);
    }
    checksum
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    for population in [64usize, 1_024, 16_384] {
        group.bench_function(format!("population {population}"), |b| {
            b.iter(|| black_box(hold_model(population, 200_000)))
        });
    }
    group.finish();
}

/// One sketch-insert iteration: `n` exponential response times streamed into
/// a fresh sketch of capacity `k`, then one quantile read so the compactions
/// cannot be optimised away.
fn sketch_stream(k: usize, n: usize) -> f64 {
    let mut sketch = QuantileSketch::new(k);
    let mut rng = SimRng::seed_from(42);
    for _ in 0..n {
        sketch.insert(rng.exponential(25.0));
    }
    sketch.quantile(0.99).unwrap_or(0.0)
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantile_sketch_insert");
    for k in [64usize, 512, 4_096] {
        group.bench_function(format!("capacity {k}"), |b| {
            b.iter(|| black_box(sketch_stream(k, 200_000)))
        });
    }
    group.finish();
}

/// Builds per iteration of the `zipf` build bench, so ms/iter reads as
/// µs per build.
const ZIPF_BUILDS: usize = 1_000;
/// Draws per iteration of the `zipf` sample bench, so ms/iter reads as ns
/// per draw.
const ZIPF_DRAWS: usize = 1_000_000;

fn bench_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf");
    group.bench_function(format!("new 10M items theta 0.9 (x{ZIPF_BUILDS})"), |b| {
        b.iter(|| {
            for _ in 0..ZIPF_BUILDS {
                black_box(Zipf::new(black_box(10_000_000), black_box(0.9)));
            }
        })
    });
    let z = Zipf::new(9_400, 0.95);
    group.bench_function(
        format!("sample 9.4k items theta 0.95 (x{ZIPF_DRAWS})"),
        |b| {
            b.iter(|| {
                let mut rng = SimRng::seed_from(42);
                (0..ZIPF_DRAWS).fold(0u64, |acc, _| acc ^ z.sample(&mut rng))
            })
        },
    );
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut settings = RunSettings::full();
    settings.parallel = false;
    let mut group = c.benchmark_group("engine_events_per_sec");
    for (label, config) in [
        (
            "quickstart/disk".to_string(),
            tpsim::presets::debit_credit_config(tpsim::presets::DebitCreditStorage::Disk, 100.0),
        ),
        (
            "fig5.x/8-nodes".to_string(),
            runner::data_sharing_point(8, 60.0),
        ),
    ] {
        group.bench_function(label.clone(), |b| {
            b.iter(|| {
                let (report, profile) =
                    runner::run_point_profiled(&settings, config.clone(), Family::DebitCredit);
                black_box((report.completed, profile.events))
            })
        });
        // One extra profiled run to print the kernel-level numbers the
        // ms/iter summary cannot show.
        let (_, profile) =
            runner::run_point_profiled(&settings, config.clone(), Family::DebitCredit);
        eprintln!(
            "bench engine_events_per_sec/{label:<32} {:>12} events {:>12.0} events/sec",
            profile.events, profile.events_per_sec
        );
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench_event_queue(&mut c);
    bench_sketch(&mut c);
    bench_zipf(&mut c);
    bench_engine(&mut c);
    c.final_summary();
}
