//! The TPSIM benchmark.
//!
//! ```text
//! tpsim-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one seeded workload against the public `tpsim` API as a closed loop
//! with one client: simulation points back to back, then the same point list
//! through `runner::run_sweep` on `min(nproc, points)` workers.  Checks every
//! report, prints each metric with its unit, and ends with one JSON line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` a traced run's
//! per-layer metrics.  See `perfbench/README.md`.

mod alloc;
mod calib;
mod checks;
mod json;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use tpsim::bufmgr::BufferStats;
use tpsim::dbmodel::WorkloadGenerator;
use tpsim::{KernelProfile, Simulation, SimulationConfig, SimulationReport};
use tpsim_bench::runner;

use json::Metric;
use stats::{median, percentile, ratio};
use trace::{TraceState, Traced};
use workloads::{with_generator, GeneratorUser, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: tpsim-perfbench --workload <central-dc|sharing-cluster|trace-replay|nothing-skew> \
                     [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const MIB: f64 = 1024.0 * 1024.0;

/// Serial-pass points on each side whose kernel samples set a point's host
/// factor (see `calib::local_factors`).
const SERIAL_KERNEL_RADIUS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=600, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpsim-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    for (point, failures) in outcome.failures.iter().enumerate() {
        for f in failures {
            println!("FAIL point {point}: {f}");
        }
    }
    let failed = outcome.failures.iter().filter(|f| !f.is_empty()).count();
    let attempted = outcome.failures.len();
    println!(
        "fail_ratio = {} 1 (failed {failed} of {attempted} points)",
        ratio(failed as f64, attempted as f64)
    );
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        json::result_line(failed == 0 && finite, attempted, failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}

/// What a run reports: the failures of each attempted point and the metrics.
struct Outcome {
    failures: Vec<Vec<String>>,
    metrics: Vec<Metric>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Sweep workers: one per host CPU, at most one per point.
fn workers(points: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(points)
        .max(1)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One point timed from outside: the generator build through the return of
/// `Simulation::new`, then `run_profiled`.
struct Timed {
    setup_s: f64,
    run_s: f64,
    report: SimulationReport,
    profile: KernelProfile,
    run_allocations: u64,
}

impl Timed {
    fn point_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

struct TimedPoint(SimulationConfig);

impl GeneratorUser<Timed> for TimedPoint {
    fn use_generator<W: WorkloadGenerator>(self, make: impl FnOnce() -> W) -> Timed {
        let start = Instant::now();
        let sim = Simulation::new(self.0, make());
        let built = Instant::now();
        let allocations = alloc::allocations();
        let (report, profile) = sim.run_profiled();
        let run_allocations = alloc::allocations() - allocations;
        let done = Instant::now();
        Timed {
            setup_s: (built - start).as_secs_f64(),
            run_s: (done - built).as_secs_f64(),
            report,
            profile,
            run_allocations,
        }
    }
}

/// Runs point `index` of the workload with panics caught; a panic is the
/// point's failure.
fn run_point(wl: Workload, config: &SimulationConfig) -> Result<Timed, String> {
    catch_unwind(AssertUnwindSafe(|| {
        with_generator(wl.family(), TimedPoint(config.clone()))
    }))
    .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
}

/// Runs the point list through `runner::run_sweep` (which derives the same
/// point seeds from the base seed) and flags every point whose report
/// differs from its serial-pass report in `serial`.  Returns the sweep's
/// host seconds and worker count.
fn sweep(
    wl: Workload,
    seed: u64,
    serial: &[Option<&SimulationReport>],
    failures: &mut [Vec<String>],
) -> (f64, usize) {
    let workers = workers(serial.len());
    let settings = workloads::run_settings(workers);
    let points = (0..serial.len())
        .map(|i| {
            (
                wl.name().to_string(),
                i as f64,
                wl.base_config(seed),
                wl.family(),
            )
        })
        .collect();
    let start = Instant::now();
    let swept = catch_unwind(AssertUnwindSafe(|| runner::run_sweep(&settings, points)));
    let sweep_s = start.elapsed().as_secs_f64();
    match swept {
        Ok(points) => {
            for ((point, own), f) in points.iter().zip(serial).zip(failures.iter_mut()) {
                if *own != Some(&point.report) {
                    f.push("sweep report differs from the serial-pass report".to_string());
                }
            }
        }
        Err(p) => {
            let why = format!("sweep panicked: {}", panic_message(p.as_ref()));
            failures.iter_mut().for_each(|f| f.push(why.clone()));
        }
    }
    (sweep_s, workers)
}

/// The end-to-end run: a serial pass over the point list, then the same list
/// through the sweep runner.  Serial-pass times are reported in
/// reference-host units (see `calib`), with the raw host values printed
/// beside them.  The sweep checks that every report repeats; its time is
/// printed but is not a reported metric (see `perfbench/README.md`).
fn measured_run(args: &Args) -> Outcome {
    let wl = args.workload;
    let n = wl.points(args.seconds);
    let configs: Vec<SimulationConfig> = (0..n).map(|i| wl.point_config(args.seed, i)).collect();
    println!(
        "workload {} seed {} points {n} (serial pass, then run_sweep)",
        wl.name(),
        args.seed
    );
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut samples: Vec<(usize, Timed)> = Vec::with_capacity(n);
    let mut kernel_ms = Vec::with_capacity(n + 1);
    // The heap a point needs beyond what was live before it, so the reports
    // the benchmark keeps for the sweep comparison are not counted.
    let mut peak_heap_bytes = 0;
    for (i, (config, f)) in configs.iter().zip(failures.iter_mut()).enumerate() {
        kernel_ms.push(calib::sample_ms());
        let live = alloc::live_bytes();
        alloc::reset_peak();
        let point = run_point(wl, config);
        peak_heap_bytes = peak_heap_bytes.max(alloc::peak_bytes().saturating_sub(live));
        match point {
            Ok(t) => {
                f.extend(checks::check_report(&t.report, config, wl.gates_little()));
                samples.push((i, t));
            }
            Err(why) => f.push(why),
        }
    }
    kernel_ms.push(calib::sample_ms());
    let mut reports = vec![None; n];
    for (i, t) in &samples {
        reports[*i] = Some(&t.report);
    }
    let (sweep_s, workers) = sweep(wl, args.seed, &reports, &mut failures);

    // Each serial point is scaled by the host factor around it.
    let factors = calib::local_factors(&kernel_ms, SERIAL_KERNEL_RADIUS);
    let setup: Vec<f64> = samples
        .iter()
        .map(|(i, t)| t.setup_s / factors[*i])
        .collect();
    let point_ms: Vec<f64> = samples
        .iter()
        .map(|(i, t)| t.point_s() * 1e3 / factors[*i])
        .collect();
    let run_s: f64 = samples.iter().map(|(i, t)| t.run_s / factors[*i]).sum();
    let sim_s: f64 = samples
        .iter()
        .map(|(i, _)| configs[*i].total_time_ms() / 1e3)
        .sum();

    let little: Vec<f64> = samples
        .iter()
        .map(|(_, t)| checks::little_ratio(&t.report))
        .collect();
    if let (true, Some(why)) = (wl.gates_little(), checks::check_run_little(&little)) {
        failures.iter_mut().for_each(|f| f.push(why.clone()));
    }
    let offered: Vec<f64> = samples
        .iter()
        .map(|(i, t)| checks::offered_ratio(&t.report, &configs[*i]))
        .collect();
    let sampled: Vec<&SimulationConfig> = samples.iter().map(|(i, _)| &configs[*i]).collect();
    let run_tolerance = checks::run_stability_tolerance(&sampled);
    if let Some(why) = checks::check_run_offered(&offered, run_tolerance) {
        failures.iter_mut().for_each(|f| f.push(why.clone()));
    }
    let input_queue: Vec<f64> = samples
        .iter()
        .map(|(_, t)| t.report.avg_input_queue)
        .collect();
    println!(
        "stability: core.offered_ratio mean {} (gate {}) median {} min {} (gate {}), \
         input-queue mean {}, core.little_ratio median {}",
        ratio(offered.iter().sum(), offered.len() as f64),
        1.0 - run_tolerance,
        median(&offered),
        offered.iter().copied().fold(f64::INFINITY, f64::min),
        1.0 - checks::stability_tolerance(&configs[0]),
        ratio(input_queue.iter().sum(), input_queue.len() as f64),
        median(&little)
    );
    println!(
        "point_ms_p90 rests on {} samples beyond it of {}",
        stats::samples_beyond(point_ms.len(), 0.9),
        point_ms.len()
    );
    println!(
        "sweep: {sweep_s} s raw host time on {workers} workers (not a reported metric: \
         it follows the host's load)"
    );
    let raw_point_ms: Vec<f64> = samples.iter().map(|(_, t)| t.point_s() * 1e3).collect();
    let raw_setup: Vec<f64> = samples.iter().map(|(_, t)| t.setup_s).collect();
    println!(
        "host factor: serial median {}; raw host values: sim_s_per_s {} point_ms_p50 {} \
         point_ms_p90 {} setup_s {}",
        median(&factors),
        ratio(sim_s, samples.iter().map(|(_, t)| t.run_s).sum()),
        median(&raw_point_ms),
        percentile(&raw_point_ms, 0.9),
        median(&raw_setup)
    );
    Outcome {
        failures,
        metrics: vec![
            metric("sim_s_per_s", ratio(sim_s, run_s), "s/s"),
            metric("point_ms_p50", median(&point_ms), "ms"),
            metric("point_ms_p90", percentile(&point_ms, 0.9), "ms"),
            metric("peak_heap_mb", peak_heap_bytes as f64 / MIB, "MiB"),
            metric("setup_s", median(&setup), "s"),
        ],
    }
}

/// Span ids of one traced point.
struct PointSpans {
    new: usize,
    run: usize,
    build: usize,
}

struct TracedPoint {
    config: SimulationConfig,
    state: Rc<RefCell<TraceState>>,
    point: usize,
}

impl GeneratorUser<(SimulationReport, PointSpans)> for TracedPoint {
    fn use_generator<W: WorkloadGenerator>(
        self,
        make: impl FnOnce() -> W,
    ) -> (SimulationReport, PointSpans) {
        let (state, point) = (self.state, self.point);
        let begin = |name| state.borrow_mut().tracer.begin(name, point);
        let end = |id| state.borrow_mut().tracer.end(id);
        let root = begin("point");
        let build = begin("dbmodel.build");
        let generator = make();
        end(build);
        let new = begin("core.new");
        let sim = Simulation::new(self.config, Traced::new(generator, state.clone(), point));
        end(new);
        let run = begin("core.run");
        let report = sim.run();
        end(run);
        end(root);
        (report, PointSpans { new, run, build })
    }
}

/// Per-point results of a traced run.
struct TracedSample {
    plain: Timed,
    traced_s: f64,
    build_ns: f64,
    hot_spot_ns: f64,
    new_ns: f64,
    run_ns: f64,
    run_self_ns: f64,
    next_tx_calls: u64,
    next_tx_ns: f64,
    queue: replay::Replay,
    sketch: replay::Replay,
    locks: replay::Replay,
    buffers: replay::Replay,
    storage: replay::Replay,
}

fn child_busy(spans: &[trace::Span], parent: usize, name: &str) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .fold((0, 0.0), |(c, ns), s| (c + s.calls, ns + s.busy_ns as f64))
}

/// The traced run: each point once untraced and once traced (alternating
/// which goes first), the layer replays on what the traced run captured,
/// and one sweep of the points for the runner's efficiency.
fn traced_run(args: &Args) -> Outcome {
    let wl = args.workload;
    let m = workloads::TRACED_POINTS;
    println!(
        "workload {} seed {} traced points {m} (untraced, traced, replays)",
        wl.name(),
        args.seed
    );
    let state = Rc::new(RefCell::new(TraceState::default()));
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); m];
    let mut samples: Vec<TracedSample> = Vec::with_capacity(m);
    let mut reports: Vec<Option<SimulationReport>> = Vec::with_capacity(m);
    let mut configs = Vec::with_capacity(m);
    for (i, f) in failures.iter_mut().enumerate() {
        let config = wl.point_config(args.seed, i);
        let traced_point = || {
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                with_generator(
                    wl.family(),
                    TracedPoint {
                        config: config.clone(),
                        state: state.clone(),
                        point: i,
                    },
                )
            }));
            (out, start.elapsed().as_secs_f64())
        };
        let (plain, (traced, traced_s)) = if i % 2 == 0 {
            let plain = run_point(wl, &config);
            (plain, traced_point())
        } else {
            let traced = traced_point();
            (run_point(wl, &config), traced)
        };
        let templates = std::mem::take(&mut state.borrow_mut().templates);
        let plain = match plain {
            Ok(t) => t,
            Err(why) => {
                f.push(why);
                reports.push(None);
                continue;
            }
        };
        f.extend(checks::check_report(
            &plain.report,
            &config,
            wl.gates_little(),
        ));
        let spans = match traced {
            Ok((report, spans)) => {
                if report != plain.report {
                    f.push("tracing changed the report".to_string());
                }
                spans
            }
            Err(p) => {
                f.push(format!(
                    "traced run panicked: {}",
                    panic_message(p.as_ref())
                ));
                reports.push(Some(plain.report.clone()));
                continue;
            }
        };
        let sample = {
            let st = state.borrow();
            let all = st.tracer.spans();
            let (next_tx_calls, next_tx_ns) = child_busy(all, spans.run, "dbmodel.next_tx");
            let report = &plain.report;
            let events = plain.profile.events;
            let population = report.avg_active_transactions.round().max(1.0) as usize + 3;
            let mean_gap_ms = ratio(config.total_time_ms(), events as f64);
            let buffer_replay = replay::buffers(&config, &templates);
            TracedSample {
                traced_s,
                build_ns: all[spans.build].busy_ns as f64,
                hot_spot_ns: child_busy(all, spans.new, "dbmodel.hot_spot").1,
                new_ns: all[spans.new].busy_ns as f64,
                run_ns: all[spans.run].busy_ns as f64,
                run_self_ns: trace::self_time_ns(all, spans.run) as f64,
                next_tx_calls,
                next_tx_ns,
                queue: replay::event_queue(population, mean_gap_ms, events),
                sketch: replay::sketch(report.completed, report.response_time.mean),
                locks: replay::locks(
                    &config,
                    &templates,
                    report.avg_active_transactions.round() as usize,
                ),
                storage: replay::storage(&config, &buffer_replay.device_ops),
                buffers: buffer_replay.replay,
                plain,
            }
        };
        reports.push(Some(sample.plain.report.clone()));
        samples.push(sample);
        configs.push(config);
    }
    let serial: Vec<Option<&SimulationReport>> = reports.iter().map(Option::as_ref).collect();
    let (sweep_s, workers) = sweep(wl, args.seed, &serial, &mut failures);
    let little: Vec<f64> = samples
        .iter()
        .map(|s| checks::little_ratio(&s.plain.report))
        .collect();
    if let (true, Some(why)) = (wl.gates_little(), checks::check_run_little(&little)) {
        failures.iter_mut().for_each(|f| f.push(why.clone()));
    }
    let offered: Vec<f64> = samples
        .iter()
        .zip(&configs)
        .map(|(s, c)| checks::offered_ratio(&s.plain.report, c))
        .collect();
    let sampled: Vec<&SimulationConfig> = configs.iter().collect();
    let run_tolerance = checks::run_stability_tolerance(&sampled);
    if let Some(why) = checks::check_run_offered(&offered, run_tolerance) {
        failures.iter_mut().for_each(|f| f.push(why.clone()));
    }
    let spans_path = write_spans(wl, args.seed, &state.borrow().tracer);
    println!("spans written to {spans_path}");
    Outcome {
        failures,
        metrics: layer_metrics(&samples, &configs, sweep_s, workers),
    }
}

fn write_spans(wl: Workload, seed: u64, tracer: &trace::Tracer) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.jsonl", wl.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => path,
        Err(e) => format!("nowhere ({path}: {e})"),
    }
}

/// The per-layer metrics of a traced run.  Counts are means per point over
/// the points' reports (measurement window); times are medians of per-point
/// values; shares divide summed replay or span time by summed `core.run`
/// span time.
fn layer_metrics(
    samples: &[TracedSample],
    configs: &[SimulationConfig],
    sweep_s: f64,
    workers: usize,
) -> Vec<Metric> {
    let n = samples.len() as f64;
    let sum = |f: &dyn Fn(&TracedSample) -> f64| samples.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&TracedSample) -> f64| ratio(sum(f), n);
    let med = |f: &dyn Fn(&TracedSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    fn report(s: &TracedSample) -> &SimulationReport {
        &s.plain.report
    }

    let run_ns = sum(&|s| s.run_ns);
    let share = |f: &dyn Fn(&TracedSample) -> f64| ratio(sum(f), run_ns);
    let events = sum(&|s| s.plain.profile.events as f64);
    let lock_requests = sum(&|s| report(s).locks.requests as f64);
    let mut buffer = BufferStats::new(0);
    for s in samples {
        buffer.absorb(&report(s).buffer);
    }
    let device_sum = |f: &dyn Fn(&tpsim::DeviceReport) -> u64| {
        sum(&|s| report(s).devices.iter().map(f).sum::<u64>() as f64)
    };
    let fanout_ns = sum(&|s| s.plain.profile.fanout_ns as f64);
    let fanout_commits = sum(&|s| s.plain.profile.fanout_commits as f64);

    let simkernel_share = share(&|s| s.plain.profile.events as f64 * s.queue.ns_per_call() * 2.0);
    let dbmodel_share = share(&|s| s.next_tx_ns);
    let lockmgr_share = share(&|s| s.locks.ns);
    let bufmgr_share = share(&|s| s.buffers.ns);
    let storage_share = share(&|s| s.storage.ns);
    let fanout_share = ratio(fanout_ns, run_ns);
    let offered: Vec<f64> = samples
        .iter()
        .zip(configs)
        .map(|(s, c)| checks::offered_ratio(report(s), c))
        .collect();
    let serial_s = sum(&|s| s.plain.point_s());

    vec![
        metric("simkernel.events", ratio(events, n), "count"),
        metric(
            "simkernel.events_per_s",
            ratio(events, sum(&|s| s.plain.run_s)),
            "1/s",
        ),
        metric(
            "simkernel.queue_ns_per_op",
            med(&|s| s.queue.ns_per_call()),
            "ns",
        ),
        metric(
            "simkernel.sketch_ns_per_insert",
            med(&|s| s.sketch.ns_per_call()),
            "ns",
        ),
        metric("simkernel.share", simkernel_share, "1"),
        metric("dbmodel.build_ms", med(&|s| s.build_ns / 1e6), "ms"),
        metric("dbmodel.hot_spot_ms", med(&|s| s.hot_spot_ns / 1e6), "ms"),
        metric(
            "dbmodel.next_tx_ns",
            ratio(sum(&|s| s.next_tx_ns), sum(&|s| s.next_tx_calls as f64)),
            "ns",
        ),
        metric(
            "dbmodel.transactions",
            mean(&|s| s.next_tx_calls as f64),
            "count",
        ),
        metric("dbmodel.share", dbmodel_share, "1"),
        metric("lockmgr.requests", ratio(lock_requests, n), "count"),
        metric(
            "lockmgr.conflict_ratio",
            ratio(sum(&|s| report(s).locks.conflicts as f64), lock_requests),
            "1",
        ),
        metric(
            "lockmgr.deadlocks",
            mean(&|s| report(s).locks.deadlocks as f64),
            "count",
        ),
        metric(
            "lockmgr.remote_ratio",
            ratio(
                sum(&|s| report(s).global_locks.remote_requests as f64),
                lock_requests,
            ),
            "1",
        ),
        metric(
            "lockmgr.ns_per_request",
            med(&|s| s.locks.ns_per_call()),
            "ns",
        ),
        metric("lockmgr.share", lockmgr_share, "1"),
        metric(
            "bufmgr.references",
            ratio(buffer.references() as f64, n),
            "count",
        ),
        metric("bufmgr.mm_hit_ratio", buffer.mm_hit_ratio(), "1"),
        metric("bufmgr.nvem_hit_ratio", buffer.nvem_hit_ratio(), "1"),
        metric(
            "bufmgr.evictions",
            ratio(buffer.mm_evictions as f64, n),
            "count",
        ),
        metric(
            "bufmgr.invalidations",
            ratio(buffer.invalidations as f64, n),
            "count",
        ),
        metric(
            "bufmgr.ns_per_reference",
            med(&|s| s.buffers.ns_per_call()),
            "ns",
        ),
        metric("bufmgr.share", bufmgr_share, "1"),
        metric(
            "storage.requests",
            ratio(device_sum(&|d| d.stats.reads + d.stats.writes), n),
            "count",
        ),
        metric(
            "storage.cache_hit_ratio",
            ratio(
                device_sum(&|d| d.stats.read_hits),
                device_sum(&|d| d.stats.reads),
            ),
            "1",
        ),
        metric(
            "storage.max_disk_util",
            mean(&|s| {
                report(s)
                    .devices
                    .iter()
                    .map(|d| d.disk_utilization)
                    .fold(0.0, f64::max)
            }),
            "1",
        ),
        metric(
            "storage.ns_per_request",
            med(&|s| s.storage.ns_per_call()),
            "ns",
        ),
        metric("storage.share", storage_share, "1"),
        metric(
            "core.setup_ms",
            med(&|s| (s.new_ns - s.hot_spot_ns) / 1e6),
            "ms",
        ),
        metric("core.run_ms", med(&|s| s.run_ns / 1e6), "ms"),
        metric(
            "core.self_ns_per_event",
            ratio(sum(&|s| s.run_self_ns) - fanout_ns, events),
            "ns",
        ),
        metric(
            "core.fanout_us_per_commit",
            ratio(fanout_ns / 1e3, fanout_commits),
            "us",
        ),
        metric(
            "core.allocs_per_kevent",
            ratio(sum(&|s| s.plain.run_allocations as f64) * 1e3, events),
            "count/kevent",
        ),
        metric(
            "core.abort_ratio",
            ratio(
                sum(&|s| report(s).aborts as f64),
                sum(&|s| report(s).completed as f64),
            ),
            "1",
        ),
        metric("core.offered_ratio", median(&offered), "1"),
        metric(
            "core.little_ratio",
            med(&|s| checks::little_ratio(report(s))),
            "1",
        ),
        metric(
            "core.input_queue_mean",
            mean(&|s| report(s).avg_input_queue),
            "1",
        ),
        metric(
            "core.shipped_ratio",
            mean(&|s| report(s).remote_access_fraction()),
            "1",
        ),
        metric(
            "core.unattributed_share",
            1.0 - (simkernel_share
                + dbmodel_share
                + lockmgr_share
                + bufmgr_share
                + storage_share
                + fanout_share),
            "1",
        ),
        metric(
            "runner.sweep_efficiency",
            ratio(serial_s, sweep_s * workers as f64),
            "1",
        ),
        metric(
            "bench.trace_overhead",
            ratio(sum(&|s| s.traced_s), serial_s) - 1.0,
            "1",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    /// The names of a `BENCHMARK.json` section, in order.
    fn listed_names(section: &str) -> Vec<&'static str> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..text[start..].find(']').map(|e| start + e).expect("closed")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closed name")])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let layers: Vec<&str> = layer_metrics(&[], &[], 1.0, 1)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(listed_names("per_layer"), layers);
        let mut end_to_end = listed_names("end_to_end");
        end_to_end.sort_unstable();
        assert_eq!(
            end_to_end,
            [
                "peak_heap_mb",
                "point_ms_p50",
                "point_ms_p90",
                "setup_s",
                "sim_s_per_s"
            ]
        );
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed_names("workloads"), workloads);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "trace-replay",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::TraceReplay);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5, true));
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x"]).is_err());
        assert!(args(&["--workload", "central-dc", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "central-dc", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
