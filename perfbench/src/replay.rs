//! Outside-in layer costs: the work a point handed to a layer, replayed
//! through that layer's public API alone and timed.
//!
//! Each replay times only the calls into the layer; inputs (random delays,
//! sample values) are drawn before the clock starts.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use tpsim::bufmgr::{BufferManager, PageOp};
use tpsim::dbmodel::{PageId, PartitionMap, PartitionScheme, TransactionTemplate};
use tpsim::lockmgr::{LockManager, LockOutcome};
use tpsim::simkernel::{EventQueue, QuantileSketch, SimRng};
use tpsim::storage::IoKind;
use tpsim::{Architecture, SimulationConfig};

/// Calls replayed into a layer and the host time they took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replay {
    /// Calls made (lock requests, page references, device requests, ...).
    pub calls: u64,
    /// Host nanoseconds the calls took.
    pub ns: f64,
}

impl Replay {
    /// Nanoseconds per call (0 when nothing was replayed).
    pub fn ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.ns, self.calls as f64)
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// A hold-model replay of the future event list: `population` pending
/// events, then `holds` rounds of `pop` plus `schedule_in` with exponential
/// delays of mean `mean_gap_ms · population` (so simulated time advances as
/// it did in the run).  Two calls per hold.
pub fn event_queue(population: usize, mean_gap_ms: f64, holds: u64) -> Replay {
    let mut rng = SimRng::seed_from(0x51A7);
    let mean = (mean_gap_ms * population as f64).max(1e-9);
    let initial: Vec<f64> = (0..population).map(|_| rng.exponential(mean)).collect();
    let delays: Vec<f64> = (0..holds).map(|_| rng.exponential(mean)).collect();
    let mut queue: EventQueue<u64> = EventQueue::new();
    for (i, &at) in initial.iter().enumerate() {
        queue.schedule_at(at, i as u64);
    }
    let start = Instant::now();
    for &delay in &delays {
        let event = queue.pop().expect("the hold model keeps the population");
        queue.schedule_in(delay, black_box(event.payload));
    }
    Replay {
        calls: 2 * holds,
        ns: elapsed_ns(start),
    }
}

/// `count` inserts into a default response-time sketch, with exponential
/// values of mean `mean_ms`.
pub fn sketch(count: u64, mean_ms: f64) -> Replay {
    let mut rng = SimRng::seed_from(0x5CE7);
    let values: Vec<f64> = (0..count)
        .map(|_| rng.exponential(mean_ms.max(1e-9)))
        .collect();
    let mut sketch = QuantileSketch::default();
    let start = Instant::now();
    for &v in &values {
        sketch.insert(v);
    }
    let ns = elapsed_ns(start);
    black_box(sketch.count());
    Replay { calls: count, ns }
}

struct OpenTx {
    id: u64,
    template: usize,
    next_ref: usize,
    blocked: bool,
}

/// The captured templates through one `LockManager`, keeping `open`
/// transactions in flight: each acquires its references in order, blocks on
/// conflicts and resumes when woken; when more than `open` are in flight the
/// oldest unblocked one commits (`release_all`); a deadlock victim is
/// aborted (`abort`).  Counts lock requests as the manager does.
pub fn locks(config: &SimulationConfig, templates: &[TransactionTemplate], open: usize) -> Replay {
    let open = open.max(1);
    let mut manager = LockManager::new(config.cc_modes.clone());
    let mut txs: VecDeque<OpenTx> = VecDeque::with_capacity(open + 1);
    let mut runnable: Vec<u64> = Vec::new();
    let start = Instant::now();
    for (t, _) in templates.iter().enumerate() {
        let id = t as u64 + 1;
        txs.push_back(OpenTx {
            id,
            template: t,
            next_ref: 0,
            blocked: false,
        });
        runnable.push(id);
        advance(&mut manager, templates, &mut txs, &mut runnable);
        while txs.len() > open {
            retire_one(&mut manager, &mut txs, &mut runnable);
            advance(&mut manager, templates, &mut txs, &mut runnable);
        }
    }
    while !txs.is_empty() {
        retire_one(&mut manager, &mut txs, &mut runnable);
        advance(&mut manager, templates, &mut txs, &mut runnable);
    }
    Replay {
        calls: manager.stats().requests,
        ns: elapsed_ns(start),
    }
}

/// Runs every transaction in `runnable` until it blocks, deadlocks or has
/// acquired all its locks.
fn advance(
    manager: &mut LockManager,
    templates: &[TransactionTemplate],
    txs: &mut VecDeque<OpenTx>,
    runnable: &mut Vec<u64>,
) {
    while let Some(id) = runnable.pop() {
        let Some(pos) = txs.iter().position(|t| t.id == id) else {
            continue;
        };
        let refs = &templates[txs[pos].template].refs;
        while txs[pos].next_ref < refs.len() {
            match manager.acquire(id, &refs[txs[pos].next_ref]) {
                LockOutcome::Granted => txs[pos].next_ref += 1,
                LockOutcome::Blocked => {
                    txs[pos].blocked = true;
                    break;
                }
                LockOutcome::Deadlock => {
                    txs.remove(pos);
                    let woken = manager.abort(id);
                    wake(txs, runnable, &woken);
                    break;
                }
            }
        }
    }
}

/// Commits the oldest unblocked transaction (or, should every open one be
/// blocked, aborts the oldest) and queues the ones its release woke.
fn retire_one(manager: &mut LockManager, txs: &mut VecDeque<OpenTx>, runnable: &mut Vec<u64>) {
    let (pos, commit) = match txs.iter().position(|t| !t.blocked) {
        Some(pos) => (pos, true),
        None => (0, false),
    };
    let Some(tx) = txs.remove(pos) else {
        return;
    };
    let woken = if commit {
        manager.release_all(tx.id)
    } else {
        manager.abort(tx.id)
    };
    wake(txs, runnable, &woken);
}

/// A woken transaction was granted the lock it waited for: it continues
/// after that reference.
fn wake(txs: &mut VecDeque<OpenTx>, runnable: &mut Vec<u64>, woken: &[u64]) {
    for &w in woken {
        if let Some(tx) = txs.iter_mut().find(|t| t.id == w) {
            tx.blocked = false;
            tx.next_ref += 1;
            runnable.push(w);
        }
    }
}

/// The buffer replay's result: its cost plus the device requests the buffer
/// managers issued, in order, for the storage replay.
pub struct BufferReplay {
    /// Page references and their host time.
    pub replay: Replay,
    /// `(unit, kind, page)` of every device request.
    pub device_ops: Vec<(usize, IoKind, PageId)>,
}

/// The captured references through one `BufferManager` per node with the
/// workload's `BufferConfig`.  Transactions go to nodes round robin, as the
/// engine assigns them; under shared nothing each reference goes to its
/// page's owner.  Asynchronous writes complete at once.
pub fn buffers(config: &SimulationConfig, templates: &[TransactionTemplate]) -> BufferReplay {
    let nodes = config.nodes.num_nodes.max(1);
    let owner_map = (config.architecture == Architecture::SharedNothing).then(|| {
        let ppn = config.partitioning.partitions_per_node;
        match config.partitioning.scheme {
            PartitionScheme::Hash => PartitionMap::hash(nodes, ppn),
            PartitionScheme::Range => {
                let pages = templates
                    .iter()
                    .flat_map(|t| t.refs.iter().map(|r| r.page.0 + 1))
                    .max()
                    .unwrap_or(1);
                PartitionMap::range(nodes, ppn, pages)
            }
        }
    });
    let refs: usize = templates.iter().map(|t| t.refs.len()).sum();
    let mut managers: Vec<BufferManager> = (0..nodes)
        .map(|_| BufferManager::new(config.buffer.clone()))
        .collect();
    let mut device_ops = Vec::with_capacity(refs);
    let start = Instant::now();
    for (t, template) in templates.iter().enumerate() {
        for r in &template.refs {
            let node = owner_map.as_ref().map_or(t % nodes, |m| m.owner_of(r.page));
            let manager = &mut managers[node];
            let outcome = manager.reference_page(r.partition, r.page, r.mode.is_write());
            for op in outcome.ops {
                match op {
                    PageOp::NvemTransfer { .. } => {}
                    PageOp::UnitRead { unit, page } => device_ops.push((unit, IoKind::Read, page)),
                    PageOp::UnitWrite { unit, page } => {
                        device_ops.push((unit, IoKind::Write, page))
                    }
                    PageOp::UnitWriteAsync { unit, page } => {
                        device_ops.push((unit, IoKind::Write, page));
                        manager.async_write_complete(page);
                    }
                }
            }
        }
    }
    BufferReplay {
        replay: Replay {
            calls: refs as u64,
            ns: elapsed_ns(start),
        },
        device_ops,
    }
}

/// The buffer replay's device requests through the workload's devices
/// (`DeviceSpec::build`); a background destage completes at once.
pub fn storage(config: &SimulationConfig, ops: &[(usize, IoKind, PageId)]) -> Replay {
    let mut devices: Vec<_> = config
        .devices
        .iter()
        .enumerate()
        .map(|(i, spec)| spec.build(format!("unit-{i}")))
        .collect();
    let start = Instant::now();
    for &(unit, kind, page) in ops {
        let device = &mut devices[unit];
        let decision = device.request(kind, page);
        if !decision.background.is_empty() {
            device.destage_complete(page);
        }
    }
    Replay {
        calls: ops.len() as u64,
        ns: elapsed_ns(start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::dbmodel::{AccessMode, ObjectId, ObjectRef};
    use tpsim::lockmgr::CcMode;

    fn write(page: u64) -> ObjectRef {
        ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(page),
            mode: AccessMode::Write,
        }
    }

    fn template(pages: &[u64]) -> TransactionTemplate {
        TransactionTemplate {
            tx_type: 0,
            refs: pages.iter().map(|&p| write(p)).collect(),
        }
    }

    fn config() -> SimulationConfig {
        let mut c =
            tpsim::presets::debit_credit_config(tpsim::presets::DebitCreditStorage::Disk, 10.0);
        c.cc_modes = vec![CcMode::Page];
        c
    }

    #[test]
    fn lock_replay_blocks_wakes_and_breaks_deadlocks() {
        // The second and third transactions block behind the first; its
        // commit wakes them and they finish.
        let templates = vec![template(&[1, 2]), template(&[2, 1]), template(&[1])];
        let r = locks(&config(), &templates, 2);
        assert!(r.calls >= 4, "{r:?}");
        assert!(r.ns > 0.0);
    }

    #[test]
    fn lock_replay_with_one_open_transaction_never_conflicts() {
        let templates = vec![template(&[1, 2]), template(&[2, 1]), template(&[1, 1])];
        let r = locks(&config(), &templates, 1);
        assert_eq!(r.calls, 6);
    }

    #[test]
    fn event_queue_replay_counts_two_calls_per_hold() {
        let r = event_queue(16, 0.5, 1000);
        assert_eq!(r.calls, 2000);
        assert!(r.ns_per_call() > 0.0);
    }

    #[test]
    fn sketch_replay_counts_inserts() {
        assert_eq!(sketch(500, 20.0).calls, 500);
    }

    #[test]
    fn buffer_misses_reach_the_storage_replay() {
        let c = config();
        let templates = vec![template(&[10, 11, 12]), template(&[10])];
        let b = buffers(&c, &templates);
        assert_eq!(b.replay.calls, 4);
        // Three cold pages miss; the fourth reference hits.
        assert_eq!(
            b.device_ops
                .iter()
                .filter(|(_, k, _)| *k == IoKind::Read)
                .count(),
            3
        );
        let s = storage(&c, &b.device_ops);
        assert_eq!(s.calls, b.device_ops.len() as u64);
    }
}
