//! Layer replays: one layer driven alone, from outside, on a job's own
//! generated inputs, so its cost is timed without the rest of the model.
//!
//! * [`buffer_replay`] maps the job's reference string through
//!   `ObjectManager::page_of` and feeds it to a fresh
//!   `BufferingManager` at the preset's frame count. It omits
//!   everything else on the model's access path: prefetching, multi-site
//!   routing, lock and resource scheduling, and I/O accounting.
//! * [`generation_replay`] regenerates the job's stream with
//!   `WorkloadGenerator::next_transaction_into` into one reused buffer.
//!   It omits the materialisation the jobs themselves pay for.
//! * [`hold_replay`] runs a `CalendarQueue` push/pop hold loop at a given
//!   pending population with exponential increments of a given mean. It
//!   omits event dispatch, the model, and the shape of the model's real
//!   increment distribution.
//! * [`sim_reorg_replay`] and [`engine_replay`] stand in on workloads
//!   whose jobs never reorganise or never run the `oostore` column, so
//!   every layer reports a measured figure on every workload.
//!
//! Each replay runs [`REPLAY_REPS`] times; times are medians.

use crate::stats::median;
use crate::workload::WORKLOAD_SEED_SALT;
use desp::{CalendarQueue, RandomStream, Scheduler, SimTime};
use ocb::{ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};
use oostore::{run_workload, PageServerConfig, PageServerEngine};
use std::hint::black_box;
use std::time::Instant;
use voodb::{BufferingManager, ObjectManager, Simulation, VoodbParams};

/// Repetitions of each replay.
pub const REPLAY_REPS: usize = 3;

/// Result of one buffer replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferReplay {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    /// Misses that found every frame taken.
    pub evictions: u64,
    /// Evictions that wrote a dirty page back.
    pub dirty_evictions: u64,
    /// Median host ns per `BufferingManager::access`.
    pub ns_per_access: f64,
    /// Median host ns per `ObjectManager::page_of`.
    pub ns_per_lookup: f64,
}

impl BufferReplay {
    /// Hit ratio computed as the model computes it.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn new_buffer(params: &VoodbParams) -> BufferingManager {
    // The model's sizing for a single site.
    let frames = params.buffer_pages.max(2);
    if params.swizzle {
        BufferingManager::swizzling(frames)
    } else {
        BufferingManager::standard(frames, params.page_replacement)
    }
}

/// Replays `transactions` through the page map and buffer of `params`
/// (single-site systems only: every page goes to one buffer).
pub fn buffer_replay(
    base: &ObjectBase,
    params: &VoodbParams,
    transactions: &[Transaction],
) -> BufferReplay {
    let placement = params.initial_placement.build(base, params.page_size);
    let oman = ObjectManager::new(&placement);
    let refs: Vec<(ocb::Oid, bool)> = transactions
        .iter()
        .flat_map(|t| t.accesses.iter().map(|a| (a.oid, a.write)))
        .collect();
    let accesses = refs.len() as u64;
    let per_access = |ns: u128| ns as f64 / accesses.max(1) as f64;

    let lookup_ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut sum = 0u64;
            for &(oid, _) in &refs {
                sum = sum.wrapping_add(u64::from(oman.page_of(black_box(oid))));
            }
            black_box(sum);
            per_access(start.elapsed().as_nanos())
        })
        .collect();

    let pages: Vec<(u32, bool)> = refs
        .iter()
        .map(|&(oid, write)| (oman.page_of(oid), write))
        .collect();
    let mut result = BufferReplay {
        accesses,
        ns_per_lookup: median(&lookup_ns),
        ..BufferReplay::default()
    };
    let access_ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut bman = new_buffer(params);
            let mut dirty = 0u64;
            let start = Instant::now();
            for &(page, write) in &pages {
                dirty += black_box(bman.access(page, write)).writes.len() as u64;
            }
            let ns = per_access(start.elapsed().as_nanos());
            let stats = bman.stats();
            result.hits = stats.hits;
            result.misses = stats.misses;
            result.evictions = stats.misses - bman.occupied() as u64;
            result.dirty_evictions = dirty;
            ns
        })
        .collect();
    result.ns_per_access = median(&access_ns);
    result
}

/// Median host ns per generated transaction and accesses per
/// transaction, regenerating `count` transactions of the stream the job
/// with replication seed `seed` used.
pub fn generation_replay(
    base: &ObjectBase,
    stream: &WorkloadParams,
    seed: u64,
    count: usize,
) -> (f64, f64) {
    let mut accesses = 0u64;
    let ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut generator =
                WorkloadGenerator::new(base, stream.clone(), seed ^ WORKLOAD_SEED_SALT);
            let mut buf = Transaction::empty();
            accesses = 0;
            let start = Instant::now();
            for _ in 0..count {
                generator.next_transaction_into(&mut buf);
                accesses += black_box(&buf).len() as u64;
            }
            start.elapsed().as_nanos() as f64 / count.max(1) as f64
        })
        .collect();
    (median(&ns), accesses as f64 / count.max(1) as f64)
}

/// Median host ns per hold (one pop plus one push) of a calendar queue
/// holding `pending` events, with exponential increments of mean
/// `mean_ms`, plus the queue's resize count over the run.
pub fn hold_replay(pending: usize, mean_ms: f64, seed: u64, holds: usize) -> (f64, u64) {
    let pending = pending.max(1);
    let mean_ms = if mean_ms > 0.0 { mean_ms } else { 1.0 };
    let mut stream = RandomStream::new(seed);
    let prefill: Vec<f64> = (0..pending).map(|_| stream.expo(mean_ms)).collect();
    let increments: Vec<f64> = (0..holds).map(|_| stream.expo(mean_ms)).collect();
    let mut resizes = 0;
    let ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut queue = CalendarQueue::<[u64; 2]>::new();
            for (i, &t) in prefill.iter().enumerate() {
                queue.push(SimTime::from_ms(t), [i as u64, 0]);
            }
            let start = Instant::now();
            for &step in &increments {
                let (time, event) = queue
                    .pop()
                    .expect("the hold loop keeps the queue non-empty");
                queue.push(SimTime::from_ms(time.as_ms() + step), black_box(event));
            }
            let ns = start.elapsed().as_nanos() as f64 / holds.max(1) as f64;
            resizes = queue.resize_count();
            ns
        })
        .collect();
    (median(&ns), resizes)
}

/// Median host ms of `Simulation::external_reorganize` on a fresh
/// simulation of `params` (used where the workload's jobs never
/// reorganise: it then times an empty demand).
pub fn sim_reorg_replay(base: &ObjectBase, params: &VoodbParams, think_time_ms: f64) -> f64 {
    let ms: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut sim = Simulation::new(base, params.clone(), think_time_ms, 0);
            let start = Instant::now();
            black_box(sim.external_reorganize());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// The page-server engine run on `transactions` from outside: median
/// host ns per access, I/Os per transaction, and the median host ms of
/// `reorganize` on a fresh engine (an empty demand: the engine has no
/// clustering strategy).
pub fn engine_replay(
    base: &ObjectBase,
    config: &PageServerConfig,
    transactions: &[Transaction],
) -> (f64, f64, f64) {
    let accesses: usize = transactions.iter().map(Transaction::len).sum();
    let mut ios_per_tx = 0.0;
    let ns: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut engine = PageServerEngine::new(base, config.clone());
            let start = Instant::now();
            let report = run_workload(&mut engine, transactions);
            let ns = start.elapsed().as_nanos() as f64 / accesses.max(1) as f64;
            ios_per_tx = report.ios_per_transaction();
            ns
        })
        .collect();
    let reorg_ms: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut engine = PageServerEngine::new(base, config.clone());
            let start = Instant::now();
            black_box(engine.reorganize());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(&ns), ios_per_tx, median(&reorg_ms))
}
