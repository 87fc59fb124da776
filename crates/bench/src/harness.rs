//! Benchmark-vs-simulation experiment plumbing.
//!
//! Every validation artifact of the paper compares two columns measured
//! under the *same* OCB workload:
//!
//! * **Bench** — the real mini-engine (`oostore`): O2-like page server or
//!   Texas-like store, counting actual virtual-disk I/Os. This module
//!   drives it;
//! * **Sim** — the VOODB model (`voodb`) parameterised per Table 4, run
//!   through core's single replication body ([`run_replication`]) or its
//!   single DSTC protocol body ([`run_dstc_study`]).
//!
//! Methodology notes, mirroring §4 of the paper:
//!
//! * the **object base is generated once per experiment point** (the real
//!   O2/Texas databases were built once); replications vary only the
//!   transaction stream, so confidence intervals measure workload noise,
//!   not schema-generation noise;
//! * one replication runs both sides on the **identical transaction
//!   stream** ("the objective here was to use the same workload model in
//!   both sets of experiments", §4.1): both derive it from the
//!   replication seed and [`WORKLOAD_SEED_SALT`];
//! * intervals are 95% Student-t over replications (§4.2.2), computed by
//!   `desp`'s output-analysis machinery;
//! * replications are distributed over scoped std threads.

use clustering::{ClusteringKind, DstcParams};
use desp::{ConfidenceInterval, NoProbe, SchedulerKind, Welford};
use ocb::{DatabaseParams, ObjectBase, Transaction, WorkloadGenerator, WorkloadParams};
use oostore::{
    run_workload, PageServerConfig, PageServerEngine, StorageEngine, TexasConfig, TexasEngine,
};
use scenario::CONFIDENCE;
use voodb::{run_dstc_study, run_replication, ExperimentConfig, VoodbParams, WORKLOAD_SEED_SALT};

/// Runs `reps` replications of `f(seed)` for seeds `base_seed..` across
/// threads, returning the values in seed order (deterministic output
/// regardless of scheduling).
pub fn replicate_map<T, F>(reps: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(u64) -> T + Sync,
{
    assert!(reps > 0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(reps);
    let slots: Vec<std::sync::Mutex<T>> = (0..reps)
        .map(|_| std::sync::Mutex::new(T::default()))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= reps {
                    break;
                }
                *slots[i].lock().expect("replication slot poisoned") = f(base_seed + i as u64);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("replication slot poisoned"))
        .collect()
}

/// Generates the workload run for one replication seed over a shared base
/// (the stream [`run_replication`] feeds the Sim column).
pub fn generate_workload(
    base: &ObjectBase,
    wl: &WorkloadParams,
    seed: u64,
) -> (Vec<Transaction>, usize) {
    let mut generator = WorkloadGenerator::new(base, wl.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (cold, hot) = generator.generate_run();
    let cold_count = cold.len();
    let mut transactions = cold;
    transactions.extend(hot);
    (transactions, cold_count)
}

/// The validated system a measurement instantiates (Table 4 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The O2-like page server; the knob is the server cache in MB.
    O2,
    /// The Texas-like centralized store (swizzling on load); the knob is
    /// host memory in MB.
    Texas,
}

impl Preset {
    /// The real mini-engine of this preset, sized by `mb` (the
    /// Benchmark column's system).
    pub fn engine(self, base: &ObjectBase, mb: usize) -> Box<dyn StorageEngine + '_> {
        match self {
            Preset::O2 => Box::new(PageServerEngine::new(
                base,
                PageServerConfig::with_cache_mb(mb),
            )),
            Preset::Texas => Box::new(TexasEngine::new(base, TexasConfig::with_memory_mb(mb))),
        }
    }

    /// The VOODB parameterisation of this preset, sized by `mb`.
    pub fn params(self, mb: usize) -> VoodbParams {
        match self {
            Preset::O2 => VoodbParams::o2(mb),
            Preset::Texas => VoodbParams::texas(mb),
        }
    }

    /// The Simulation column's experiment: this preset sized by `mb`,
    /// over the base `db` describes, under `wl`.
    pub fn config(self, db: &DatabaseParams, wl: &WorkloadParams, mb: usize) -> ExperimentConfig {
        ExperimentConfig {
            system: self.params(mb),
            database: db.clone(),
            workload: wl.clone(),
        }
    }
}

/// One replication of the Benchmark column: generate the stream, run
/// the cold transactions on `preset`'s engine sized by `mb`, measure the
/// warm run, return its total I/Os.
pub fn bench_ios(
    preset: Preset,
    base: &ObjectBase,
    wl: &WorkloadParams,
    mb: usize,
    seed: u64,
) -> f64 {
    let (transactions, cold_count) = generate_workload(base, wl, seed);
    let mut engine = preset.engine(base, mb);
    run_workload(engine.as_mut(), &transactions[..cold_count]);
    engine.reset_counters();
    let report = run_workload(engine.as_mut(), &transactions[cold_count..]);
    report.total_ios() as f64
}

/// Measures one bench-vs-sim sweep point of `preset` at knob value `mb`
/// (the shape every figure sweeps): builds the object base once from
/// `db` + `base_seed`, then runs `reps` replications of each column over
/// it, seeded `base_seed + 1..`.
pub fn measure_preset_point(
    preset: Preset,
    x: f64,
    db: &DatabaseParams,
    wl: &WorkloadParams,
    mb: usize,
    reps: usize,
    base_seed: u64,
) -> Point {
    let base = ObjectBase::generate(db, base_seed);
    let config = preset.config(db, wl, mb);
    let bench = replicate_map(reps, base_seed + 1, |seed| {
        bench_ios(preset, &base, wl, mb, seed)
    });
    let sim = replicate_map(reps, base_seed + 1, |seed| {
        let (result, _) = run_replication(&base, &config, seed, NoProbe, SchedulerKind::default());
        result.total_ios() as f64
    });
    Point {
        x,
        bench: ConfidenceInterval::from_samples(&bench, CONFIDENCE),
        sim: ConfidenceInterval::from_samples(&sim, CONFIDENCE),
    }
}

/// A bench-vs-sim point of a sweep.
#[derive(Clone, Debug)]
pub struct Point {
    /// The sweep coordinate (instances, MB of cache, …).
    pub x: f64,
    /// Benchmark estimate.
    pub bench: ConfidenceInterval,
    /// Simulation estimate.
    pub sim: ConfidenceInterval,
}

impl Point {
    /// Benchmark / simulation mean ratio (the paper's consistency check).
    pub fn ratio(&self) -> f64 {
        if self.sim.mean == 0.0 {
            f64::INFINITY
        } else {
            self.bench.mean / self.sim.mean
        }
    }
}

/// The DSTC tuning of the §4.4 study: Tables 6–8, the parameter sweep
/// (`dstc_sweep`, which varies one knob at a time from here) and the
/// strategy comparison. Reorganisation happens on external demand only,
/// as in the engine protocol.
pub fn study_dstc_params() -> DstcParams {
    DstcParams {
        observation_period: 10_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX,
    }
}

/// The Simulation column of the §4.4 study: the Texas preset at
/// `memory_mb` clustering with DSTC tuned by `dstc`.
pub fn texas_dstc_config(
    db: &DatabaseParams,
    wl: &WorkloadParams,
    memory_mb: usize,
    dstc: DstcParams,
) -> ExperimentConfig {
    let mut config = Preset::Texas.config(db, wl, memory_mb);
    config.system.clustering = ClusteringKind::Dstc(dstc);
    config
}

/// The four-row DSTC comparison of Tables 6/8 for one side
/// (pre-clustering usage, clustering overhead, post-clustering usage,
/// gain) plus the Table 7 cluster statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DstcSide {
    /// Mean I/Os of the pre-clustering run.
    pub pre: f64,
    /// Mean I/Os of the reorganisation.
    pub overhead: f64,
    /// Mean I/Os of the post-clustering run.
    pub post: f64,
    /// Mean number of clusters built.
    pub clusters: f64,
    /// Mean objects per cluster.
    pub objects_per_cluster: f64,
}

impl DstcSide {
    /// pre/post gain factor.
    pub fn gain(&self) -> f64 {
        if self.post == 0.0 {
            f64::INFINITY
        } else {
            self.pre / self.post
        }
    }
}

/// One replication of the §4.4 protocol on the Texas *engine*.
pub fn dstc_bench_once(
    base: &ObjectBase,
    wl: &WorkloadParams,
    memory_mb: usize,
    dstc: DstcParams,
    seed: u64,
) -> DstcSide {
    let (transactions, cold_count) = generate_workload(base, wl, seed);
    let mut config = TexasConfig::with_memory_mb(memory_mb);
    config.clustering = ClusteringKind::Dstc(dstc);
    let mut engine = TexasEngine::new(base, config);
    run_workload(&mut engine, &transactions[..cold_count]);
    engine.reset_counters();
    let pre = run_workload(&mut engine, &transactions[cold_count..]);
    engine.reset_counters();
    let report = engine.reorganize();
    engine.flush_memory();
    engine.reset_counters();
    let post = run_workload(&mut engine, &transactions[cold_count..]);
    DstcSide {
        pre: pre.total_ios() as f64,
        overhead: report.total_ios() as f64,
        post: post.total_ios() as f64,
        clusters: report.outcome.cluster_count() as f64,
        objects_per_cluster: report.outcome.mean_cluster_size(),
    }
}

/// One replication of the §4.4 protocol on the VOODB *simulation*
/// ([`run_dstc_study`]).
pub fn dstc_sim_once(base: &ObjectBase, config: &ExperimentConfig, seed: u64) -> DstcSide {
    let study = run_dstc_study(base, config, seed);
    DstcSide {
        pre: study.pre.total_ios() as f64,
        overhead: study.reorg.io.total() as f64,
        post: study.post.total_ios() as f64,
        clusters: study.reorg.cluster_count as f64,
        objects_per_cluster: study.reorg.mean_cluster_size,
    }
}

/// Averages `reps` replications of a [`DstcSide`] protocol over a shared
/// base.
pub fn dstc_mean<F>(reps: usize, base_seed: u64, f: F) -> DstcSide
where
    F: Fn(u64) -> DstcSide + Sync,
{
    let sides = replicate_map(reps, base_seed, f);
    let mut acc = [
        Welford::new(),
        Welford::new(),
        Welford::new(),
        Welford::new(),
        Welford::new(),
    ];
    for side in &sides {
        acc[0].add(side.pre);
        acc[1].add(side.overhead);
        acc[2].add(side.post);
        acc[3].add(side.clusters);
        acc[4].add(side.objects_per_cluster);
    }
    DstcSide {
        pre: acc[0].mean(),
        overhead: acc[1].mean(),
        post: acc[2].mean(),
        clusters: acc[3].mean(),
        objects_per_cluster: acc[4].mean(),
    }
}

/// Both columns of the §4.4 study on the Texas preset at `memory_mb`,
/// each averaged over `reps` replications seeded `base_seed..`:
/// `(bench, sim)`.
pub fn measure_dstc(
    base: &ObjectBase,
    db: &DatabaseParams,
    wl: &WorkloadParams,
    memory_mb: usize,
    dstc: &DstcParams,
    reps: usize,
    base_seed: u64,
) -> (DstcSide, DstcSide) {
    let config = texas_dstc_config(db, wl, memory_mb, dstc.clone());
    let bench = dstc_mean(reps, base_seed, |seed| {
        dstc_bench_once(base, wl, memory_mb, dstc.clone(), seed)
    });
    let sim = dstc_mean(reps, base_seed, |seed| dstc_sim_once(base, &config, seed));
    (bench, sim)
}

/// Merged response-time histogram of the Simulation column over `reps`
/// traced replications seeded `base_seed..` (the trace covers the whole
/// phase, cold transactions included). Replications run in parallel and
/// merge in seed order.
pub fn sim_latency(
    base: &ObjectBase,
    config: &ExperimentConfig,
    reps: usize,
    base_seed: u64,
) -> vtrace::Histogram {
    let hists = replicate_map(reps, base_seed, |seed| {
        let probe = vtrace::RecorderConfig::new().build();
        let (_, mut recorder) =
            run_replication(base, config, seed, probe, SchedulerKind::default());
        recorder.flush();
        recorder
            .stage_histograms()
            .get("response_ms")
            .cloned()
            .unwrap_or_default()
    });
    let mut merged = vtrace::Histogram::new();
    for hist in &hists {
        merged.merge(hist);
    }
    merged
}

/// The database sizes swept by Figs. 6/7/9/10.
pub const INSTANCE_SWEEP: [usize; 6] = [500, 1_000, 2_000, 5_000, 10_000, 20_000];

/// The memory/cache sizes swept by Figs. 8/11 (MB).
pub const MEMORY_SWEEP_MB: [usize; 6] = [8, 12, 16, 24, 32, 64];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_and_engine_frames_per_mb_agree() {
        // Both columns of Figs. 8 and 11 must see the same memory; the
        // engines keep their own pair because they are the "real
        // system" side.
        assert_eq!(voodb::O2_FRAMES_PER_MB, oostore::O2_FRAMES_PER_MB);
        assert_eq!(voodb::TEXAS_FRAMES_PER_MB, oostore::TEXAS_FRAMES_PER_MB);
    }

    fn tiny_base() -> ObjectBase {
        ObjectBase::generate(&DatabaseParams::small(), 7)
    }

    fn tiny_wl() -> WorkloadParams {
        WorkloadParams {
            hot_transactions: 30,
            ..WorkloadParams::default()
        }
    }

    /// Total I/Os of one Simulation-column replication.
    fn sim_ios(base: &ObjectBase, config: &ExperimentConfig, seed: u64) -> f64 {
        let (result, _) = run_replication(base, config, seed, NoProbe, SchedulerKind::default());
        result.total_ios() as f64
    }

    /// Both columns of `preset` at `mb` over the tiny base.
    fn columns(preset: Preset, mb: usize, seed: u64) -> (f64, f64) {
        let base = tiny_base();
        let wl = tiny_wl();
        let config = preset.config(&DatabaseParams::small(), &wl, mb);
        (
            bench_ios(preset, &base, &wl, mb, seed),
            sim_ios(&base, &config, seed),
        )
    }

    #[test]
    fn replicate_is_deterministic_and_ordered() {
        let samples = replicate_map(8, 100, |seed| seed as f64);
        assert_eq!(samples, (100..108).map(|s| s as f64).collect::<Vec<_>>());
    }

    #[test]
    fn preset_point_seeds_the_base_and_each_replication() {
        // One replication: the base comes from `base_seed`, both columns
        // from replication seed `base_seed + 1`.
        let db = DatabaseParams::small();
        let wl = tiny_wl();
        let point = measure_preset_point(Preset::Texas, 1.0, &db, &wl, 2, 1, 9);
        let base = ObjectBase::generate(&db, 9);
        let config = Preset::Texas.config(&db, &wl, 2);
        assert_eq!(
            point.bench.mean,
            bench_ios(Preset::Texas, &base, &wl, 2, 10)
        );
        assert_eq!(point.sim.mean, sim_ios(&base, &config, 10));
    }

    #[test]
    fn bench_and_sim_columns_are_comparable() {
        let (bench, sim) = columns(Preset::O2, 1, 7);
        assert!(bench > 0.0);
        assert!(sim > 0.0);
        // Same workload, independent implementations: within 3× of each
        // other (the paper's "lightly different in absolute value").
        let ratio = bench / sim;
        assert!((0.33..3.0).contains(&ratio), "bench/sim ratio {ratio}");
    }

    #[test]
    fn texas_columns_are_comparable() {
        let (bench, sim) = columns(Preset::Texas, 1, 9);
        assert!(bench > 0.0 && sim > 0.0);
        let ratio = bench / sim;
        assert!((0.25..4.0).contains(&ratio), "bench/sim ratio {ratio}");
    }

    #[test]
    fn engine_metadata_ios_separate_bench_from_sim() {
        // With the persistent OID table, the benchmark column must sit
        // strictly above the simulation column on the same stream.
        let (bench, sim) = columns(Preset::O2, 4, 11);
        assert!(bench > sim, "bench {bench} should exceed sim {sim}");
    }

    #[test]
    fn measure_point_produces_intervals() {
        let point = measure_preset_point(
            Preset::O2,
            500.0,
            &DatabaseParams::small(),
            &tiny_wl(),
            1,
            5,
            11,
        );
        assert_eq!(point.bench.n, 5);
        assert!(point.bench.mean > 0.0);
        assert!(point.sim.half_width.is_finite());
        assert!(point.ratio() > 0.0);
    }

    #[test]
    fn dstc_protocol_runs_both_sides() {
        let base = tiny_base();
        let wl = WorkloadParams {
            hot_transactions: 200,
            ..WorkloadParams::dstc_favorable()
        };
        let dstc = DstcParams {
            observation_period: 2_000,
            tfa: 2.0,
            tfc: 1.0,
            tfe: 2.0,
            w: 0.8,
            max_unit_size: 32,
            trigger_threshold: usize::MAX,
        };
        let config = texas_dstc_config(&DatabaseParams::small(), &wl, 64, dstc.clone());
        let bench = dstc_bench_once(&base, &wl, 64, dstc, 13);
        let sim = dstc_sim_once(&base, &config, 13);
        assert!(bench.clusters > 0.0);
        assert!(sim.clusters > 0.0);
        assert!(bench.gain() > 1.0, "bench gain {}", bench.gain());
        assert!(sim.gain() > 1.0, "sim gain {}", sim.gain());
        // The Table 6 anomaly: physical-OID overhead ≫ logical-OID
        // overhead.
        assert!(
            bench.overhead > 3.0 * sim.overhead,
            "bench overhead {} should dwarf sim overhead {}",
            bench.overhead,
            sim.overhead
        );
    }
}
