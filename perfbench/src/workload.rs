//! The three workloads and the jobs they are made of.
//!
//! A job is one replication of one side (the VOODB simulation or the
//! `oostore` mini-engine) at one sweep point. Each workload runs a fixed
//! job list per round over one object base, generated at the start of
//! the round from [`BASE_SEED`].

use crate::probe::{BenchProbe, ProbeStats};
use crate::spans::Spans;
use clustering::{ClusteringKind, DstcParams};
use desp::{NoProbe, SchedulerKind};
use ocb::{
    Arrival, DatabaseParams, LazySource, ObjectBase, Transaction, UserModel, WorkloadGenerator,
    WorkloadParams,
};
use oostore::{
    run_workload, PageServerConfig, PageServerEngine, ReorgReport, StorageEngine, TexasConfig,
    TexasEngine, WorkloadReport,
};
use voodb::{PhaseMode, PhaseResult, SimReorgReport, Simulation, VoodbParams};

/// Salt decorrelating workload streams from database seeds (the value
/// the paper-reproduction harness uses).
pub const WORKLOAD_SEED_SALT: u64 = 0x0C0B_57A7_15EC_5EED;

/// `users_1m`: closed population, MPL, think time and horizon.
pub const USERS: usize = 1_000_000;
pub const USERS_MPL: usize = 64;
const USERS_THINK_MS: f64 = 500.0;
const USERS_HORIZON_MS: f64 = 2_000.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 8: O2, mid-sized base, cache sweep, both columns.
    Fig8O2,
    /// Paper Tables 6–8: Texas with DSTC at 64 MB and 3 MB, both columns.
    DstcTexas,
    /// One million cohort-batched closed users on a small base.
    Users1m,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Fig8O2, Workload::DstcTexas, Workload::Users1m];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8O2 => "fig8_o2",
            Workload::DstcTexas => "dstc_texas",
            Workload::Users1m => "users_1m",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed definition.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Fig8O2 => Spec {
                workload: self,
                database: DatabaseParams::mid_sized(),
                stream: WorkloadParams::default(),
                points_mb: &[8, 12, 16, 24, 32, 64],
                sides: &[Side::Sim, Side::Bench],
                reps: 1,
            },
            Workload::DstcTexas => Spec {
                workload: self,
                database: DatabaseParams::mid_sized(),
                stream: WorkloadParams::dstc_favorable(),
                points_mb: &[64, 3],
                sides: &[Side::Sim, Side::Bench],
                reps: 4,
            },
            Workload::Users1m => Spec {
                workload: self,
                database: DatabaseParams::small(),
                stream: WorkloadParams {
                    p_set: 0.0,
                    p_simple: 0.0,
                    p_hierarchy: 0.0,
                    p_stochastic: 1.0,
                    stochastic_depth: 5,
                    ..WorkloadParams::default()
                },
                points_mb: &[0],
                sides: &[Side::Sim],
                // A replication's event count varies by ±20% with its
                // stream; twenty of them keep a round's total steady.
                reps: 20,
            },
        }
    }
}

/// Which column of the paper's comparison a job measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The VOODB model (`voodb-core` over `desp`).
    Sim,
    /// The `oostore` mini-engine (the paper's benchmark column).
    Bench,
}

/// The DSTC tuning of the paper's Tables 6–8 study.
pub fn dstc_params() -> DstcParams {
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

/// A workload's fixed definition.
pub struct Spec {
    pub workload: Workload,
    pub database: DatabaseParams,
    pub stream: WorkloadParams,
    /// Sweep points: cache or memory size in MB (unused by `users_1m`).
    pub points_mb: &'static [usize],
    pub sides: &'static [Side],
    /// Replications per point and side.
    pub reps: usize,
}

/// One job of a round.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub point: usize,
    pub side: Side,
    pub rep: usize,
}

impl Spec {
    /// The fixed job list of one round.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for point in 0..self.points_mb.len() {
            for rep in 0..self.reps {
                for &side in self.sides {
                    jobs.push(Job { point, side, rep });
                }
            }
        }
        jobs
    }

    /// The simulated system at sweep point `point`.
    pub fn system(&self, point: usize) -> VoodbParams {
        let mb = self.points_mb[point];
        match self.workload {
            Workload::Fig8O2 => VoodbParams::o2(mb),
            Workload::DstcTexas => VoodbParams {
                // External demand only, as in the engine protocol.
                clustering: ClusteringKind::Dstc(dstc_params()),
                ..VoodbParams::texas(mb)
            },
            Workload::Users1m => VoodbParams {
                buffer_pages: 10_000,
                get_lock_ms: 0.0,
                release_lock_ms: 0.0,
                users: USERS,
                multiprogramming_level: USERS_MPL,
                ..VoodbParams::default()
            },
        }
    }

    /// The think time the users' loop draws from.
    pub fn think_time_ms(&self) -> f64 {
        match self.workload {
            Workload::Users1m => USERS_THINK_MS,
            _ => self.stream.think_time_ms,
        }
    }

    /// Does this workload run count-based phases over a materialized
    /// stream (as opposed to a streamed time-horizon phase)?
    pub fn counted(&self) -> bool {
        self.workload != Workload::Users1m
    }
}

/// Seed of the object base. The database is part of the benchmarked
/// system, built once, as the paper built its O2 and Texas databases
/// once (§4.2); the run seed drives the transaction streams, which is
/// what the paper's replications varied.
pub const BASE_SEED: u64 = 42;

/// Replication seed of replication `rep` under run seed `seed`: spread
/// over the seed space so neighbouring run seeds share no stream.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    (seed ^ 0x5EED)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep as u64)
}

/// The transaction stream of one replication: `(cold + hot, cold)`.
pub fn generate(
    base: &ObjectBase,
    stream: &WorkloadParams,
    seed: u64,
) -> (Vec<Transaction>, usize) {
    let mut generator = WorkloadGenerator::new(base, stream.clone(), seed ^ WORKLOAD_SEED_SALT);
    let (cold, hot) = generator.generate_run();
    let cold_count = cold.len();
    let mut transactions = cold;
    transactions.extend(hot);
    (transactions, cold_count)
}

/// What one job produced and cost.
#[derive(Clone, Debug, Default)]
pub struct JobOut {
    /// Why the job failed its own invariants, if it did.
    pub failure: Option<String>,
    /// Host time of the whole job, of engine/simulation construction,
    /// of the measured phases and of the reorganisation, in ns.
    pub job_ns: u64,
    pub construct_ns: u64,
    pub phase_ns: u64,
    pub reorg_ns: u64,
    /// Committed (sim) or executed (bench) measured transactions.
    pub commits: u64,
    /// Events the kernel dispatched (sim only).
    pub events: u64,
    /// Object accesses of the stream over all measured phases (0 for a
    /// streamed phase, whose length only the probe sees).
    pub accesses: u64,
    /// Measured I/Os of the first phase, and of the post-clustering
    /// phase on `dstc_texas`.
    pub pre_ios: u64,
    pub post_ios: u64,
    /// Buffer hit ratio of the first phase (sim only).
    pub hit_ratio: f64,
    pub slab_high_water: usize,
    pub admission_high_water: usize,
    pub aborts: u64,
    pub lock_waits: u64,
    /// Reorganisation results (`dstc_texas`).
    pub clusters: usize,
    pub objects_per_cluster: f64,
    pub reorg_ios: u64,
    /// Every simulated statistic of the job, exactly (floats as bits).
    pub fingerprint: String,
    /// Probe counters (traced sim jobs only).
    pub probe: ProbeStats,
}

impl JobOut {
    /// Records `what` as the job's failure unless `ok` (first failure
    /// wins).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failure.is_none() {
            self.failure = Some(what());
        }
    }
}

fn phase_fingerprint(r: &PhaseResult) -> String {
    format!(
        "tx={} r={} w={} resp={:x} tps={:x} hit={:x} el={:x} ev={} reorgs={};",
        r.transactions,
        r.io.reads,
        r.io.writes,
        r.mean_response_ms.to_bits(),
        r.throughput_tps.to_bits(),
        r.hit_ratio.to_bits(),
        r.sim_elapsed_ms.to_bits(),
        r.events,
        r.reorgs.len()
    )
}

fn sim_reorg_fingerprint(r: &SimReorgReport) -> String {
    format!(
        "reorg r={} w={} dur={:x} clusters={} size={:x} moved={};",
        r.io.reads,
        r.io.writes,
        r.duration_ms.to_bits(),
        r.cluster_count,
        r.mean_cluster_size.to_bits(),
        r.moved_objects
    )
}

fn report_fingerprint(r: &WorkloadReport) -> String {
    format!(
        "tx={} r={} w={} el={:x};",
        r.transactions,
        r.io.reads,
        r.io.writes,
        r.elapsed_ms.to_bits()
    )
}

fn engine_reorg_fingerprint(r: &ReorgReport) -> String {
    format!(
        "reorg r={} w={} clusters={} size={:x} moved={} scanned={} patched={};",
        r.io.reads,
        r.io.writes,
        r.outcome.cluster_count(),
        r.outcome.mean_cluster_size().to_bits(),
        r.moved_objects,
        r.pages_scanned,
        r.pages_patched
    )
}

/// One measured phase on scheduler `sched`, with the benchmark probe
/// when `probe` is given.
fn phase(
    sim: &mut Simulation<'_>,
    transactions: Vec<Transaction>,
    cold: usize,
    sched: SchedulerKind,
    probe: Option<&mut ProbeStats>,
) -> PhaseResult {
    match probe {
        None => sim.run_phase_sched(transactions, cold, NoProbe, sched).0,
        Some(stats) => {
            let (result, p) = sim.run_phase_sched(transactions, cold, BenchProbe::new(), sched);
            stats.absorb(&p.finish());
            result
        }
    }
}

/// Everything a job needs besides its coordinates.
pub struct JobContext<'a> {
    pub spec: &'a Spec,
    pub base: &'a ObjectBase,
    pub seed: u64,
}

impl<'a> JobContext<'a> {
    /// The simulation a sim job runs.
    fn simulation(&self, job: Job) -> Simulation<'a> {
        let spec = self.spec;
        let seed = rep_seed(self.seed, job.rep);
        let mut sim = Simulation::new(
            self.base,
            spec.system(job.point),
            spec.think_time_ms(),
            seed,
        );
        if !spec.counted() {
            sim.configure_users(UserModel::Cohort, &[]);
        }
        sim
    }

    /// The Texas engine of a `dstc_texas` bench job.
    fn texas(&self, mb: usize) -> TexasEngine<'a> {
        let mut config = TexasConfig::with_memory_mb(mb);
        config.clustering = ClusteringKind::Dstc(dstc_params());
        TexasEngine::new(self.base, config)
    }

    /// The page server of a `fig8_o2` bench job.
    fn page_server(&self, mb: usize) -> PageServerEngine<'a> {
        PageServerEngine::new(self.base, PageServerConfig::with_cache_mb(mb))
    }

    /// Builds, and drops, the engine or simulation `job` runs on: the
    /// set-up the job pays before its first transaction.
    pub fn construct(&self, job: Job) {
        let mb = self.spec.points_mb[job.point];
        match (job.side, self.spec.workload) {
            (Side::Sim, _) => drop(self.simulation(job)),
            (Side::Bench, Workload::DstcTexas) => drop(self.texas(mb)),
            (Side::Bench, _) => drop(self.page_server(mb)),
        }
    }

    /// Runs `job`, recorded as job `job_id`, on scheduler `sched`. `traced` attaches the benchmark
    /// probe to every simulated phase. Panics inside the program are
    /// caught and reported as the job's failure.
    pub fn run(
        &self,
        job: Job,
        job_id: u32,
        sched: SchedulerKind,
        traced: bool,
        spans: &mut Spans,
    ) -> JobOut {
        let start = spans.begin_job(job_id);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.side {
            Side::Sim if self.spec.counted() => self.sim_counted(job, sched, traced, spans),
            Side::Sim => self.sim_streamed(job, sched, traced, spans),
            Side::Bench => self.bench(job, spans),
        }));
        let job_ns = spans.end_job(start);
        let mut out = outcome.unwrap_or_else(|panic| {
            let what = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            JobOut {
                failure: Some(format!("panicked: {what}")),
                ..JobOut::default()
            }
        });
        out.job_ns = job_ns;
        out
    }

    fn sim_counted(
        &self,
        job: Job,
        sched: SchedulerKind,
        traced: bool,
        spans: &mut Spans,
    ) -> JobOut {
        let spec = self.spec;
        let seed = rep_seed(self.seed, job.rep);
        let mut out = JobOut::default();
        let mut probe = traced.then(ProbeStats::default);
        let ((transactions, cold), _) =
            spans.call("ocb.generate", || generate(self.base, &spec.stream, seed));
        let requested = (transactions.len() - cold) as u64;
        let per_phase: u64 = transactions.iter().map(|t| t.len() as u64).sum();
        let (mut sim, construct_ns) = spans.call("core.new", || self.simulation(job));
        out.construct_ns = construct_ns;

        let post_transactions =
            (spec.workload == Workload::DstcTexas).then(|| transactions.clone());
        let (pre, ns) = spans.call("core.run_phase", || {
            phase(&mut sim, transactions, cold, sched, probe.as_mut())
        });
        out.phase_ns += ns;
        out.fingerprint.push_str(&phase_fingerprint(&pre));
        out.check(pre.transactions as u64 == requested, || {
            format!("committed {} of {requested} transactions", pre.transactions)
        });
        out.slab_high_water = sim.model().tx_slab_high_water();
        out.commits += pre.transactions as u64;
        out.events += pre.events;
        out.accesses += per_phase;
        out.pre_ios = pre.total_ios();
        out.hit_ratio = pre.hit_ratio;

        if let Some(transactions) = post_transactions {
            let (reorg, ns) = spans.call("core.external_reorganize", || sim.external_reorganize());
            out.reorg_ns = ns;
            out.fingerprint.push_str(&sim_reorg_fingerprint(&reorg));
            out.clusters = reorg.cluster_count;
            out.objects_per_cluster = reorg.mean_cluster_size;
            out.reorg_ios = reorg.io.total();
            spans.call("core.flush_buffers", || sim.flush_buffers());
            let (post, ns) = spans.call("core.run_phase", || {
                phase(&mut sim, transactions, cold, sched, probe.as_mut())
            });
            out.phase_ns += ns;
            out.fingerprint.push_str(&phase_fingerprint(&post));
            out.check(post.transactions as u64 == requested, || {
                format!(
                    "post-clustering run committed {} of {requested}",
                    post.transactions
                )
            });
            out.slab_high_water = out.slab_high_water.max(sim.model().tx_slab_high_water());
            out.commits += post.transactions as u64;
            out.events += post.events;
            out.accesses += per_phase;
            out.post_ios = post.total_ios();
        }
        self.finish_sim(&mut out, &sim, probe);
        out
    }

    fn sim_streamed(
        &self,
        job: Job,
        sched: SchedulerKind,
        traced: bool,
        spans: &mut Spans,
    ) -> JobOut {
        let spec = self.spec;
        let seed = rep_seed(self.seed, job.rep);
        let mut out = JobOut::default();
        let mut probe = traced.then(ProbeStats::default);
        let (mut sim, construct_ns) = spans.call("core.new", || self.simulation(job));
        out.construct_ns = construct_ns;
        let generator =
            WorkloadGenerator::new(self.base, spec.stream.clone(), seed ^ WORKLOAD_SEED_SALT);
        let source = Box::new(LazySource::unbounded(generator));
        let mode = PhaseMode::Horizon {
            duration_ms: USERS_HORIZON_MS,
            warmup_ms: 0.0,
        };
        let (result, ns) = spans.call("core.run_phase", || match probe.as_mut() {
            None => {
                sim.run_phase_source_sched(source, mode, Arrival::Closed, NoProbe, sched)
                    .0
            }
            Some(stats) => {
                let (result, p) = sim.run_phase_source_sched(
                    source,
                    mode,
                    Arrival::Closed,
                    BenchProbe::new(),
                    sched,
                );
                stats.absorb(&p.finish());
                result
            }
        });
        out.phase_ns = ns;
        out.fingerprint.push_str(&phase_fingerprint(&result));
        out.commits = result.transactions as u64;
        out.events = result.events;
        out.pre_ios = result.total_ios();
        out.hit_ratio = result.hit_ratio;
        out.slab_high_water = sim.model().tx_slab_high_water();
        out.admission_high_water = sim.model().admission_high_water();
        out.check(out.commits > 0, || "no transaction committed".into());
        let ring = out.admission_high_water;
        out.check(ring >= USERS / 2, || {
            format!("admission ring peak {ring} below users/2 ({USERS} users, MPL {USERS_MPL})")
        });
        self.finish_sim(&mut out, &sim, probe);
        out
    }

    fn finish_sim(&self, out: &mut JobOut, sim: &Simulation<'_>, probe: Option<ProbeStats>) {
        let model = sim.model();
        out.aborts = model.aborts();
        out.lock_waits = model.lock_stats().waits;
        out.fingerprint.push_str(&format!(
            "slab={} ring={} aborts={} waits={};",
            out.slab_high_water, out.admission_high_water, out.aborts, out.lock_waits
        ));
        let mpl = model.params().multiprogramming_level;
        let (slab, hit_ratio) = (out.slab_high_water, out.hit_ratio);
        out.check(slab <= mpl, || {
            format!("slab peak {slab} exceeds MPL {mpl}")
        });
        out.check((0.0..=1.0).contains(&hit_ratio), || {
            format!("hit ratio {hit_ratio} outside [0, 1]")
        });
        out.check(out.events > 0, || "no event dispatched".into());
        if let Some(stats) = probe {
            out.probe = stats;
        }
    }

    fn bench(&self, job: Job, spans: &mut Spans) -> JobOut {
        let spec = self.spec;
        let mb = spec.points_mb[job.point];
        let seed = rep_seed(self.seed, job.rep);
        let mut out = JobOut::default();
        let ((transactions, cold), _) =
            spans.call("ocb.generate", || generate(self.base, &spec.stream, seed));
        let requested = transactions.len() - cold;
        let per_phase: u64 = transactions[cold..].iter().map(|t| t.len() as u64).sum();
        let (cold_run, warm) = transactions.split_at(cold);
        let mut phases = Vec::new();
        match spec.workload {
            Workload::DstcTexas => {
                let (mut engine, ns) = spans.call("oostore.new", || self.texas(mb));
                out.construct_ns = ns;
                let (pre, ns) = spans.call("oostore.run_workload", || {
                    run_workload(&mut engine, cold_run);
                    engine.reset_counters();
                    run_workload(&mut engine, warm)
                });
                out.phase_ns += ns;
                phases.push(pre);
                engine.reset_counters();
                let (reorg, ns) = spans.call("oostore.reorganize", || engine.reorganize());
                out.reorg_ns = ns;
                out.fingerprint.push_str(&engine_reorg_fingerprint(&reorg));
                out.clusters = reorg.outcome.cluster_count();
                out.objects_per_cluster = reorg.outcome.mean_cluster_size();
                out.reorg_ios = reorg.total_ios();
                let (post, ns) = spans.call("oostore.run_workload", || {
                    engine.flush_memory();
                    engine.reset_counters();
                    run_workload(&mut engine, warm)
                });
                out.phase_ns += ns;
                phases.push(post);
            }
            _ => {
                let (mut engine, ns) = spans.call("oostore.new", || self.page_server(mb));
                out.construct_ns = ns;
                let (report, ns) = spans.call("oostore.run_workload", || {
                    run_workload(&mut engine, cold_run);
                    engine.reset_counters();
                    run_workload(&mut engine, warm)
                });
                out.phase_ns = ns;
                phases.push(report);
            }
        }
        for report in &phases {
            out.fingerprint.push_str(&report_fingerprint(report));
            out.check(report.transactions == requested, || {
                format!(
                    "engine ran {} of {requested} transactions",
                    report.transactions
                )
            });
            out.check(report.total_ios() > 0, || "engine performed no I/O".into());
            out.commits += report.transactions as u64;
            out.accesses += per_phase;
        }
        out.pre_ios = phases[0].total_ios();
        out.post_ios = phases.get(1).map_or(0, WorkloadReport::total_ios);
        out
    }
}
