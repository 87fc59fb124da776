//! The repository benchmark: end-to-end and per-layer metrics of the
//! VOODB reproduction on three workloads (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8_o2|dstc_texas|users_1m> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run first times the set-up several times, then repeats the
//! workload's fixed job list in rounds until `--seconds` have passed (at
//! least [`MIN_ROUNDS`] rounds), on one thread, timing more set-ups and
//! the host's reference kernel between the rounds. Each round generates the
//! object base, then runs every job. Outside the timed
//! rounds it checks the outputs. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced rounds, replays single layers, and reports the per-layer
//! metrics. The last line of standard output is one JSON object.

mod host;
mod probe;
mod replay;
mod spans;
mod stats;
mod workload;

use desp::SchedulerKind;
use ocb::{ObjectBase, Transaction, WorkloadGenerator};
use oostore::PageServerConfig;
use probe::{ProbeStats, RESOURCE_CLASSES};
use replay::BufferReplay;
use spans::Spans;
use stats::{fnv1a, median, peak_rss_mb, quantile, result_line, tail_quantile, Metric};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{
    generate, rep_seed, Job, JobContext, JobOut, Side, Spec, Workload, BASE_SEED,
    WORKLOAD_SEED_SALT,
};

/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Set-ups measured before the first round for `setup_s` (median).
const SETUP_REPS: usize = 9;
/// Share of the run's time given to set-ups: more are made before each
/// round while their total stays below it, so the median samples the
/// whole run rather than its first second (the shared host slows down
/// for seconds at a time), and a sub-millisecond set-up is sampled
/// thousands of times.
const SETUP_SHARE: f64 = 0.1;
/// Share of the run's time given to the host reference kernel
/// ([`host::reference_ms`]), timed between rounds like the set-ups.
const REFERENCE_SHARE: f64 = 0.08;
/// Traced runs alternate untraced (U) and traced (T) rounds as U T T U,
/// so a drift of the host charges both kinds alike.
const TRACE_PATTERN: [bool; 4] = [false, true, true, false];
/// Transactions of the `users_1m` stream the layer replays cover.
const USERS_REPLAY_TX: usize = 2_000;
/// Holds per scheduler replay.
const HOLDS: usize = 1_000_000;
/// Largest tolerated bench/sim I/O ratio (either way) at a sweep point.
const MAX_COLUMN_RATIO: f64 = 3.0;
/// Slack of the paper's same-tendency check on the Fig. 8 sweep.
const TENDENCY_SLACK: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass over the fixed job list.
struct Round {
    traced: bool,
    base_ns: u64,
    jobs: Vec<(Job, JobOut)>,
}

impl Round {
    /// The round's time: base generation plus every job.
    fn wall_ns(&self) -> u64 {
        self.base_ns + self.jobs.iter().map(|(_, o)| o.job_ns).sum::<u64>()
    }

    fn side(&self, side: Side) -> impl Iterator<Item = &JobOut> {
        self.jobs
            .iter()
            .filter(move |(job, _)| job.side == side)
            .map(|(_, out)| out)
    }

    fn sum(&self, side: Side, f: impl Fn(&JobOut) -> u64) -> u64 {
        self.side(side).map(f).sum()
    }

    /// Sim-phase host ns per dispatched event.
    fn sim_ns_per_event(&self) -> f64 {
        self.sum(Side::Sim, |o| o.phase_ns) as f64 / self.sum(Side::Sim, |o| o.events).max(1) as f64
    }

    /// Transactions per host second of `side`'s jobs.
    fn tx_per_s(&self, side: Side) -> f64 {
        self.sum(side, |o| o.commits) as f64 / (self.sum(side, |o| o.job_ns) as f64 / 1e9)
    }
}

fn run_round(spec: &Spec, seed: u64, traced: bool, job_ids: &mut u32, spans: &mut Spans) -> Round {
    spans.set_keep(traced);
    let (base, base_ns) = spans.call("ocb.base", || {
        ObjectBase::generate(&spec.database, BASE_SEED)
    });
    let ctx = JobContext {
        spec,
        base: &base,
        seed,
    };
    let jobs = spec
        .jobs()
        .into_iter()
        .map(|job| {
            *job_ids += 1;
            (
                job,
                ctx.run(job, *job_ids, SchedulerKind::Calendar, traced, spans),
            )
        })
        .collect();
    Round {
        traced,
        base_ns,
        jobs,
    }
}

/// A round whose times are each job's fastest over `rounds` (every
/// count is deterministic and taken from the first round), for the
/// per-layer times. The jobs are deterministic work, so interference
/// from the shared host can only add time.
fn fastest_of(rounds: &[&Round]) -> Round {
    let min = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(|r| f(r)).min().unwrap_or(0);
    let mut jobs = rounds[0].jobs.clone();
    for (i, (_, out)) in jobs.iter_mut().enumerate() {
        let job = |f: fn(&JobOut) -> u64| min(&|r| f(&r.jobs[i].1));
        out.job_ns = job(|o| o.job_ns);
        out.construct_ns = job(|o| o.construct_ns);
        out.phase_ns = job(|o| o.phase_ns);
        out.reorg_ns = job(|o| o.reorg_ns);
    }
    let base_ns = min(&|r| r.base_ns);
    Round {
        traced: false,
        base_ns,
        jobs,
    }
}

/// Outcome of the checks made outside the timed rounds.
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.messages.push(format!("{what}: {e}"));
        }
    }
}

fn first_job(round: &Round, point: usize, side: Side) -> &JobOut {
    round
        .jobs
        .iter()
        .find(|(job, _)| job.point == point && job.side == side && job.rep == 0)
        .map(|(_, out)| out)
        .expect("every point has a first replication on every side")
}

/// Mean of `f` over the first round's jobs of `side` at `point`.
fn point_mean(round: &Round, point: usize, side: Side, f: impl Fn(&JobOut) -> f64) -> f64 {
    let values: Vec<f64> = round
        .jobs
        .iter()
        .filter(|(job, _)| job.point == point && job.side == side)
        .map(|(_, out)| f(out))
        .collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn gain(out: &JobOut) -> f64 {
    out.pre_ios as f64 / out.post_ios.max(1) as f64
}

/// The checks, and the bench–sim gap of the paper's consistency check
/// (None where the workload has no bench column).
fn check_outputs(
    spec: &Spec,
    seed: u64,
    base: &ObjectBase,
    rounds: &[Round],
    replays: &[BufferReplay],
) -> (Checks, Option<f64>) {
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        messages: Vec::new(),
    };
    let first = &rounds[0];
    let ctx = JobContext { spec, base, seed };
    let mut quiet = Spans::new(false);
    for (point, replay) in replays.iter().enumerate() {
        // The heap scheduler is the calendar queue's oracle: same total
        // event order, so a bit-identical result.
        let job = Job {
            point,
            side: Side::Sim,
            rep: 0,
        };
        let oracle = ctx.run(job, 0, SchedulerKind::Heap, false, &mut quiet);
        let calendar = first_job(first, point, Side::Sim);
        checks.record(
            &format!("point {point}: heap oracle"),
            match oracle.failure {
                Some(e) => Err(e),
                None if oracle.fingerprint != calendar.fingerprint => Err(format!(
                    "calendar {} != heap {}",
                    calendar.fingerprint, oracle.fingerprint
                )),
                None => Ok(()),
            },
        );
        if spec.counted() {
            // One user runs one transaction at a time, so the first
            // phase's buffer sees exactly the stream's reference string.
            let replayed = replay.hit_ratio();
            checks.record(
                &format!("point {point}: buffer replay"),
                if replayed.to_bits() == calendar.hit_ratio.to_bits() {
                    Ok(())
                } else {
                    Err(format!(
                        "model hit ratio {} != replay {replayed}",
                        calendar.hit_ratio
                    ))
                },
            );
        }
    }
    let points = 0..spec.points_mb.len();
    let gap = match spec.workload {
        Workload::Fig8O2 => {
            let ios = |side| -> Vec<f64> {
                points
                    .clone()
                    .map(|p| point_mean(first, p, side, |o| o.pre_ios as f64))
                    .collect()
            };
            let (sim, bench) = (ios(Side::Sim), ios(Side::Bench));
            let ratios: Vec<f64> = bench.iter().zip(&sim).map(|(b, s)| b / s).collect();
            for (p, ratio) in ratios.iter().enumerate() {
                checks.record(
                    &format!("point {p}: bench/sim I/O ratio"),
                    if (1.0 / MAX_COLUMN_RATIO..=MAX_COLUMN_RATIO).contains(ratio) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{ratio} outside [1/{MAX_COLUMN_RATIO}, {MAX_COLUMN_RATIO}]"
                        ))
                    },
                );
            }
            for (name, series) in [("sim", &sim), ("bench", &bench)] {
                // Fig. 8's tendency: I/Os fall (or stay) as the cache grows.
                let rises = series
                    .windows(2)
                    .position(|w| w[1] > w[0] * (1.0 + TENDENCY_SLACK));
                checks.record(
                    &format!("{name} column: same tendency"),
                    match rises {
                        Some(p) => Err(format!("I/Os rise from point {p} to {}", p + 1)),
                        None => Ok(()),
                    },
                );
            }
            Some(ratios.iter().map(|r| (r - 1.0).abs()).sum::<f64>() / ratios.len() as f64 * 100.0)
        }
        Workload::DstcTexas => {
            let mut gaps = Vec::new();
            for p in points {
                let sim_gain = point_mean(first, p, Side::Sim, gain);
                let bench_gain = point_mean(first, p, Side::Bench, gain);
                checks.record(
                    &format!("point {p}: DSTC gains"),
                    if sim_gain > 1.0 && bench_gain > 1.0 {
                        Ok(())
                    } else {
                        Err(format!("sim gain {sim_gain}, bench gain {bench_gain}"))
                    },
                );
                // Table 6's anomaly: the physical-OID engine pays the
                // reference-patch scan the logical-OID model does not.
                let sim_overhead = point_mean(first, p, Side::Sim, |o| o.reorg_ios as f64);
                let bench_overhead = point_mean(first, p, Side::Bench, |o| o.reorg_ios as f64);
                checks.record(
                    &format!("point {p}: clustering overhead"),
                    if bench_overhead > sim_overhead {
                        Ok(())
                    } else {
                        Err(format!("bench {bench_overhead} <= sim {sim_overhead}"))
                    },
                );
                gaps.push((bench_gain / sim_gain - 1.0).abs() * 100.0);
            }
            Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
        }
        Workload::Users1m => None,
    };
    (checks, gap)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <fig8_o2|dstc_texas|users_1m> --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let allocator_pinned = host::retain_freed_memory();
    let spec = args.workload.spec();
    let seed = args.seed;
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace {
        TRACE_PATTERN.len()
    } else {
        MIN_ROUNDS
    };

    // Set-up: generate the base and build every job's engine and
    // simulation; the median over the run is `setup_s`.
    let set_up = || {
        let start = Instant::now();
        let base = ObjectBase::generate(&spec.database, BASE_SEED);
        let ctx = JobContext {
            spec: &spec,
            base: &base,
            seed,
        };
        for job in spec.jobs() {
            ctx.construct(job);
        }
        start.elapsed().as_secs_f64()
    };
    let started = Instant::now();
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| set_up()).collect();

    let mut spans = Spans::new(false);
    let mut job_ids = 0u32;
    let mut rounds = Vec::new();
    let mut reference_ms = Vec::new();
    let mut peak_rss = 0.0;
    while rounds.len() < min_rounds
        || started.elapsed() < budget
        || (args.trace && rounds.len() % TRACE_PATTERN.len() != 0)
    {
        while setups.iter().sum::<f64>() < SETUP_SHARE * started.elapsed().as_secs_f64() {
            setups.push(set_up());
        }
        // The reference kernel's buffer would raise the peak memory, so
        // it runs only once the first round has set `peak_rss_mb`.
        while !rounds.is_empty()
            && (reference_ms.is_empty()
                || reference_ms.iter().sum::<f64>()
                    < REFERENCE_SHARE * started.elapsed().as_secs_f64() * 1e3)
        {
            reference_ms.push(host::reference_ms());
        }
        let traced = args.trace && TRACE_PATTERN[rounds.len() % TRACE_PATTERN.len()];
        rounds.push(run_round(&spec, seed, traced, &mut job_ids, &mut spans));
        if rounds.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    // How much slower than the reference host this run's host was.
    let host_factor = median(&reference_ms) / host::REFERENCE_MS;

    // Everything below is outside the timed rounds.
    let base = ObjectBase::generate(&spec.database, BASE_SEED);
    let stream = replay_stream(&spec, &base, seed);
    let replays: Vec<BufferReplay> = (0..spec.points_mb.len())
        .map(|p| replay::buffer_replay(&base, &spec.system(p), &stream))
        .collect();
    let (mut checks, gap) = check_outputs(&spec, seed, &base, &rounds, &replays);

    // Every round must reproduce the first one exactly, traced or not.
    let mut failed_jobs = 0u64;
    let mut attempted_jobs = 0u64;
    for (r, round) in rounds.iter().enumerate() {
        for (i, (job, out)) in round.jobs.iter().enumerate() {
            attempted_jobs += 1;
            let failure = out.failure.clone().or_else(|| {
                (out.fingerprint != rounds[0].jobs[i].1.fingerprint)
                    .then(|| "result differs from the first round".to_owned())
            });
            if let Some(e) = failure {
                failed_jobs += 1;
                checks.messages.push(format!(
                    "round {r}, point {} {:?} rep {}: {e}",
                    job.point, job.side, job.rep
                ));
            }
        }
    }
    let digest_input: String = rounds[0]
        .jobs
        .iter()
        .map(|(_, o)| o.fingerprint.as_str())
        .collect();
    let digest = fnv1a(digest_input.as_bytes());

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let fastest = fastest_of(&untraced);
    let job_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.jobs.iter().map(|(_, o)| o.job_ns as f64 / 1e6))
        .collect();

    println!(
        "# perfbench {} seed={seed} rounds={} ({} traced) set-ups={} jobs/round={} \
         sim events/round={} sim commits/round={} freed memory retained={allocator_pinned} \
         digest={digest:016x}",
        spec.workload.name(),
        rounds.len(),
        rounds.len() - untraced.len(),
        setups.len(),
        rounds[0].jobs.len(),
        rounds[0].sum(Side::Sim, |o| o.events),
        rounds[0].sum(Side::Sim, |o| o.commits),
    );
    let metrics = if args.trace {
        let spans_path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{seed}.jsonl", spec.workload.name()));
        if let Err(e) = spans.write_jsonl(&spans_path) {
            eprintln!("error: writing {}: {e}", spans_path.display());
            std::process::exit(1);
        }
        println!("# spans written to {}", spans_path.display());
        layer_metrics(
            &spec, seed, &base, &stream, &rounds, &fastest, &replays, &spans,
        )
    } else {
        // Medians over the rounds, scaled to the reference host.
        let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
            median(&untraced.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        vec![
            Metric::new(
                "wall_s",
                per_round(&|r| r.wall_ns() as f64 / 1e9) / host_factor,
                "s",
            ),
            Metric::new(
                "sim_ns_per_event",
                per_round(&Round::sim_ns_per_event) / host_factor,
                "ns",
            ),
            Metric::new(
                "sim_tx_per_s",
                per_round(&|r| r.tx_per_s(Side::Sim)) * host_factor,
                "1/s",
            ),
            Metric::new("setup_s", median(&setups) / host_factor, "s"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    let infinite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    checks.record(
        "metric values",
        if infinite.is_empty() {
            Ok(())
        } else {
            Err(format!("not finite: {}", infinite.join(", ")))
        },
    );
    let attempted = attempted_jobs + checks.attempted;
    let failed = failed_jobs + checks.failed;
    let correct = failed == 0;

    for message in &checks.messages {
        println!("# FAILED {message}");
    }
    let report = |name: &str, value: Option<f64>, unit: &str| match value {
        Some(v) => println!("# {name:<22} {v:>14.4} {unit}"),
        None => println!("# {name:<22} {:>14} {unit}", "n/a"),
    };
    report(
        "failed_pct",
        Some(100.0 * failed as f64 / attempted as f64),
        "%",
    );
    report("bench_sim_gap_pct", gap, "%");
    report(
        "bench_tx_per_s",
        spec.sides
            .contains(&Side::Bench)
            .then(|| fastest.tx_per_s(Side::Bench)),
        "1/s",
    );
    let round_s: Vec<f64> = untraced.iter().map(|r| r.wall_ns() as f64 / 1e9).collect();
    println!(
        "# round_s min/p50/max {:>10.4} {:.4} {:.4} s (n={}), unscaled",
        quantile(&round_s, 0.0),
        median(&round_s),
        quantile(&round_s, 1.0),
        round_s.len(),
    );
    println!(
        "# reference_ms min/p50/max {:.2} {:.2} {:.2} (n={}); host_factor {host_factor:.4}; \
         setup_s unscaled {:.6}",
        quantile(&reference_ms, 0.0),
        median(&reference_ms),
        quantile(&reference_ms, 1.0),
        reference_ms.len(),
        median(&setups),
    );
    report(
        &format!("job_ms_p50 (n={})", job_ms.len()),
        tail_quantile(&job_ms, 0.5),
        "ms",
    );
    report(
        &format!("job_ms_p90 (n={})", job_ms.len()),
        tail_quantile(&job_ms, 0.9),
        "ms",
    );

    for m in &metrics {
        report(&m.name, Some(m.value), m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

/// The stream the layer replays run on: the first replication's, or on
/// `users_1m` the first [`USERS_REPLAY_TX`] transactions of it.
fn replay_stream(spec: &Spec, base: &ObjectBase, seed: u64) -> Vec<Transaction> {
    if spec.counted() {
        generate(base, &spec.stream, rep_seed(seed, 0)).0
    } else {
        let mut generator = WorkloadGenerator::new(
            base,
            spec.stream.clone(),
            rep_seed(seed, 0) ^ WORKLOAD_SEED_SALT,
        );
        (0..USERS_REPLAY_TX)
            .map(|_| generator.next_transaction())
            .collect()
    }
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)] // one value per input of the report
fn layer_metrics(
    spec: &Spec,
    seed: u64,
    base: &ObjectBase,
    stream: &[Transaction],
    rounds: &[Round],
    fastest: &Round,
    replays: &[BufferReplay],
    spans: &Spans,
) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    // Deterministic counts come from the first traced round.
    let counts = traced[0];
    let sim_jobs: Vec<&JobOut> = counts.side(Side::Sim).collect();
    let bench_jobs: Vec<&JobOut> = counts.side(Side::Bench).collect();
    let mut probe = ProbeStats::default();
    for out in &sim_jobs {
        probe.absorb(&out.probe);
    }
    let sum = |jobs: &[&JobOut], f: &dyn Fn(&JobOut) -> u64| jobs.iter().map(|o| f(o)).sum::<u64>();
    let mean = |jobs: &[&JobOut], f: &dyn Fn(&JobOut) -> f64| {
        jobs.iter().fold(0.0, |acc, o| acc + f(o)) / jobs.len().max(1) as f64
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let sim_commits = sum(&sim_jobs, &|o| o.commits);
    let dstc = spec.workload == Workload::DstcTexas;

    let (gen_ns_per_tx, accesses_per_tx) =
        replay::generation_replay(base, &spec.stream, rep_seed(seed, 0), stream.len());
    let (hold_ns, resizes) = replay::hold_replay(
        probe.pending_mean().round() as usize,
        probe.horizon_mean_ms(),
        seed,
        HOLDS,
    );

    let buffer_accesses: u64 = replays.iter().map(|r| r.accesses).sum();
    let weighted = |f: &dyn Fn(&BufferReplay) -> f64| {
        replays
            .iter()
            .map(|r| f(r) * r.accesses as f64)
            .sum::<f64>()
            / buffer_accesses.max(1) as f64
    };
    let bman_ns = weighted(&|r| r.ns_per_access);
    // Mean over a side's jobs of a fastest-round time, in ms.
    let mean_ms = |side: Side, f: fn(&JobOut) -> u64| {
        fastest.sum(side, f) as f64 / 1e6 / fastest.side(side).count().max(1) as f64
    };
    let sim_job_ms = mean_ms(Side::Sim, |o| o.job_ns);
    // Object accesses one sim job performs, as the probe counted them.
    let accesses_per_sim_job = ratio(probe.accesses, sim_jobs.len() as u64);

    let (oostore_ns, oostore_ios_per_tx, oostore_reorg_ms) = if bench_jobs.is_empty() {
        replay::engine_replay(base, &PageServerConfig::paper_default(), stream)
    } else {
        let bench_ns = ratio(
            fastest.sum(Side::Bench, |o| o.phase_ns),
            fastest.sum(Side::Bench, |o| o.accesses),
        );
        let ios = ratio(
            sum(&bench_jobs, &|o| o.pre_ios + o.post_ios),
            sum(&bench_jobs, &|o| o.commits),
        );
        let reorg_ms = if dstc {
            mean_ms(Side::Bench, |o| o.reorg_ns)
        } else {
            let config = PageServerConfig::with_cache_mb(spec.points_mb[0]);
            replay::engine_replay(base, &config, &[]).2
        };
        (bench_ns, ios, reorg_ms)
    };
    let core_reorg_ms = if dstc {
        mean_ms(Side::Sim, |o| o.reorg_ns)
    } else {
        replay::sim_reorg_replay(base, &spec.system(0), spec.think_time_ms())
    };

    // Recorder overhead: the traced rounds' fastest wall time against
    // the untraced rounds'.
    let overhead_pct =
        (fastest_of(&traced).wall_ns() as f64 / fastest.wall_ns() as f64 - 1.0) * 100.0;
    let attribution = spans.attribution();
    let share = |layer: &str| attribution.share_pct.get(layer).copied().unwrap_or(0.0);
    // Self time per traced round.
    let self_ms =
        |layer: &str| attribution.self_ms.get(layer).copied().unwrap_or(0.0) / traced.len() as f64;
    let n_traced = traced.len() as u64;

    let mut metrics = vec![
        Metric::new(
            "desp.events_per_tx",
            ratio(sum(&sim_jobs, &|o| o.events), sim_commits),
            "count",
        ),
        Metric::new("desp.sched_ns_per_hold", hold_ns, "ns"),
        Metric::new("desp.pending_mean", probe.pending_mean(), "count"),
        Metric::new("desp.pending_max", probe.pending_max as f64, "count"),
        Metric::new("desp.sched_resizes", resizes as f64, "count"),
        Metric::new("desp.horizon_mean_ms", probe.horizon_mean_ms(), "ms"),
        Metric::new("ocb.base_ms", fastest.base_ns as f64 / 1e6, "ms"),
        Metric::new("ocb.gen_ns_per_tx", gen_ns_per_tx, "ns"),
        Metric::new("ocb.accesses_per_tx", accesses_per_tx, "count"),
        Metric::new(
            "core.ns_per_access",
            ratio(fastest.sum(Side::Sim, |o| o.phase_ns), probe.accesses),
            "ns",
        ),
        Metric::new("core.sim_job_ms", sim_job_ms, "ms"),
        Metric::new(
            "core.construct_ms",
            mean_ms(Side::Sim, |o| o.construct_ns),
            "ms",
        ),
        Metric::new("core.hit_ratio", mean(&sim_jobs, &|o| o.hit_ratio), "ratio"),
        Metric::new(
            "core.ios_per_tx",
            ratio(sum(&sim_jobs, &|o| o.pre_ios + o.post_ios), sim_commits),
            "count",
        ),
        Metric::new(
            "core.admission_high_water",
            sim_jobs
                .iter()
                .map(|o| o.admission_high_water)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "core.tx_slab_high_water",
            sim_jobs
                .iter()
                .map(|o| o.slab_high_water)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new("core.aborts", sum(&sim_jobs, &|o| o.aborts) as f64, "count"),
        Metric::new(
            "core.lock_waits",
            sum(&sim_jobs, &|o| o.lock_waits) as f64,
            "count",
        ),
    ];
    for (class, waits) in RESOURCE_CLASSES.iter().zip(probe.waits) {
        metrics.push(Metric::new(
            format!("core.resource_waits.{class}"),
            waits as f64,
            "count",
        ));
    }
    metrics.extend([
        Metric::new("core.reorg_ms", core_reorg_ms, "ms"),
        Metric::new("bman.ns_per_access", bman_ns, "ns"),
        Metric::new(
            "bman.hit_ratio",
            weighted(&BufferReplay::hit_ratio),
            "ratio",
        ),
        Metric::new(
            "bman.evictions",
            replays.iter().map(|r| r.evictions).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "bman.dirty_evictions",
            replays.iter().map(|r| r.dirty_evictions).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "bman.share_of_sim_job_pct",
            100.0 * bman_ns * accesses_per_sim_job / (sim_job_ms * 1e6),
            "%",
        ),
        Metric::new("oman.ns_per_lookup", weighted(&|r| r.ns_per_lookup), "ns"),
        Metric::new("oostore.ns_per_access", oostore_ns, "ns"),
        Metric::new("oostore.ios_per_tx", oostore_ios_per_tx, "count"),
        Metric::new("oostore.reorg_ms", oostore_reorg_ms, "ms"),
        Metric::new(
            "oostore.reorg_ios",
            mean(&bench_jobs, &|o| o.reorg_ios as f64),
            "count",
        ),
        Metric::new(
            "clustering.clusters",
            mean(&sim_jobs, &|o| o.clusters as f64),
            "count",
        ),
        Metric::new(
            "clustering.objects_per_cluster",
            mean(&sim_jobs, &|o| o.objects_per_cluster),
            "count",
        ),
        Metric::new(
            "clustering.overhead_ios",
            mean(&sim_jobs, &|o| o.reorg_ios as f64),
            "count",
        ),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
        Metric::new("trace.spans", ratio(probe.recorder_spans, 1), "count"),
        Metric::new(
            "trace.bench_spans",
            ratio(spans.len() as u64, n_traced),
            "count",
        ),
        Metric::new("ocb.span_share_pct", share("ocb"), "%"),
        Metric::new("core.span_share_pct", share("core"), "%"),
        Metric::new("oostore.span_share_pct", share("oostore"), "%"),
        Metric::new("ocb.span_self_ms", self_ms("ocb"), "ms"),
        Metric::new("core.span_self_ms", self_ms("core"), "ms"),
        Metric::new("oostore.span_self_ms", self_ms("oostore"), "ms"),
        Metric::new("bench.uncovered_pct", attribution.uncovered_pct, "%"),
    ]);
    metrics
}
