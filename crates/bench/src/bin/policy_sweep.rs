//! Ablation — buffer replacement policies under the Table 5 workload.
//!
//! Not a paper artifact: the paper lists the policy spectrum (Table 3
//! `PGREP`) and flags buffering strategies as a prime extension target
//! (§5). This sweep exercises every built-in policy through the simulator
//! under identical conditions, demonstrating VOODB's stated purpose of
//! comparing optimisation choices without building a system.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin policy_sweep -- \
//!     [--reps 5] [--seed 42] [--objects 5000] [--buffer 256]
//! ```

use bufmgr::PolicyKind;
use desp::{ConfidenceInterval, SchedulerKind};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use voodb::{run_replication, ExperimentConfig, SystemClass, VoodbParams};
use voodb_bench::{replicate_map, Args, COMMON_KEYS};
use vtrace::{Histogram, RecorderConfig};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        let mut keys = COMMON_KEYS.to_vec();
        keys.extend([
            ("objects", "instances in the object base (default 5000)"),
            ("buffer", "buffer size in pages (default 256)"),
        ]);
        return Args::print_help("policy_sweep", &keys);
    }
    let reps = args.get("reps", 5usize);
    let seed = args.get("seed", 42u64);
    let objects = args.get("objects", 5_000usize);
    let buffer_pages = args.get("buffer", 256usize);
    let db = DatabaseParams {
        objects,
        ..DatabaseParams::default()
    };
    let workload = WorkloadParams::default();

    println!("# Ablation: page replacement policies (simulated, {objects} objects, {buffer_pages}-page buffer)");
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "policy", "ios", "±95%", "hit-ratio", "p50(ms)", "p99(ms)", "max(ms)"
    );
    for policy in PolicyKind::all_default() {
        let config = ExperimentConfig {
            system: VoodbParams {
                system_class: SystemClass::Centralized,
                buffer_pages,
                page_replacement: policy,
                get_lock_ms: 0.0,
                release_lock_ms: 0.0,
                ..VoodbParams::default()
            },
            database: db.clone(),
            workload: workload.clone(),
        };
        // One traced run per replication yields the scalar columns and
        // the latency histogram together.
        let samples: Vec<(f64, f64, Histogram)> = replicate_map(reps, seed, |s| {
            let base = ObjectBase::generate(&config.database, s);
            let probe = RecorderConfig::new().build();
            let (result, mut recorder) =
                run_replication(&base, &config, s, probe, SchedulerKind::default());
            recorder.flush();
            let hist = recorder
                .stage_histograms()
                .get("response_ms")
                .cloned()
                .unwrap_or_default();
            (result.total_ios() as f64, result.hit_ratio, hist)
        });
        let ios: Vec<f64> = samples.iter().map(|(ios, _, _)| *ios).collect();
        let hits: Vec<f64> = samples.iter().map(|(_, hit, _)| *hit).collect();
        let mut latency = Histogram::new();
        for (_, _, hist) in &samples {
            latency.merge(hist);
        }
        let ci = ConfidenceInterval::from_samples(&ios, 0.95);
        let hit = ConfidenceInterval::from_samples(&hits, 0.95);
        println!(
            "{:<12} {:>12.1} {:>10.1} {:>10.4} {:>10.2} {:>10.2} {:>10.2}",
            policy.to_string(),
            ci.mean,
            ci.half_width,
            hit.mean,
            latency.p50(),
            latency.p99(),
            latency.max_or_zero(),
        );
    }
}
