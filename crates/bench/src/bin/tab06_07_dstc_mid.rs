//! Tables 6 & 7 — effects of DSTC on the performances of Texas,
//! mid-sized base.
//!
//! Protocol of §4.4: pure depth-3 hierarchy traversals with hot-set roots
//! ("favorable conditions") on the mid-sized base (NC = 50, NO = 20 000,
//! ~20 MB) with 64 MB of memory. Measured, per the paper:
//!
//! * pre-clustering usage (cold run),
//! * clustering overhead — where the physical-OID engine pays the
//!   whole-database reference-patch scan the simulation (logical OIDs)
//!   does not, the paper's flagged 36× anomaly,
//! * post-clustering usage (cold run of the same transactions),
//! * gain, and the Table 7 cluster statistics.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin tab06_07_dstc_mid -- \
//!     [--reps 10] [--seed 42] [--memory 64]
//! ```

use clustering::DstcParams;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use voodb_bench::{
    dstc_bench_once, dstc_mean, dstc_sim_once, print_cluster_table, print_dstc_table, Args,
    COMMON_KEYS,
};

/// The DSTC tuning used for the study; `repro_all` runs Tables 6–8 with
/// the same values.
pub fn study_dstc_params() -> DstcParams {
    DstcParams {
        observation_period: 10_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX, // external demand, per the protocol
    }
}

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        let mut keys = COMMON_KEYS.to_vec();
        keys.extend([("memory", "Texas host memory in MB (default 64)")]);
        return Args::print_help("tab06_07_dstc_mid", &keys);
    }
    let reps = args.get("reps", 10usize);
    let seed = args.get("seed", 42u64);
    let memory_mb = args.get("memory", 64usize);
    let db = DatabaseParams::mid_sized();
    // One object base per study, as for the real Texas database (§4.2).
    let base = ObjectBase::generate(&db, seed);
    let workload = WorkloadParams::dstc_favorable();
    let dstc = study_dstc_params();

    let bench = dstc_mean(reps, seed + 1, |s| {
        dstc_bench_once(&base, &workload, memory_mb, dstc.clone(), s)
    });
    let sim = dstc_mean(reps, seed + 1, |s| {
        dstc_sim_once(&base, &workload, memory_mb, dstc.clone(), s)
    });

    print_dstc_table(
        &format!("Table 6: effects of DSTC (mean I/Os) — mid-sized base, {memory_mb} MB"),
        &bench,
        &sim,
        true,
    );
    print_cluster_table("Table 7: DSTC clustering", &bench, &sim);

    let anomaly = bench.overhead / sim.overhead.max(1.0);
    println!(
        "physical-OID overhead anomaly (bench/sim): {anomaly:.1}x \
         (paper: 36.1x — driven by the whole-database reference patch scan)"
    );
}
