//! DSTC parameter study — the paper's stated next step.
//!
//! §5: "Future work concerning this study is first performing intensive
//! simulation experiments with DSTC … it would be interesting to know the
//! right value for DSTC's parameters in various conditions." This sweep
//! runs the Table 6 protocol through the simulator across the tunable
//! axes (elementary threshold `Tfa`, extraction threshold `Tfe`, ageing
//! `w`, maximum unit size, observation period), one at a time from the
//! study tuning of Tables 6–8, and reports gain, overhead and cluster
//! shape for each setting.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin dstc_sweep -- \
//!     [--reps 5] [--seed 42] [--objects 5000]
//! ```

use clustering::DstcParams;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use voodb_bench::{
    dstc_mean, dstc_sim_once, study_dstc_params, texas_dstc_config, Args, COMMON_KEYS,
};

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        let mut keys = COMMON_KEYS.to_vec();
        keys.extend([("objects", "instances in the object base (default 5000)")]);
        return Args::print_help("dstc_sweep", &keys);
    }
    let reps = args.get("reps", 5usize);
    let seed = args.get("seed", 42u64);
    let objects = args.get("objects", 5_000usize);
    let db = DatabaseParams {
        objects,
        ..DatabaseParams::default()
    };
    let base = ObjectBase::generate(&db, seed);
    // Fewer transactions than the Table 6 protocol: link counts stay low
    // enough that the filtering thresholds actually discriminate.
    let workload = WorkloadParams {
        hot_transactions: 250,
        ..WorkloadParams::dstc_favorable()
    };

    println!("# DSTC parameter study (simulated, {objects} objects, favorable workload)");
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>9} {:>10}",
        "setting", "gain", "overhead", "post I/Os", "clusters", "obj/clust"
    );

    let row = |label: String, dstc: DstcParams| {
        let config = texas_dstc_config(&db, &workload, 64, dstc);
        let side = dstc_mean(reps, seed + 1, |s| dstc_sim_once(&base, &config, s));
        println!(
            "{:<26} {:>8.2} {:>10.1} {:>10.1} {:>9.1} {:>10.2}",
            label,
            side.gain(),
            side.overhead,
            side.post,
            side.clusters,
            side.objects_per_cluster
        );
    };

    row("baseline".into(), study_dstc_params());
    for tfa in [2.0, 4.0] {
        row(
            format!("tfa={tfa}"),
            DstcParams {
                tfa,
                ..study_dstc_params()
            },
        );
    }
    for tfe in [2.0, 5.0] {
        row(
            format!("tfe={tfe}"),
            DstcParams {
                tfe,
                ..study_dstc_params()
            },
        );
    }
    for w in [0.2, 0.5, 1.0] {
        row(
            format!("w={w}"),
            DstcParams {
                w,
                ..study_dstc_params()
            },
        );
    }
    for unit in [8, 16, 128] {
        row(
            format!("max_unit={unit}"),
            DstcParams {
                max_unit_size: unit,
                ..study_dstc_params()
            },
        );
    }
    for period in [2_000, 50_000] {
        row(
            format!("obs_period={period}"),
            DstcParams {
                observation_period: period,
                ..study_dstc_params()
            },
        );
    }
    println!(
        "\nreading: higher thresholds cluster less (lower overhead, lower gain); \
         ageing w trades adaptivity against stability; unit size trades \
         intra-cluster locality against packing."
    );
}
