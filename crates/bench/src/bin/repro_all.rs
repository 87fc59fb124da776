//! Regenerates every table and figure of the paper's evaluation in one
//! run (Figures 6–11, Tables 6–8).
//!
//! ```text
//! cargo run --release -p voodb-bench --bin repro_all -- \
//!     [--reps 10] [--seed 42] [--out target/voodb-out]
//! ```
//!
//! With `--reps 100` this is the paper's full 100-replication protocol;
//! the default of 10 replications reproduces every shape in a few
//! minutes. Besides the stdout tables, every artifact is persisted as
//! `<out>/<stem>.csv` + `.json` via the scenario report writers, so CI
//! can upload the whole evaluation. The run exits non-zero when the
//! benchmark and simulation columns of any figure disagree in tendency
//! (the paper's consistency check), after every artifact is written.

use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use scenario::DEFAULT_OUT_DIR;
use std::path::{Path, PathBuf};
use voodb_bench::{
    check_same_tendency, dstc_report_table, latency_report_table, measure_dstc,
    measure_preset_point, print_cluster_table, print_dstc_table, print_latency_table, print_sweep,
    sim_latency, study_dstc_params, sweep_report_table, Args, LatencyRow, Point, Preset,
    COMMON_KEYS, INSTANCE_SWEEP, MEMORY_SWEEP_MB,
};

/// What a figure sweeps.
#[derive(Clone, Copy)]
enum Sweep {
    /// Object-base size over [`INSTANCE_SWEEP`]: `(classes, mb)`, the
    /// schema's class count and the system's size in MB.
    Instances(usize, usize),
    /// Server cache or host memory over [`MEMORY_SWEEP_MB`], on the
    /// mid-sized base.
    Memory,
}

/// Figures 6–11: `(artifact stem, title, x label, preset, sweep)`.
const FIGURES: [(&str, &str, &str, Preset, Sweep); 6] = [
    (
        "fig06_o2_base_size_20c",
        "Figure 6: mean I/Os vs instances (O2, 20 classes)",
        "instances",
        Preset::O2,
        Sweep::Instances(20, 16),
    ),
    (
        "fig07_o2_base_size_50c",
        "Figure 7: mean I/Os vs instances (O2, 50 classes)",
        "instances",
        Preset::O2,
        Sweep::Instances(50, 16),
    ),
    (
        "fig08_o2_cache",
        "Figure 8: mean I/Os vs server cache size (O2)",
        "cache(MB)",
        Preset::O2,
        Sweep::Memory,
    ),
    (
        "fig09_texas_base_size_20c",
        "Figure 9: mean I/Os vs instances (Texas, 20 classes)",
        "instances",
        Preset::Texas,
        Sweep::Instances(20, 64),
    ),
    (
        "fig10_texas_base_size_50c",
        "Figure 10: mean I/Os vs instances (Texas, 50 classes)",
        "instances",
        Preset::Texas,
        Sweep::Instances(50, 64),
    ),
    (
        "fig11_texas_memory",
        "Figure 11: mean I/Os vs available memory (Texas)",
        "memory(MB)",
        Preset::Texas,
        Sweep::Memory,
    ),
];

fn persist(table: scenario::ReportTable, out: &Path, stem: &str) {
    match table.write(out, stem) {
        Ok((csv, json)) => println!("wrote {} and {}", csv.display(), json.display()),
        Err(e) => eprintln!("WARNING: persisting {stem}: {e}"),
    }
}

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        let mut keys = COMMON_KEYS.to_vec();
        keys.extend([(
            "out",
            "artifact directory for CSV/JSON reports (default target/voodb-out)",
        )]);
        return Args::print_help("repro_all", &keys);
    }
    let reps = args.get("reps", 10usize);
    let seed = args.get("seed", 42u64);
    let out = args.get("out", PathBuf::from(DEFAULT_OUT_DIR));
    let workload = WorkloadParams::default();
    let mid = DatabaseParams::mid_sized();

    // ----- Figures 6–11: bench-vs-sim sweeps ------------------------------
    let mut disagreements = 0usize;
    for (stem, title, x_label, preset, sweep) in FIGURES {
        let points: Vec<Point> = match sweep {
            Sweep::Instances(classes, mb) => INSTANCE_SWEEP
                .iter()
                .map(|&objects| {
                    let db = DatabaseParams {
                        classes,
                        objects,
                        ..DatabaseParams::default()
                    };
                    measure_preset_point(preset, objects as f64, &db, &workload, mb, reps, seed)
                })
                .collect(),
            Sweep::Memory => MEMORY_SWEEP_MB
                .iter()
                .map(|&mb| measure_preset_point(preset, mb as f64, &mid, &workload, mb, reps, seed))
                .collect(),
        };
        print_sweep(title, x_label, &points);
        if let Err(e) = check_same_tendency(&points, 0.10) {
            eprintln!("ERROR [{title}]: {e}");
            disagreements += 1;
        }
        persist(sweep_report_table(title, x_label, &points), &out, stem);
    }

    // ----- Beyond the paper: response-time percentiles -------------------
    // The paper reports means only; the telemetry subsystem makes tail
    // latencies free. One merged histogram per validated preset at its
    // reference size, over the same replication protocol.
    let shared_base = ObjectBase::generate(&mid, seed);
    let rows: Vec<LatencyRow> = [(Preset::O2, 16usize), (Preset::Texas, 64)]
        .into_iter()
        .map(|(preset, mb)| LatencyRow {
            label: format!("{preset:?} ({mb} MB)"),
            hist: sim_latency(
                &shared_base,
                &preset.config(&mid, &workload, mb),
                reps,
                seed + 1,
            ),
        })
        .collect();
    let latency_title = "Response-time percentiles (simulation, mid-sized base)";
    print_latency_table(latency_title, &rows);
    persist(
        latency_report_table(latency_title, &rows),
        &out,
        "latency_percentiles",
    );

    // ----- Tables 6, 7, 8: DSTC -------------------------------------------
    let favorable = WorkloadParams::dstc_favorable();
    let dstc = study_dstc_params();
    let (bench, sim) = measure_dstc(&shared_base, &mid, &favorable, 64, &dstc, reps, seed + 1);
    let tab6_title = "Table 6: effects of DSTC — mid-sized base (64 MB)";
    print_dstc_table(tab6_title, &bench, &sim, true);
    print_cluster_table("Table 7: DSTC clustering", &bench, &sim);
    persist(
        dstc_report_table(tab6_title, &bench, &sim, true),
        &out,
        "tab06_07_dstc_mid",
    );

    // The "large" base: memory scaled so the working set no longer fits
    // (3 MB for our ~1170-page working set; the paper's was 8 MB for its
    // ~1890-page working set).
    let (bench8, sim8) = measure_dstc(&shared_base, &mid, &favorable, 3, &dstc, reps, seed + 1);
    let tab8_title = "Table 8: effects of DSTC — \"large\" base (3 MB)";
    print_dstc_table(tab8_title, &bench8, &sim8, false);
    persist(
        dstc_report_table(tab8_title, &bench8, &sim8, false),
        &out,
        "tab08_dstc_large",
    );

    println!("summary:");
    println!(
        "  table6 gain: bench {:.2}x sim {:.2}x (paper 5.71 / 5.36); overhead anomaly {:.1}x (paper 36.1x)",
        bench.gain(),
        sim.gain(),
        bench.overhead / sim.overhead.max(1.0)
    );
    println!(
        "  table8 gain: bench {:.2}x sim {:.2}x (paper 29.47 / 28.42)",
        bench8.gain(),
        sim8.gain()
    );
    if disagreements > 0 {
        eprintln!("{disagreements} figure(s) failed the bench-vs-sim tendency check");
        std::process::exit(1);
    }
}
