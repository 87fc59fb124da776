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
//! can upload the whole evaluation.

use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use scenario::DEFAULT_OUT_DIR;
use std::path::{Path, PathBuf};
use voodb_bench::{
    check_same_tendency, dstc_bench_once, dstc_mean, dstc_report_table, dstc_sim_once,
    latency_report_table, measure_preset_point, preset_latency, print_cluster_table,
    print_dstc_table, print_latency_table, print_sweep, sweep_report_table, Args, LatencyRow,
    Point, Preset, COMMON_KEYS, INSTANCE_SWEEP, MEMORY_SWEEP_MB,
};

/// Prints the sweep, checks its shape, and persists CSV/JSON.
fn report(out: &Path, stem: &str, title: &str, x_label: &str, points: Vec<Point>) {
    print_sweep(title, x_label, &points);
    if let Err(e) = check_same_tendency(&points, 0.10) {
        eprintln!("WARNING [{title}]: {e}");
    }
    persist(sweep_report_table(title, x_label, &points), out, stem);
}

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

    // ----- Figures 6 & 7: O2, base-size sweeps -------------------------
    for classes in [20usize, 50] {
        let figure = if classes == 20 { 6 } else { 7 };
        let points = INSTANCE_SWEEP
            .iter()
            .map(|&objects| {
                let db = DatabaseParams {
                    classes,
                    objects,
                    ..DatabaseParams::default()
                };
                measure_preset_point(Preset::O2, objects as f64, &db, &workload, 16, reps, seed)
            })
            .collect();
        report(
            &out,
            &format!("fig{figure:02}_o2_base_size_{classes}c"),
            &format!("Figure {figure}: mean I/Os vs instances (O2, {classes} classes)"),
            "instances",
            points,
        );
    }

    // ----- Figure 8: O2 cache sweep -------------------------------------
    let mid = DatabaseParams::mid_sized();
    let points = MEMORY_SWEEP_MB
        .iter()
        .map(|&cache_mb| {
            measure_preset_point(
                Preset::O2,
                cache_mb as f64,
                &mid,
                &workload,
                cache_mb,
                reps,
                seed,
            )
        })
        .collect();
    report(
        &out,
        "fig08_o2_cache",
        "Figure 8: mean I/Os vs server cache size (O2)",
        "cache(MB)",
        points,
    );

    // ----- Figures 9 & 10: Texas, base-size sweeps ----------------------
    for classes in [20usize, 50] {
        let figure = if classes == 20 { 9 } else { 10 };
        let points = INSTANCE_SWEEP
            .iter()
            .map(|&objects| {
                let db = DatabaseParams {
                    classes,
                    objects,
                    ..DatabaseParams::default()
                };
                measure_preset_point(
                    Preset::Texas,
                    objects as f64,
                    &db,
                    &workload,
                    64,
                    reps,
                    seed,
                )
            })
            .collect();
        report(
            &out,
            &format!("fig{figure:02}_texas_base_size_{classes}c"),
            &format!("Figure {figure}: mean I/Os vs instances (Texas, {classes} classes)"),
            "instances",
            points,
        );
    }

    // ----- Figure 11: Texas memory sweep ---------------------------------
    let points = MEMORY_SWEEP_MB
        .iter()
        .map(|&memory_mb| {
            measure_preset_point(
                Preset::Texas,
                memory_mb as f64,
                &mid,
                &workload,
                memory_mb,
                reps,
                seed,
            )
        })
        .collect();
    report(
        &out,
        "fig11_texas_memory",
        "Figure 11: mean I/Os vs available memory (Texas)",
        "memory(MB)",
        points,
    );

    // ----- Beyond the paper: response-time percentiles -------------------
    // The paper reports means only; the telemetry subsystem makes tail
    // latencies free. One merged histogram per validated preset at its
    // reference size, over the same replication protocol.
    let latency_base = ObjectBase::generate(&mid, seed);
    let rows: Vec<LatencyRow> = [(Preset::O2, 16usize), (Preset::Texas, 64)]
        .into_iter()
        .map(|(preset, mb)| LatencyRow {
            label: format!("{preset:?} ({mb} MB)"),
            hist: preset_latency(preset, &latency_base, &workload, mb, reps, seed + 1),
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
    let shared_base = ObjectBase::generate(&mid, seed);
    let favorable = WorkloadParams::dstc_favorable();
    let dstc = clustering::DstcParams {
        observation_period: 10_000,
        tfa: 1.0,
        tfc: 0.5,
        tfe: 1.0,
        w: 0.8,
        max_unit_size: 64,
        trigger_threshold: usize::MAX,
    };
    let bench = dstc_mean(reps, seed + 1, |s| {
        dstc_bench_once(&shared_base, &favorable, 64, dstc.clone(), s)
    });
    let sim = dstc_mean(reps, seed + 1, |s| {
        dstc_sim_once(&shared_base, &favorable, 64, dstc.clone(), s)
    });
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
    let bench8 = dstc_mean(reps, seed + 1, |s| {
        dstc_bench_once(&shared_base, &favorable, 3, dstc.clone(), s)
    });
    let sim8 = dstc_mean(reps, seed + 1, |s| {
        dstc_sim_once(&shared_base, &favorable, 3, dstc.clone(), s)
    });
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
}
