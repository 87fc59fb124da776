//! # voodb-bench — the harness regenerating the paper's evaluation
//!
//! `repro_all` regenerates every table and figure of *VOODB* (VLDB
//! 1999), §4, from one definition per artifact; the other binaries go
//! beyond the paper or measure the engine:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `repro_all` | Figs. 6–11 (mean I/Os vs. instances, cache and memory size, O2 and Texas), Tables 6–8 (DSTC), response-time percentiles |
//! | `dstc_sweep` | Beyond the paper: the DSTC parameter space |
//! | `policy_sweep` | Beyond the paper: replacement policies under one workload |
//! | `strategy_compare` | Beyond the paper: clustering strategies compared |
//! | `engine_bench` | Engine throughput and telemetry overhead (`BENCH_engine.json`) |
//! | `schedbench` | Calendar queue vs. heap oracle under the hold pattern |
//!
//! Each paper artifact prints a Benchmark column (the `oostore`
//! mini-engines, driven by [`harness`]) and a Simulation column (the
//! `voodb` model, through core's `run_replication` and
//! `run_dstc_study`) with 95% confidence intervals, mirroring the
//! paper's figures. Criterion benches (`cargo bench`) cover kernel
//! throughput and scaled-down versions of the same experiments.

pub mod args;
pub mod harness;
pub mod report;

pub use args::{Args, COMMON_KEYS};
pub use harness::{
    bench_ios, dstc_bench_once, dstc_mean, dstc_sim_once, generate_workload, measure_dstc,
    measure_preset_point, replicate_map, sim_latency, study_dstc_params, texas_dstc_config,
    DstcSide, Point, Preset, INSTANCE_SWEEP, MEMORY_SWEEP_MB,
};
pub use report::{
    check_same_tendency, dstc_report_table, latency_report_table, print_cluster_table,
    print_dstc_table, print_latency_table, print_sweep, sweep_report_table, LatencyRow,
};
