//! Figure benches: scaled-down single replications of the paper's figure
//! experiments, measuring how long one bench-vs-sim comparison takes.
//!
//! The full sweeps are `repro_all`'s; these criterion targets keep one
//! representative point of each figure under continuous timing so
//! regressions in the engines or the simulator show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use desp::{NoProbe, SchedulerKind};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use std::hint::black_box;
use voodb::run_replication;
use voodb_bench::{bench_ios, Preset};

fn bench_point(c: &mut Criterion, group: &str, preset: Preset, mb: usize, suffix: &str) {
    let db = DatabaseParams {
        classes: 20,
        objects: 2_000,
        ..DatabaseParams::default()
    };
    let workload = WorkloadParams {
        hot_transactions: 100,
        ..WorkloadParams::default()
    };
    let base = ObjectBase::generate(&db, 42);
    let config = preset.config(&db, &workload, mb);
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    group.bench_function(format!("bench_engine{suffix}"), |b| {
        b.iter(|| black_box(bench_ios(preset, &base, &workload, mb, black_box(7))))
    });
    group.bench_function(format!("voodb_sim{suffix}"), |b| {
        b.iter(|| {
            let seed = black_box(7);
            let (result, _) =
                run_replication(&base, &config, seed, NoProbe, SchedulerKind::default());
            black_box(result.total_ios())
        })
    });
    group.finish();
}

fn bench_o2_point(c: &mut Criterion) {
    bench_point(c, "fig6_point_2k_objects", Preset::O2, 2, "");
}

fn bench_texas_point(c: &mut Criterion) {
    // 1 MB of memory → pressure regime, the expensive end of Fig. 11.
    bench_point(c, "fig11_point_2k_objects", Preset::Texas, 1, "_pressure");
}

criterion_group!(benches, bench_o2_point, bench_texas_point);
criterion_main!(benches);
