//! Table benches: scaled-down DSTC studies (Tables 6–8 of the paper),
//! timing the full three-phase protocol on both sides of the validation.

use clustering::DstcParams;
use criterion::{criterion_group, criterion_main, Criterion};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use std::hint::black_box;
use voodb_bench::{dstc_bench_once, dstc_sim_once, study_dstc_params, texas_dstc_config};

fn bench_dstc_protocol(c: &mut Criterion) {
    let db = DatabaseParams {
        objects: 2_000,
        ..DatabaseParams::default()
    };
    let workload = WorkloadParams {
        hot_transactions: 200,
        ..WorkloadParams::dstc_favorable()
    };
    // The study tuning, observing over a period scaled to the smaller run.
    let dstc = DstcParams {
        observation_period: 5_000,
        ..study_dstc_params()
    };
    let base = ObjectBase::generate(&db, 42);
    let config = texas_dstc_config(&db, &workload, 64, dstc.clone());
    let mut group = c.benchmark_group("tab6_protocol_2k_objects");
    group.sample_size(10);
    group.bench_function("texas_engine_with_patch_scan", |b| {
        b.iter(|| {
            black_box(dstc_bench_once(
                &base,
                &workload,
                64,
                dstc.clone(),
                black_box(7),
            ))
        })
    });
    group.bench_function("voodb_sim_logical_oids", |b| {
        b.iter(|| black_box(dstc_sim_once(&base, &config, black_box(7))))
    });
    group.finish();
}

criterion_group!(benches, bench_dstc_protocol);
criterion_main!(benches);
