//! Telemetry hook overhead and engine event throughput.
//!
//! The kernel's `Probe` seam is a static type parameter: under
//! `NoProbe`, every hook body is empty and monomorphisation removes the
//! calls, so the `noop` numbers below *are* the pre-hook engine
//! throughput (the generated event loop is structurally identical to
//! the un-hooked kernel). The interesting deltas:
//!
//! * `noop` vs `counting` — the cost of the hook *calls* themselves
//!   (increment-only bodies);
//! * `noop` vs `recorder` — the cost of full span/histogram/series
//!   recording, the price of `voodb run --trace`.
//!
//! The `heap_sched` variants run the identical workload on the binary
//! heap instead of the default calendar queue, so this bench also
//! records the scheduler speedup alongside the hook overhead.
//!
//! The acceptance bar (no-op overhead < 2% of engine throughput) is
//! checked numerically by the `engine_bench` binary, which emits
//! `BENCH_engine.json` in CI smoke mode.

use criterion::{criterion_group, criterion_main, Criterion};
use desp::{
    Context, CountingProbe, Engine, HeapKind, Model, NoProbe, Probe, QueueKind, Resource,
    SchedulerKind, SpanPoint,
};
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use std::hint::black_box;
use voodb::{run_replication, ExperimentConfig, VoodbParams};
use vtrace::RecorderConfig;

/// A tandem queue exercising every hook kind: arrivals contend for a
/// 2-unit server, each job emits span points and a sample, then leaves.
struct Tandem {
    server: Resource<Ev>,
    remaining: u32,
    next_id: u64,
    done: u64,
}

#[derive(Clone, Copy)]
enum Ev {
    Arrive,
    Start(u64),
    Finish(u64),
}

impl<P: Probe, Q: QueueKind> Model<P, Q> for Tandem {
    type Event = Ev;
    fn init(&mut self, ctx: &mut Context<'_, Ev, P, Q>) {
        ctx.schedule(0.0, Ev::Arrive);
    }
    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev, P, Q>) {
        match ev {
            Ev::Arrive => {
                let id = self.next_id;
                self.next_id += 1;
                ctx.emit_span(id as u32, id, SpanPoint::Submit);
                self.server.request(Ev::Start(id), ctx);
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.schedule(1.0, Ev::Arrive);
                }
            }
            Ev::Start(id) => {
                ctx.emit_span(id as u32, id, SpanPoint::Admitted);
                ctx.schedule(3.0, Ev::Finish(id));
            }
            Ev::Finish(id) => {
                ctx.emit_span(id as u32, id, SpanPoint::Committed);
                self.server.release(ctx);
                self.done += 1;
                if ctx.tracing() {
                    ctx.emit_sample_named("done", self.done as f64);
                }
            }
        }
    }
}

fn tandem(jobs: u32) -> Tandem {
    Tandem {
        server: Resource::new("server", 2),
        remaining: jobs,
        next_id: 0,
        done: 0,
    }
}

const JOBS: u32 = 10_000;

fn bench_hook_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(20);
    group.bench_function("tandem_10k_noop", |b| {
        b.iter(|| {
            let mut engine = Engine::new(tandem(black_box(JOBS)));
            engine.run_to_completion();
            black_box(engine.events_dispatched())
        })
    });
    group.bench_function("tandem_10k_noop_heap_sched", |b| {
        b.iter(|| {
            let mut engine =
                Engine::<_, NoProbe, HeapKind>::with_probe_on(tandem(black_box(JOBS)), NoProbe);
            engine.run_to_completion();
            black_box(engine.events_dispatched())
        })
    });
    group.bench_function("tandem_10k_counting", |b| {
        b.iter(|| {
            let mut engine = Engine::with_probe(tandem(black_box(JOBS)), CountingProbe::default());
            engine.run_to_completion();
            black_box(engine.probe().dispatches)
        })
    });
    group.bench_function("tandem_10k_recorder", |b| {
        b.iter(|| {
            let mut engine =
                Engine::with_probe(tandem(black_box(JOBS)), RecorderConfig::new().build());
            engine.run_to_completion();
            black_box(engine.probe().spans().len())
        })
    });
    group.finish();
}

fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        system: VoodbParams {
            buffer_pages: 64,
            ..VoodbParams::default()
        },
        database: DatabaseParams::small(),
        workload: WorkloadParams {
            hot_transactions: 30,
            ..WorkloadParams::default()
        },
    }
}

fn bench_model_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    let config = smoke_config();
    group.bench_function("voodb_smoke_noop", |b| {
        b.iter(|| black_box(voodb::run_once(&config, black_box(42)).events))
    });
    group.bench_function("voodb_smoke_noop_heap_sched", |b| {
        b.iter(|| {
            let seed = black_box(42);
            let base = ObjectBase::generate(&config.database, seed);
            let (result, _) = run_replication(&base, &config, seed, NoProbe, SchedulerKind::Heap);
            black_box(result.events)
        })
    });
    group.bench_function("voodb_smoke_recorder", |b| {
        b.iter(|| {
            let seed = black_box(42);
            let base = ObjectBase::generate(&config.database, seed);
            let probe = RecorderConfig::new().build();
            let (result, recorder) =
                run_replication(&base, &config, seed, probe, SchedulerKind::default());
            black_box((result.events, recorder.spans().len()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hook_overhead, bench_model_throughput);
criterion_main!(benches);
