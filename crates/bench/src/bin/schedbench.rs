//! Scheduler micro-benchmarks: raw event-list throughput and the
//! engine dispatch floor, isolating the queue from the model.
//!
//! Three measurements:
//!
//! * `ln A/B` — libm `f64::ln` vs the vendored `desp::random::fast_ln`
//!   on the exponential sampler's input domain (same draws, summed to
//!   verify the results agree);
//! * `engine floor` — the engine + calendar queue dispatching a
//!   trivial self-rescheduling model: the per-event cost with no model
//!   work at all;
//! * `hold pattern` — calendar vs heap on an M/M/1-like hold model
//!   across queue populations from 3 pending events to one million
//!   (collapsed mode, ring mode, overflow-heavy, and the million-user
//!   think-time deluge), the classic priority-queue benchmark. Each
//!   measurement folds the popped payloads into an order-sensitive
//!   digest and asserts that the calendar queue and the heap oracle
//!   agree. The calendar column also reports how many times the ring
//!   resized and how many pushes landed in the overflow heap, the two
//!   adaptivity channels the 1M population stresses.
//!
//! `--smoke` lowers the event count (default 1000000) but keeps every
//! population and the calendar-vs-heap assert, so CI catches a
//! scheduler misorder at the 1M scale.
//!
//! ```text
//! cargo run --release -p voodb-bench --bin schedbench -- [--events 4000000] [--smoke]
//! ```

use desp::sched::{CalendarQueue, EventHeap, Scheduler};
use desp::{Context, Engine, Model, NoProbe, QueueKind, RandomStream, SimTime};
use std::time::Instant;
use voodb_bench::Args;

fn ln_ab(n: u64) {
    let mut rng = RandomStream::new(9);
    let mut acc = 0.0f64;
    let start = Instant::now();
    for _ in 0..n {
        acc += (1.0 - rng.uniform01()).ln();
    }
    let libm = start.elapsed().as_secs_f64();
    let mut rng = RandomStream::new(9);
    let mut acc2 = 0.0f64;
    let start = Instant::now();
    for _ in 0..n {
        acc2 += desp::random::fast_ln(1.0 - rng.uniform01());
    }
    let fast = start.elapsed().as_secs_f64();
    println!(
        "ln A/B over {n}: libm {:.2} ns/call, fast_ln {:.2} ns/call (sum diff {:.2e})",
        libm / n as f64 * 1e9,
        fast / n as f64 * 1e9,
        (acc - acc2).abs()
    );
}

/// A model whose handler does nothing but reschedule: the engine floor.
struct Ticker {
    fanout: usize,
}

impl<Q: QueueKind> Model<NoProbe, Q> for Ticker {
    type Event = u32;
    fn init(&mut self, ctx: &mut Context<'_, u32, NoProbe, Q>) {
        for i in 0..self.fanout as u32 {
            ctx.schedule(1.0 + i as f64 * 0.37, i);
        }
    }
    fn handle(&mut self, ev: u32, ctx: &mut Context<'_, u32, NoProbe, Q>) {
        ctx.schedule(1.0, ev);
    }
}

fn engine_floor(events: u64, fanout: usize) {
    let mut engine = Engine::new(Ticker { fanout });
    engine.run_steps(1000);
    let start = Instant::now();
    engine.run_steps(events);
    let t = start.elapsed().as_secs_f64();
    println!(
        "engine floor (fanout {fanout}): {:>6.1} M events/s",
        events as f64 / t / 1e6
    );
}

/// The classic hold benchmark: pop one event, push its successor an
/// exponential delay ahead; the queue population stays at `fanout`.
/// Returns the elapsed seconds, an FNV-style digest of the pop
/// sequence (payloads in pop order, then the final clock) and the
/// queue.
fn hold_pattern<S: Scheduler<u64>>(events: usize, fanout: usize, mean_ms: f64) -> (f64, u64, S) {
    let mut q = S::default();
    let mut rng = RandomStream::new(42);
    let mut now = 0.0f64;
    let mut sink = 0u64;
    for i in 0..fanout as u64 {
        q.push(SimTime::from_ms(rng.expo(mean_ms)), i);
    }
    let start = Instant::now();
    for i in 0..events as u64 {
        let (t, e) = q.pop().expect("non-empty");
        now = t.as_ms();
        sink = (sink ^ e).wrapping_mul(0x0100_0000_01b3);
        q.push(SimTime::from_ms(now + rng.expo(mean_ms)), i);
    }
    (
        start.elapsed().as_secs_f64(),
        sink.wrapping_add(now as u64),
        q,
    )
}

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        return Args::print_help(
            "schedbench",
            &[
                ("events", "events per measurement (default 4000000)"),
                (
                    "smoke",
                    "bare flag: CI size, events default 1000000, every population kept",
                ),
            ],
        );
    }
    let smoke = args.flag("smoke");
    let events = args.get("events", if smoke { 1_000_000usize } else { 4_000_000 });
    ln_ab(events as u64);
    engine_floor(events as u64, 3);
    // Pending-population axis: 3 pending events is the paper's NUSERS
    // scale; 1M is the cohortless think-time deluge (one wake per user).
    // Two hold regimes: tight 1.11 ms holds (events land on top of each
    // other — ring/collapse pressure) and far-future 50 s think times
    // (the overflow-heavy regime).
    for (regime, mean_ms) in [("hold ", 1.11), ("think", 50_000.0)] {
        for fanout in [3usize, 32, 1024, 100_000, 1_000_000] {
            let (tc, s1, cal) = hold_pattern::<CalendarQueue<u64>>(events, fanout, mean_ms);
            let (th, s2, _) = hold_pattern::<EventHeap<u64>>(events, fanout, mean_ms);
            assert_eq!(s1, s2, "calendar and heap disagreed on the pop sequence");
            println!(
                "{regime} fanout {fanout:>7}: calendar {:>6.1} M/s   heap {:>6.1} M/s   \
                 (cal resizes {}, overflow pushes {})",
                events as f64 / tc / 1e6,
                events as f64 / th / 1e6,
                cal.resize_count(),
                cal.overflow_push_count(),
            );
        }
    }
}
