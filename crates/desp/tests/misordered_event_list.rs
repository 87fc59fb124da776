//! A misordering event list is caught in every build profile: the
//! engine refuses to dispatch an event behind the clock and ends the
//! run with [`StopReason::Misordered`] instead of a `debug_assert!`
//! that release builds would compile out.

use desp::{Context, Engine, Model, NoProbe, QueueKind, Scheduler, SimTime, StopReason};

/// A deliberately broken event list: pops the most recent push.
struct Lifo<E>(Vec<(SimTime, E)>);

impl<E> Default for Lifo<E> {
    fn default() -> Self {
        Lifo(Vec::new())
    }
}

impl<E> Scheduler<E> for Lifo<E> {
    const NAME: &'static str = "lifo";
    fn push(&mut self, time: SimTime, event: E) {
        self.0.push((time, event));
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.0.pop()
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        self.0.last().map(|&(t, _)| t)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

struct LifoKind;

impl QueueKind for LifoKind {
    type Queue<E> = Lifo<E>;
}

/// Schedules events at 1, 2 and 3 ms and records what fires.
struct Recorder {
    fired: Vec<f64>,
}

impl Model<NoProbe, LifoKind> for Recorder {
    type Event = ();
    fn init(&mut self, ctx: &mut Context<'_, (), NoProbe, LifoKind>) {
        for t in [1.0, 2.0, 3.0] {
            ctx.schedule(t, ());
        }
    }
    fn handle(&mut self, _: (), ctx: &mut Context<'_, (), NoProbe, LifoKind>) {
        self.fired.push(ctx.now().as_ms());
    }
}

type LifoEngine = Engine<Recorder, NoProbe, LifoKind>;

#[test]
fn misordered_event_list_stops_every_run_call() {
    // The LIFO list yields 3 ms, then 2 ms behind the clock.
    let misordered = StopReason::Misordered {
        time: SimTime::from_ms(2.0),
        clock: SimTime::from_ms(3.0),
    };
    let runs: [fn(&mut LifoEngine) -> StopReason; 3] = [
        |e| e.run_to_completion().reason,
        |e| e.run_until(SimTime::from_ms(10.0)).reason,
        |e| e.run_steps(10).reason,
    ];
    for run in runs {
        let mut engine = LifoEngine::with_probe_on(Recorder { fired: vec![] }, NoProbe);
        assert_eq!(run(&mut engine), misordered);
        // The past event was not dispatched and the clock held.
        assert_eq!(engine.model().fired, vec![3.0]);
        assert_eq!(engine.now(), SimTime::from_ms(3.0));
        assert_eq!(engine.events_dispatched(), 1);
        // Sticky: later calls dispatch nothing and repeat the fault.
        assert_eq!(engine.run_to_completion().reason, misordered);
        assert_eq!(engine.run_steps(5).reason, misordered);
        assert!(!engine.step());
        assert_eq!(engine.model().fired, vec![3.0]);
    }
}
