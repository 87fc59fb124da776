//! The benchmark's `desp::Probe`: the `vtrace` recorder (what
//! `voodb run --trace` attaches) plus the counters the per-layer report
//! needs — resource waits by class, the event-list population at
//! sampled dispatches, the mean scheduling horizon and the committed
//! object accesses.

use desp::{Probe, ResourceId, SeriesId, SpanPoint, SpanStage};
use vtrace::{RecorderConfig, TraceRecorder};

/// Resource classes reported as `core.resource_waits.*`.
pub const RESOURCE_CLASSES: [&str; 3] = ["cpu", "disk", "net"];

fn class_of(resource: &str) -> Option<usize> {
    if resource == "cpu" {
        Some(0)
    } else if resource.starts_with("disk") {
        Some(1)
    } else if resource == "network" {
        Some(2)
    } else {
        None
    }
}

/// Counters folded from one or more traced phases.
#[derive(Clone, Debug, Default)]
pub struct ProbeStats {
    /// Requests that queued, per [`RESOURCE_CLASSES`] entry.
    pub waits: [u64; 3],
    /// Sampled dispatches and the pending events they saw.
    pub dispatch_samples: u64,
    pub pending_sum: u64,
    pub pending_max: usize,
    /// Events scheduled and the sum of their horizons (`at - now`, ms).
    pub scheduled: u64,
    pub horizon_sum_ms: f64,
    /// Object accesses of committed transactions.
    pub accesses: u64,
    /// Spans the `vtrace` recorder kept.
    pub recorder_spans: u64,
}

impl ProbeStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &ProbeStats) {
        for (a, b) in self.waits.iter_mut().zip(other.waits) {
            *a += b;
        }
        self.dispatch_samples += other.dispatch_samples;
        self.pending_sum += other.pending_sum;
        self.pending_max = self.pending_max.max(other.pending_max);
        self.scheduled += other.scheduled;
        self.horizon_sum_ms += other.horizon_sum_ms;
        self.accesses += other.accesses;
        self.recorder_spans += other.recorder_spans;
    }

    /// Mean pending events at a sampled dispatch.
    pub fn pending_mean(&self) -> f64 {
        self.pending_sum as f64 / self.dispatch_samples.max(1) as f64
    }

    /// Mean scheduling horizon, ms.
    pub fn horizon_mean_ms(&self) -> f64 {
        self.horizon_sum_ms / self.scheduled.max(1) as f64
    }
}

/// A recorder plus benchmark counters.
pub struct BenchProbe {
    recorder: TraceRecorder,
    classes: Vec<Option<usize>>,
    stats: ProbeStats,
}

impl BenchProbe {
    /// A fresh probe around a default recorder.
    pub fn new() -> Self {
        BenchProbe {
            recorder: RecorderConfig::new().build(),
            classes: Vec::new(),
            stats: ProbeStats::default(),
        }
    }

    /// Flushes the recorder and returns the counters.
    pub fn finish(mut self) -> ProbeStats {
        self.recorder.flush();
        self.stats.recorder_spans = self.recorder.spans_recorded();
        self.stats
    }
}

impl Probe for BenchProbe {
    fn intern_series(&mut self, name: &str) -> SeriesId {
        self.recorder.intern_series(name)
    }

    fn intern_resource(&mut self, name: &str) -> ResourceId {
        let id = self.recorder.intern_resource(name);
        let i = id.0 as usize;
        if self.classes.len() <= i {
            self.classes.resize(i + 1, None);
        }
        self.classes[i] = class_of(name);
        id
    }

    fn on_schedule(&mut self, now: f64, at: f64) {
        self.stats.scheduled += 1;
        self.stats.horizon_sum_ms += at - now;
        self.recorder.on_schedule(now, at);
    }

    fn dispatch_interval(&self) -> u64 {
        self.recorder.dispatch_interval()
    }

    fn on_dispatch(&mut self, now: f64, pending: usize) {
        self.stats.dispatch_samples += 1;
        self.stats.pending_sum += pending as u64;
        self.stats.pending_max = self.stats.pending_max.max(pending);
        self.recorder.on_dispatch(now, pending);
    }

    fn on_resource_enqueue(&mut self, resource: ResourceId, now: f64, queue_len: usize) {
        if let Some(Some(class)) = self.classes.get(resource.0 as usize) {
            self.stats.waits[*class] += 1;
        }
        self.recorder.on_resource_enqueue(resource, now, queue_len);
    }

    fn on_resource_grant(&mut self, resource: ResourceId, now: f64, waited_ms: f64) {
        self.recorder.on_resource_grant(resource, now, waited_ms);
    }

    fn on_span(&mut self, slot: u32, serial: u64, point: SpanPoint, now: f64) {
        self.recorder.on_span(slot, serial, point, now);
    }

    fn on_span_stage(&mut self, slot: u32, serial: u64, stage: SpanStage, delta: f64) {
        if stage == SpanStage::Accesses {
            self.stats.accesses += delta as u64;
        }
        self.recorder.on_span_stage(slot, serial, stage, delta);
    }

    fn on_sample(&mut self, series: SeriesId, now: f64, value: f64) {
        self.recorder.on_sample(series, now, value);
    }

    fn on_run_end(&mut self, scheduled: u64, dispatched: u64) {
        self.recorder.on_run_end(scheduled, dispatched);
    }
}
