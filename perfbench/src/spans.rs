//! The benchmark's own span recorder.
//!
//! A span wraps one call from the benchmark into a layer crate
//! (`ocb.generate`, `core.run_phase`, `oostore.run_workload`, …) or one
//! whole job (`job`). Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. Layer attribution works
//! from the outside: a span covers its call, whatever the callee does
//! inside (a `core.run_phase` span includes the `desp` engine and, on a
//! streamed phase, lazy `ocb` generation).
//!
//! Every job is timed whether or not spans are kept, so the untraced
//! path reads the clock exactly as the traced path does and differs only
//! in not storing the records.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to (none for calls between jobs).
    pub job: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Timer for jobs and layer calls, optionally keeping spans.
pub struct Spans {
    keep: bool,
    epoch: Instant,
    job: Option<u32>,
    open: Option<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `keep` selects whether spans are stored.
    pub fn new(keep: bool) -> Self {
        Spans {
            keep,
            epoch: Instant::now(),
            job: None,
            open: None,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of job `job`; returns its start instant.
    pub fn begin_job(&mut self, job: u32) -> u64 {
        self.job = Some(job);
        let start_ns = self.now_ns();
        if self.keep {
            self.spans.push(Span {
                name: "job",
                start_ns,
                end_ns: start_ns,
                parent: None,
                job: self.job,
            });
            self.open = Some(self.spans.len() - 1);
        }
        start_ns
    }

    /// Closes the open job span; returns the job's duration in ns.
    pub fn end_job(&mut self, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        self.job = None;
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = end_ns;
        }
        end_ns.saturating_sub(start_ns)
    }

    /// Runs `f` as one call into a layer, returning its result and its
    /// duration in ns.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        if self.keep {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open,
                job: self.job,
            });
        }
        (result, end_ns.saturating_sub(start_ns))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Starts or stops keeping spans.
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Each layer's self time inside jobs and the share of job time its
    /// calls cover, plus the share no layer call covers (the benchmark's
    /// own bookkeeping between calls). Layer calls do not nest, so a
    /// call's duration is its layer's self time.
    pub fn attribution(&self) -> Attribution {
        let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut job_ns = 0u64;
        let mut covered_ns = 0u64;
        for span in &self.spans {
            match span.parent {
                None if span.name == "job" => job_ns += span.duration_ns(),
                Some(p) if self.spans[p].name == "job" => {
                    *layer_ns.entry(span.layer()).or_default() += span.duration_ns();
                    covered_ns += span.duration_ns();
                }
                _ => {}
            }
        }
        let pct = |ns: u64| {
            if job_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / job_ns as f64
            }
        };
        Attribution {
            self_ms: layer_ns
                .iter()
                .map(|(layer, ns)| (*layer, *ns as f64 / 1e6))
                .collect(),
            share_pct: layer_ns
                .iter()
                .map(|(layer, ns)| (*layer, pct(*ns)))
                .collect(),
            uncovered_pct: pct(job_ns.saturating_sub(covered_ns)),
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let job = span.job.map_or("null".to_owned(), |j| j.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{job}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where job time went, by layer.
pub struct Attribution {
    /// Layer → self time of its calls inside jobs, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Layer → its calls' time as a share of all job time, in percent.
    pub share_pct: BTreeMap<&'static str, f64>,
    /// Share of job time outside every layer span, in percent.
    pub uncovered_pct: f64,
}
