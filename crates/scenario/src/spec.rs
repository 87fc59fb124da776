//! The declarative experiment spec: a [`Scenario`] is everything needed
//! to reproduce a sweep — the simulated system (Table 3), the OCB object
//! base and workload, the replication protocol, and one or more swept
//! parameter axes.
//!
//! A scenario lives in a `.toml` file (see [`crate::toml`] for the exact
//! subset) with four kinds of sections:
//!
//! ```toml
//! [scenario]               # name, description, replications, seed
//! [system]                 # VoodbParams  (Table 3 keys)
//! [database]               # DatabaseParams (OCB schema/instances)
//! [workload]               # WorkloadParams (OCB transactions)
//!
//! [[sweep]]                # one or more swept axes
//! param = "system.multiprogramming_level"
//! values = [1, 2, 5, 10]
//! ```
//!
//! Every key a section accepts is also a valid sweep `param` (prefixed
//! with its section), so *any* scalar parameter of the model can be
//! swept without writing Rust. Multiple `[[sweep]]` axes form a full
//! cartesian grid. Each key is defined once, in the [`PARAMS`] table:
//! its help text (`voodb params`), its setter (section parsing and
//! sweep axes) and its getter (canonical serialization).

use crate::toml::{self, format_float, Table, TomlError, Value};
use bufmgr::{PolicyKind, PrefetchKind};
use clustering::{ClusteringKind, DstcParams, InitialPlacement};
use ocb::{Arrival, Selection};
use voodb::{
    DiskParams, ExperimentConfig, SystemClass, VoodbParams, O2_FRAMES_PER_MB, TEXAS_FRAMES_PER_MB,
};

/// One swept parameter axis.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// Dotted parameter key, e.g. `system.buffer_pages` or
    /// `database.objects`.
    pub param: String,
    /// The values the axis takes, in sweep order (scalars only).
    pub values: Vec<Value>,
}

/// A declarative experiment: base configuration plus swept axes.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (used for report file names).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Replications per sweep point (the paper's §4.2.2 protocol).
    pub replications: usize,
    /// Base seed of the whole sweep.
    pub seed: u64,
    /// The base experiment point; sweep axes override fields of it.
    pub config: ExperimentConfig,
    /// Swept axes (cartesian product; empty = a single point).
    pub sweep: Vec<SweepAxis>,
}

/// One point of the expanded sweep grid.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `(param, value)` coordinates, one per axis, in axis order.
    pub coords: Vec<(String, Value)>,
    /// The base config with the coordinates applied.
    pub config: ExperimentConfig,
}

impl SweepPoint {
    /// A compact `param=value` label (axis prefixes stripped).
    pub fn label(&self) -> String {
        if self.coords.is_empty() {
            return "base".to_owned();
        }
        self.coords
            .iter()
            .map(|(param, value)| {
                let short = param.rsplit('.').next().unwrap_or(param);
                format!("{short}={}", value_to_plain_string(value))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Renders a scalar value without string quotes (for labels and CSV).
pub fn value_to_plain_string(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        Value::Integer(n) => n.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) | Value::Table(_) => format!("{value:?}"),
    }
}

impl Scenario {
    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    /// Syntax errors carry line/column; structural errors name the
    /// offending section and key.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let root = toml::parse(text).map_err(|e: TomlError| e.to_string())?;
        Scenario::from_table(root)
    }

    /// Builds a scenario from a parsed TOML root table.
    ///
    /// # Errors
    /// Returns a message naming the offending section/key.
    pub fn from_table(root: Table) -> Result<Scenario, String> {
        let mut config = ExperimentConfig {
            system: VoodbParams::default(),
            database: ocb::DatabaseParams::default(),
            workload: ocb::WorkloadParams::default(),
        };
        let mut scenario = Scenario {
            name: String::new(),
            description: String::new(),
            replications: 10,
            seed: 42,
            config: config.clone(),
            sweep: Vec::new(),
        };
        for (key, value) in &root {
            match (key.as_str(), value) {
                ("scenario", Value::Table(meta)) => {
                    for (k, v) in meta {
                        match k.as_str() {
                            "name" => {
                                scenario.name = v
                                    .as_str()
                                    .ok_or_else(|| bad("scenario", "name", "a string", v))?
                                    .to_owned();
                            }
                            "description" => {
                                scenario.description = v
                                    .as_str()
                                    .ok_or_else(|| bad("scenario", "description", "a string", v))?
                                    .to_owned();
                            }
                            "replications" => {
                                scenario.replications = v.as_usize().ok_or_else(|| {
                                    bad("scenario", "replications", "a positive integer", v)
                                })?;
                            }
                            "seed" => {
                                scenario.seed = v.as_u64().ok_or_else(|| {
                                    bad("scenario", "seed", "a non-negative integer", v)
                                })?;
                            }
                            other => {
                                return Err(format!("[scenario]: unknown key '{other}'"));
                            }
                        }
                    }
                }
                (section, Value::Table(t)) if SECTIONS.contains(&section) => {
                    for (k, v) in t {
                        apply_param(&mut config, &format!("{key}.{k}"), v)
                            .map_err(|e| format!("[{key}]: {e}"))?;
                    }
                }
                ("sweep", v) => {
                    let Value::Array(items) = v else {
                        return Err("'sweep' must be an array of tables ([[sweep]])".into());
                    };
                    for item in items {
                        let Value::Table(t) = item else {
                            return Err("'sweep' must be an array of tables ([[sweep]])".into());
                        };
                        scenario.sweep.push(parse_axis(t)?);
                    }
                }
                (other, _) => {
                    return Err(format!(
                        "unknown top-level section '{other}' \
                         (expected scenario/system/database/workload/sweep)"
                    ));
                }
            }
        }
        if scenario.name.is_empty() {
            return Err("[scenario]: 'name' is required".into());
        }
        scenario.config = config;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Validates the base config, the replication protocol, every sweep
    /// axis (each value must apply cleanly), and — because axes can
    /// interact (e.g. swept `database.classes` × swept
    /// `database.objects` crossing the objects ≥ classes constraint) —
    /// every **materialised grid point**.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.replications == 0 {
            return Err("[scenario]: replications must be positive".into());
        }
        self.config
            .validate()
            .map_err(|e| format!("base configuration: {e}"))?;
        for axis in &self.sweep {
            if axis.values.is_empty() {
                return Err(format!("sweep axis '{}' has no values", axis.param));
            }
            // Shape check: the key exists and the value applies. Config
            // validity is checked per grid point below, where axis
            // combinations are visible.
            for value in &axis.values {
                let mut probe = self.config.clone();
                apply_param(&mut probe, &axis.param, value)
                    .map_err(|e| format!("sweep axis '{}': {e}", axis.param))?;
            }
        }
        let points: usize = self.sweep.iter().map(|a| a.values.len()).product();
        if points > 10_000 {
            return Err(format!("sweep grid has {points} points (max 10000)"));
        }
        for point in self.grid() {
            point
                .config
                .validate()
                .map_err(|e| format!("sweep point '{}': {e}", point.label()))?;
        }
        Ok(())
    }

    /// Expands the sweep axes into the full cartesian grid, first axis
    /// slowest (row-major), with each point's config materialised.
    pub fn grid(&self) -> Vec<SweepPoint> {
        let mut points = vec![SweepPoint {
            coords: Vec::new(),
            config: self.config.clone(),
        }];
        for axis in &self.sweep {
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for point in &points {
                for value in &axis.values {
                    let mut config = point.config.clone();
                    apply_param(&mut config, &axis.param, value)
                        .expect("validated axis value applies");
                    let mut coords = point.coords.clone();
                    coords.push((axis.param.clone(), value.clone()));
                    next.push(SweepPoint { coords, config });
                }
            }
            points = next;
        }
        points
    }

    /// Serializes back to canonical TOML text. Round-trips:
    /// `Scenario::parse(s.to_toml_string())` reproduces the scenario
    /// (property-tested).
    pub fn to_toml_string(&self) -> String {
        toml::serialize(&self.to_table())
    }

    /// Builds the TOML table representation (every parameter explicit).
    pub fn to_table(&self) -> Table {
        let mut root = Table::new();
        let mut meta = Table::new();
        meta.insert("name".into(), Value::String(self.name.clone()));
        meta.insert(
            "description".into(),
            Value::String(self.description.clone()),
        );
        meta.insert("replications".into(), int(self.replications));
        meta.insert("seed".into(), int(self.seed));
        root.insert("scenario".into(), Value::Table(meta));
        for section in SECTIONS {
            root.insert(section.into(), Value::Table(Table::new()));
        }
        for param in PARAMS {
            let Some(value) = param.get.and_then(|get| get(&self.config)) else {
                continue;
            };
            let (section, field) = param.key.split_once('.').expect("keys are dotted");
            if let Some(Value::Table(table)) = root.get_mut(section) {
                table.insert(field.into(), value);
            }
        }
        if !self.sweep.is_empty() {
            root.insert(
                "sweep".into(),
                Value::Array(
                    self.sweep
                        .iter()
                        .map(|axis| {
                            let mut t = Table::new();
                            t.insert("param".into(), Value::String(axis.param.clone()));
                            t.insert("values".into(), Value::Array(axis.values.clone()));
                            Value::Table(t)
                        })
                        .collect(),
                ),
            );
        }
        root
    }

    /// Shrinks the scenario so tests and CI smoke runs finish quickly:
    /// clamps the object base to `max_objects`, the measured run to
    /// `max_transactions`, a time-horizon phase to a few simulated
    /// seconds (warm-up scaled along), truncates every axis to
    /// `max_axis_points` values, and clamps swept values the same two
    /// caps reach (deduplicated, order preserved). Used by the golden
    /// test over `scenarios/`.
    pub fn shrink_for_smoke(
        &mut self,
        max_objects: usize,
        max_transactions: usize,
        max_axis_points: usize,
    ) {
        /// Horizon cap: long enough for tens of commits at preset
        /// arrival rates, short enough for debug-profile test runs.
        const MAX_DURATION_MS: f64 = 2_000.0;
        let cap = |config: &mut ExperimentConfig| {
            config.database.objects = config.database.objects.min(max_objects);
            config.workload.hot_transactions =
                config.workload.hot_transactions.min(max_transactions);
        };
        cap(&mut self.config);
        let db = &mut self.config.database;
        db.classes = db.classes.min(db.objects.max(1));
        let wl = &mut self.config.workload;
        if wl.duration_ms > MAX_DURATION_MS {
            wl.warmup_ms *= MAX_DURATION_MS / wl.duration_ms;
            wl.duration_ms = MAX_DURATION_MS;
        }
        for axis in &mut self.sweep {
            axis.values.truncate(max_axis_points.max(1));
            let Some(get) = param(&axis.param).and_then(|p| p.get) else {
                continue;
            };
            let mut kept = Vec::new();
            for mut value in std::mem::take(&mut axis.values) {
                // Apply the value, cap, and read it back: a value the
                // caps changed is replaced by its capped form.
                let mut probe = self.config.clone();
                if apply_param(&mut probe, &axis.param, &value).is_ok() {
                    let before = get(&probe);
                    cap(&mut probe);
                    if let Some(after) = get(&probe).filter(|after| Some(after) != before.as_ref())
                    {
                        value = after;
                    }
                }
                if !kept.contains(&value) {
                    kept.push(value);
                }
            }
            axis.values = kept;
        }
    }
}

fn parse_axis(t: &Table) -> Result<SweepAxis, String> {
    let mut param = None;
    let mut values = None;
    for (k, v) in t {
        match k.as_str() {
            "param" => {
                param = Some(
                    v.as_str()
                        .ok_or_else(|| bad("sweep", "param", "a string", v))?
                        .to_owned(),
                );
            }
            "values" => {
                let Value::Array(items) = v else {
                    return Err(bad("sweep", "values", "an array of scalars", v));
                };
                for item in items {
                    if matches!(item, Value::Array(_) | Value::Table(_)) {
                        return Err("[[sweep]]: 'values' entries must be scalars".into());
                    }
                }
                values = Some(items.clone());
            }
            other => return Err(format!("[[sweep]]: unknown key '{other}'")),
        }
    }
    Ok(SweepAxis {
        param: param.ok_or("[[sweep]]: 'param' is required")?,
        values: values.ok_or("[[sweep]]: 'values' is required")?,
    })
}

fn bad(section: &str, key: &str, expected: &str, got: &Value) -> String {
    format!(
        "[{section}]: '{key}' must be {expected}, got a {}",
        got.type_name()
    )
}

// ---------------------------------------------------------------------------
// The parameter table — one entry per key, shared by section parsing,
// sweep axes, serialization and the `voodb params` listing, so every
// settable key is automatically sweepable and round-trips.
// ---------------------------------------------------------------------------

/// One scenario parameter: its dotted key, its `voodb params` help, and
/// how it is written and read.
pub struct Param {
    /// Section-qualified key, e.g. `system.page_size`.
    pub key: &'static str,
    /// Expected value shape: `integer`, `float`, `float|inf`, `string`
    /// or `boolean`.
    pub shape: &'static str,
    /// What the key means (with the paper's parameter name, if any).
    pub meaning: &'static str,
    /// Parses and stores a value.
    pub set: fn(&mut ExperimentConfig, &Value) -> Result<(), String>,
    /// Reads the canonical value back; `None` for the write-only
    /// aliases (`cache_mb`, `memory_mb`, `disk`), which set other keys.
    /// The getter itself returns `None` where the key does not apply
    /// (the `dstc_*` keys unless `CLUSTP` is DSTC).
    pub get: Option<fn(&ExperimentConfig) -> Option<Value>>,
}

/// The sections a parameter key can live in.
const SECTIONS: [&str; 3] = ["system", "database", "workload"];

/// Every supported parameter, printed by `voodb params` and the README.
pub const PARAMS: &[Param] = &[
    // [system] — Table 3.
    Param {
        key: "system.system_class",
        shape: "string",
        meaning: "SYSCLASS: centralized | object-server | page-server | db-server | hybrid-N (N servers)",
        set: |c, v| put(&mut c.system.system_class, parse_system_class(str_of(v)?)?),
        get: Some(|c| Some(Value::String(system_class_to_string(&c.system.system_class)))),
    },
    Param {
        key: "system.network_throughput_mbps",
        shape: "float|inf",
        meaning: "NETTHRU: network throughput in MB/s",
        set: |c, v| put(&mut c.system.network_throughput_mbps, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.network_throughput_mbps))),
    },
    Param {
        key: "system.page_size",
        shape: "integer",
        meaning: "PGSIZE: disk page size in bytes",
        set: |c, v| put(&mut c.system.page_size, u32_of(v)?),
        get: Some(|c| Some(int(c.system.page_size))),
    },
    Param {
        key: "system.buffer_pages",
        shape: "integer",
        meaning: "BUFFSIZE: buffer size in pages",
        set: |c, v| put(&mut c.system.buffer_pages, usize_of(v)?),
        get: Some(|c| Some(int(c.system.buffer_pages))),
    },
    Param {
        key: "system.cache_mb",
        shape: "integer",
        meaning: "BUFFSIZE via the O2 convention (240 frames/MB)",
        set: |c, v| put(&mut c.system.buffer_pages, frames_of(v, O2_FRAMES_PER_MB)?),
        get: None,
    },
    Param {
        key: "system.memory_mb",
        shape: "integer",
        meaning: "BUFFSIZE via the Texas convention (230 frames/MB)",
        set: |c, v| put(&mut c.system.buffer_pages, frames_of(v, TEXAS_FRAMES_PER_MB)?),
        get: None,
    },
    Param {
        key: "system.page_replacement",
        shape: "string",
        meaning: "PGREP: random-SEED | fifo | lru | lru-K | lfu | clock | gclock-W",
        set: |c, v| put(&mut c.system.page_replacement, parse_policy(str_of(v)?)?),
        get: Some(|c| Some(Value::String(policy_to_string(&c.system.page_replacement)))),
    },
    Param {
        key: "system.prefetch",
        shape: "string",
        meaning: "PREFETCH: none | sequential-W (window of W pages)",
        set: |c, v| put(&mut c.system.prefetch, parse_prefetch(str_of(v)?)?),
        get: Some(|c| Some(Value::String(prefetch_to_string(&c.system.prefetch)))),
    },
    Param {
        key: "system.clustering",
        shape: "string",
        meaning: "CLUSTP: none | dstc | static-graph-N (max cluster size N)",
        set: |c, v| {
            let kind = parse_clustering(str_of(v)?, &c.system.clustering)?;
            put(&mut c.system.clustering, kind)
        },
        get: Some(|c| Some(Value::String(clustering_to_string(&c.system.clustering)))),
    },
    Param {
        key: "system.dstc_observation_period",
        shape: "integer",
        meaning: "DSTC observation period, in object accesses",
        set: |c, v| put(&mut dstc_params(&mut c.system).observation_period, usize_of(v)? as u64),
        get: Some(|c| dstc_of(c).map(|p| int(p.observation_period))),
    },
    Param {
        key: "system.dstc_tfa",
        shape: "float",
        meaning: "DSTC elementary filtering threshold Tfa",
        set: |c, v| put(&mut dstc_params(&mut c.system).tfa, f64_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| Value::Float(p.tfa))),
    },
    Param {
        key: "system.dstc_tfc",
        shape: "float",
        meaning: "DSTC consolidation threshold Tfc",
        set: |c, v| put(&mut dstc_params(&mut c.system).tfc, f64_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| Value::Float(p.tfc))),
    },
    Param {
        key: "system.dstc_tfe",
        shape: "float",
        meaning: "DSTC extraction threshold Tfe",
        set: |c, v| put(&mut dstc_params(&mut c.system).tfe, f64_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| Value::Float(p.tfe))),
    },
    Param {
        key: "system.dstc_w",
        shape: "float",
        meaning: "DSTC ageing factor w",
        set: |c, v| put(&mut dstc_params(&mut c.system).w, f64_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| Value::Float(p.w))),
    },
    Param {
        key: "system.dstc_max_unit_size",
        shape: "integer",
        meaning: "DSTC maximum objects per clustering unit",
        set: |c, v| put(&mut dstc_params(&mut c.system).max_unit_size, usize_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| int(p.max_unit_size))),
    },
    Param {
        key: "system.dstc_trigger_threshold",
        shape: "integer",
        meaning: "DSTC flagged-object count arming automatic reorganisation",
        set: |c, v| put(&mut dstc_params(&mut c.system).trigger_threshold, usize_of(v)?),
        get: Some(|c| dstc_of(c).map(|p| int(p.trigger_threshold))),
    },
    Param {
        key: "system.initial_placement",
        shape: "string",
        meaning: "INITPL: sequential | optimized-sequential | random-SEED",
        set: |c, v| put(&mut c.system.initial_placement, parse_placement(str_of(v)?)?),
        get: Some(|c| Some(Value::String(placement_to_string(&c.system.initial_placement)))),
    },
    Param {
        key: "system.disk",
        shape: "string",
        meaning: "disk timing preset: table3 | o2 | texas",
        set: |c, v| put(&mut c.system.disk, parse_disk_preset(str_of(v)?)?),
        get: None,
    },
    Param {
        key: "system.disk_search_ms",
        shape: "float",
        meaning: "DISKSEA: head search time, ms",
        set: |c, v| put(&mut c.system.disk.search_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.disk.search_ms))),
    },
    Param {
        key: "system.disk_latency_ms",
        shape: "float",
        meaning: "DISKLAT: rotational latency, ms",
        set: |c, v| put(&mut c.system.disk.latency_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.disk.latency_ms))),
    },
    Param {
        key: "system.disk_transfer_ms",
        shape: "float",
        meaning: "DISKTRA: page transfer time, ms",
        set: |c, v| put(&mut c.system.disk.transfer_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.disk.transfer_ms))),
    },
    Param {
        key: "system.multiprogramming_level",
        shape: "integer",
        meaning: "MULTILVL: transactions served concurrently",
        set: |c, v| put(&mut c.system.multiprogramming_level, usize_of(v)?),
        get: Some(|c| Some(int(c.system.multiprogramming_level))),
    },
    Param {
        key: "system.get_lock_ms",
        shape: "float",
        meaning: "GETLOCK: lock acquisition time, ms",
        set: |c, v| put(&mut c.system.get_lock_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.get_lock_ms))),
    },
    Param {
        key: "system.release_lock_ms",
        shape: "float",
        meaning: "RELLOCK: lock release time, ms",
        set: |c, v| put(&mut c.system.release_lock_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.system.release_lock_ms))),
    },
    Param {
        key: "system.users",
        shape: "integer",
        meaning: "NUSERS: simulated users",
        set: |c, v| put(&mut c.system.users, usize_of(v)?),
        get: Some(|c| Some(int(c.system.users))),
    },
    Param {
        key: "system.swizzle",
        shape: "boolean",
        meaning: "Texas-style pointer-swizzling loading policy",
        set: |c, v| put(&mut c.system.swizzle, bool_of(v)?),
        get: Some(|c| Some(Value::Bool(c.system.swizzle))),
    },
    // [database] — OCB schema/instances.
    Param {
        key: "database.classes",
        shape: "integer",
        meaning: "NC: classes in the schema",
        set: |c, v| put(&mut c.database.classes, usize_of(v)?),
        get: Some(|c| Some(int(c.database.classes))),
    },
    Param {
        key: "database.max_refs",
        shape: "integer",
        meaning: "MAXNREF: max references per class",
        set: |c, v| put(&mut c.database.max_refs, usize_of(v)?),
        get: Some(|c| Some(int(c.database.max_refs))),
    },
    Param {
        key: "database.base_size",
        shape: "integer",
        meaning: "BASESIZE: base instance size increment, bytes",
        set: |c, v| put(&mut c.database.base_size, u32_of(v)?),
        get: Some(|c| Some(int(c.database.base_size))),
    },
    Param {
        key: "database.size_factor",
        shape: "integer",
        meaning: "SIZEFACTOR: instance size = BASESIZE x U[1, SIZEFACTOR]",
        set: |c, v| put(&mut c.database.size_factor, u32_of(v)?),
        get: Some(|c| Some(int(c.database.size_factor))),
    },
    Param {
        key: "database.objects",
        shape: "integer",
        meaning: "NO: total instances",
        set: |c, v| put(&mut c.database.objects, usize_of(v)?),
        get: Some(|c| Some(int(c.database.objects))),
    },
    Param {
        key: "database.ref_types",
        shape: "integer",
        meaning: "NREFT: reference types",
        set: |c, v| put(&mut c.database.ref_types, usize_of(v)?),
        get: Some(|c| Some(int(c.database.ref_types))),
    },
    Param {
        key: "database.class_locality",
        shape: "integer",
        meaning: "CLOCREF: class locality window",
        set: |c, v| put(&mut c.database.class_locality, usize_of(v)?),
        get: Some(|c| Some(int(c.database.class_locality))),
    },
    Param {
        key: "database.object_locality",
        shape: "integer",
        meaning: "OLOCREF: object locality window",
        set: |c, v| put(&mut c.database.object_locality, usize_of(v)?),
        get: Some(|c| Some(int(c.database.object_locality))),
    },
    Param {
        key: "database.instance_dist",
        shape: "string",
        meaning: "DIST_CLASS: uniform | zipf-THETA",
        set: |c, v| put(&mut c.database.instance_dist, parse_selection(str_of(v)?)?),
        get: Some(|c| Some(Value::String(selection_to_string(&c.database.instance_dist)))),
    },
    Param {
        key: "database.ref_dist",
        shape: "string",
        meaning: "DIST_REF: uniform | zipf-THETA",
        set: |c, v| put(&mut c.database.ref_dist, parse_selection(str_of(v)?)?),
        get: Some(|c| Some(Value::String(selection_to_string(&c.database.ref_dist)))),
    },
    // [workload] — OCB transactions (Table 5).
    Param {
        key: "workload.users",
        shape: "integer",
        meaning: "concurrent users of the workload",
        set: |c, v| put(&mut c.workload.users, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.users))),
    },
    Param {
        key: "workload.user_model",
        shape: "string",
        meaning: "USERREP: per-user (small-N oracle) | cohort (O(in-flight + cohorts) memory, scales to 1M users)",
        set: |c, v| put(&mut c.workload.user_model, str_of(v)?.parse()?),
        get: Some(|c| Some(Value::String(c.workload.user_model.name().into()))),
    },
    Param {
        key: "workload.cold_transactions",
        shape: "integer",
        meaning: "COLDN: unmeasured cold-run transactions",
        set: |c, v| put(&mut c.workload.cold_transactions, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.cold_transactions))),
    },
    Param {
        key: "workload.hot_transactions",
        shape: "integer",
        meaning: "HOTN: measured warm-run transactions",
        set: |c, v| put(&mut c.workload.hot_transactions, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.hot_transactions))),
    },
    Param {
        key: "workload.p_set",
        shape: "float",
        meaning: "PSET: set-oriented access probability",
        set: |c, v| put(&mut c.workload.p_set, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.p_set))),
    },
    Param {
        key: "workload.p_simple",
        shape: "float",
        meaning: "PSIMPLE: simple traversal probability",
        set: |c, v| put(&mut c.workload.p_simple, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.p_simple))),
    },
    Param {
        key: "workload.p_hierarchy",
        shape: "float",
        meaning: "PHIER: hierarchy traversal probability",
        set: |c, v| put(&mut c.workload.p_hierarchy, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.p_hierarchy))),
    },
    Param {
        key: "workload.p_stochastic",
        shape: "float",
        meaning: "PSTOCH: stochastic traversal probability",
        set: |c, v| put(&mut c.workload.p_stochastic, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.p_stochastic))),
    },
    Param {
        key: "workload.set_depth",
        shape: "integer",
        meaning: "SETDEPTH: set-oriented access depth",
        set: |c, v| put(&mut c.workload.set_depth, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.set_depth))),
    },
    Param {
        key: "workload.simple_depth",
        shape: "integer",
        meaning: "SIMDEPTH: simple traversal depth",
        set: |c, v| put(&mut c.workload.simple_depth, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.simple_depth))),
    },
    Param {
        key: "workload.hierarchy_depth",
        shape: "integer",
        meaning: "HIEDEPTH: hierarchy traversal depth",
        set: |c, v| put(&mut c.workload.hierarchy_depth, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.hierarchy_depth))),
    },
    Param {
        key: "workload.stochastic_depth",
        shape: "integer",
        meaning: "STODEPTH: stochastic traversal depth",
        set: |c, v| put(&mut c.workload.stochastic_depth, usize_of(v)?),
        get: Some(|c| Some(int(c.workload.stochastic_depth))),
    },
    Param {
        key: "workload.p_write",
        shape: "float",
        meaning: "PWRITE: per-access update probability",
        set: |c, v| put(&mut c.workload.p_write, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.p_write))),
    },
    Param {
        key: "workload.root_dist",
        shape: "string",
        meaning: "ROOTDIST: uniform | zipf-THETA | hotset-FRACTION-PHOT",
        set: |c, v| put(&mut c.workload.root_dist, parse_selection(str_of(v)?)?),
        get: Some(|c| Some(Value::String(selection_to_string(&c.workload.root_dist)))),
    },
    Param {
        key: "workload.think_time_ms",
        shape: "float",
        meaning: "THINKTIME: mean think time, ms",
        set: |c, v| put(&mut c.workload.think_time_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.think_time_ms))),
    },
    Param {
        key: "workload.arrival",
        shape: "string",
        meaning: "ARRIVAL: closed | poisson-RATE (tx/s, open system) | deterministic-MS (interarrival)",
        set: |c, v| put(&mut c.workload.arrival, parse_arrival(str_of(v)?)?),
        get: Some(|c| Some(Value::String(arrival_to_string(&c.workload.arrival)))),
    },
    Param {
        key: "workload.duration_ms",
        shape: "float",
        meaning: "DURATION: time-horizon phase length in simulated ms (0 = count-based COLDN/HOTN)",
        set: |c, v| put(&mut c.workload.duration_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.duration_ms))),
    },
    Param {
        key: "workload.warmup_ms",
        shape: "float",
        meaning: "WARMUP: unmeasured warm-up prefix of a time-horizon phase, ms",
        set: |c, v| put(&mut c.workload.warmup_ms, f64_of(v)?),
        get: Some(|c| Some(Value::Float(c.workload.warmup_ms))),
    },
];

/// The table entry for a dotted key.
fn param(key: &str) -> Option<&'static Param> {
    PARAMS.iter().find(|p| p.key == key)
}

/// Renders [`PARAMS`] as the `voodb params` listing: keys sorted
/// lexicographically (which groups the `[database]`/`[system]`/
/// `[workload]` sections), one section header per prefix. Deterministic
/// by construction; pinned by the CLI golden test.
pub fn params_help_text() -> String {
    let mut entries: Vec<&Param> = PARAMS.iter().collect();
    entries.sort_by_key(|p| p.key);
    let mut out =
        String::from("Supported scenario parameters (every key is also a valid sweep axis):\n");
    let mut last_section = "";
    for p in entries {
        let section = p.key.split('.').next().unwrap_or("");
        if section != last_section {
            out.push_str(&format!("\n[{section}]\n"));
            last_section = section;
        }
        out.push_str(&format!("  {:<36} {:<10} {}\n", p.key, p.shape, p.meaning));
    }
    out
}

/// Applies one dotted-key parameter to an [`ExperimentConfig`]. The same
/// keys work in the `[system]`/`[database]`/`[workload]` sections and as
/// sweep-axis `param`s.
///
/// # Errors
/// Returns a message naming the key and the expected value shape.
pub fn apply_param(config: &mut ExperimentConfig, key: &str, value: &Value) -> Result<(), String> {
    let (section, field) = key.split_once('.').ok_or_else(|| {
        format!("parameter '{key}' must be section-qualified (e.g. system.{key})")
    })?;
    let applied = if !SECTIONS.contains(&section) {
        Err(format!(
            "unknown section '{section}' in parameter '{key}' \
             (expected system/database/workload)"
        ))
    } else if let Some(param) = param(key) {
        (param.set)(config, value)
    } else {
        Err(format!("unknown [{section}] key '{field}'"))
    };
    applied.map_err(|e| format!("'{key}': {e}"))
}

/// Stores a parsed value: the common tail of every setter.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// A TOML integer. TOML integers are i64; out-of-range values clamp (a
/// parsed scenario can never hold one, so round-trips are unaffected).
fn int<T: TryInto<i64>>(n: T) -> Value {
    Value::Integer(n.try_into().unwrap_or(i64::MAX))
}

fn want<T>(value: Option<T>, expected: &str, got: &Value) -> Result<T, String> {
    value.ok_or_else(|| format!("expected {expected}, got a {}", got.type_name()))
}

fn f64_of(v: &Value) -> Result<f64, String> {
    want(v.as_f64(), "a number", v)
}

fn usize_of(v: &Value) -> Result<usize, String> {
    want(v.as_usize(), "a non-negative integer", v)
}

fn u32_of(v: &Value) -> Result<u32, String> {
    let n = usize_of(v)?;
    u32::try_from(n).map_err(|_| format!("expected an integer up to {}, got {n}", u32::MAX))
}

/// Buffer frames for a `*_mb` alias: `mb` MB at `per_mb` frames each,
/// at least 8 (as [`VoodbParams::o2`] and [`VoodbParams::texas`]).
fn frames_of(v: &Value, per_mb: usize) -> Result<usize, String> {
    let mb = usize_of(v)?;
    mb.checked_mul(per_mb)
        .map(|frames| frames.max(8))
        .ok_or_else(|| format!("{mb} MB is too large a buffer"))
}

fn str_of(v: &Value) -> Result<&str, String> {
    want(v.as_str(), "a string", v)
}

fn bool_of(v: &Value) -> Result<bool, String> {
    want(v.as_bool(), "a boolean", v)
}

/// Parses a `name-NUMBER` suffix, e.g. `lru-2` → 2.
fn suffix_of<T: std::str::FromStr>(raw: &str, prefix: &str) -> Result<T, String> {
    raw.strip_prefix(prefix)
        .and_then(|s| s.strip_prefix('-'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("expected '{prefix}-NUMBER', got '{raw}'"))
}

fn parse_system_class(raw: &str) -> Result<SystemClass, String> {
    match raw {
        "centralized" => Ok(SystemClass::Centralized),
        "object-server" => Ok(SystemClass::ObjectServer),
        "page-server" => Ok(SystemClass::PageServer),
        "db-server" => Ok(SystemClass::DbServer),
        other if other.starts_with("hybrid") => Ok(SystemClass::HybridMultiServer {
            servers: suffix_of(other, "hybrid")?,
        }),
        other => Err(format!(
            "unknown system class '{other}' (centralized | object-server | \
             page-server | db-server | hybrid-N)"
        )),
    }
}

/// Canonical string for a [`SystemClass`] (inverse of
/// [`parse_system_class`]).
pub fn system_class_to_string(class: &SystemClass) -> String {
    match class {
        SystemClass::Centralized => "centralized".into(),
        SystemClass::ObjectServer => "object-server".into(),
        SystemClass::PageServer => "page-server".into(),
        SystemClass::DbServer => "db-server".into(),
        SystemClass::HybridMultiServer { servers } => format!("hybrid-{servers}"),
    }
}

fn parse_policy(raw: &str) -> Result<PolicyKind, String> {
    match raw {
        "fifo" => Ok(PolicyKind::Fifo),
        "lru" => Ok(PolicyKind::Lru),
        "lfu" => Ok(PolicyKind::Lfu),
        "clock" => Ok(PolicyKind::Clock),
        other if other.starts_with("random") => Ok(PolicyKind::Random {
            seed: suffix_of(other, "random")?,
        }),
        other if other.starts_with("lru") => Ok(PolicyKind::LruK {
            k: suffix_of(other, "lru")?,
        }),
        other if other.starts_with("gclock") => Ok(PolicyKind::GClock {
            weight: suffix_of(other, "gclock")?,
        }),
        other => Err(format!(
            "unknown replacement policy '{other}' \
             (random-SEED | fifo | lru | lru-K | lfu | clock | gclock-W)"
        )),
    }
}

fn policy_to_string(policy: &PolicyKind) -> String {
    match policy {
        PolicyKind::Random { seed } => format!("random-{seed}"),
        PolicyKind::Fifo => "fifo".into(),
        PolicyKind::Lru => "lru".into(),
        PolicyKind::LruK { k } => format!("lru-{k}"),
        PolicyKind::Lfu => "lfu".into(),
        PolicyKind::Clock => "clock".into(),
        PolicyKind::GClock { weight } => format!("gclock-{weight}"),
    }
}

fn parse_selection(raw: &str) -> Result<Selection, String> {
    if raw == "uniform" {
        return Ok(Selection::Uniform);
    }
    if let Some(theta) = raw.strip_prefix("zipf-") {
        return theta
            .parse()
            .map(Selection::Zipf)
            .map_err(|_| format!("invalid zipf skew in '{raw}'"));
    }
    if let Some(rest) = raw.strip_prefix("hotset-") {
        let parts: Vec<&str> = rest.splitn(2, '-').collect();
        if let [fraction, p_hot] = parts[..] {
            if let (Ok(fraction), Ok(p_hot)) = (fraction.parse(), p_hot.parse()) {
                return Ok(Selection::HotSet { fraction, p_hot });
            }
        }
        return Err(format!("expected 'hotset-FRACTION-PHOT', got '{raw}'"));
    }
    Err(format!(
        "unknown selection '{raw}' (uniform | zipf-THETA | hotset-FRACTION-PHOT)"
    ))
}

/// Parses an arrival process: `closed`, `poisson-RATE` (transactions per
/// simulated second) or `deterministic-MS` (fixed interarrival).
pub fn parse_arrival(raw: &str) -> Result<Arrival, String> {
    if raw == "closed" {
        return Ok(Arrival::Closed);
    }
    if let Some(rate) = raw.strip_prefix("poisson-") {
        return rate
            .parse()
            .map(|rate_per_sec| Arrival::Poisson { rate_per_sec })
            .map_err(|_| format!("invalid poisson rate in '{raw}'"));
    }
    if let Some(interval) = raw.strip_prefix("deterministic-") {
        return interval
            .parse()
            .map(|interarrival_ms| Arrival::Deterministic { interarrival_ms })
            .map_err(|_| format!("invalid deterministic interarrival in '{raw}'"));
    }
    Err(format!(
        "unknown arrival '{raw}' (closed | poisson-RATE | deterministic-MS)"
    ))
}

/// Canonical string for an [`Arrival`] (inverse of [`parse_arrival`]).
pub fn arrival_to_string(arrival: &Arrival) -> String {
    match arrival {
        Arrival::Closed => "closed".into(),
        Arrival::Poisson { rate_per_sec } => format!("poisson-{}", format_float(*rate_per_sec)),
        Arrival::Deterministic { interarrival_ms } => {
            format!("deterministic-{}", format_float(*interarrival_ms))
        }
    }
}

fn selection_to_string(selection: &Selection) -> String {
    match selection {
        Selection::Uniform => "uniform".into(),
        Selection::Zipf(theta) => format!("zipf-{}", format_float(*theta)),
        Selection::HotSet { fraction, p_hot } => {
            format!(
                "hotset-{}-{}",
                format_float(*fraction),
                format_float(*p_hot)
            )
        }
    }
}

/// Mutable access to the scenario-tunable DSTC parameters, upgrading
/// `CLUSTP` to DSTC (with [`DstcParams::default`]) on first touch.
fn dstc_params(system: &mut VoodbParams) -> &mut DstcParams {
    if !matches!(system.clustering, ClusteringKind::Dstc(_)) {
        system.clustering = ClusteringKind::Dstc(DstcParams::default());
    }
    match &mut system.clustering {
        ClusteringKind::Dstc(params) => params,
        _ => unreachable!("just set"),
    }
}

/// The DSTC tuning of a config, if `CLUSTP` is DSTC.
fn dstc_of(config: &ExperimentConfig) -> Option<&DstcParams> {
    match &config.system.clustering {
        ClusteringKind::Dstc(params) => Some(params),
        _ => None,
    }
}

fn parse_prefetch(raw: &str) -> Result<PrefetchKind, String> {
    match raw {
        "none" => Ok(PrefetchKind::None),
        other if other.starts_with("sequential") => Ok(PrefetchKind::Sequential {
            window: suffix_of(other, "sequential")?,
        }),
        other => Err(format!("unknown prefetch '{other}' (none | sequential-W)")),
    }
}

fn prefetch_to_string(prefetch: &PrefetchKind) -> String {
    match prefetch {
        PrefetchKind::None => "none".into(),
        PrefetchKind::Sequential { window } => format!("sequential-{window}"),
    }
}

/// Parses `CLUSTP`; `dstc` keeps the DSTC tuning of `current`, so
/// `dstc_*` keys applied before it in a section survive.
fn parse_clustering(raw: &str, current: &ClusteringKind) -> Result<ClusteringKind, String> {
    match raw {
        "none" => Ok(ClusteringKind::None),
        "dstc" => Ok(ClusteringKind::Dstc(match current {
            ClusteringKind::Dstc(params) => params.clone(),
            _ => DstcParams::default(),
        })),
        other if other.starts_with("static-graph") => Ok(ClusteringKind::StaticGraph {
            max_cluster_size: suffix_of(other, "static-graph")?,
        }),
        other => Err(format!(
            "unknown clustering '{other}' (none | dstc | static-graph-N)"
        )),
    }
}

fn clustering_to_string(clustering: &ClusteringKind) -> String {
    match clustering {
        ClusteringKind::None => "none".into(),
        ClusteringKind::Dstc(_) => "dstc".into(),
        ClusteringKind::StaticGraph { max_cluster_size } => {
            format!("static-graph-{max_cluster_size}")
        }
    }
}

fn parse_placement(raw: &str) -> Result<InitialPlacement, String> {
    match raw {
        "sequential" => Ok(InitialPlacement::Sequential),
        "optimized-sequential" => Ok(InitialPlacement::OptimizedSequential),
        other if other.starts_with("random") => Ok(InitialPlacement::Random {
            seed: suffix_of(other, "random")?,
        }),
        other => Err(format!(
            "unknown placement '{other}' \
             (sequential | optimized-sequential | random-SEED)"
        )),
    }
}

fn placement_to_string(placement: &InitialPlacement) -> String {
    match placement {
        InitialPlacement::Sequential => "sequential".into(),
        InitialPlacement::OptimizedSequential => "optimized-sequential".into(),
        InitialPlacement::Random { seed } => format!("random-{seed}"),
    }
}

fn parse_disk_preset(raw: &str) -> Result<DiskParams, String> {
    match raw {
        "table3" => Ok(DiskParams::table3_default()),
        "o2" => Ok(DiskParams::o2()),
        "texas" => Ok(DiskParams::texas()),
        other => Err(format!(
            "unknown disk preset '{other}' (table3 | o2 | texas)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "minimal"
replications = 3
seed = 7

[database]
classes = 10
objects = 500

[workload]
hot_transactions = 40
"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "minimal");
        assert_eq!(s.replications, 3);
        assert_eq!(s.seed, 7);
        assert_eq!(s.config.database.objects, 500);
        assert_eq!(s.config.workload.hot_transactions, 40);
        // Untouched groups keep Table 3 / Table 5 defaults.
        assert_eq!(s.config.system.buffer_pages, 500);
        assert!(s.sweep.is_empty());
        assert_eq!(s.grid().len(), 1);
    }

    #[test]
    fn sweep_axes_build_a_cartesian_grid() {
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"system.multiprogramming_level\"\nvalues = [1, 2]\n\n\
             [[sweep]]\nparam = \"system.system_class\"\nvalues = [\"centralized\", \"page-server\", \"hybrid-4\"]\n"
        );
        let s = Scenario::parse(&text).unwrap();
        let grid = s.grid();
        assert_eq!(grid.len(), 6);
        // First axis slowest.
        assert_eq!(grid[0].config.system.multiprogramming_level, 1);
        assert_eq!(grid[3].config.system.multiprogramming_level, 2);
        assert_eq!(
            grid[2].config.system.system_class,
            SystemClass::HybridMultiServer { servers: 4 }
        );
        assert_eq!(
            grid[0].label(),
            "multiprogramming_level=1 system_class=centralized"
        );
    }

    #[test]
    fn convenience_mb_keys_scale_buffer_pages() {
        let text = format!("{MINIMAL}\n[system]\ncache_mb = 16\n");
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(s.config.system.buffer_pages, 3840);
        let text = format!("{MINIMAL}\n[system]\nmemory_mb = 64\n");
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(s.config.system.buffer_pages, 64 * 230);
    }

    #[test]
    fn dstc_keys_upgrade_clustering() {
        let text = format!(
            "{MINIMAL}\n[system]\nclustering = \"dstc\"\ndstc_max_unit_size = 32\ndstc_trigger_threshold = 150\n"
        );
        let s = Scenario::parse(&text).unwrap();
        match &s.config.system.clustering {
            ClusteringKind::Dstc(p) => {
                assert_eq!(p.max_unit_size, 32);
                assert_eq!(p.trigger_threshold, 150);
            }
            other => panic!("expected DSTC, got {other:?}"),
        }
    }

    #[test]
    fn clustering_configs_that_cannot_build_fail_to_parse() {
        // Both used to validate and then panic inside a runner worker.
        for (system, needle) in [
            (
                "clustering = \"dstc\"\ndstc_max_unit_size = 1",
                "max_unit_size",
            ),
            ("clustering = \"static-graph-1\"", "static-graph"),
        ] {
            let text = format!("{MINIMAL}\n[system]\n{system}\n");
            let err = Scenario::parse(&text).unwrap_err();
            assert!(err.contains("clustering") && err.contains(needle), "{err}");
        }
    }

    #[test]
    fn every_key_is_listed_once_and_round_trips() {
        let mut keys: Vec<&str> = PARAMS.iter().map(|p| p.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), PARAMS.len(), "duplicate key in PARAMS");
        let mut config = Scenario::parse(MINIMAL).unwrap().config;
        apply_param(
            &mut config,
            "system.clustering",
            &Value::String("dstc".into()),
        )
        .unwrap();
        for param in PARAMS {
            let Some(get) = param.get else { continue };
            let value = get(&config).expect("every getter applies under DSTC");
            let mut copy = config.clone();
            (param.set)(&mut copy, &value).unwrap();
            assert_eq!(get(&copy), Some(value), "{}", param.key);
        }
    }

    #[test]
    fn extreme_numbers_are_rejected_or_kept_never_misread() {
        let base = Scenario::parse(MINIMAL).unwrap().config;
        for param in PARAMS {
            let mut config = base.clone();
            match param.shape {
                "integer" => {
                    let value = Value::Integer(i64::MAX);
                    if apply_param(&mut config, param.key, &value).is_err() {
                        continue;
                    }
                    if let Some(get) = param.get {
                        assert_eq!(get(&config), Some(value), "{} misread", param.key);
                    }
                    let _ = config.validate(); // must not panic
                }
                "float" | "float|inf" => {
                    let nan = Value::Float(f64::NAN);
                    let rejected = apply_param(&mut config, param.key, &nan).is_err()
                        || config.validate().is_err();
                    assert!(rejected, "{} accepted NaN", param.key);
                }
                _ => {}
            }
        }
        // The write-only aliases have no getter: their overflow must be
        // an error, not a wrapped buffer size.
        for key in ["system.cache_mb", "system.memory_mb"] {
            let mut config = base.clone();
            let err = apply_param(&mut config, key, &Value::Integer(i64::MAX)).unwrap_err();
            assert!(err.contains("too large"), "{err}");
        }
        // A page size past u32 is refused, not truncated to 4096.
        let mut config = base.clone();
        let err = apply_param(
            &mut config,
            "system.page_size",
            &Value::Integer(4_294_971_392),
        )
        .unwrap_err();
        assert!(err.contains("page_size"), "{err}");
        // +inf stays legal for the network throughput.
        let mut config = base;
        apply_param(
            &mut config,
            "system.network_throughput_mbps",
            &Value::Float(f64::INFINITY),
        )
        .unwrap();
        config.validate().unwrap();
    }

    #[test]
    fn errors_name_section_and_key() {
        let err = Scenario::parse(&format!("{MINIMAL}\n[system]\nbogus = 1\n")).unwrap_err();
        assert!(err.contains("system") && err.contains("bogus"), "{err}");

        let err = Scenario::parse(&format!("{MINIMAL}\n[system]\nbuffer_pages = \"lots\"\n"))
            .unwrap_err();
        assert!(
            err.contains("buffer_pages") && err.contains("integer"),
            "{err}"
        );

        let err = Scenario::parse("x = 1\n").unwrap_err();
        assert!(err.contains("unknown top-level section"), "{err}");

        let err = Scenario::parse("[scenario]\nreplications = 1\n").unwrap_err();
        assert!(err.contains("'name' is required"), "{err}");
    }

    #[test]
    fn invalid_sweep_values_are_rejected_at_validate() {
        // A 0 multiprogramming level fails VoodbParams::validate.
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"system.multiprogramming_level\"\nvalues = [2, 0]\n"
        );
        let err = Scenario::parse(&text).unwrap_err();
        assert!(err.contains("multiprogramming"), "{err}");

        let text = format!("{MINIMAL}\n[[sweep]]\nparam = \"system.nope\"\nvalues = [1]\n");
        let err = Scenario::parse(&text).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn cross_axis_invalid_combinations_rejected() {
        // Each value is fine against the base config (classes=10,
        // objects=500), but the grid point classes=100 x objects=50
        // violates objects >= classes — only per-point validation sees
        // it.
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"database.classes\"\nvalues = [10, 100]\n\n\
             [[sweep]]\nparam = \"database.objects\"\nvalues = [50, 5000]\n"
        );
        let err = Scenario::parse(&text).unwrap_err();
        assert!(
            err.contains("sweep point") && err.contains("objects"),
            "{err}"
        );
    }

    #[test]
    fn arrival_and_horizon_keys_parse_sweep_and_round_trip() {
        let text = format!(
            "{MINIMAL}\n[workload]\narrival = \"poisson-25.5\"\nduration_ms = 30000.0\n\
             warmup_ms = 3000.0\n\n\
             [[sweep]]\nparam = \"workload.arrival\"\n\
             values = [\"poisson-10\", \"poisson-40\", \"deterministic-12.5\", \"closed\"]\n"
        );
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(
            s.config.workload.arrival,
            Arrival::Poisson { rate_per_sec: 25.5 }
        );
        assert_eq!(s.config.workload.duration_ms, 30000.0);
        assert_eq!(s.config.workload.warmup_ms, 3000.0);
        let grid = s.grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid[2].config.workload.arrival,
            Arrival::Deterministic {
                interarrival_ms: 12.5
            }
        );
        assert_eq!(grid[3].config.workload.arrival, Arrival::Closed);
        assert_eq!(grid[0].label(), "arrival=poisson-10");
        // Canonical serialization round-trips.
        let serialized = s.to_toml_string();
        let reparsed = Scenario::parse(&serialized).unwrap();
        assert_eq!(reparsed.to_toml_string(), serialized);
        assert_eq!(reparsed.config.workload.arrival, s.config.workload.arrival);
        assert_eq!(reparsed.sweep, s.sweep);
        // Invalid values are rejected with the key named.
        let err = Scenario::parse(&format!("{MINIMAL}\n[workload]\narrival = \"sometimes\"\n"))
            .unwrap_err();
        assert!(err.contains("arrival"), "{err}");
        let err = Scenario::parse(&format!(
            "{MINIMAL}\n[workload]\nduration_ms = 100.0\nwarmup_ms = 100.0\n"
        ))
        .unwrap_err();
        assert!(err.contains("warmup"), "{err}");
    }

    #[test]
    fn shrink_for_smoke_caps_horizon() {
        let text = format!(
            "{MINIMAL}\n[workload]\narrival = \"poisson-40\"\nduration_ms = 60000.0\n\
             warmup_ms = 6000.0\n"
        );
        let mut s = Scenario::parse(&text).unwrap();
        s.shrink_for_smoke(400, 20, 2);
        assert_eq!(s.config.workload.duration_ms, 2000.0);
        // The warm-up scales with the cut, keeping its fraction.
        assert!((s.config.workload.warmup_ms - 200.0).abs() < 1e-9);
        s.validate().unwrap();
    }

    #[test]
    fn to_toml_round_trips() {
        let text = format!(
            "{MINIMAL}\n[system]\nsystem_class = \"hybrid-3\"\npage_replacement = \"lru-2\"\n\
             clustering = \"dstc\"\nnetwork_throughput_mbps = inf\n\n\
             [[sweep]]\nparam = \"system.buffer_pages\"\nvalues = [64, 256]\n"
        );
        let s = Scenario::parse(&text).unwrap();
        let serialized = s.to_toml_string();
        let reparsed = Scenario::parse(&serialized).unwrap();
        assert_eq!(reparsed.to_toml_string(), serialized);
        assert_eq!(
            reparsed.config.system.buffer_pages,
            s.config.system.buffer_pages
        );
        assert_eq!(reparsed.sweep, s.sweep);
    }

    #[test]
    fn shrink_for_smoke_caps_cost() {
        let text = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"database.objects\"\nvalues = [500, 1000, 2000, 20000]\n"
        );
        let mut s = Scenario::parse(&text).unwrap();
        s.shrink_for_smoke(600, 30, 3);
        assert_eq!(s.config.workload.hot_transactions, 30);
        assert_eq!(
            s.sweep[0].values,
            vec![Value::Integer(500), Value::Integer(600)]
        );
        s.validate().unwrap();
    }
}
