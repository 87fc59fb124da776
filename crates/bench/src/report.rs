//! Report formatting for the harness binaries.
//!
//! Every binary prints the same layout the paper uses: an x column, the
//! Benchmark series, the Simulation series (both ± their 95% half-widths),
//! and the bench/sim ratio. The `*_report_table` converters turn the
//! same data into [`scenario::ReportTable`]s so `repro_all` can persist
//! it as machine-readable CSV/JSON artifacts under `target/voodb-out/`
//! for CI to upload.

use crate::harness::{DstcSide, Point};
use scenario::{Cell, ReportTable};
use vtrace::Histogram;

/// One labelled latency distribution (e.g. a preset or a policy).
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Row label.
    pub label: String,
    /// The merged response-time histogram.
    pub hist: Histogram,
}

/// Prints a latency percentile table (the histogram columns of the
/// repro binaries).
pub fn print_latency_table(title: &str, rows: &[LatencyRow]) {
    println!("# {title}");
    println!(
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "n", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "mean(ms)"
    );
    for row in rows {
        println!(
            "{:<24} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            row.label,
            row.hist.count(),
            row.hist.p50(),
            row.hist.p90(),
            row.hist.p99(),
            row.hist.max_or_zero(),
            row.hist.mean()
        );
    }
    println!();
}

/// Converts a latency table into a persistable [`ReportTable`].
pub fn latency_report_table(title: &str, rows: &[LatencyRow]) -> ReportTable {
    let mut table = ReportTable::new(
        title,
        &[
            "label", "n", "p50_ms", "p90_ms", "p99_ms", "max_ms", "mean_ms",
        ],
    );
    for row in rows {
        table.push_row(vec![
            Cell::Text(row.label.clone()),
            Cell::Int(row.hist.count() as i64),
            Cell::Num(row.hist.p50()),
            Cell::Num(row.hist.p90()),
            Cell::Num(row.hist.p99()),
            Cell::Num(row.hist.max_or_zero()),
            Cell::Num(row.hist.mean()),
        ]);
    }
    table
}

/// Prints a figure-style sweep table.
pub fn print_sweep(title: &str, x_label: &str, points: &[Point]) {
    println!("# {title}");
    println!(
        "{:<14} {:>14} {:>10} {:>14} {:>10} {:>8}",
        x_label, "bench(I/Os)", "±95%", "sim(I/Os)", "±95%", "ratio"
    );
    for p in points {
        println!(
            "{:<14} {:>14.1} {:>10.1} {:>14.1} {:>10.1} {:>8.3}",
            p.x,
            p.bench.mean,
            p.bench.half_width,
            p.sim.mean,
            p.sim.half_width,
            p.ratio()
        );
    }
    println!();
}

/// Converts a figure-style sweep into a persistable table (same columns
/// as [`print_sweep`] plus the replication count).
pub fn sweep_report_table(title: &str, x_label: &str, points: &[Point]) -> ReportTable {
    let mut table = ReportTable::new(
        title,
        &[
            x_label,
            "bench_ios_mean",
            "bench_ios_ci95",
            "sim_ios_mean",
            "sim_ios_ci95",
            "ratio",
            "reps",
        ],
    );
    for p in points {
        table.push_row(vec![
            Cell::Num(p.x),
            Cell::Num(p.bench.mean),
            Cell::Num(p.bench.half_width),
            Cell::Num(p.sim.mean),
            Cell::Num(p.sim.half_width),
            Cell::Num(p.ratio()),
            Cell::Int(p.bench.n as i64),
        ]);
    }
    table
}

/// Converts a Table 6/7/8-style DSTC comparison into a persistable
/// table: one row per measure, Bench/Sim/Ratio columns.
pub fn dstc_report_table(
    title: &str,
    bench: &DstcSide,
    sim: &DstcSide,
    with_overhead: bool,
) -> ReportTable {
    let mut table = ReportTable::new(title, &["measure", "bench", "sim", "ratio"]);
    let ratio = |b: f64, s: f64| if s == 0.0 { f64::INFINITY } else { b / s };
    let mut push = |name: &str, b: f64, s: f64| {
        table.push_row(vec![
            Cell::Text(name.to_owned()),
            Cell::Num(b),
            Cell::Num(s),
            Cell::Num(ratio(b, s)),
        ]);
    };
    push("pre_clustering_ios", bench.pre, sim.pre);
    if with_overhead {
        push("clustering_overhead_ios", bench.overhead, sim.overhead);
    }
    push("post_clustering_ios", bench.post, sim.post);
    push("gain", bench.gain(), sim.gain());
    push("clusters", bench.clusters, sim.clusters);
    push(
        "objects_per_cluster",
        bench.objects_per_cluster,
        sim.objects_per_cluster,
    );
    table
}

/// Checks the tendency the paper's figures show: both series must be
/// monotone in the same direction (within `slack` relative tolerance for
/// replication noise). Returns an error message when the shapes disagree.
pub fn check_same_tendency(points: &[Point], slack: f64) -> Result<(), String> {
    if points.len() < 2 {
        return Ok(());
    }
    let dir = |series: &dyn Fn(&Point) -> f64| -> i32 {
        let first = series(&points[0]);
        let last = series(&points[points.len() - 1]);
        if last > first {
            1
        } else {
            -1
        }
    };
    let bench = |p: &Point| p.bench.mean;
    let sim = |p: &Point| p.sim.mean;
    if dir(&bench) != dir(&sim) {
        return Err("benchmark and simulation trend in opposite directions".into());
    }
    // Within each series, successive points may wiggle by the slack but
    // the overall direction must hold pairwise across the span.
    for (name, series) in [("bench", &bench as &dyn Fn(&Point) -> f64), ("sim", &sim)] {
        let d = dir(series) as f64;
        for w in points.windows(2) {
            let (a, b) = (series(&w[0]), series(&w[1]));
            if d * (b - a) < -slack * a.abs() {
                return Err(format!(
                    "{name} series reverses tendency between x={} and x={}",
                    w[0].x, w[1].x
                ));
            }
        }
    }
    Ok(())
}

/// Prints a Table 6/8-style DSTC comparison.
pub fn print_dstc_table(title: &str, bench: &DstcSide, sim: &DstcSide, with_overhead: bool) {
    println!("# {title}");
    println!("{:<24} {:>12} {:>12} {:>8}", "", "Bench.", "Sim.", "Ratio");
    let ratio = |b: f64, s: f64| if s == 0.0 { f64::INFINITY } else { b / s };
    println!(
        "{:<24} {:>12.2} {:>12.2} {:>8.4}",
        "Pre-clustering usage",
        bench.pre,
        sim.pre,
        ratio(bench.pre, sim.pre)
    );
    if with_overhead {
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>8.4}",
            "Clustering overhead",
            bench.overhead,
            sim.overhead,
            ratio(bench.overhead, sim.overhead)
        );
    }
    println!(
        "{:<24} {:>12.2} {:>12.2} {:>8.4}",
        "Post-clustering usage",
        bench.post,
        sim.post,
        ratio(bench.post, sim.post)
    );
    println!(
        "{:<24} {:>12.2} {:>12.2} {:>8.4}",
        "Gain",
        bench.gain(),
        sim.gain(),
        ratio(bench.gain(), sim.gain())
    );
    println!();
}

/// Prints a Table 7-style cluster-statistics comparison.
pub fn print_cluster_table(title: &str, bench: &DstcSide, sim: &DstcSide) {
    println!("# {title}");
    println!("{:<28} {:>12} {:>12} {:>8}", "", "Bench.", "Sim.", "Ratio");
    let ratio = |b: f64, s: f64| if s == 0.0 { f64::INFINITY } else { b / s };
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>8.4}",
        "Mean number of clusters",
        bench.clusters,
        sim.clusters,
        ratio(bench.clusters, sim.clusters)
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>8.4}",
        "Mean number of obj./clust.",
        bench.objects_per_cluster,
        sim.objects_per_cluster,
        ratio(bench.objects_per_cluster, sim.objects_per_cluster)
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use desp::ConfidenceInterval;

    fn point(x: f64, bench: f64, sim: f64) -> Point {
        let estimate = |mean| ConfidenceInterval {
            mean,
            half_width: 1.0,
            level: 0.95,
            n: 10,
        };
        Point {
            x,
            bench: estimate(bench),
            sim: estimate(sim),
        }
    }

    #[test]
    fn same_tendency_accepts_monotone_series() {
        let points = vec![
            point(1.0, 10.0, 12.0),
            point(2.0, 20.0, 22.0),
            point(3.0, 30.0, 33.0),
        ];
        assert!(check_same_tendency(&points, 0.05).is_ok());
    }

    #[test]
    fn same_tendency_accepts_decreasing_series() {
        let points = vec![
            point(8.0, 50.0, 55.0),
            point(16.0, 20.0, 22.0),
            point(64.0, 5.0, 6.0),
        ];
        assert!(check_same_tendency(&points, 0.05).is_ok());
    }

    #[test]
    fn opposite_directions_rejected() {
        let points = vec![point(1.0, 10.0, 30.0), point(2.0, 20.0, 15.0)];
        assert!(check_same_tendency(&points, 0.05).is_err());
    }

    #[test]
    fn big_reversal_rejected_small_wiggle_tolerated() {
        // Wiggle within slack.
        let points = vec![
            point(1.0, 10.0, 10.0),
            point(2.0, 9.9, 10.1),
            point(3.0, 30.0, 31.0),
        ];
        assert!(check_same_tendency(&points, 0.05).is_ok());
        // Hard reversal.
        let points = vec![
            point(1.0, 10.0, 10.0),
            point(2.0, 5.0, 11.0),
            point(3.0, 30.0, 31.0),
        ];
        assert!(check_same_tendency(&points, 0.05).is_err());
    }

    #[test]
    fn printers_do_not_panic() {
        let points = vec![point(500.0, 100.0, 110.0)];
        print_sweep("test", "instances", &points);
        let side = DstcSide {
            pre: 100.0,
            overhead: 50.0,
            post: 20.0,
            clusters: 10.0,
            objects_per_cluster: 5.0,
        };
        print_dstc_table("test", &side, &side, true);
        print_cluster_table("test", &side, &side);
    }
}
