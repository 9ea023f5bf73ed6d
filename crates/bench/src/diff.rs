//! Benchmark regression diffing for the CI perf gate — and the
//! *ratchet* keeping the committed baseline honest in both directions.
//!
//! Compares a freshly produced `BENCH_dist.json` (the `throughput`
//! harness report) against the committed `BENCH_baseline.json` and
//! fails on regressions: by default, >25% on concurrent p50 latency or
//! on bytes or requests per query. Bytes and requests are deterministic
//! per configuration, so any growth is a real protocol change;
//! latency carries runner noise, which the threshold absorbs. A `full`
//! (paper-scale) report runs each query once, so its p50 is whichever
//! five-row query lands in the middle: there the gated latency is the
//! concurrent phase's `wall_secs` — the time of the queries that
//! dominate it — and the p50 is informational.
//!
//! The ratchet direction: a gated metric that *improves* beyond the
//! same tolerance also fails ([`MetricDelta::improved_beyond`]) —
//! an unclaimed improvement means the committed baseline no longer
//! describes the code, so regressions up to the stale baseline would
//! pass silently. Re-pin with the run [`repin_command`] names for the
//! baseline's kind and commit the new floor with the change that
//! earned it.
//!
//! The report measures one path, the in-proc session's walk with fresh
//! provisioning; the frozen `benchmark/` times the TCP session and the
//! walk under its other name. An older baseline that still carries `sequential`,
//! `session`, `tcp` or the speedup ratios compares on the same rows,
//! since no row reads those keys.
//!
//! A metric the baseline's kind gates must be in both reports: a report
//! that lacks one is malformed, not passing ([`compare`] names it).
//! Informational rows may be absent from either.
//!
//! The comparison prints as a Markdown table so the CI job can append
//! it to `$GITHUB_STEP_SUMMARY`.

/// One compared metric.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Metric name.
    pub name: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub current: f64,
    /// Relative change, `current/baseline − 1` (positive = grew).
    pub delta: f64,
    /// Tolerance for this metric (`None` = informational only).
    pub tolerance: Option<f64>,
    /// Whether growth is a regression (latency/bytes) or an
    /// improvement (qps).
    pub higher_is_worse: bool,
}

impl MetricDelta {
    /// Does this metric fail its gate?
    pub fn regressed(&self) -> bool {
        match self.tolerance {
            None => false,
            Some(tol) => {
                if self.higher_is_worse {
                    self.delta > tol
                } else {
                    self.delta < -tol
                }
            }
        }
    }

    /// Did this gated metric *improve* beyond its tolerance? Such a win
    /// is unclaimed until the baseline is re-pinned — the ratchet
    /// refuses to leave the floor that far below the code.
    pub fn improved_beyond(&self) -> bool {
        match self.tolerance {
            None => false,
            Some(tol) => {
                if self.higher_is_worse {
                    self.delta < -tol
                } else {
                    self.delta > tol
                }
            }
        }
    }
}

/// Extract `"key": <number>` from a JSON object body.
fn field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a nested object's body, e.g. `section = "concurrent"`.
fn section<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = text.find(&pat)? + pat.len();
    let open = text[at..].find('{')? + at;
    let close = text[open..].find('}')? + open;
    Some(&text[open..=close])
}

/// Is `report` a `full` (paper-scale) report rather than a `smoke` one?
fn is_full(report: &str) -> bool {
    report.contains("\"mode\": \"full\"")
}

/// The `throughput` run that re-pins the baseline at `path`, by the
/// baseline's kind: the SF 1 run CI gates for a `full` report, the
/// smoke run otherwise.
pub fn repin_command(baseline: &str, path: &str) -> String {
    let run = if is_full(baseline) {
        "--sf 1 --sessions 1 --queries 1,6"
    } else {
        "--smoke"
    };
    format!("cargo run -p mpq-bench --bin throughput --release -- {run} --out {path}")
}

/// Compare two `BENCH_dist.json` documents. `latency_tol` and
/// `bytes_tol` are fractions (0.25 = 25%). Fails with the metric's name
/// when a gated metric is missing from either report.
pub fn compare(
    baseline: &str,
    current: &str,
    latency_tol: f64,
    bytes_tol: f64,
) -> Result<Vec<MetricDelta>, String> {
    let metric = |name: &'static str,
                  get: &dyn Fn(&str) -> Option<f64>,
                  tolerance: Option<f64>,
                  higher_is_worse: bool|
     -> Result<Option<MetricDelta>, String> {
        let (b, c) = match (get(baseline), get(current)) {
            (Some(b), Some(c)) => (b, c),
            (b, _) if tolerance.is_some() => {
                let report = if b.is_none() { "baseline" } else { "current" };
                return Err(format!(
                    "gated metric `{name}` missing from the {report} report"
                ));
            }
            _ => return Ok(None),
        };
        let delta = if b.abs() > 1e-12 { c / b - 1.0 } else { 0.0 };
        Ok(Some(MetricDelta {
            name,
            baseline: b,
            current: c,
            delta,
            tolerance,
            higher_is_worse,
        }))
    };
    // Which latency is the gated one, by the baseline's kind.
    let full = is_full(baseline);
    [
        metric(
            "concurrent wall (s)",
            &|t| field(section(t, "concurrent")?, "wall_secs"),
            full.then_some(latency_tol),
            true,
        ),
        metric(
            "concurrent p50 (ms)",
            &|t| field(section(t, "concurrent")?, "p50_ms"),
            (!full).then_some(latency_tol),
            true,
        ),
        metric(
            "concurrent p95 (ms)",
            &|t| field(section(t, "concurrent")?, "p95_ms"),
            None,
            true,
        ),
        metric(
            "bytes per query",
            &|t| field(t, "bytes_per_query"),
            Some(bytes_tol),
            true,
        ),
        metric(
            "requests per query",
            &|t| field(t, "requests_per_query"),
            Some(bytes_tol),
            true,
        ),
        metric(
            "concurrent qps",
            &|t| field(section(t, "concurrent")?, "qps"),
            None,
            false,
        ),
    ]
    .into_iter()
    .filter_map(Result::transpose)
    .collect()
}

/// Render the Markdown delta table.
pub fn render_markdown(deltas: &[MetricDelta]) -> String {
    let mut s = String::from("## Bench diff vs committed baseline\n\n");
    s.push_str("| metric | baseline | current | delta | gate |\n");
    s.push_str("|---|---:|---:|---:|---|\n");
    for d in deltas {
        let gate = match d.tolerance {
            None => "—".to_string(),
            Some(tol) => {
                if d.regressed() {
                    format!("❌ >{:.0}%", tol * 100.0)
                } else if d.improved_beyond() {
                    format!("🔁 improved >{:.0}% — re-pin baseline", tol * 100.0)
                } else {
                    format!("✅ ≤{:.0}%", tol * 100.0)
                }
            }
        };
        s.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:+.1}% | {} |\n",
            d.name,
            d.baseline,
            d.current,
            d.delta * 100.0,
            gate
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "config": {"sessions": 2},
  "concurrent": {"queries": 10, "qps": 4.0, "p50_ms": 100.0, "p95_ms": 200.0, "mean_ms": 120.0},
  "bytes_per_query": 1000.0,
  "requests_per_query": 2.60
}"#;

    fn with(p50: f64, bytes: f64) -> String {
        BASE.replace("\"p50_ms\": 100.0", &format!("\"p50_ms\": {p50}"))
            .replace(
                "\"bytes_per_query\": 1000.0",
                &format!("\"bytes_per_query\": {bytes}"),
            )
    }

    #[test]
    fn equal_reports_pass() {
        let deltas = compare(BASE, BASE, 0.25, 0.25).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed()));
        assert_eq!(deltas.len(), 5);
    }

    #[test]
    fn latency_regression_trips_gate() {
        let current = with(130.0, 1000.0);
        let deltas = compare(BASE, &current, 0.25, 0.25).unwrap();
        let p50 = deltas.iter().find(|d| d.name.contains("p50")).unwrap();
        assert!(p50.regressed(), "{p50:?}");
    }

    /// A paper-scale report is gated on the concurrent phase's wall
    /// time; its p50 — some five-row query's — may swing freely.
    #[test]
    fn a_full_report_gates_wall_time_instead_of_p50() {
        let full = |wall: f64, p50: f64| {
            let phase = format!("{{\"queries\": 5, \"wall_secs\": {wall}, \"p50_ms\": {p50}}}");
            format!(
                "{{\"mode\": \"full\", \"concurrent\": {phase}, \"bytes_per_query\": 9.0, \
                 \"requests_per_query\": 2.6}}"
            )
        };
        let gated = |current: &str| {
            let deltas = compare(&full(1.7, 3.0), current, 0.25, 0.25).unwrap();
            let failing = |d: &&MetricDelta| d.regressed() || d.improved_beyond();
            deltas
                .iter()
                .filter(failing)
                .map(|d| d.name)
                .collect::<Vec<_>>()
        };
        assert!(gated(&full(1.9, 9.0)).is_empty(), "p50 × 3 is no finding");
        assert_eq!(gated(&full(2.2, 3.0)), ["concurrent wall (s)"]);
        assert_eq!(
            gated(&full(1.1, 3.0)),
            ["concurrent wall (s)"],
            "the ratchet"
        );
        // A smoke report keeps its p50 gate and never gates wall time.
        let smoke = BASE.replace("\"qps\": 4.0", "\"wall_secs\": 1.0, \"qps\": 4.0");
        let slower = smoke.replace("\"wall_secs\": 1.0", "\"wall_secs\": 3.0");
        assert!(compare(&smoke, &slower, 0.25, 0.25)
            .unwrap()
            .iter()
            .all(|d| !d.regressed()));
    }

    #[test]
    fn small_latency_improvement_passes_quietly() {
        let current = with(90.0, 1000.0);
        let deltas = compare(BASE, &current, 0.25, 0.25).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed()));
        assert!(deltas.iter().all(|d| !d.improved_beyond()));
    }

    #[test]
    fn large_improvement_trips_the_ratchet() {
        // 100 ms → 60 ms is a 40% improvement: beyond the 25% gate, the
        // baseline is stale and must be re-pinned.
        let current = with(60.0, 1000.0);
        let deltas = compare(BASE, &current, 0.25, 0.25).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed()));
        let p50 = deltas
            .iter()
            .find(|d| d.name == "concurrent p50 (ms)")
            .unwrap();
        assert!(p50.improved_beyond(), "{p50:?}");
        let md = render_markdown(&deltas);
        assert!(md.contains("re-pin baseline"));
    }

    #[test]
    fn bytes_regression_trips_gate() {
        let current = with(100.0, 1400.0);
        let deltas = compare(BASE, &current, 0.25, 0.25).unwrap();
        let b = deltas.iter().find(|d| d.name == "bytes per query").unwrap();
        assert!(b.regressed());
    }

    #[test]
    fn markdown_renders_all_rows() {
        let md = render_markdown(&compare(BASE, BASE, 0.25, 0.25).unwrap());
        assert!(md.contains("| concurrent p50 (ms) |"));
        assert!(md.contains("| bytes per query |"));
        assert!(md.contains("✅"));
    }

    /// A baseline pinned while the harness still ran the sequential,
    /// session and TCP phases compares against a one-phase report on
    /// the kept rows: p50, bytes and requests gated, nothing read from
    /// a retired key — and the concurrent p50 is not taken from another
    /// section carrying `p50_ms`.
    #[test]
    fn a_baseline_with_retired_phases_compares_on_the_kept_rows() {
        let old = BASE.replace(
            "\"bytes_per_query\": 1000.0",
            "\"sequential\": {\"queries\": 10, \"qps\": 3.5, \"p50_ms\": 110.0},\n  \
             \"session\": {\"queries\": 10, \"qps\": 8.0, \"p50_ms\": 50.0},\n  \
             \"session_speedup_p50\": 2.0,\n  \"tcp\": {\"p50_ms\": 70.0},\n  \
             \"speedup_p50\": 1.1,\n  \"bytes_per_query\": 1000.0",
        );
        let deltas = compare(&old, BASE, 0.25, 0.25).unwrap();
        let names: Vec<_> = deltas.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            [
                "concurrent p50 (ms)",
                "concurrent p95 (ms)",
                "bytes per query",
                "requests per query",
                "concurrent qps"
            ]
        );
        let gated: Vec<_> = deltas
            .iter()
            .filter(|d| d.tolerance.is_some())
            .map(|d| d.name)
            .collect();
        assert_eq!(
            gated,
            [
                "concurrent p50 (ms)",
                "bytes per query",
                "requests per query"
            ]
        );
        assert_eq!(deltas[0].baseline, 100.0);
        assert!(deltas
            .iter()
            .all(|d| !d.regressed() && !d.improved_beyond()));
    }

    /// A gated metric missing from either report fails the comparison
    /// and is named; an informational one may be absent.
    #[test]
    fn a_missing_gated_metric_is_an_error_not_a_pass() {
        let without = |text: &str, key: &str| {
            let at = text.find(&format!("\"{key}\":")).expect("key present");
            let end = at + text[at..].find([',', '}', '\n']).expect("value ends");
            format!("{}\"retired\": 0{}", &text[..at], &text[end..])
        };
        let no_requests = without(BASE, "requests_per_query");
        assert_eq!(
            compare(BASE, &no_requests, 0.25, 0.25).unwrap_err(),
            "gated metric `requests per query` missing from the current report"
        );
        assert_eq!(
            compare(&no_requests, BASE, 0.25, 0.25).unwrap_err(),
            "gated metric `requests per query` missing from the baseline report"
        );
        let no_p50 = without(BASE, "p50_ms");
        let err = compare(BASE, &no_p50, 0.25, 0.25).unwrap_err();
        assert!(err.contains("`concurrent p50 (ms)`"), "{err}");
        // A full report gates wall time, so lacking it is an error…
        let full = BASE.replace("\"config\"", "\"mode\": \"full\", \"config\"");
        let full = full.replace("\"qps\": 4.0", "\"wall_secs\": 1.0, \"qps\": 4.0");
        let err = compare(&full, BASE, 0.25, 0.25).unwrap_err();
        assert!(err.contains("`concurrent wall (s)`"), "{err}");
        // …and lacking its informational p50 is not.
        assert_eq!(
            compare(&full, &without(&full, "p50_ms"), 0.25, 0.25)
                .unwrap()
                .len(),
            5
        );
        // Informational rows: p95 and qps.
        let thin = without(&without(BASE, "p95_ms"), "qps");
        assert_eq!(compare(BASE, &thin, 0.25, 0.25).unwrap().len(), 3);
    }

    /// The re-pin hint names the baseline it was given and the run for
    /// that baseline's kind.
    #[test]
    fn the_repin_command_follows_the_baseline() {
        let smoke = repin_command(BASE, "BENCH_baseline.json");
        assert!(
            smoke.ends_with("-- --smoke --out BENCH_baseline.json"),
            "{smoke}"
        );
        let full = BASE.replace("\"config\"", "\"mode\": \"full\", \"config\"");
        let full = repin_command(&full, "BENCH_sf1_baseline.json");
        assert!(
            full.ends_with("-- --sf 1 --sessions 1 --queries 1,6 --out BENCH_sf1_baseline.json"),
            "{full}"
        );
    }
}
