//! `mpq-benchmark`: the benchmark `BENCHMARK.json` declares. See
//! `benchmark/README.md` for the workloads, the metrics and how they
//! interact; `benchmark/run.sh` builds and runs this binary.

mod json;
mod layers;
mod measure;
mod reference;
mod trace;
mod walk;
mod workloads;

use json::Json;
use measure::{median, Mode, Sessions, Window};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_ms_p50", "ms"),
    ("seq_pass_ms_p50", "ms"),
    ("tcp_pass_ms_p50", "ms"),
    ("qps", "1/s"),
    ("cpu_s_per_pass", "s"),
    ("wire_bytes_per_pass", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 65] = [
    ("algebra.build_us", "us"),
    ("core.candidates_us", "us"),
    ("core.extend_us", "us"),
    ("core.profile_us", "us"),
    ("core.verify_us", "us"),
    ("core.plan_keys_us", "us"),
    ("core.dispatch_us", "us"),
    ("core.plan_nodes", "count"),
    ("core.crypto_nodes", "count"),
    ("core.key_clusters", "count"),
    ("planner.optimize_us", "us"),
    ("planner.stats_ms", "ms"),
    ("planner.model_cost", "USD"),
    ("tpch.generate_ms", "ms"),
    ("tpch.rows", "count"),
    ("crypto.encrypt_ms", "ms"),
    ("crypto.decrypt_ms", "ms"),
    ("crypto.cells_det", "count"),
    ("crypto.cells_ope", "count"),
    ("crypto.cells_rnd", "count"),
    ("crypto.cells_paillier", "count"),
    ("crypto.cells_decrypted", "count"),
    ("crypto.det_enc_ns", "ns"),
    ("crypto.det_dec_ns", "ns"),
    ("crypto.ope_enc_ns", "ns"),
    ("crypto.ope_dec_ns", "ns"),
    ("crypto.rnd_enc_ns", "ns"),
    ("crypto.rnd_dec_ns", "ns"),
    ("crypto.paillier_enc_us", "us"),
    ("crypto.paillier_dec_us", "us"),
    ("crypto.paillier_add_us", "us"),
    ("crypto.rsa_seal_us", "us"),
    ("crypto.rsa_open_us", "us"),
    ("crypto.cluster_keygen_ms", "ms"),
    ("exec.engine_ms", "ms"),
    ("exec.scan_select_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.groupby_sort_ms", "ms"),
    ("exec.rows_scanned", "count"),
    ("exec.max_table_bytes", "bytes"),
    ("exec.plain_pass_ms", "ms"),
    ("exec.walk_ms", "ms"),
    ("dist.open_ms", "ms"),
    ("dist.open_tcp_ms", "ms"),
    ("dist.audit_ms", "ms"),
    ("dist.audit_cells", "count"),
    ("dist.edges", "count"),
    ("dist.edge_bytes", "bytes"),
    ("dist.request_bytes", "bytes"),
    ("dist.requests", "count"),
    ("dist.protocol_ms", "ms"),
    ("dist.sched_ms", "ms"),
    ("dist.wire_tax_ms", "ms"),
    ("dist.cold_query_ms", "ms"),
    ("dist.warm_query_ms", "ms"),
    ("dist.clusters_provisioned", "count"),
    ("dist.clusters_reused", "count"),
    ("dist.publics_delivered", "count"),
    ("dist.retries", "count"),
    ("client.passes_conc", "count"),
    ("client.passes_seq", "count"),
    ("client.passes_tcp", "count"),
    ("client.pass_ms_p90", "ms"),
    ("client.trace_overhead_frac", "fraction"),
    ("client.slowdown", "x"),
];

/// Threads of the process-global `WorkerPool` every session, plaintext
/// run and audit draws from. One, not `nproc`: the 2-vCPU sandbox
/// loses its second vCPU for seconds at a time (two busy threads then
/// run at half speed each), which doubles the wall and CPU time of
/// every parallel region and no statistic over a 24 s window removes.
/// The party threads of `Session::execute` still run concurrently.
const WORKERS: usize = 1;

/// Where the traced run writes its spans (relative to the checkout).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--selfcheck] [--out PATH]";

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 2026,
        seconds: 0.0,
        trace: false,
        smoke: false,
        selfcheck: false,
        out: None,
    };
    let mut seconds = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` (the contract) or a bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = Some(value("a path")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 2.0 } else { 24.0 });
    Ok(args)
}

/// Set-ups per run; `setup_s` is their median, each at reference speed.
const SETUPS: usize = 5;

/// Set up `SETUPS` times (data, statistics, query plans, plaintext
/// references, both sessions) and keep the last. Each repetition opens
/// its sessions with the next seed, so that the RSA prime search —
/// whose length depends on the seed — is sampled rather than repeated.
fn set_up(args: &Args) -> Result<(Workload, Sessions, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    let mut edge = reference::slowdown();
    for i in 0..SETUPS {
        // Drop the previous set-up first: two live copies would double
        // the peak resident set.
        drop(last.take());
        let t0 = Instant::now();
        let wl = Workload::build(&args.workload, args.seed, args.smoke)?;
        let sessions = Sessions::open(&wl, args.seed.wrapping_add(i as u64));
        let raw = t0.elapsed().as_secs_f64();
        let next = reference::slowdown();
        secs.push(raw * 2.0 / (edge + next));
        edge = next;
        last = Some((wl, sessions));
    }
    let (wl, sessions) = last.expect("SETUPS > 0");
    Ok((wl, sessions, median(&secs)))
}

fn end_to_end(window: &Window, setup_s: f64) -> layers::Values {
    let conc = window.of(Mode::Conc);
    let conc_wall_s: f64 = window.pass_ms(Mode::Conc).iter().sum::<f64>() / 1e3;
    let conc_queries: usize = conc.iter().map(|p| p.slot_ms.len()).sum();
    let pass_bytes: Vec<f64> = conc
        .iter()
        .map(|p| p.slot_bytes.iter().sum::<usize>() as f64)
        .collect();
    layers::Values::from([
        ("setup_s", setup_s),
        ("pass_ms_p50", median(&window.pass_ms(Mode::Conc))),
        ("seq_pass_ms_p50", median(&window.pass_ms(Mode::Seq))),
        ("tcp_pass_ms_p50", median(&window.pass_ms(Mode::Tcp))),
        ("qps", conc_queries as f64 / conc_wall_s),
        ("cpu_s_per_pass", window.conc_cpu_s / conc.len() as f64),
        ("wire_bytes_per_pass", median(&pass_bytes)),
        ("peak_rss_mb", measure::peak_rss_mib()),
    ])
}

/// The ungated per-query table: medians per slot and mode.
fn print_query_table(wl: &Workload, window: &Window) {
    println!(
        "# {:<12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "query", "conc ms", "seq ms", "tcp ms", "plain ms", "bytes", "clusters"
    );
    for (ix, slot) in measure::slots(wl).iter().enumerate() {
        let q = &wl.queries[slot.query];
        let col = |mode: Mode| {
            let passes = window.of(mode).iter();
            median(
                &passes
                    .map(|p| p.slot_ms[ix] / p.slot_slowdown[ix])
                    .collect::<Vec<_>>(),
            )
        };
        let first = window.of(Mode::Conc).first();
        println!(
            "# {:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12} {:>8}",
            format!("{}{}", q.name, if slot.cold { " (cold)" } else { "" }),
            col(Mode::Conc),
            col(Mode::Seq),
            col(Mode::Tcp),
            q.plain_ms,
            first.map_or(0, |p| p.slot_bytes[ix]),
            first.map_or(0, |p| p.slot_clusters[ix]),
        );
    }
}

/// Run one workload in this process and print its result line.
fn run_workload(args: &Args) -> Result<bool, String> {
    let clk_tck = std::env::var("MPQ_CLK_TCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100.0);
    let (wl, mut sessions, setup_s) = set_up(args)?;
    let window = measure::run_window(&wl, &mut sessions, args.seconds, clk_tck);
    let (mut attempted, failed) = window.failures();
    let mut failures: Vec<String> = failed.into_iter().cloned().collect();

    println!(
        "# workload {} seed {} window {} s, {WORKERS} worker thread(s) of {} available",
        wl.name,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "# times below are at reference speed (measured ÷ slowdown); median slowdown {:.4}",
        window.slowdown()
    );
    for mode in Mode::ALL {
        let ms = window.pass_ms(mode);
        let q = |p| measure::percentile(&ms, p);
        println!(
            "# {mode:?}: {} passes, pass ms min/p25/p50/p75/max {:.3}/{:.3}/{:.3}/{:.3}/{:.3}, \
             as measured p50 {:.3}",
            ms.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            median(&window.raw_pass_ms(mode)),
        );
    }
    print_query_table(&wl, &window);

    let (table, values): (&[(&str, &str)], _) = if args.trace {
        let mut tr = Tracer::on();
        let (values, traced) = layers::traced_run(
            &wl,
            &mut sessions,
            args.seed,
            &window,
            &mut tr,
            &mut failures,
        );
        attempted += traced;
        let path = format!("{OUT_DIR}/trace-{}.json", wl.name);
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tr.to_json().render()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# {} spans written to {path}", tr.spans.len());
        (&PER_LAYER, values)
    } else {
        (&END_TO_END, end_to_end(&window, setup_s))
    };
    assert_eq!(table.len(), values.len(), "a metric is unlisted or missing");
    let metrics: Vec<(&str, &str, f64)> = table
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();

    for f in &failures {
        println!("# FAILED {f}");
    }
    for (name, unit, value) in &metrics {
        println!("# {name:<28} {value:>16.4} {unit}");
    }
    let correct = failures.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len() as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, result.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(correct)
}

/// Run `workload` in a child process of its own (so `VmHWM` and the
/// global worker pool are per workload), echo its report and return
/// its result line.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--workload all`: every workload in its own child — untraced, and
/// with `--trace` once more traced. The last line (and `--out`) is one
/// JSON object holding every result.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let result = run_child(args, name, trace);
            correct &= result.is_ok();
            let key = format!("{name}{}", if trace { ".trace" } else { "" });
            results.push((key, result.unwrap_or_else(Json::Str)));
        }
    }
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Obj(results)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, summary.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", summary.render());
    Ok(correct)
}

/// `--selfcheck`: every workload twice with the same seed; print both
/// values of every end-to-end metric, their relative difference and the
/// bound `BENCHMARK.json` fixes; fail when a bound is exceeded.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| Json::parse(&text))?;
    let Some(Json::Arr(bounds)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for name in workloads::NAMES {
        let (a, b) = (run_child(args, name, false)?, run_child(args, name, false)?);
        for spec in bounds {
            let (Some(Json::Str(metric_name)), Some(bound)) =
                (spec.get("name"), spec.get("bound").and_then(Json::as_f64))
            else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let (Some(x), Some(y)) = (metric(&a, metric_name), metric(&b, metric_name)) else {
                return Err(format!("{name}: {metric_name} missing from a result"));
            };
            let diff = (y - x).abs() / x.abs();
            let within = diff <= bound;
            ok &= within;
            rows.push(format!(
                "{name:<16} {metric_name:<22} {x:>14.4} {y:>14.4} {diff:>8.4} {bound:>6} {}",
                if within { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "run 1", "run 2", "rel diff", "bound"
    );
    rows.iter().for_each(|r| println!("{r}"));
    Ok(ok)
}

fn main() -> ExitCode {
    assert!(
        mpq_exec::WorkerPool::init_global(WORKERS),
        "global pool already initialised"
    );
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.selfcheck {
            selfcheck(&args)
        } else if args.workload == "all" {
            run_all(&args)
        } else {
            run_workload(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mpq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_arguments_parse() {
        let a = args(&[
            "--workload",
            "fig7_churn",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig7_churn", 7, 15.0, true)
        );
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(args(&["--smoke"]).unwrap().seconds, 2.0);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` and this binary must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = spec.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|i| match i.get(field) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key}.{field}: {other:?}"),
                })
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .unzip()
        };
        assert_eq!(
            (listed("end_to_end", "name"), listed("end_to_end", "unit")),
            pairs(&END_TO_END)
        );
        assert_eq!(
            (listed("per_layer", "name"), listed("per_layer", "unit")),
            pairs(&PER_LAYER)
        );
        assert_eq!(listed("workloads", "name"), workloads::NAMES);
    }

    /// A tiny end-to-end run of every workload: results correct, every
    /// metric of both lists produced.
    #[test]
    fn smoke_every_workload() {
        for name in workloads::NAMES {
            let a = Args {
                workload: name.into(),
                seed: 11,
                seconds: 0.2,
                trace: false,
                smoke: true,
                selfcheck: false,
                out: None,
            };
            let (wl, mut s, setup_s) = set_up(&a).unwrap();
            let window = measure::run_window(&wl, &mut s, a.seconds, 100.0);
            let (attempted, failed) = window.failures();
            assert!(attempted > 0 && failed.is_empty(), "{name}: {failed:?}");
            let values = end_to_end(&window, setup_s);
            for (metric, _) in END_TO_END {
                // End-to-end metrics may never read 0.
                assert!(
                    values[metric].is_finite() && values[metric] > 0.0,
                    "{name}: {metric}"
                );
            }
            assert_eq!(values.len(), END_TO_END.len());
            let (mut tr, mut failures) = (Tracer::on(), Vec::new());
            let (values, _) =
                layers::traced_run(&wl, &mut s, a.seed, &window, &mut tr, &mut failures);
            assert!(failures.is_empty(), "{name}: {failures:?}");
            for (metric, _) in PER_LAYER {
                assert!(
                    values.get(metric).is_some_and(|v| v.is_finite()),
                    "{name}: {metric}"
                );
            }
            assert_eq!(
                values.len(),
                PER_LAYER.len(),
                "{name}: unlisted metric computed"
            );
        }
    }
}
