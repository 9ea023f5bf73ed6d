//! The closed-loop driver: one client thread, one query in flight,
//! three modes rotating, every result checked against the plaintext
//! reference outside the timed region.

use crate::reference::Speedometer;
use crate::trace::Tracer;
use crate::workloads::{Query, Workload};
use mpq_dist::{Report, Session, SessionConfig, SimError, TransportKind};
use mpq_exec::Table;
use std::time::{Duration, Instant};

/// The three ways a planned query is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Session::execute`, in-process transport.
    Conc,
    /// `Session::execute_sequential` on the same session.
    Seq,
    /// `Session::execute` on a second session over loopback TCP — the
    /// only mode in which `codec.rs` and sockets run.
    Tcp,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Conc, Mode::Seq, Mode::Tcp];

    /// Span name of one execution in this mode.
    pub fn span(self) -> &'static str {
        match self {
            Mode::Conc => "session.conc",
            Mode::Seq => "session.seq",
            Mode::Tcp => "session.tcp",
        }
    }
}

/// The two sessions every workload runs on.
pub struct Sessions {
    pub inproc: Session,
    pub tcp: Session,
    /// Wall time of each `Session::open_with`.
    pub open_ms: f64,
    pub open_tcp_ms: f64,
}

impl Sessions {
    /// Open both sessions with default `SessionConfig::new(seed)`
    /// (global worker pool = `nproc`; no extra client threads).
    pub fn open(wl: &Workload, seed: u64) -> Sessions {
        let open = |config: SessionConfig| {
            let t0 = Instant::now();
            let s = Session::open_with(&wl.catalog, &wl.subjects, &wl.policy, &wl.db, config);
            (s, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (inproc, open_ms) = open(SessionConfig::new(seed));
        let (tcp, open_tcp_ms) = open(SessionConfig::new(seed).transport(TransportKind::Tcp));
        Sessions {
            inproc,
            tcp,
            open_ms,
            open_tcp_ms,
        }
    }

    /// Σ retries over every edge of both sessions (must stay 0: no
    /// fault plan is installed).
    pub fn retries(&self) -> u64 {
        [&self.inproc, &self.tcp]
            .iter()
            .flat_map(|s| s.recovery_stats().into_values())
            .map(|e| e.retries)
            .sum()
    }
}

/// One slot of a pass: which query, and whether it runs right after a
/// provisioning reset (`fig7_churn`'s cold half).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub query: usize,
    pub cold: bool,
}

/// The slots of one pass: the query list once, or — for `fig7_churn` —
/// once cold and once more warm.
pub fn slots(wl: &Workload) -> Vec<Slot> {
    let list = |cold| (0..wl.queries.len()).map(move |query| Slot { query, cold });
    if wl.churn {
        list(true).chain(list(false)).collect()
    } else {
        list(false).collect()
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Σ timed regions (plan + execute) of the pass, as measured.
    pub wall_ms: f64,
    /// The same at reference speed: Σ `slot_ms / slot_slowdown`.
    pub ref_ms: f64,
    /// Timed region of each slot, as measured.
    pub slot_ms: Vec<f64>,
    /// Slowdown around each slot: the mean of the meter's readings
    /// before and after it (1 with [`Speedometer::off`]).
    pub slot_slowdown: Vec<f64>,
    /// `Report::total_bytes()` of each slot.
    pub slot_bytes: Vec<usize>,
    /// Σ data-flow bytes (`Report::data_bytes()`) of each slot.
    pub slot_data_bytes: Vec<usize>,
    /// Σ request-envelope bytes and request count of the pass.
    pub request_bytes: usize,
    pub requests: usize,
    /// Key clusters (`KeyPlan::keys.len()`) of each slot.
    pub slot_clusters: Vec<usize>,
    /// Runtime errors and results that differ from the reference.
    pub failures: Vec<String>,
}

/// Run one pass in `mode`. Per slot the timed region is planning
/// (`QueryPlan` → `ExtendedPlan` + `KeyPlan`) plus execution; the
/// cell-by-cell check is outside it.
pub fn run_pass(
    wl: &Workload,
    s: &mut Sessions,
    mode: Mode,
    tr: &mut Tracer,
    meter: &mut Speedometer,
) -> PassOut {
    let session = match mode {
        Mode::Tcp => &mut s.tcp,
        Mode::Conc | Mode::Seq => &mut s.inproc,
    };
    if wl.churn {
        session.reset_provisioning();
    }
    let mut out = PassOut::default();
    for (ix, slot) in slots(wl).into_iter().enumerate() {
        let q = &wl.queries[slot.query];
        tr.slot = ix;
        let before = meter.read();
        let t0 = Instant::now();
        let (clusters, result): (usize, Result<Report, SimError>) = tr.span("query", |tr| {
            tr.tag("mode", mode.span());
            tr.tag("cold", slot.cold);
            let p = tr.span("plan", |tr| wl.plan(q, tr));
            let r = tr.span(mode.span(), |_| match mode {
                Mode::Seq => session.execute_sequential(&p.ext, &p.keys, wl.user),
                Mode::Conc | Mode::Tcp => session.execute(&p.ext, &p.keys, wl.user),
            });
            (p.keys.keys.len(), r)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let slowdown = (before + meter.read()) / 2.0;
        out.wall_ms += ms;
        out.ref_ms += ms / slowdown;
        out.slot_ms.push(ms);
        out.slot_slowdown.push(slowdown);
        out.slot_clusters.push(clusters);
        match result {
            Ok(r) => {
                out.slot_bytes.push(r.total_bytes());
                out.slot_data_bytes.push(r.data_bytes().values().sum());
                out.request_bytes += r.request_bytes.values().sum::<usize>();
                out.requests += r.requests;
                if let Err(why) = check(q, &r.result) {
                    out.failures.push(format!("{mode:?} {why}"));
                }
            }
            Err(e) => {
                out.slot_bytes.push(0);
                out.slot_data_bytes.push(0);
                out.failures.push(format!("{mode:?} {}: {e}", q.name));
            }
        }
    }
    out
}

/// Compare a result with the query's plaintext reference: shape first
/// (a dropped or extra column must not slip through a zip), then cell
/// by cell with 1e-6 relative tolerance on numerics.
pub fn check(q: &Query, result: &Table) -> Result<(), String> {
    let reference = &q.reference;
    if reference.attrs().len() != result.attrs().len() || reference.len() != result.len() {
        return Err(format!(
            "{}: shape {}x{} vs reference {}x{}",
            q.name,
            result.len(),
            result.attrs().len(),
            reference.len(),
            reference.attrs().len()
        ));
    }
    for col in 0..reference.attrs().len() {
        for (row, (x, y)) in reference
            .column(col)
            .iter()
            .zip(result.column(col).iter())
            .enumerate()
        {
            let same = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() <= 1e-6 * p.abs().max(1.0),
                _ => x.sql_eq(&y) || (x.is_null() && y.is_null()),
            };
            if !same {
                return Err(format!(
                    "{}: row {row} col {col}: {y:?} vs reference {x:?}",
                    q.name
                ));
            }
        }
    }
    Ok(())
}

/// Everything the untraced window measured.
#[derive(Default)]
pub struct Window {
    /// The discarded warm-up passes (their failures still count).
    pub warmup: Vec<PassOut>,
    /// Measured passes per mode, indexed like [`Mode::ALL`].
    pub passes: [Vec<PassOut>; 3],
    /// Process CPU seconds spent in `conc` slices, at reference speed.
    pub conc_cpu_s: f64,
}

impl Window {
    pub fn of(&self, mode: Mode) -> &[PassOut] {
        &self.passes[mode as usize]
    }

    /// Pass times at reference speed.
    pub fn pass_ms(&self, mode: Mode) -> Vec<f64> {
        self.of(mode).iter().map(|p| p.ref_ms).collect()
    }

    /// Pass times as measured.
    pub fn raw_pass_ms(&self, mode: Mode) -> Vec<f64> {
        self.of(mode).iter().map(|p| p.wall_ms).collect()
    }

    /// Median slowdown over every measured slot.
    pub fn slowdown(&self) -> f64 {
        let all = self.passes.iter().flatten();
        median(
            &all.flat_map(|p| p.slot_slowdown.clone())
                .collect::<Vec<_>>(),
        )
    }

    /// `(attempted, failures)` over all modes, warm-up included.
    pub fn failures(&self) -> (usize, Vec<&String>) {
        let all = || self.passes.iter().flatten().chain(&self.warmup);
        (
            all().map(|p| p.slot_ms.len()).sum(),
            all().flat_map(|p| &p.failures).collect(),
        )
    }
}

/// Rotation unit: a mode keeps the client for at least one pass and at
/// least this long, so that the 10 ms ticks of `/proc/self/stat` are
/// read around intervals much longer than a tick (ms-scale
/// `fig7_churn` passes would otherwise be lost in tick rounding).
const MIN_SLICE: Duration = Duration::from_millis(200);

/// One discarded warm-up pass per mode, then `seconds` of measured
/// slices. Modes rotate slice by slice and the starting mode rotates
/// round by round; the window ends on a round boundary so every mode
/// gets the same number of slices. A [`Speedometer`] scales every slot
/// to reference speed; a `conc` slice's CPU time is scaled like its
/// passes.
pub fn run_window(wl: &Workload, s: &mut Sessions, seconds: f64, clk_tck: f64) -> Window {
    let mut tr = Tracer::off();
    let mut window = Window::default();
    for mode in Mode::ALL {
        let warm = run_pass(wl, s, mode, &mut tr, &mut Speedometer::off());
        window.warmup.push(warm);
    }
    let start = Instant::now();
    let mut round = 0;
    let mut meter = Speedometer::on();
    while start.elapsed().as_secs_f64() < seconds {
        for k in 0..3 {
            let mode = Mode::ALL[(round + k) % 3];
            let passes = &mut window.passes[mode as usize];
            let first = passes.len();
            let cpu0 = cpu_seconds(clk_tck);
            let slice = Instant::now();
            while passes.len() == first || slice.elapsed() < MIN_SLICE {
                passes.push(run_pass(wl, s, mode, &mut tr, &mut meter));
            }
            if mode == Mode::Conc {
                let cpu_s = cpu_seconds(clk_tck) - cpu0;
                let sum = |f: fn(&PassOut) -> f64| passes[first..].iter().map(f).sum::<f64>();
                window.conc_cpu_s += cpu_s * sum(|p| p.ref_ms) / sum(|p| p.wall_ms);
            }
        }
        round += 1;
    }
    window
}

/// Process CPU seconds so far (user + system, all threads).
pub fn cpu_seconds(clk_tck: f64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / clk_tck
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line.split_whitespace().skip(1);
    let value = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

/// Percentile `p` in [0, 1] by linear interpolation between the two
/// nearest ranks (`median` = 0.5). Empty input gives NaN, which the
/// JSON writer prints as `null`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn proc_stat_with_hostile_command_name() {
        let stat = "4242 (mpq) bench (x) R 1 4242 4242 0 -1 4194304 \
                    900 0 0 0 123 45 6 7 20 0 9 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(168));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn proc_status_vm_hwm() {
        let status = "Name:\tmpq\nVmPeak:\t  500 kB\nVmHWM:\t  391340 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(391_340));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(cpu_seconds(100.0) >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
