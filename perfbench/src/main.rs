//! `perfbench`: end-to-end and per-layer benchmark of the ensemble
//! workspace.
//!
//! ```text
//! perfbench --workload <kv_local|kv_tcp|kv_durable|group_stream>
//!           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! With `--trace 0` one untraced pass prints the end-to-end metrics.
//! With `--trace 1` an untraced and a traced pass of half the length
//! each run back to back; the traced pass wraps the program's public
//! `Transport` and `StorageMedium` seams, times calls into public
//! functions and reads per-thread CPU, and prints the per-layer metrics
//! plus the tracing overhead. Every run checks the program's replies
//! and exits nonzero when they are wrong. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod group;
mod kv;
mod layers;
mod probe;
mod rungs;
mod stats;

use layers::{Layers, PER_LAYER};
use stats::{median, peak_rss_mib, process_cpu_s, thread_cpu, Samples};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the system is set up per run. `setup_s` is the median of the
/// set-up times, and each set-up is measured for an equal slice of the
/// run, so every figure covers independent set-ups rather than one.
const INCARNATIONS: usize = 5;
/// Warm-up before each timed slice: connection set-up, first
/// checkpoints and allocator growth settle within it.
const WARM_UP: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    KvLocal,
    KvTcp,
    KvDurable,
    GroupStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "kv_local" => Workload::KvLocal,
            "kv_tcp" => Workload::KvTcp,
            "kv_durable" => Workload::KvDurable,
            "group_stream" => Workload::GroupStream,
            _ => return None,
        })
    }

    fn kv(self) -> Option<kv::Flavor> {
        match self {
            Workload::KvLocal => Some(kv::Flavor::Local),
            Workload::KvTcp => Some(kv::Flavor::Tcp),
            Workload::KvDurable => Some(kv::Flavor::Durable),
            Workload::GroupStream => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?),
            "--seconds" => {
                seconds = Some(v.parse::<f64>().map_err(|_| format!("bad seconds {v}"))?)
            }
            "--trace" => trace = Some(v == "1"),
            "--scratch" => scratch = Some(PathBuf::from(v)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        scratch: scratch.unwrap_or_else(|| PathBuf::from(".perfbench_tmp")),
    })
}

/// Sleep this far short of a due time, then spin to it: a plain sleep
/// overshoots by ≈ 55 µs (p99 ≈ 63 µs), which an open-loop generator
/// would count as system latency, and yielding instead of spinning can
/// cost a whole time slice on a busy core.
pub const SPIN_SLACK: Duration = Duration::from_micros(65);

/// Sleeps, then spins, until `at`.
pub fn pace_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        if at - now > SPIN_SLACK {
            std::thread::sleep(at - now - SPIN_SLACK);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Length of one measurement window. The timed phase is cut into
/// windows; throughput and CPU per op are the median over them, so a
/// burst of interference from outside the process moves one window,
/// not the result.
const WINDOW_S: f64 = 1.0;

/// The instants that split a pass: warm-up, then the timed phase made
/// of equal windows.
pub struct Phases {
    pub started: Instant,
    pub warm_end: Instant,
    pub end: Instant,
    pub windows: usize,
}

impl Phases {
    pub fn start(warm: Duration, timed: Duration) -> Phases {
        let started = Instant::now();
        Phases {
            started,
            warm_end: started + warm,
            end: started + warm + timed,
            windows: ((timed.as_secs_f64() / WINDOW_S).round() as usize).max(1),
        }
    }

    /// Start of window `i` (`i == windows`: the end of the phase).
    fn edge(&self, i: usize) -> Instant {
        self.warm_end + (self.end - self.warm_end).mul_f64(i as f64 / self.windows as f64)
    }

    /// The window `t` falls in, if it is inside the timed phase.
    pub fn window(&self, t: Instant) -> Option<usize> {
        if t < self.warm_end || t >= self.end {
            return None;
        }
        let at = (t - self.warm_end).as_secs_f64() / (self.end - self.warm_end).as_secs_f64();
        Some(((at * self.windows as f64) as usize).min(self.windows - 1))
    }
}

/// Clock readings at the window edges of the timed phase, taken by a
/// generator thread as it crosses each edge.
pub struct Boundary {
    traced: bool,
    at: Vec<Instant>,
    cpu: Vec<f64>,
    threads: Vec<BTreeMap<u64, (&'static str, f64)>>,
}

impl Boundary {
    pub fn new(traced: bool) -> Boundary {
        Boundary {
            traced,
            at: Vec::new(),
            cpu: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Reads the clocks once when `now` first passes each edge.
    pub fn observe(&mut self, now: Instant, phases: &Phases) {
        while self.at.len() <= phases.windows && now >= phases.edge(self.at.len()) {
            let first_or_last = self.at.is_empty() || self.at.len() == phases.windows;
            self.at.push(now);
            self.cpu.push(process_cpu_s());
            if self.traced && first_or_last {
                self.threads.push(thread_cpu());
            }
        }
    }
}

/// What one window of the timed phase measured.
#[derive(Default)]
pub struct Window {
    completed: u64,
    len_s: f64,
    cpu_s: f64,
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Ops issued in the timed phase.
    pub attempted: u64,
    /// Of those, ops that failed (error reply, timeout, not delivered).
    pub failed: u64,
    /// Ops completed inside the timed phase.
    pub completed: u64,
    /// Ops completed over the whole pass (warm-up and drain included):
    /// the denominator of per-op counter ratios.
    pub ops_all: u64,
    pub timed_s: f64,
    /// Length of the whole pass.
    pub wall_s: f64,
    /// Latency of each op issued in the timed phase.
    pub lat_us: Samples,
    /// Process CPU seconds in the timed phase.
    pub cpu_s: f64,
    windows: Vec<Window>,
    /// Output-check failures.
    pub violations: Vec<String>,
    /// Reasons the measurement does not stand for the workload.
    pub invalid: Vec<String>,
    /// Per-layer metrics (traced pass only).
    pub layers: Layers,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Pass {
    pub fn new(phases: &Phases) -> Pass {
        Pass {
            windows: (0..phases.windows).map(|_| Window::default()).collect(),
            timed_s: (phases.end - phases.warm_end).as_secs_f64(),
            ..Pass::default()
        }
    }

    /// An op issued at `start` failed or succeeded.
    pub fn issued(&mut self, start: Instant, ok: bool, phases: &Phases) {
        if phases.window(start).is_some() {
            self.attempted += 1;
            self.failed += !ok as u64;
        }
    }

    /// An op completed at `now`.
    pub fn completed_at(&mut self, now: Instant, phases: &Phases) {
        self.ops_all += 1;
        if let Some(w) = phases.window(now) {
            self.completed += 1;
            self.windows[w].completed += 1;
        }
    }

    /// The latency of an op issued at `start`.
    pub fn latency(&mut self, start: Instant, us: f64, phases: &Phases) {
        if phases.window(start).is_some() {
            self.lat_us.push(us);
        }
    }

    /// Appends a later slice of the same run.
    pub fn append(&mut self, mut o: Pass) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.ops_all += o.ops_all;
        self.timed_s += o.timed_s;
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
        self.lat_us.extend(o.lat_us);
        self.windows.append(&mut o.windows);
        self.violations.append(&mut o.violations);
        self.invalid.append(&mut o.invalid);
        self.notes.append(&mut o.notes);
    }

    /// Merges what another thread measured in the same pass.
    pub fn absorb(&mut self, o: Pass) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.ops_all += o.ops_all;
        self.lat_us.extend(o.lat_us);
        for (w, ow) in self.windows.iter_mut().zip(o.windows) {
            w.completed += ow.completed;
        }
    }

    /// Attaches the clock readings: window lengths, CPU, and in a
    /// traced pass the per-thread-group CPU.
    pub fn close(&mut self, b: &Boundary, phases: &Phases) {
        self.wall_s = phases.started.elapsed().as_secs_f64();
        if b.at.len() == phases.windows + 1 {
            for (i, w) in self.windows.iter_mut().enumerate() {
                w.len_s = (b.at[i + 1] - b.at[i]).as_secs_f64();
                w.cpu_s = b.cpu[i + 1] - b.cpu[i];
            }
            self.timed_s = (b.at[phases.windows] - b.at[0]).as_secs_f64();
            self.cpu_s = b.cpu[phases.windows] - b.cpu[0];
        }
        if let [first, last] = &b.threads[..] {
            layers::report_cpu(
                &stats::group_cpu_delta(first, last),
                self.completed as f64,
                &mut self.layers,
            );
        }
    }

    /// Throughput and CPU per op, each the median over the windows of
    /// the timed phase, and the exact latency p50 and p90 over every op.
    fn figures(&self) -> [f64; 4] {
        [
            median(
                self.windows
                    .iter()
                    .map(|w| w.completed as f64 / w.len_s)
                    .collect(),
            ),
            self.lat_us.pct(50.0),
            self.lat_us.pct(90.0),
            median(
                self.windows
                    .iter()
                    .map(|w| 1e6 * w.cpu_s / w.completed.max(1) as f64)
                    .collect(),
            ),
        ]
    }

    /// The per-window values behind [`Pass::figures`].
    fn window_lines(&self) -> [String; 2] {
        let fmt = |vals: Vec<f64>| {
            vals.iter()
                .map(|v| format!("{v:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let ws = &self.windows;
        [
            format!(
                "windows ops/s: {}",
                fmt(ws.iter().map(|w| w.completed as f64 / w.len_s).collect())
            ),
            format!(
                "windows cpu us/op: {}",
                fmt(ws
                    .iter()
                    .map(|w| 1e6 * w.cpu_s / w.completed.max(1) as f64)
                    .collect())
            ),
        ]
    }

    fn throughput(&self) -> f64 {
        self.completed as f64 / self.timed_s
    }
}

/// A workload's running system.
pub trait System {
    /// Generates the workload's inputs, then warms up for `warm` and
    /// measures for `timed`.
    fn run(&mut self, warm: Duration, timed: Duration) -> Pass;
    fn shutdown(self: Box<Self>);
}

/// The run's scratch directory (WAL files); removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds set-up number `rep` of `INCARNATIONS`.
fn build(args: &Args, scratch: &Scratch, rep: usize, traced: bool) -> Box<dyn System> {
    match args.workload.kv() {
        Some(flavor) => {
            let dir = kv::incarnation_dir(&scratch.0, &format!("{traced}-{rep}"));
            let phase = (rep as f64 + 0.5) / INCARNATIONS as f64;
            Box::new(kv::KvSystem::form(flavor, args.seed, &dir, traced, phase))
        }
        None => Box::new(group::GroupSystem::join(args.seed, traced)),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch(args.scratch.join(format!(
        "{:?}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    let outcome = if args.trace {
        traced_run(&args, &scratch)
    } else {
        scored_run(&args, &scratch)
    };
    drop(scratch);
    // Gone only when no other run is using it.
    let _ = std::fs::remove_dir(&args.scratch);
    let Outcome {
        pass,
        metrics,
        invalid,
    } = outcome;
    for v in &pass.violations {
        println!("VIOLATION: {v}");
    }
    for reason in &invalid {
        println!("INVALID RUN: {reason}");
    }
    if !invalid.is_empty() {
        std::process::exit(3);
    }
    let correct = pass.violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.attempted.max(1),
        pass.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

struct Outcome {
    pass: Pass,
    metrics: Vec<(&'static str, &'static str, f64)>,
    invalid: Vec<String>,
}

fn print_pass(label: &str, pass: &Pass) {
    let n = pass.lat_us.len();
    println!(
        "{label}: {} ops in {:.2} s = {:.1} ops/s; latency p50 {:.1} us, p90 {:.1} us, p99 {:.1} us \
         ({n} samples); error rate {:.6} ({} of {} attempted); cpu {:.2} s",
        pass.completed,
        pass.timed_s,
        pass.throughput(),
        pass.lat_us.pct(50.0),
        pass.lat_us.pct(90.0),
        pass.lat_us.pct(99.0),
        pass.failed as f64 / pass.attempted.max(1) as f64,
        pass.failed,
        pass.attempted,
        pass.cpu_s,
    );
    for note in &pass.notes {
        println!("{label}: {note}");
    }
}

/// Sets the system up `INCARNATIONS` times and measures each set-up
/// for an equal slice of the run.
fn scored_run(args: &Args, scratch: &Scratch) -> Outcome {
    let slice = Duration::from_secs_f64(args.seconds / INCARNATIONS as f64);
    let mut setups = Vec::new();
    let mut pass = Pass::default();
    for rep in 0..INCARNATIONS {
        let t0 = Instant::now();
        let mut sys = build(args, scratch, rep, false);
        setups.push(t0.elapsed().as_secs_f64());
        pass.append(sys.run(WARM_UP, slice));
        sys.shutdown();
    }
    let setup_s = median(setups.clone());
    print_pass("measured", &pass);
    for line in pass.window_lines() {
        println!("measured: {line}");
    }
    let n = pass.lat_us.len();
    // The printed p99 needs at least ten samples beyond it.
    if n < 1000 {
        pass.invalid
            .push(format!("only {n} latency samples; a p99 needs 1000"));
    }
    let [tput, p50, p90, cpu] = pass.figures();
    let metrics = vec![
        ("setup_s", "s", setup_s),
        ("throughput_ops_s", "ops/s", tput),
        ("lat_p50_us", "us", p50),
        ("lat_p90_us", "us", p90),
        ("cpu_us_per_op", "us", cpu),
        ("peak_rss_mb", "MiB", peak_rss_mib()),
    ];
    println!("setup: {INCARNATIONS} set-ups took {setups:.4?} s, median {setup_s:.4} s");
    let w = pass.windows.len();
    for (name, unit, v) in &metrics {
        let over = match *name {
            "setup_s" | "peak_rss_mb" => String::new(),
            l if l.starts_with("lat_") => format!(" ({n} samples)"),
            _ => format!(" (median of {w} windows)"),
        };
        println!("metric {name} = {v:.4} {unit}{over}");
    }
    let invalid = std::mem::take(&mut pass.invalid);
    Outcome {
        pass,
        metrics,
        invalid,
    }
}

/// An untraced and a traced pass, plus the standalone rungs.
fn traced_run(args: &Args, scratch: &Scratch) -> Outcome {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut sys = build(args, scratch, 0, false);
    let mut plain = sys.run(WARM_UP, half);
    sys.shutdown();
    print_pass("untraced", &plain);

    let mut sys = build(args, scratch, 0, true);
    let mut traced = sys.run(WARM_UP, half);
    sys.shutdown();
    print_pass("traced", &traced);

    let mut l = std::mem::take(&mut traced.layers);
    match args.workload.kv() {
        Some(flavor) => {
            l.insert("kv.store.apply_ns", kv::store_rung(flavor, args.seed));
            if flavor != kv::Flavor::Tcp {
                let cd = kv::cluster_rung(flavor, args.seed, Duration::from_secs(1));
                l.insert("cluster.cast_deliver_us_p50", cd);
                if let Some(submit) = l.get("kv.replica.submit_us_p50").copied() {
                    l.insert("kv.replica.self_us_p50", submit - cd);
                }
            }
            if let (Some(call), Some(submit)) = (
                l.get("kv.client.call_us_p50").copied(),
                l.get("kv.replica.submit_us_p50").copied(),
            ) {
                l.insert("kv.server.self_us_p50", call - submit);
            }
            let (m, u) = rungs::transport(kv::cast_payload_len(flavor, args.seed));
            l.insert("transport.marshal_ns", m);
            l.insert("transport.unmarshal_ns", u);
        }
        None => {
            rungs::stack(&mut l);
            let (m, u) = rungs::transport(group::PAYLOAD_LEN);
            l.insert("transport.marshal_ns", m);
            l.insert("transport.unmarshal_ns", u);
        }
    }
    let pct = |traced: f64, plain: f64| 100.0 * (traced - plain) / plain.max(f64::MIN_POSITIVE);
    let ([t_tput, t_p50, ..], [p_tput, p_p50, ..]) = (traced.figures(), plain.figures());
    l.insert("trace.overhead_lat_p50_pct", pct(t_p50, p_p50));
    l.insert("trace.overhead_throughput_pct", pct(t_tput, p_tput));
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, l.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, v) in &metrics {
        let seen = if l.contains_key(name) {
            ""
        } else {
            "  (not exercised)"
        };
        println!("layer {name} = {v:.4} {unit}{seen}");
    }
    // Both passes are checked; the reported counts are the traced pass's.
    let mut invalid = std::mem::take(&mut plain.invalid);
    invalid.append(&mut traced.invalid);
    traced.violations.append(&mut plain.violations);
    Outcome {
        pass: traced,
        metrics,
        invalid,
    }
}
