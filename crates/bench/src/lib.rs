//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (§4.2) is regenerated
//! by a binary in `src/bin/` (paper-style printed tables). This module
//! provides the common pieces: the benchmark layer configuration (windows
//! and thresholds pushed out so the CCPs hold throughout, exactly as in
//! the paper where "the outcome of the CCP checks is always the choice to
//! run the bypass code"), stack constructors for the four configurations,
//! wire-message generators, and a simple high-resolution measurement
//! loop ("we ran each test 10,000 times and calculated the average").

#![forbid(unsafe_code)]

use ensemble_event::{DnEvent, Msg, Payload, UpEvent, ViewState};
use ensemble_hand::HandBypass;
use ensemble_ir::models::ModelCtx;
use ensemble_layers::{make_stack, LayerConfig};
use ensemble_stack::{Engine, FuncEngine, ImpEngine};
use ensemble_synth::{synthesize, StackBypass};
use ensemble_util::{Duration as VDuration, Rank, Time};
use std::time::Instant;

/// The paper's 10-layer stack.
pub const STACK_10: &[&str] = ensemble_layers::STACK_10;
/// The paper's 4-layer stack (Figure 4).
pub const STACK_4: &[&str] = ensemble_layers::STACK_4;

/// Members in the measured group (two UltraSparcs in the paper).
pub const NMEMBERS: usize = 2;

/// Iterations per measurement, as in the paper.
pub const ROUNDS: usize = 10_000;

/// Layer configuration for latency measurement: every window/threshold is
/// pushed beyond the horizon so no slow path fires mid-run.
pub fn bench_cfg() -> LayerConfig {
    LayerConfig {
        pt2pt_window: 1 << 40,
        mflow_window: 1 << 40,
        collect_every: 1 << 40,
        frag_max: 1 << 20,
        retrans_timeout: VDuration::from_millis(1 << 20),
        nak_timeout: VDuration::from_millis(1 << 20),
        ..LayerConfig::default()
    }
}

/// The matching model context for synthesis.
pub fn bench_ctx(rank: i64) -> ModelCtx {
    ModelCtx {
        nmembers: NMEMBERS as i64,
        rank,
        view_ltime: 0,
        pt2pt_window: 1 << 40,
        mflow_window: 1 << 40,
        frag_max: 1 << 20,
        collect_every: 1 << 40,
    }
}

/// Which execution engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Central event scheduler.
    Imp,
    /// Recursive functional composition.
    Func,
}

/// Builds an engine over `stack` at `rank`.
pub fn engine(stack: &[&'static str], kind: Kind, rank: u16) -> Box<dyn Engine> {
    let vs = ViewState::initial(NMEMBERS).for_rank(Rank(rank));
    let layers = make_stack(stack, &vs, &bench_cfg()).expect("bench stack builds");
    let mut e: Box<dyn Engine> = match kind {
        Kind::Imp => Box::new(ImpEngine::new(layers)),
        Kind::Func => Box::new(FuncEngine::new(layers)),
    };
    e.init(Time::ZERO);
    e
}

/// Builds the synthesized bypass at `rank`.
pub fn mach(stack: &[&'static str], rank: u16) -> StackBypass {
    let synth = synthesize(stack, &bench_ctx(rank as i64)).expect("synthesis");
    StackBypass::compile(&synth, rank).expect("codegen")
}

/// Builds the hand-optimized bypass at `rank` (4-layer stack only).
pub fn hand(rank: u16) -> HandBypass {
    HandBypass::new(NMEMBERS, rank)
}

/// A `len`-byte payload.
pub fn payload(len: usize) -> Payload {
    Payload::filled(0xAB, len)
}

/// Pre-generates `n` in-sequence wire messages (unmarshaled form) from a
/// fresh rank-0 sender, for feeding receiver-side benches.
pub fn gen_wire_msgs(
    stack: &[&'static str],
    n: usize,
    payload_len: usize,
    send_not_cast: bool,
) -> Vec<Msg> {
    let mut sender = engine(stack, Kind::Imp, 0);
    let body = payload(payload_len);
    (0..n)
        .map(|_| {
            let ev = if send_not_cast {
                DnEvent::Send {
                    dst: Rank(1),
                    msg: Msg::data(body.clone()),
                }
            } else {
                DnEvent::Cast(Msg::data(body.clone()))
            };
            let b = sender.inject_dn(Time::ZERO, ev);
            b.wire
                .into_iter()
                .find_map(|e| match e {
                    DnEvent::Cast(m) => Some(m),
                    DnEvent::Send { msg, .. } => Some(msg),
                    _ => None,
                })
                .expect("sender produced a wire message")
        })
        .collect()
}

/// Pre-generates `n` in-sequence compressed packets from a MACH sender.
pub fn gen_mach_packets(
    stack: &[&'static str],
    n: usize,
    payload_len: usize,
    send_not_cast: bool,
) -> Vec<Vec<u8>> {
    let mut sender = mach(stack, 0);
    let body = payload(payload_len);
    let out = (0..n)
        .map(|_| {
            let o = if send_not_cast {
                sender.dn_send(1, &body)
            } else {
                sender.dn_cast(&body)
            };
            match o {
                ensemble_synth::BypassOutput::Done { wire, .. } => wire.expect("wire").1,
                other => panic!("bypass fell back during generation: {other:?}"),
            }
        })
        .collect();
    sender.drain_deferred();
    out
}

/// Builds an up event delivering `msg` from rank 0.
pub fn up_cast_of(msg: Msg) -> UpEvent {
    UpEvent::Cast {
        origin: Rank(0),
        msg,
    }
}

/// Builds an up event delivering `msg` from rank 0 point-to-point.
pub fn up_send_of(msg: Msg) -> UpEvent {
    UpEvent::Send {
        origin: Rank(0),
        msg,
    }
}

/// Times `n` invocations of `f`, returning nanoseconds per invocation.
pub fn time_per_op<F: FnMut(usize)>(n: usize, mut f: F) -> f64 {
    // Warm up the caches with a small prefix.
    let warm = (n / 100).max(1);
    for i in 0..warm {
        f(i);
    }
    let t0 = Instant::now();
    for i in warm..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / (n - warm) as f64
}

/// Formats nanoseconds compactly.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1000.0 {
        format!("{:7.2}us", ns / 1000.0)
    } else {
        format!("{ns:7.1}ns")
    }
}

/// One row of a Table 1-style report.
pub struct SegmentRow {
    /// Segment name (e.g. "Down Stack").
    pub name: &'static str,
    /// Measured nanoseconds per configuration, in column order.
    pub ns: Vec<f64>,
    /// The paper's microsecond figures for the same row, for comparison.
    pub paper_us: Vec<f64>,
}

/// Prints a Table 1-style report.
pub fn print_table(title: &str, columns: &[&str], rows: &[SegmentRow]) {
    println!("\n=== {title} ===");
    print!("{:>16}", "");
    for c in columns {
        print!(" | {c:>10}");
    }
    println!(" || paper (us): {}", columns.join("/"));
    let mut totals = vec![0.0; columns.len()];
    let mut paper_totals = vec![0.0; columns.len()];
    for row in rows {
        print!("{:>16}", row.name);
        for (i, ns) in row.ns.iter().enumerate() {
            print!(" | {:>10}", fmt_ns(*ns));
            totals[i] += ns;
        }
        print!(" || ");
        for (i, us) in row.paper_us.iter().enumerate() {
            if i > 0 {
                print!("/");
            }
            print!("{us}");
            paper_totals[i] += us;
        }
        println!();
    }
    print!("{:>16}", "Total");
    for t in &totals {
        print!(" | {:>10}", fmt_ns(*t));
    }
    print!(" || ");
    for (i, t) in paper_totals.iter().enumerate() {
        if i > 0 {
            print!("/");
        }
        print!("{t}");
    }
    println!();
    // Shape check: ratios between configurations.
    if totals.len() >= 2 {
        print!("{:>16}", "vs first");
        for t in &totals {
            print!(" | {:>9.2}x", t / totals[0]);
        }
        print!(" || ");
        for (i, t) in paper_totals.iter().enumerate() {
            if i > 0 {
                print!("/");
            }
            print!("{:.2}x", t / paper_totals[0]);
        }
        println!();
    }
}
