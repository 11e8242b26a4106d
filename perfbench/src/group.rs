//! `group_stream`: the runtime alone, without cluster or KV. Two nodes
//! run the paper's 10-layer stack on the IMP engine with the
//! synthesized bypass installed; rank 0 streams 4-byte sequence-numbered
//! casts to rank 1 on a fixed schedule, never more than a window of
//! them undelivered.

use crate::layers::RtCounters;
use crate::probe::{CountingTransport, TransportTally};
use crate::stats::Samples;
use crate::{pace_until, Boundary, Pass, Phases, System};
use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_10};
use ensemble_runtime::{
    Delivery, FaultPlan, GroupHandle, LoopbackHub, Node, RuntimeConfig, Transport,
};
use ensemble_stack::EngineKind;
use ensemble_util::Rank;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PAYLOAD_LEN: usize = 4;
/// Offered casts per second: about a fifth of what the pair sustains in
/// a closed loop. A saturating stream keeps four threads busy on two
/// cores, and its figures then follow whatever else the host runs.
const RATE: f64 = 20_000.0;
/// Casts sent together at each due time (a due time every 250 µs).
const BURST: u64 = 5;
/// Most casts rank 0 keeps undelivered at rank 1. It keeps the stream
/// below the hub's 4,096-datagram ingress queue, so the workload
/// measures per-message cost rather than overload loss.
const WINDOW: u64 = 256;
/// Send stamps are kept in a ring; the window guarantees a slot is read
/// before it is reused.
const RING: usize = 2 * WINDOW as usize;
/// How long casts may take to arrive after the sender stops.
const DRAIN: Duration = Duration::from_secs(5);

pub struct GroupSystem {
    hub: LoopbackHub,
    nodes: Vec<Node>,
    handles: Vec<GroupHandle>,
    tally: Option<Arc<TransportTally>>,
}

impl GroupSystem {
    /// Joins both nodes and synthesizes the bypass on each: ready for
    /// the first cast.
    pub fn join(seed: u64, traced: bool) -> GroupSystem {
        let hub = LoopbackHub::with_faults(seed, FaultPlan::default());
        let tally = traced.then(Arc::<TransportTally>::default);
        let vs = ViewState::initial(2);
        let mut nodes = Vec::new();
        let mut handles = Vec::new();
        for r in 0..2u16 {
            // One worker per node, as the cluster configures its nodes.
            let mut node = Node::new(RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            });
            let wire = hub.attach(vs.members[r as usize]);
            let transport: Box<dyn Transport> = match &tally {
                Some(t) => CountingTransport::wrap(wire, t),
                None => Box::new(wire),
            };
            let h = node
                .join(
                    STACK_10,
                    vs.for_rank(Rank(r)),
                    EngineKind::Imp,
                    LayerConfig::default(),
                    transport,
                )
                .expect("node joins the group");
            nodes.push(node);
            handles.push(h);
        }
        for h in &handles {
            h.install_bypass()
                .expect("bypass synthesizes for the 10-layer stack");
        }
        GroupSystem {
            hub,
            nodes,
            handles,
            tally,
        }
    }

    fn counters(&self) -> RtCounters {
        self.nodes
            .iter()
            .map(|n| RtCounters::from_stats(&n.stats()))
            .fold(RtCounters::default(), RtCounters::add)
    }
}

/// Checks one member's view of the stream: every sequence number once,
/// in order.
#[derive(Default)]
struct Fifo {
    next: u64,
    violations: Vec<String>,
}

impl Fifo {
    fn see(&mut self, who: &str, bytes: &[u8]) -> Option<u64> {
        let Ok(b) = <[u8; 4]>::try_from(bytes) else {
            self.violations.push(format!(
                "{who}: a {}-byte payload no cast carried",
                bytes.len()
            ));
            return None;
        };
        let seq = u32::from_le_bytes(b) as u64;
        if seq != self.next && self.violations.len() < 8 {
            self.violations.push(format!(
                "{who}: expected cast {} next, got {seq} ({})",
                self.next,
                if seq < self.next {
                    "duplicate or reordered"
                } else {
                    "loss or reorder"
                }
            ));
        }
        self.next = self.next.max(seq + 1);
        Some(seq)
    }
}

impl System for GroupSystem {
    fn run(&mut self, warm: Duration, timed: Duration) -> Pass {
        let traced = self.tally.is_some();
        let before = self.counters();
        let pkts_before = self.tally.as_ref().map(|t| t.counts()).unwrap_or_default();
        let drops_before = self.hub.fault_counts().backpressure_drops;
        let stamps: Vec<AtomicU64> = (0..RING).map(|_| AtomicU64::new(0)).collect();
        let delivered = AtomicU64::new(0);
        let sent = AtomicU64::new(0);
        let sender_done = AtomicBool::new(false);
        let receiver_done = AtomicBool::new(false);
        let phases = Phases::start(warm, timed);
        let base = phases.started;
        let ns = |at: Instant| at.duration_since(base).as_nanos() as u64;
        // The receiving handle moves to the receiver thread and back.
        let receiver = self.handles.pop().expect("rank 1 handle");
        let sender = &self.handles[0];
        let (stamps, delivered, sent) = (&stamps, &delivered, &sent);
        let (sender_done, receiver_done) = (&sender_done, &receiver_done);
        let phases = &phases;

        let (bound, mut own, seq, timed_sent, lateness, rx) = std::thread::scope(|s| {
            let rx = s.spawn(move || {
                let mut fifo = Fifo::default();
                let mut pass = Pass::new(phases);
                let mut deadline = None;
                loop {
                    if let Some(Delivery::Cast { bytes, .. }) =
                        receiver.recv_timeout(Duration::from_millis(5))
                    {
                        let now = Instant::now();
                        let Some(seq) = fifo.see("rank 1", &bytes) else {
                            continue;
                        };
                        let due = base
                            + Duration::from_nanos(
                                stamps[seq as usize % RING].load(Ordering::Acquire),
                            );
                        delivered.store(fifo.next, Ordering::Release);
                        pass.issued(due, true, phases);
                        pass.completed_at(now, phases);
                        pass.latency(due, (now - due).as_nanos() as f64 / 1e3, phases);
                    }
                    if sender_done.load(Ordering::Acquire) {
                        if fifo.next >= sent.load(Ordering::Acquire) {
                            break;
                        }
                        let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                        if Instant::now() >= d {
                            break;
                        }
                    }
                }
                receiver_done.store(true, Ordering::Release);
                (receiver, fifo, pass)
            });

            // Rank 0: the generator proper.
            let mut bound = Boundary::new(traced);
            let mut own = Fifo::default();
            let mut lateness = Samples::default();
            let (mut seq, mut timed_sent) = (0u64, 0u64);
            let drain_own = |own: &mut Fifo| {
                // The `local` layer hands rank 0 its own casts back; an
                // undrained queue would block the worker.
                while let Some(d) = sender.try_recv() {
                    if let Delivery::Cast { bytes, .. } = d {
                        own.see("rank 0", &bytes);
                    }
                }
            };
            let interval = Duration::from_secs_f64(BURST as f64 / RATE);
            let mut due = phases.started;
            loop {
                let now = Instant::now();
                bound.observe(now, phases);
                if now >= phases.end {
                    break;
                }
                drain_own(&mut own);
                if now < due {
                    pace_until(due.min(phases.end));
                    continue;
                }
                if phases.window(due).is_some() {
                    lateness.push((now - due).as_nanos() as f64 / 1e3);
                }
                for _ in 0..BURST {
                    while seq - delivered.load(Ordering::Acquire) >= WINDOW {
                        std::thread::sleep(Duration::from_micros(100));
                        drain_own(&mut own);
                    }
                    // Latency counts from the due time, so a stall also
                    // charges the casts it held back.
                    stamps[seq as usize % RING].store(ns(due), Ordering::Release);
                    sender
                        .cast(&(seq as u32).to_le_bytes())
                        .expect("rank 0 casts");
                    seq += 1;
                    sent.store(seq, Ordering::Release);
                    timed_sent += phases.window(due).is_some() as u64;
                }
                due += interval;
            }
            sender_done.store(true, Ordering::Release);
            while !receiver_done.load(Ordering::Acquire) || own.next < seq {
                match sender.recv_timeout(Duration::from_millis(5)) {
                    Some(Delivery::Cast { bytes, .. }) => {
                        own.see("rank 0", &bytes);
                    }
                    Some(_) => {}
                    None if receiver_done.load(Ordering::Acquire) => break,
                    None => {}
                }
            }
            let rx = rx.join().expect("receiver thread");
            (bound, own, seq, timed_sent, lateness, rx)
        });
        let (receiver, mut fifo, mut pass) = rx;
        self.handles.push(receiver);
        if fifo.next < seq {
            fifo.violations.push(format!(
                "rank 1: {} of {seq} casts undelivered after the drain",
                seq - fifo.next
            ));
        }
        if own.next < seq {
            own.violations.push(format!(
                "rank 0: {} of its own {seq} casts never came back",
                seq - own.next
            ));
        }
        // Casts sent in the timed phase that never arrived are failures.
        pass.failed = timed_sent.saturating_sub(pass.attempted);
        pass.attempted = timed_sent;
        pass.close(&bound, phases);
        pass.violations = fifo.violations;
        pass.violations.append(&mut own.violations);
        pass.notes.push(format!(
            "generator: {RATE} casts/s in bursts of {BURST}, lateness p50 {:.1} us, p99 {:.1} us ({} samples)",
            lateness.pct(50.0),
            lateness.pct(99.0),
            lateness.len()
        ));
        pass.notes.push(format!(
            "check: {seq} casts checked for loss, duplication and FIFO order at both ranks"
        ));
        if let Some(tally) = &self.tally {
            let ops = pass.ops_all as f64;
            let l = &mut pass.layers;
            self.counters().sub(before).report(ops, l);
            let (pkts, bytes) = tally.counts();
            l.insert(
                "transport.data_pkts_per_op",
                (pkts - pkts_before.0) as f64 / ops.max(1.0),
            );
            l.insert(
                "transport.data_bytes_per_op",
                (bytes - pkts_before.1) as f64 / ops.max(1.0),
            );
            let send = std::mem::take(&mut *tally.send_ns.lock().expect("send samples"));
            l.insert("transport.send_ns_p50", send.pct(50.0));
            l.insert(
                "transport.backpressure_drops",
                (self.hub.fault_counts().backpressure_drops - drops_before) as f64,
            );
        }
        pass
    }

    fn shutdown(self: Box<Self>) {
        let GroupSystem { nodes, handles, .. } = *self;
        drop(handles);
        for mut n in nodes {
            n.shutdown();
        }
    }
}
