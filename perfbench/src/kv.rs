//! The three KV workloads: `kv_local` (open loop into replica fronts),
//! `kv_tcp` (closed loop over two pipelining TCP clients) and
//! `kv_durable` (open loop in bursts of 16, WAL on real files), plus
//! the replayed output check they share.

use crate::layers::{series_sum, RtCounters};
use crate::probe::{CountingTransport, StorageTally, TimedStorage, TransportTally};
use crate::stats::Samples;
use crate::{pace_until, Boundary, Pass, Phases, System, SPIN_SLACK};
use ensemble_kv::{
    FileStorage, KvClient, KvConfig, KvError, KvListener, KvOp, KvReplica, KvResult, ReplicaFront,
    Wal,
};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::{DetRng, Endpoint};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
/// How long an op may wait for its reply before it counts as failed
/// (the service's own request timeout).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// `kv_local`'s offered load: about a third of what one in-process
/// client reaches in a closed loop, so the group is never saturated and
/// latency measures the blocking path, not queueing.
const LOCAL: Schedule = Schedule {
    rate: 5_000.0,
    burst: 1,
};
/// `kv_durable`'s offered load: 16 ops put in flight together every
/// 16 ms, so group commit has batches to amortize fsync over. A closed
/// loop at 16 in flight wrote ≈ 95 MB/s of WAL and checkpoints; run
/// after run it wore the shared disk down, and throughput fell by a
/// third within ten runs.
const DURABLE: Schedule = Schedule {
    rate: 1_000.0,
    burst: 16,
};
/// `kv_tcp` pipelines this many ops per client call.
const TCP_BATCH: usize = 8;
/// In the traced `kv_tcp` pass every `TCP_PROBE_EVERY`-th iteration
/// also submits one batch straight into the replica front, so the TCP
/// plane's self time is call time minus submit time on the same group.
const TCP_PROBE_EVERY: u64 = 8;
/// `kv_tcp` clients think for a seeded time, uniform below this,
/// between calls. The server paces its completion sweep with a 2 ms
/// socket read timeout, which the kernel rounds to its 4 ms tick; a
/// client that calls again the instant it is answered phase-locks to
/// that tick and every call in a run lands in the same 8 ms or 12 ms
/// mode. Thinking over one tick spreads calls over its phases.
const TCP_THINK_MAX_US: u64 = 4_000;
/// Ops pre-generated per generator thread (the stream then cycles).
const STREAM_LEN: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavor {
    Local,
    Tcp,
    Durable,
}

/// Op mix, key space and value size of a workload.
#[derive(Clone, Copy)]
struct Mix {
    keys: u32,
    value_len: usize,
    get_pct: u64,
    set_pct: u64,
}

fn mix(f: Flavor) -> Mix {
    match f {
        Flavor::Local => Mix {
            keys: 1024,
            value_len: 16,
            get_pct: 50,
            set_pct: 50,
        },
        Flavor::Tcp => Mix {
            keys: 1024,
            value_len: 16,
            get_pct: 90,
            set_pct: 10,
        },
        // The rest of the mix is CAS. 64 keys of 4 KiB keep a
        // checkpoint at 256 KiB.
        Flavor::Durable => Mix {
            keys: 64,
            value_len: 4096,
            get_pct: 10,
            set_pct: 80,
        },
    }
}

// ---------------------------------------------------------------------
// Op streams and the output check.

#[derive(Clone, Copy)]
enum Kind {
    Get,
    Set,
    Cas,
}

/// What one op asked for, in the form the check replays.
#[derive(Clone, Copy)]
enum Want {
    Get,
    Set(u64),
    Cas { expect: Option<u64>, new: u64 },
}

/// One generated op. Every written value starts with a tag unique to
/// the op, followed by a run-wide filler, so a read names the write it
/// observed.
struct Sent {
    key: u32,
    want: Want,
    op: KvOp,
}

fn key_bytes(k: u32) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

fn value(tag: u64, filler: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + filler.len());
    v.extend_from_slice(&tag.to_le_bytes());
    v.extend_from_slice(filler);
    v
}

/// A seeded op stream for one generator thread.
struct Stream {
    kinds: Vec<(Kind, u32)>,
    at: usize,
    tag_base: u64,
    count: u64,
    /// The last value this stream wrote per key: what a CAS expects.
    last_write: HashMap<u32, u64>,
    filler: Arc<[u8]>,
}

impl Stream {
    fn new(seed: u64, thread: u64, m: Mix, filler: &Arc<[u8]>) -> Stream {
        let mut rng = DetRng::new(seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(thread + 1));
        let kinds = (0..STREAM_LEN)
            .map(|_| {
                let roll = rng.below(100);
                let kind = if roll < m.get_pct {
                    Kind::Get
                } else if roll < m.get_pct + m.set_pct {
                    Kind::Set
                } else {
                    Kind::Cas
                };
                (kind, rng.below(m.keys as u64) as u32)
            })
            .collect();
        Stream {
            kinds,
            at: 0,
            tag_base: (thread + 1) << 48,
            count: 0,
            last_write: HashMap::new(),
            filler: Arc::clone(filler),
        }
    }

    fn next(&mut self) -> Sent {
        let (kind, key) = self.kinds[self.at];
        self.at = (self.at + 1) % self.kinds.len();
        self.count += 1;
        let tag = self.tag_base | self.count;
        let (want, op) = match kind {
            Kind::Get => (Want::Get, KvOp::Get(key_bytes(key))),
            Kind::Set => {
                self.last_write.insert(key, tag);
                (
                    Want::Set(tag),
                    KvOp::Set(key_bytes(key), value(tag, &self.filler)),
                )
            }
            Kind::Cas => {
                let expect = self.last_write.insert(key, tag);
                (
                    Want::Cas { expect, new: tag },
                    KvOp::Cas {
                        key: key_bytes(key),
                        expect: expect.map(|t| value(t, &self.filler)),
                        new: value(tag, &self.filler),
                    },
                )
            }
        };
        Sent { key, want, op }
    }
}

/// What a successful reply showed.
enum Seen {
    Get(Option<u64>),
    Set(u64),
    Cas {
        expect: Option<u64>,
        new: u64,
        ok: bool,
    },
}

/// Acknowledged replies, replayed in commit-index order against a
/// model map once the run is over.
struct Check {
    acks: Vec<(u64, u32, Seen)>,
    /// Keys touched by a failed or redirected op: a write may have
    /// committed without its reply reaching us, so the model cannot
    /// predict them.
    excluded: HashSet<u32>,
    violations: Vec<String>,
    filler: Arc<[u8]>,
}

impl Check {
    fn new(filler: &Arc<[u8]>) -> Check {
        Check {
            acks: Vec::new(),
            excluded: HashSet::new(),
            violations: Vec::new(),
            filler: Arc::clone(filler),
        }
    }

    fn violation(&mut self, msg: String) {
        if self.violations.len() < 8 {
            self.violations.push(msg);
        } else if self.violations.len() == 8 {
            self.violations.push("... further violations elided".into());
        }
    }

    /// The tag of a value a read returned, if it is one this run wrote.
    fn tag_of(&self, v: &[u8]) -> Option<u64> {
        (v.len() == 8 + self.filler.len() && v[8..] == self.filler[..])
            .then(|| u64::from_le_bytes(v[..8].try_into().expect("8-byte tag")))
    }

    /// Records one reply; returns whether the op succeeded.
    fn reply(&mut self, sent: &Sent, r: &KvResult) -> bool {
        let seen = match (sent.want, r) {
            (_, KvResult::Err(_)) => {
                self.excluded.insert(sent.key);
                return false;
            }
            (Want::Get, KvResult::Value { ci, value }) => {
                let seen = match value {
                    None => None,
                    Some(v) => match self.tag_of(v) {
                        Some(t) => Some(t),
                        None => {
                            self.violation(format!(
                                "GET key {} at ci {ci} returned a value no op wrote",
                                sent.key
                            ));
                            return true;
                        }
                    },
                };
                (*ci, Seen::Get(seen))
            }
            (Want::Set(tag), KvResult::Applied { ci }) => (*ci, Seen::Set(tag)),
            (Want::Cas { expect, new }, KvResult::Cas { ci, ok }) => (
                *ci,
                Seen::Cas {
                    expect,
                    new,
                    ok: *ok,
                },
            ),
            (_, other) => {
                self.violation(format!(
                    "key {}: reply {other:?} does not match the op",
                    sent.key
                ));
                return true;
            }
        };
        self.acks.push((seen.0, sent.key, seen.1));
        true
    }

    fn exclude(&mut self, key: u32) {
        self.excluded.insert(key);
    }

    fn absorb(&mut self, other: Check) {
        self.acks.extend(other.acks);
        self.excluded.extend(other.excluded);
        for v in other.violations {
            self.violation(v);
        }
    }

    /// Replays every acknowledged reply in commit order. Returns the
    /// violations and the number of keys left out of the model.
    fn verify(mut self) -> (Vec<String>, usize) {
        let mut acks = std::mem::take(&mut self.acks);
        acks.sort_by_key(|a| a.0);
        for w in acks.windows(2) {
            if w[0].0 == w[1].0 {
                self.violation(format!("two replies share commit index {}", w[0].0));
            }
        }
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (ci, key, seen) in &acks {
            if self.excluded.contains(key) {
                continue;
            }
            let current = model.get(key).copied();
            match *seen {
                Seen::Get(got) if got != current => self.violation(format!(
                    "GET key {key} at ci {ci} saw {got:?}, the last acknowledged write was {current:?}"
                )),
                Seen::Get(_) => {}
                Seen::Set(tag) => {
                    model.insert(*key, tag);
                }
                Seen::Cas { expect, new, ok } => {
                    if ok != (current == expect) {
                        self.violation(format!(
                            "CAS key {key} at ci {ci} returned ok={ok} against {current:?} (expected {expect:?})"
                        ));
                    }
                    if ok {
                        model.insert(*key, new);
                    }
                }
            }
        }
        let excluded = self.excluded.len();
        (self.violations, excluded)
    }
}

// ---------------------------------------------------------------------
// The replica group.

/// Decorator tallies of a traced group.
struct Probes {
    control: Arc<TransportTally>,
    data: Arc<TransportTally>,
    log: Arc<Mutex<StorageTally>>,
    ckpt: Arc<Mutex<StorageTally>>,
}

/// Three replicas on loopback hubs (plus listeners for `kv_tcp`).
pub struct KvSystem {
    flavor: Flavor,
    seed: u64,
    replicas: Vec<KvReplica>,
    fronts: Vec<ReplicaFront>,
    listeners: Vec<KvListener>,
    control: LoopbackHub,
    data: LoopbackHub,
    probes: Option<Probes>,
}

fn durable_wal(dir: &Path, cfg: &KvConfig, probes: Option<&Probes>) -> Wal {
    let Some(p) = probes else {
        return Wal::on_dir(dir, cfg.wal).expect("WAL directory opens");
    };
    std::fs::create_dir_all(dir).expect("WAL directory");
    let file = |name: &str| FileStorage::open(&dir.join(name)).expect("WAL file opens");
    Wal::new(
        TimedStorage::wrap(file("wal.log"), &p.log),
        TimedStorage::wrap(file("wal.ckpt-a"), &p.ckpt),
        TimedStorage::wrap(file("wal.ckpt-b"), &p.ckpt),
        cfg.wal,
    )
}

impl KvSystem {
    /// Forms the group and starts what the workload needs; returns once
    /// every replica serves, i.e. the first op can be admitted.
    ///
    /// Rendezvous polls on a fixed period, so replicas started in the
    /// same instant race each other's polls and the set-up time comes
    /// out in one of two modes. `phase` (0..1) starts the joiners that
    /// share of one poll period after the seed; spreading it over the
    /// set-ups of a run measures rendezvous over start offsets instead
    /// of over one race.
    pub fn form(flavor: Flavor, seed: u64, dir: &Path, traced: bool, phase: f64) -> KvSystem {
        let control = LoopbackHub::with_faults(seed, FaultPlan::default());
        let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
        let probes = traced.then(|| Probes {
            control: Arc::default(),
            data: Arc::default(),
            log: Arc::default(),
            ckpt: Arc::default(),
        });
        let seed_ep = Endpoint::new(0);
        let replicas: Vec<KvReplica> = std::thread::scope(|s| {
            let formers: Vec<_> = (0..REPLICAS as u32)
                .map(|i| {
                    let ep = Endpoint::new(i);
                    let cfg = KvConfig::new(REPLICAS);
                    let (c, d) = match &probes {
                        Some(p) => (
                            CountingTransport::wrap(control.attach(ep), &p.control),
                            CountingTransport::wrap(data.attach(ep), &p.data),
                        ),
                        None => (
                            Box::new(control.attach(ep)) as Box<dyn ensemble_runtime::Transport>,
                            Box::new(data.attach(ep)) as Box<dyn ensemble_runtime::Transport>,
                        ),
                    };
                    let wal = (flavor == Flavor::Durable)
                        .then(|| durable_wal(&dir.join(format!("r{i}")), &cfg, probes.as_ref()));
                    let delay = if i == 0 {
                        Duration::ZERO
                    } else {
                        (cfg.cluster.hello_retry / 4).mul_f64(phase)
                    };
                    s.spawn(move || {
                        std::thread::sleep(delay);
                        match wal {
                            Some(wal) => {
                                KvReplica::form_durable(ep, seed_ep, cfg, c, d, wal).map(|(r, _)| r)
                            }
                            None => KvReplica::form(ep, seed_ep, cfg, c, d),
                        }
                    })
                })
                .collect();
            formers
                .into_iter()
                .map(|f| {
                    f.join()
                        .expect("former thread")
                        .expect("replica rendezvous completes")
                })
                .collect()
        });
        let fronts: Vec<ReplicaFront> = replicas.iter().map(|r| r.front()).collect();
        let listeners = if flavor == Flavor::Tcp {
            let cfg = KvConfig::new(REPLICAS);
            fronts
                .iter()
                .map(|f| {
                    KvListener::start(f.clone(), "127.0.0.1:0", (&cfg).into())
                        .expect("listener binds an ephemeral loopback port")
                })
                .collect()
        } else {
            Vec::new()
        };
        let until = Instant::now() + Duration::from_secs(30);
        while !fronts.iter().all(|f| f.is_serving()) {
            assert!(Instant::now() < until, "replicas never started serving");
            std::thread::sleep(Duration::from_millis(1));
        }
        KvSystem {
            flavor,
            seed,
            replicas,
            fronts,
            listeners,
            control,
            data,
            probes,
        }
    }

    /// Counters read around a pass.
    fn snapshot(&self) -> Snapshot {
        let texts: Vec<String> = self.replicas.iter().map(|r| r.metrics_text()).collect();
        let sum = |name: &str, label: &str| -> f64 {
            texts.iter().map(|t| series_sum(t, name, label)).sum()
        };
        let drops = |h: &LoopbackHub| h.fault_counts().backpressure_drops as f64;
        let counts = |f: fn(&Probes) -> &Arc<TransportTally>| {
            self.probes
                .as_ref()
                .map(|p| f(p).counts())
                .unwrap_or_default()
        };
        Snapshot {
            rt: texts
                .iter()
                .map(|t| RtCounters::from_text(t))
                .fold(RtCounters::default(), RtCounters::add),
            views: sum("ensemble_cluster_views_installed_total", ""),
            suspicions: sum("ensemble_cluster_suspicions_total", ""),
            timeouts: sum("ensemble_kv_rejected_total", "reason=\"timeout\""),
            rejected: sum("ensemble_kv_rejected_total", "reason=\"not_serving\""),
            drops: drops(&self.control) + drops(&self.data),
            data: counts(|p| &p.data),
            control: counts(|p| &p.control),
        }
    }
}

struct Snapshot {
    rt: RtCounters,
    views: f64,
    suspicions: f64,
    timeouts: f64,
    rejected: f64,
    drops: f64,
    data: (u64, u64),
    control: (u64, u64),
}

impl System for KvSystem {
    fn run(&mut self, warm: Duration, timed: Duration) -> Pass {
        let m = mix(self.flavor);
        let mut frng = DetRng::new(self.seed ^ 0xF111);
        let filler: Arc<[u8]> = (0..m.value_len - 8)
            .map(|_| frng.below(256) as u8)
            .collect::<Vec<u8>>()
            .into();
        let streams: Vec<Stream> = (0..2)
            .map(|t| Stream::new(self.seed, t, m, &filler))
            .collect();
        let before = self.snapshot();
        let traced = self.probes.is_some();
        let phases = Phases::start(warm, timed);
        let (mut pass, check) = match self.flavor {
            Flavor::Tcp => self.run_tcp(streams, &filler, &phases, traced),
            flavor => {
                let schedule = if flavor == Flavor::Local {
                    LOCAL
                } else {
                    DURABLE
                };
                let stream = streams.into_iter().next().expect("stream");
                run_fronts(&self.fronts, stream, &filler, schedule, &phases, traced)
            }
        };
        let after = self.snapshot();
        let (violations, excluded) = check.verify();
        pass.violations = violations;
        pass.notes.push(format!(
            "check: replies replayed in commit order, {excluded} keys excluded after failed or redirected ops"
        ));
        if after.views > before.views || after.suspicions > before.suspicions {
            pass.invalid.push(format!(
                "membership changed during the run: {} views installed, {} suspicions",
                after.views - before.views,
                after.suspicions - before.suspicions
            ));
        }
        if let Some(p) = &self.probes {
            self.report_layers(p, &before, &after, &mut pass);
        }
        pass
    }

    fn shutdown(self: Box<Self>) {
        let KvSystem {
            listeners,
            replicas,
            ..
        } = *self;
        for l in listeners {
            l.shutdown();
        }
        for r in replicas {
            r.shutdown();
        }
    }
}

impl KvSystem {
    fn report_layers(&self, p: &Probes, before: &Snapshot, after: &Snapshot, pass: &mut Pass) {
        let ops = pass.ops_all as f64;
        let l = &mut pass.layers;
        after.rt.sub(before.rt).report(ops, l);
        l.insert("cluster.views_installed", after.views - before.views);
        l.insert("cluster.suspicions", after.suspicions - before.suspicions);
        l.insert(
            "cluster.control_pkts_per_s",
            (after.control.0 - before.control.0) as f64 / pass.wall_s,
        );
        l.insert("kv.replica.timeouts", after.timeouts - before.timeouts);
        l.insert("kv.replica.rejected", after.rejected - before.rejected);
        l.insert("transport.backpressure_drops", after.drops - before.drops);
        l.insert(
            "transport.data_pkts_per_op",
            (after.data.0 - before.data.0) as f64 / ops.max(1.0),
        );
        l.insert(
            "transport.data_bytes_per_op",
            (after.data.1 - before.data.1) as f64 / ops.max(1.0),
        );
        let send = std::mem::take(&mut *p.data.send_ns.lock().expect("send samples"));
        l.insert("transport.send_ns_p50", send.pct(50.0));
        if self.flavor == Flavor::Durable {
            let log = std::mem::take(&mut *p.log.lock().expect("log tally"));
            let ckpt = std::mem::take(&mut *p.ckpt.lock().expect("ckpt tally"));
            l.insert("kv.storage.sync_us_p50", log.sync_us.pct(50.0));
            l.insert("kv.storage.sync_us_p99", log.sync_us.pct(99.0));
            l.insert("kv.storage.append_us_p50", log.append_us.pct(50.0));
            l.insert(
                "kv.wal.records_per_sync",
                log.appends as f64 / (log.syncs as f64).max(1.0),
            );
            l.insert("kv.wal.bytes_per_op", log.bytes as f64 / ops.max(1.0));
            l.insert(
                "kv.wal.checkpoint_bytes_per_op",
                ckpt.bytes as f64 / ops.max(1.0),
            );
        }
    }

    fn run_tcp(
        &self,
        streams: Vec<Stream>,
        filler: &Arc<[u8]>,
        phases: &Phases,
        traced: bool,
    ) -> (Pass, Check) {
        let addrs: Vec<_> = self.listeners.iter().map(|l| l.addr()).collect();
        // Connection t first targets replica t.
        let rotated = |t: usize| -> Vec<_> {
            (0..addrs.len())
                .map(|i| addrs[(i + t) % addrs.len()])
                .collect()
        };
        let mut streams = streams.into_iter();
        let (first, second) = (
            streams.next().expect("stream 0"),
            streams.next().expect("stream 1"),
        );
        let mut bound = Boundary::new(traced);
        // The second client outlives the main one's reading of the
        // phase's end, so its CPU time is still counted there.
        let both_done = Barrier::new(2);
        let ((mut t, mut check, mut redirects), (t2, c2, r2)) = std::thread::scope(|s| {
            let other = {
                let (addrs, front, done) = (rotated(1), self.fronts[1].clone(), &both_done);
                s.spawn(move || {
                    tcp_client(addrs, front, second, filler, phases, traced, None, done)
                })
            };
            let mine = tcp_client(
                rotated(0),
                self.fronts[0].clone(),
                first,
                filler,
                phases,
                traced,
                Some(&mut bound),
                &both_done,
            );
            (mine, other.join().expect("tcp client thread"))
        });
        t.absorb(t2);
        check.absorb(c2);
        redirects += r2;
        let mut pass = t.finish(phases, &bound);
        pass.layers.insert("kv.client.redirects", redirects as f64);
        (pass, check)
    }
}

// ---------------------------------------------------------------------
// Generators.

/// One generator thread's pass, plus the public-call spans it timed.
struct Tally {
    pass: Pass,
    submit_us: Samples,
    call_us: Samples,
}

impl Tally {
    fn new(phases: &Phases) -> Tally {
        Tally {
            pass: Pass::new(phases),
            submit_us: Samples::default(),
            call_us: Samples::default(),
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.pass.absorb(o.pass);
        self.submit_us.extend(o.submit_us);
        self.call_us.extend(o.call_us);
    }

    fn finish(self, phases: &Phases, bound: &Boundary) -> Pass {
        let Tally {
            mut pass,
            submit_us,
            call_us,
        } = self;
        pass.close(bound, phases);
        if submit_us.len() > 0 {
            pass.layers
                .insert("kv.replica.submit_us_p50", submit_us.pct(50.0));
            pass.layers
                .insert("kv.replica.submit_us_p99", submit_us.pct(99.0));
        }
        if call_us.len() > 0 {
            pass.layers
                .insert("kv.client.call_us_p50", call_us.pct(50.0));
        }
        pass
    }
}

/// An open-loop schedule: `burst` ops fall due together, `rate` ops
/// per second in all.
#[derive(Clone, Copy)]
struct Schedule {
    rate: f64,
    burst: u64,
}

struct InFlight {
    sent: Sent,
    /// Due time: latency is measured from here.
    start: Instant,
    submitted: Instant,
    front: usize,
    token: Option<u64>,
    rx: Receiver<KvResult>,
}

/// Drives replica fronts from one thread on a fixed schedule,
/// round-robin over the replicas.
fn run_fronts(
    fronts: &[ReplicaFront],
    mut stream: Stream,
    filler: &Arc<[u8]>,
    schedule: Schedule,
    phases: &Phases,
    traced: bool,
) -> (Pass, Check) {
    let mut check = Check::new(filler);
    let mut t = Tally::new(phases);
    let mut bound = Boundary::new(traced);
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut lateness = Samples::default();
    let mut issued = 0u64;
    let gap = Duration::from_secs_f64(schedule.burst as f64 / schedule.rate);
    let mut next_due = phases.started;

    let finish = |f: InFlight, r: KvResult, now: Instant, t: &mut Tally, check: &mut Check| {
        let ok = check.reply(&f.sent, &r);
        t.pass.issued(f.start, ok, phases);
        if ok {
            t.pass.completed_at(now, phases);
            t.pass.latency(f.start, us(now - f.start), phases);
            if traced && phases.window(f.start).is_some() {
                t.submit_us.push(us(now - f.submitted));
            }
        }
    };

    loop {
        let now = Instant::now();
        bound.observe(now, phases);
        let open = now < phases.end;
        if open && now >= next_due {
            let start = next_due;
            if phases.window(start).is_some() {
                lateness.push(us(now - start));
            }
            let sent = stream.next();
            let front = (issued % fronts.len() as u64) as usize;
            issued += 1;
            if issued.is_multiple_of(schedule.burst) {
                next_due += gap;
            }
            let (rx, token) = fronts[front].submit_tracked(&sent.op);
            pending.push_back(InFlight {
                sent,
                start,
                submitted: Instant::now(),
                front,
                token,
                rx,
            });
            continue;
        }
        let Some(oldest) = pending.front() else {
            if !open {
                break;
            }
            pace_until(next_due.min(phases.end));
            continue;
        };
        let deadline = oldest.submitted + REQUEST_TIMEOUT;
        let wake = if open {
            deadline.min(next_due).min(phases.end)
        } else {
            deadline
        };
        match wait_until(wake, &oldest.rx) {
            Some(Ok(r)) => {
                let done = Instant::now();
                let f = pending.pop_front().expect("oldest");
                finish(f, r, done, &mut t, &mut check);
                // Replies that overtook the oldest op complete now too.
                let mut i = 0;
                while i < pending.len() {
                    match pending[i].rx.try_recv() {
                        Ok(r) => {
                            let f = pending.remove(i).expect("index in range");
                            finish(f, r, done, &mut t, &mut check);
                        }
                        Err(_) => i += 1,
                    }
                }
            }
            Some(Err(())) => {
                let f = pending.pop_front().expect("oldest");
                finish(
                    f,
                    KvResult::Err(KvError::Closed),
                    Instant::now(),
                    &mut t,
                    &mut check,
                );
            }
            None if Instant::now() >= deadline => {
                let f = pending.pop_front().expect("oldest");
                let withdrawn = f
                    .token
                    .map(|tok| fronts[f.front].withdraw(tok))
                    .unwrap_or(true);
                let r = if withdrawn {
                    KvResult::Err(KvError::Timeout)
                } else {
                    f.rx.try_recv().unwrap_or(KvResult::Err(KvError::Closed))
                };
                finish(f, r, Instant::now(), &mut t, &mut check);
            }
            None => {}
        }
    }
    let mut pass = t.finish(phases, &bound);
    let behind = lateness.pct(99.0);
    pass.notes.push(format!(
        "generator: {} ops/s in bursts of {}, lateness p50 {:.1} us, p99 {behind:.1} us ({} samples)",
        schedule.rate,
        schedule.burst,
        lateness.pct(50.0),
        lateness.len()
    ));
    if behind > MAX_LATENESS_P99_US {
        pass.invalid.push(format!(
            "generator fell behind its schedule: lateness p99 {behind:.0} us > {MAX_LATENESS_P99_US} us"
        ));
    }
    (pass, check)
}

/// An open-loop run whose generator ran later than this at p99 fell
/// behind its schedule (50 ops' worth in `kv_local`) and did not offer
/// the load it claims; smaller lateness is scheduling jitter and is
/// part of the measured latency.
const MAX_LATENESS_P99_US: f64 = 10_000.0;

/// Waits until `at` like [`pace_until`], returning early with the reply
/// if `rx` delivers one (`Err(())`: the replica dropped the op).
fn wait_until(at: Instant, rx: &Receiver<KvResult>) -> Option<Result<KvResult, ()>> {
    loop {
        let now = Instant::now();
        if now >= at {
            return None;
        }
        let left = at - now;
        if left > SPIN_SLACK {
            match rx.recv_timeout(left - SPIN_SLACK) {
                Ok(r) => return Some(Ok(r)),
                Err(RecvTimeoutError::Disconnected) => return Some(Err(())),
                Err(RecvTimeoutError::Timeout) => {}
            }
        } else {
            match rx.try_recv() {
                Ok(r) => return Some(Ok(r)),
                Err(TryRecvError::Disconnected) => return Some(Err(())),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
    }
}

/// One `kv_tcp` connection in a closed loop of pipelined calls.
#[allow(clippy::too_many_arguments)]
fn tcp_client(
    addrs: Vec<std::net::SocketAddr>,
    front: ReplicaFront,
    mut stream: Stream,
    filler: &Arc<[u8]>,
    phases: &Phases,
    traced: bool,
    mut clocks: Option<&mut Boundary>,
    done: &Barrier,
) -> (Tally, Check, u64) {
    let mut client = KvClient::new(addrs, REQUEST_TIMEOUT);
    let mut check = Check::new(filler);
    let mut t = Tally::new(phases);
    let mut think = DetRng::new(stream.tag_base ^ 0x7417);
    let mut iter = 0u64;
    loop {
        std::thread::sleep(Duration::from_micros(think.below(TCP_THINK_MAX_US)));
        let start = Instant::now();
        if let Some(b) = clocks.as_deref_mut() {
            b.observe(start, phases);
        }
        if start >= phases.end {
            break;
        }
        iter += 1;
        let timed = phases.window(start).is_some();
        let batch: Vec<Sent> = (0..TCP_BATCH).map(|_| stream.next()).collect();
        if traced && iter.is_multiple_of(TCP_PROBE_EVERY) {
            // The same batch shape straight into the replica front.
            let rxs: Vec<_> = batch.iter().map(|s| front.submit(&s.op)).collect();
            let mut all_ok = true;
            for (s, rx) in batch.iter().zip(rxs) {
                let r = rx
                    .recv_timeout(REQUEST_TIMEOUT)
                    .unwrap_or(KvResult::Err(KvError::Timeout));
                let ok = check.reply(s, &r);
                all_ok &= ok;
                t.pass.issued(start, ok, phases);
                if ok {
                    t.pass.completed_at(Instant::now(), phases);
                }
            }
            if all_ok && timed {
                t.submit_us.push(us(start.elapsed()));
            }
            continue;
        }
        let ops: Vec<KvOp> = batch.iter().map(|s| s.op.clone()).collect();
        let redirects = client.redirects();
        let result = client.pipeline(&ops);
        let done = Instant::now();
        match result {
            Ok(results) => {
                let redirected = client.redirects() != redirects;
                for (s, r) in batch.iter().zip(&results) {
                    if redirected {
                        check.exclude(s.key);
                    }
                    let ok = check.reply(s, r);
                    t.pass.issued(start, ok, phases);
                    if ok {
                        t.pass.completed_at(done, phases);
                        t.pass.latency(start, us(done - start), phases);
                    }
                }
                if timed && traced {
                    t.call_us.push(us(done - start));
                }
            }
            Err(_) => {
                for s in &batch {
                    check.exclude(s.key);
                    t.pass.issued(start, false, phases);
                }
            }
        }
    }
    done.wait();
    (t, check, client.redirects())
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Fresh run directory for one group incarnation.
pub fn incarnation_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `kv.store.apply_ns`: the state machine alone, applying this
/// workload's own op stream to a fresh store.
pub fn store_rung(flavor: Flavor, seed: u64) -> f64 {
    let m = mix(flavor);
    let filler: Arc<[u8]> = vec![0x5A; m.value_len - 8].into();
    let mut stream = Stream::new(seed, 0, m, &filler);
    let ops: Vec<KvOp> = (0..20_000).map(|_| stream.next().op).collect();
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut store = ensemble_kv::KvStore::new();
            let t0 = Instant::now();
            for op in &ops {
                std::hint::black_box(store.apply(std::hint::black_box(op)));
            }
            t0.elapsed().as_nanos() as f64 / ops.len() as f64
        })
        .collect();
    crate::stats::median(reps)
}

/// The cast payloads this workload's replicas put on the wire.
pub fn cast_payload_len(flavor: Flavor, seed: u64) -> usize {
    let m = mix(flavor);
    let filler: Arc<[u8]> = vec![0; m.value_len - 8].into();
    let mut stream = Stream::new(seed, 0, m, &filler);
    let lens: Vec<f64> = (0..1000)
        .map(|_| ensemble_kv::proto::encode_cast(0, 0, &stream.next().op).len() as f64)
        .collect();
    crate::stats::median(lens) as usize
}

/// `cluster.cast_deliver_us_p50`: a standalone three-member cluster on
/// the KV service's configuration, timing this workload's cast
/// payloads from cast to delivery back at the origin.
pub fn cluster_rung(flavor: Flavor, seed: u64, run_for: Duration) -> f64 {
    use ensemble_cluster::{ClusterEvent, ClusterNode};
    use ensemble_runtime::Delivery;
    let control = LoopbackHub::with_faults(seed ^ 0xC1, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0xD1, FaultPlan::default());
    let nodes: Vec<ClusterNode> = std::thread::scope(|s| {
        let formers: Vec<_> = (0..REPLICAS as u32)
            .map(|i| {
                let ep = Endpoint::new(i);
                let (c, d) = (control.attach(ep), data.attach(ep));
                s.spawn(move || {
                    ClusterNode::form(
                        ep,
                        Endpoint::new(0),
                        KvConfig::new(REPLICAS).cluster,
                        Box::new(c),
                        Box::new(d),
                        None,
                    )
                })
            })
            .collect();
        formers
            .into_iter()
            .map(|f| f.join().expect("former").expect("cluster forms"))
            .collect()
    });
    let m = mix(flavor);
    let filler: Arc<[u8]> = vec![0x33; m.value_len - 8].into();
    let mut stream = Stream::new(seed, 1, m, &filler);
    let mut lat = Samples::default();
    let until = Instant::now() + run_for;
    let mut token = 0u64;
    while Instant::now() < until {
        let origin = (token % REPLICAS as u64) as usize;
        token += 1;
        let payload = ensemble_kv::proto::encode_cast(origin as u32, token, &stream.next().op);
        let t0 = Instant::now();
        nodes[origin].cast(&payload).expect("cluster cast");
        let deadline = t0 + REQUEST_TIMEOUT;
        loop {
            match nodes[origin].recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Some(ClusterEvent::Delivery(Delivery::Cast { bytes, .. })) if bytes == payload => {
                    lat.push(us(t0.elapsed()));
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        // Every member delivers every cast; drain the others' queues.
        for (i, n) in nodes.iter().enumerate() {
            if i != origin {
                while n.try_recv().is_some() {}
            }
        }
    }
    for n in nodes {
        n.leave();
    }
    lat.pct(50.0)
}
