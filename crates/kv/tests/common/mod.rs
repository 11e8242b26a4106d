//! Shared harness for the KV integration tests: group formation and
//! crash restarts, the seeded operation mix, the redirecting simulated
//! client, the pipelining TCP client, and the quiesce-then-replay step
//! that feeds the linearizability checker.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use ensemble_kv::{
    KvClient, KvConfig, KvError, KvLinearizabilityChecker, KvListener, KvOp, KvReplica, KvResult,
    MemDisk, RecoveryReport, ReplicaFront, Wal,
};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::{DetRng, Endpoint};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The client-facing fronts, by replica slot. A restarted replica's new
/// front replaces its slot, so clients always reach the live incarnation.
pub type Fronts = Arc<RwLock<Vec<ReplicaFront>>>;
/// The checker every client feeds as its operations complete.
pub type Checker = Arc<Mutex<KvLinearizabilityChecker>>;

/// Seeded control and data hubs without injected network faults.
pub fn hubs(seed: u64) -> (LoopbackHub, LoopbackHub) {
    (
        LoopbackHub::with_faults(seed, FaultPlan::default()),
        LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default()),
    )
}

/// Polls `cond` every 5 ms; panics naming `what` if it does not hold
/// within `deadline`.
pub fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sets the flag when dropped, unwinding included: a schedule that
/// panics still releases the clients it was loading.
pub struct DoneOnDrop(pub Arc<AtomicBool>);

impl Drop for DoneOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Forms an `n`-replica group, one rendezvous thread per replica. With
/// `disks`, every replica is durable and keeps its WAL on its own disk.
pub fn form_group(
    control: &LoopbackHub,
    data: &LoopbackHub,
    n: usize,
    disks: Option<&[MemDisk]>,
) -> Vec<KvReplica> {
    let seed_ep = Endpoint::new(0);
    let mut formers = Vec::new();
    for i in 0..n as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = KvConfig::new(n);
        let disk = disks.map(|d| d[i as usize].clone());
        formers.push(std::thread::spawn(move || match disk {
            Some(disk) => {
                let wal = Wal::on_mem_disk(&disk, &format!("r{i}"), cfg.wal);
                KvReplica::form_durable(ep, seed_ep, cfg, Box::new(c), Box::new(d), wal)
                    .map(|(r, _)| r)
            }
            None => KvReplica::form(ep, seed_ep, cfg, Box::new(c), Box::new(d)),
        }));
    }
    formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("replica rendezvous completes"))
        .collect()
}

/// Waits until every survivor has installed a view without `dead`.
/// Restarting earlier risks the coordinator folding the not yet
/// suspected corpse into the rejoin merge flush, which then waits on a
/// dead member's flush ack.
pub fn wait_evicted(survivors: &[&KvReplica], dead: Endpoint) {
    wait_for(
        "survivors evict the dead incarnation",
        Duration::from_secs(30),
        || {
            survivors.iter().all(|r| {
                r.view()
                    .is_some_and(|v| v.nmembers() == survivors.len() && !v.members.contains(&dead))
            })
        },
    );
}

/// Restarts the replica that crashed as `dead` on a reincarnated
/// endpoint: it recovers from `disk` (checkpoint plus WAL tail) and
/// rejoins through the merge path. A rejoin that misses the form
/// deadline — a loaded group can be too busy to merge in time — is
/// retried under a fresh incarnation, up to `attempts` in all, as a
/// supervisor restarts a crashing service. Recovery only reads the
/// disk, so a retry repeats it without side effects.
pub fn restart(
    control: &LoopbackHub,
    data: &LoopbackHub,
    n: usize,
    disk: &MemDisk,
    dead: Endpoint,
    attempts: u32,
) -> (KvReplica, RecoveryReport) {
    let mut reborn = dead.reincarnate();
    for attempt in 1.. {
        let (c, d) = (control.attach(reborn), data.attach(reborn));
        let mut cfg = KvConfig::new(n);
        // A loaded 2-vCPU box can stretch the merge well past the
        // default 10 s form deadline.
        cfg.cluster.join_deadline = Duration::from_secs(30);
        cfg.cluster.form_timeout = Duration::from_secs(30);
        let wal = Wal::on_mem_disk(disk, &format!("r{}", dead.id()), cfg.wal);
        match KvReplica::form_durable(reborn, Endpoint::new(0), cfg, Box::new(c), Box::new(d), wal)
        {
            Ok(ok) => return ok,
            Err(e) if attempt < attempts => {
                eprintln!("rejoin attempt {attempt} of {reborn:?} failed ({e}); retrying");
                reborn = reborn.reincarnate();
            }
            Err(e) => panic!("restarted replica never rejoined after {attempt} attempts: {e}"),
        }
    }
    unreachable!("the retry loop returns or panics")
}

/// Draws the next operation for one client. Writes dominate so the
/// checker has real history to bite on; keys collide across clients on
/// purpose (a 64-key space) so CAS races actually race.
pub fn next_op(rng: &mut DetRng, client: usize) -> KvOp {
    let key = format!("key-{}", rng.below(64)).into_bytes();
    let val = format!("c{client}-{}", rng.next_u64() & 0xffff).into_bytes();
    match rng.below(100) {
        0..=44 => KvOp::Set(key, val),
        45..=69 => KvOp::Get(key),
        70..=89 => KvOp::Cas {
            key,
            // Blind CAS on a contended key space: most fail, some win,
            // and the replay proves each verdict matched the state.
            expect: if rng.chance(0.5) {
                None
            } else {
                Some(val.clone())
            },
            new: val,
        },
        _ => KvOp::Del(key),
    }
}

/// One simulated client: submits straight into the replica fronts and
/// redirects away from a replica that is stalled, slow or dead — the
/// policy [`KvClient`] applies over TCP. Each completion feeds the
/// checker at once, attributed to the serving slot, so a later recovery
/// of that slot is checked against what it acknowledged. Runs `ops`
/// operations and then on until `done`: the faults must happen under
/// load. Returns how many operations completed.
pub fn sim_client(
    client: usize,
    seed: u64,
    ops: usize,
    fronts: &Fronts,
    checker: &Checker,
    done: &AtomicBool,
) -> u64 {
    let mut rng = DetRng::new(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(client as u64 + 1)));
    let nfronts = fronts.read().expect("front table poisoned").len();
    let mut cur = client % nfronts;
    let mut ok = 0;
    let mut issued = 0;
    while issued < ops || !done.load(Ordering::Relaxed) {
        issued += 1;
        let op = next_op(&mut rng, client);
        // At-least-once with redirect: an op that fails on one replica
        // is resubmitted to the next; the completion kept is the one
        // commit this client observed.
        for _attempt in 0..nfronts * 2 {
            let front = fronts.read().expect("front table poisoned")[cur].clone();
            match front.submit_timeout(&op, Duration::from_secs(2)) {
                KvResult::Err(KvError::NotServing | KvError::Timeout | KvError::Closed) => {
                    cur = (cur + 1) % nfronts;
                }
                r => {
                    ok += 1;
                    checker
                        .lock()
                        .expect("checker poisoned")
                        .on_response_at(cur as u32, op, r);
                    break;
                }
            }
        }
    }
    ok
}

/// One TCP client: pipelines batches of 8 through [`KvClient`] against
/// every listener, on the same terms as [`sim_client`]. The redirecting
/// client hides which replica served each reply, so successful replies
/// feed the checker unattributed.
pub fn tcp_client(
    client: usize,
    seed: u64,
    ops: usize,
    addrs: Vec<SocketAddr>,
    checker: &Checker,
    done: &AtomicBool,
) -> u64 {
    let mut rng = DetRng::new(seed ^ (0xD1B54A32D192ED03u64.wrapping_mul(client as u64 + 1)));
    let mut kv = KvClient::new(addrs, Duration::from_secs(2));
    let mut ok = 0;
    let mut issued = 0;
    while issued < ops || !done.load(Ordering::Relaxed) {
        let n = 8.min(ops.saturating_sub(issued).max(1));
        let batch: Vec<KvOp> = (0..n).map(|_| next_op(&mut rng, 10_000 + client)).collect();
        if let Ok(results) = kv.pipeline(&batch) {
            let mut c = checker.lock().expect("checker poisoned");
            for (op, r) in batch.into_iter().zip(results) {
                if !matches!(r, KvResult::Err(_)) {
                    ok += 1;
                    c.on_response(op, r);
                }
            }
        }
        issued += n;
    }
    ok
}

/// Starts one TCP listener per front. `None` when the sandbox denies
/// loopback binds: the caller then runs without TCP clients.
pub fn listen(fronts: &[ReplicaFront], n: usize) -> Option<Vec<KvListener>> {
    let mut listeners = Vec::new();
    for front in fronts {
        match KvListener::start(front.clone(), "127.0.0.1:0", (&KvConfig::new(n)).into()) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("skipping TCP clients: bind denied ({e})");
                return None;
            }
        }
    }
    Some(listeners)
}

/// Starts `sim` simulated clients and, given listener addresses, `tcp`
/// TCP clients. Each thread returns how many operations it completed.
#[allow(clippy::too_many_arguments)]
pub fn spawn_load(
    seed: u64,
    ops: usize,
    sim: usize,
    tcp: usize,
    fronts: &Fronts,
    addrs: &[SocketAddr],
    checker: &Checker,
    done: &Arc<AtomicBool>,
) -> Vec<JoinHandle<u64>> {
    let mut clients = Vec::new();
    for c in 0..sim {
        let (fronts, checker, done) = (Arc::clone(fronts), Arc::clone(checker), Arc::clone(done));
        clients.push(std::thread::spawn(move || {
            sim_client(c, seed, ops, &fronts, &checker, &done)
        }));
    }
    if !addrs.is_empty() {
        for c in 0..tcp {
            let addrs = addrs.to_vec();
            let (checker, done) = (Arc::clone(checker), Arc::clone(done));
            clients.push(std::thread::spawn(move || {
                tcp_client(c, seed, ops, addrs, &checker, &done)
            }));
        }
    }
    clients
}

/// Waits until the commit logs stop growing: casts parked across a
/// merge replay after it, so the logs are read only once they settle.
pub fn quiesce(mut lens: impl FnMut() -> Vec<usize>) {
    let mut last: Vec<usize> = Vec::new();
    wait_for("commit logs quiesce", Duration::from_secs(30), || {
        let now = lens();
        let stable = now == last;
        last = now;
        std::thread::sleep(Duration::from_millis(50));
        stable
    });
}

/// The checker back from the clients, once they have all been joined.
pub fn take_checker(checker: Checker) -> KvLinearizabilityChecker {
    Arc::try_unwrap(checker)
        .unwrap_or_else(|_| panic!("checker still shared after the clients joined"))
        .into_inner()
        .expect("checker poisoned")
}

/// Feeds each replica's commit log into `checker`, replays the whole
/// execution against the linearizability spec (recovery invariants
/// included) and fails on any violation.
pub fn assert_linearizable(
    mut checker: KvLinearizabilityChecker,
    logs: impl IntoIterator<Item = (u32, Vec<(u64, KvOp)>)>,
) {
    for (id, log) in logs {
        for (ci, op) in log {
            checker.on_commit(id, ci, op);
        }
    }
    let violations = checker.finish();
    assert!(
        violations.is_empty(),
        "linearizability violations:\n{}",
        violations.join("\n")
    );
}

/// The value of the unlabelled series `name` in a Prometheus text
/// exposition; panics if the series is missing.
pub fn series(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("exposition lacks {name}:\n{text}"))
}
