//! Crash/restart recovery through the real replica path.
//!
//! Both tests form a three-replica durable group on fault-injecting
//! [`MemDisk`]s, kill a replica without ceremony ([`KvReplica::kill`]:
//! no courtesy WAL flush), tear the disk ([`MemDisk::crash`]), and
//! restart the replica on a reincarnated endpoint from the same disk.
//! They differ in what the disk does to the WAL:
//!
//! * **Quiet crash** — the group quiesced and the WAL fully synced
//!   before the kill, so recovery reproduces the exact group state and
//!   the rejoin Hello's resume hint makes the coordinator *skip* the
//!   snapshot (state-transfer fast path, visible as the rejoiner's
//!   `snapshots_skipped` metric).
//! * **Torn crash** — the victim's disk fails every fsync, so its whole
//!   WAL rides the volatile buffer and the crash tears it to a seeded
//!   prefix. Recovery lands strictly behind the group, the hint does
//!   not cover the coordinator's version, and the rejoiner catches up
//!   by snapshot transfer (`snapshots_installed`).
//!
//! Either way the run must end with every replica applying the same
//! operations at the same commit indices and the offline
//! linearizability replay (including the recovery invariants) clean.
//!
//! The third test is the crash gate: eight seeded crash/restart cycles
//! under 16 simulated and 2 TCP clients, on disks that short-write, fail
//! fsyncs, tear tails and flip bits. It checks that every restart
//! recovered from the WAL, that the injected faults demonstrably fired,
//! that the recovery invariants held, and that a final crash of every
//! replica recovers byte-identically twice.

mod common;

use common::{Checker, DoneOnDrop, Fronts};
use ensemble_kv::{
    KvConfig, KvLinearizabilityChecker, KvMetrics, KvOp, KvReplica, KvResult, MemDisk,
    StorageFaults, Wal,
};
use ensemble_runtime::LoopbackHub;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

const REPLICAS: usize = 3;
const VICTIM: usize = 2;
const OPS: u64 = 40;

/// Commits `n` Sets through `front`-replica 0 and waits until every
/// live replica has applied them.
fn push_ops(replicas: &[&KvReplica], n: u64, from_ci: u64) {
    let front = replicas[0].front();
    for i in 0..n {
        let op = KvOp::Set(
            format!("key-{}", i % 8).into_bytes(),
            format!("v{}", from_ci + i).into_bytes(),
        );
        if let KvResult::Err(e) = front.submit_timeout(&op, Duration::from_secs(5)) {
            panic!("set {} rejected: {e:?}", from_ci + i);
        }
    }
    common::wait_for(
        "all replicas apply the batch",
        Duration::from_secs(20),
        || {
            replicas
                .iter()
                .all(|r| r.commit_log().last().map(|(ci, _)| *ci) >= Some(from_ci + n))
        },
    );
}

/// Kills the victim, waits for the survivors to evict its incarnation,
/// and restarts it from its own disk. Returns the reborn replica and
/// its recovered commit index.
fn crash_and_restart(
    control: &LoopbackHub,
    data: &LoopbackHub,
    disks: &[MemDisk],
    victim: KvReplica,
    survivors: &[&KvReplica],
) -> (KvReplica, u64) {
    let old_ep = victim.endpoint();
    victim.kill();
    disks[VICTIM].crash();
    common::wait_evicted(survivors, old_ep);
    let (replica, report) = common::restart(control, data, REPLICAS, &disks[VICTIM], old_ep, 1);
    common::wait_for("reborn replica serves", Duration::from_secs(30), || {
        replica.is_serving()
    });
    (replica, report.recovered_ci())
}

/// Replays the whole execution — the survivors' logs, the victim's
/// pre-crash log, the reborn instance's log, and the recovery itself —
/// through the linearizability checker.
fn replay_clean(
    survivors: &[&KvReplica],
    pre_crash: Vec<(u64, KvOp)>,
    reborn: &KvReplica,
    recovered_ci: u64,
) {
    let mut checker = KvLinearizabilityChecker::new();
    let victim_id = reborn.endpoint().id();
    checker.on_recovery(victim_id, recovered_ci);
    let logs = survivors
        .iter()
        .map(|r| (r.endpoint().id(), r.commit_log()))
        .chain([(victim_id, pre_crash), (victim_id, reborn.commit_log())]);
    common::assert_linearizable(checker, logs);
}

#[test]
fn quiet_crash_recovers_exactly_and_skips_the_snapshot() {
    let (control, data) = common::hubs(11);
    let disks: Vec<MemDisk> = (0..REPLICAS as u64)
        .map(|i| MemDisk::new(11 ^ i, StorageFaults::clean()))
        .collect();
    let mut replicas = common::form_group(&control, &data, REPLICAS, Some(&disks));

    let all: Vec<&KvReplica> = replicas.iter().collect();
    push_ops(&all, OPS, 0);
    drop(all);
    // The idle tick force-flushes the group-commit tail; once the
    // victim's disk has no volatile bytes the WAL covers all OPS
    // records and the crash can destroy nothing.
    common::wait_for("victim WAL fully synced", Duration::from_secs(10), || {
        disks[VICTIM].pending_len() == 0
    });

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, recovered_ci) = crash_and_restart(&control, &data, &disks, victim, &survivors);

    // Recovery reproduced the exact pre-crash state from the local log
    // alone, so the rejoin took the state-transfer fast path: the
    // resume hint covered the coordinator's version and no snapshot
    // crossed the wire.
    assert_eq!(recovered_ci, OPS, "quiet crash loses nothing");
    common::wait_for("fast path recorded", Duration::from_secs(10), || {
        reborn
            .metrics()
            .snapshots_skipped
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });
    assert_eq!(
        reborn
            .metrics()
            .snapshots_installed
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "a caught-up rejoiner must not be shipped a snapshot"
    );

    // The reborn member participates fully in post-rejoin traffic.
    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, OPS);
    replay_clean(&survivors, pre_crash, &reborn, recovered_ci);
}

#[test]
fn torn_crash_recovers_a_prefix_and_catches_up_by_snapshot() {
    let (control, data) = common::hubs(23);
    // The victim's disk fails every fsync, so its entire WAL stays in
    // the volatile buffer; the crash then tears it to a seeded prefix.
    let disks: Vec<MemDisk> = (0..REPLICAS)
        .map(|i| {
            let faults = if i == VICTIM {
                StorageFaults {
                    fsync_fail_p: 1.0,
                    torn_tail_p: 1.0,
                    ..StorageFaults::clean()
                }
            } else {
                StorageFaults::clean()
            };
            MemDisk::new(23 ^ i as u64, faults)
        })
        .collect();
    let mut replicas = common::form_group(&control, &data, REPLICAS, Some(&disks));

    let all: Vec<&KvReplica> = replicas.iter().collect();
    push_ops(&all, OPS, 0);
    drop(all);
    assert!(
        disks[VICTIM].pending_len() > 0,
        "every fsync failed, the victim's WAL must be volatile"
    );

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, recovered_ci) = crash_and_restart(&control, &data, &disks, victim, &survivors);

    // The torn WAL recovers only a prefix, the resume hint falls short
    // of the coordinator's version, and the grant ships the full map.
    assert!(
        recovered_ci < OPS,
        "torn tail must lose records (recovered {recovered_ci} of {OPS})"
    );
    common::wait_for(
        "snapshot transfer recorded",
        Duration::from_secs(10),
        || {
            reborn
                .metrics()
                .snapshots_installed
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        },
    );

    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, OPS);
    replay_clean(&survivors, pre_crash, &reborn, recovered_ci);
}

/// Durability counters summed over every incarnation: a crashed
/// incarnation's counters are harvested before it is dropped.
#[derive(Default)]
struct Totals {
    wal_appends: u64,
    wal_bytes: u64,
    absorbed_faults: u64,
    checkpoints: u64,
    torn_tail_records: u64,
}

impl Totals {
    fn harvest(&mut self, m: &KvMetrics) {
        self.wal_appends += m.wal_appends.load(Ordering::Relaxed);
        self.wal_bytes += m.wal_bytes.load(Ordering::Relaxed);
        self.absorbed_faults += m.wal_append_failures.load(Ordering::Relaxed);
        self.checkpoints += m.checkpoints.load(Ordering::Relaxed);
        self.torn_tail_records += m.torn_tail_records.load(Ordering::Relaxed);
    }
}

#[test]
fn crash_cycles_under_load_recover_from_the_wal() {
    const SEED: u64 = 7;
    const SIM_CLIENTS: usize = 16;
    const TCP_CLIENTS: usize = 2;
    const OPS_PER_CLIENT: usize = 40;
    const CYCLES: u32 = 8;

    let (control, data) = common::hubs(SEED);
    // Group commit keeps a partial batch unsynced under load, so a crash
    // regularly lands on a non-empty tail and the torn and bit-flipped
    // tail paths run in every cycle.
    let faults = StorageFaults {
        short_write_p: 0.05,
        fsync_fail_p: 0.1,
        torn_tail_p: 0.9,
        bit_flip_p: 0.25,
    };
    let disks: Vec<MemDisk> = (0..REPLICAS as u64)
        .map(|i| MemDisk::new(SEED.wrapping_add(i).wrapping_mul(0x2545F491), faults))
        .collect();
    let mut replicas: Vec<Option<KvReplica>> =
        common::form_group(&control, &data, REPLICAS, Some(&disks))
            .into_iter()
            .map(Some)
            .collect();
    let fronts: Fronts = Arc::new(RwLock::new(
        replicas.iter().flatten().map(|r| r.front()).collect(),
    ));
    // Listeners keep the first incarnation's front: after a crash their
    // replica refuses and the TCP clients redirect.
    let listeners = common::listen(&fronts.read().unwrap(), REPLICAS).unwrap_or_default();
    let addrs: Vec<_> = listeners.iter().map(|l| l.addr()).collect();
    let checker: Checker = Arc::new(Mutex::new(KvLinearizabilityChecker::new()));
    let done = Arc::new(AtomicBool::new(false));
    let clients = common::spawn_load(
        SEED,
        OPS_PER_CLIENT,
        SIM_CLIENTS,
        TCP_CLIENTS,
        &fronts,
        &addrs,
        &checker,
        &done,
    );

    // The seeded crash schedule: each cycle kills a non-seed replica
    // without a WAL flush, tears its disk's unsynced tail, lets the
    // survivors absorb the loss under load, and restarts it from its
    // own checkpoint and WAL tail. The seed stays up, so the survivors
    // always hold quorum.
    let mut totals = Totals::default();
    let mut logs: Vec<(u32, Vec<(u64, KvOp)>)> = Vec::new();
    {
        let _done = DoneOnDrop(Arc::clone(&done));
        for cycle in 0..CYCLES {
            std::thread::sleep(Duration::from_millis(150));
            let t = 1 + cycle as usize % (REPLICAS - 1);
            let victim = replicas[t].take().expect("slot occupied between cycles");
            totals.harvest(victim.metrics());
            logs.push((victim.endpoint().id(), victim.commit_log()));
            let dead = victim.endpoint();
            victim.kill();
            disks[t].crash();
            let survivors: Vec<&KvReplica> = replicas.iter().flatten().collect();
            common::wait_evicted(&survivors, dead);
            std::thread::sleep(Duration::from_millis(200));
            let (replica, report) = common::restart(&control, &data, REPLICAS, &disks[t], dead, 5);
            checker
                .lock()
                .unwrap()
                .on_recovery(t as u32, report.recovered_ci());
            fronts.write().unwrap()[t] = replica.front();
            replicas[t] = Some(replica);
            common::wait_for(
                &format!("cycle {cycle}: restarted replica serves"),
                Duration::from_secs(60),
                || fronts.read().unwrap()[t].is_serving(),
            );
        }
    }
    let completed: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread completes"))
        .sum();
    assert!(completed > 0, "some operations must have committed");
    for l in listeners {
        l.shutdown();
    }

    let live: Vec<KvReplica> = replicas.into_iter().flatten().collect();
    common::quiesce(|| live.iter().map(|r| r.commit_log().len()).collect());
    // The live exposition carries the durability counters.
    let text = live[0].metrics_text();
    for name in [
        "ensemble_kv_wal_appends_total",
        "ensemble_kv_wal_bytes_total",
        "ensemble_kv_checkpoints_total",
        "ensemble_kv_recoveries_total",
        "ensemble_kv_torn_tail_records_total",
    ] {
        common::series(&text, name);
    }

    // End the hard way: kill every replica, tear its disk, and recover
    // twice. Replaying the same log must give byte-identical state, and
    // the recovered index feeds the recovery invariants one last time.
    let mut checker = common::take_checker(checker);
    for (t, r) in live.into_iter().enumerate() {
        totals.harvest(r.metrics());
        logs.push((r.endpoint().id(), r.commit_log()));
        r.kill();
        disks[t].crash();
        let cfg = KvConfig::new(REPLICAS);
        let first = Wal::on_mem_disk(&disks[t], &format!("r{t}"), cfg.wal)
            .recover()
            .expect("final recovery succeeds");
        let second = Wal::on_mem_disk(&disks[t], &format!("r{t}"), cfg.wal)
            .recover()
            .expect("recovery is repeatable");
        assert_eq!(
            first.store.snapshot(),
            second.store.snapshot(),
            "replica {t}: two replays of the same log diverged"
        );
        assert_eq!(first.recovered_ci(), second.recovered_ci());
        checker.on_recovery(t as u32, first.recovered_ci());
    }

    let recoveries = checker.recoveries();
    assert!(
        recoveries >= CYCLES as usize,
        "{recoveries} recoveries for {CYCLES} crash cycles: a restart skipped the WAL"
    );
    assert!(totals.wal_appends > 0, "no WAL appends");
    assert!(totals.wal_bytes > 0, "no WAL bytes");
    assert!(totals.checkpoints > 0, "no checkpoints");
    // The faults must demonstrably fire, not merely be tolerated.
    assert!(totals.torn_tail_records > 0, "no torn tail across the run");
    assert!(
        totals.absorbed_faults > 0,
        "no injected storage error absorbed"
    );
    common::assert_linearizable(checker, logs);
}
