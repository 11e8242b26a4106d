//! End-to-end chaos gate: 3 replicas, 100 concurrent simulated clients
//! plus 2 pipelining TCP clients, a seeded split → minority-stall →
//! heal → merge schedule under the load, and an offline linearizability
//! replay of the whole execution.
//!
//! It proves the service keeps a linearizable history while the
//! membership underneath it fractures and heals, and that a live
//! replica exposes its request, commit and response counters.

mod common;

use common::{Checker, DoneOnDrop, Fronts};
use ensemble_kv::{KvLinearizabilityChecker, KvReplica};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

const REPLICAS: usize = 3;
const SIM_CLIENTS: usize = 100;
const TCP_CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 20;
const SEED: u64 = 42;
const CHAOS_ROUNDS: u32 = 2;

#[test]
fn chaos_load_stays_linearizable() {
    let (control, data) = common::hubs(SEED);
    let replicas: Vec<KvReplica> = common::form_group(&control, &data, REPLICAS, None);
    let fronts: Fronts = Arc::new(RwLock::new(replicas.iter().map(|r| r.front()).collect()));
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

    // The seeded chaos schedule, with the total-order seed (endpoint 0)
    // always on the majority side. The clients keep the load up until
    // it is done.
    {
        let _done = DoneOnDrop(Arc::clone(&done));
        let serving = |i: usize| fronts.read().unwrap()[i].is_serving();
        for round in 0..CHAOS_ROUNDS {
            std::thread::sleep(Duration::from_millis(150));
            let groups = vec![vec![0u32, 1], vec![2u32]];
            control.split(groups.clone());
            data.split(groups);
            common::wait_for(
                &format!("round {round}: minority stalls"),
                Duration::from_secs(20),
                || !serving(2),
            );
            std::thread::sleep(Duration::from_millis(250));
            control.heal();
            data.heal();
            common::wait_for(
                &format!("round {round}: healed group serves"),
                Duration::from_secs(30),
                || (0..REPLICAS).all(serving),
            );
        }
    }
    let completed: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread completes"))
        .sum();
    assert!(completed > 0, "some operations must have committed");

    common::quiesce(|| replicas.iter().map(|r| r.commit_log().len()).collect());
    // The live exposition carries the service counters.
    let text = replicas[0].metrics_text();
    for name in [
        "ensemble_kv_requests_total",
        "ensemble_kv_commits_total",
        "ensemble_kv_responses_total",
    ] {
        assert!(common::series(&text, name) > 0, "{name} never moved");
    }
    for l in listeners {
        l.shutdown();
    }
    common::assert_linearizable(
        common::take_checker(checker),
        replicas.iter().map(|r| (r.endpoint().id(), r.commit_log())),
    );
}
