//! Merge seniority between two stalled components.
//!
//! Two nodes split 1/1: neither side holds a majority of the last view,
//! so both stall at the same epoch. Node 0 carries the newer application
//! state (version 10 against 5). When the partition heals, the
//! coordinators compare seniority and the senior side ships its snapshot
//! to the junior one. Seniority must follow the state version: ranking
//! by epoch and then endpoint made node 1 senior and rolled node 0 back
//! to the older state.

use ensemble_cluster::{ClusterConfig, ClusterEvent, ClusterNode, StateProvider};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::Endpoint;
use std::time::{Duration, Instant};

const N: usize = 2;

/// Application state pinned at one version.
struct Pinned(u64);

impl StateProvider for Pinned {
    fn snapshot(&mut self) -> Vec<u8> {
        format!("state-{}", self.0).into_bytes()
    }

    fn version(&mut self) -> u64 {
        self.0
    }
}

/// Polls `cond` for up to 20 s, collecting every snapshot the nodes
/// receive meanwhile into `snaps` (per node).
fn wait(
    what: &str,
    nodes: &[ClusterNode],
    snaps: &mut [Vec<String>],
    cond: impl Fn(&ClusterNode) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for (i, n) in nodes.iter().enumerate() {
            while let Some(ev) = n.try_recv() {
                if let ClusterEvent::Snapshot(s) = ev {
                    snaps[i].push(String::from_utf8_lossy(&s).into_owned());
                }
            }
        }
        if nodes.iter().all(&cond) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn the_stalled_side_with_newer_state_is_senior() {
    let control = LoopbackHub::with_faults(61, FaultPlan::default());
    let data = LoopbackHub::with_faults(61 ^ 0x5EED, FaultPlan::default());
    let seed = Endpoint::new(0);
    let mut formers = Vec::new();
    for i in 0..N as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let state = Pinned(if i == 0 { 10 } else { 5 });
        formers.push(std::thread::spawn(move || {
            let cfg = ClusterConfig::new(N);
            ClusterNode::form(
                ep,
                seed,
                cfg,
                Box::new(c),
                Box::new(d),
                Some(Box::new(state)),
            )
        }));
    }
    let nodes: Vec<ClusterNode> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("rendezvous completes"))
        .collect();
    let mut snaps = vec![Vec::new(); N];
    // Formation ships the seed's snapshot to the joiner; only what
    // arrives after the split counts.
    wait("every node serves", &nodes, &mut snaps, |n| n.is_serving());
    snaps.iter_mut().for_each(Vec::clear);

    let groups = vec![vec![0u32], vec![1u32]];
    control.split(groups.clone());
    data.split(groups);
    wait("both sides stall", &nodes, &mut snaps, |n| !n.is_serving());
    assert!(
        nodes.iter().all(|n| n.view().view_id.ltime == 0),
        "neither side may install a view without quorum"
    );

    control.heal();
    data.heal();
    wait("the merged view serves", &nodes, &mut snaps, |n| {
        n.is_serving() && n.view().nmembers() == N && n.view().view_id.ltime > 0
    });
    assert!(
        snaps[0].is_empty(),
        "node 0 holds the newer state but was sent {:?}",
        snaps[0]
    );
    assert_eq!(
        snaps[1],
        ["state-10"],
        "node 1 catches up from the senior side"
    );
}
