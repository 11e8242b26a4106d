//! The TCP client plane over real sockets: pipelining, per-request
//! timeouts, and redirect away from a stalled minority replica.
//!
//! Every test binds `127.0.0.1:0`; a sandbox that denies loopback binds
//! downgrades each test to a logged skip rather than a failure.

mod common;

use ensemble_kv::{KvClient, KvListener, KvOp, KvReplica, KvResult};
use ensemble_runtime::LoopbackHub;
use std::time::{Duration, Instant};

/// Forms an n-replica group over fresh loopback hubs and starts one TCP
/// listener per replica. `None` means the sandbox denied the bind.
fn group(
    n: usize,
    seed: u64,
) -> Option<(Vec<KvReplica>, Vec<KvListener>, LoopbackHub, LoopbackHub)> {
    let (control, data) = common::hubs(seed);
    let replicas = common::form_group(&control, &data, n, None);
    let fronts: Vec<_> = replicas.iter().map(|r| r.front()).collect();
    let listeners = common::listen(&fronts, n)?;
    Some((replicas, listeners, control, data))
}

#[test]
fn pipelined_batch_completes_in_order() {
    let Some((_replicas, listeners, _c, _d)) = group(3, 7) else {
        return;
    };
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    // One pipelined batch: writes, reads, a delete, and a CAS whose
    // verdict depends on the write that precedes it in the pipeline.
    let ops = vec![
        KvOp::Set(b"a".to_vec(), b"1".to_vec()),
        KvOp::Set(b"b".to_vec(), b"2".to_vec()),
        KvOp::Get(b"a".to_vec()),
        KvOp::Cas {
            key: b"a".to_vec(),
            expect: Some(b"1".to_vec()),
            new: b"3".to_vec(),
        },
        KvOp::Get(b"a".to_vec()),
        KvOp::Del(b"b".to_vec()),
        KvOp::Get(b"b".to_vec()),
    ];
    let results = kv.pipeline(&ops).expect("batch completes");
    assert_eq!(results.len(), ops.len());
    assert!(matches!(&results[2], KvResult::Value { value: Some(v), .. } if v == b"1"));
    assert!(matches!(&results[3], KvResult::Cas { ok: true, .. }));
    assert!(matches!(&results[4], KvResult::Value { value: Some(v), .. } if v == b"3"));
    assert!(matches!(&results[6], KvResult::Value { value: None, .. }));
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn client_redirects_away_from_stalled_minority() {
    let Some((_replicas, listeners, control, data)) = group(3, 11) else {
        return;
    };
    let fronts: Vec<_> = _replicas.iter().map(|r| r.front()).collect();
    // Split replica 2 off; put its address FIRST so the client starts
    // on the stalled replica and must redirect to commit.
    let groups = vec![vec![0u32, 1], vec![2u32]];
    control.split(groups.clone());
    data.split(groups);
    common::wait_for("minority stalls", Duration::from_secs(20), || {
        !fronts[2].is_serving()
    });
    let addrs = vec![
        listeners[2].addr(),
        listeners[0].addr(),
        listeners[1].addr(),
    ];
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    let r = kv.set(b"k", b"v").expect("commits after redirecting");
    assert!(r > 0, "committed op carries a commit index");
    assert!(kv.redirects() > 0, "the stalled replica forced a redirect");
    control.heal();
    data.heal();
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn per_request_timeout_fails_fast_when_nothing_serves() {
    let Some((_replicas, listeners, control, data)) = group(3, 13) else {
        return;
    };
    let fronts: Vec<_> = _replicas.iter().map(|r| r.front()).collect();
    // Cut every replica off from every other: nobody holds quorum, so
    // no operation can commit anywhere.
    let groups = vec![vec![0u32], vec![1u32], vec![2u32]];
    control.split(groups.clone());
    data.split(groups);
    common::wait_for("every replica stalls", Duration::from_secs(20), || {
        fronts.iter().all(|f| !f.is_serving())
    });
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_millis(300));
    let t0 = Instant::now();
    let r = kv.set(b"k", b"v");
    assert!(r.is_err(), "no quorum anywhere, the call must fail");
    // Bounded by: per-request timeout × (every replica tried twice),
    // plus scheduling slack. The point is it fails, not hangs.
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "failure was not fast: {:?}",
        t0.elapsed()
    );
    control.heal();
    data.heal();
    for l in listeners {
        l.shutdown();
    }
}
