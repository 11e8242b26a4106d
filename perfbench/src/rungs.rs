//! Standalone rungs: one layer alone on the workload's payloads, timed
//! the way the `table1` bench times the paper's Table 1 segments.

use crate::layers::Layers;
use crate::stats::median;
use ensemble_bench::{
    engine, gen_mach_packets, gen_wire_msgs, mach, payload, time_per_op, up_cast_of, Kind, ROUNDS,
    STACK_10,
};
use ensemble_event::{DnEvent, Msg};
use ensemble_ir::models::Case;
use ensemble_transport::{marshal, unmarshal, CompressedHdr};
use ensemble_util::Time;

/// Each rung is timed this many times over `ROUNDS` ops; the median
/// is reported.
const REPS: usize = 5;

fn median_of(mut time: impl FnMut() -> f64) -> f64 {
    median((0..REPS).map(|_| time()).collect())
}

/// The paper's 10-layer stack on 4-byte casts: the IMP engine and the
/// synthesized bypass, down (cast) and up (deliver).
pub fn stack(out: &mut Layers) {
    const LEN: usize = 4;
    out.insert(
        "stack.imp.dn_ns",
        median_of(|| {
            let mut sender = engine(STACK_10, Kind::Imp, 0);
            let body = payload(LEN);
            time_per_op(ROUNDS, |_| {
                let b = sender.inject_dn(Time::ZERO, DnEvent::Cast(Msg::data(body.clone())));
                std::hint::black_box(&b);
            })
        }),
    );
    let msgs = gen_wire_msgs(STACK_10, ROUNDS, LEN, false);
    out.insert(
        "stack.imp.up_ns",
        median_of(|| {
            let mut receiver = engine(STACK_10, Kind::Imp, 1);
            time_per_op(ROUNDS, |i| {
                let b = receiver.inject_up(Time::ZERO, up_cast_of(msgs[i].clone()));
                std::hint::black_box(&b);
            })
        }),
    );
    out.insert(
        "synth.bypass.dn_ns",
        median_of(|| {
            let mut sender = mach(STACK_10, 0);
            time_per_op(ROUNDS, |_| {
                std::hint::black_box(sender.bench_dn_stack(Case::DnCast, 1, LEN as i64));
            })
        }),
    );
    let fields: Vec<Vec<u64>> = gen_mach_packets(STACK_10, ROUNDS, LEN, false)
        .iter()
        .map(|p| CompressedHdr::decode(p).expect("bypass packet").0.fields)
        .collect();
    out.insert(
        "synth.bypass.up_ns",
        median_of(|| {
            let mut receiver = mach(STACK_10, 1);
            time_per_op(ROUNDS, |i| {
                std::hint::black_box(receiver.bench_up_stack(
                    Case::UpCast,
                    0,
                    LEN as i64,
                    &fields[i],
                ));
            })
        }),
    );
}

/// Generic marshal and unmarshal of a 10-layer wire message carrying a
/// `payload_len`-byte cast: `(marshal_ns, unmarshal_ns)`.
pub fn transport(payload_len: usize) -> (f64, f64) {
    let wire = gen_wire_msgs(STACK_10, 1, payload_len, false).remove(0);
    let bytes = marshal(&wire);
    let m = median_of(|| {
        time_per_op(ROUNDS, |_| {
            std::hint::black_box(marshal(std::hint::black_box(&wire)));
        })
    });
    let u = median_of(|| {
        time_per_op(ROUNDS, |_| {
            std::hint::black_box(unmarshal(std::hint::black_box(&bytes)).expect("unmarshal"));
        })
    });
    (m, u)
}
