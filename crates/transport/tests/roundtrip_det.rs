//! Wire-format property tests over seeded random inputs.
//!
//! Each property — generic marshal round-trips, unmarshal never panics
//! on garbage, truncation never round-trips silently, compressed headers
//! round-trip, compressed decode never panics — runs over a seeded
//! [`DetRng`] workload, so the suite needs no external crates. A failure
//! here reproduces bit-for-bit from the seed in the test body.

use ensemble_event::{
    CollectHdr, FlowHdr, FragHdr, Frame, MnakHdr, Msg, Payload, Pt2PtHdr, StableHdr, SuspectHdr,
    SyncHdr, TotalHdr,
};
use ensemble_transport::{marshal, unmarshal, CompressedHdr};
use ensemble_util::{DetRng, Rank, Seqno};

fn random_frame(rng: &mut DetRng) -> Frame {
    match rng.below(18) {
        0 => Frame::NoHdr,
        1 => Frame::Bottom {
            view_ltime: rng.next_u64(),
        },
        2 => Frame::Mnak(MnakHdr::Data {
            seqno: Seqno(rng.next_u64()),
        }),
        3 => Frame::Mnak(MnakHdr::Nak {
            origin: Rank(rng.below(1 << 16) as u16),
            lo: Seqno(rng.next_u64()),
            hi: Seqno(rng.next_u64()),
        }),
        4 => Frame::Mnak(MnakHdr::Heartbeat {
            next: Seqno(rng.next_u64()),
        }),
        5 => Frame::Pt2Pt(Pt2PtHdr::Data {
            seqno: Seqno(rng.next_u64()),
            ack: Seqno(rng.next_u64()),
        }),
        6 => Frame::Pt2Pt(Pt2PtHdr::Ack {
            ack: Seqno(rng.next_u64()),
        }),
        7 => Frame::Pt2PtW(FlowHdr::Data),
        8 => Frame::MFlow(FlowHdr::Credit {
            granted: rng.next_u64(),
        }),
        9 => Frame::Frag(FragHdr::Whole),
        10 => Frame::Frag(FragHdr::Piece {
            msg_id: rng.next_u64() as u32,
            idx: rng.below(1 << 16) as u16,
            total: rng.range(1, 100) as u16,
        }),
        11 => Frame::Collect(CollectHdr::Gossip {
            seen: (0..rng.below(8)).map(|_| rng.next_u64()).collect(),
        }),
        12 => Frame::Total(TotalHdr::Ordered {
            order: Seqno(rng.next_u64()),
        }),
        13 => Frame::Total(TotalHdr::Order {
            origin: Rank(rng.below(1 << 16) as u16),
            local: Seqno(rng.next_u64()),
            order: Seqno(rng.next_u64()),
        }),
        14 => Frame::Stable(StableHdr::Gossip {
            row: (0..rng.below(8)).map(|_| rng.next_u64()).collect(),
        }),
        15 => Frame::Suspect(SuspectHdr::Ping {
            round: rng.next_u64() as u32,
        }),
        16 => match rng.below(2) {
            0 => Frame::Sync(SyncHdr::Flush {
                suspects: (0..rng.below(4)).map(|_| rng.next_u64()).collect(),
            }),
            _ => Frame::Sync(SyncHdr::FlushOk {
                seen: (0..rng.below(8)).map(|_| rng.next_u64()).collect(),
            }),
        },
        _ => match rng.below(2) {
            0 => Frame::Sign {
                mac: rng.next_u64(),
            },
            _ => Frame::Encrypt {
                keyid: rng.next_u64() as u32,
            },
        },
    }
}

fn random_msg(rng: &mut DetRng, max_frames: u64, max_body: u64) -> Msg {
    let frames = (0..rng.below(max_frames))
        .map(|_| random_frame(rng))
        .collect();
    let mut body = vec![0u8; rng.below(max_body) as usize];
    rng.fill_bytes(&mut body);
    Msg::from_parts(frames, Payload::from_slice(&body))
}

#[test]
fn generic_marshal_roundtrips_det() {
    let mut rng = DetRng::new(0x0DE7_0001);
    for case in 0..256 {
        let msg = random_msg(&mut rng, 12, 256);
        let bytes = marshal(&msg);
        assert_eq!(unmarshal(&bytes).unwrap(), msg, "case {case}");
    }
}

#[test]
fn unmarshal_never_panics_on_garbage_det() {
    let mut rng = DetRng::new(0x0DE7_0002);
    for _ in 0..512 {
        let mut bytes = vec![0u8; rng.below(128) as usize];
        rng.fill_bytes(&mut bytes);
        let _ = unmarshal(&bytes); // Must return Err, not panic.
    }
}

#[test]
fn truncation_never_roundtrips_silently_det() {
    let mut rng = DetRng::new(0x0DE7_0003);
    for case in 0..256 {
        let mut msg = random_msg(&mut rng, 6, 64);
        if msg.frames().is_empty() {
            msg = Msg::from_parts(vec![Frame::NoHdr], msg.payload().clone());
        }
        let bytes = marshal(&msg);
        let cut = rng.range(1, 32).min(bytes.len() as u64) as usize;
        let truncated = &bytes[..bytes.len() - cut];
        if let Ok(m) = unmarshal(truncated) {
            assert_ne!(m, msg, "case {case}: truncation decoded to the original");
        }
    }
}

#[test]
fn compressed_roundtrips_det() {
    let mut rng = DetRng::new(0x0DE7_0004);
    for case in 0..256 {
        let stack_id = rng.next_u64() as u32;
        let tag = rng.below(256) as u8;
        let fields: Vec<u64> = (0..rng.below(8)).map(|_| rng.next_u64()).collect();
        let mut body = vec![0u8; rng.below(256) as usize];
        rng.fill_bytes(&mut body);
        let h = CompressedHdr::new(stack_id, tag, fields);
        let bytes = h.encode(&body);
        assert_eq!(bytes.len(), h.encoded_len() + body.len(), "case {case}");
        let (back, payload) = CompressedHdr::decode(&bytes).unwrap();
        assert_eq!(back, h, "case {case}");
        assert_eq!(payload, &body[..], "case {case}");
    }
}

#[test]
fn compressed_decode_never_panics_det() {
    let mut rng = DetRng::new(0x0DE7_0005);
    for _ in 0..512 {
        let mut bytes = vec![0u8; rng.below(64) as usize];
        rng.fill_bytes(&mut bytes);
        let _ = CompressedHdr::decode(&bytes);
    }
}
