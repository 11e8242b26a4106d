//! Control-plane frames: Hello / Welcome / Heartbeat / Fence.
//!
//! Cluster control traffic rides the same [`ensemble_runtime::Transport`]
//! seam as group data, but on a *separate* transport instance (its own
//! hub attachment or UDP socket), so rendezvous and failure detection
//! never contend with the protocol stack's wire format.
//!
//! Every frame is a signed-epoch envelope:
//!
//! ```text
//! magic(u16) version(u8) tag(u8) epoch(u64) src(u64) body… mac(u64)
//! ```
//!
//! The epoch is the sender's current view `ltime`; receivers fence frames
//! from older epochs, which is what keeps a stale member (expelled by a
//! view change it never saw) from disturbing the survivors. The MAC is
//! the same keyed FNV-1a stand-in the `sign` layer uses — it catches
//! corruption and accidental cross-cluster traffic, and marks where a
//! real deployment would put a cryptographic MAC.

use ensemble_util::Endpoint;

/// Frame magic: "EC" (Ensemble Cluster).
pub const MAGIC: u16 = 0x4543;
/// Wire format version (bumped when a frame layout changes; v2 added
/// the stalled flag to merge beacons, v3 the resume hint on Hello, v4
/// the state version on merge beacons).
pub const VERSION: u8 = 4;

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_FENCE: u8 = 4;
const TAG_MERGE_BEACON: u8 = 5;
const TAG_MERGE_REQUEST: u8 = 6;
const TAG_MERGE_GRANT: u8 = 7;

/// The control-plane frame bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Joiner → seed: "I want in." Retried until a Welcome arrives.
    Hello {
        /// Resume hint: the application state version (for the KV
        /// service, the commit index) the joiner already holds from
        /// local recovery. A coordinator whose state is at or below
        /// this version skips shipping the snapshot — the rejoiner
        /// caught up from its own log. `0` = no local state.
        have: u64,
    },
    /// Seed → joiner: the agreed initial membership (rank order) plus an
    /// optional application state snapshot.
    Welcome {
        /// Members in rank order (sorted by endpoint).
        members: Vec<Endpoint>,
        /// Application snapshot shipped to the joiner (may be empty).
        snapshot: Vec<u8>,
    },
    /// Member → member: liveness, carrying a per-sender sequence number.
    Heartbeat {
        /// Monotonic per-sender heartbeat counter.
        seq: u64,
    },
    /// Receiver → stale sender: "the group has moved past your epoch."
    Fence,
    /// Component coordinator → seed & peers: "my component is alive at
    /// this view" — the rediscovery signal after a partition heals. The
    /// envelope epoch carries the advertised view `ltime`.
    MergeBeacon {
        /// The advertising component's live members, rank order.
        members: Vec<Endpoint>,
        /// Whether the advertising component is quorum-stalled. A
        /// component that kept quorum (and may have kept committing) is
        /// senior to any stalled one regardless of epoch, so merged
        /// state always flows *from* the side that made progress.
        stalled: bool,
        /// A stalled component's application state version (the KV
        /// commit index); 0 from a component that holds quorum, which
        /// outranks every stalled one anyway. Between two stalled
        /// components the fresher state is senior, whatever the epochs.
        version: u64,
    },
    /// Junior coordinator → senior coordinator: "absorb my component."
    MergeRequest {
        /// The requesting component's live members, rank order.
        members: Vec<Endpoint>,
    },
    /// Senior coordinator → admitted member: the merged view to install
    /// directly (the admitted side never saw the flush), plus a state
    /// snapshot for reconciliation.
    MergeGrant {
        /// The merged view's `ltime`.
        view_ltime: u64,
        /// The merged membership, rank order.
        members: Vec<Endpoint>,
        /// Application snapshot from the surviving primary (may be empty).
        snapshot: Vec<u8>,
    },
}

/// A decoded control frame with its envelope fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The sending endpoint.
    pub src: Endpoint,
    /// The sender's view `ltime` when the frame was built.
    pub epoch: u64,
    /// The frame body.
    pub frame: Frame,
}

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed envelope needs.
    Truncated,
    /// Wrong magic — not cluster control traffic.
    BadMagic,
    /// A version this implementation does not speak.
    BadVersion,
    /// An unknown frame tag.
    BadTag,
    /// The MAC did not verify (corruption or wrong key).
    BadMac,
}

/// Keyed FNV-1a over `bytes` — the same stand-in MAC as the `sign` layer.
fn mac(bytes: &[u8], key: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ key;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Encodes `env` under `key` into a datagram body.
pub fn encode(env: &Envelope, key: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    let tag = match &env.frame {
        Frame::Hello { .. } => TAG_HELLO,
        Frame::Welcome { .. } => TAG_WELCOME,
        Frame::Heartbeat { .. } => TAG_HEARTBEAT,
        Frame::Fence => TAG_FENCE,
        Frame::MergeBeacon { .. } => TAG_MERGE_BEACON,
        Frame::MergeRequest { .. } => TAG_MERGE_REQUEST,
        Frame::MergeGrant { .. } => TAG_MERGE_GRANT,
    };
    out.push(tag);
    out.extend_from_slice(&env.epoch.to_le_bytes());
    out.extend_from_slice(&env.src.to_wire().to_le_bytes());
    fn put_members(out: &mut Vec<u8>, members: &[Endpoint]) {
        out.extend_from_slice(&(members.len() as u16).to_le_bytes());
        for m in members {
            out.extend_from_slice(&m.to_wire().to_le_bytes());
        }
    }
    match &env.frame {
        Frame::Fence => {}
        Frame::Hello { have } => out.extend_from_slice(&have.to_le_bytes()),
        Frame::Welcome { members, snapshot } => {
            put_members(&mut out, members);
            out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
            out.extend_from_slice(snapshot);
        }
        Frame::Heartbeat { seq } => out.extend_from_slice(&seq.to_le_bytes()),
        Frame::MergeBeacon {
            members,
            stalled,
            version,
        } => {
            put_members(&mut out, members);
            out.push(*stalled as u8);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::MergeRequest { members } => {
            put_members(&mut out, members);
        }
        Frame::MergeGrant {
            view_ltime,
            members,
            snapshot,
        } => {
            out.extend_from_slice(&view_ltime.to_le_bytes());
            put_members(&mut out, members);
            out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
            out.extend_from_slice(snapshot);
        }
    }
    let m = mac(&out, key);
    out.extend_from_slice(&m.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
}

/// Decodes and verifies one control frame.
pub fn decode(bytes: &[u8], key: u64) -> Result<Envelope, WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let claimed = u64::from_le_bytes(tail.try_into().unwrap());
    if mac(body, key) != claimed {
        return Err(WireError::BadMac);
    }
    let mut r = Reader { bytes: body, at: 0 };
    if r.u16()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    if r.u8()? != VERSION {
        return Err(WireError::BadVersion);
    }
    let tag = r.u8()?;
    let epoch = r.u64()?;
    let src = Endpoint::from_wire(r.u64()?);
    fn get_members(r: &mut Reader<'_>) -> Result<Vec<Endpoint>, WireError> {
        let n = r.u16()? as usize;
        let mut members = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            members.push(Endpoint::from_wire(r.u64()?));
        }
        Ok(members)
    }
    let frame = match tag {
        TAG_HELLO => Frame::Hello { have: r.u64()? },
        TAG_FENCE => Frame::Fence,
        TAG_HEARTBEAT => Frame::Heartbeat { seq: r.u64()? },
        TAG_WELCOME => {
            let members = get_members(&mut r)?;
            let len = r.u32()? as usize;
            let snapshot = r.take(len)?.to_vec();
            Frame::Welcome { members, snapshot }
        }
        TAG_MERGE_BEACON => {
            let members = get_members(&mut r)?;
            let stalled = r.u8()? != 0;
            let version = r.u64()?;
            Frame::MergeBeacon {
                members,
                stalled,
                version,
            }
        }
        TAG_MERGE_REQUEST => Frame::MergeRequest {
            members: get_members(&mut r)?,
        },
        TAG_MERGE_GRANT => {
            let view_ltime = r.u64()?;
            let members = get_members(&mut r)?;
            let len = r.u32()? as usize;
            let snapshot = r.take(len)?.to_vec();
            Frame::MergeGrant {
                view_ltime,
                members,
                snapshot,
            }
        }
        _ => return Err(WireError::BadTag),
    };
    Ok(Envelope { src, epoch, frame })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0xFEED_F00D;

    fn roundtrip(frame: Frame, epoch: u64) -> Envelope {
        let env = Envelope {
            src: Endpoint::with_incarnation(3, 1),
            epoch,
            frame,
        };
        let bytes = encode(&env, KEY);
        decode(&bytes, KEY).expect("roundtrip decodes")
    }

    #[test]
    fn every_frame_roundtrips() {
        assert_eq!(
            roundtrip(Frame::Hello { have: 0 }, 0).frame,
            Frame::Hello { have: 0 }
        );
        assert_eq!(
            roundtrip(Frame::Hello { have: 917 }, 0).frame,
            Frame::Hello { have: 917 },
            "the resume hint survives the wire"
        );
        assert_eq!(roundtrip(Frame::Fence, 7).epoch, 7);
        assert_eq!(
            roundtrip(Frame::Heartbeat { seq: 42 }, 2).frame,
            Frame::Heartbeat { seq: 42 }
        );
        let w = Frame::Welcome {
            members: vec![Endpoint::new(0), Endpoint::new(5)],
            snapshot: b"kv-state".to_vec(),
        };
        let env = roundtrip(w.clone(), 0);
        assert_eq!(env.frame, w);
        assert_eq!(env.src, Endpoint::with_incarnation(3, 1));
    }

    #[test]
    fn merge_frames_roundtrip() {
        let members = vec![Endpoint::new(4), Endpoint::with_incarnation(5, 2)];
        let b = Frame::MergeBeacon {
            members: members.clone(),
            stalled: true,
            version: 17,
        };
        let env = roundtrip(b.clone(), 3);
        assert_eq!(env.frame, b);
        assert_eq!(env.epoch, 3, "beacon epoch carries the view ltime");
        let rq = Frame::MergeRequest {
            members: members.clone(),
        };
        assert_eq!(roundtrip(rq.clone(), 1).frame, rq);
        let g = Frame::MergeGrant {
            view_ltime: 9,
            members,
            snapshot: b"merged-state".to_vec(),
        };
        assert_eq!(roundtrip(g.clone(), 8).frame, g);
    }

    #[test]
    fn merge_grant_truncation_is_rejected_not_panicked() {
        let env = Envelope {
            src: Endpoint::new(1),
            epoch: 2,
            frame: Frame::MergeGrant {
                view_ltime: 4,
                members: vec![Endpoint::new(0), Endpoint::new(1), Endpoint::new(2)],
                snapshot: vec![7; 64],
            },
        };
        let bytes = encode(&env, KEY);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], KEY).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let env = Envelope {
            src: Endpoint::new(1),
            epoch: 1,
            frame: Frame::Heartbeat { seq: 1 },
        };
        let bytes = encode(&env, KEY);
        assert_eq!(decode(&bytes, KEY + 1), Err(WireError::BadMac));
    }

    #[test]
    fn corruption_is_rejected() {
        let env = Envelope {
            src: Endpoint::new(1),
            epoch: 1,
            frame: Frame::Hello { have: 0 },
        };
        let mut bytes = encode(&env, KEY);
        bytes[5] ^= 0x40;
        assert_eq!(decode(&bytes, KEY), Err(WireError::BadMac));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let env = Envelope {
            src: Endpoint::new(1),
            epoch: 0,
            frame: Frame::Welcome {
                members: vec![Endpoint::new(0), Endpoint::new(1)],
                snapshot: vec![9; 100],
            },
        };
        let bytes = encode(&env, KEY);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], KEY).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn foreign_traffic_is_not_cluster_control() {
        // A well-MACed frame with the wrong magic is still refused.
        let mut raw = Vec::new();
        raw.extend_from_slice(&0xBEEFu16.to_le_bytes());
        raw.push(VERSION);
        raw.push(1);
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&0u64.to_le_bytes());
        let m = super::mac(&raw, KEY);
        raw.extend_from_slice(&m.to_le_bytes());
        assert_eq!(decode(&raw, KEY), Err(WireError::BadMagic));
    }
}
