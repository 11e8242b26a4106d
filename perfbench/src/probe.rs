//! Outside-in tracing: decorators around the public `Transport` and
//! `StorageMedium` seams that count and time the traffic the program
//! hands them. Only the traced pass installs them.

use crate::stats::Samples;
use ensemble_kv::StorageMedium;
use ensemble_runtime::{Transport, TransportIoErrors, Waker};
use ensemble_transport::Packet;
use ensemble_util::Endpoint;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every `SEND_SAMPLE`-th send is timed; all are counted.
const SEND_SAMPLE: u64 = 4;

/// What the wrapped transports of one plane sent.
#[derive(Default)]
pub struct TransportTally {
    pub pkts: AtomicU64,
    pub bytes: AtomicU64,
    pub send_ns: Mutex<Samples>,
}

impl TransportTally {
    /// `(packets, bytes)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.pkts.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// A transport that counts and samples the time of every send.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    tally: Arc<TransportTally>,
}

impl CountingTransport {
    pub fn wrap(
        inner: impl Transport + 'static,
        tally: &Arc<TransportTally>,
    ) -> Box<dyn Transport> {
        Box::new(CountingTransport {
            inner: Box::new(inner),
            tally: Arc::clone(tally),
        })
    }

    fn timed(
        &mut self,
        pkt: &Packet,
        f: impl FnOnce(&mut dyn Transport) -> io::Result<()>,
    ) -> io::Result<()> {
        let n = self.tally.pkts.fetch_add(1, Ordering::Relaxed);
        self.tally
            .bytes
            .fetch_add(pkt.bytes.len() as u64, Ordering::Relaxed);
        if !n.is_multiple_of(SEND_SAMPLE) {
            return f(self.inner.as_mut());
        }
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t0.elapsed().as_nanos() as f64;
        self.tally
            .send_ns
            .lock()
            .expect("send samples poisoned")
            .push(ns);
        r
    }
}

impl Transport for CountingTransport {
    fn local_ep(&self) -> Endpoint {
        self.inner.local_ep()
    }

    fn send(&mut self, pkt: &Packet) -> io::Result<()> {
        self.timed(pkt, |t| t.send(pkt))
    }

    fn try_recv(&mut self) -> io::Result<Option<Packet>> {
        self.inner.try_recv()
    }

    fn send_at(&mut self, pkt: &Packet, origin_ns: u64) -> io::Result<()> {
        self.timed(pkt, |t| t.send_at(pkt, origin_ns))
    }

    fn try_recv_stamped(&mut self) -> io::Result<Option<(Packet, Option<u64>)>> {
        self.inner.try_recv_stamped()
    }

    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }

    fn set_waker(&mut self, waker: Arc<Waker>) {
        self.inner.set_waker(waker)
    }

    fn take_io_errors(&mut self) -> TransportIoErrors {
        self.inner.take_io_errors()
    }
}

/// What the wrapped storage media of one role (log or checkpoint
/// slots) did.
#[derive(Default)]
pub struct StorageTally {
    pub appends: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub append_us: Samples,
    pub sync_us: Samples,
}

/// A storage medium that counts and times appends and syncs.
pub struct TimedStorage {
    inner: Box<dyn StorageMedium>,
    tally: Arc<Mutex<StorageTally>>,
}

impl TimedStorage {
    pub fn wrap(
        inner: impl StorageMedium + 'static,
        tally: &Arc<Mutex<StorageTally>>,
    ) -> Box<dyn StorageMedium> {
        Box::new(TimedStorage {
            inner: Box::new(inner),
            tally: Arc::clone(tally),
        })
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, StorageTally> {
        self.tally.lock().expect("storage tally poisoned")
    }
}

impl StorageMedium for TimedStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(bytes);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        let mut t = self.tally();
        t.appends += 1;
        t.bytes += bytes.len() as u64;
        t.append_us.push(us);
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        let mut t = self.tally();
        t.syncs += 1;
        t.sync_us.push(us);
        r
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.inner.truncate()
    }

    fn durable_len(&mut self) -> io::Result<u64> {
        self.inner.durable_len()
    }
}
