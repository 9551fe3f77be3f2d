//! Burst ≡ scalar under faults. `DeviceBank::pump` moves a burst per
//! device and direction through `SupervisedDevice::{send_burst,
//! recv_burst}`; the scalar entries `send_pkt`/`recv` are those at n = 1.
//! A twin driven one operation at a time — the pump loop written out
//! with the scalar entries — must therefore be indistinguishable from the
//! real pump: same frames in the same order, every gauge equal, the same
//! health after every round, the same number of operations issued
//! against the fault shim (a faulting op is handled, never re-issued),
//! the same parked/lost split and an exact ledger on both.
//!
//! Policies carry no wall-clock dependence (zero backoffs, a drain
//! deadline that is either already over or an hour away), so the twins
//! cannot drift apart on timing.

use click::core::lang::read_config;
use click::core::registry::Library;
use click::elements::element::{DeviceId, Element};
use click::elements::iodev::{
    DeviceBackend, FaultInjectBackend, HealthPolicy, IoFault, IoResult, MemBackend, MemQueues,
    PumpStats, RetryPolicy, SendOutcome, SupervisedDevice,
};
use click::elements::packet::Packet;
use click::elements::Router;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const HOUR_US: u64 = 3_600_000_000;

fn policies(drain_deadline_us: u64) -> (RetryPolicy, HealthPolicy) {
    (
        RetryPolicy {
            max_retries: 2,
            backoff_base_us: 0,
            backoff_max_us: 0,
            op_deadline_us: HOUR_US,
        },
        HealthPolicy {
            flap_threshold: 2,
            window: 16,
            down_errors: 6,
            recovery_ops: 2,
            reopen_budget: 4,
            drain_deadline_us,
            reopen_backoff_us: 0,
        },
    )
}

/// Counts the scalar operations that reach the backend under it (the
/// provided burst entries make one per frame), and fails TX operations on
/// a schedule — the faults `fault:` cannot inject on that side.
#[derive(Debug)]
struct Probe {
    inner: Box<dyn DeviceBackend>,
    ops: Arc<AtomicU64>,
    sends: u64,
    tx_fault: fn(u64) -> Option<IoFault>,
}

impl DeviceBackend for Probe {
    fn kind(&self) -> &'static str {
        "probe"
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.recv()
    }
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.sends += 1;
        match (self.tx_fault)(self.sends) {
            Some(fault) => Err(fault),
            None => self.inner.send(frame),
        }
    }
    fn reopen(&mut self) -> IoResult<()> {
        self.inner.reopen()
    }
    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Two short writes, then a good one: the sixth error takes the device
/// `Down` through the error window with a retry still allowed.
fn short_writes(op: u64) -> Option<IoFault> {
    (!op.is_multiple_of(3)).then_some(IoFault::Truncated {
        expected: 60,
        got: 30,
    })
}

/// Every fifth frame is refused as corrupt: lost at once, never retried.
fn refusals(op: u64) -> Option<IoFault> {
    op.is_multiple_of(5)
        .then(|| IoFault::Corrupt("refused".to_string()))
}

/// What sits under the supervised device.
enum Case {
    /// The bare `MemBackend`, whose burst overrides then run.
    Mem,
    /// A `fault:` clause list over it (one operation per frame).
    Fault(&'static str),
    /// Scheduled TX faults over it.
    TxFault(fn(u64) -> Option<IoFault>),
}

/// One side of the differential: a supervised device, the far side of
/// its `mem` backend, and how it is driven.
struct Twin {
    bank: Router<Box<dyn Element>>,
    dev: DeviceId,
    far: MemQueues,
    ops: Arc<AtomicU64>,
    scalar: bool,
    /// The scalar twin's own RX and TX queues (the burst twin uses the
    /// bank's).
    rx: VecDeque<Packet>,
    tx: VecDeque<Packet>,
}

impl Twin {
    fn new(case: &Case, deadline_us: u64, scalar: bool) -> Twin {
        let (mem, far) = MemBackend::with_handles();
        let ops = Arc::new(AtomicU64::new(0));
        let backend: Box<dyn DeviceBackend> = match case {
            Case::Mem => Box::new(mem),
            Case::Fault(clauses) => Box::new(Probe {
                inner: Box::new(FaultInjectBackend::parse(clauses, Box::new(mem)).unwrap()),
                ops: ops.clone(),
                sends: 0,
                tx_fault: |_| None,
            }),
            Case::TxFault(tx_fault) => Box::new(Probe {
                inner: Box::new(mem),
                ops: ops.clone(),
                sends: 0,
                tx_fault: *tx_fault,
            }),
        };
        let (retry, health) = policies(deadline_us);
        let graph = read_config("FromDevice(d0) -> Discard;").unwrap();
        let mut bank: Router<Box<dyn Element>> =
            Router::from_graph(&graph, &Library::standard()).unwrap();
        let dev = bank.devices.id("d0").unwrap();
        let sup = SupervisedDevice::with_policies(backend, retry, health);
        bank.devices.attach_supervised(dev, sup);
        Twin {
            bank,
            dev,
            far,
            ops,
            scalar,
            rx: VecDeque::new(),
            tx: VecDeque::new(),
        }
    }

    fn sup(&mut self) -> &mut SupervisedDevice {
        self.bank.devices.backend_mut(self.dev).unwrap()
    }

    fn offer(&mut self, p: Packet) {
        if self.scalar {
            self.tx.push_back(p);
        } else {
            self.bank.devices.tx_push(self.dev, p);
        }
    }

    /// One pump round. The scalar side is `DeviceBank::pump` spelled with
    /// the one-operation entries.
    fn round(&mut self, burst: usize) -> PumpStats {
        if !self.scalar {
            let stats = self.bank.devices.pump(burst);
            while let Some(p) = self.bank.devices.rx_pop(self.dev) {
                self.rx.push_back(p);
            }
            return stats;
        }
        let mut stats = PumpStats::default();
        let (tx, sup) = (
            &mut self.tx,
            self.bank.devices.backend_mut(self.dev).unwrap(),
        );
        sup.tick();
        if !tx.is_empty() && sup.should_drop_pending() {
            stats.lost = tx.len() as u64;
            tx.clear();
            sup.count_drain_lost(stats.lost);
        }
        while let Some(p) = tx.pop_front() {
            match sup.send_pkt(p) {
                SendOutcome::Sent => stats.tx += 1,
                SendOutcome::Lost => stats.lost += 1,
                SendOutcome::Pending(p) => {
                    tx.push_front(p);
                    break;
                }
            }
        }
        for _ in 0..burst {
            let Some(p) = sup.recv() else { break };
            self.rx.push_back(p);
            stats.rx += 1;
        }
        stats
    }

    /// Frames still parked for transmission, oldest first.
    fn parked(&mut self) -> Vec<Vec<u8>> {
        if self.scalar {
            return self.tx.iter().map(|p| p.data().to_vec()).collect();
        }
        let held = self.bank.devices.take_tx(self.dev);
        let bytes = held.iter().map(|p| p.data().to_vec()).collect();
        for p in held {
            self.bank.devices.tx_push(self.dev, p);
        }
        bytes
    }
}

fn frame(i: usize) -> Vec<u8> {
    let mut f = vec![0u8; 60 + i % 7];
    f[..8].copy_from_slice(&(i as u64).to_le_bytes());
    f
}

/// Drives a scalar and a burst twin through the same rounds and holds
/// them equal after each.
fn differential(case: &Case, deadline_us: u64, burst: usize) {
    let what = format!("burst {burst}, drain deadline {deadline_us} us");
    let mut scalar = Twin::new(case, deadline_us, true);
    let mut bursty = Twin::new(case, deadline_us, false);
    let rounds = (768 / burst).max(6);
    let (mut next, mut offered) = (0, 0u64);
    for round in 0..rounds {
        // The last rounds offer nothing new: backlogs drain or are lost.
        let fresh = if round + 3 < rounds { burst } else { 0 };
        for i in next..next + fresh {
            for t in [&mut scalar, &mut bursty] {
                t.far.push_rx(&frame(i));
                t.offer(Packet::from_data(&frame(1_000_000 + i)));
            }
        }
        next += fresh;
        offered += fresh as u64;
        let (s, b) = (scalar.round(burst), bursty.round(burst));
        assert_eq!(s, b, "pump stats, round {round}, {what}");
        assert_eq!(
            scalar.sup().health(),
            bursty.sup().health(),
            "health, round {round}, {what}"
        );
        let (gs, gb) = (scalar.sup().gauges(), bursty.sup().gauges());
        assert_eq!(gs, gb, "gauges, round {round}, {what}");
        assert_eq!(
            scalar.ops.load(Ordering::Relaxed),
            bursty.ops.load(Ordering::Relaxed),
            "operations issued, round {round}, {what}"
        );
        let (ps, pb) = (scalar.parked(), bursty.parked());
        assert_eq!(ps, pb, "parked frames, round {round}, {what}");
        for (t, g) in [(&scalar, &gs), (&bursty, &gb)] {
            assert_eq!(
                offered,
                g.tx_packets + g.drain_lost + ps.len() as u64,
                "offered == tx + lost + parked, round {round}, {what}"
            );
            assert_eq!(g.rx_packets, t.rx.len() as u64);
        }
        assert_eq!(scalar.far.rx_len(), bursty.far.rx_len(), "unread frames");
    }
    let received = |t: &Twin| t.rx.iter().map(|p| p.data().to_vec()).collect::<Vec<_>>();
    assert_eq!(
        received(&scalar),
        received(&bursty),
        "frames received, {what}"
    );
    assert_eq!(
        scalar.far.take_tx(),
        bursty
            .far
            .take_tx()
            .iter()
            .map(|f| f.to_vec())
            .collect::<Vec<_>>()
    );
}

fn all_bursts(case: Case) {
    for deadline_us in [0, HOUR_US] {
        for burst in [1, 8, 64, 256] {
            differential(&case, deadline_us, burst);
        }
    }
}

#[test]
fn bare_mem_backend() {
    all_bursts(Case::Mem);
}

#[test]
fn drops_and_truncation() {
    all_bursts(Case::Fault("DROP 0.2 SEED 3"));
    all_bursts(Case::Fault("TRUNCATE 0.3 SEED 5"));
    all_bursts(Case::Fault("TRUNCATE 0.8 SEED 9"));
}

#[test]
fn eagain_storms() {
    all_bursts(Case::Fault("EAGAIN 0.3 STORM 3 SEED 7"));
    all_bursts(Case::Fault("EAGAIN 0.05 STORM 40 SEED 2"));
}

#[test]
fn down_reopen_and_abandonment() {
    all_bursts(Case::Fault("DOWN-AFTER 40 DOWN-FOR 2"));
    all_bursts(Case::Fault("DOWN-AFTER 300 DOWN-FOR 100"));
}

#[test]
fn wedged_tx() {
    all_bursts(Case::Fault("WEDGE-AFTER 30 DOWN-FOR 1"));
}

#[test]
fn every_clause_at_once() {
    all_bursts(Case::Fault(
        "DROP 0.1 TRUNCATE 0.2 EAGAIN 0.2 STORM 2 DOWN-AFTER 200 DOWN-FOR 3 SEED 11",
    ));
}

#[test]
fn tx_faults_the_shim_cannot_inject() {
    all_bursts(Case::TxFault(short_writes));
    all_bursts(Case::TxFault(refusals));
}

/// A `close()` between bursts leaves the unread frames queued and
/// `rx_len()` truthful; a re-open delivers them, in order.
#[test]
fn close_mid_stream_keeps_unread_frames() {
    let (mut mem, far) = MemBackend::with_handles();
    (0..10).for_each(|i| far.push_rx(&frame(i)));
    let mut got = VecDeque::new();
    assert_eq!(mem.recv_burst(4, &mut got), (4, None));
    far.close();
    let (n, stop) = mem.recv_burst(4, &mut got);
    assert!(matches!((n, stop), (0, Some(Err(IoFault::Down(_))))));
    assert_eq!(far.rx_len(), 6);
    mem.reopen().unwrap();
    assert_eq!(
        mem.recv_burst(64, &mut got),
        (6, Some(Err(IoFault::WouldBlock)))
    );
    let bytes: Vec<Vec<u8>> = got.iter().map(|p| p.data().to_vec()).collect();
    assert_eq!(bytes, (0..10).map(frame).collect::<Vec<_>>());
}

/// `mem:` echo keeps a burst in order.
#[test]
fn echo_preserves_burst_order() {
    let mut echo = MemBackend::echo();
    let mut q: VecDeque<Packet> = (0..32).map(|i| Packet::from_data(&frame(i))).collect();
    assert_eq!(echo.send_burst(&mut q), (32, None));
    assert_eq!(echo.recv_burst(32, &mut q), (32, None));
    let bytes: Vec<Vec<u8>> = q.iter().map(|p| p.data().to_vec()).collect();
    assert_eq!(bytes, (0..32).map(frame).collect::<Vec<_>>());
}
