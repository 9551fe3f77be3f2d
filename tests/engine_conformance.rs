//! `Engine` conformance: one script, driven through `dyn Engine`, must
//! read the same on every engine — dyn or compiled dispatch, serial or
//! 2-shard runtime. After every step the ledger
//! `offered == tx + total_drops()` must close exactly and the statistics
//! read through `dyn Engine` must be equal across engines, and so must
//! the bytes forwarded (sorted: inter-flow order is scheduling-dependent
//! on the sharded runtime).
//!
//! The script: inject → settle → drain; a hot swap over buffered
//! traffic; a checkpoint cut with traffic still pending → wire round
//! trip → `engine::restore` → resume; then device rounds over
//! `MemBackend`s with another swap in the middle, where every frame the
//! engine reports sent must be on the backend's TX side.

use click::core::lang::{read_config, write_config};
use click::core::RouterGraph;
use click::elements::batch::PacketBatch;
use click::elements::engine::{self, Engine};
use click::elements::headers::build_udp_packet;
use click::elements::iodev::{MemBackend, PumpStats, SupervisedDevice};
use click::elements::packet::Packet;
use click::elements::parallel::ParallelOpts;
use click::elements::persist::{config_hash, Checkpoint, CheckpointLedger};
use std::time::{Duration, Instant};

/// Forwards UDP destination port 9 and drops (counted) everything else,
/// so the drop side of the ledger is never trivially zero.
const BASE: &str = "FromDevice(in0) -> cls :: Classifier(36/0009); \
                    cls [0] -> c :: Counter -> q :: Queue(4096) -> ToDevice(out0);";

/// The swap target: same forwarding, one more stateful element.
const SWAPPED: &str = "FromDevice(in0) -> cls :: Classifier(36/0009); \
                       cls [0] -> c :: Counter -> c2 :: Counter -> q :: Queue(4096) \
                       -> ToDevice(out0);";

/// True for the frames the classifier drops: every fourth round of the
/// 16 flows, so any 64-frame-aligned window costs every flow — and with
/// it every shard, which is what a canary compares — the same 25%.
fn dropped(i: usize) -> bool {
    (i / 16).is_multiple_of(4)
}

/// Frame `i` of the trace: 16 flows round-robin, the index in the last
/// two payload bytes.
fn frame(i: usize) -> Vec<u8> {
    let dport = if dropped(i) { 10 } else { 9 };
    let sport = 2000 + (i % 16) as u16;
    let mut p = build_udp_packet(
        [1; 6],
        [2; 6],
        0x0A00_0002,
        0x0A00_0102,
        sport,
        dport,
        18,
        64,
    );
    let n = p.len();
    p.data_mut()[n - 2..].copy_from_slice(&(i as u16).to_be_bytes());
    let bytes = p.data().to_vec();
    p.recycle();
    bytes
}

fn forwarded(range: std::ops::Range<usize>) -> usize {
    range.filter(|&i| !dropped(i)).count()
}

/// The script's running books.
struct Books {
    offered: u64,
    frames: Vec<Vec<u8>>,
    /// What `check` read after each step.
    stats: Vec<Stats>,
}

/// The statistics read through `dyn Engine` after a step. `c` and `cls`
/// are reused by every swap, and the classifier's drops are counted by
/// frame, so their sums do not depend on which shard ran a frame under
/// which graph; `c2` exists only under the swapped graph.
#[derive(Debug, PartialEq)]
struct Stats {
    step: &'static str,
    c: Option<u64>,
    c2: bool,
    cls_drops: Option<u64>,
    classifier_drops: u64,
    queue_drops: u64,
    unconnected: u64,
    reentrant: u64,
}

impl Books {
    fn feed(&mut self, e: &mut dyn Engine, range: std::ops::Range<usize>) {
        let in0 = e.device("in0").expect("in0");
        for i in range {
            e.inject(in0, Packet::from_data(&frame(i)));
            self.offered += 1;
        }
    }

    /// Drains every simulated TX queue into the books.
    fn drain(&mut self, e: &mut dyn Engine) {
        let mut tx = PacketBatch::new();
        e.drain_all_tx_into(&mut tx);
        for p in tx.drain() {
            self.frames.push(p.data().to_vec());
            p.recycle();
        }
    }

    fn check(&mut self, e: &dyn Engine, step: &'static str) {
        assert_eq!(
            self.offered,
            self.frames.len() as u64 + e.total_drops(),
            "{step}: offered == tx + total_drops()"
        );
        self.stats.push(Stats {
            step,
            c: e.stat("c", "count"),
            c2: e.stat("c2", "count").is_some(),
            cls_drops: e.stat("cls", "drops"),
            classifier_drops: e.class_stat("Classifier", "drops"),
            queue_drops: e.class_stat("Queue", "drops"),
            unconnected: e.unconnected_drops(),
            reentrant: e.reentrant_drops(),
        });
    }
}

/// Every engine corner as `(compiled, shards)`; the first is the
/// reference.
const ENGINES: [(bool, usize); 4] = [(false, 1), (true, 1), (false, 2), (true, 2)];

fn opts(shards: usize) -> ParallelOpts {
    match shards {
        1 => ParallelOpts::new(1),
        n => ParallelOpts::new(n).batched(8),
    }
}

fn script(
    graph: &RouterGraph,
    swapped: &RouterGraph,
    compiled: bool,
    shards: usize,
) -> (Vec<Vec<u8>>, Vec<Stats>) {
    let mut e = engine::open(graph, compiled, opts(shards)).expect("engine opens");
    assert_eq!(e.device_names(), ["in0", "out0"]);
    let mut b = Books {
        offered: 0,
        frames: Vec::new(),
        stats: Vec::new(),
    };

    // 1. inject -> settle -> drain.
    b.feed(&mut *e, 0..128);
    e.settle();
    b.drain(&mut *e);
    assert_eq!(b.frames.len(), forwarded(0..128));
    b.check(&*e, "settle");

    // 2. Hot swap over buffered traffic (the sharded canary's window):
    //    a configuration that fails its check is refused, the next one
    //    installs, and the engine's own swap gauges say so.
    b.feed(&mut *e, 128..256);
    let invalid = read_config("FromDevice(in0) -> NoSuchClass -> ToDevice(out0);").unwrap();
    assert!(e.hot_swap(&invalid).is_err());
    let report = e.hot_swap(swapped).expect("swap installs");
    assert!(!report.rolled_back, "{report:?}");
    // cls, c and q are unchanged and move over; the two device elements
    // are rebuilt; c2 is new.
    assert_eq!(
        (report.reused, report.matched, report.fresh, report.retired),
        (3, 2, 1, 0),
        "{report:?}"
    );
    assert_eq!(report.canary_shard.is_some(), shards > 1);
    e.settle();
    b.drain(&mut *e);
    b.check(&*e, "hot_swap");
    let g = e.gauges();
    let swap = g.swap.expect("both runtimes count their swaps");
    assert_eq!(
        (
            swap.swaps,
            swap.rejected_configs,
            swap.rollbacks,
            swap.canary_failures
        ),
        (1, 1, 0, 0)
    );
    assert_eq!(swap.packets_transferred, report.packets_transferred);
    assert_eq!(
        (g.shards.len(), g.steering.is_some(), g.faults.is_some()),
        (if shards > 1 { shards } else { 0 }, shards > 1, shards > 1),
        "shards, steering and faults are the sharded runtime's sections"
    );

    // 3. Cut with traffic still pending, round-trip the wire format,
    //    restore into a fresh engine, resume.
    b.feed(&mut *e, 256..320);
    let snap = e.checkpoint_snapshot().expect("snapshot cuts");
    let config = write_config(swapped);
    let ckpt = Checkpoint {
        generation: 1,
        config_hash: config_hash(&config),
        config,
        ledger: CheckpointLedger {
            injected: b.offered,
            tx: b.frames.len() as u64,
            drops: snap.total_drops,
        },
        quiesce_ns: snap.quiesce_ns,
        elements: snap.elements,
        devices: snap.devices,
    };
    drop(e);
    let ckpt = Checkpoint::decode(&ckpt.encode()).expect("wire round trip");
    let (mut e, stats) = engine::restore(&ckpt, compiled, opts(shards)).expect("warm restart");
    assert_eq!(stats.unmatched, 0);
    assert_eq!(stats.packets_restored, 64, "the pending window comes back");
    assert_eq!(e.total_drops(), ckpt.ledger.drops);
    b.feed(&mut *e, 320..384);
    e.settle();
    b.drain(&mut *e);
    assert_eq!(b.frames.len(), forwarded(0..384));
    b.check(&*e, "restore");

    // 4. Device rounds over MemBackends, swapping back mid-trace: what
    //    the engine reports sent is what the backend holds.
    let (in_be, in_q) = MemBackend::with_handles();
    let (out_be, out_q) = MemBackend::with_handles();
    for (name, be) in [("in0", in_be), ("out0", out_be)] {
        let dev = e.device(name).expect("device");
        e.attach_supervised(dev, SupervisedDevice::new(Box::new(be)));
    }
    let mut pumped = PumpStats::default();
    for (range, swap_to) in [(384..448, None), (448..512, Some(graph))] {
        for i in range.clone() {
            in_q.push_rx(&frame(i));
        }
        if let Some(g) = swap_to {
            e.hot_swap(g).expect("swap back installs");
        }
        let want = forwarded(384..range.end);
        let deadline = Instant::now() + Duration::from_secs(20);
        while (pumped.tx < want || in_q.rx_len() > 0) && Instant::now() < deadline {
            pumped.absorb(e.run_devices(2).expect("device round"));
        }
        assert_eq!(pumped.tx, want, "device round {range:?}");
        assert_eq!(out_q.tx_len(), pumped.tx, "sent frames are on the backend");
    }
    assert_eq!((pumped.rx, pumped.lost), (128, 0));
    b.offered += pumped.rx as u64;
    b.frames.extend(out_q.take_tx().into_iter().map(Vec::from));
    b.check(&*e, "run_devices");
    let g = e.gauges();
    assert_eq!(
        (g.devices[0].rx_packets, g.devices[1].tx_packets),
        (128, pumped.tx as u64)
    );
    assert_eq!(
        g.swap.map(|s| s.swaps),
        Some(1),
        "counted since the restart"
    );

    b.frames.sort();
    (b.frames, b.stats)
}

#[test]
fn one_script_reads_the_same_on_all_four_engines() {
    let graph = read_config(BASE).unwrap();
    let swapped = read_config(SWAPPED).unwrap();
    let (reference, stats) = script(&graph, &swapped, false, 1);
    let mut want: Vec<Vec<u8>> = (0..512usize).filter(|&i| !dropped(i)).map(frame).collect();
    want.sort();
    assert_eq!(reference, want, "the pipeline forwards frames unchanged");
    assert_eq!(
        stats.iter().map(|s| (s.step, s.c)).collect::<Vec<_>>(),
        [
            ("settle", Some(96)),
            ("hot_swap", Some(192)),
            ("restore", Some(288)),
            ("run_devices", Some(384)),
        ],
        "the counter counts every forwarded frame, across swaps and restore"
    );
    for (compiled, shards) in ENGINES.into_iter().skip(1) {
        let (frames, other) = script(&graph, &swapped, compiled, shards);
        assert_eq!(frames, reference, "compiled={compiled} shards={shards}");
        assert_eq!(other, stats, "compiled={compiled} shards={shards}");
    }
}

#[test]
fn a_missing_route_is_a_counted_drop_on_every_engine() {
    let graph = read_config(
        "FromDevice(in0) -> Strip(14) -> rt :: StaticIPLookup(10.0.0.0/8 0) \
         -> Queue -> ToDevice(out0);",
    )
    .unwrap();
    for (compiled, shards) in ENGINES {
        let mut e = engine::open(&graph, compiled, opts(shards)).expect("engine opens");
        let in0 = e.device("in0").expect("in0");
        for dst in [0x0A00_0001, 0xC0A8_0001] {
            let p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, dst, 2000, 9, 18, 64);
            e.inject(in0, p);
        }
        e.settle();
        let mut tx = PacketBatch::new();
        let sent = e.drain_all_tx_into(&mut tx);
        tx.recycle_packets();
        assert_eq!(
            (sent, e.total_drops()),
            (1, 1),
            "compiled={compiled} shards={shards}: offered == tx + total_drops()"
        );
    }
}
