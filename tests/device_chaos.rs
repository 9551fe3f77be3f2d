//! Device-chaos suite: kill, storm, and wedge the real-I/O backends
//! mid-stream and prove the supervision layer degrades gracefully with
//! an exact loss ledger.
//!
//! The contracts under test (see `crates/elements/src/iodev.rs`):
//!
//! * a device that goes hard `Down` mid-run (injected `DOWN-AFTER`) must
//!   not stop forwarding: RX keeps flowing, pending TX is flushed within
//!   the drain deadline or *counted* lost, and the accounting is exact —
//!   `injected == tx + total_drops()`, the engine's drop gauge counting
//!   the supervision layer's `drain_lost` alongside router drops;
//! * an `EAGAIN` storm is absorbed by bounded retry/backoff inside the
//!   op deadline; nothing is lost, and the gauges record every block,
//!   retry, and backoff;
//! * a killed RX source is re-opened automatically within the recovery
//!   budget (`Down -> Recovering -> Up`) and the trace completes;
//! * a device whose re-opens are refused past the budget is *abandoned*:
//!   it stays `Down`, everything queued for it becomes counted loss, and
//!   the rest of the router keeps running.

use click::core::lang::read_config;
use click::core::RouterGraph;
use click::elements::engine::{self, Engine};
use click::elements::headers::build_udp_packet;
use click::elements::iodev::{
    DeviceBackend, FaultInjectBackend, HealthPolicy, MemBackend, MemQueues, RetryPolicy,
    SupervisedDevice,
};
use click::elements::parallel::ParallelOpts;
use std::time::{Duration, Instant};

const FRAMES: usize = 400;

fn chaos_graph() -> RouterGraph {
    read_config("FromDevice(in0) -> Counter -> Queue(8192) -> ToDevice(out0);")
        .expect("chaos graph parses")
}

fn router_4shard(graph: &RouterGraph) -> Box<dyn Engine> {
    engine::open(graph, ParallelOpts::new(4).batched(8)).expect("4-shard router builds")
}

/// Attaches `backend` (default supervision) under device `name`.
fn attach(e: &mut dyn Engine, name: &str, backend: impl DeviceBackend + 'static) {
    attach_supervised(e, name, SupervisedDevice::new(Box::new(backend)));
}

fn attach_supervised(e: &mut dyn Engine, name: &str, sup: SupervisedDevice) {
    let dev = e.device(name).expect("chaos graph has the device");
    e.attach_supervised(dev, sup);
}

/// The device side of the ledger: frames received from `in0`'s backend,
/// delivered to `out0`'s, and declared lost by the supervision layer
/// (the last already inside [`Engine::total_drops`]).
struct DeviceLedger {
    injected: u64,
    sent: u64,
    lost: u64,
}

fn device_ledger(e: &dyn Engine) -> DeviceLedger {
    let g = e.gauges().devices;
    DeviceLedger {
        injected: g[0].rx_packets,
        sent: g[1].tx_packets,
        lost: g.iter().map(|g| g.drain_lost).sum(),
    }
}

/// A UDP frame of flow `sport` so 4-shard steering spreads the trace.
fn frame(i: usize) -> Vec<u8> {
    let sport = 2000 + (i as u16 % 32);
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
    let len = p.len();
    p.data_mut()[len - 1] = i as u8;
    let bytes = p.data().to_vec();
    p.recycle();
    bytes
}

/// Test-speed supervision: microsecond backoffs, a drain deadline short
/// enough to expire inside the test, default-shaped thresholds.
fn fast_policies(drain_deadline_us: u64, reopen_budget: u32) -> (RetryPolicy, HealthPolicy) {
    (
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 1,
            backoff_max_us: 20,
            op_deadline_us: 500,
        },
        HealthPolicy {
            flap_threshold: 3,
            window: 16,
            down_errors: 6,
            recovery_ops: 2,
            reopen_budget,
            drain_deadline_us,
            reopen_backoff_us: 200,
        },
    )
}

/// Trickles the `FRAMES`-frame trace into `source` — 16 frames per device
/// round, at least 200 µs apart, so the trace spans 5 ms and the longest
/// injected outage (re-opens refused for 1.4 ms) plays out while traffic
/// is still arriving — and keeps running rounds until the ledger balances
/// at a quiescent point (source drained, every frame sent or counted) or
/// the deadline passes.
fn pump_to_quiescence(e: &mut dyn Engine, source: &MemQueues) -> DeviceLedger {
    let total = FRAMES as u64;
    let mut fed = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if fed < FRAMES {
            for i in fed..(fed + 16).min(FRAMES) {
                source.push_rx(&frame(i));
            }
            fed = (fed + 16).min(FRAMES);
            std::thread::sleep(Duration::from_micros(200));
        }
        e.run_devices(1).expect("device round");
        let l = device_ledger(e);
        if l.injected == total && source.rx_len() == 0 && l.sent + e.total_drops() == total {
            return l;
        }
    }
    let l = device_ledger(e);
    panic!(
        "no quiescence: injected {} sent {} lost {} drops {}",
        l.injected,
        l.sent,
        l.lost,
        e.total_drops()
    );
}

#[test]
fn tx_device_killed_mid_run_keeps_exact_ledger() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);

    let (in_be, in_q) = MemBackend::with_handles();
    attach(&mut *r, "in0", in_be);

    // The TX device dies mid-run and refuses its first three re-opens:
    // with 200 µs re-open backoff doubling per refusal, the outage
    // outlives the 300 µs drain deadline, so some pending TX *must*
    // become counted loss before the device comes back.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::parse("DOWN-AFTER 120, DOWN-FOR 3", Box::new(out_be)).unwrap();
    let (retry, health) = fast_policies(300, 16);
    attach_supervised(
        &mut *r,
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    let l = pump_to_quiescence(&mut *r, &in_q);

    // Exact ledger: every injected frame is transmitted, counted lost,
    // or a counted router drop — nothing vanishes.
    assert_eq!(l.injected, FRAMES as u64);
    assert_eq!(
        l.injected,
        l.sent + r.total_drops(),
        "ledger must balance exactly"
    );
    assert!(
        r.total_drops() >= l.lost,
        "counted loss is in the drop gauge"
    );
    assert_eq!(out_q.tx_len() as u64, l.sent);

    // The outage is visible in the gauges, and the device recovered.
    let g = &r.gauges().devices[1];
    assert_eq!(g.device, "out0");
    assert!(g.flaps >= 1, "flap gauge: {g:?}");
    assert!(g.down_events >= 1, "down gauge: {g:?}");
    assert!(g.reopens >= 1, "reopen gauge: {g:?}");
    assert!(g.drain_lost >= 1, "loss gauge: {g:?}");
    assert!(l.lost >= 1);
    assert!(
        g.health == "up" || g.health == "recovering",
        "device must be back after the flap: {g:?}"
    );
    // Forwarding continued after the flap: more frames were delivered
    // than could have been before the kill at op 120.
    assert!(l.sent > 120, "forwarding must survive the outage");
}

#[test]
fn eagain_storm_is_absorbed_without_loss() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);

    let (in_be, in_q) = MemBackend::with_handles();
    attach(&mut *r, "in0", in_be);

    // A bursty TX device: 25% of ops start a 4-op EAGAIN storm. With a
    // generous drain deadline every frame must still get through.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault =
        FaultInjectBackend::parse("EAGAIN 0.25, STORM 4, SEED 9", Box::new(out_be)).unwrap();
    let (retry, health) = fast_policies(1_000_000, 8);
    attach_supervised(
        &mut *r,
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    let l = pump_to_quiescence(&mut *r, &in_q);

    assert_eq!(l.injected, FRAMES as u64);
    assert_eq!(l.sent, FRAMES as u64, "a storm must not lose frames");
    assert_eq!(l.lost, 0);
    assert_eq!(r.total_drops(), 0);
    assert_eq!(out_q.tx_len(), FRAMES);

    let g = &r.gauges().devices[1];
    assert!(g.would_blocks > 0, "storm must be visible: {g:?}");
    assert!(g.retries > 0, "retries must be counted: {g:?}");
    assert!(g.backoffs > 0, "backoffs must be counted: {g:?}");
}

#[test]
fn rx_device_killed_mid_run_replugs_within_budget() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);

    // The RX source dies after 150 ops and refuses two re-opens; the
    // supervision layer must re-plug it within the budget and finish the
    // trace with zero loss (the kill consumes no frame).
    let (in_be, in_q) = MemBackend::with_handles();
    let fault = FaultInjectBackend::parse("DOWN-AFTER 150, DOWN-FOR 2", Box::new(in_be)).unwrap();
    let (retry, health) = fast_policies(1_000_000, 16);
    attach_supervised(
        &mut *r,
        "in0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    let (out_be, out_q) = MemBackend::with_handles();
    attach(&mut *r, "out0", out_be);

    let l = pump_to_quiescence(&mut *r, &in_q);

    assert_eq!(l.injected, FRAMES as u64, "the whole trace must arrive");
    assert_eq!(l.sent, FRAMES as u64);
    assert_eq!(l.lost, 0);
    assert_eq!(out_q.tx_len(), FRAMES);

    let g = &r.gauges().devices[0];
    assert_eq!(g.device, "in0");
    assert!(g.flaps >= 1, "kill must register: {g:?}");
    assert!(g.down_events >= 1, "down must register: {g:?}");
    assert!(g.reopens >= 1, "re-plug must register: {g:?}");
    assert!(
        g.health == "up" || g.health == "recovering",
        "device must be back: {g:?}"
    );
}

#[test]
fn abandoned_tx_device_turns_backlog_into_counted_loss() {
    let graph = chaos_graph();
    let mut r = router_4shard(&graph);

    let (in_be, in_q) = MemBackend::with_handles();
    attach(&mut *r, "in0", in_be);

    // Dead for good: every re-open is refused, and the budget is tiny.
    let (out_be, out_q) = MemBackend::with_handles();
    let fault =
        FaultInjectBackend::parse("DOWN-AFTER 60, DOWN-FOR 1000000", Box::new(out_be)).unwrap();
    let (retry, health) = fast_policies(300, 3);
    attach_supervised(
        &mut *r,
        "out0",
        SupervisedDevice::with_policies(Box::new(fault), retry, health),
    );

    let l = pump_to_quiescence(&mut *r, &in_q);

    // The router itself never stalled: the whole trace was injected and
    // every frame is accounted as sent-before-death or counted loss.
    assert_eq!(l.injected, FRAMES as u64);
    assert_eq!(
        l.injected,
        l.sent + r.total_drops(),
        "ledger must balance exactly even for an abandoned device"
    );
    assert!(
        r.total_drops() >= l.lost,
        "counted loss is in the drop gauge"
    );
    assert_eq!(out_q.tx_len() as u64, l.sent);
    assert!(l.lost > 0, "the backlog must be counted, not leaked");

    let g = &r.gauges().devices[1];
    assert_eq!(g.health, "down", "an abandoned device stays down: {g:?}");
    assert!(g.drain_lost > 0, "{g:?}");
    assert_eq!(g.reopens, 0, "no refused re-open may count as success");
}
