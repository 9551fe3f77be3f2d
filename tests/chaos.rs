//! Chaos suite: kill, wedge, and starve worker shards on purpose and
//! prove the sharded runtime degrades instead of dying.
//!
//! The contract under test (see `crates/elements/src/parallel.rs`):
//!
//! * a `FaultInject(PANIC …)` in one shard must not abort the process —
//!   the panic is caught in the worker, the supervisor salvages the dead
//!   shard's in-flight rings, and forwarding continues on the survivors
//!   (degraded mode) or on a restarted shard;
//! * per-flow order holds for flows homed on surviving shards;
//! * loss is bounded by the dead shard's in-flight occupancy at kill
//!   time, and the accounting is exact:
//!   `injected == tx + lost + no_live_shard_drops`;
//! * a wedged (livelocked) shard surfaces as a typed backpressure
//!   timeout, never as a hang, and `Drop` still returns;
//! * an abortive teardown recycles every buffered packet it can reach,
//!   so pool accounting balances.

use click::core::lang::read_config;
use click::core::RouterGraph;
use click::elements::element::Element;
use click::elements::headers::build_udp_packet;
use click::elements::packet::{self, Packet};
use click::elements::parallel::{ParallelOpts, ParallelRouter};
use click::elements::telemetry::FaultGauges;
use std::time::Duration;

/// The forwarding graph every test uses; `fault_cfg` is the
/// `FaultInject` configuration armed on the path.
fn chaos_graph(fault_cfg: &str) -> RouterGraph {
    read_config(&format!(
        "FromDevice(in0) -> FaultInject({fault_cfg}) -> c :: Counter \
         -> Queue(8192) -> ToDevice(out0);"
    ))
    .expect("chaos graph parses")
}

/// A UDP packet of flow `sport` with sequence number `seq` in the last
/// payload byte.
fn udp(sport: u16, seq: u8) -> Packet {
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
    let n = p.len();
    p.data_mut()[n - 1] = seq;
    p
}

/// Source ports of `per_shard` flows homed on each of the router's
/// shards (when all shards are live), found by probing the steering
/// function — so tests control exactly how much traffic a target shard
/// receives.
fn flows_per_shard(r: &ParallelRouter, per_shard: usize) -> Vec<Vec<u16>> {
    let dev = r.device_id("in0").expect("in0 exists");
    let mut flows: Vec<Vec<u16>> = vec![Vec::new(); r.shards()];
    let mut sport = 2000u16;
    while flows.iter().any(|f| f.len() < per_shard) {
        let home = r.shard_for(udp(sport, 0).data(), dev);
        if flows[home].len() < per_shard {
            flows[home].push(sport);
        }
        sport += 1;
    }
    flows
}

/// Per-flow sequence numbers observed on the output device.
fn flow_seqs(tx: &[Packet]) -> Vec<(u16, Vec<u8>)> {
    let mut flows: Vec<(u16, Vec<u8>)> = Vec::new();
    for p in tx {
        let sport = click::elements::steer::flow_key(p.data())
            .expect("udp frame")
            .3;
        let seq = p.data()[p.len() - 1];
        match flows.iter_mut().find(|(k, _)| *k == sport) {
            Some((_, seqs)) => seqs.push(seq),
            None => flows.push((sport, vec![seq])),
        }
    }
    flows
}

const KILLED: usize = 2;
const PER_SHARD_FLOWS: usize = 8;
const PER_FLOW: u8 = 25;

/// Injects one full wave (every flow, `PER_FLOW` packets, interleaved)
/// and returns how many packets went in.
fn inject_wave(r: &mut ParallelRouter, flows: &[Vec<u16>], base_seq: u8) -> u64 {
    let dev = r.device_id("in0").expect("in0 exists");
    let mut injected = 0;
    for seq in 0..PER_FLOW {
        for shard_flows in flows {
            for &sport in shard_flows {
                r.inject(dev, udp(sport, base_seq + seq));
                injected += 1;
            }
        }
    }
    injected
}

/// Per-flow order after shard `KILLED` died: flows homed on survivors
/// arrive complete (`0..per_flow`) and in order; the dead shard's flows
/// may have a gap (the in-flight loss) but never reorder.
fn assert_per_flow_order(tx: &[Packet], flows: &[Vec<u16>], per_flow: u8) {
    let observed = flow_seqs(tx);
    for (shard, shard_flows) in flows.iter().enumerate() {
        for &sport in shard_flows {
            let seqs = &observed
                .iter()
                .find(|(k, _)| *k == sport)
                .unwrap_or_else(|| panic!("flow {sport} vanished entirely"))
                .1;
            if shard == KILLED {
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "dead-homed flow {sport} reordered: {seqs:?}"
                );
            } else {
                assert_eq!(
                    *seqs,
                    (0..per_flow).collect::<Vec<u8>>(),
                    "survivor-homed flow {sport} lost or reordered packets"
                );
            }
        }
    }
}

#[test]
fn killing_one_of_four_shards_degrades_gracefully() {
    // Shard KILLED's FaultInject panics on the 151st packet it sees;
    // the other shards' clones stay transparent (SHARD clause).
    let g = chaos_graph(&format!("PANIC 1, AFTER 150, SHARD {KILLED}"));
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(4).batched(8))
        .expect("router builds");
    let out0 = r.device_id("out0").expect("out0 exists");
    let flows = flows_per_shard(&r, PER_SHARD_FLOWS);

    // Wave 1 delivers 8 × 25 = 200 packets to each shard: shard KILLED
    // dies mid-wave. The process must not abort and the call must return.
    let mut injected = inject_wave(&mut r, &flows, 0);
    r.run_until_idle();
    let faults = r.fault_gauges();
    assert_eq!(faults.shard_deaths, 1, "exactly one shard died");
    assert_eq!(faults.degraded_entries, 1, "death degraded, no restart");
    assert_eq!(faults.restarts, 0);
    assert_eq!(faults.live_shards, 3);
    assert_eq!(faults.shards, 4);
    assert_eq!(faults.no_live_shard_drops, 0);
    assert!(faults.lost_packets >= 1, "the panicking packet is lost");
    // Loss bound: at most the worker's in-flight window at kill time —
    // the batches it had popped but not completed (≤ 16 items × burst 8).
    assert!(
        faults.lost_packets <= 128,
        "loss {} exceeds the in-flight bound",
        faults.lost_packets
    );

    // Wave 2: forwarding must continue on the three survivors, with the
    // dead shard's flows re-homed.
    injected += inject_wave(&mut r, &flows, PER_FLOW);
    r.run_until_idle();
    let faults = r.fault_gauges();
    assert_eq!(faults.shard_deaths, 1, "no further deaths");
    assert_eq!(faults.no_live_shard_drops, 0);

    // Exact accounting: every injected packet is either in the TX bank
    // or counted lost.
    let tx = r.take_tx(out0);
    assert_eq!(
        tx.len() as u64 + faults.lost_packets,
        injected,
        "injected packets must be transmitted or accounted lost"
    );

    assert_per_flow_order(&tx, &flows, 2 * PER_FLOW);
    r.shutdown();
}

#[test]
fn restart_policy_respawns_the_dead_shard() {
    let g = chaos_graph(&format!("PANIC 1, AFTER 150, SHARD {KILLED}"));
    let opts = ParallelOpts::new(4).batched(8).restart_on_fault(8);
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).expect("router builds");
    let out0 = r.device_id("out0").expect("out0 exists");
    let flows = flows_per_shard(&r, PER_SHARD_FLOWS);

    // Wave 1 (200 packets to the doomed shard) kills it once; the
    // supervisor restarts it from the retained graph. The restarted
    // clone's FaultInject counts from zero, so wave 2 kills it again.
    let mut injected = inject_wave(&mut r, &flows, 0);
    r.run_until_idle();
    injected += inject_wave(&mut r, &flows, PER_FLOW);
    r.run_until_idle();

    let faults = r.fault_gauges();
    assert_eq!(faults.shard_deaths, 2, "one death per wave");
    assert_eq!(faults.restarts, 2, "every death restarted");
    assert_eq!(faults.degraded_entries, 0, "restart budget never ran out");
    assert_eq!(faults.live_shards, 4, "full strength after restart");
    let health = r.shard_health();
    assert!(health[KILLED].live, "restarted shard reports live");
    assert_eq!(health[KILLED].restarts, 2);
    r.ping(KILLED)
        .expect("restarted shard answers control queries");

    // Accounting still exact across two deaths and two restarts.
    let tx = r.take_tx(out0);
    assert_eq!(tx.len() as u64 + faults.lost_packets, injected);

    // Stats salvage: the graveyard's Counters still contribute, so the
    // merged count covers every transmitted packet.
    let counted = r.class_stat("Counter", "count");
    assert!(
        counted >= tx.len() as u64,
        "merged Counter ({counted}) must cover all {} TX packets",
        tx.len()
    );
    r.shutdown();
}

/// Telemetry armed across deaths and restarts. Each wave kills the
/// doomed shard inside an element call, whose frame stays open in the
/// zombie. Wave 2 runs on a shard restarted while the switch was on and
/// never told so, wave 3 after the switch was flipped off and on: the
/// merged profile of `c` must still count every packet the merged
/// `Counter` saw.
#[test]
fn restarted_shard_inherits_the_telemetry_switch() {
    let g = chaos_graph(&format!("PANIC 1, AFTER 150, SHARD {KILLED}"));
    let opts = ParallelOpts::new(4).batched(8).restart_on_fault(8);
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).expect("router builds");
    let flows = flows_per_shard(&r, PER_SHARD_FLOWS);
    let started = std::time::Instant::now();

    r.set_telemetry(true);
    inject_wave(&mut r, &flows, 0);
    r.run_until_idle();
    inject_wave(&mut r, &flows, PER_FLOW);
    r.run_until_idle();
    r.set_telemetry(false);
    r.set_telemetry(true);
    inject_wave(&mut r, &flows, 2 * PER_FLOW);
    r.run_until_idle();

    let faults = r.fault_gauges();
    assert_eq!((faults.shard_deaths, faults.restarts), (3, 3));
    let profiles = r.telemetry_profiles();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let c = profiles.iter().find(|p| p.name == "c").expect("c profiled");
    assert_eq!(
        c.packets,
        r.class_stat("Counter", "count"),
        "a restarted shard forwarded with its telemetry off"
    );
    for p in &profiles {
        assert_eq!(p.lat_buckets.iter().sum::<u64>(), p.calls, "{}", p.name);
        // Seven engines (four shards, three restarts) each billed at
        // most the wall time: an orphaned frame popped late bills more.
        assert!(p.self_ns <= 7 * wall_ns, "{}: {} ns", p.name, p.self_ns);
    }
    r.shutdown();
}

#[test]
fn shard_killed_behind_a_full_ring_and_a_backlog_is_salvaged_in_order() {
    // Two-slot rings: while the doomed shard works through its first 40
    // packets the supervisor keeps its ring full and holds the rest of
    // the shard's 200 in `pending` — the salvage has to take both, in
    // order, under either recovery policy.
    for opts in [
        ParallelOpts::new(4).batched(4).degrade_on_fault(),
        ParallelOpts::new(4).batched(4).restart_on_fault(8),
    ] {
        let policy = opts.recovery;
        let g = chaos_graph(&format!("PANIC 1, AFTER 40, SHARD {KILLED}"));
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts.with_ring_capacity(2))
            .expect("router builds");
        let out0 = r.device_id("out0").expect("out0 exists");
        let flows = flows_per_shard(&r, PER_SHARD_FLOWS);
        let injected = inject_wave(&mut r, &flows, 0);
        r.run_until_idle();

        let faults = r.fault_gauges();
        assert!(faults.shard_deaths >= 1, "{policy:?}: the shard died");
        assert_eq!(faults.no_live_shard_drops, 0, "{policy:?}");
        // A ring holds at most 2 bursts of at most 8 x 4 packets: more
        // than that reclaimed means the salvage reached `pending` too.
        assert!(
            faults.reclaimed_packets > 2 * 32,
            "{policy:?}: only {} packets reclaimed",
            faults.reclaimed_packets
        );
        let tx = r.take_tx(out0);
        assert_eq!(
            tx.len() as u64 + faults.lost_packets,
            injected,
            "{policy:?}: injected packets must be transmitted or accounted lost"
        );
        assert_per_flow_order(&tx, &flows, PER_FLOW);
        r.shutdown();
    }
}

#[test]
fn all_shards_dead_drops_at_injection_with_accounting() {
    // A single shard that dies on its first packet: once nothing is
    // live, injection drops (and counts) instead of wedging.
    let g = chaos_graph("PANIC 1, SHARD 0");
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(1))
        .expect("router builds");
    let dev = r.device_id("in0").expect("in0 exists");
    let out0 = r.device_id("out0").expect("out0 exists");
    for seq in 0..20u8 {
        r.inject(dev, udp(4000, seq));
    }
    r.run_until_idle();
    for seq in 20..30u8 {
        r.inject(dev, udp(4000, seq)); // router already dead
    }
    r.run_until_idle();
    let faults = r.fault_gauges();
    assert_eq!(faults.shard_deaths, 1);
    assert_eq!(faults.live_shards, 0);
    assert!(
        faults.no_live_shard_drops >= 10,
        "post-death injections drop"
    );
    let tx = r.take_tx(out0);
    assert_eq!(
        tx.len() as u64 + faults.lost_packets + faults.no_live_shard_drops,
        30,
        "every packet transmitted, lost, or dropped-at-injection"
    );
}

#[test]
fn wedged_shard_surfaces_as_backpressure_timeout_not_a_hang() {
    // Shard 0's FaultInject livelocks on its 11th packet: the shard
    // stops consuming, its ring fills, and the runtime must report a
    // typed error instead of spinning forever — then Drop must still
    // return (the wedged thread is abandoned, not joined).
    let g = chaos_graph("WEDGE 1, AFTER 10, SHARD 0");
    let mut opts = ParallelOpts::new(2).with_wedge_timeout(Duration::from_millis(300));
    opts.ring_capacity = 4;
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).expect("router builds");
    let flows = flows_per_shard(&r, 1);
    let dev = r.device_id("in0").expect("in0 exists");
    let wedge_flow = flows[0][0];
    for seq in 0..60u8 {
        r.inject(dev, udp(wedge_flow, seq));
    }
    let err = r
        .try_run_until_idle()
        .expect_err("a wedged shard must surface as an error");
    let msg = err.to_string();
    assert!(
        msg.contains("backpressure timeout"),
        "error should name the backpressure timeout, got: {msg}"
    );
    // The healthy shard still answers the control plane.
    r.ping(1).expect("healthy shard still responsive");
    drop(r); // bounded: abandons the wedged thread after the timeout
}

#[test]
fn abortive_teardown_recycles_buffered_packets() {
    // Inject without ever flushing, then drop: every buffered packet
    // must come back to this thread's pool — recycled or (if the pool is
    // full) counted dropped — so accounting balances.
    let g = chaos_graph(""); // FaultInject with no clauses is a wire
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2))
        .expect("router builds");
    let dev = r.device_id("in0").expect("in0 exists");
    packet::reset_pool_stats();
    let before = packet::pool_stats();
    for seq in 0..100u8 {
        r.inject(dev, udp(5000 + u16::from(seq % 10), seq));
    }
    let mid = packet::pool_stats();
    assert_eq!(
        (mid.hits + mid.misses) - (before.hits + before.misses),
        100,
        "all 100 buffers came from this thread's pool"
    );
    drop(r); // must not deadlock, must recycle the pending buffers
    let after = packet::pool_stats();
    assert_eq!(
        (after.recycled + after.dropped) - (mid.recycled + mid.dropped),
        100,
        "teardown must return every buffered packet to the pool"
    );
}

#[test]
fn healthy_runs_report_zero_fault_gauges() {
    // The supervisor must be invisible when nothing goes wrong.
    let g = chaos_graph("DROP 0.1, SEED 11"); // lossy but never fatal
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(4).batched(8))
        .expect("router builds");
    let flows = flows_per_shard(&r, 2);
    let injected = inject_wave(&mut r, &flows, 0);
    r.run_until_idle();
    assert_eq!(
        r.fault_gauges(),
        FaultGauges {
            live_shards: 4,
            shards: 4,
            ..FaultGauges::default()
        }
    );
    let out0 = r.device_id("out0").expect("out0 exists");
    let dropped = r.class_stat("FaultInject", "drops");
    assert!(dropped > 0, "DROP 0.1 over {injected} packets drops some");
    assert_eq!(r.tx_len(out0) as u64 + dropped, injected);
    r.shutdown();
}
