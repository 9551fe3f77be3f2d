//! Integration tests for the checkpoint/restore subsystem: wire-format
//! fuzzing (a torn file must never panic the parser), per-class
//! `ElementState` round trips, store retention and torn-file fallback,
//! and full crash/restore drills on both engines with the
//! cross-incarnation ledger required to stay exact.

use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::element::{CreateCtx, Element};
use click_elements::elements::create_element;
use click_elements::engine::{self, Engine};
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::{ParallelOpts, ParallelRouter};
use click_elements::persist::{
    config_hash, Checkpoint, CheckpointDaemon, CheckpointLedger, CheckpointStore, ElementRecord,
    PacketRecord,
};
use click_elements::router::Router;
use click_elements::swap::ElementState;
use common::sample_config;
use std::path::PathBuf;

mod common;

type DynRouter = Router<Box<dyn Element>>;

/// A unique scratch directory per test, wiped on entry so reruns start
/// clean.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("click-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_checkpoint() -> Checkpoint {
    let mut queue = ElementRecord {
        name: "q0".to_string(),
        class: "Queue".to_string(),
        counters: vec![("drops".to_string(), 3), ("highwater".to_string(), 9)],
        packets: Vec::new(),
    };
    queue.packets.push(PacketRecord {
        data: vec![0xDE, 0xAD, 0xBE, 0xEF],
        paint: 2,
        dst_ip: Some(0x0A00_0001),
        device: Some(1),
        link_broadcast: true,
        fix_ip_src: false,
        timestamp: 77,
    });
    queue.packets.push(PacketRecord {
        data: vec![1],
        ..PacketRecord::default()
    });
    Checkpoint {
        generation: 42,
        config: "a :: Counter -> Discard;".to_string(),
        config_hash: config_hash("a :: Counter -> Discard;"),
        ledger: CheckpointLedger {
            injected: 1000,
            tx: 900,
            drops: 60,
        },
        quiesce_ns: 12_345,
        elements: vec![
            queue,
            ElementRecord {
                name: "c".to_string(),
                class: "Counter".to_string(),
                counters: vec![
                    ("count".to_string(), 1000),
                    ("byte_count".to_string(), 64_000),
                ],
                packets: Vec::new(),
            },
        ],
        devices: vec![click_elements::persist::DeviceRecord {
            name: "eth0".to_string(),
            rx: vec![PacketRecord {
                data: vec![9, 9, 9],
                ..PacketRecord::default()
            }],
            tx: Vec::new(),
        }],
    }
}

#[test]
fn checkpoint_codec_round_trips() {
    let ckpt = sample_checkpoint();
    let decoded = Checkpoint::decode(&ckpt.encode()).expect("clean bytes decode");
    assert_eq!(decoded, ckpt);
}

#[test]
fn decoder_rejects_every_truncation() {
    // A crash can tear the file at any byte. Every prefix must come back
    // as a decode error — never a panic, never a half-parsed checkpoint.
    let bytes = sample_checkpoint().encode();
    for len in 0..bytes.len() {
        assert!(
            Checkpoint::decode(&bytes[..len]).is_err(),
            "truncation at {len}/{} must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn decoder_rejects_trailing_garbage() {
    let mut bytes = sample_checkpoint().encode();
    bytes.push(0);
    assert!(Checkpoint::decode(&bytes).is_err());
}

#[test]
fn decoder_rejects_every_single_bit_flip() {
    // Bit rot anywhere — magic, version, length, CRC, payload — must be
    // caught. The CRC seals the payload; the header fields are each
    // validated explicitly.
    let bytes = sample_checkpoint().encode();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            assert!(
                Checkpoint::decode(&flipped).is_err(),
                "bit {bit} of byte {i} flipped and the decoder accepted it"
            );
        }
    }
}

#[test]
fn decoder_rejects_wrong_version() {
    let mut bytes = sample_checkpoint().encode();
    // Version field sits right after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = Checkpoint::decode(&bytes).expect_err("future version must be rejected");
    assert!(
        format!("{err}").contains("version"),
        "error should name the version: {err}"
    );
}

#[test]
fn decoder_survives_random_garbage() {
    // An LCG-driven garbage storm: arbitrary bytes must produce errors,
    // not panics or huge allocations (the length guards cap what a
    // corrupt count field can ask for).
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..200 {
        let len = (rng() % 512) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
        // Half the rounds get a valid magic so the deeper paths run too.
        if round % 2 == 0 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"CLKCKPT1");
        }
        assert!(Checkpoint::decode(&bytes).is_err());
    }
}

#[test]
fn store_prunes_to_retention_and_numbers_generations() {
    let dir = scratch("retention");
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let mut ckpt = sample_checkpoint();
    for generation in 1..=5 {
        ckpt.generation = generation;
        store.save(&ckpt).unwrap();
    }
    assert_eq!(store.generations(), vec![4, 5]);
    assert_eq!(store.next_generation(), 6);
    let (latest, torn) = store.latest_valid();
    assert_eq!(latest.unwrap().generation, 5);
    assert_eq!(torn, 0);
}

#[test]
fn recovery_falls_back_over_a_torn_newest_generation() {
    let dir = scratch("torn-fallback");
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let mut ckpt = sample_checkpoint();
    for generation in 1..=3 {
        ckpt.generation = generation;
        store.save(&ckpt).unwrap();
    }
    // Tear generation 3 mid-file, as a crash during write would.
    let newest = store.path_of(3);
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut daemon = CheckpointDaemon::new(store, 0, String::new());
    let recovered = daemon.recover().expect("generation 2 is still whole");
    assert_eq!(recovered.generation, 2);
    assert_eq!(daemon.gauges().torn_discarded, 1);
    assert_eq!(daemon.gauges().cold_starts, 0);
}

#[test]
fn recovery_of_an_empty_directory_is_a_counted_cold_start() {
    let dir = scratch("cold");
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let mut daemon = CheckpointDaemon::new(store, 0, String::new());
    assert!(daemon.recover().is_none());
    assert_eq!(daemon.gauges().cold_starts, 1);
}

#[test]
fn element_state_survives_the_wire_for_every_registered_class() {
    // For each registered class: seed the element's own counters with
    // distinct values, take its state, push the record through a full
    // encode/decode, and require the decoded record to be identical.
    // Stateless classes (take_state == None) are skipped — they have
    // nothing to lose across a restart by definition.
    let lib = Library::standard();
    let mut stateful = 0;
    for spec in lib.iter() {
        let mut ctx = CreateCtx::new();
        let mut element = create_element(&spec.name, sample_config(&spec.name), &mut ctx)
            .unwrap_or_else(|e| panic!("add a sample config for {:?}: {e}", spec.name));
        let Some(template) = element.take_state() else {
            continue;
        };
        stateful += 1;
        let mut seed = ElementState::new(&template.class);
        for (i, (name, _)) in template.counters.iter().enumerate() {
            seed = seed.counter(name, 11 + 7 * i as u64);
        }
        seed.packets.push(Packet::from_data(&[0xAB, 0xCD]));
        template.recycle_packets();
        element.restore_state(seed);

        let state = element
            .take_state()
            .unwrap_or_else(|| panic!("{:?} lost its state on the second take", spec.name));
        let record = ElementRecord::from_state("e0", &state.class, &state);
        state.recycle_packets();

        let mut ckpt = sample_checkpoint();
        ckpt.elements = vec![record.clone()];
        let decoded = Checkpoint::decode(&ckpt.encode())
            .unwrap_or_else(|e| panic!("{:?} record failed to decode: {e}", spec.name));
        assert_eq!(
            decoded.elements[0], record,
            "state of {:?} must survive serialize -> parse intact",
            spec.name
        );
    }
    assert!(
        stateful >= 5,
        "expected several stateful classes, saw {stateful}"
    );
}

#[test]
fn counter_totals_round_trip_exactly() {
    let mut ctx = CreateCtx::new();
    let mut a = create_element("Counter", "", &mut ctx).unwrap();
    a.restore_state(
        ElementState::new("Counter")
            .counter("count", 41)
            .counter("byte_count", 4100),
    );
    let state = a.take_state().unwrap();
    let record = ElementRecord::from_state("c", "Counter", &state);
    state.recycle_packets();

    let mut ckpt = sample_checkpoint();
    ckpt.elements = vec![record];
    let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();

    let mut b = create_element("Counter", "", &mut ctx).unwrap();
    b.restore_state(decoded.elements[0].to_state());
    let after = b.take_state().unwrap();
    assert_eq!(after.get("count"), 41);
    assert_eq!(after.get("byte_count"), 4100);
    after.recycle_packets();
}

#[test]
fn queue_contents_round_trip_in_fifo_order() {
    let mut ctx = CreateCtx::new();
    let mut a = create_element("Queue", "8", &mut ctx).unwrap();
    let mut seed = ElementState::new("Queue").counter("drops", 3);
    seed.packets = (0u8..5).map(|i| Packet::from_data(&[i, 100 + i])).collect();
    a.restore_state(seed);

    let state = a.take_state().unwrap();
    let record = ElementRecord::from_state("q", "Queue", &state);
    state.recycle_packets();
    let mut ckpt = sample_checkpoint();
    ckpt.elements = vec![record];
    let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();

    let mut b = create_element("Queue", "8", &mut ctx).unwrap();
    b.restore_state(decoded.elements[0].to_state());
    let after = b.take_state().unwrap();
    let contents: Vec<Vec<u8>> = after.packets.iter().map(|p| p.data().to_vec()).collect();
    let expected: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i, 100 + i]).collect();
    assert_eq!(contents, expected, "FIFO order must survive the restart");
    assert_eq!(after.get("drops"), 3);
    after.recycle_packets();
}

#[test]
fn fault_inject_rng_cursor_continues_across_restart() {
    // The LCG cursor and arming progress must restore *exactly*: a
    // restarted FaultInject continues the original fault sequence
    // instead of replaying it from the seed.
    let mut ctx = CreateCtx::new();
    let mut a = create_element("FaultInject", "DROP 0.5, SEED 42", &mut ctx).unwrap();
    a.restore_state(
        ElementState::new("FaultInject")
            .counter("seen", 7)
            .counter("lcg", 0xDEAD_BEEF_0BAD_F00D)
            .counter("drops", 2),
    );
    let state = a.take_state().unwrap();
    let record = ElementRecord::from_state("f", "FaultInject", &state);
    state.recycle_packets();
    let mut ckpt = sample_checkpoint();
    ckpt.elements = vec![record];
    let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();

    let mut b = create_element("FaultInject", "DROP 0.5, SEED 42", &mut ctx).unwrap();
    b.restore_state(decoded.elements[0].to_state());
    let after = b.take_state().unwrap();
    assert_eq!(after.get("seen"), 7);
    assert_eq!(after.get("drops"), 2);
    assert_eq!(
        after.get("lcg"),
        0xDEAD_BEEF_0BAD_F00D,
        "the RNG cursor must continue, not restart from the seed"
    );
    after.recycle_packets();
}

// ---------------------------------------------------------------------
// Engine-level crash/restore drills
// ---------------------------------------------------------------------

/// Drains (and recycles) every device's TX queue; returns the count.
fn drain_tx(e: &mut dyn Engine) -> u64 {
    let mut tx = click_elements::PacketBatch::new();
    let n = e.drain_all_tx_into(&mut tx);
    tx.recycle_packets();
    n as u64
}

#[test]
fn serial_crash_restore_resumes_exact_ledger() {
    let dir = scratch("serial-ledger");
    let spec = IpRouterSpec::standard(2);
    let graph = read_config(&spec.config()).unwrap();
    let lib = Library::standard();
    let mut r: DynRouter = Router::from_graph(&graph, &lib).unwrap();
    let eth0 = r.devices.id("eth0").unwrap();

    let mut injected = 0u64;
    for i in 0..300u64 {
        r.devices.inject(
            eth0,
            test_packet_flow(&spec, 0, 1, 2000 + (i % 32) as u16, 7000),
        );
        injected += 1;
    }
    r.run_until_idle(1_000_000);
    let mut tx = drain_tx(&mut r);

    let store = CheckpointStore::open(&dir, 4).unwrap();
    let mut daemon = CheckpointDaemon::new(store, 0, spec.config());
    let generation = daemon.checkpoint_now(&mut r, injected, tx).unwrap();
    assert_eq!(generation, 1);
    let drops_at_cut = r.total_drops();

    // Feed a dead window the "crash" destroys: these frames reach the
    // doomed incarnation only.
    let dead_window = 57u64;
    for i in 0..dead_window {
        r.devices.inject(
            eth0,
            test_packet_flow(&spec, 0, 1, 2000 + (i % 32) as u16, 7000),
        );
    }
    r.run_until_idle(1_000_000);
    drop(r); // the crash — everything since the cut is gone

    let ckpt = daemon.recover().expect("generation 1 is recoverable");
    assert_eq!(ckpt.generation, 1);
    assert_eq!(ckpt.ledger.injected, injected);
    assert_eq!(ckpt.ledger.tx, tx);
    assert_eq!(config_hash(&ckpt.config), ckpt.config_hash);

    let (mut r2, stats) = engine::restore(&ckpt, false, ParallelOpts::new(1)).unwrap();
    assert_eq!(stats.unmatched, 0, "every checkpointed element must match");
    assert_eq!(
        r2.total_drops(),
        drops_at_cut,
        "the drop gauge must resume exactly at its checkpointed value"
    );

    // Second incarnation: resume traffic. Offered = accounted + the dead
    // window; the ledger closes with the dead window as the only loss.
    let eth0 = r2.device("eth0").unwrap();
    for i in 0..100u64 {
        r2.inject(
            eth0,
            test_packet_flow(&spec, 0, 1, 2000 + (i % 32) as u16, 7000),
        );
        injected += 1;
    }
    r2.settle();
    tx += drain_tx(&mut *r2);

    let offered = injected + dead_window;
    let loss = offered - tx - r2.total_drops();
    assert_eq!(
        injected,
        tx + r2.total_drops(),
        "accounted frames must balance exactly across incarnations"
    );
    assert_eq!(loss, dead_window, "only the dead window may be lost");
}

#[test]
fn serial_restore_carries_queued_packets_home() {
    // A FaultInject delay line holds packets across the cut; they must
    // come back in order and eventually drain to TX after the restart.
    let dir = scratch("serial-delay");
    let config = "FromDevice(eth0) -> c :: Counter \
                  -> f :: FaultInject(DELAY 4) -> Queue(64) -> ToDevice(eth1);";
    let graph = read_config(config).unwrap();
    let lib = Library::standard();
    let mut r: DynRouter = Router::from_graph(&graph, &lib).unwrap();
    let eth0 = r.devices.id("eth0").unwrap();
    for i in 0..10u8 {
        r.devices.inject(eth0, Packet::from_data(&[i; 60]));
    }
    r.run_until_idle(1_000_000);
    let tx_before = drain_tx(&mut r);
    assert_eq!(tx_before, 6, "a 4-deep delay line holds the last 4 frames");

    let store = CheckpointStore::open(&dir, 2).unwrap();
    let mut daemon = CheckpointDaemon::new(store, 0, config.to_string());
    daemon.checkpoint_now(&mut r, 10, tx_before).unwrap();
    assert_eq!(
        daemon.gauges().packets_persisted,
        4,
        "the delay line's packets must be persisted"
    );
    drop(r);

    let ckpt = daemon.recover().unwrap();
    let (mut r2, stats) = engine::restore(&ckpt, false, ParallelOpts::new(1)).unwrap();
    assert_eq!(stats.packets_restored, 4);
    // Four more frames push the held ones out of the line.
    let eth0 = r2.device("eth0").unwrap();
    for i in 10..14u8 {
        r2.inject(eth0, Packet::from_data(&[i; 60]));
    }
    r2.settle();
    assert_eq!(drain_tx(&mut *r2), 4, "the restored packets drain first");
}

#[test]
fn parallel_crash_restore_resumes_exact_ledger() {
    let dir = scratch("parallel-ledger");
    let spec = IpRouterSpec::standard(2);
    let graph = read_config(&spec.config()).unwrap();
    let mut r =
        ParallelRouter::from_graph::<Box<dyn Element>>(&graph, ParallelOpts::new(2)).unwrap();
    let eth0 = r.device_id("eth0").unwrap();

    let mut injected = 0u64;
    for i in 0..256u64 {
        r.inject(
            eth0,
            test_packet_flow(&spec, 0, 1, 2000 + (i % 32) as u16, 7000),
        );
        injected += 1;
    }
    r.run_until_idle();
    let mut tx = drain_tx(&mut r);

    let store = CheckpointStore::open(&dir, 4).unwrap();
    let mut daemon = CheckpointDaemon::new(store, 0, spec.config());
    daemon.checkpoint_now(&mut r, injected, tx).unwrap();
    let drops_at_cut = r.total_drops();
    r.shutdown(); // the crash

    let ckpt = daemon.recover().expect("checkpoint survives the crash");
    assert_eq!(ckpt.ledger.drops, drops_at_cut);
    let (mut r2, stats) = engine::restore(&ckpt, false, ParallelOpts::new(2)).unwrap();
    assert_eq!(stats.unmatched, 0);
    assert_eq!(
        r2.total_drops(),
        drops_at_cut,
        "the merged drop gauge resumes at its checkpointed value"
    );

    let eth0 = r2.device("eth0").unwrap();
    for i in 0..128u64 {
        r2.inject(
            eth0,
            test_packet_flow(&spec, 0, 1, 2000 + (i % 32) as u16, 7000),
        );
        injected += 1;
    }
    r2.settle();
    tx += drain_tx(&mut *r2);
    assert_eq!(
        injected,
        tx + r2.total_drops(),
        "the sharded ledger must balance exactly across incarnations"
    );
}
