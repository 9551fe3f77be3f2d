//! Telemetry guards: the observability layer must never change what the
//! router *does* — only what it can *report*.
//!
//! Four properties are pinned here:
//!
//! 1. **The switch** — forwarding results (transmitted bytes, per-flow
//!    order, per-class stats) are identical whether telemetry is armed
//!    or not; un-armed, every counter reads zero; armed mid-run, the
//!    counters cover exactly what ran after the flip, and disarming
//!    freezes them — on both runtimes.
//! 2. **Counter correctness** — per-element packet counters match
//!    independently observable statistics, and the merged 4-shard
//!    profile equals the serial profile element-for-element.
//! 3. **`click-profile` round-trip** — applying a profile to the IP
//!    router reorders hot classifier branches without changing any
//!    transmitted byte, per-class packet count or per-flow sequence.
//! 4. **One statement of the gauges** — the profile JSON is byte-for-byte
//!    what the build before the field tables wrote, and OPERATIONS.md's
//!    glossary is the tables' help text.

use click::core::registry::Library;
use click::core::RouterGraph;
use click::elements::element::Element;
use click::elements::engine::{self, Engine};
use click::elements::ip_router::{test_packet_flow, IpRouterSpec};
use click::elements::packet::Packet;
use click::elements::parallel::{ParallelOpts, ParallelRouter};
use click::elements::router::Slot;
use click::elements::steer::flow_key;
use click::elements::telemetry::{
    CheckpointGauges, DeviceGauges, ElementProfile, FaultGauges, GaugeSet, ReoptGauges,
    ShardGauges, SteerGauges, SwapGauges,
};
use click::elements::Router;
use click::opt::profile::{apply_profile, Profile};
use click_bench::ip_router_variants;

const N: usize = 4;
const FLOWS: u16 = 12;
const PER_FLOW: u8 = 6;

/// The parallel-equivalence trace: FLOWS cross-interface UDP flows,
/// PER_FLOW packets each, sequence number in the last payload byte.
fn trace(spec: &IpRouterSpec) -> Vec<(usize, Packet)> {
    let mut out = Vec::new();
    for seq in 0..PER_FLOW {
        for flow in 0..FLOWS {
            let src = usize::from(flow) % (N / 2);
            let dst = src + N / 2;
            let mut p = test_packet_flow(spec, src, dst, 2000 + flow, 7000);
            let n = p.len();
            p.data_mut()[n - 1] = seq;
            out.push((src, p));
        }
    }
    out
}

/// Packets the trace injects on each interface.
fn injected_per_device(spec: &IpRouterSpec) -> Vec<u64> {
    let mut counts = vec![0u64; N];
    for (src, _) in trace(spec) {
        counts[src] += 1;
    }
    counts
}

/// The forwarding outcome every run must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every transmitted frame, per output device in TX order.
    wire: Vec<Vec<Vec<u8>>>,
    class_stats: Vec<(String, u64)>,
    /// (output device, flow source port) → payload sequence numbers.
    flows: Vec<((usize, u16), Vec<u8>)>,
}

const CLASSES: [(&str, &str); 3] = [
    ("Queue", "drops"),
    ("Discard", "count"),
    ("IPFragmenter", "drops"),
];

fn flows_of(outputs: Vec<(usize, Vec<Packet>)>) -> Vec<((usize, u16), Vec<u8>)> {
    let mut flows: Vec<((usize, u16), Vec<u8>)> = Vec::new();
    for (dev, packets) in outputs {
        for p in packets {
            let sport = flow_key(p.data()).map_or(0, |k| k.3);
            let seq = p.data()[p.len() - 1];
            match flows.iter_mut().find(|(k, _)| *k == (dev, sport)) {
                Some((_, seqs)) => seqs.push(seq),
                None => flows.push(((dev, sport), vec![seq])),
            }
        }
    }
    flows.sort_by_key(|(k, _)| *k);
    flows
}

/// Runs the trace on the serial engine, telemetry armed or not; returns
/// the forwarding outcome and the telemetry profiles.
fn run_serial<S: Slot>(graph: &RouterGraph, armed: bool) -> (Outcome, Vec<ElementProfile>) {
    let spec = IpRouterSpec::standard(N);
    let mut router: Router<S> =
        Router::from_graph(graph, &Library::standard()).expect("router builds");
    router.set_telemetry(armed);
    for (src, p) in trace(&spec) {
        let id = router.devices.id(&format!("eth{src}")).expect("device");
        router.devices.inject(id, p);
    }
    router.run_until_idle(100_000);
    let outputs: Vec<(usize, Vec<Packet>)> = (0..N)
        .map(|d| {
            let id = router.devices.id(&format!("eth{d}")).expect("device");
            (d, router.devices.take_tx(id))
        })
        .collect();
    let outcome = Outcome {
        wire: outputs
            .iter()
            .map(|(_, tx)| tx.iter().map(|p| p.data().to_vec()).collect())
            .collect(),
        class_stats: CLASSES
            .iter()
            .map(|(c, s)| (format!("{c}.{s}"), router.class_stat(c, s)))
            .collect(),
        flows: flows_of(outputs),
    };
    (outcome, router.telemetry_profiles())
}

fn base_graph() -> RouterGraph {
    let variants = ip_router_variants(N).expect("variants build");
    variants
        .iter()
        .find(|v| v.name == "Base")
        .expect("Base variant")
        .graph
        .clone()
}

fn profile_of<'a>(profiles: &'a [ElementProfile], name: &str) -> &'a ElementProfile {
    profiles
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no profile for {name}"))
}

fn assert_all_zero(profiles: &[ElementProfile]) {
    assert!(!profiles.is_empty(), "the snapshot structure always exists");
    for p in profiles {
        assert_eq!(
            (p.calls, p.packets, p.bytes, p.self_ns),
            (0, 0, 0, 0),
            "{}",
            p.name
        );
        assert!(p.out_ports.iter().all(|&n| n == 0), "{}", p.name);
        assert!(p.lat_buckets.iter().all(|&n| n == 0), "{}", p.name);
        assert!(p.recent_ns.is_empty(), "{}", p.name);
    }
}

/// Every packet of every flow forwarded in order, no drops anywhere, and
/// the armed run transmits the very bytes the un-armed one does: the
/// switch changes what the router reports, never what it does.
#[test]
fn forwarding_outcome_is_switch_independent() {
    let (outcome, off) = run_serial::<Box<dyn Element>>(&base_graph(), false);
    for (stat, v) in &outcome.class_stats {
        assert_eq!(*v, 0, "{stat} must be zero on the clean trace");
    }
    assert_eq!(outcome.flows.len(), usize::from(FLOWS));
    for ((_, sport), seqs) in &outcome.flows {
        assert_eq!(
            *seqs,
            (0..PER_FLOW).collect::<Vec<u8>>(),
            "flow {sport} lost or reordered packets"
        );
    }
    assert_all_zero(&off);

    let (armed, on) = run_serial::<Box<dyn Element>>(&base_graph(), true);
    assert_eq!(armed, outcome, "arming telemetry changed forwarding");
    assert!(
        on.iter().any(|p| p.packets > 0),
        "armed run counted nothing"
    );
}

/// Feeds the trace through `engine` and settles it; returns how many
/// packets went in.
fn feed(engine: &mut dyn Engine, spec: &IpRouterSpec) -> u64 {
    let trace = trace(spec);
    let injected = trace.len() as u64;
    for (src, p) in trace {
        let id = engine.device(&format!("eth{src}")).expect("device");
        engine.inject(id, p);
    }
    engine.settle();
    injected
}

/// Off reads zero; armed mid-run, the classifiers count exactly the
/// packets injected after the flip; off again, nothing moves — serial
/// and sharded, through the one `Engine::set_telemetry`. The shard and
/// steering *counts* do not follow the switch: they are always live.
#[test]
fn profiles_read_zero_when_disabled() {
    let spec = IpRouterSpec::standard(N);
    let classified = |ps: &[ElementProfile]| -> u64 {
        let cs = ps.iter().filter(|p| p.class == "Classifier");
        cs.map(|p| p.packets).sum()
    };
    for shards in [1, 2] {
        let mut engine =
            engine::open(&base_graph(), false, ParallelOpts::new(shards)).expect("engine builds");
        let injected = feed(&mut *engine, &spec);
        assert_all_zero(&engine.profiles());

        engine.set_telemetry(true);
        feed(&mut *engine, &spec);
        let armed = engine.profiles();
        assert_eq!(classified(&armed), injected, "{shards} shard(s)");
        for p in &armed {
            assert_eq!(p.lat_buckets.iter().sum::<u64>(), p.calls, "{}", p.name);
        }

        engine.set_telemetry(false);
        feed(&mut *engine, &spec);
        assert_eq!(engine.profiles(), armed, "{shards} shard(s): not frozen");

        let gauges = engine.gauges();
        if shards > 1 {
            let polled: u64 = gauges.shards.iter().map(|g| g.packets).sum();
            assert_eq!(polled, 3 * injected, "shard gauges are always live");
            let steering = gauges.steering.expect("sharded engines steer");
            assert_eq!(steering.packets, 3 * injected);
        }
    }
}

#[test]
fn counters_match_observed_statistics() {
    let spec = IpRouterSpec::standard(N);
    let injected = injected_per_device(&spec);
    let (outcome, profiles) = run_serial::<Box<dyn Element>>(&base_graph(), true);

    // Each interface's Classifier sees exactly the packets injected on
    // that interface, and the trace is pure IP: every packet leaves on
    // the IP branch (output 2 of `Classifier(arp-req, arp-resp, ip, -)`).
    for (i, &rx) in injected.iter().enumerate() {
        let c = profile_of(&profiles, &format!("c{i}"));
        assert_eq!(c.class, "Classifier");
        assert_eq!(c.packets, rx, "c{i} packet count");
        assert_eq!(c.out_ports.iter().sum::<u64>(), rx, "c{i} emissions");
        // `out_ports` grows on demand, so an idle classifier's is empty.
        assert_eq!(
            c.out_ports.get(2).copied().unwrap_or(0),
            rx,
            "c{i} IP branch"
        );
        if rx > 0 {
            assert!(c.self_ns > 0, "c{i} must have accumulated self time");
            assert!(c.bytes > 0, "c{i} must have accumulated bytes");
            assert_eq!(
                c.lat_buckets.iter().sum::<u64>(),
                c.calls,
                "c{i} histogram covers every call"
            );
        }
    }

    // Forwarded packets cross each destination queue once in and once
    // out (push + pull are both counted), and nothing was dropped.
    let forwarded: u64 = outcome
        .flows
        .iter()
        .map(|(_, seqs)| seqs.len() as u64)
        .sum();
    let queue_packets: u64 = profiles
        .iter()
        .filter(|p| p.class == "Queue")
        .map(|p| p.packets)
        .sum();
    assert_eq!(queue_packets, 2 * forwarded, "queue in+out traffic");
}

#[test]
fn four_shard_merge_matches_serial() {
    let graph = base_graph();
    let spec = IpRouterSpec::standard(N);
    let (_, serial) = run_serial::<Box<dyn Element>>(&graph, true);

    let mut router = ParallelRouter::from_graph::<Box<dyn Element>>(&graph, ParallelOpts::new(4))
        .expect("parallel router builds");
    router.set_telemetry(true);
    for (src, p) in trace(&spec) {
        let id = router.device_id(&format!("eth{src}")).expect("device");
        router.inject(id, p);
    }
    router.run_until_idle();
    let merged = router.telemetry_profiles();
    let gauges = router.shard_gauges();
    router.shutdown();

    // Work counters merge exactly; timing (calls, self_ns) legitimately
    // differs because idle polling depends on the schedule.
    let key = |ps: &[ElementProfile]| {
        let mut v: Vec<(String, String, u64, u64, Vec<u64>)> = ps
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.class.clone(),
                    p.packets,
                    p.bytes,
                    p.out_ports.clone(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        key(&merged),
        key(&serial),
        "4-shard merge diverges from serial"
    );

    // Every injected packet crossed exactly one shard's inbound ring.
    let injected: u64 = injected_per_device(&spec).iter().sum();
    assert_eq!(gauges.iter().map(|g| g.packets).sum::<u64>(), injected);
    assert!(gauges.iter().all(|g| g.batches <= g.packets.max(1)));
}

#[test]
fn steering_gauges_cover_every_packet() {
    let graph = base_graph();
    let spec = IpRouterSpec::standard(N);
    let opts = ParallelOpts::new(4).batched(8);
    let mut router = ParallelRouter::from_graph::<Box<dyn Element>>(&graph, opts)
        .expect("parallel router builds");
    router.set_telemetry(true);
    for (src, p) in trace(&spec) {
        let id = router.device_id(&format!("eth{src}")).expect("device");
        router.inject(id, p);
    }
    router.run_until_idle();
    let steering = router.steer_gauges();
    router.shutdown();

    let injected: u64 = injected_per_device(&spec).iter().sum();
    assert_eq!(steering.packets, injected, "every packet classified once");
    assert!(steering.steer_ns > 0, "self time tracked");
}

/// The profile-guided reorder must be invisible to forwarding: same
/// per-class stats, same per-flow output sequences — only the classifier
/// pattern order (and its wiring) changes. The profile is synthetic, so
/// nothing needs arming.
#[test]
fn click_profile_round_trip_preserves_classification() {
    let base = base_graph();
    let mut profiled = base.clone();

    // A synthetic profile recording what the IP workload produces: all
    // traffic on the classifiers' IP branch (output 2 of 4).
    let elements = (0..N)
        .map(|i| {
            let mut p = ElementProfile::new(&format!("c{i}"), "Classifier");
            p.packets = 500;
            p.out_ports = vec![0, 0, 500, 0];
            p
        })
        .collect();
    let profile = Profile {
        source: "synthetic".into(),
        shards: 1,
        telemetry: true,
        elements,
        ..Profile::default()
    };

    let report = apply_profile(&mut profiled, &profile).expect("profile applies");
    assert_eq!(report.reordered.len(), N, "all four classifiers reorder");
    for r in &report.reordered {
        assert_eq!(
            r.order,
            vec![2, 0, 1, 3],
            "{} hoists the IP branch",
            r.element
        );
    }
    for id in profiled.element_ids().collect::<Vec<_>>() {
        let decl = profiled.element(id);
        if decl.class() == "Classifier" {
            assert_eq!(
                decl.config(),
                "12/0800, 12/0806 20/0001, 12/0806 20/0002, -",
                "{} pattern order",
                decl.name()
            );
        }
    }

    let (before, _) = run_serial::<Box<dyn Element>>(&base, false);
    let (after, _) = run_serial::<Box<dyn Element>>(&profiled, false);
    assert_eq!(after, before, "reordering changed observable forwarding");
}

/// What the parent of the field-table change wrote for the fixture of
/// [`same_bytes_as_before_the_field_tables`], captured from that build.
const PARENT_PROFILE: &str = r#"{
  "profile": "click-report",
  "version": 4,
  "source": "golden \"run\"\\1",
  "shards": 2,
  "telemetry": true,
  "elements": [
    {"name": "c0", "class": "Classifier", "calls": 7, "packets": 6, "bytes": 384, "self_ns": 900, "ns_per_packet": 150.00, "out_ports": [0, 0, 6, 0], "lat_buckets": [0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "recent_ns": [120, 130, 125]},
    {"name": "q \"0\"", "class": "Queue", "calls": 12, "packets": 12, "bytes": 768, "self_ns": 301, "ns_per_packet": 25.08, "out_ports": [12], "lat_buckets": [0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7], "recent_ns": [25]}
  ],
  "gauges": [
    {"shard": 0, "batches": 3, "packets": 24, "ring_high_water": 2, "backoff_snoozes": 9},
    {"shard": 1, "batches": 4, "packets": 31, "ring_high_water": 5, "backoff_snoozes": 0}
  ],
  "steering": [
    {"steerer": 0, "batches": 12, "packets": 96, "steer_ns": 4800, "snoozes": 0}
  ],
  "devices": [
    {"device": "pcap:a\"b\\c.pcap", "backend": "pcap", "health": "up", "rx_packets": 1000, "rx_bytes": 64000, "tx_packets": 990, "tx_bytes": 63360, "short_reads": 1, "would_blocks": 12, "retries": 4, "backoffs": 3, "flaps": 2, "down_events": 5, "reopens": 6, "drain_lost": 10, "corrupt_drops": 7},
    {"device": "eth1\tx", "backend": "pcap", "health": "flapping", "rx_packets": 990, "rx_bytes": 63360, "tx_packets": 980, "tx_bytes": 62720, "short_reads": 1, "would_blocks": 12, "retries": 4, "backoffs": 3, "flaps": 2, "down_events": 5, "reopens": 6, "drain_lost": 10, "corrupt_drops": 7}
  ],
  "faults": {"shard_deaths": 2, "restarts": 1, "degraded_entries": 3, "lost_packets": 17, "reclaimed_packets": 40, "no_live_shard_drops": 8, "live_shards": 1, "shards": 2},
  "swap": {"swaps": 4, "rollbacks": 1, "canary_failures": 2, "packets_transferred": 321, "rejected_configs": 3},
  "reopt": {"windows_observed": 12, "recompiles": 2, "swaps_kept": 1, "rollbacks": 5, "thrash_suppressed": 3},
  "checkpoints": {"checkpoints_written": 7, "checkpoint_failures": 1, "torn_discarded": 2, "restores": 3, "cold_starts": 4, "last_generation": 19, "quiesce_ns_last": 12345, "quiesce_ns_total": 99999, "packets_persisted": 42}
}
"#;

/// The table-driven writer emits the bytes the hand-written one did —
/// same keys, order and spacing — which is why the `grep`s over exported
/// profiles in `.github/workflows/ci.yml` did not change with it. Every
/// field is non-default in some row of the fixture, so reading the
/// parent's file (as `click-profile --profile` must still be able to) and
/// writing it back loses nothing only if reader and writer both cover
/// every key. The one permitted difference is the two `steering` keys
/// deleted with the steerer stage.
#[test]
fn same_bytes_as_before_the_field_tables() {
    let profile = Profile::from_json(PARENT_PROFILE).expect("the parent's export loads");
    let expected = PARENT_PROFILE
        .replace("\"steerer\": 0, ", "")
        .replace(", \"snoozes\": 0", "");
    assert_eq!(profile.to_json(), expected);
    // Spot checks that values landed in the fields their keys name.
    assert_eq!(profile.source, "golden \"run\"\\1");
    assert_eq!(profile.elements[1].lat_buckets[23], 7);
    assert_eq!(profile.gauges.devices[1].device, "eth1\tx");
    assert_eq!(profile.gauges.steering.map(|s| s.steer_ns), Some(4800));
    assert_eq!(profile.gauges.faults.map(|f| f.live_shards), Some(1));
    assert_eq!(profile.checkpoints.map(|c| c.packets_persisted), Some(42));
}

/// One glossary table: a header naming the struct and its section, one
/// row per table field carrying the field's help line.
fn glossary_table<T: GaugeSet>() -> String {
    let mut s = format!(
        "**`{}`** (`\"{}\"`):\n\n| gauge | counts |\n|---|---|\n",
        T::NAME,
        T::SECTION
    );
    for f in T::FIELDS {
        s.push_str(&format!("| `{}` | {} |\n", f.key, f.help()));
    }
    s
}

/// OPERATIONS.md's "Gauge glossary" is output, not prose: its tables are
/// exactly what the field tables render to, so a gauge is documented by
/// declaring it and cannot be documented differently from its doc
/// comment. On a mismatch, paste the text this test prints.
#[test]
fn operations_glossary_is_generated_from_the_field_tables() {
    let tables = [
        glossary_table::<ShardGauges>(),
        glossary_table::<SteerGauges>(),
        glossary_table::<FaultGauges>(),
        glossary_table::<SwapGauges>(),
        glossary_table::<ReoptGauges>(),
        glossary_table::<CheckpointGauges>(),
        glossary_table::<DeviceGauges>(),
    ]
    .join("\n");
    let doc = include_str!("../docs/OPERATIONS.md");
    let begin = doc.find("**`ShardGauges`**").unwrap_or(doc.len());
    let end = doc[begin..].find("\n## ").map_or(doc.len(), |i| begin + i);
    assert_eq!(
        doc[begin..end].trim_end(),
        tables.trim_end(),
        "docs/OPERATIONS.md \"Gauge glossary\" is stale; its tables should read:\n\n{tables}"
    );
}
