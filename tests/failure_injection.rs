//! Failure injection: malformed inputs at every boundary must produce
//! errors, not panics or silent corruption.

use click::core::archive::{Archive, CONFIG_ENTRY};
use click::core::lang::read_config;
use click::core::registry::Library;
use click::core::Lcg;
use click::elements::headers::{ether, ipv4};
use click::elements::ip_router::{test_packet_flow, IpRouterSpec};
use click::elements::router::DynRouter;
use click::elements::steer::{flow_key, RssSteering};
use click::elements::{Packet, Router};

#[test]
fn malformed_sources_error_cleanly() {
    for src in [
        "a ->",                                                           // truncated
        "a :: ;",                                                         // missing class
        "-> b;",                                                          // missing source
        "a [x] -> b;",                                                    // non-numeric port
        "elementclass {}",                                                // unnamed compound
        "a :: B(unclosed;",                                               // unterminated config
        "/* forever",                                                     // unterminated comment
        "a :: B; a :: C;",                                                // redeclaration
        "input -> Discard;", // pseudo port at top level
        "elementclass R { input -> R -> output; } Idle -> R -> Discard;", // recursion
    ] {
        assert!(read_config(src).is_err(), "should reject: {src}");
    }
}

#[test]
fn malformed_archives_error_cleanly() {
    for text in [
        "!<click-archive>\n@entry config 999\nshort",
        "!<click-archive>\nnot-an-entry\n",
        "!<click-archive>\n@entry noconfig 2\nhi\n",
    ] {
        assert!(
            read_config(text).is_err(),
            "should reject archive: {text:?}"
        );
    }
}

#[test]
fn archive_config_with_bad_generated_code_fails_at_instantiation() {
    // A FastClassifier whose serialized matcher is corrupt: parse
    // succeeds (config strings are opaque), instantiation fails.
    let mut a = Archive::new();
    a.insert(
        CONFIG_ENTRY,
        "Idle -> fc :: FastClassifier@@x(fast corrupted nonsense); fc [0] -> Discard;",
    );
    let graph = read_config(&a.to_string()).expect("opaque configs parse");
    let err = DynRouter::from_graph(&graph, &Library::standard());
    assert!(
        err.is_err(),
        "corrupt matcher must fail element construction"
    );
}

#[test]
fn bad_element_configs_fail_at_construction_not_at_runtime() {
    for src in [
        "Idle -> Strip(notanumber) -> Discard;",
        "Idle -> Paint(1, 2) -> Discard;",
        "FromDevice(a) -> Queue(0) -> ToDevice(b);",
        "Idle -> EtherEncap(0x0800, junk, 00:00:00:00:00:01) -> Discard;",
        "Idle -> Classifier(zz/top) -> Discard;",
        "Idle -> IPFilter(frobnicate everything) -> Discard;",
        "Idle -> r :: StaticIPLookup(10.0.0.0/99 0); r [0] -> Discard;",
        "Idle -> RED(50, 10, 0.5) -> Discard;",
    ] {
        let graph = read_config(src).expect("syntax is fine");
        assert!(
            DynRouter::from_graph(&graph, &Library::standard()).is_err(),
            "should reject config: {src}"
        );
    }
}

#[test]
fn tools_reject_what_they_cannot_transform() {
    // fastclassifier on a syntactically valid but uncompilable classifier.
    let mut g =
        read_config("Idle -> c :: Classifier(12/0800, -); c [0] -> Discard; c [1] -> Discard;")
            .unwrap();
    g.set_config(g.find("c").unwrap(), "bad pattern");
    assert!(click::opt::fastclassifier::fastclassifier(&mut g).is_err());

    // devirtualize on a push/pull-broken graph.
    let mut broken = read_config("FromDevice(a) -> ToDevice(b);").unwrap();
    assert!(click::opt::devirtualize::devirtualize(
        &mut broken,
        &Library::standard(),
        &Default::default()
    )
    .is_err());

    // uncombine without a manifest.
    let plain = read_config("Idle -> Discard;").unwrap();
    assert!(click::opt::combine::uncombine(&plain, "A").is_err());
}

#[test]
fn runtime_survives_adversarial_packets() {
    // Truncated, oversized, and garbage frames through the full IP router
    // must never panic; they are dropped or error-routed.
    let spec = click::elements::ip_router::IpRouterSpec::standard(2);
    let graph = read_config(&spec.config()).unwrap();
    let mut r: DynRouter = Router::from_graph(&graph, &Library::standard()).unwrap();
    let eth0 = r.devices.id("eth0").unwrap();
    let mut lcg = Lcg::with_increment(7, 1);
    let mut rand_byte = move || lcg.next() as u8;
    for len in [0usize, 1, 13, 14, 15, 33, 34, 59, 60, 61, 1500, 9000] {
        let mut p = click::elements::Packet::new(len);
        for b in p.data_mut() {
            *b = rand_byte();
        }
        r.devices.inject(eth0, p);
    }
    // And a fixed byte ramp, so the bytes at each header offset are known.
    for len in [0usize, 7, 14, 20, 34, 60, 4096] {
        let mut p = click::elements::Packet::new(len);
        for (i, b) in p.data_mut().iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31);
        }
        r.devices.inject(eth0, p);
    }
    r.run_until_idle(10_000);
    // Whatever happened, the router reached quiescence without panicking.
    assert_eq!(r.devices.rx_len(eth0), 0);
}

/// CheckIPHeader semantics are drop-and-count, not panic: malformed IP
/// frames land in the `bad` counter (and are engine-dropped off the
/// unconnected error port) while good traffic keeps forwarding.
#[test]
fn check_ip_header_counts_bad_frames_dyn_engine() {
    let spec = IpRouterSpec::standard(2);
    let graph = read_config(&spec.config()).unwrap();
    let mut r: Router = Router::from_graph(&graph, &Library::standard()).unwrap();
    let eth0 = r.devices.id("eth0").unwrap();
    let eth1 = r.devices.id("eth1").unwrap();

    let good = || test_packet_flow(&spec, 0, 1, 1234, 5678);

    // Bad checksum: flip one bit in the IP checksum field.
    let mut bad_csum = good();
    bad_csum.data_mut()[ether::HLEN + 10] ^= 0x01;

    // Bad version: not IPv4 behind an 0x0800 ethertype.
    let mut bad_version = good();
    bad_version.data_mut()[ether::HLEN] = 0x60 | 0x05;

    // Truncated: the header claims more payload than the frame carries.
    let mut truncated = good();
    let keep = ether::HLEN + ipv4::HLEN + 2;
    let cut = truncated.len() - keep;
    truncated.take(cut);

    // IHL shorter than a minimal header.
    let mut runt_ihl = good();
    runt_ihl.data_mut()[ether::HLEN] = 0x41; // version 4, IHL 1 word
    let h = &mut runt_ihl.data_mut()[ether::HLEN..];
    let c = ipv4::compute_checksum(h);
    h[10..12].copy_from_slice(&c.to_be_bytes());

    let bad: Vec<Packet> = vec![bad_csum, bad_version, truncated, runt_ihl];
    let n_bad = bad.len() as u64;
    for p in bad {
        r.devices.inject(eth0, p);
    }
    r.devices.inject(eth0, good());
    r.run_until_idle(100_000);

    assert_eq!(
        r.class_stat("CheckIPHeader", "bad"),
        n_bad,
        "every malformed frame counted, none forwarded"
    );
    assert_eq!(
        r.devices.tx_len(eth1),
        1,
        "the good packet still forwards next to the bad ones"
    );
}

#[test]
fn flow_key_fuzz_never_panics_and_steers_stably() {
    // LCG-driven fuzz over frame lengths and contents — including frames
    // whose ethertype says IPv4 but whose header lies about its IHL, and
    // runts shorter than an Ethernet header. `flow_key` must never
    // panic, and shard assignment must be a pure function of the bytes.
    let steer = RssSteering::new(4);
    let dev = click::elements::element::DeviceId(1);
    let mut lcg = Lcg::with_increment(0x2545_F491_4F6C_DD1D, 1);
    let mut rand = move || lcg.step() >> 32;
    for round in 0..2000 {
        let len = (rand() as usize) % 80;
        let mut frame = vec![0u8; len];
        for b in &mut frame {
            *b = rand() as u8;
        }
        if round % 3 == 0 && len >= 14 {
            // Force the IPv4 ethertype so the parser goes deep.
            frame[12] = 0x08;
            frame[13] = 0x00;
            if len >= 15 {
                // Claimed IHL often exceeds the actual frame.
                frame[14] = 0x40 | (rand() as u8 & 0x0F);
            }
        }
        let k1 = flow_key(&frame);
        let k2 = flow_key(&frame);
        assert_eq!(k1, k2, "flow_key must be deterministic");
        let s1 = steer.shard_for(&frame, dev);
        let s2 = steer.shard_for(&frame, dev);
        assert_eq!(s1, s2, "shard assignment must be stable");
        assert!(s1 < 4);
        // A frame too short for a full IP header must have no key at all
        // (never a garbage key built from out-of-bounds reads), and a
        // header claiming more IHL than the frame carries is a runt too.
        if frame.len() < 14 + 20 {
            assert_eq!(k1, None, "short frame produced a key: len {len}");
        }
        if frame.len() >= 15 && usize::from(frame[14] & 0x0F) * 4 > frame.len() - 14 {
            assert_eq!(k1, None, "lying IHL produced a key: len {len}");
        }
    }
}

#[test]
fn dead_shard_mask_keeps_assignments_stable_for_survivors() {
    // Killing one shard re-homes only that shard's flows: every flow
    // homed elsewhere keeps its exact assignment (the per-flow-order
    // guarantee of degraded mode), and nothing ever lands on the corpse.
    let mut steer = RssSteering::new(4);
    let dev = click::elements::element::DeviceId(0);
    let frames: Vec<Vec<u8>> = (0..64u16)
        .map(|f| {
            let p = click::elements::headers::build_udp_packet(
                [1; 6],
                [2; 6],
                0x0A00_0002,
                0x0A00_0102,
                6000 + f,
                9,
                18,
                64,
            );
            p.data().to_vec()
        })
        .collect();
    let before: Vec<usize> = frames.iter().map(|f| steer.shard_for(f, dev)).collect();
    steer.mark_dead(2);
    for (frame, &home) in frames.iter().zip(&before) {
        let now = steer
            .live_shard_for(frame, dev)
            .expect("three shards remain");
        assert_ne!(now, 2, "steered to the dead shard");
        if home != 2 {
            assert_eq!(now, home, "survivor-homed flow moved");
        }
    }
}

/// A raw IP packet of `len` bytes whose header says whatever the caller
/// wants: nothing between the wire and the fragmenter has checked it.
fn hostile_ip(ihl: u8, len: usize, total_len: u16, df: bool) -> Packet {
    let mut p = Packet::new(len);
    let d = p.data_mut();
    for (i, b) in d.iter_mut().enumerate() {
        // No-op options wherever the IHL ends, distinct bytes after.
        *b = if i < 60 { 1 } else { (i % 251) as u8 };
    }
    d[0] = 0x40 | ihl;
    d[2..4].copy_from_slice(&total_len.to_be_bytes());
    d[6..8].copy_from_slice(&(if df { ipv4::FLAG_DF } else { 0 }).to_be_bytes());
    d[8] = 64;
    p
}

/// Equal but for what `DecIPTTL` rewrites (the TTL and the checksum).
fn same_but_ttl(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| matches!(i, 8 | 10 | 11) || a[i] == b[i])
}

/// Every IHL x frame length x DF x total-length claim through a
/// fragmenting element with no `CheckIPHeader` in front of it: each
/// packet must end up in exactly one place.
fn fragmenter_accounts_for_hostile_frames(config: &str, mtu: usize, batched: bool) {
    let graph = read_config(config).unwrap();
    let mut r: DynRouter = Router::from_graph(&graph, &Library::standard()).unwrap();
    r.set_batching(batched);
    let [in0, out0, err0] = ["in0", "out0", "err0"].map(|d| r.devices.id(d).unwrap());
    for ihl in 0..=15u8 {
        for len in [21usize, 28, 60, 61, 1500] {
            for total_len in [len as u16, 0, 0xFFFF] {
                for df in [false, true] {
                    let what = format!(
                        "{config} batched={batched}: IHL {ihl}, {len} bytes, \
                         total_len {total_len}, DF {df}"
                    );
                    let sent = hostile_ip(ihl, len, total_len, df);
                    let before = r.total_drops();
                    r.devices.inject(in0, sent.clone());
                    r.run_until_idle(10_000);
                    let out = r.devices.take_tx(out0);
                    let err = r.devices.take_tx(err0);
                    let dropped = r.total_drops() - before;
                    let sent = sent.data();
                    match (out.as_slice(), err.as_slice(), dropped) {
                        ([], [], 1) => {}
                        ([], [e], 0) => assert!(same_but_ttl(e.data(), sent), "{what}: error copy"),
                        ([whole], [], 0) if whole.len() == len => {
                            assert!(len <= mtu, "{what}: forwarded above the MTU");
                            assert!(same_but_ttl(whole.data(), sent), "{what}: forwarded");
                        }
                        (frags, [], 0) if !frags.is_empty() => {
                            let hlen = usize::from(ihl) * 4;
                            let mut payload = Vec::new();
                            for f in frags {
                                assert!(f.len() <= mtu, "{what}: fragment above the MTU");
                                assert_eq!(ipv4::header_len(f.data()), hlen, "{what}");
                                payload.extend_from_slice(&f.data()[hlen..]);
                            }
                            let total = usize::from(total_len).min(len);
                            assert_eq!(payload, sent[hlen..total], "{what}: payload");
                        }
                        _ => panic!(
                            "{what}: {} forwarded, {} on the error output, {dropped} dropped",
                            out.len(),
                            err.len()
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn unguarded_fragmenters_account_for_every_hostile_frame() {
    // On its own thread under a wall-clock guard: the failure this pins
    // was a fragment loop that never advanced.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for mtu in [28usize, 68, 576] {
            let fragmenter = format!(
                "FromDevice(in0) -> f :: IPFragmenter({mtu}); \
                 f [0] -> Queue(4096) -> ToDevice(out0); \
                 f [1] -> Queue(4096) -> ToDevice(err0);"
            );
            // Color 1 never matches the default paint: no redirect copies.
            let combo = format!(
                "FromDevice(in0) -> f :: IPOutputCombo(1, 10.0.0.1, {mtu}); \
                 err :: Queue(4096) -> ToDevice(err0); \
                 f [0] -> Queue(4096) -> ToDevice(out0); f [1] -> Discard; \
                 f [2] -> err; f [3] -> err; f [4] -> err;"
            );
            for batched in [false, true] {
                fragmenter_accounts_for_hostile_frames(&fragmenter, mtu, batched);
                fragmenter_accounts_for_hostile_frames(&combo, mtu, batched);
            }
        }
        let _ = done.send(());
    });
    // A panic on the worker drops `done`: `Disconnected`, also a failure.
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("hostile frames must neither hang nor panic a fragmenter");
}

/// Frames nothing upstream has checked: too short for an Ethernet or an IP
/// header (the short ones claim IHL 15 wherever a header would start), and
/// IP headers whose IHL and total length lie.
fn unchecked_frames() -> Vec<(String, Packet)> {
    let mut frames: Vec<(String, Packet)> = [0usize, 1, 13, 14]
        .map(|len| {
            (
                format!("{len}-byte frame"),
                Packet::from_data(&vec![0x4F; len]),
            )
        })
        .into();
    for ihl in [0u8, 1, 4, 15] {
        for total_len in [0u16, 19, 0xFFFF] {
            let what = format!("IHL {ihl}, total length {total_len}");
            frames.push((what, hostile_ip(ihl, 60, total_len, false)));
        }
    }
    frames
}

/// Pushes every unchecked frame straight into every input of every element
/// of `graph`, per packet or as a one-packet batch, and lets the router
/// settle after each; returns `class: frame` for every push that panicked.
fn panicking_pushes(graph: &click::core::RouterGraph, batched: bool) -> Vec<String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let build = || -> DynRouter {
        let mut r = Router::from_graph(graph, &Library::standard()).unwrap();
        r.set_batching(batched);
        r
    };
    let mut r = build();
    let mut panics = Vec::new();
    for (id, decl) in graph.elements() {
        let elem = r.find(decl.name()).unwrap();
        for port in 0..graph.ninputs(id).max(1) {
            for (what, frame) in unchecked_frames() {
                let pushed = catch_unwind(AssertUnwindSafe(|| {
                    if batched {
                        r.push_batch_to(elem, port, [frame].into_iter().collect());
                    } else {
                        r.push_to(elem, port, frame);
                    }
                    r.run_until_idle(1000);
                }));
                if pushed.is_err() {
                    panics.push(format!("{}: {what}", decl.class()));
                    r = build();
                }
            }
        }
    }
    panics
}

#[test]
fn unguarded_elements_never_panic_on_unchecked_frames() {
    // Figure 1 and its XF|FC|DV output, with every element reachable by a
    // frame no guard has seen.
    let variants = click_bench::ip_router_variants(2).unwrap();
    let mut panics = Vec::new();
    for v in variants
        .iter()
        .filter(|v| v.name == "Base" || v.name == "All")
    {
        for batched in [false, true] {
            let found = panicking_pushes(&v.graph, batched);
            panics.extend(
                found
                    .into_iter()
                    .map(|p| format!("{} batched={batched} {p}", v.name)),
            );
        }
    }
    assert!(panics.is_empty(), "{panics:#?}");
}

/// A configuration without guards feeds a bare Ethernet header into
/// `IPGWOptions`: the empty IP packet it leaves is malformed, out port 1.
#[test]
fn ip_gw_options_counts_an_empty_packet_as_bad() {
    let graph = read_config(
        "FromDevice(eth0) -> Strip(14) -> o :: IPGWOptions; \
         o [0] -> Queue -> ToDevice(out0); o [1] -> Queue -> ToDevice(err0);",
    )
    .unwrap();
    let mut r: DynRouter = Router::from_graph(&graph, &Library::standard()).unwrap();
    let [eth0, out0, err0] = ["eth0", "out0", "err0"].map(|d| r.devices.id(d).unwrap());
    r.devices.inject(eth0, Packet::new(ether::HLEN));
    r.run_until_idle(100);
    assert_eq!(r.devices.tx_len(out0), 0);
    assert_eq!(r.devices.tx_len(err0), 1);
    assert_eq!(r.stat("o", "bad"), Some(1));
}
