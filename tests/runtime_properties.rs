//! Property tests on the runtime substrates: packet buffer invariants,
//! push/pull resolution consistency, and routing-table behavior under
//! random operation sequences.
//!
//! Randomness comes from a fixed-seed LCG so the suite is deterministic
//! and dependency-free.

use click::core::lang::read_config;
use click::core::pushpull::resolve;
use click::core::registry::Library;
use click::core::spec::PortKind;
use click::core::Lcg;
use click::elements::packet::Packet;
use click::elements::routing::IpTrie;

#[derive(Debug, Clone)]
enum PacketOp {
    Pull(usize),
    Push(usize),
    Take(usize),
    Put(usize),
    Align(u8, u8),
}

fn gen_op(r: &mut Lcg) -> PacketOp {
    match r.below(5) {
        0 => PacketOp::Pull(r.below(40)),
        1 => PacketOp::Push(r.below(40)),
        2 => PacketOp::Take(r.below(40)),
        3 => PacketOp::Put(r.below(40)),
        _ => {
            let modulus = 1u8 << (r.below(3) as u8 + 1); // 2, 4, 8
            PacketOp::Align(modulus, (r.below(8) as u8) % modulus)
        }
    }
}

/// The packet buffer never panics, never loses interior data on
/// pull/push round trips, and align preserves contents.
#[test]
fn packet_ops_never_corrupt() {
    let mut r = Lcg::new(0x9AC4E7);
    for _ in 0..256 {
        let data: Vec<u8> = (0..1 + r.below(79)).map(|_| r.next() as u8).collect();
        let mut p = Packet::from_data(&data);
        for _ in 0..r.below(24) {
            let before = p.data().to_vec();
            match gen_op(&mut r) {
                PacketOp::Pull(n) => {
                    p.pull(n);
                    let kept = before.len().saturating_sub(n);
                    assert_eq!(p.len(), kept);
                    assert_eq!(p.data(), &before[before.len() - kept..]);
                }
                PacketOp::Push(n) => {
                    p.push(n);
                    assert_eq!(p.len(), before.len() + n);
                    assert_eq!(&p.data()[n..], &before[..]);
                }
                PacketOp::Take(n) => {
                    p.take(n);
                    let kept = before.len().saturating_sub(n);
                    assert_eq!(p.data(), &before[..kept]);
                }
                PacketOp::Put(n) => {
                    p.put(n);
                    assert_eq!(&p.data()[..before.len()], &before[..]);
                    assert!(p.data()[before.len()..].iter().all(|&b| b == 0));
                }
                PacketOp::Align(m, o) => {
                    p.align_to(m as usize, o as usize);
                    let m4 = (m as usize).clamp(1, 4);
                    assert_eq!(p.alignment_offset() % m4, (o as usize) % m4);
                    assert_eq!(p.data(), &before[..]);
                }
            }
        }
    }
}

/// Longest-prefix match agrees with a brute-force scan for arbitrary
/// route tables.
#[test]
fn trie_matches_linear_scan() {
    let mut r = Lcg::new(0x72E1E);
    for _ in 0..256 {
        let mut trie = IpTrie::new();
        let mut table: Vec<(u32, u8, usize)> = Vec::new();
        for i in 0..r.below(64) {
            let addr = r.word();
            let plen = r.below(33) as u8;
            let masked = if plen == 0 {
                0
            } else {
                addr & (u32::MAX << (32 - plen as u32))
            };
            trie.insert(masked, plen, i);
            table.retain(|&(a, l, _)| !(a == masked && l == plen));
            table.push((masked, plen, i));
        }
        for _ in 0..1 + r.below(63) {
            let q = r.word();
            let expected = table
                .iter()
                .filter(|&&(a, l, _)| l == 0 || (q ^ a) >> (32 - l as u32) == 0)
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, v)| v);
            assert_eq!(trie.lookup(q).copied(), expected);
        }
    }
}

/// Push/pull resolution invariant: in any successfully resolved
/// configuration, the two endpoints of every connection carry the same
/// kind, and no port is left agnostic.
#[test]
fn resolution_is_consistent_across_random_chains() {
    // Generate chains mixing agnostic, push, and pull elements with a
    // deterministic PRNG; whenever resolution succeeds, check the
    // invariant; whenever it fails, verify a genuine conflict exists.
    let lib = Library::standard();
    let mut r = Lcg::new(0xC0FFEE);
    let mut rand = move |n: usize| r.below(n);
    for _ in 0..200 {
        let len = 2 + rand(5);
        let mut src = String::from("FromDevice(in) -> ");
        let mut queues = 0usize;
        for i in 0..len {
            match rand(3) {
                0 => src.push_str(&format!("n{i} :: Null -> ")),
                1 => src.push_str(&format!("c{i} :: Counter -> ")),
                _ => {
                    src.push_str(&format!("q{i} :: Queue -> "));
                    queues += 1;
                }
            }
        }
        src.push_str("ToDevice(out);");
        let graph = read_config(&src).unwrap();
        // Oracle: a linear device-to-device chain resolves iff it crosses
        // push→pull exactly once, i.e. contains exactly one Queue.
        match resolve(&graph, &lib) {
            Ok(pa) => {
                assert_eq!(
                    queues, 1,
                    "push source to pull sink requires exactly one queue:\n{src}"
                );
                for c in graph.connections() {
                    let out = pa.output(c.from.element, c.from.port);
                    let inp = pa.input(c.to.element, c.to.port);
                    assert_eq!(out, inp, "mismatched connection in:\n{src}");
                    assert_ne!(out, PortKind::Agnostic, "unresolved port in:\n{src}");
                }
            }
            Err(_) => {
                assert_ne!(
                    queues, 1,
                    "resolution failed despite exactly one queue:\n{src}"
                );
            }
        }
    }
}

/// Two queues in sequence resolve (push→pull, then a pull→push boundary
/// needs an active element — an unqueued stretch between two queues is
/// pulled end-to-end by the second queue's consumer side only through a
/// scheduler; directly connecting queue output to queue input is a
/// conflict).
#[test]
fn queue_to_queue_is_a_conflict() {
    let lib = Library::standard();
    let g = read_config("FromDevice(a) -> Queue -> Queue -> ToDevice(b);").unwrap();
    assert!(
        resolve(&g, &lib).is_err(),
        "pull output into push input must conflict"
    );
}

/// Pull→push bridges: both `RouterLink` (combined configurations) and
/// `Unqueue` (the classic Click element) actively pull upstream and push
/// downstream.
#[test]
fn pull_to_push_bridges_resolve_and_run() {
    let lib = Library::standard();
    for bridge in ["RouterLink", "Unqueue"] {
        let src = format!("FromDevice(a) -> Queue -> {bridge} -> Queue -> ToDevice(b);");
        let g = read_config(&src).unwrap();
        let pa = resolve(&g, &lib).unwrap();
        let link = g.elements().find(|(_, e)| e.class() == bridge).unwrap().0;
        assert_eq!(pa.input(link, 0), PortKind::Pull, "{bridge}");
        assert_eq!(pa.output(link, 0), PortKind::Push, "{bridge}");
        // And it actually moves packets.
        let mut r: click::elements::DynRouter =
            click::elements::Router::from_graph(&g, &lib).unwrap();
        let a = r.devices.id("a").unwrap();
        let b = r.devices.id("b").unwrap();
        for _ in 0..5 {
            r.devices.inject(a, Packet::new(60));
        }
        r.run_until_idle(1000);
        assert_eq!(r.devices.tx_len(b), 5, "{bridge}");
    }
}
