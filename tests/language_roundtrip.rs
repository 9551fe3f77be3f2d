//! Property tests on the configuration language: every graph the tools
//! can produce must serialize to Click text that parses back to the same
//! configuration — the paper's §5.2 requirement that optimizers "generate
//! Click-language files corresponding exactly to the results".
//!
//! Randomness comes from a fixed-seed LCG so the suite is deterministic
//! and dependency-free.

use click::core::graph::{PortRef, RouterGraph};
use click::core::lang::{read_config, write_config};
use click::core::Lcg;

fn pick(r: &mut Lcg, chars: &[u8]) -> char {
    chars[r.below(chars.len())] as char
}

fn string(r: &mut Lcg, first: &[u8], rest: &[u8], max_rest: usize) -> String {
    let mut s = String::new();
    s.push(pick(r, first));
    for _ in 0..r.below(max_rest + 1) {
        s.push(pick(r, rest));
    }
    s
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const LOWER_NUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// Printable ASCII minus the characters the language reserves in config
/// position: `(`, `)`, `,`, `"`, `\`, `;` — the class the original
/// property used.
fn config_charset() -> Vec<u8> {
    (0x20u8..0x7f)
        .filter(|c| !matches!(c, b'(' | b')' | b',' | b'"' | b'\\' | b';'))
        .collect()
}

/// Full printable ASCII, for archive entry data.
fn printable() -> Vec<u8> {
    (0x20u8..0x7f).collect()
}

/// A random DAG-ish graph with Click-legal names and classes.
fn gen_graph(r: &mut Lcg, cfg_chars: &[u8]) -> RouterGraph {
    let mut g = RouterGraph::new();
    let mut ids = Vec::new();
    for _ in 0..1 + r.below(9) {
        let name = string(r, LOWER, LOWER_NUM, 8);
        let class = string(r, UPPER, ALNUM, 8);
        let config: String = (0..r.below(13)).map(|_| pick(r, cfg_chars)).collect();
        // Names must be unique; skip duplicates.
        if g.find(&name).is_none() {
            ids.push(
                g.add_element(name, class, config.trim().to_owned())
                    .unwrap(),
            );
        }
    }
    for _ in 0..r.below(16) {
        if ids.is_empty() {
            break;
        }
        let from = ids[r.below(ids.len())];
        let to = ids[r.below(ids.len())];
        let _ = g.connect(PortRef::new(from, r.below(4)), PortRef::new(to, r.below(4)));
    }
    g
}

#[test]
fn unparse_parse_round_trips() {
    let mut r = Lcg::new(0x0C0FFEE);
    let cfg_chars = config_charset();
    for _ in 0..192 {
        let g = gen_graph(&mut r, &cfg_chars);
        let text = write_config(&g);
        let back = read_config(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert!(
            g.same_configuration(&back),
            "round trip changed the configuration:\n{}\nvs\n{}",
            text,
            write_config(&back)
        );
    }
}

#[test]
fn archive_round_trips() {
    let mut r = Lcg::new(0xA2C417E);
    let cfg_chars = config_charset();
    let data_chars = printable();
    for _ in 0..192 {
        let mut g = gen_graph(&mut r, &cfg_chars);
        for _ in 0..r.below(4) {
            let name = format!("{}.rs", string(&mut r, LOWER, LOWER, 7));
            let data: String = (0..r.below(65))
                .map(|_| pick(&mut r, &data_chars))
                .collect();
            g.archive_mut().insert(name, data);
        }
        let text = write_config(&g);
        let back = read_config(&text).unwrap();
        assert!(g.same_configuration(&back));
        for e in g.archive().iter() {
            assert_eq!(back.archive().get(&e.name), Some(e.data.as_str()));
        }
    }
}

#[test]
fn generated_names_round_trip() {
    // Names the tools generate: anonymous (`Class@3`), flattened
    // (`compound/inner`), devirtualized classes, fast classifiers.
    let mut g = RouterGraph::new();
    let a = g.add_anon_element("Idle", "");
    let b = g.add_element("router/q1", "Queue__DV3", "64").unwrap();
    let c = g
        .add_element("c", "FastClassifier@@c", "fast constant 1 out0")
        .unwrap();
    let d = g
        .add_element("link@A.eth0@B.eth1", "RouterLink", "A.eth0 -> B.eth1")
        .unwrap();
    g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
    g.connect(PortRef::new(b, 0), PortRef::new(c, 0)).unwrap();
    g.connect(PortRef::new(c, 0), PortRef::new(d, 0)).unwrap();
    let text = write_config(&g);
    let back = read_config(&text).unwrap();
    assert!(g.same_configuration(&back), "text was:\n{text}");
}

#[test]
fn requirements_and_high_ports_round_trip() {
    let mut g = RouterGraph::new();
    g.add_requirement("fastclassifier");
    g.add_requirement("devirtualize");
    let a = g
        .add_element("a", "Classifier", "0/01, 0/02, 0/03, -")
        .unwrap();
    let b = g.add_element("b", "X", "").unwrap();
    let idle = g.add_element("i", "Idle", "").unwrap();
    g.connect(PortRef::new(idle, 0), PortRef::new(a, 0))
        .unwrap();
    for p in 0..4 {
        g.connect(PortRef::new(a, p), PortRef::new(b, p)).unwrap();
    }
    let back = read_config(&write_config(&g)).unwrap();
    assert!(g.same_configuration(&back));
    assert!(back.has_requirement("fastclassifier"));
    assert!(back.has_requirement("devirtualize"));
}
