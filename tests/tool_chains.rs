//! Integration tests of complete optimizer chains: tools compose "much
//! like compiler optimization passes" (paper §1), every intermediate
//! stage is a valid, serializable configuration, and the chained result
//! matches applying the tools programmatically.

use click::core::check::check;
use click::core::lang::{read_config, write_config};
use click::core::registry::Library;
use click::elements::ip_router::IpRouterSpec;
use click::opt;
use std::collections::HashSet;

fn lib() -> Library {
    Library::standard()
}

/// Serialize → reparse, asserting validity (what a pipe between two CLI
/// tools does).
fn through_pipe(g: &click::core::RouterGraph) -> click::core::RouterGraph {
    let text = write_config(g);
    let back = read_config(&text).expect("intermediate stage must reparse");
    assert!(g.same_configuration(&back));
    back
}

#[test]
fn full_chain_with_serialization_between_stages() {
    let spec = IpRouterSpec::standard(4);
    let mut g = read_config(&spec.config()).unwrap();

    // click-xform
    let n = opt::xform::apply_patterns(&mut g, &opt::xform::ip_combo_patterns().unwrap()).unwrap();
    assert_eq!(n, 8);
    let mut g = through_pipe(&g);
    assert!(check(&g, &lib()).is_ok());

    // click-fastclassifier
    let fc = opt::fastclassifier::fastclassifier(&mut g).unwrap();
    assert_eq!(fc.specialized.len(), 4);
    let mut g = through_pipe(&g);
    assert!(check(&g, &lib()).is_ok());
    // The generated source rides in the archive across the pipe.
    assert!(g.archive().iter().any(|e| e.name.ends_with(".rs")));

    // click-devirtualize (last, per §6.1)
    let dv = opt::devirtualize::devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
    assert!(!dv.classes.is_empty());
    let g = through_pipe(&g);
    assert!(check(&g, &lib()).is_ok());
    assert!(g.has_requirement("fastclassifier"));
    assert!(g.has_requirement("devirtualize"));
}

#[test]
fn tool_order_differences_converge() {
    // FC then XF vs XF then FC: both end with the same element classes
    // modulo generated names.
    let spec = IpRouterSpec::standard(2);
    let patterns = opt::xform::ip_combo_patterns().unwrap();

    let mut a = read_config(&spec.config()).unwrap();
    opt::fastclassifier::fastclassifier(&mut a).unwrap();
    opt::xform::apply_patterns(&mut a, &patterns).unwrap();

    let mut b = read_config(&spec.config()).unwrap();
    opt::xform::apply_patterns(&mut b, &patterns).unwrap();
    opt::fastclassifier::fastclassifier(&mut b).unwrap();

    assert_eq!(a.element_count(), b.element_count());
    let classes = |g: &click::core::RouterGraph| {
        let mut v: Vec<String> = g
            .elements()
            .map(|(_, e)| {
                // Normalize generated names.
                let c = e.class();
                if c.starts_with("FastClassifier@@") {
                    "FastClassifier".to_owned()
                } else {
                    c.to_owned()
                }
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(classes(&a), classes(&b));
}

#[test]
fn undead_then_align_on_compound_heavy_config() {
    // A configuration leaning on compound abstractions with dead branches
    // and an alignment hazard — the two "static analysis" tools in
    // sequence.
    let mut g = read_config(
        "elementclass Input { $dev, $mode | \
            input -> output; \
            pd :: PollDevice($dev) -> s :: StaticSwitch($mode); \
            s [0] -> Strip(12) -> chk :: CheckIPHeader -> output; \
            s [1] -> Strip(14) -> chk2 :: CheckIPHeader -> output; } \
         in1 :: Input(eth0, 0); in2 :: Input(eth1, 1); \
         in1 -> q :: Queue(64); in2 -> q; q -> ToDevice(eth2);",
    )
    .unwrap();
    let before = g.element_count();

    let undead = opt::undead::undead(&mut g, &lib()).unwrap();
    assert_eq!(undead.folded_switches.len(), 2);
    assert!(g.element_count() < before);
    assert!(check(&g, &lib()).is_ok());

    let align = opt::align::align(&mut g).unwrap();
    // Only the surviving Strip(12) branch misaligns.
    assert_eq!(align.inserted.len(), 1);
    assert!(check(&g, &lib()).is_ok());

    // Everything still serializes.
    let back = read_config(&write_config(&g)).unwrap();
    assert!(g.same_configuration(&back));
}

#[test]
fn mkmindriver_reflects_chain_output() {
    let spec = IpRouterSpec::standard(2);
    let mut g = read_config(&spec.config()).unwrap();
    opt::xform::apply_patterns(&mut g, &opt::xform::ip_combo_patterns().unwrap()).unwrap();
    opt::fastclassifier::fastclassifier(&mut g).unwrap();
    opt::devirtualize::devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
    let manifest = opt::mkmindriver::mkmindriver(&g);
    assert!(manifest.classes.contains(&"IPInputCombo".to_owned()));
    assert!(manifest.classes.contains(&"FastClassifier".to_owned()));
    assert!(!manifest.generated.is_empty());
    // Non-combo input-path classes are gone from the driver.
    assert!(!manifest.classes.contains(&"Paint".to_owned()));
}

#[test]
fn pretty_renders_optimized_config() {
    let spec = IpRouterSpec::standard(2);
    let mut g = read_config(&spec.config()).unwrap();
    opt::fastclassifier::fastclassifier(&mut g).unwrap();
    let html = opt::pretty::pretty_html(&g, "optimized");
    assert!(html.contains("FastClassifier@@"));
    assert!(html.contains("<table>"));
}

#[test]
fn check_tool_rejects_broken_output_of_bad_edit() {
    // Simulate a hand-edit that breaks the graph after optimization.
    let spec = IpRouterSpec::standard(2);
    let mut g = read_config(&spec.config()).unwrap();
    opt::devirtualize::devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
    let rt = g.find("rt").unwrap();
    g.remove_element(rt);
    let report = check(&g, &lib());
    assert!(!report.is_ok());
}

/// XF → FC → DV over configuration text, serialized.
fn compile_to_text(src: &str) -> String {
    let mut g = read_config(src).unwrap();
    opt::xform::apply_patterns(&mut g, &opt::xform::ip_combo_patterns().unwrap()).unwrap();
    opt::fastclassifier::fastclassifier(&mut g).unwrap();
    opt::devirtualize::devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
    write_config(&g)
}

#[test]
fn chain_output_is_byte_identical_across_runs() {
    // The tools are Unix filters: the same text in must give the same
    // bytes out, also within one process, where every `HashMap` hashes
    // with different keys.
    let mut r = click::core::Lcg::new(7);
    let mut rand = move |n: u64| r.next() % n;
    let mut rules: Vec<String> = (1..200)
        .map(|_| {
            format!(
                "deny src net 172.{}.{}.0/24 && dst net 192.168.{}.0/24 && tcp dst port {}",
                16 + rand(16),
                rand(48),
                rand(48),
                1 + rand(1024)
            )
        })
        .collect();
    rules.push("allow all".to_owned());
    let firewall = format!("Idle -> IPFilter({}) -> Discard;", rules.join(", "));
    for src in [
        IpRouterSpec::standard(4).config(),
        IpRouterSpec::standard(32).config(),
        firewall,
    ] {
        let first = compile_to_text(&src);
        assert!(first == compile_to_text(&src), "two runs differ on:\n{src}");
        assert!(check(&read_config(&first).unwrap(), &lib()).is_ok());
    }
}

/// The source rules of one classifier element, as its own tree walk.
fn source_tree(class: &str, config: &str) -> click::classifier::TreeClassifier {
    use click::classifier::{build_tree, parse_rules, rules_noutputs, TreeClassifier};
    let rules = parse_rules(class, config).unwrap();
    TreeClassifier::new(&build_tree(&rules, rules_noutputs(&rules)))
}

/// Sets the words `cond` compares so that it holds where it can: every
/// conjunct, the first disjunct, nothing under a negation.
fn satisfy(cond: &click::classifier::Cond, pkt: &mut [u8]) {
    use click::classifier::Cond;
    match cond {
        Cond::Check(c) => {
            let at = c.offset as usize;
            let word = u32::from_be_bytes(pkt[at..at + 4].try_into().unwrap());
            pkt[at..at + 4].copy_from_slice(&((word & !c.mask) | c.value).to_be_bytes());
        }
        Cond::And(cs) => cs.iter().for_each(|c| satisfy(c, pkt)),
        Cond::Or(cs) => {
            if let Some(c) = cs.first() {
                satisfy(c, pkt);
            }
        }
        Cond::Not(_) | Cond::True | Cond::False => {}
    }
}

/// Seeded random packets over the bytes the rules below test, then one
/// packet per rule built to match it.
fn probe_packets(class: &str, config: &str, seed: u64) -> Vec<Vec<u8>> {
    let mut r = click::core::Lcg::new(seed);
    let mut random = || {
        let mut p: Vec<u8> = (0..64)
            .map(|_| [0x00, 0x06, 0x08, 0x0a, 0x11, 0x45][r.below(6)])
            .collect();
        if r.below(4) != 0 {
            p[0] = 0x45;
        }
        // Destination ports 0x0700-0x07ff, the range the rules test.
        p[22] = 0x07;
        p[23] = r.below(256) as u8;
        p
    };
    let mut packets: Vec<Vec<u8>> = (0..2000).map(|_| random()).collect();
    for rule in click::classifier::parse_rules(class, config).unwrap() {
        let mut p = random();
        satisfy(&rule.cond, &mut p);
        packets.push(p);
    }
    packets
}

/// The diagram the chain left in element `name`'s configuration.
fn chain_diagram(out: &str, name: &str) -> click::classifier::DecisionDiagram {
    let g = read_config(out).unwrap();
    let id = g.find(name).unwrap_or_else(|| panic!("{name} gone"));
    click::elements::elements::classify::fast_diagram(g.element(id).config()).unwrap()
}

#[test]
fn large_classifiers_keep_their_semantics_through_the_chain() {
    let mut r = click::core::Lcg::new(0xFD0);
    // A 200-rule IPFilter, a 40-rule IPClassifier and a 40-pattern
    // Classifier.
    let mut filter: Vec<String> = (1..200)
        .map(|_| match r.below(3) {
            0 => format!(
                "deny src net 10.{}.0.0/16 && tcp dst port {}",
                r.below(12),
                0x0700 + r.below(256)
            ),
            1 => format!("allow udp src port {}", 0x0700 + r.below(256)),
            _ => format!("deny icmp type {}", r.below(16)),
        })
        .collect();
    filter.push("allow all".to_owned());
    let mut ipclass: Vec<String> = (0..40)
        .map(|_| match r.below(3) {
            0 => format!("tcp dst port {}", 0x0700 + r.below(256)),
            1 => format!("src net 10.{}.0.0/16", r.below(12)),
            _ => format!("udp && src host 10.{}.6.8", r.below(12)),
        })
        .collect();
    ipclass.push("-".to_owned());
    let hex = |r: &mut click::core::Lcg| format!("{:02x}", [0x00, 0x06, 0x08, 0x11][r.below(4)]);
    let mut patterns: Vec<String> = (0..40)
        .map(|_| {
            let first = format!(
                "{}/{}{}",
                [12, 14, 20][r.below(3)],
                hex(&mut r),
                hex(&mut r)
            );
            match r.below(2) {
                0 => first,
                _ => format!("{first} 23/{}", hex(&mut r)),
            }
        })
        .collect();
    patterns.push("-".to_owned());

    for (class, config) in [
        ("IPFilter", filter.join(", ")),
        ("IPClassifier", ipclass.join(", ")),
        ("Classifier", patterns.join(", ")),
    ] {
        let nout = click::classifier::rules_noutputs(
            &click::classifier::parse_rules(class, &config).unwrap(),
        );
        let mut src = format!("Idle -> c :: {class}({config}); ");
        for p in 0..nout {
            src += &format!("c [{p}] -> Discard; ");
        }
        let matcher = chain_diagram(&compile_to_text(&src), "c");
        let reference = source_tree(class, &config);
        let mut seen = HashSet::new();
        for (i, p) in probe_packets(class, &config, 0xFD1).iter().enumerate() {
            let expected = reference.classify(p);
            assert_eq!(
                matcher.classify(p),
                expected,
                "{class}: packet {i} {p:02x?}"
            );
            seen.insert(expected);
        }
        assert!(seen.len() * 2 > nout, "{class}: only {seen:?} reached");
    }

    // A merged pair: a 40-pattern Classifier whose first output feeds a
    // second one specializes to one diagram over the composed rules.
    let inner = "23/06, 23/11, -";
    let mut src = format!(
        "Idle -> a :: Classifier({}); a [0] -> b :: Classifier({inner}); ",
        patterns.join(", ")
    );
    for p in 1..41 {
        src += &format!("a [{p}] -> Discard; ");
    }
    src += "b [0] -> Discard; b [1] -> Discard; b [2] -> Discard;";
    let matcher = chain_diagram(&compile_to_text(&src), "a");
    let (outer, inner) = (
        source_tree("Classifier", &patterns.join(", ")),
        source_tree("Classifier", inner),
    );
    for p in probe_packets("Classifier", &patterns.join(", "), 0xFD2) {
        // a's output 0 now leads into b's outputs, appended after a's 40.
        let expected = match outer.classify(&p) {
            Some(0) => inner.classify(&p).map(|o| 40 + o),
            other => other.map(|o| o - 1),
        };
        assert_eq!(matcher.classify(&p), expected, "{p:02x?}");
    }
}
