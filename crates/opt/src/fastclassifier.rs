//! `click-fastclassifier` — dynamic code generation for classifiers
//! (paper §4).
//!
//! The tool:
//!
//! 1. finds the classification elements (`Classifier`, `IPClassifier`,
//!    `IPFilter`) in a configuration;
//! 2. combines adjacent `Classifier`s into one rule list to improve
//!    optimization possibilities;
//! 3. validates them in a *harness* configuration, parses each one's
//!    rules with the very classifier-compilation code the router runs (so
//!    "classifier syntax changes need be implemented exactly once"),
//!    lowers them to an ordered-field decision diagram, and leaves a
//!    one-line summary per classifier in the harness output;
//! 4. generates one specialized class per distinct diagram (identical
//!    diagrams share a class), attaching the generated source to the
//!    configuration archive;
//! 5. rewrites each classifier declaration to its generated
//!    `FastClassifier@@name` class, configured with the diagram's text.

use click_classifier::{
    build_diagram, parse_rules, rules_noutputs, Action, Cond, DecisionDiagram, Rule,
};
use click_core::error::Result;
use click_core::graph::{Connection, ElementId, PortRef, RouterGraph};
use click_core::Error;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Classes the tool specializes.
pub const CLASSIFIER_CLASSES: [&str; 3] = ["Classifier", "IPClassifier", "IPFilter"];

/// What the tool did, for reporting.
#[derive(Debug, Default)]
pub struct FastClassifierReport {
    /// `(element name, generated class)`.
    pub specialized: Vec<(String, String)>,
    /// Pairs of adjacent `Classifier`s that were merged (survivor, absorbed).
    pub combined: Vec<(String, String)>,
}

/// Returns true if the class is one the tool handles.
pub fn is_classifier_class(class: &str) -> bool {
    CLASSIFIER_CLASSES.contains(&class)
}

/// Builds the harness configuration: just the classifiers, fed by `Idle`
/// and draining to `Discard`, "which avoids possible side effects from
/// running Click on the input configuration" (paper §4).
fn build_harness(graph: &RouterGraph, targets: &[ElementId]) -> Result<RouterGraph> {
    let mut harness = RouterGraph::new();
    for &id in targets {
        let decl = graph.element(id);
        let elem = harness.add_element(decl.name(), decl.class(), decl.config())?;
        let idle = harness.add_anon_element("Idle", "");
        harness.connect(PortRef::new(idle, 0), PortRef::new(elem, 0))?;
        for port in 0..graph.noutputs(id).max(1) {
            let discard = harness.add_anon_element("Discard", "");
            harness.connect(PortRef::new(elem, port), PortRef::new(discard, 0))?;
        }
    }
    Ok(harness)
}

/// Generates the pseudo-Rust source attached to the archive — the
/// analogue of the C++ `click-fastclassifier` emits (Figure 3b).
fn generate_source(class_name: &str, d: &DecisionDiagram) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Generated by click-fastclassifier; do not edit.");
    let _ = writeln!(s, "// Specialization shape: diagram");
    let _ = writeln!(s, "pub struct {};", class_name.replace("@@", "_"));
    let _ = writeln!(s, "impl {} {{", class_name.replace("@@", "_"));
    let _ = writeln!(s, "    #[inline]");
    let _ = writeln!(
        s,
        "    pub fn length_unchecked_push(data: &[u8]) -> Option<usize> {{"
    );
    let _ = writeln!(
        s,
        "        // ordered-field decision diagram: {} fields, {} nodes, depth {}",
        d.fields.len(),
        d.nodes.len(),
        d.depth()
    );
    for (i, fd) in d.fields.iter().enumerate() {
        let _ = writeln!(
            s,
            "        // field_{i}: load_be32(data, {}) & {:#010x}",
            fd.offset, fd.mask
        );
    }
    // A diagram's serialized form is as large as the rule set, and it is
    // the element's configuration already.
    let _ = writeln!(
        s,
        "        unreachable!(\"serialized form: the element's configuration\")"
    );
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}

/// Runs the `click-fastclassifier` optimization on a configuration.
///
/// # Errors
///
/// Returns an error if a classifier configuration fails to compile.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_opt::fastclassifier::fastclassifier;
///
/// let mut g = read_config("Idle -> c :: Classifier(12/0800, -); c [0] -> Discard; c [1] -> Discard;")?;
/// let report = fastclassifier(&mut g)?;
/// assert_eq!(report.specialized.len(), 1);
/// let c = g.find("c").unwrap();
/// assert!(g.element(c).class().starts_with("FastClassifier@@"));
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn fastclassifier(graph: &mut RouterGraph) -> Result<FastClassifierReport> {
    let mut report = FastClassifierReport::default();

    // Step 1: combine adjacent Classifiers. A merged pair's rule list
    // stays here until specialization.
    let mut merged = combine_adjacent(graph, &mut report)?;

    // Step 2: collect the classifier elements.
    let targets: Vec<ElementId> = graph
        .elements()
        .filter(|(_, e)| is_classifier_class(e.class()))
        .map(|(id, _)| id)
        .collect();
    if targets.is_empty() {
        return Ok(report);
    }

    // Step 3: the harness is validated like a real configuration. Then
    // each classifier's rules are parsed once, lowered, and summarized in
    // a line.
    let harness = build_harness(graph, &targets)?;
    let check = click_core::check::check(&harness, &click_core::registry::Library::standard());
    if !check.is_ok() {
        let first = check.errors().next().expect("has errors");
        return Err(Error::check(format!(
            "fastclassifier harness invalid: {first}"
        )));
    }
    let mut dumps = String::new();
    let mut diagrams = Vec::with_capacity(targets.len());
    for &id in &targets {
        let decl = graph.element(id);
        let rules = match merged.remove(&id) {
            Some(rules) => rules,
            None => parse_rules(decl.class(), decl.config())?,
        };
        let diagram = build_diagram(&rules, rules_noutputs(&rules));
        let _ = writeln!(
            dumps,
            "# {}\ndiagram rules {} outputs {} fields {} nodes {} depth {}\n",
            decl.name(),
            rules.len(),
            diagram.noutputs,
            diagram.fields.len(),
            diagram.nodes.len(),
            diagram.depth()
        );
        diagrams.push((id, diagram));
    }
    graph
        .archive_mut()
        .insert("fastclassifier_harness_output", dumps);

    // Step 4 & 5: generate one class per distinct diagram and rewrite
    // declarations.
    let mut class_by_config: HashMap<String, String> = HashMap::new();
    for (id, diagram) in diagrams {
        let name = graph.element(id).name().to_owned();
        let config = format!("fast {diagram}");
        let class = match class_by_config.get(&config) {
            Some(c) => c.clone(),
            None => {
                let class = format!("FastClassifier@@{}", name.replace('/', "_"));
                graph.archive_mut().insert(
                    format!("{}.rs", class.replace("@@", "_")),
                    generate_source(&class, &diagram),
                );
                class_by_config.insert(config.clone(), class.clone());
                class
            }
        };
        report.specialized.push((name, class.clone()));
        graph.set_class(id, class);
        graph.set_config(id, config);
    }
    graph.add_requirement("fastclassifier");
    Ok(report)
}

/// The first output of `Classifier` `id` that is the whole input of another
/// `Classifier`, with that classifier.
fn mergeable_output(graph: &RouterGraph, id: ElementId) -> Option<(usize, ElementId)> {
    if !graph.is_live(id) || graph.element(id).class() != "Classifier" {
        return None;
    }
    (0..graph.noutputs(id)).find_map(|port| {
        let mut conns = graph.connections_from(id, port);
        let (Some(c), None) = (conns.next(), conns.next()) else {
            return None;
        };
        let target = c.to.element;
        // The downstream classifier must receive packets only from this port.
        let sole_feed = target != id
            && c.to.port == 0
            && graph.element(target).class() == "Classifier"
            && graph.inputs_of(target).len() == 1;
        sole_feed.then_some((port, target))
    })
}

/// Composes `inner` into output `port` of `outer`: packets `outer` would
/// emit on `port` are instead classified by `inner`. Each outer rule that
/// emits on `port` becomes one rule per inner rule, conjoined, then a drop
/// for packets no inner rule matches. Output numbering: `outer`'s other
/// outputs keep their order (renumbered densely), then `inner`'s outputs.
fn compose(outer: Vec<Rule>, port: usize, inner: &[Rule]) -> Vec<Rule> {
    let shift = rules_noutputs(&outer).saturating_sub(1);
    let mut rules = Vec::with_capacity(outer.len() + inner.len());
    for r in outer {
        match r.action {
            Action::Emit(o) if o == port => {
                rules.extend(inner.iter().map(|i| Rule {
                    cond: Cond::And(vec![r.cond.clone(), i.cond.clone()]),
                    action: match i.action {
                        Action::Emit(o) => Action::Emit(shift + o),
                        Action::Drop => Action::Drop,
                    },
                }));
                rules.push(Rule {
                    cond: r.cond,
                    action: Action::Drop,
                });
            }
            Action::Emit(o) => rules.push(Rule {
                cond: r.cond,
                action: Action::Emit(o - usize::from(o > port)),
            }),
            Action::Drop => rules.push(r),
        }
    }
    rules
}

/// Combines `Classifier` pairs where one output feeds the whole input of
/// another `Classifier`. Returns each survivor's composed rule list; its
/// declaration keeps its own configuration until specialization rewrites
/// it (the harness check reads no classifier configuration).
fn combine_adjacent(
    graph: &mut RouterGraph,
    report: &mut FastClassifierReport,
) -> Result<HashMap<ElementId, Vec<Rule>>> {
    let mut merged: HashMap<ElementId, Vec<Rule>> = HashMap::new();
    let ids: Vec<ElementId> = graph.element_ids().collect();
    for a in ids {
        // A merge changes no element's connections but `a`'s own, so the
        // elements before `a` stay unmergeable and the scan resumes at `a`.
        // (An element merged into an earlier one is gone by now.)
        while let Some((port, b)) = mergeable_output(graph, a) {
            let mut rules_of = |id: ElementId| match merged.remove(&id) {
                Some(rules) => Ok(rules),
                None => parse_rules("Classifier", graph.element(id).config()),
            };
            let outer = rules_of(a)?;
            let inner = rules_of(b)?;
            let names = (
                graph.element(a).name().to_owned(),
                graph.element(b).name().to_owned(),
            );

            // Rewire: a's outputs (except `port`, whose edge into b
            // disappears) renumber densely; b's outputs append.
            let by_port = |mut edges: Vec<Connection>| {
                edges.sort_by_key(|c| c.from.port);
                edges
            };
            let a_edges = by_port(graph.outputs_of(a).to_vec());
            let b_edges = by_port(graph.outputs_of(b).to_vec());
            let a_outs = graph.noutputs(a);
            for c in &a_edges {
                graph.disconnect(c.from, c.to);
            }
            graph.remove_element(b);
            for c in a_edges.iter().filter(|c| c.from.port != port) {
                let new_port = c.from.port - usize::from(c.from.port > port);
                let _ = graph.connect(PortRef::new(a, new_port), c.to);
            }
            for c in &b_edges {
                let _ = graph.connect(PortRef::new(a, a_outs - 1 + c.from.port), c.to);
            }
            merged.insert(a, compose(outer, port, &inner));
            report.combined.push(names);
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_classifier::{build_tree, TreeClassifier};
    use click_core::lang::read_config;
    use click_elements::elements::classify::fast_diagram;

    /// The diagram element `name` was specialized to.
    fn diagram_of(g: &RouterGraph, name: &str) -> DecisionDiagram {
        fast_diagram(g.element(g.find(name).unwrap()).config()).unwrap()
    }

    fn source_tree(config: &str) -> TreeClassifier {
        let rules = parse_rules("Classifier", config).unwrap();
        TreeClassifier::new(&build_tree(&rules, rules_noutputs(&rules)))
    }

    #[test]
    fn specializes_all_three_classifier_classes() {
        let mut g = read_config(
            "Idle -> c :: Classifier(12/0800, -); \
             c [0] -> f :: IPFilter(allow tcp, deny all) -> Discard; \
             c [1] -> i :: IPClassifier(udp, -); i [0] -> Discard; i [1] -> Discard;",
        )
        .unwrap();
        let report = fastclassifier(&mut g).unwrap();
        assert_eq!(report.specialized.len(), 3);
        for name in ["c", "f", "i"] {
            let id = g.find(name).unwrap();
            assert!(
                g.element(id).class().starts_with("FastClassifier@@"),
                "{name} not specialized: {}",
                g.element(id).class()
            );
            // Config must be a parseable diagram.
            assert!(fast_diagram(g.element(id).config()).is_ok());
        }
        assert!(g.has_requirement("fastclassifier"));
        assert!(g.archive().get("fastclassifier_harness_output").is_some());
    }

    #[test]
    fn identical_trees_share_a_class() {
        let mut g = read_config(
            "Idle -> a :: Classifier(12/0800, -); a [0] -> Discard; a [1] -> Discard; \
             Idle -> b :: Classifier(12/0800, -); b [0] -> Discard; b [1] -> Discard;",
        )
        .unwrap();
        fastclassifier(&mut g).unwrap();
        let a = g.find("a").unwrap();
        let b = g.find("b").unwrap();
        assert_eq!(g.element(a).class(), g.element(b).class());
    }

    #[test]
    fn different_trees_get_different_classes() {
        let mut g = read_config(
            "Idle -> a :: Classifier(12/0800, -); a [0] -> Discard; a [1] -> Discard; \
             Idle -> b :: Classifier(12/0806, -); b [0] -> Discard; b [1] -> Discard;",
        )
        .unwrap();
        fastclassifier(&mut g).unwrap();
        let a = g.find("a").unwrap();
        let b = g.find("b").unwrap();
        assert_ne!(g.element(a).class(), g.element(b).class());
    }

    #[test]
    fn untouched_without_classifiers() {
        let mut g = read_config("Idle -> Counter -> Discard;").unwrap();
        let report = fastclassifier(&mut g).unwrap();
        assert!(report.specialized.is_empty());
        assert!(!g.has_requirement("fastclassifier"));
    }

    /// One random `Classifier` pattern list: 1-40 patterns of one or two
    /// byte terms on header bytes (ethertype, ARP opcode, IP protocol)
    /// over a small value pool, so that probes match often.
    fn random_patterns(r: &mut click_core::Lcg, catch_all: bool) -> String {
        let pool = ["00", "06", "08", "11"];
        let n = 1 + r.below(40);
        let mut patterns: Vec<String> = (0..n)
            .map(|_| {
                (0..1 + r.below(2))
                    .map(|_| format!("{}/{}", [12, 13, 21, 23][r.below(4)], pool[r.below(4)]))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        if catch_all {
            patterns.push("-".to_owned());
        }
        patterns.join(", ")
    }

    #[test]
    fn composed_pairs_preserve_semantics() {
        let mut r = click_core::Lcg::new(0xC0F05E);
        let (mut through_inner, mut dropped_by_inner) = (0, 0);
        for case in 0..48 {
            let catch_all = r.below(2) == 0;
            let outer = random_patterns(&mut r, catch_all);
            // Without a catch-all, what no inner pattern matches meets the
            // composed `outer -> drop` rule.
            let inner = random_patterns(&mut r, case % 2 == 0);
            let (a, b) = (source_tree(&outer), source_tree(&inner));
            let nouter = parse_rules("Classifier", &outer).unwrap().len();
            let ninner = parse_rules("Classifier", &inner).unwrap().len();
            let port = r.below(nouter);
            let mut src = format!("Idle -> a :: Classifier({outer}); ");
            for p in 0..nouter {
                if p == port {
                    src += &format!("a [{p}] -> b :: Classifier({inner}); ");
                } else {
                    src += &format!("a [{p}] -> Discard; ");
                }
            }
            for p in 0..ninner {
                src += &format!("b [{p}] -> Discard; ");
            }
            let mut g = read_config(&src).unwrap();
            let report = fastclassifier(&mut g).unwrap();
            assert_eq!(report.combined.len(), 1, "case {case}");
            let d = diagram_of(&g, "a");
            for _ in 0..400 {
                let p: Vec<u8> = (0..32)
                    .map(|_| [0x00, 0x06, 0x08, 0x11][r.below(4)])
                    .collect();
                let expected = match a.classify(&p) {
                    Some(o) if o == port => {
                        through_inner += 1;
                        let out = b.classify(&p).map(|o| nouter - 1 + o);
                        dropped_by_inner += usize::from(out.is_none());
                        out
                    }
                    other => other.map(|o| o - usize::from(o > port)),
                };
                assert_eq!(
                    d.classify(&p),
                    expected,
                    "case {case}: {outer} [{port}] {inner}"
                );
            }
        }
        assert!(
            through_inner > 1000,
            "{through_inner} probes reached an inner list"
        );
        assert!(
            dropped_by_inner > 100,
            "{dropped_by_inner} probes met `outer -> drop`"
        );
    }

    #[test]
    fn adjacent_classifiers_are_combined() {
        let mut g = read_config(
            "Idle -> a :: Classifier(12/0800, -); \
             a [0] -> b :: Classifier(23/06, -); \
             a [1] -> d1 :: Discard; \
             b [0] -> d2 :: Discard; b [1] -> d3 :: Discard;",
        )
        .unwrap();
        let report = fastclassifier(&mut g).unwrap();
        assert_eq!(report.combined.len(), 1);
        assert!(g.find("b").is_none(), "absorbed classifier removed");
        let a = g.find("a").unwrap();
        assert!(g.element(a).class().starts_with("FastClassifier@@"));
        assert_eq!(g.noutputs(a), 3);
        // Port mapping: old a[1] → new 0 (d1), b[0] → 1 (d2), b[1] → 2 (d3).
        let to_names: Vec<(usize, String)> = (0..3)
            .map(|p| {
                let c = g.connections_from(a, p).next().unwrap();
                (p, g.element(c.to.element).name().to_owned())
            })
            .collect();
        assert_eq!(to_names[0].1, "d1");
        assert_eq!(to_names[1].1, "d2");
        assert_eq!(to_names[2].1, "d3");
    }

    #[test]
    fn combination_skipped_when_downstream_has_other_inputs() {
        let mut g = read_config(
            "Idle -> a :: Classifier(12/0800, -); \
             Idle -> b :: Classifier(23/06, -); \
             a [0] -> b; a [1] -> Discard; \
             b [0] -> Discard; b [1] -> Discard;",
        )
        .unwrap();
        // b receives from both a and an Idle: cannot merge.
        let report = fastclassifier(&mut g).unwrap();
        assert!(report.combined.is_empty());
        assert!(g.find("b").is_some());
    }

    #[test]
    fn large_rule_sets_lower_to_a_diagram() {
        // 40 ethertype patterns + catch-all: an ordered-field diagram with
        // depth bounded by the field count (1), not a 40-deep check chain.
        let mut patterns = String::new();
        for i in 0..40 {
            let _ = write!(patterns, "12/{:04x}, ", 0x0800 + i);
        }
        patterns.push('-');
        let mut src = format!("Idle -> c :: Classifier({patterns}); ");
        for p in 0..41 {
            let _ = write!(src, "c [{p}] -> Discard; ");
        }
        let mut g = read_config(&src).unwrap();
        let report = fastclassifier(&mut g).unwrap();
        assert_eq!(report.specialized.len(), 1);
        let d = diagram_of(&g, "c");
        assert!(d.depth() <= d.fields.len());
        // Semantics agree with the generic tree.
        let tree = source_tree(&patterns);
        let mut pkt = vec![0u8; 64];
        for ethertype in [0x0800u16, 0x0815, 0x0900, 0x86DD] {
            pkt[12..14].copy_from_slice(&ethertype.to_be_bytes());
            assert_eq!(
                d.classify(&pkt),
                tree.classify(&pkt),
                "ethertype {ethertype:#x}"
            );
        }
    }

    #[test]
    fn diagram_bound_classifiers_build_no_tree() {
        // A 40-pattern Classifier and a seeded 48-rule IPFilter.
        let mut patterns = String::new();
        for i in 0..40 {
            let _ = write!(patterns, "12/{:04x}, ", 0x0800 + i);
        }
        patterns.push('-');
        let mut r = click_core::Lcg::new(35);
        let mut rules: Vec<String> = (0..47)
            .map(|_| {
                format!(
                    "deny src net 10.{}.0.0/16 && udp dst port {}",
                    r.below(64),
                    1 + r.below(1024)
                )
            })
            .collect();
        rules.push("allow all".to_owned());
        let mut src = format!(
            "Idle -> c :: Classifier({patterns}); c [0] -> f :: IPFilter({}) -> Discard; ",
            rules.join(", ")
        );
        for p in 1..41 {
            let _ = write!(src, "c [{p}] -> Discard; ");
        }
        let mut g = read_config(&src).unwrap();
        let report = fastclassifier(&mut g).unwrap();
        assert_eq!(report.specialized.len(), 2);

        let harness = g.archive().get("fastclassifier_harness_output").unwrap();
        assert!(
            harness
                .lines()
                .all(|l| !l.starts_with("tree ") && !l.starts_with("expr ")),
            "tree lines in the harness output:\n{harness}"
        );
        for entry in g.archive().iter() {
            if entry.name.starts_with("FastClassifier_") {
                assert!(!entry.data.contains("decision tree"), "{}", entry.name);
            }
        }
        let out = click_core::lang::write_config(&g);
        for name in ["c", "f"] {
            let diagram = g.element(g.find(name).unwrap()).config();
            assert!(diagram.starts_with("fast diag "), "{name}: {diagram}");
            assert_eq!(out.matches(diagram).count(), 1, "{name}'s diagram");
        }
    }
}
