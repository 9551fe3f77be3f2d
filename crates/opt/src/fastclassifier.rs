//! `click-fastclassifier` — dynamic code generation for classifiers
//! (paper §4).
//!
//! The tool:
//!
//! 1. finds the classification elements (`Classifier`, `IPClassifier`,
//!    `IPFilter`) in a configuration;
//! 2. combines adjacent `Classifier`s to improve optimization
//!    possibilities;
//! 3. validates them in a *harness* configuration and picks each one's
//!    shape before building anything: a rule list of at least
//!    [`DIAGRAM_THRESHOLD`] rules is lowered straight to an ordered-field
//!    decision diagram and leaves a one-line summary in the harness
//!    output; every other classifier (including a merged pair's `@tree`)
//!    gets its decision tree — built by the very classifier-compilation
//!    code the router runs, so "classifier syntax changes need be
//!    implemented exactly once" — round-tripped through its
//!    human-readable dump and optimized;
//! 4. generates one specialized class per distinct matcher (identical
//!    matchers share a class), attaching the generated source to the
//!    configuration archive;
//! 5. rewrites each classifier declaration to its generated
//!    `FastClassifier@@name` class.

use click_classifier::{
    build_diagram, build_tree, optimize, parse_rules, rules_noutputs, DecisionDiagram,
    DecisionTree, FastMatcher, Step,
};
use click_core::error::Result;
use click_core::graph::{Connection, ElementId, PortRef, RouterGraph};
use click_core::Error;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Classes the tool specializes.
pub const CLASSIFIER_CLASSES: [&str; 3] = ["Classifier", "IPClassifier", "IPFilter"];

/// Rule count at which a rule-list classifier specializes to the
/// ordered-field decision diagram instead of a decision tree: below this
/// the tree's straight-line shapes win; at or above it the diagram's
/// bounded depth and shared subtrees do (generated 10k-rule ACLs compile
/// in seconds instead of exploding a node per check per rule). A
/// classifier at or over the threshold never builds a tree at all.
pub const DIAGRAM_THRESHOLD: usize = 32;

/// What one classifier specializes from, decided before anything is built.
enum Source {
    /// A rule list of at least [`DIAGRAM_THRESHOLD`] rules, lowered.
    Diagram {
        rules: usize,
        diagram: DecisionDiagram,
    },
    /// Any other rule list, or a merged `@tree` marker: its unoptimized tree.
    Tree(DecisionTree),
}

/// Parses a classifier's rules once and builds only the shape it ships.
fn source_for(class: &str, config: &str) -> Result<Source> {
    if let Some(tree) = parse_merged_config(config) {
        return Ok(Source::Tree(tree?));
    }
    let rules = parse_rules(class, config)?;
    let n = rules_noutputs(&rules);
    if rules.len() < DIAGRAM_THRESHOLD {
        return Ok(Source::Tree(build_tree(&rules, n)));
    }
    let diagram = build_diagram(&rules, n);
    debug_assert!(diagram.validate().is_ok());
    Ok(Source::Diagram {
        rules: rules.len(),
        diagram,
    })
}

/// What the tool did, for reporting.
#[derive(Debug, Default)]
pub struct FastClassifierReport {
    /// `(element name, generated class, specialization shape)`.
    pub specialized: Vec<(String, String, &'static str)>,
    /// Pairs of adjacent `Classifier`s that were merged (survivor, absorbed).
    pub combined: Vec<(String, String)>,
}

/// Returns true if the class is one the tool handles.
pub fn is_classifier_class(class: &str) -> bool {
    CLASSIFIER_CLASSES.contains(&class)
}

/// Merges tree `b` into output `port` of tree `a`: packets `a` would emit
/// on `port` are instead classified by `b`. Output numbering: `a`'s other
/// outputs keep their order (renumbered densely), then `b`'s outputs.
pub fn merge_trees(a: &DecisionTree, port: usize, b: &DecisionTree) -> DecisionTree {
    // a's outputs: 0..port keep, port+1.. shift down by one; b's outputs
    // append after a's remaining outputs.
    let remap_a = |s: Step, b_start: Step| -> Step {
        match s {
            Step::Output(o) if o == port => b_start,
            Step::Output(o) if o > port => Step::Output(o - 1),
            other => other,
        }
    };
    let a_remaining = a.noutputs.saturating_sub(1);
    let mut exprs = Vec::with_capacity(a.exprs.len() + b.exprs.len());
    // b's nodes first (indices 0..b.len), outputs shifted.
    for e in &b.exprs {
        let remap_b = |s: Step| match s {
            Step::Output(o) => Step::Output(a_remaining + o),
            Step::Node(i) => Step::Node(i),
            Step::Drop => Step::Drop,
        };
        exprs.push(click_classifier::Expr {
            offset: e.offset,
            mask: e.mask,
            value: e.value,
            yes: remap_b(e.yes),
            no: remap_b(e.no),
        });
    }
    let b_start = match b.start {
        Step::Output(o) => Step::Output(a_remaining + o),
        Step::Node(i) => Step::Node(i),
        Step::Drop => Step::Drop,
    };
    // a's nodes after, indices shifted by b.len().
    let shift = b.exprs.len();
    for e in &a.exprs {
        let remap = |s: Step| -> Step {
            match s {
                Step::Node(i) => Step::Node(i + shift),
                other => remap_a(other, b_start),
            }
        };
        exprs.push(click_classifier::Expr {
            offset: e.offset,
            mask: e.mask,
            value: e.value,
            yes: remap(e.yes),
            no: remap(e.no),
        });
    }
    let start = match a.start {
        Step::Node(i) => Step::Node(i + shift),
        other => remap_a(other, b_start),
    };
    let merged = DecisionTree {
        exprs,
        start,
        noutputs: a_remaining + b.noutputs,
    };
    debug_assert!(merged.validate().is_ok(), "merged tree invalid");
    merged
}

/// Compiles a classifier element's configuration into its decision tree.
fn tree_for(class: &str, config: &str) -> Result<DecisionTree> {
    let rules = parse_rules(class, config)?;
    let n = rules_noutputs(&rules);
    Ok(build_tree(&rules, n))
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
/// analogue of the C++ `click-fastclassifier` emits (Figure 3b). `tree`
/// is the optimized tree a tree-shaped matcher was compiled from.
fn generate_source(class_name: &str, matcher: &FastMatcher, tree: Option<&DecisionTree>) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Generated by click-fastclassifier; do not edit.");
    let _ = writeln!(s, "// Specialization shape: {}", matcher.shape());
    let _ = writeln!(s, "pub struct {};", class_name.replace("@@", "_"));
    let _ = writeln!(s, "impl {} {{", class_name.replace("@@", "_"));
    let _ = writeln!(s, "    #[inline]");
    let _ = writeln!(
        s,
        "    pub fn length_unchecked_push(data: &[u8]) -> Option<usize> {{"
    );
    match matcher {
        FastMatcher::Constant { .. }
        | FastMatcher::SingleCheck { .. }
        | FastMatcher::DoubleCheck { .. } => {
            for line in matcher.to_string().split(' ') {
                let _ = writeln!(s, "        // {line}");
            }
            let _ = writeln!(
                s,
                "        // straight-line compare(s) with inlined constants"
            );
        }
        FastMatcher::Program(p) => {
            for (i, ins) in p.instrs().iter().enumerate() {
                let _ = writeln!(
                    s,
                    "        // step_{i}: if (load_be32(data, {}) & {:#010x}) == {:#010x} {{ goto {:?} }} else {{ goto {:?} }}",
                    ins.offset, ins.mask, ins.value, ins.yes, ins.no
                );
            }
        }
        FastMatcher::Diagram(d) => {
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
        }
    }
    if let FastMatcher::Diagram(_) = matcher {
        // A diagram's serialized form is as large as the rule set, and it
        // is the element's configuration already.
        let _ = writeln!(
            s,
            "        unreachable!(\"serialized form: the element's configuration\")"
        );
    } else {
        let _ = writeln!(s, "        unreachable!(\"serialized form: {matcher}\")");
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    if let Some(tree) = tree {
        let _ = writeln!(s, "// decision tree ({} nodes):", tree.exprs.len());
        for line in tree.to_string().lines() {
            let _ = writeln!(s, "//   {line}");
        }
    }
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

    // Step 1: combine adjacent Classifiers.
    combine_adjacent(graph, &mut report)?;

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
    // each classifier's rules are parsed once: a diagram-bound one is
    // lowered and summarized in a line; a tree-bound one's tree is dumped
    // to the human-readable form, re-parsed — the same pipeline as the
    // paper's tool — and optimized.
    let harness = build_harness(graph, &targets)?;
    let check = click_core::check::check(&harness, &click_core::registry::Library::standard());
    if !check.is_ok() {
        let first = check.errors().next().expect("has errors");
        return Err(Error::check(format!(
            "fastclassifier harness invalid: {first}"
        )));
    }
    let mut dumps = String::new();
    let mut matchers = Vec::with_capacity(targets.len());
    for &id in &targets {
        let decl = graph.element(id);
        let (matcher, tree) = match source_for(decl.class(), decl.config())? {
            Source::Diagram { rules, diagram } => {
                let _ = writeln!(
                    dumps,
                    "# {}\ndiagram rules {rules} outputs {} fields {} nodes {} depth {}\n",
                    decl.name(),
                    diagram.noutputs,
                    diagram.fields.len(),
                    diagram.nodes.len(),
                    diagram.depth()
                );
                (FastMatcher::Diagram(diagram), None)
            }
            Source::Tree(tree) => {
                let dump = tree.to_string();
                let _ = writeln!(dumps, "# {}\n{}", decl.name(), dump);
                let tree = optimize(&dump.parse()?);
                (FastMatcher::compile(&tree), Some(tree))
            }
        };
        matchers.push((id, matcher, tree));
    }
    graph
        .archive_mut()
        .insert("fastclassifier_harness_output", dumps);

    // Step 4 & 5: generate one class per distinct specialized matcher
    // and rewrite declarations.
    let mut class_by_matcher: HashMap<String, String> = HashMap::new();
    for (id, matcher, tree) in matchers {
        let name = graph.element(id).name().to_owned();
        let key = matcher.to_string();
        let class = match class_by_matcher.get(&key) {
            Some(c) => c.clone(),
            None => {
                let class = format!("FastClassifier@@{}", name.replace('/', "_"));
                graph.archive_mut().insert(
                    format!("{}.rs", class.replace("@@", "_")),
                    generate_source(&class, &matcher, tree.as_ref()),
                );
                class_by_matcher.insert(key.clone(), class.clone());
                class
            }
        };
        report
            .specialized
            .push((name, class.clone(), matcher.shape()));
        graph.set_class(id, class);
        graph.set_config(id, key);
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

/// Combines `Classifier` pairs where one output feeds the whole input of
/// another `Classifier`.
fn combine_adjacent(graph: &mut RouterGraph, report: &mut FastClassifierReport) -> Result<()> {
    let ids: Vec<ElementId> = graph.element_ids().collect();
    for a in ids {
        // A merge changes no element's connections but `a`'s own, so the
        // elements before `a` stay unmergeable and the scan resumes at `a`.
        // (An element merged into an earlier one is gone by now.)
        while let Some((port, b)) = mergeable_output(graph, a) {
            let a_decl = graph.element(a);
            let b_decl = graph.element(b);
            let tree_a = tree_for("Classifier", a_decl.config())?;
            let tree_b = tree_for("Classifier", b_decl.config())?;
            let names = (a_decl.name().to_owned(), b_decl.name().to_owned());
            let merged = merge_trees(&tree_a, port, &tree_b);

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
            // The merged tree has no pattern list; it rides in the
            // element's configuration as a `@tree` marker until
            // specialization (see `merged_config_marker`).
            graph.set_config(a, merged_config_marker(&merged));
            report.combined.push(names);
        }
    }
    Ok(())
}

/// Adjacent-classifier merges produce a tree, not a pattern list; encode
/// it as a `Classifier` config the rule parser recognizes.
///
/// We lean on `Classifier`'s own pattern language: any decision tree over
/// word compares cannot in general be re-expressed as a flat pattern
/// list, so the merged tree is carried in the archive-bound serialized
/// form, flagged with a `@tree` prefix. [`tree_for`] understands it.
fn merged_config_marker(tree: &DecisionTree) -> String {
    format!("@tree {}", tree.to_string().replace('\n', " ; "))
}

fn parse_merged_config(config: &str) -> Option<Result<DecisionTree>> {
    let rest = config.strip_prefix("@tree ")?;
    Some(rest.replace(" ; ", "\n").parse())
}

/// Compiles a classifier config into its tree, also understanding the
/// merged-tree markers adjacent-classifier combination leaves behind.
pub fn classifier_tree(class: &str, config: &str) -> Result<DecisionTree> {
    if let Some(t) = parse_merged_config(config) {
        return t;
    }
    tree_for(class, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;

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
            // Config must be a parseable matcher.
            assert!(g.element(id).config().parse::<FastMatcher>().is_ok());
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

    #[test]
    fn merge_trees_preserves_semantics() {
        // a: ethertype IP → 0, else → 1. b: byte 23 == 6 → 0, else 1.
        let a = tree_for("Classifier", "12/0800, -").unwrap();
        let b = tree_for("Classifier", "23/06, -").unwrap();
        let merged = merge_trees(&a, 0, &b);
        assert!(merged.validate().is_ok());
        assert_eq!(merged.noutputs, 3); // a's out1 → 0; b's outs → 1, 2
        let mut pkt = vec![0u8; 64];
        // Not IP → a's old output 1 → new output 0.
        pkt[12] = 0x86;
        assert_eq!(merged.classify(&pkt), Some(0));
        // IP and TCP → b output 0 → new output 1.
        pkt[12] = 0x08;
        pkt[13] = 0x00;
        pkt[23] = 6;
        assert_eq!(merged.classify(&pkt), Some(1));
        // IP not TCP → b output 1 → new output 2.
        pkt[23] = 17;
        assert_eq!(merged.classify(&pkt), Some(2));
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
        // 40 ethertype patterns + catch-all: over DIAGRAM_THRESHOLD, so
        // the specialization is an ordered-field diagram with depth
        // bounded by the field count (1), not a 40-deep check chain.
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
        assert_eq!(report.specialized[0].2, "diagram");
        let c = g.find("c").unwrap();
        let matcher: FastMatcher = g.element(c).config().parse().unwrap();
        let FastMatcher::Diagram(d) = &matcher else {
            panic!("expected diagram, got {}", matcher.shape());
        };
        assert!(d.depth() <= d.fields.len());
        // Semantics agree with the generic tree.
        let tree = classifier_tree("Classifier", &patterns).unwrap();
        let mut pkt = vec![0u8; 64];
        for ethertype in [0x0800u16, 0x0815, 0x0900, 0x86DD] {
            pkt[12..14].copy_from_slice(&ethertype.to_be_bytes());
            assert_eq!(
                matcher.classify(&pkt),
                tree.classify(&pkt),
                "ethertype {ethertype:#x}"
            );
        }
    }

    #[test]
    fn diagram_bound_classifiers_build_no_tree() {
        // A 40-pattern Classifier and a seeded 48-rule IPFilter: both at
        // or over DIAGRAM_THRESHOLD.
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
        let shapes: Vec<&str> = report.specialized.iter().map(|s| s.2).collect();
        assert_eq!(shapes, ["diagram", "diagram"]);

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

    #[test]
    fn merged_config_marker_round_trips() {
        let t = tree_for("Classifier", "12/0800, -").unwrap();
        let marker = merged_config_marker(&t);
        let back = classifier_tree("Classifier", &marker).unwrap();
        assert_eq!(t, back);
    }
}
