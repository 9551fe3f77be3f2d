//! `click-xform` — pattern-directed subgraph replacement (paper §6.2).
//!
//! The tool "reads a router configuration and an arbitrary collection of
//! pattern and replacement subgraphs... checks the configuration for
//! occurrences of each pattern and replaces each occurrence with the
//! corresponding replacement. When there are no more occurrences of any
//! pattern, it emits the transformed configuration."
//!
//! Patterns and replacements are written "as compound elements in the
//! Click language": a pair is two `elementclass` definitions named
//! `X_pattern` / `X_replacement`, with `$variable` configuration
//! wildcards shared between them.

pub mod ullman;

use click_core::config::substitute;
use click_core::error::{Error, Result};
use click_core::graph::{ElementId, PortRef, RouterGraph};
use click_core::lang::ast::Item;
use click_core::lang::{elaborate_fragment, parse, Fragment};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub use ullman::{Match, Matcher};

/// Suffix for pattern definitions.
pub const PATTERN_SUFFIX: &str = "_pattern";
/// Suffix for replacement definitions.
pub const REPLACEMENT_SUFFIX: &str = "_replacement";

/// One pattern/replacement pair.
#[derive(Debug, Clone)]
pub struct PatternPair {
    /// The pair's base name.
    pub name: String,
    /// The pattern fragment.
    pub pattern: Fragment,
    /// The replacement fragment.
    pub replacement: Fragment,
}

/// An ordered collection of pattern/replacement pairs.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    /// The pairs, applied in order to fixpoint.
    pub pairs: Vec<PatternPair>,
}

impl PatternSet {
    /// Parses a pattern file: `elementclass X_pattern { ... }` paired with
    /// `elementclass X_replacement { ... }`.
    ///
    /// # Errors
    ///
    /// Returns an error on parse failure, an unpaired definition, or a
    /// pattern with no elements.
    pub fn parse(src: &str) -> Result<PatternSet> {
        let program = parse(src)?;
        let mut patterns: Vec<(String, Vec<Item>, Vec<String>)> = Vec::new();
        let mut replacements: HashMap<String, (Vec<Item>, Vec<String>)> = HashMap::new();
        for item in &program.items {
            let Item::CompoundDef(def) = item else {
                return Err(Error::spec(
                    "pattern files may contain only elementclass definitions".to_string(),
                ));
            };
            if let Some(base) = def.name.strip_suffix(PATTERN_SUFFIX) {
                patterns.push((base.to_owned(), def.body.clone(), def.formals.clone()));
            } else if let Some(base) = def.name.strip_suffix(REPLACEMENT_SUFFIX) {
                replacements.insert(base.to_owned(), (def.body.clone(), def.formals.clone()));
            } else {
                return Err(Error::spec(format!(
                    "definition {:?} is neither `*{PATTERN_SUFFIX}` nor `*{REPLACEMENT_SUFFIX}`",
                    def.name
                )));
            }
        }
        let mut pairs = Vec::new();
        for (name, body, formals) in patterns {
            let (rbody, rformals) = replacements
                .remove(&name)
                .ok_or_else(|| Error::spec(format!("pattern {name:?} has no replacement")))?;
            let pattern = elaborate_fragment(&body, &formals)?;
            if pattern.graph.element_count() <= 2 {
                return Err(Error::spec(format!("pattern {name:?} has no elements")));
            }
            let replacement = elaborate_fragment(&rbody, &rformals)?;
            pairs.push(PatternPair {
                name,
                pattern,
                replacement,
            });
        }
        if let Some(orphan) = replacements.keys().next() {
            return Err(Error::spec(format!(
                "replacement {orphan:?} has no pattern"
            )));
        }
        Ok(PatternSet { pairs })
    }
}

/// Where a replacement fragment's input portal leads: elements inside the
/// replacement, or straight through to an output portal.
#[derive(Debug)]
enum PortalTarget {
    Inner(Vec<(ElementId, usize)>),
    Passthrough(usize),
}

/// Applies one match of `pair` to `graph`. Returns the surviving elements
/// whose connections changed: the replacement's, and the matched set's
/// former neighbours.
fn apply_match(graph: &mut RouterGraph, pair: &PatternPair, m: &Match) -> Result<Vec<ElementId>> {
    let rep = &pair.replacement;

    // 1. Instantiate replacement elements with substituted configs.
    let mut new_ids: HashMap<ElementId, ElementId> = HashMap::new();
    for (rid, decl) in rep.graph.elements() {
        if rid != rep.input && rid != rep.output {
            let config = substitute(decl.config(), &m.bindings);
            new_ids.insert(rid, graph.add_anon_element(decl.class(), config));
        }
    }
    // 2. Internal replacement connections.
    for c in rep.graph.connections() {
        if new_ids.contains_key(&c.from.element) && new_ids.contains_key(&c.to.element) {
            let from = PortRef::new(new_ids[&c.from.element], c.from.port);
            let to = PortRef::new(new_ids[&c.to.element], c.to.port);
            let _ = graph.connect(from, to);
        }
    }

    // 3. Portal tables for the replacement.
    let mut rep_in: HashMap<usize, PortalTarget> = HashMap::new();
    for c in rep.graph.outputs_of(rep.input) {
        let port = c.from.port;
        if c.to.element == rep.output {
            rep_in.insert(port, PortalTarget::Passthrough(c.to.port));
        } else {
            match rep_in
                .entry(port)
                .or_insert_with(|| PortalTarget::Inner(Vec::new()))
            {
                PortalTarget::Inner(v) => v.push((new_ids[&c.to.element], c.to.port)),
                PortalTarget::Passthrough(_) => {
                    return Err(Error::graph(format!(
                        "replacement {:?} mixes passthrough and inner targets on input {port}",
                        pair.name
                    )))
                }
            }
        }
    }
    let mut rep_out: HashMap<usize, (ElementId, usize)> = HashMap::new();
    for c in rep.graph.inputs_of(rep.output) {
        if c.from.element == rep.input {
            continue; // passthrough handled on the input side
        }
        if rep_out
            .insert(c.to.port, (new_ids[&c.from.element], c.from.port))
            .is_some()
        {
            return Err(Error::graph(format!(
                "replacement {:?} has multiple sources for output {}",
                pair.name, c.to.port
            )));
        }
    }

    // 4. Pattern-side portal tables.
    let pat = &pair.pattern;
    let mut pat_in: HashMap<(ElementId, usize), usize> = HashMap::new();
    for c in pat.graph.outputs_of(pat.input) {
        pat_in.insert((m.mapping[&c.to.element], c.to.port), c.from.port);
    }
    let mut pat_out: HashMap<(ElementId, usize), usize> = HashMap::new();
    for c in pat.graph.inputs_of(pat.output) {
        pat_out.insert((m.mapping[&c.from.element], c.from.port), c.to.port);
    }

    // 5. Record external edges by portal. Portals and matched elements are
    // walked in ascending order, so the connections made below — and the
    // text the tools emit — do not depend on hashing.
    let matched: BTreeSet<ElementId> = m.mapping.values().copied().collect();
    let mut external_out_by_portal: BTreeMap<usize, Vec<PortRef>> = BTreeMap::new();
    let mut external_in_by_portal: BTreeMap<usize, Vec<PortRef>> = BTreeMap::new();
    for &cn in &matched {
        for c in graph.outputs_of(cn) {
            if !matched.contains(&c.to.element) {
                let portal = pat_out[&(cn, c.from.port)];
                external_out_by_portal.entry(portal).or_default().push(c.to);
            }
        }
        for c in graph.inputs_of(cn) {
            if !matched.contains(&c.from.element) {
                let portal = pat_in[&(cn, c.to.port)];
                external_in_by_portal
                    .entry(portal)
                    .or_default()
                    .push(c.from);
            }
        }
    }

    // 6. Delete matched elements, then connect the portals.
    for &cn in &matched {
        graph.remove_element(cn);
    }
    for (portal, sources) in &external_in_by_portal {
        match rep_in.get(portal) {
            Some(PortalTarget::Inner(targets)) => {
                for src in sources {
                    for &(te, tp) in targets {
                        let _ = graph.connect(*src, PortRef::new(te, tp));
                    }
                }
            }
            Some(PortalTarget::Passthrough(out_portal)) => {
                let sinks = external_out_by_portal.get(out_portal);
                for src in sources {
                    for sink in sinks.into_iter().flatten() {
                        let _ = graph.connect(*src, *sink);
                    }
                }
            }
            None => {
                return Err(Error::graph(format!(
                    "replacement {:?} does not use input port {portal}",
                    pair.name
                )))
            }
        }
    }
    for (portal, sinks) in &external_out_by_portal {
        let Some(&(se, sp)) = rep_out.get(portal) else {
            continue; // passthrough output, wired above
        };
        for sink in sinks {
            let _ = graph.connect(PortRef::new(se, sp), *sink);
        }
    }
    let neighbours = external_in_by_portal
        .into_values()
        .chain(external_out_by_portal.into_values())
        .flatten()
        .map(|port| port.element);
    Ok(new_ids.into_values().chain(neighbours).collect())
}

/// Applies a pattern set to fixpoint. Returns the number of replacements
/// performed.
///
/// # Errors
///
/// Returns an error for malformed replacements or if the rewrite does not
/// converge within an application budget (a pattern set whose replacement
/// re-matches its own output).
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_opt::xform::{apply_patterns, PatternSet};
///
/// let patterns = PatternSet::parse(
///     "elementclass Chain_pattern { input -> Counter -> Counter -> output; } \
///      elementclass Chain_replacement { input -> Counter -> output; }",
/// )?;
/// let mut g = read_config("Idle -> c1 :: Counter -> c2 :: Counter -> Discard;")?;
/// let n = apply_patterns(&mut g, &patterns)?;
/// assert_eq!(n, 1);
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn apply_patterns(graph: &mut RouterGraph, patterns: &PatternSet) -> Result<usize> {
    let matchers: Vec<Matcher<'_>> = patterns
        .pairs
        .iter()
        .map(|p| Matcher::new(&p.pattern))
        .collect();
    // Per pattern, the elements that may still start a match.
    let mut pending: Vec<BTreeSet<ElementId>> = {
        let by_class = ullman::class_index(graph);
        let of_class = |m: &Matcher<'_>| by_class.get(m.root_class()?).cloned();
        matchers
            .iter()
            .map(|m| of_class(m).unwrap_or_default())
            .collect()
    };
    let mut applied = 0usize;
    let budget = 1000 + graph.element_count() * 4;
    loop {
        // The first pattern that matches, at its lowest element: generated
        // `Class@N` names follow from this order.
        let found = patterns
            .pairs
            .iter()
            .zip(&matchers)
            .zip(&mut pending)
            .find_map(|((pair, matcher), pending)| {
                Some((pair, matcher.find_from(graph, pending)?))
            });
        let Some((pair, m)) = found else {
            return Ok(applied);
        };
        let touched = apply_match(graph, pair, &m)?;
        applied += 1;
        if applied > budget {
            return Err(Error::graph(
                "click-xform did not converge (replacement re-matches its own output?)".to_string(),
            ));
        }
        for (matcher, pending) in matchers.iter().zip(&mut pending) {
            matcher.requeue(graph, &touched, pending);
        }
    }
}

/// The standard IP-router pattern set (paper Figures 4–6): replace the
/// input-side and output-side element chains with `IPInputCombo` /
/// `IPOutputCombo`.
///
/// # Errors
///
/// Propagates parse errors from the embedded pattern text (never fails in
/// practice).
pub fn ip_combo_patterns() -> Result<PatternSet> {
    PatternSet::parse(
        "elementclass IPInput_pattern {\
            input -> Paint($color) -> Strip(14) -> CheckIPHeader -> GetIPAddress(16) -> output;\
         }\
         elementclass IPInput_replacement {\
            input -> IPInputCombo($color) -> output;\
         }\
         elementclass IPOutput_pattern {\
            input -> DropBroadcasts -> pt :: PaintTee($color);\
            pt [1] -> [1] output;\
            pt [0] -> gio :: IPGWOptions;\
            gio [1] -> [2] output;\
            gio [0] -> FixIPSrc($ip) -> dt :: DecIPTTL;\
            dt [1] -> [3] output;\
            dt [0] -> fr :: IPFragmenter($mtu);\
            fr [1] -> [4] output;\
            fr [0] -> output;\
         }\
         elementclass IPOutput_replacement {\
            input -> combo :: IPOutputCombo($color, $ip, $mtu);\
            combo [0] -> output;\
            combo [1] -> [1] output;\
            combo [2] -> [2] output;\
            combo [3] -> [3] output;\
            combo [4] -> [4] output;\
         }",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::check::check;
    use click_core::lang::read_config;
    use click_core::registry::Library;
    use click_elements::ip_router::IpRouterSpec;

    #[test]
    fn parse_rejects_unpaired_and_misnamed() {
        assert!(
            PatternSet::parse("elementclass Foo_pattern { input -> Counter -> output; }").is_err()
        );
        assert!(
            PatternSet::parse("elementclass Foo_replacement { input -> Counter -> output; }")
                .is_err()
        );
        assert!(PatternSet::parse("elementclass Foo { input -> Counter -> output; }").is_err());
        assert!(PatternSet::parse("Idle -> Discard;").is_err());
    }

    #[test]
    fn simple_replacement() {
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Strip(14) -> Unstrip(14) -> output; } \
             elementclass P_replacement { input -> Null -> output; }",
        )
        .unwrap();
        let mut g = read_config("Idle -> Strip(14) -> Unstrip(14) -> d :: Discard;").unwrap();
        assert_eq!(apply_patterns(&mut g, &ps).unwrap(), 1);
        assert!(g.elements().any(|(_, e)| e.class() == "Null"));
        assert!(!g.elements().any(|(_, e)| e.class() == "Strip"));
        assert_eq!(g.element_count(), 3);
        assert_eq!(g.connections().len(), 2);
    }

    #[test]
    fn wildcard_binding_flows_into_replacement() {
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Paint($c) -> Paint($c) -> output; } \
             elementclass P_replacement { input -> Paint($c) -> output; }",
        )
        .unwrap();
        let mut g = read_config("Idle -> Paint(7) -> Paint(7) -> Discard;").unwrap();
        assert_eq!(apply_patterns(&mut g, &ps).unwrap(), 1);
        let paint = g.elements().find(|(_, e)| e.class() == "Paint").unwrap().1;
        assert_eq!(paint.config(), "7");
    }

    #[test]
    fn fixpoint_applies_repeatedly() {
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Counter -> Counter -> output; } \
             elementclass P_replacement { input -> Counter -> output; }",
        )
        .unwrap();
        let mut g = read_config(
            "Idle -> c1 :: Counter -> c2 :: Counter -> c3 :: Counter -> c4 :: Counter -> Discard;",
        )
        .unwrap();
        let n = apply_patterns(&mut g, &ps).unwrap();
        assert_eq!(n, 3, "4 counters collapse pairwise to 1");
        let counters = g.elements().filter(|(_, e)| e.class() == "Counter").count();
        assert_eq!(counters, 1);
    }

    #[test]
    fn passthrough_replacement_splices_out() {
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Null -> output; } \
             elementclass P_replacement { input -> output; }",
        )
        .unwrap();
        let mut g = read_config("i :: Idle; d :: Discard; i -> Null -> d;").unwrap();
        assert_eq!(apply_patterns(&mut g, &ps).unwrap(), 1);
        assert_eq!(g.element_count(), 2);
        let c = g.connections()[0];
        assert_eq!(g.element(c.from.element).name(), "i");
        assert_eq!(g.element(c.to.element).name(), "d");
    }

    #[test]
    fn divergent_pattern_set_errors() {
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Null -> output; } \
             elementclass P_replacement { input -> Null -> output; }",
        )
        .unwrap();
        let mut g = read_config("Idle -> Null -> Discard;").unwrap();
        assert!(apply_patterns(&mut g, &ps).is_err());
    }

    #[test]
    fn ip_router_reduces_to_combos() {
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        let before = g.element_count();
        let n = apply_patterns(&mut g, &ip_combo_patterns().unwrap()).unwrap();
        assert_eq!(n, 4, "expected 4 replacements, got {n}");
        assert_eq!(
            g.elements()
                .filter(|(_, e)| e.class() == "IPInputCombo")
                .count(),
            2
        );
        assert_eq!(
            g.elements()
                .filter(|(_, e)| e.class() == "IPOutputCombo")
                .count(),
            2
        );
        // 4 input-side elements → 1 and 6 output-side elements → 1 per
        // interface.
        assert_eq!(before - g.element_count(), (4 - 1 + 6 - 1) * 2);
        let report = check(&g, &Library::standard());
        assert!(report.is_ok(), "{:?}", report.errors().collect::<Vec<_>>());
        let combo = g
            .elements()
            .find(|(_, e)| e.class() == "IPOutputCombo")
            .unwrap()
            .1;
        assert!(
            combo.config().contains("1500"),
            "MTU bound: {}",
            combo.config()
        );
    }

    #[test]
    fn randomized_chains_reach_pattern_free_fixpoint() {
        // Random linear chains of Counter/Null/Paint: after applying the
        // Counter-pair collapse to fixpoint, no two Counters are adjacent
        // and end-to-end connectivity (a single source-to-sink path)
        // survives.
        let ps = PatternSet::parse(
            "elementclass P_pattern { input -> Counter -> Counter -> output; } \
             elementclass P_replacement { input -> Counter -> output; }",
        )
        .unwrap();
        let mut lcg = click_core::Lcg::new(0xFEED);
        let mut rand = move |n: usize| lcg.below(n);
        for _ in 0..60 {
            let len = 1 + rand(8);
            let mut src = String::from("head :: Idle; head -> ");
            for i in 0..len {
                match rand(3) {
                    0 => src.push_str("Counter -> "),
                    1 => src.push_str("Null -> "),
                    _ => src.push_str(&format!("Paint({i}) -> ")),
                }
            }
            src.push_str("tail :: Discard;");
            let mut g = read_config(&src).unwrap();
            apply_patterns(&mut g, &ps).unwrap();
            // No adjacent Counter pair remains.
            for c in g.connections() {
                let a = g.element(c.from.element).class();
                let b = g.element(c.to.element).class();
                assert!(
                    !(a == "Counter" && b == "Counter"),
                    "fixpoint missed in:\n{src}"
                );
            }
            // The chain is still a single path from head to tail.
            let mut cur = g.find("head").unwrap();
            let mut hops = 0;
            while g.element(cur).name() != "tail" {
                let outs: Vec<_> = g.connections_from(cur, 0).collect();
                assert_eq!(outs.len(), 1, "chain broke in:\n{src}");
                cur = outs[0].to.element;
                hops += 1;
                assert!(hops <= len + 2, "cycle created in:\n{src}");
            }
        }
    }

    /// `apply_patterns` with every search started from scratch on the whole
    /// configuration: the rewrite order the incremental search must keep.
    fn apply_from_scratch(graph: &mut RouterGraph, patterns: &PatternSet) -> usize {
        let mut applied = 0;
        loop {
            let found = patterns.pairs.iter().find_map(|pair| {
                let m = Matcher::new(&pair.pattern).find(graph)?;
                Some((pair, m))
            });
            let Some((pair, m)) = found else {
                return applied;
            };
            apply_match(graph, pair, &m).unwrap();
            applied += 1;
        }
    }

    #[test]
    fn incremental_search_rewrites_in_the_from_scratch_order() {
        // Text equality covers the generated `Class@N` names, which follow
        // the order of the rewrites, and the order of the connections.
        let collapse = PatternSet::parse(
            "elementclass N_pattern { input -> Null -> output; } \
             elementclass N_replacement { input -> output; } \
             elementclass C_pattern { input -> Counter -> Counter -> output; } \
             elementclass C_replacement { input -> Counter -> output; }",
        )
        .unwrap();
        // Two unconnected pattern elements: a rewrite anywhere (here, the
        // second pattern making an `Unstrip`) can complete a match whose
        // first element, a `Strip` found partnerless before, is anywhere else.
        let disconnected = PatternSet::parse(
            "elementclass D_pattern { input -> Strip(14) -> output; \
                                      input [1] -> Unstrip(14) -> [1] output; } \
             elementclass D_replacement { input -> Null -> output; \
                                          input [1] -> Paint(1) -> [1] output; } \
             elementclass U_pattern { input -> Paint(9) -> output; } \
             elementclass U_replacement { input -> Unstrip(14) -> output; }",
        )
        .unwrap();
        let chains = "Idle -> Counter -> Null -> Counter -> Counter -> Null -> Null -> Counter \
                      -> Paint(1) -> Counter -> Counter -> Counter -> Discard; \
                      Idle -> Null -> Counter -> Discard; \
                      Idle -> Strip(14) -> Discard; Idle -> Unstrip(14) -> Discard; \
                      Idle -> Unstrip(14) -> Strip(14) -> Strip(14) -> Discard;";
        let cases = [
            (
                ip_combo_patterns().unwrap(),
                IpRouterSpec::standard(8).config(),
                16,
            ),
            (collapse, chains.to_owned(), 9),
            (
                disconnected,
                format!("{chains} Idle -> Paint(9) -> Discard;"),
                4,
            ),
        ];
        for (patterns, src, rewrites) in cases {
            let mut incremental = read_config(&src).unwrap();
            let mut scratch = incremental.clone();
            assert_eq!(
                apply_patterns(&mut incremental, &patterns).unwrap(),
                rewrites
            );
            assert_eq!(apply_from_scratch(&mut scratch, &patterns), rewrites);
            let text = click_core::lang::write_config(&incremental);
            assert!(text == click_core::lang::write_config(&scratch), "{src}");
        }
    }

    #[test]
    fn xform_output_reparses() {
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        apply_patterns(&mut g, &ip_combo_patterns().unwrap()).unwrap();
        let text = click_core::lang::write_config(&g);
        let back = read_config(&text).unwrap();
        assert!(g.same_configuration(&back));
    }
}
