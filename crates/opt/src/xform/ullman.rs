//! Subgraph matching for `click-xform`.
//!
//! "Searching a graph for an occurrence of a pattern is a variant of
//! subgraph isomorphism, a well-known NP-complete problem. Click-xform
//! implements Ullman's subgraph isomorphism algorithm, which works well
//! for the patterns and configurations seen in practice" (paper §6.2).
//!
//! A match must satisfy:
//! * corresponding elements have equal classes and compatible
//!   configuration strings (pattern configs may contain `$variable`
//!   wildcards, bound consistently across the whole match);
//! * every internal pattern connection exists between the corresponding
//!   configuration elements;
//! * *boundary condition*: every configuration connection incident to a
//!   matched element either corresponds to an internal pattern connection
//!   or sits at a port where the pattern connects to its `input`/`output`
//!   pseudo-elements ("connections into or out of the subset must occur
//!   only in places allowed by the pattern").
//!
//! Ullman's candidate sets are kept implicit. The candidates for the
//! pattern's first element are the configuration elements of its class
//! (`class_index`); the candidates for every later element are the
//! actual neighbours, across one pattern connection, of an element
//! already assigned — so a search costs the pattern's size times the
//! degrees it walks, not the size of the configuration. Candidates are
//! tried in ascending element id, which makes the match found the same one
//! an exhaustive search in that order finds first.
//!
//! Between rewrites a caller keeps, per pattern, the set of first-element
//! candidates not yet ruled out (`Matcher::find_from` consumes it) and
//! puts back only those a rewrite can have affected
//! (`Matcher::requeue`): a match that did not exist before the rewrite
//! contains an element whose connections the rewrite changed.

use click_core::config::{is_variable, split_args};
use click_core::graph::{ElementId, PortRef, RouterGraph};
use click_core::lang::Fragment;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A successful pattern match.
#[derive(Debug, Clone)]
pub struct Match {
    /// Pattern element → configuration element.
    pub mapping: BTreeMap<ElementId, ElementId>,
    /// Wildcard bindings collected from configuration strings.
    pub bindings: Vec<(String, String)>,
}

/// Attempts to unify a pattern configuration string with a concrete one,
/// extending `bindings`. Returns false (leaving bindings possibly
/// partially extended — callers clone) on mismatch.
fn unify_config(pattern: &str, concrete: &str, bindings: &mut Vec<(String, String)>) -> bool {
    let bind = |name: &str, value: &str, bindings: &mut Vec<(String, String)>| -> bool {
        if let Some((_, old)) = bindings.iter().find(|(k, _)| k == name) {
            return old == value;
        }
        bindings.push((name.to_owned(), value.to_owned()));
        true
    };
    let p = pattern.trim();
    if is_variable(p) {
        return bind(&p[1..], concrete.trim(), bindings);
    }
    let pargs = split_args(pattern);
    let cargs = split_args(concrete);
    if pargs.len() != cargs.len() {
        return false;
    }
    for (pa, ca) in pargs.iter().zip(&cargs) {
        if is_variable(pa) {
            if !bind(&pa[1..], ca, bindings) {
                return false;
            }
        } else if pa != ca {
            return false;
        }
    }
    true
}

/// A pattern connection between two non-pseudo pattern elements, by their
/// positions in [`Matcher::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PatternEdge {
    from: usize,
    from_port: usize,
    to: usize,
    to_port: usize,
}

impl PatternEdge {
    /// True if the edge joins node `i` to a node before it.
    fn ties_back(&self, i: usize) -> bool {
        (self.from == i && self.to < i) || (self.to == i && self.from < i)
    }
}

/// Live elements by class, for seeding [`Matcher::find_from`].
pub(crate) fn class_index(config: &RouterGraph) -> HashMap<&str, BTreeSet<ElementId>> {
    let mut index: HashMap<&str, BTreeSet<ElementId>> = HashMap::new();
    for (id, decl) in config.elements() {
        index.entry(decl.class()).or_default().insert(id);
    }
    index
}

/// The matcher, holding indexed views of the pattern fragment.
pub struct Matcher<'a> {
    pattern: &'a Fragment,
    /// Non-pseudo pattern elements, each (after the first) adjacent to an
    /// earlier one where the pattern allows.
    nodes: Vec<ElementId>,
    /// The pattern's internal connections.
    edges: Vec<PatternEdge>,
    /// `(node, port)` where the pattern allows external connections (it
    /// connects to the input/output pseudo-element there).
    ext_in: HashSet<(usize, usize)>,
    ext_out: HashSet<(usize, usize)>,
    /// Every node after the first has a connection to an earlier one.
    connected: bool,
}

impl<'a> Matcher<'a> {
    /// Prepares a matcher for a pattern fragment.
    pub fn new(pattern: &'a Fragment) -> Matcher<'a> {
        let pg = &pattern.graph;
        let mut rest: Vec<ElementId> = pg
            .element_ids()
            .filter(|&id| id != pattern.input && id != pattern.output)
            .collect();
        let mut nodes: Vec<ElementId> = Vec::with_capacity(rest.len());
        while !rest.is_empty() {
            let adjacent = |&n: &ElementId| {
                pg.outputs_of(n)
                    .iter()
                    .any(|c| nodes.contains(&c.to.element))
                    || pg
                        .inputs_of(n)
                        .iter()
                        .any(|c| nodes.contains(&c.from.element))
            };
            let pick = rest.iter().position(adjacent).unwrap_or(0);
            nodes.push(rest.remove(pick));
        }
        let position = |id: ElementId| nodes.iter().position(|&n| n == id);
        let mut edges = Vec::new();
        let mut ext_in = HashSet::new();
        let mut ext_out = HashSet::new();
        for c in pg.connections() {
            match (position(c.from.element), position(c.to.element)) {
                (Some(from), Some(to)) => edges.push(PatternEdge {
                    from,
                    from_port: c.from.port,
                    to,
                    to_port: c.to.port,
                }),
                (None, Some(to)) if c.from.element == pattern.input => {
                    ext_in.insert((to, c.to.port));
                }
                (Some(from), None) if c.to.element == pattern.output => {
                    ext_out.insert((from, c.from.port));
                }
                _ => {}
            }
        }
        let connected = (1..nodes.len()).all(|i| edges.iter().any(|e| e.ties_back(i)));
        Matcher {
            pattern,
            nodes,
            edges,
            ext_in,
            ext_out,
            connected,
        }
    }

    /// The class a configuration element needs to stand for the pattern's
    /// first element; `None` for a pattern without elements.
    pub(crate) fn root_class(&self) -> Option<&str> {
        let first = self.nodes.first()?;
        Some(self.pattern.graph.element(*first).class())
    }

    /// Finds the first match in `config`, if any.
    pub fn find(&self, config: &RouterGraph) -> Option<Match> {
        let mut pending = class_index(config).remove(self.root_class()?)?;
        self.find_from(config, &mut pending)
    }

    /// Finds the match whose first element is the lowest in `pending`,
    /// removing from `pending` that element and every lower one (which
    /// are thereby known to start no match in `config` as it stands).
    pub(crate) fn find_from(
        &self,
        config: &RouterGraph,
        pending: &mut BTreeSet<ElementId>,
    ) -> Option<Match> {
        while let Some(anchor) = pending.pop_first() {
            let mut assigned = Vec::with_capacity(self.nodes.len());
            let mut bindings = Vec::new();
            if config.is_live(anchor) && self.assign(config, anchor, &mut assigned, &mut bindings) {
                let mapping = self.nodes.iter().copied().zip(assigned).collect();
                return Some(Match { mapping, bindings });
            }
        }
        None
    }

    /// After a rewrite that changed the connections of `touched` (or
    /// created them), puts back into `pending` every element that could
    /// start a match containing one of them.
    pub(crate) fn requeue(
        &self,
        config: &RouterGraph,
        touched: &[ElementId],
        pending: &mut BTreeSet<ElementId>,
    ) {
        let Some(root_class) = self.root_class() else {
            return;
        };
        let is_root = |id: ElementId| config.element(id).class() == root_class;
        if !self.connected {
            // Nothing ties the first element to the touched one.
            pending.extend(config.element_ids().filter(|&id| is_root(id)));
            return;
        }
        // A match is connected through matched elements only, so the walk
        // from a touched element to the match's first element stays within
        // the pattern's classes and takes fewer steps than it has nodes.
        let pg = &self.pattern.graph;
        let in_pattern = |id: ElementId| {
            let class = config.element(id).class();
            self.nodes.iter().any(|&n| pg.element(n).class() == class)
        };
        let mut frontier: Vec<ElementId> = touched
            .iter()
            .copied()
            .filter(|&t| config.is_live(t) && in_pattern(t))
            .collect();
        let mut seen: HashSet<ElementId> = frontier.iter().copied().collect();
        for _ in 0..self.nodes.len() {
            let mut next = Vec::new();
            for &e in &frontier {
                if is_root(e) {
                    pending.insert(e);
                }
                let outs = config.outputs_of(e).iter().map(|c| c.to.element);
                let ins = config.inputs_of(e).iter().map(|c| c.from.element);
                for n in outs.chain(ins) {
                    if in_pattern(n) && seen.insert(n) {
                        next.push(n);
                    }
                }
            }
            frontier = next;
        }
    }

    /// Configuration elements that could stand for node `assigned.len()`:
    /// the neighbours of an assigned element across one pattern
    /// connection, or every element if the pattern ties the node to none.
    fn candidates(&self, config: &RouterGraph, assigned: &[ElementId]) -> Vec<ElementId> {
        let i = assigned.len();
        let mut found: Vec<ElementId> = match self.edges.iter().find(|e| e.ties_back(i)) {
            Some(e) if e.to == i => config
                .connections_from(assigned[e.from], e.from_port)
                .filter(|c| c.to.port == e.to_port)
                .map(|c| c.to.element)
                .collect(),
            Some(e) => config
                .connections_to(assigned[e.to], e.to_port)
                .filter(|c| c.from.port == e.from_port)
                .map(|c| c.from.element)
                .collect(),
            None => config.element_ids().collect(),
        };
        found.sort_unstable();
        found.dedup();
        found
    }

    /// Tries `cn` as node `assigned.len()`, then the remaining nodes
    /// depth-first. On success `assigned` holds the whole match.
    fn assign(
        &self,
        config: &RouterGraph,
        cn: ElementId,
        assigned: &mut Vec<ElementId>,
        bindings: &mut Vec<(String, String)>,
    ) -> bool {
        let i = assigned.len();
        let pdecl = self.pattern.graph.element(self.nodes[i]);
        let cdecl = config.element(cn);
        if assigned.contains(&cn) || cdecl.class() != pdecl.class() {
            return false;
        }
        let saved_len = bindings.len();
        assigned.push(cn);
        // Pattern connections between this node and those before it.
        let wired = self
            .edges
            .iter()
            .filter(|e| e.from.max(e.to) == i)
            .all(|e| {
                let to = PortRef::new(assigned[e.to], e.to_port);
                config
                    .connections_from(assigned[e.from], e.from_port)
                    .any(|c| c.to == to)
            });
        if wired && unify_config(pdecl.config(), cdecl.config(), bindings) {
            if assigned.len() == self.nodes.len() {
                if self.check_boundary(config, assigned) {
                    return true;
                }
            } else {
                for next in self.candidates(config, assigned) {
                    if self.assign(config, next, assigned, bindings) {
                        return true;
                    }
                }
            }
        }
        assigned.pop();
        bindings.truncate(saved_len);
        false
    }

    /// The boundary condition: every config edge incident to the matched
    /// set is either an internal pattern edge or at a pattern
    /// input/output attachment point.
    fn check_boundary(&self, config: &RouterGraph, assigned: &[ElementId]) -> bool {
        let node_of = |id: ElementId| assigned.iter().position(|&a| a == id);
        assigned.iter().enumerate().all(|(i, &cn)| {
            let ins_ok = config
                .inputs_of(cn)
                .iter()
                .all(|c| match node_of(c.from.element) {
                    Some(from) => self.edges.contains(&PatternEdge {
                        from,
                        from_port: c.from.port,
                        to: i,
                        to_port: c.to.port,
                    }),
                    None => self.ext_in.contains(&(i, c.to.port)),
                });
            // Connections between matched elements were all seen above.
            ins_ok
                && config.outputs_of(cn).iter().all(|c| {
                    node_of(c.to.element).is_some() || self.ext_out.contains(&(i, c.from.port))
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::ast::Item;
    use click_core::lang::{elaborate_fragment, parse, read_config};

    fn fragment(src: &str) -> Fragment {
        let program = parse(src).unwrap();
        let items: Vec<Item> = program.items;
        elaborate_fragment(&items, &[]).unwrap()
    }

    #[test]
    fn matches_linear_chain() {
        let pat = fragment("input -> Strip(14) -> CheckIPHeader -> output;");
        let config =
            read_config("Idle -> a :: Strip(14) -> b :: CheckIPHeader -> Discard;").unwrap();
        let m = Matcher::new(&pat).find(&config).expect("should match");
        assert_eq!(m.mapping.len(), 2);
    }

    #[test]
    fn class_mismatch_fails() {
        let pat = fragment("input -> Strip(14) -> CheckIPHeader -> output;");
        let config = read_config("Idle -> Strip(14) -> Counter -> Discard;").unwrap();
        assert!(Matcher::new(&pat).find(&config).is_none());
    }

    #[test]
    fn config_literal_mismatch_fails() {
        let pat = fragment("input -> Strip(14) -> output;");
        let config = read_config("Idle -> Strip(4) -> Discard;").unwrap();
        assert!(Matcher::new(&pat).find(&config).is_none());
    }

    #[test]
    fn wildcards_bind_consistently() {
        let pat = fragment(
            "input -> Paint($c) -> cp :: CheckPaint($c); cp [0] -> output; cp [1] -> [1] output;",
        );
        let good = read_config(
            "Idle -> Paint(3) -> cp :: CheckPaint(3); cp [0] -> Discard; cp [1] -> Discard;",
        )
        .unwrap();
        let m = Matcher::new(&pat)
            .find(&good)
            .expect("consistent colors match");
        assert!(m.bindings.iter().any(|(k, v)| k == "c" && v == "3"));

        let bad = read_config(
            "Idle -> Paint(3) -> cp :: CheckPaint(4); cp [0] -> Discard; cp [1] -> Discard;",
        )
        .unwrap();
        assert!(
            Matcher::new(&pat).find(&bad).is_none(),
            "inconsistent colors must not match"
        );
    }

    #[test]
    fn boundary_rejects_extra_external_edges() {
        // Pattern: Strip -> CheckIPHeader with externals only at the ends.
        let pat = fragment("input -> Strip(14) -> CheckIPHeader -> output;");
        // Config: a Tee also reads the Strip output — replacing would lose
        // that edge, so the match must fail... here modeled by a second
        // connection from the Strip.
        let config = read_config(
            "Idle -> s :: Strip(14); s -> c :: CheckIPHeader -> Discard; s -> t :: Counter -> Discard;",
        )
        .unwrap();
        assert!(Matcher::new(&pat).find(&config).is_none());
    }

    #[test]
    fn boundary_rejects_untracked_input() {
        let pat = fragment("input -> Strip(14) -> CheckIPHeader -> output;");
        // Someone else also feeds the CheckIPHeader directly.
        let config =
            read_config("Idle -> s :: Strip(14) -> c :: CheckIPHeader -> Discard; Idle -> c;")
                .unwrap();
        assert!(Matcher::new(&pat).find(&config).is_none());
    }

    #[test]
    fn multiport_pattern_matches() {
        let pat = fragment("input -> dt :: DecIPTTL; dt [0] -> output; dt [1] -> [1] output;");
        let config =
            read_config("Idle -> d :: DecIPTTL; d [0] -> Discard; d [1] -> Counter -> Discard;")
                .unwrap();
        let m = Matcher::new(&pat).find(&config).expect("should match");
        assert_eq!(m.mapping.len(), 1);
    }

    #[test]
    fn injective_mapping_required() {
        // Pattern needs two distinct Counters in a chain.
        let pat = fragment("input -> Counter -> Counter -> output;");
        let config = read_config("Idle -> c1 :: Counter -> Discard;").unwrap();
        assert!(Matcher::new(&pat).find(&config).is_none());
        let config2 = read_config("Idle -> c1 :: Counter -> c2 :: Counter -> Discard;").unwrap();
        assert!(Matcher::new(&pat).find(&config2).is_some());
    }
}
