//! Elaboration: AST → flat [`RouterGraph`].
//!
//! Elaboration resolves identifier references, instantiates anonymous
//! elements, and — crucially for the optimizers — *compiles away compound
//! element abstractions* (paper §6.2: "Click-xform, and the other
//! optimizers, compile away compound element abstractions before analyzing
//! router configurations"). Compound instances expand into their bodies
//! with `instance/` name prefixes, exactly like Click's flattening.
//!
//! Expansion uses temporary pseudo-elements of class `@input` / `@output`
//! to stand for a compound's ports; a final splice pass removes them by
//! connecting each predecessor to each successor port-wise.

use crate::config::{split_args, substitute};
use crate::error::{Error, Result};
use crate::graph::{ElementId, PortRef, RouterGraph};
use crate::lang::ast::*;
use std::collections::HashMap;

/// Class name of the pseudo-element standing for a compound's input ports.
pub const PSEUDO_INPUT_CLASS: &str = "@input";
/// Class name of the pseudo-element standing for a compound's output ports.
pub const PSEUDO_OUTPUT_CLASS: &str = "@output";

/// Maximum nesting depth for compound expansion, guarding against
/// (mutually) recursive `elementclass` definitions.
const MAX_DEPTH: usize = 64;

/// An element as seen by connection statements: where arrows into it land
/// and where arrows out of it originate. For plain elements both are the
/// element itself; for compound instances they are the pseudo ports.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    in_target: ElementId,
    out_source: ElementId,
}

impl Resolved {
    fn plain(id: ElementId) -> Resolved {
        Resolved {
            in_target: id,
            out_source: id,
        }
    }
}

struct Elaborator {
    graph: RouterGraph,
    /// Scope stack of compound definitions visible at the current point.
    /// Each name maps to its overload set (the paper notes the language
    /// evolved "only to improve compound elements"; arity overloading is
    /// that evolution).
    defs: Vec<HashMap<String, Vec<CompoundDef>>>,
    anon_counter: u32,
    depth: usize,
}

impl Elaborator {
    /// Finds the overload set for `name` in the innermost scope defining
    /// it (inner definitions shadow outer ones entirely).
    fn lookup_overloads(&self, name: &str) -> Option<&[CompoundDef]> {
        self.defs
            .iter()
            .rev()
            .find_map(|frame| frame.get(name).map(Vec::as_slice))
    }

    fn fresh_name(&mut self, prefix: &str, class: &str) -> String {
        loop {
            self.anon_counter += 1;
            let name = format!("{prefix}{class}@{}", self.anon_counter);
            if self.graph.find(&name).is_none() {
                return name;
            }
        }
    }

    fn connect_dedup(&mut self, from: PortRef, to: PortRef) -> Result<()> {
        match self.graph.connect(from, to) {
            Ok(()) => Ok(()),
            Err(Error::Graph { message }) if message.starts_with("duplicate connection") => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn elab_items(
        &mut self,
        items: &[Item],
        prefix: &str,
        bindings: &[(String, String)],
        names: &mut HashMap<String, Resolved>,
    ) -> Result<()> {
        // Definitions are visible throughout their scope, including before
        // their textual position, matching Click. Same-name definitions
        // with different arities form an overload set.
        let mut frame: HashMap<String, Vec<CompoundDef>> = HashMap::new();
        for item in items {
            if let Item::CompoundDef(d) = item {
                let set = frame.entry(d.name.clone()).or_default();
                if set.iter().any(|prev| prev.formals.len() == d.formals.len()) {
                    return Err(Error::elaborate(format!(
                        "duplicate elementclass definition {:?} with {} parameter(s)",
                        d.name,
                        d.formals.len()
                    )));
                }
                set.push(d.clone());
            }
        }
        self.defs.push(frame);
        let result = self.elab_items_inner(items, prefix, bindings, names);
        self.defs.pop();
        result
    }

    fn elab_items_inner(
        &mut self,
        items: &[Item],
        prefix: &str,
        bindings: &[(String, String)],
        names: &mut HashMap<String, Resolved>,
    ) -> Result<()> {
        for item in items {
            match item {
                Item::CompoundDef(_) => {} // collected into the scope frame already
                Item::Require(r) => {
                    let r = substitute(r, bindings);
                    self.graph.add_requirement(r);
                }
                Item::Chain(chain) => self.elab_chain(chain, prefix, bindings, names)?,
            }
        }
        Ok(())
    }

    fn elab_chain(
        &mut self,
        chain: &Chain,
        prefix: &str,
        bindings: &[(String, String)],
        names: &mut HashMap<String, Resolved>,
    ) -> Result<()> {
        let mut resolved = Vec::with_capacity(chain.nodes.len());
        for node in &chain.nodes {
            resolved.push(self.resolve_node(node, prefix, bindings, names)?);
        }
        for window in 0..chain.nodes.len().saturating_sub(1) {
            let from_node = &chain.nodes[window];
            let to_node = &chain.nodes[window + 1];
            let from = PortRef::new(resolved[window].out_source, from_node.out_port.unwrap_or(0));
            let to = PortRef::new(resolved[window + 1].in_target, to_node.in_port.unwrap_or(0));
            self.connect_dedup(from, to)?;
        }
        Ok(())
    }

    fn resolve_node(
        &mut self,
        node: &ChainNode,
        prefix: &str,
        bindings: &[(String, String)],
        names: &mut HashMap<String, Resolved>,
    ) -> Result<Resolved> {
        match &node.elem {
            NodeElem::Ref(name) => {
                if let Some(r) = names.get(name) {
                    return Ok(*r);
                }
                if name == "input" || name == "output" {
                    return Err(Error::elaborate(format!(
                        "`{name}` used outside a compound element body"
                    )));
                }
                // Unknown name: an anonymous instance of class `name`.
                let full = self.fresh_name(prefix, name);
                self.instantiate(name, "", &full, prefix, bindings)
            }
            NodeElem::Anon { class, config } => {
                let full = self.fresh_name(prefix, class);
                self.instantiate(class, config, &full, prefix, bindings)
            }
            NodeElem::Decl {
                names: decl_names,
                class,
                config,
            } => {
                let mut last = None;
                for n in decl_names {
                    if names.contains_key(n) {
                        return Err(Error::elaborate(format!("redeclaration of element {n:?}")));
                    }
                    let full = format!("{prefix}{n}");
                    let r = self.instantiate(class, config, &full, prefix, bindings)?;
                    names.insert(n.clone(), r);
                    last = Some(r);
                }
                Ok(last.expect("declaration has at least one name"))
            }
        }
    }

    fn instantiate(
        &mut self,
        class: &str,
        config: &str,
        full_name: &str,
        _prefix: &str,
        bindings: &[(String, String)],
    ) -> Result<Resolved> {
        let config = substitute(config, bindings);
        let Some(overloads) = self.lookup_overloads(class) else {
            let id = self.graph.add_element(full_name, class, config)?;
            return Ok(Resolved::plain(id));
        };

        // Compound instantiation: select the overload matching the
        // argument count.
        if self.depth >= MAX_DEPTH {
            return Err(Error::elaborate(format!(
                "compound element expansion too deep (recursive elementclass {class:?}?)"
            )));
        }
        let args = split_args(&config);
        let Some(def) = overloads
            .iter()
            .find(|d| d.formals.len() == args.len())
            .cloned()
        else {
            let arities: Vec<String> = overloads
                .iter()
                .map(|d| d.formals.len().to_string())
                .collect();
            return Err(Error::elaborate(format!(
                "compound {class:?} expects {} argument(s), got {}",
                arities.join(" or "),
                args.len()
            )));
        };
        let inner_bindings: Vec<(String, String)> = def.formals.iter().cloned().zip(args).collect();

        let pseudo_in =
            self.graph
                .add_element(format!("{full_name}/@input"), PSEUDO_INPUT_CLASS, "")?;
        let pseudo_out =
            self.graph
                .add_element(format!("{full_name}/@output"), PSEUDO_OUTPUT_CLASS, "")?;

        let mut inner_names = HashMap::new();
        inner_names.insert("input".to_owned(), Resolved::plain(pseudo_in));
        inner_names.insert("output".to_owned(), Resolved::plain(pseudo_out));

        self.depth += 1;
        let inner_prefix = format!("{full_name}/");
        let result = self.elab_items(&def.body, &inner_prefix, &inner_bindings, &mut inner_names);
        self.depth -= 1;
        result?;

        Ok(Resolved {
            in_target: pseudo_in,
            out_source: pseudo_out,
        })
    }

    /// Removes all `@input`/`@output` pseudo-elements, connecting their
    /// predecessors to their successors port-wise.
    fn splice_pseudo(&mut self) -> Result<()> {
        self.splice_pseudo_except(&[])
    }

    fn splice_pseudo_except(&mut self, keep: &[ElementId]) -> Result<()> {
        let pseudo: Vec<ElementId> = self
            .graph
            .elements()
            .filter(|(id, e)| {
                matches!(e.class(), PSEUDO_INPUT_CLASS | PSEUDO_OUTPUT_CLASS) && !keep.contains(id)
            })
            .map(|(id, _)| id)
            .collect();
        for id in pseudo {
            let mut new_edges = Vec::new();
            for pred in self.graph.inputs_of(id) {
                for succ in self.graph.connections_from(id, pred.to.port) {
                    new_edges.push((pred.to.port, pred.from, succ.to));
                }
            }
            // Port by port, as the predecessors and successors were declared.
            new_edges.sort_by_key(|&(port, ..)| port);
            self.graph.remove_element(id);
            for (_, from, to) in new_edges {
                self.connect_dedup(from, to)?;
            }
        }
        Ok(())
    }
}

/// Elaborates a parsed program into a flat router graph.
///
/// # Errors
///
/// Returns [`Error::Elaborate`] on redeclarations, arity mismatches in
/// compound instantiation, recursive compound definitions, or misuse of
/// `input`/`output`.
///
/// # Examples
///
/// ```
/// use click_core::lang::{parse, elaborate};
///
/// let program = parse(
///     "elementclass Buffered { $cap | input -> Queue($cap) -> output; } \
///      Idle -> Buffered(64) -> Discard;",
/// )?;
/// let graph = elaborate(&program)?;
/// // The compound expanded into its body: Idle, Queue, Discard.
/// assert_eq!(graph.element_count(), 3);
/// let q = graph.elements().find(|(_, e)| e.class() == "Queue").unwrap().1;
/// assert_eq!(q.config(), "64");
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn elaborate(program: &Program) -> Result<RouterGraph> {
    let mut e = Elaborator {
        graph: RouterGraph::new(),
        defs: Vec::new(),
        anon_counter: 0,
        depth: 0,
    };
    let mut names = HashMap::new();
    e.elab_items(&program.items, "", &[], &mut names)?;
    e.splice_pseudo()?;
    Ok(e.graph)
}

/// A configuration fragment with explicit `input`/`output` port elements —
/// the form `click-xform` patterns and replacements take.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The fragment's graph, including the two pseudo elements.
    pub graph: RouterGraph,
    /// The `@input` pseudo element (named `input`).
    pub input: ElementId,
    /// The `@output` pseudo element (named `output`).
    pub output: ElementId,
}

/// Elaborates a compound-element body into a [`Fragment`], preserving the
/// top-level `input`/`output` pseudo elements (nested compounds are still
/// fully expanded and spliced).
///
/// # Errors
///
/// Same failure modes as [`elaborate`].
pub fn elaborate_fragment(items: &[Item], formals: &[String]) -> Result<Fragment> {
    let mut e = Elaborator {
        graph: RouterGraph::new(),
        defs: Vec::new(),
        anon_counter: 0,
        depth: 0,
    };
    let input = e.graph.add_element("input", PSEUDO_INPUT_CLASS, "")?;
    let output = e.graph.add_element("output", PSEUDO_OUTPUT_CLASS, "")?;
    let mut names = HashMap::new();
    names.insert("input".to_owned(), Resolved::plain(input));
    names.insert("output".to_owned(), Resolved::plain(output));
    // Formals stay symbolic: bind each `$x` to itself so substitution
    // leaves wildcards in place for the pattern matcher.
    let bindings: Vec<(String, String)> = formals
        .iter()
        .map(|f| (f.clone(), format!("${f}")))
        .collect();
    e.elab_items(items, "", &bindings, &mut names)?;
    e.splice_pseudo_except(&[input, output])?;
    Ok(Fragment {
        graph: e.graph,
        input,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse;

    fn graph_of(src: &str) -> RouterGraph {
        elaborate(&parse(src).unwrap()).unwrap()
    }

    fn conn_names(g: &RouterGraph) -> Vec<(String, usize, String, usize)> {
        let mut v: Vec<_> = g
            .connections()
            .iter()
            .map(|c| {
                (
                    g.element(c.from.element).name().to_owned(),
                    c.from.port,
                    g.element(c.to.element).name().to_owned(),
                    c.to.port,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn simple_chain() {
        let g = graph_of("a :: Idle; b :: Discard; a -> b;");
        assert_eq!(g.element_count(), 2);
        assert_eq!(conn_names(&g), vec![("a".into(), 0, "b".into(), 0)]);
    }

    #[test]
    fn anonymous_elements_get_unique_names() {
        let g = graph_of("Idle -> Counter -> Discard;");
        assert_eq!(g.element_count(), 3);
        let classes: Vec<_> = {
            let mut v: Vec<_> = g.elements().map(|(_, e)| e.class().to_owned()).collect();
            v.sort();
            v
        };
        assert_eq!(classes, vec!["Counter", "Discard", "Idle"]);
    }

    #[test]
    fn ports_respected() {
        let g = graph_of("c :: Classifier(a, b); x :: Idle; x -> c; c [1] -> [0] Discard;");
        let conns = conn_names(&g);
        assert!(conns.iter().any(|(f, fp, _, _)| f == "c" && *fp == 1));
    }

    #[test]
    fn reference_to_declared_element() {
        let g = graph_of("q :: Queue; Idle -> q; q -> Discard;");
        assert_eq!(g.element_count(), 3);
        assert_eq!(g.connections().len(), 2);
    }

    #[test]
    fn compound_expansion_flattens_with_prefixes() {
        let g = graph_of(
            "elementclass Pair { input -> Strip(14) -> CheckIPHeader -> output; } \
             src :: Idle; src -> p :: Pair -> Discard;",
        );
        assert!(
            g.find("p/Strip@1").is_some() || g.elements().any(|(_, e)| e.name().starts_with("p/"))
        );
        // No pseudo elements remain.
        assert!(g.elements().all(|(_, e)| !e.class().starts_with('@')));
        // src -> strip, strip -> check, check -> discard.
        assert_eq!(g.connections().len(), 3);
    }

    #[test]
    fn compound_arguments_substitute() {
        let g = graph_of(
            "elementclass B { $cap, $x | input -> Queue($cap) -> Paint($x) -> output; } \
             Idle -> B(128, 3) -> Discard;",
        );
        let q = g.elements().find(|(_, e)| e.class() == "Queue").unwrap().1;
        assert_eq!(q.config(), "128");
        let p = g.elements().find(|(_, e)| e.class() == "Paint").unwrap().1;
        assert_eq!(p.config(), "3");
    }

    #[test]
    fn compound_arity_mismatch_errors() {
        let src = "elementclass B { $cap | input -> Queue($cap) -> output; } Idle -> B -> Discard;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
        let src2 = "elementclass B { input -> output; } Idle -> B(3) -> Discard;";
        assert!(elaborate(&parse(src2).unwrap()).is_err());
    }

    #[test]
    fn nested_compounds() {
        let g = graph_of(
            "elementclass Inner { input -> Counter -> output; } \
             elementclass Outer { input -> Inner -> Inner -> output; } \
             Idle -> Outer -> Discard;",
        );
        let counters = g.elements().filter(|(_, e)| e.class() == "Counter").count();
        assert_eq!(counters, 2);
        assert_eq!(g.connections().len(), 3);
    }

    #[test]
    fn passthrough_compound() {
        let g = graph_of("elementclass Nop { input -> output; } Idle -> Nop -> Discard;");
        assert_eq!(g.element_count(), 2);
        assert_eq!(g.connections().len(), 1);
    }

    #[test]
    fn multi_port_compound() {
        let g = graph_of(
            "elementclass Split { input -> c :: Classifier(a, b); \
             c [0] -> [0] output; c [1] -> [1] output; } \
             Idle -> s :: Split; s [0] -> d0 :: Discard; s [1] -> d1 :: Discard;",
        );
        assert_eq!(g.element_count(), 4); // Idle, Classifier, 2 Discards
        let conns = conn_names(&g);
        assert!(conns
            .iter()
            .any(|(f, fp, t, _)| f == "s/c" && *fp == 0 && t == "d0"));
        assert!(conns
            .iter()
            .any(|(f, fp, t, _)| f == "s/c" && *fp == 1 && t == "d1"));
    }

    #[test]
    fn recursive_compound_is_an_error() {
        let src = "elementclass R { input -> R -> output; } Idle -> R -> Discard;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn input_outside_compound_is_an_error() {
        assert!(elaborate(&parse("input -> Discard;").unwrap()).is_err());
    }

    #[test]
    fn redeclaration_is_an_error() {
        assert!(elaborate(&parse("a :: Idle; a :: Queue;").unwrap()).is_err());
    }

    #[test]
    fn requirements_collected() {
        let g = graph_of("require(fastclassifier); a :: Idle;");
        assert!(g.has_requirement("fastclassifier"));
    }

    #[test]
    fn duplicate_source_connections_tolerated() {
        let g = graph_of("a :: Idle; b :: Discard; a -> b; a -> b;");
        assert_eq!(g.connections().len(), 1);
    }

    #[test]
    fn definitions_visible_before_use_in_scope() {
        let g = graph_of("Idle -> F -> Discard; elementclass F { input -> Counter -> output; }");
        assert!(g.elements().any(|(_, e)| e.class() == "Counter"));
    }

    #[test]
    fn arity_overloading_selects_matching_definition() {
        let g = graph_of(
            "elementclass B { input -> Queue -> output; } \
             elementclass B { $cap | input -> Queue($cap) -> output; } \
             Idle -> B -> d1 :: Discard; \
             Idle -> B(32) -> d2 :: Discard;",
        );
        let mut qs: Vec<String> = g
            .elements()
            .filter(|(_, e)| e.class() == "Queue")
            .map(|(_, e)| e.config().to_owned())
            .collect();
        qs.sort();
        assert_eq!(qs, vec!["", "32"]);
    }

    #[test]
    fn same_arity_redefinition_is_an_error() {
        let src =
            "elementclass B { input -> output; } elementclass B { input -> Null -> output; } \
                   Idle -> B -> Discard;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn missing_arity_reports_the_overload_set() {
        let src = "elementclass B { input -> output; } \
                   elementclass B { $a, $b | input -> output; } \
                   Idle -> B(1) -> Discard;";
        let err = elaborate(&parse(src).unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("0 or 2"), "{msg}");
    }

    #[test]
    fn inner_definitions_shadow_outer() {
        let g = graph_of(
            "elementclass F { input -> Paint(1) -> output; } \
             elementclass G { elementclass F { input -> Paint(2) -> output; } \
                              input -> F -> output; } \
             Idle -> G -> Discard;",
        );
        let p = g.elements().find(|(_, e)| e.class() == "Paint").unwrap().1;
        assert_eq!(p.config(), "2");
    }
}
