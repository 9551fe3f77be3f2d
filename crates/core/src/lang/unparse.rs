//! Unparsing: [`RouterGraph`] → Click source text.
//!
//! The paper (§5.2): "optimizers expect to be able to arbitrarily transform
//! configuration graphs and generate Click-language files corresponding
//! exactly to the results." Every tool in this workspace ends by calling
//! [`unparse`] (or [`write_config`], which also serializes any attached
//! archive), and the output re-parses to an equivalent graph.

use crate::archive::{Archive, CONFIG_ENTRY};
use crate::graph::{Connection, RouterGraph};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a router graph as Click source text.
///
/// Declarations come first (in element order), then `require` statements are
/// hoisted to the top, then connections. Linear runs of connections are
/// compressed into `a -> b -> c` chains for readability.
///
/// # Examples
///
/// ```
/// use click_core::graph::{PortRef, RouterGraph};
/// use click_core::lang::{parse, elaborate, unparse};
///
/// let mut g = RouterGraph::new();
/// let a = g.add_element("a", "Idle", "")?;
/// let b = g.add_element("b", "Discard", "")?;
/// g.connect(PortRef::new(a, 0), PortRef::new(b, 0))?;
///
/// let text = unparse(&g);
/// let reparsed = elaborate(&parse(&text)?)?;
/// assert!(g.same_configuration(&reparsed));
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn unparse(graph: &RouterGraph) -> String {
    let mut out = String::new();
    for req in graph.requirements() {
        let _ = writeln!(out, "require({req});");
    }
    if !graph.requirements().is_empty() {
        out.push('\n');
    }
    for (_, decl) in graph.elements() {
        if decl.config().is_empty() {
            let _ = writeln!(out, "{} :: {};", decl.name(), decl.class());
        } else {
            let _ = writeln!(
                out,
                "{} :: {}({});",
                decl.name(),
                decl.class(),
                decl.config()
            );
        }
    }
    if graph.element_count() > 0 && !graph.connections().is_empty() {
        out.push('\n');
    }

    // Chain compression: follow runs where the next hop is the unique
    // connection out of a port and into a port.
    let conns = graph.connections();
    let position: HashMap<Connection, usize> =
        conns.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    let mut emitted = vec![false; conns.len()];
    // A connection can start a chain if no emitted chain can absorb it as a
    // continuation; simplest correct approach: first pass, mark connections
    // that are "continuations" (their from-endpoint is the unique output of
    // an element with a unique input that is the target of exactly one
    // connection).
    let is_continuation = |c: &Connection| -> bool {
        // c continues a chain if c.from.element has exactly one incoming
        // connection overall and exactly this one outgoing connection, and
        // both use port 0 semantics compatible with chaining.
        let elem = c.from.element;
        graph.inputs_of(elem).len() == 1 && graph.outputs_of(elem).len() == 1
    };
    for (i, c) in conns.iter().enumerate() {
        if emitted[i] || is_continuation(c) {
            continue;
        }
        let mut line = String::new();
        let mut cur = *c;
        let mut cur_idx = i;
        let _ = write!(line, "{}", graph.element(cur.from.element).name());
        loop {
            emitted[cur_idx] = true;
            if cur.from.port != 0 {
                let _ = write!(line, " [{}]", cur.from.port);
            }
            let _ = write!(line, " -> ");
            if cur.to.port != 0 {
                let _ = write!(line, "[{}] ", cur.to.port);
            }
            let _ = write!(line, "{}", graph.element(cur.to.element).name());
            // Extend the chain if the target has a unique continuation.
            let next_elem = cur.to.element;
            let outs = graph.outputs_of(next_elem);
            if outs.len() != 1 || graph.inputs_of(next_elem).len() != 1 {
                break;
            }
            let next_idx = position[&outs[0]];
            if emitted[next_idx] {
                break;
            }
            cur = outs[0];
            cur_idx = next_idx;
        }
        let _ = writeln!(out, "{line};");
    }
    // Any connection not yet emitted (cycles of continuation-only elements).
    for (_, c) in conns.iter().enumerate().filter(|&(i, _)| !emitted[i]) {
        let mut line = String::new();
        let _ = write!(line, "{}", graph.element(c.from.element).name());
        if c.from.port != 0 {
            let _ = write!(line, " [{}]", c.from.port);
        }
        let _ = write!(line, " -> ");
        if c.to.port != 0 {
            let _ = write!(line, "[{}] ", c.to.port);
        }
        let _ = write!(line, "{}", graph.element(c.to.element).name());
        let _ = writeln!(out, "{line};");
    }
    out
}

/// Serializes a configuration to its on-disk form: plain Click text if the
/// graph carries no archive entries, otherwise an archive whose `config`
/// entry holds the Click text.
pub fn write_config(graph: &RouterGraph) -> String {
    let text = unparse(graph);
    if graph.archive().is_empty() {
        text
    } else {
        let mut archive = graph.archive().clone();
        // `config` goes first by convention.
        let mut ordered = Archive::new();
        ordered.insert(CONFIG_ENTRY, text);
        for e in archive.iter() {
            if e.name != CONFIG_ENTRY {
                ordered.insert(e.name.clone(), e.data.clone());
            }
        }
        archive = ordered;
        archive.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PortRef;
    use crate::lang::{elaborate, parse};

    fn round_trip(g: &RouterGraph) -> RouterGraph {
        elaborate(&parse(&unparse(g)).unwrap()).unwrap()
    }

    #[test]
    fn empty_graph() {
        assert_eq!(unparse(&RouterGraph::new()), "");
    }

    #[test]
    fn declarations_and_connection() {
        let mut g = RouterGraph::new();
        let a = g.add_element("a", "Idle", "").unwrap();
        let b = g.add_element("b", "Queue", "100").unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
        let text = unparse(&g);
        assert!(text.contains("a :: Idle;"));
        assert!(text.contains("b :: Queue(100);"));
        assert!(text.contains("a -> b;"));
        assert!(g.same_configuration(&round_trip(&g)));
    }

    #[test]
    fn nonzero_ports_round_trip() {
        let mut g = RouterGraph::new();
        let c = g.add_element("c", "Classifier", "a, b").unwrap();
        let d = g.add_element("d", "X", "").unwrap();
        let e = g.add_element("e", "Y", "").unwrap();
        g.connect(PortRef::new(c, 1), PortRef::new(d, 0)).unwrap();
        g.connect(PortRef::new(c, 0), PortRef::new(e, 2)).unwrap();
        assert!(g.same_configuration(&round_trip(&g)));
    }

    #[test]
    fn chains_are_compressed() {
        let mut g = RouterGraph::new();
        let a = g.add_element("a", "A", "").unwrap();
        let b = g.add_element("b", "B", "").unwrap();
        let c = g.add_element("c", "C", "").unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(c, 0)).unwrap();
        let text = unparse(&g);
        assert!(text.contains("a -> b -> c;"), "expected chain in:\n{text}");
        assert!(g.same_configuration(&round_trip(&g)));
    }

    #[test]
    fn cycle_round_trips() {
        let mut g = RouterGraph::new();
        let a = g.add_element("a", "A", "").unwrap();
        let b = g.add_element("b", "B", "").unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(a, 0)).unwrap();
        assert!(g.same_configuration(&round_trip(&g)));
    }

    #[test]
    fn requirements_round_trip() {
        let mut g = RouterGraph::new();
        g.add_requirement("devirtualize");
        g.add_element("a", "Idle", "").unwrap();
        let rt = round_trip(&g);
        assert!(rt.has_requirement("devirtualize"));
    }

    #[test]
    fn write_config_uses_archive_when_entries_present() {
        let mut g = RouterGraph::new();
        g.add_element("a", "Idle", "").unwrap();
        assert!(!write_config(&g).starts_with('!'));
        g.archive_mut().insert("gen.rs", "struct X;");
        let text = write_config(&g);
        assert!(Archive::is_archive_text(&text));
        let ar = Archive::parse(&text).unwrap();
        assert!(ar.get(CONFIG_ENTRY).unwrap().contains("a :: Idle;"));
        assert_eq!(ar.get("gen.rs"), Some("struct X;"));
        // config entry is first
        assert_eq!(ar.iter().next().unwrap().name, CONFIG_ENTRY);
    }

    #[test]
    fn fan_out_round_trips() {
        let mut g = RouterGraph::new();
        let t = g.add_element("t", "Tee", "").unwrap();
        let a = g.add_element("a", "A", "").unwrap();
        let b = g.add_element("b", "B", "").unwrap();
        let s = g.add_element("s", "S", "").unwrap();
        g.connect(PortRef::new(s, 0), PortRef::new(t, 0)).unwrap();
        g.connect(PortRef::new(t, 0), PortRef::new(a, 0)).unwrap();
        g.connect(PortRef::new(t, 1), PortRef::new(b, 0)).unwrap();
        assert!(g.same_configuration(&round_trip(&g)));
    }
}
