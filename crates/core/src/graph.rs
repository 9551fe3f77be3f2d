//! The router configuration graph.
//!
//! A [`RouterGraph`] is the in-memory form of a Click configuration:
//! elements at the vertices, connections between (element, port) pairs as
//! edges. The optimization tools never execute configurations — they treat
//! them "more as graphs" (paper §5.1) — so this module provides the
//! "extensive set of graph manipulations" the paper's tool library offers:
//! adding and removing elements, rewiring connections, splicing elements in
//! and out, and querying ports.

use crate::archive::Archive;
use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an element within a [`RouterGraph`].
///
/// Element ids are stable across all mutations except [`RouterGraph::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub(crate) u32);

impl ElementId {
    /// The raw index of this element.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One endpoint of a connection: an element plus a port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The element.
    pub element: ElementId,
    /// The port number on that element.
    pub port: usize,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(element: ElementId, port: usize) -> PortRef {
        PortRef { element, port }
    }
}

/// A directed connection from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Connection {
    /// The output (upstream) endpoint.
    pub from: PortRef,
    /// The input (downstream) endpoint.
    pub to: PortRef,
}

/// An element declaration: a name, a class, and a configuration string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    name: String,
    class: String,
    config: String,
    alive: bool,
}

impl ElementDecl {
    /// The element's name (unique within the graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's class name, e.g. `"Classifier"`.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The element's configuration string (without surrounding parentheses).
    pub fn config(&self) -> &str {
        &self.config
    }
}

/// A Click router configuration as a manipulable graph.
///
/// # Examples
///
/// ```
/// use click_core::graph::{PortRef, RouterGraph};
///
/// let mut g = RouterGraph::new();
/// let src = g.add_element("src", "TimedSource", "")?;
/// let sink = g.add_element("sink", "Discard", "")?;
/// g.connect(PortRef::new(src, 0), PortRef::new(sink, 0))?;
/// assert_eq!(g.element_count(), 2);
/// assert_eq!(g.noutputs(src), 1);
/// # Ok::<(), click_core::Error>(())
/// ```
///
/// Besides the global connection list, the graph keeps each element's
/// outgoing and incoming connections, so port queries cost the element's
/// degree rather than the size of the configuration. Invariant:
/// `outputs_of(e)` is exactly [`connections`](RouterGraph::connections)
/// filtered by `from.element == e`, in the same (insertion) order, and
/// likewise `inputs_of(e)` by `to.element == e`.
#[derive(Debug, Clone, Default)]
pub struct RouterGraph {
    elements: Vec<ElementDecl>,
    connections: Vec<Connection>,
    /// Indexed by element id; empty for removed elements.
    out_edges: Vec<Vec<Connection>>,
    in_edges: Vec<Vec<Connection>>,
    by_name: HashMap<String, ElementId>,
    requirements: Vec<String>,
    archive: Archive,
    anon_counter: u32,
}

impl RouterGraph {
    /// Creates an empty configuration.
    pub fn new() -> RouterGraph {
        RouterGraph::default()
    }

    // ---- elements ----------------------------------------------------

    /// Adds an element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Graph`] if an element with this name already exists.
    pub fn add_element(
        &mut self,
        name: impl Into<String>,
        class: impl Into<String>,
        config: impl Into<String>,
    ) -> Result<ElementId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(Error::graph(format!("duplicate element name {name:?}")));
        }
        let id = ElementId(self.elements.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.elements.push(ElementDecl {
            name,
            class: class.into(),
            config: config.into(),
            alive: true,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        Ok(id)
    }

    /// Adds an element with a generated, unique, Click-style anonymous name
    /// (`Class@1`, `Class@2`, ...).
    pub fn add_anon_element(
        &mut self,
        class: impl Into<String>,
        config: impl Into<String>,
    ) -> ElementId {
        let class = class.into();
        loop {
            self.anon_counter += 1;
            let name = format!("{}@{}", class, self.anon_counter);
            if !self.by_name.contains_key(&name) {
                return self
                    .add_element(name, class, config)
                    .expect("name is fresh");
            }
        }
    }

    /// Removes an element and every connection touching it.
    pub fn remove_element(&mut self, id: ElementId) {
        let Some(e) = self.elements.get_mut(id.index()).filter(|e| e.alive) else {
            return;
        };
        e.alive = false;
        self.by_name.remove(&e.name);
        for c in std::mem::take(&mut self.out_edges[id.index()]) {
            self.in_edges[c.to.element.index()].retain(|x| x.from.element != id);
        }
        for c in std::mem::take(&mut self.in_edges[id.index()]) {
            self.out_edges[c.from.element.index()].retain(|x| x.to.element != id);
        }
        self.connections
            .retain(|c| c.from.element != id && c.to.element != id);
    }

    /// Looks up an element by name.
    pub fn find(&self, name: &str) -> Option<ElementId> {
        self.by_name.get(name).copied()
    }

    /// Returns the declaration of a live element.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live element.
    pub fn element(&self, id: ElementId) -> &ElementDecl {
        let e = &self.elements[id.index()];
        assert!(e.alive, "element {id} has been removed");
        e
    }

    /// Returns true if `id` refers to a live element.
    pub fn is_live(&self, id: ElementId) -> bool {
        self.elements.get(id.index()).is_some_and(|e| e.alive)
    }

    /// Changes an element's class name.
    pub fn set_class(&mut self, id: ElementId, class: impl Into<String>) {
        self.elements[id.index()].class = class.into();
    }

    /// Changes an element's configuration string.
    pub fn set_config(&mut self, id: ElementId, config: impl Into<String>) {
        self.elements[id.index()].config = config.into();
    }

    /// Renames an element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Graph`] if the new name is taken.
    pub fn rename(&mut self, id: ElementId, new_name: impl Into<String>) -> Result<()> {
        let new_name = new_name.into();
        if self.by_name.contains_key(&new_name) {
            return Err(Error::graph(format!("duplicate element name {new_name:?}")));
        }
        let e = &mut self.elements[id.index()];
        self.by_name.remove(&e.name);
        self.by_name.insert(new_name.clone(), id);
        e.name = new_name;
        Ok(())
    }

    /// Iterates over live element ids in declaration order.
    pub fn element_ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| ElementId(i as u32))
    }

    /// Iterates over `(id, declaration)` pairs for live elements.
    pub fn elements(&self) -> impl Iterator<Item = (ElementId, &ElementDecl)> + '_ {
        self.element_ids().map(move |id| (id, self.element(id)))
    }

    /// The number of live elements.
    pub fn element_count(&self) -> usize {
        self.elements.iter().filter(|e| e.alive).count()
    }

    // ---- connections -------------------------------------------------

    /// Connects an output port to an input port.
    ///
    /// Duplicate connections are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Graph`] if either endpoint is dead or the connection
    /// already exists.
    pub fn connect(&mut self, from: PortRef, to: PortRef) -> Result<()> {
        if !self.is_live(from.element) || !self.is_live(to.element) {
            return Err(Error::graph(
                "connection endpoint refers to a removed element",
            ));
        }
        let conn = Connection { from, to };
        let outs = &self.out_edges[from.element.index()];
        let ins = &self.in_edges[to.element.index()];
        let shorter = if outs.len() <= ins.len() { outs } else { ins };
        if shorter.contains(&conn) {
            return Err(Error::graph(format!(
                "duplicate connection {} [{}] -> [{}] {}",
                self.element(from.element).name(),
                from.port,
                to.port,
                self.element(to.element).name()
            )));
        }
        self.connections.push(conn);
        self.out_edges[from.element.index()].push(conn);
        self.in_edges[to.element.index()].push(conn);
        Ok(())
    }

    /// Removes a connection if present; returns whether one was removed.
    pub fn disconnect(&mut self, from: PortRef, to: PortRef) -> bool {
        let conn = Connection { from, to };
        let remove = |list: &mut Vec<Connection>| {
            let at = list.iter().position(|c| *c == conn);
            at.map(|i| list.remove(i)).is_some()
        };
        let outs = self.out_edges.get_mut(from.element.index());
        outs.is_some_and(remove)
            && remove(&mut self.in_edges[to.element.index()])
            && remove(&mut self.connections)
    }

    /// All connections, in insertion order.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Connections leaving output port `port` of `id`, in insertion order.
    pub fn connections_from(
        &self,
        id: ElementId,
        port: usize,
    ) -> impl Iterator<Item = Connection> + Clone + '_ {
        let outs = self.outputs_of(id).iter();
        outs.filter(move |c| c.from.port == port).copied()
    }

    /// Connections arriving at input port `port` of `id`, in insertion order.
    pub fn connections_to(
        &self,
        id: ElementId,
        port: usize,
    ) -> impl Iterator<Item = Connection> + Clone + '_ {
        let ins = self.inputs_of(id).iter();
        ins.filter(move |c| c.to.port == port).copied()
    }

    /// All connections leaving any output of `id`, in insertion order.
    pub fn outputs_of(&self, id: ElementId) -> &[Connection] {
        self.out_edges.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// All connections arriving at any input of `id`, in insertion order.
    pub fn inputs_of(&self, id: ElementId) -> &[Connection] {
        self.in_edges.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of input ports in use: one more than the highest connected
    /// input port, or zero.
    pub fn ninputs(&self, id: ElementId) -> usize {
        let ports = self.inputs_of(id).iter().map(|c| c.to.port + 1);
        ports.max().unwrap_or(0)
    }

    /// Number of output ports in use: one more than the highest connected
    /// output port, or zero.
    pub fn noutputs(&self, id: ElementId) -> usize {
        let ports = self.outputs_of(id).iter().map(|c| c.from.port + 1);
        ports.max().unwrap_or(0)
    }

    /// Removes a single-input, single-output element, reconnecting each of
    /// its predecessors to each of its successors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Graph`] if the element uses ports other than input 0
    /// and output 0.
    pub fn splice_out(&mut self, id: ElementId) -> Result<()> {
        if self.ninputs(id) > 1 || self.noutputs(id) > 1 {
            return Err(Error::graph(format!(
                "cannot splice out {}: it uses multiple ports",
                self.element(id).name()
            )));
        }
        let preds: Vec<PortRef> = self.inputs_of(id).iter().map(|c| c.from).collect();
        let succs: Vec<PortRef> = self.outputs_of(id).iter().map(|c| c.to).collect();
        self.remove_element(id);
        for p in &preds {
            for s in &succs {
                // Ignore duplicates that may arise from fan-in × fan-out.
                let _ = self.connect(*p, *s);
            }
        }
        Ok(())
    }

    /// Inserts `mid` between `from` and its current target(s) on the given
    /// output port: `from[port] -> mid[in 0]`, `mid[out 0] -> old targets`.
    pub fn insert_after(&mut self, from: PortRef, mid: ElementId) -> Result<()> {
        let old: Vec<Connection> = self.connections_from(from.element, from.port).collect();
        for c in &old {
            self.disconnect(c.from, c.to);
        }
        self.connect(from, PortRef::new(mid, 0))?;
        for c in &old {
            self.connect(PortRef::new(mid, 0), c.to)?;
        }
        Ok(())
    }

    // ---- requirements and archive -------------------------------------

    /// Adds a `require(...)` entry if not already present.
    pub fn add_requirement(&mut self, req: impl Into<String>) {
        let req = req.into();
        if !self.requirements.contains(&req) {
            self.requirements.push(req);
        }
    }

    /// Returns true if the configuration declares the given requirement.
    pub fn has_requirement(&self, req: &str) -> bool {
        self.requirements.iter().any(|r| r == req)
    }

    /// The configuration's requirements, in declaration order.
    pub fn requirements(&self) -> &[String] {
        &self.requirements
    }

    /// The attached archive of auxiliary files (generated source code etc.).
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Mutable access to the attached archive.
    pub fn archive_mut(&mut self) -> &mut Archive {
        &mut self.archive
    }

    // ---- maintenance ---------------------------------------------------

    /// Reindexes elements so ids are dense again after removals.
    ///
    /// All previously obtained [`ElementId`]s are invalidated.
    pub fn compact(&mut self) {
        let mut remap: HashMap<ElementId, ElementId> = HashMap::new();
        let mut new_elements = Vec::with_capacity(self.elements.len());
        for (i, e) in self.elements.drain(..).enumerate() {
            if e.alive {
                remap.insert(ElementId(i as u32), ElementId(new_elements.len() as u32));
                new_elements.push(e);
            }
        }
        self.elements = new_elements;
        self.out_edges = vec![Vec::new(); self.elements.len()];
        self.in_edges = vec![Vec::new(); self.elements.len()];
        self.by_name = self
            .elements
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), ElementId(i as u32)))
            .collect();
        for c in &mut self.connections {
            c.from.element = remap[&c.from.element];
            c.to.element = remap[&c.to.element];
            self.out_edges[c.from.element.index()].push(*c);
            self.in_edges[c.to.element.index()].push(*c);
        }
    }

    /// Returns true if the two graphs contain the same elements (by name,
    /// class, and config) and the same connection set, ignoring declaration
    /// order and ids.
    pub fn same_configuration(&self, other: &RouterGraph) -> bool {
        let mut a: Vec<(&str, &str, &str)> = self
            .elements()
            .map(|(_, e)| (e.name(), e.class(), e.config()))
            .collect();
        let mut b: Vec<(&str, &str, &str)> = other
            .elements()
            .map(|(_, e)| (e.name(), e.class(), e.config()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return false;
        }
        let key = |g: &RouterGraph, c: &Connection| {
            (
                g.element(c.from.element).name().to_owned(),
                c.from.port,
                g.element(c.to.element).name().to_owned(),
                c.to.port,
            )
        };
        let mut ca: Vec<_> = self.connections.iter().map(|c| key(self, c)).collect();
        let mut cb: Vec<_> = other.connections.iter().map(|c| key(other, c)).collect();
        ca.sort_unstable();
        cb.sort_unstable();
        ca == cb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (RouterGraph, ElementId, ElementId, ElementId) {
        let mut g = RouterGraph::new();
        let a = g.add_element("a", "A", "1").unwrap();
        let b = g.add_element("b", "B", "").unwrap();
        let c = g.add_element("c", "C", "x, y").unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(c, 1)).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_and_find() {
        let (g, a, _, _) = abc();
        assert_eq!(g.find("a"), Some(a));
        assert_eq!(g.element(a).class(), "A");
        assert_eq!(g.element(a).config(), "1");
        assert_eq!(g.find("zzz"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = RouterGraph::new();
        g.add_element("x", "A", "").unwrap();
        assert!(g.add_element("x", "B", "").is_err());
    }

    #[test]
    fn anon_names_are_fresh() {
        let mut g = RouterGraph::new();
        let a = g.add_anon_element("Idle", "");
        let b = g.add_anon_element("Idle", "");
        assert_ne!(g.element(a).name(), g.element(b).name());
        assert!(g.element(a).name().starts_with("Idle@"));
    }

    #[test]
    fn port_counts_follow_connections() {
        let (g, a, b, c) = abc();
        assert_eq!(g.noutputs(a), 1);
        assert_eq!(g.ninputs(a), 0);
        assert_eq!(g.ninputs(b), 1);
        assert_eq!(g.ninputs(c), 2); // connected at port 1 -> two ports in use
    }

    #[test]
    fn remove_element_drops_connections() {
        let (mut g, _, b, _) = abc();
        g.remove_element(b);
        assert_eq!(g.element_count(), 2);
        assert!(g.connections().is_empty());
        assert_eq!(g.find("b"), None);
        assert!(!g.is_live(b));
    }

    #[test]
    fn duplicate_connection_rejected() {
        let (mut g, a, b, _) = abc();
        assert!(g.connect(PortRef::new(a, 0), PortRef::new(b, 0)).is_err());
    }

    #[test]
    fn splice_out_rewires() {
        let (mut g, a, b, c) = abc();
        g.splice_out(b).unwrap();
        assert_eq!(g.connections().len(), 1);
        let conn = g.connections()[0];
        assert_eq!(conn.from, PortRef::new(a, 0));
        assert_eq!(conn.to, PortRef::new(c, 1));
    }

    #[test]
    fn splice_out_rejects_multiport() {
        let mut g = RouterGraph::new();
        let a = g.add_element("a", "A", "").unwrap();
        let t = g.add_element("t", "Tee", "").unwrap();
        let b = g.add_element("b", "B", "").unwrap();
        let c = g.add_element("c", "C", "").unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(t, 0)).unwrap();
        g.connect(PortRef::new(t, 0), PortRef::new(b, 0)).unwrap();
        g.connect(PortRef::new(t, 1), PortRef::new(c, 0)).unwrap();
        assert!(g.splice_out(t).is_err());
    }

    #[test]
    fn insert_after_redirects_targets() {
        let (mut g, a, b, _) = abc();
        let mid = g.add_element("mid", "Counter", "").unwrap();
        g.insert_after(PortRef::new(a, 0), mid).unwrap();
        assert_eq!(
            g.connections_from(a, 0).collect::<Vec<_>>(),
            vec![Connection {
                from: PortRef::new(a, 0),
                to: PortRef::new(mid, 0)
            }]
        );
        assert_eq!(
            g.connections_from(mid, 0).next().unwrap().to,
            PortRef::new(b, 0)
        );
    }

    #[test]
    fn compact_renumbers_and_preserves_structure() {
        let (mut g, a, b, c) = abc();
        g.remove_element(a);
        let before: Vec<_> = g
            .connections()
            .iter()
            .map(|c| {
                (
                    g.element(c.from.element).name().to_owned(),
                    g.element(c.to.element).name().to_owned(),
                )
            })
            .collect();
        g.compact();
        assert_eq!(g.element_count(), 2);
        let b2 = g.find("b").unwrap();
        let c2 = g.find("c").unwrap();
        assert_eq!(b2.index(), 0);
        assert_eq!(c2.index(), 1);
        let after: Vec<_> = g
            .connections()
            .iter()
            .map(|c| {
                (
                    g.element(c.from.element).name().to_owned(),
                    g.element(c.to.element).name().to_owned(),
                )
            })
            .collect();
        assert_eq!(before, after);
        let _ = (b, c);
    }

    /// Every indexed query against a linear scan of `connections()`.
    fn assert_index_matches_scan(g: &RouterGraph) {
        let all = g.connections();
        let slots = g.elements.len() as u32 + 1; // one id past the end, too
        for id in (0..slots).map(ElementId) {
            let outs: Vec<Connection> = all
                .iter()
                .filter(|c| c.from.element == id)
                .copied()
                .collect();
            let ins: Vec<Connection> = all.iter().filter(|c| c.to.element == id).copied().collect();
            assert_eq!(g.outputs_of(id), outs, "outputs_of {id}");
            assert_eq!(g.inputs_of(id), ins, "inputs_of {id}");
            assert_eq!(
                g.noutputs(id),
                outs.iter().map(|c| c.from.port + 1).max().unwrap_or(0)
            );
            assert_eq!(
                g.ninputs(id),
                ins.iter().map(|c| c.to.port + 1).max().unwrap_or(0)
            );
            for port in 0..4 {
                let from: Vec<Connection> = outs
                    .iter()
                    .filter(|c| c.from.port == port)
                    .copied()
                    .collect();
                let to: Vec<Connection> =
                    ins.iter().filter(|c| c.to.port == port).copied().collect();
                assert_eq!(g.connections_from(id, port).collect::<Vec<_>>(), from);
                assert_eq!(g.connections_to(id, port).collect::<Vec<_>>(), to);
            }
            if !g.is_live(id) {
                assert!(outs.is_empty() && ins.is_empty(), "edge at removed {id}");
            }
        }
    }

    #[test]
    fn indexed_queries_equal_a_linear_scan_under_random_mutation() {
        for seed in 1..=8u64 {
            let mut lcg = crate::Lcg::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rand = move |n: usize| lcg.below(n);
            let mut g = RouterGraph::new();
            for step in 0..600 {
                let live: Vec<ElementId> = g.element_ids().collect();
                let pick = |r: &mut dyn FnMut(usize) -> usize| live[r(live.len())];
                match rand(if live.len() < 2 { 1 } else { 16 }) {
                    0 | 1 => {
                        g.add_element(format!("e{step}"), "X", "").unwrap();
                    }
                    2..=8 => {
                        // Ports 0..3, self-loops and duplicates included.
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        let to = PortRef::new(pick(&mut rand), rand(3));
                        let fresh = !g.connections().contains(&Connection { from, to });
                        assert_eq!(g.connect(from, to).is_ok(), fresh);
                    }
                    9 | 10 => {
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        let to = match g.connections_from(from.element, from.port).next() {
                            Some(c) if rand(4) > 0 => c.to,
                            _ => PortRef::new(pick(&mut rand), rand(3)),
                        };
                        let present = g.connections().contains(&Connection { from, to });
                        assert_eq!(g.disconnect(from, to), present);
                    }
                    11 => g.remove_element(pick(&mut rand)),
                    12 => {
                        let _ = g.splice_out(pick(&mut rand));
                    }
                    13 | 14 => {
                        let mid = g.add_element(format!("m{step}"), "M", "").unwrap();
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        // Fails (duplicate) only when `from` already feeds `mid`,
                        // which a fresh `mid` rules out.
                        g.insert_after(from, mid).unwrap();
                    }
                    _ => g.compact(),
                }
                assert_index_matches_scan(&g);
            }
            assert!(g.connections().len() > 10, "seed {seed} exercised nothing");
        }
    }

    #[test]
    fn same_configuration_ignores_order() {
        let (g, ..) = abc();
        let mut h = RouterGraph::new();
        let c = h.add_element("c", "C", "x, y").unwrap();
        let b = h.add_element("b", "B", "").unwrap();
        let a = h.add_element("a", "A", "1").unwrap();
        h.connect(PortRef::new(b, 0), PortRef::new(c, 1)).unwrap();
        h.connect(PortRef::new(a, 0), PortRef::new(b, 0)).unwrap();
        assert!(g.same_configuration(&h));
        h.set_config(a, "2");
        assert!(!g.same_configuration(&h));
    }

    #[test]
    fn requirements_deduplicate() {
        let mut g = RouterGraph::new();
        g.add_requirement("fastclassifier");
        g.add_requirement("fastclassifier");
        assert_eq!(g.requirements().len(), 1);
        assert!(g.has_requirement("fastclassifier"));
    }
}
