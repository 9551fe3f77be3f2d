//! Decision-diagram classifiers — the FDD/BDD-style build path.
//!
//! The per-rule decision tree of [`crate::build::build_tree`] grows a
//! node per check per rule, so a 10 000-rule ACL explodes both compile
//! time and code size. Following the forwarding-decision-diagram
//! construction of "A Fast Compiler for NetKAT", this module instead
//! orders the distinct packet *fields* (word-aligned `offset`/`mask`
//! loads) and builds a diagram of multiway test nodes over them:
//!
//! * variables are ordered — every root-to-leaf path tests each field
//!   at most once, so match depth is bounded by the field count, not
//!   the rule count;
//! * interior nodes are hash-consed and residual rule sets memoized,
//!   so equivalent subtrees are built once and shared — diagram size
//!   tracks *distinct decision paths*, not rules.
//!
//! `click-fastclassifier` lowers every classifier to one of these; its
//! text form (`diag ...`) is the generated element's configuration.

use crate::build::{Action, Check, Cond, Rule};
use crate::tree::load_word;
use click_core::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;

/// A packet field: one word-aligned masked load. Two checks belong to
/// the same field iff they load the same word under the same mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Field {
    /// Word-aligned byte offset.
    pub offset: u32,
    /// Mask applied to the loaded word.
    pub mask: u32,
}

/// Where a diagram edge leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Continue at an interior node.
    Node(usize),
    /// Emit on this output.
    Output(usize),
    /// Drop the packet.
    Drop,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Node(i) => write!(f, "n{i}"),
            Target::Output(o) => write!(f, "out{o}"),
            Target::Drop => f.write_str("drop"),
        }
    }
}

fn parse_target(s: &str) -> Result<Target> {
    let bad = || Error::spec(format!("bad diagram target {s:?}"));
    if s == "drop" {
        Ok(Target::Drop)
    } else if let Some(o) = s.strip_prefix("out") {
        Ok(Target::Output(o.parse().map_err(|_| bad())?))
    } else if let Some(n) = s.strip_prefix('n') {
        Ok(Target::Node(n.parse().map_err(|_| bad())?))
    } else {
        Err(bad())
    }
}

/// One multiway test node: load the field, dispatch on its value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DiagNode {
    /// Index into [`DecisionDiagram::fields`].
    pub field: usize,
    /// Value dispatch, sorted by value and binary-searched at match
    /// time. Only values whose target differs from `default` appear.
    pub edges: Vec<(u32, Target)>,
    /// Where field values not in `edges` go.
    pub default: Target,
}

/// An ordered-field decision diagram over packet words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionDiagram {
    /// The tested fields, in variable order.
    pub fields: Vec<Field>,
    /// Interior nodes. Node field indices strictly increase along every
    /// path, so depth is bounded by `fields.len()`.
    pub nodes: Vec<DiagNode>,
    /// Entry point.
    pub start: Target,
    /// Declared output count.
    pub noutputs: usize,
}

impl DecisionDiagram {
    /// Classifies a packet. Returns the output port or `None` for drop.
    #[inline]
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        self.walk(data, || {})
    }

    /// Classifies a packet, also reporting the number of interior nodes
    /// visited (for the cost model). Bounded by the field count.
    pub fn classify_steps(&self, data: &[u8]) -> (Option<usize>, usize) {
        let mut steps = 0usize;
        let out = self.walk(data, || steps += 1);
        (out, steps)
    }

    /// The one diagram walk; `step` runs at every interior node visited.
    #[inline]
    fn walk(&self, data: &[u8], mut step: impl FnMut()) -> Option<usize> {
        let mut t = self.start;
        loop {
            match t {
                Target::Output(o) => return Some(o),
                Target::Drop => return None,
                Target::Node(i) => {
                    step();
                    let n = &self.nodes[i];
                    let f = self.fields[n.field];
                    let w = load_word(data, f.offset as usize) & f.mask;
                    t = match n.edges.binary_search_by_key(&w, |&(v, _)| v) {
                        Ok(k) => n.edges[k].1,
                        Err(_) => n.default,
                    };
                }
            }
        }
    }

    /// Longest root-to-leaf node chain. Bounded by `fields.len()`.
    pub fn depth(&self) -> usize {
        fn depth_of(d: &DecisionDiagram, t: Target, memo: &mut [Option<usize>]) -> usize {
            let Target::Node(i) = t else { return 0 };
            if let Some(v) = memo[i] {
                return v;
            }
            let n = &d.nodes[i];
            let mut m = depth_of(d, n.default, memo);
            for &(_, e) in &n.edges {
                m = m.max(depth_of(d, e, memo));
            }
            memo[i] = Some(m + 1);
            m + 1
        }
        let mut memo = vec![None; self.nodes.len()];
        depth_of(self, self.start, &mut memo)
    }

    /// Structural validity: indices in range, edges sorted and distinct
    /// from the default, and field order strictly increasing along
    /// every edge (which also guarantees classify terminates).
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn validate(&self) -> Result<()> {
        let check_target = |from: Option<usize>, t: Target| -> Result<()> {
            match t {
                Target::Output(o) if o >= self.noutputs => {
                    Err(Error::spec(format!("output {o} out of range")))
                }
                Target::Node(i) if i >= self.nodes.len() => {
                    Err(Error::spec(format!("node {i} out of range")))
                }
                Target::Node(i) => {
                    if let Some(f) = from {
                        if self.nodes[i].field <= f {
                            return Err(Error::spec(format!("field order violated at node {i}")));
                        }
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        };
        check_target(None, self.start)?;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.field >= self.fields.len() {
                return Err(Error::spec(format!("node {i}: field out of range")));
            }
            check_target(Some(n.field), n.default)?;
            for (k, &(v, t)) in n.edges.iter().enumerate() {
                if k > 0 && n.edges[k - 1].0 >= v {
                    return Err(Error::spec(format!("node {i}: edges not sorted")));
                }
                if t == n.default {
                    return Err(Error::spec(format!("node {i}: edge equals default")));
                }
                check_target(Some(n.field), t)?;
            }
        }
        Ok(())
    }
}

fn field_of(c: &Check) -> Field {
    Field {
        offset: c.offset,
        mask: c.mask,
    }
}

fn action_target(a: Action) -> Target {
    match a {
        Action::Emit(o) => Target::Output(o),
        Action::Drop => Target::Drop,
    }
}

/// Collects fields in order of first appearance across the rule list.
fn collect_fields(rules: &[Rule]) -> Vec<Field> {
    fn walk(c: &Cond, out: &mut Vec<Field>, seen: &mut HashMap<Field, ()>) {
        match c {
            Cond::Check(chk) => {
                let f = field_of(chk);
                if seen.insert(f, ()).is_none() {
                    out.push(f);
                }
            }
            Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| walk(c, out, seen)),
            Cond::Not(c) => walk(c, out, seen),
            Cond::True | Cond::False => {}
        }
    }
    let mut out = Vec::new();
    let mut seen = HashMap::new();
    for r in rules {
        walk(&r.cond, &mut out, &mut seen);
    }
    out
}

/// Partially evaluates `cond` under the assumption that `field` loads
/// value `val` (`None` means "none of the values any residual check
/// tests", so every check on the field is false). Simplifies to a
/// constant whenever possible.
fn assign(cond: &Cond, field: Field, val: Option<u32>) -> Cond {
    match cond {
        Cond::Check(c) if field_of(c) == field => {
            if val == Some(c.value) {
                Cond::True
            } else {
                Cond::False
            }
        }
        Cond::Check(_) | Cond::True | Cond::False => cond.clone(),
        Cond::Not(c) => match assign(c, field, val) {
            Cond::True => Cond::False,
            Cond::False => Cond::True,
            other => Cond::Not(Box::new(other)),
        },
        Cond::And(cs) => {
            let mut kept = Vec::new();
            for c in cs {
                match assign(c, field, val) {
                    Cond::True => {}
                    Cond::False => return Cond::False,
                    other => kept.push(other),
                }
            }
            match kept.len() {
                0 => Cond::True,
                1 => kept.pop().expect("one element"),
                _ => Cond::And(kept),
            }
        }
        Cond::Or(cs) => {
            let mut kept = Vec::new();
            for c in cs {
                match assign(c, field, val) {
                    Cond::False => {}
                    Cond::True => return Cond::True,
                    other => kept.push(other),
                }
            }
            match kept.len() {
                0 => Cond::False,
                1 => kept.pop().expect("one element"),
                _ => Cond::Or(kept),
            }
        }
    }
}

/// The fields (by diagram index) still tested anywhere in a residual
/// rule set; returns the smallest, if any.
fn next_tested(rules: &[(Cond, Action)], index: &HashMap<Field, usize>) -> Option<usize> {
    fn walk(c: &Cond, index: &HashMap<Field, usize>, best: &mut Option<usize>) {
        match c {
            Cond::Check(chk) => {
                let i = index[&field_of(chk)];
                if best.is_none_or(|b| i < b) {
                    *best = Some(i);
                }
            }
            Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| walk(c, index, best)),
            Cond::Not(c) => walk(c, index, best),
            Cond::True | Cond::False => {}
        }
    }
    let mut best = None;
    for (c, _) in rules {
        walk(c, index, &mut best);
    }
    best
}

/// Collects the distinct values checks on `field` test in a residual
/// rule set, sorted.
fn values_on(rules: &[(Cond, Action)], field: Field) -> Vec<u32> {
    fn walk(c: &Cond, field: Field, out: &mut Vec<u32>) {
        match c {
            Cond::Check(chk) if field_of(chk) == field => out.push(chk.value),
            Cond::Check(_) | Cond::True | Cond::False => {}
            Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| walk(c, field, out)),
            Cond::Not(c) => walk(c, field, out),
        }
    }
    let mut vals = Vec::new();
    for (c, _) in rules {
        walk(c, field, &mut vals);
    }
    vals.sort_unstable();
    vals.dedup();
    vals
}

struct Builder {
    fields: Vec<Field>,
    index: HashMap<Field, usize>,
    nodes: Vec<DiagNode>,
    /// Hash-consing: structurally equal nodes share one index.
    cons: HashMap<DiagNode, usize>,
    /// Memoized residual rule sets: equivalent sub-problems share one
    /// subtree.
    memo: HashMap<Vec<(Cond, Action)>, Target>,
}

impl Builder {
    /// Lowers a residual (first-match) rule set into a diagram target.
    fn lower(&mut self, mut rules: Vec<(Cond, Action)>) -> Target {
        rules.retain(|(c, _)| *c != Cond::False);
        // First-match: everything after an always-true rule is dead.
        if let Some(pos) = rules.iter().position(|(c, _)| *c == Cond::True) {
            rules.truncate(pos + 1);
        }
        match rules.first() {
            None => return Target::Drop,
            Some((Cond::True, a)) => return action_target(*a),
            _ => {}
        }
        if let Some(&t) = self.memo.get(&rules) {
            return t;
        }
        let Some(fidx) = next_tested(&rules, &self.index) else {
            // No field left to test: every condition is a constant
            // expression (such as `!true`), which `eval` decides without
            // reading the packet.
            return rules
                .iter()
                .find(|(c, _)| c.eval(&[]))
                .map_or(Target::Drop, |(_, a)| action_target(*a));
        };
        let field = self.fields[fidx];
        let values = values_on(&rules, field);
        let default = self.lower(
            rules
                .iter()
                .map(|(c, a)| (assign(c, field, None), *a))
                .collect(),
        );
        let mut edges = Vec::new();
        for &v in &values {
            let t = self.lower(
                rules
                    .iter()
                    .map(|(c, a)| (assign(c, field, Some(v)), *a))
                    .collect(),
            );
            if t != default {
                edges.push((v, t));
            }
        }
        let target = if edges.is_empty() {
            // Every value agrees with the default: the test is moot.
            default
        } else {
            let node = DiagNode {
                field: fidx,
                edges,
                default,
            };
            let idx = match self.cons.get(&node) {
                Some(&i) => i,
                None => {
                    self.nodes.push(node.clone());
                    self.cons.insert(node, self.nodes.len() - 1);
                    self.nodes.len() - 1
                }
            };
            Target::Node(idx)
        };
        self.memo.insert(rules, target);
        target
    }
}

/// Compiles an ordered rule list into a decision diagram with the same
/// first-match semantics as [`crate::build::build_tree`]: rules are
/// tried in order, the first whose condition holds determines the
/// action, and packets matching no rule are dropped.
///
/// # Examples
///
/// ```
/// use click_classifier::build::{Action, Check, Cond, Rule};
/// use click_classifier::diagram::build_diagram;
///
/// let rules = vec![
///     Rule {
///         cond: Cond::Check(Check::new(12, 0xFFFF_0000, 0x0800_0000)),
///         action: Action::Emit(0),
///     },
///     Rule { cond: Cond::True, action: Action::Emit(1) },
/// ];
/// let d = build_diagram(&rules, 2);
/// let mut pkt = [0u8; 64];
/// pkt[12] = 0x08;
/// assert_eq!(d.classify(&pkt), Some(0));
/// pkt[12] = 0x86;
/// assert_eq!(d.classify(&pkt), Some(1));
/// assert!(d.depth() <= d.fields.len());
/// ```
pub fn build_diagram(rules: &[Rule], noutputs: usize) -> DecisionDiagram {
    let fields = collect_fields(rules);
    let index: HashMap<Field, usize> = fields.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut b = Builder {
        fields,
        index,
        nodes: Vec::new(),
        cons: HashMap::new(),
        memo: HashMap::new(),
    };
    let start = b.lower(rules.iter().map(|r| (r.cond.clone(), r.action)).collect());
    let d = DecisionDiagram {
        fields: b.fields,
        nodes: b.nodes,
        start,
        noutputs,
    };
    debug_assert!(d.validate().is_ok(), "{:?}", d.validate());
    d
}

impl fmt::Display for DecisionDiagram {
    /// Compact single-line serialization, suitable for embedding in an
    /// element configuration string:
    ///
    /// ```text
    /// diag 2 n0 f 12:ffff0000 n 0:out1:8000000=out0
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "diag {} {}", self.noutputs, self.start)?;
        for fd in &self.fields {
            write!(f, " f {}:{:x}", fd.offset, fd.mask)?;
        }
        for n in &self.nodes {
            write!(f, " n {}:{}", n.field, n.default)?;
            for (k, &(v, t)) in n.edges.iter().enumerate() {
                f.write_str(if k == 0 { ":" } else { "," })?;
                write!(f, "{v:x}={t}")?;
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for DecisionDiagram {
    type Err = Error;

    fn from_str(s: &str) -> Result<DecisionDiagram> {
        let bad = |m: &str| Error::spec(format!("bad diagram: {m}"));
        let mut words = s.split_whitespace();
        if words.next() != Some("diag") {
            return Err(bad("missing `diag` prefix"));
        }
        let noutputs = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| bad("bad noutputs"))?;
        let start = parse_target(words.next().ok_or_else(|| bad("missing start"))?)?;
        let mut fields = Vec::new();
        let mut nodes = Vec::new();
        while let Some(kind) = words.next() {
            let body = words.next().ok_or_else(|| bad("truncated"))?;
            match kind {
                "f" => {
                    let (off, mask) = body.split_once(':').ok_or_else(|| bad("bad field"))?;
                    fields.push(Field {
                        offset: off.parse().map_err(|_| bad("bad field offset"))?,
                        mask: u32::from_str_radix(mask, 16).map_err(|_| bad("bad field mask"))?,
                    });
                }
                "n" => {
                    let mut parts = body.splitn(3, ':');
                    let field = parts
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| bad("bad node field"))?;
                    let default =
                        parse_target(parts.next().ok_or_else(|| bad("missing default"))?)?;
                    let mut edges = Vec::new();
                    if let Some(list) = parts.next() {
                        for e in list.split(',') {
                            let (v, t) = e.split_once('=').ok_or_else(|| bad("bad edge"))?;
                            edges.push((
                                u32::from_str_radix(v, 16).map_err(|_| bad("bad edge value"))?,
                                parse_target(t)?,
                            ));
                        }
                    }
                    nodes.push(DiagNode {
                        field,
                        edges,
                        default,
                    });
                }
                _ => return Err(bad("unknown section")),
            }
        }
        let d = DecisionDiagram {
            fields,
            nodes,
            start,
            noutputs,
        };
        d.validate()?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::iplang::parse_ipfilter_config;
    use crate::pattern::parse_classifier_config;

    fn pkt(pairs: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; 64];
        for &(off, b) in pairs {
            p[off] = b;
        }
        p
    }

    #[test]
    fn agrees_with_tree_on_classifier_configs() {
        for config in [
            "12/0800, 12/0806, -",
            "12/0806 20/0001, 12/0806 20/0002, 12/0800, -",
            "-",
            "0/01, 4/02, 8/03, -",
        ] {
            let rules = parse_classifier_config(config).unwrap();
            let n = rules.len();
            let tree = build_tree(&rules, n);
            let d = build_diagram(&rules, n);
            d.validate().unwrap();
            assert!(d.depth() <= d.fields.len(), "config {config:?}");
            let mut data = vec![0u8; 64];
            for fill in 0u8..16 {
                for (i, b) in data.iter_mut().enumerate() {
                    *b = fill.wrapping_mul(37).wrapping_add(i as u8);
                }
                data[12] = 0x08;
                data[13] = if fill % 2 == 0 { 0x00 } else { 0x06 };
                assert_eq!(
                    d.classify(&data),
                    tree.classify(&data),
                    "config {config:?} fill {fill}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_tree_on_ipfilter() {
        let rules = parse_ipfilter_config(
            "allow tcp dst port 80, allow udp dst port 53, deny src 10.0.0.1, allow all",
        )
        .unwrap();
        let tree = build_tree(&rules, 1);
        let d = build_diagram(&rules, 1);
        let mut ip = vec![0u8; 40];
        for proto in [6u8, 17, 1] {
            for port in [53u8, 80, 99] {
                for src in [0x0A000001u32, 0x0A000002] {
                    ip[0] = 0x45;
                    ip[9] = proto;
                    ip[12..16].copy_from_slice(&src.to_be_bytes());
                    ip[22] = 0;
                    ip[23] = port;
                    assert_eq!(
                        d.classify(&ip),
                        tree.classify(&ip),
                        "proto {proto} port {port} src {src:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_bounded_and_subtrees_shared_on_generated_acl() {
        // An ACL shaped like generated firewall rules: many (src, port)
        // pairs mapping to a handful of outcomes. The tree grows a node
        // per check per rule; the diagram depth stays <= field count and
        // node count tracks distinct decision paths.
        let mut rules = Vec::new();
        for i in 0..200u32 {
            rules.push(Rule {
                cond: Cond::And(vec![
                    Cond::Check(Check::new(12, 0xFFFF_FFFF, 0x0A00_0000 | i)),
                    Cond::Check(Check::new(20, 0x0000_FFFF, 80 + (i % 4))),
                ]),
                action: if i % 2 == 0 {
                    Action::Emit(0)
                } else {
                    Action::Drop
                },
            });
        }
        rules.push(Rule {
            cond: Cond::True,
            action: Action::Emit(1),
        });
        let d = build_diagram(&rules, 2);
        d.validate().unwrap();
        assert_eq!(d.fields.len(), 2);
        assert!(d.depth() <= 2);
        // Shared subtrees: only a few distinct port-level nodes exist,
        // not one per src value.
        assert!(
            d.nodes.len() < 20,
            "expected heavy sharing, got {} nodes for 201 rules",
            d.nodes.len()
        );
        // Spot-check semantics against the tree.
        let tree = build_tree(&rules, 2);
        let mut data = vec![0u8; 64];
        for i in [0u32, 3, 77, 199, 250] {
            for port in [80u16, 81, 82, 83, 9999] {
                data[12..16].copy_from_slice(&(0x0A00_0000 | i).to_be_bytes());
                data[22..24].copy_from_slice(&port.to_be_bytes());
                assert_eq!(d.classify(&data), tree.classify(&data), "i {i} port {port}");
            }
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut lcg = click_core::Lcg::new(seed);
        move || lcg.next() as u32
    }

    /// Field layout of the generated ACLs: src net, dst net, protocol,
    /// destination port — `(offset, mask)`, word-aligned as [`Check`]
    /// requires.
    const ACL_FIELDS: [(u32, u32); 4] = [
        (24, 0xFFFF_FF00),
        (28, 0xFFFF_FF00),
        (20, 0x00FF_0000),
        (32, 0xFFFF_0000),
    ];

    /// A value of field `f` from its bounded pool (48 nets, 3 protocols,
    /// 256 ports): real ACLs reuse the same nets and ports, which is
    /// what makes subtree sharing possible.
    fn acl_field_value(next: &mut impl FnMut() -> u32, f: usize) -> u32 {
        match f {
            0 | 1 => (next() % 48) << 12,
            2 => [1u32, 6, 17][(next() % 3) as usize] << 16,
            _ => (next() % 256 + 1) << 16,
        }
    }

    /// `n` fully-specified 4-field rules plus a trailing default-allow.
    fn synthetic_acl(seed: u64, n: usize) -> Vec<Rule> {
        let mut next = lcg(seed);
        let mut rules: Vec<Rule> = (0..n)
            .map(|_| {
                let checks = (0..ACL_FIELDS.len())
                    .map(|f| {
                        let (off, mask) = ACL_FIELDS[f];
                        Cond::Check(Check::new(off, mask, acl_field_value(&mut next, f)))
                    })
                    .collect();
                let action = if next().is_multiple_of(4) {
                    Action::Drop
                } else {
                    Action::Emit((next() % 4) as usize)
                };
                Rule {
                    cond: Cond::And(checks),
                    action,
                }
            })
            .collect();
        rules.push(Rule {
            cond: Cond::True,
            action: Action::Emit(0),
        });
        rules
    }

    /// Probe frames: half plant a random rule's exact field values (a
    /// hit somewhere in the table), half sample the pools (almost always
    /// the default).
    fn acl_probes(seed: u64, rules: &[Rule], n: usize) -> Vec<Vec<u8>> {
        let mut next = lcg(seed);
        (0..n)
            .map(|_| {
                let values: Vec<u32> = if next().is_multiple_of(2) {
                    match &rules[next() as usize % (rules.len() - 1)].cond {
                        Cond::And(cs) => cs
                            .iter()
                            .map(|c| match c {
                                Cond::Check(chk) => chk.value,
                                _ => unreachable!("generated rules hold only checks"),
                            })
                            .collect(),
                        _ => unreachable!("generated rules are conjunctions"),
                    }
                } else {
                    (0..ACL_FIELDS.len())
                        .map(|f| acl_field_value(&mut next, f))
                        .collect()
                };
                let mut frame = vec![0u8; 64];
                for (&(off, _), v) in ACL_FIELDS.iter().zip(values) {
                    frame[off as usize..off as usize + 4].copy_from_slice(&v.to_be_bytes());
                }
                frame
            })
            .collect()
    }

    /// The seeded 4-field ACL at `n` rules: match depth bounded by the
    /// field count, node count no larger than `max_nodes` (what this
    /// generator yields with today's hash-consing), and agreement with
    /// the first-match decision tree on 4096 seeded frames.
    fn check_synthetic_acl(n: usize, max_nodes: usize) {
        let rules = synthetic_acl(0xAC1 + n as u64, n);
        let d = build_diagram(&rules, 4);
        d.validate().unwrap();
        assert_eq!(d.fields.len(), ACL_FIELDS.len());
        assert!(d.depth() <= 4, "{n} rules: depth {}", d.depth());
        assert!(
            d.nodes.len() <= max_nodes,
            "{n} rules: {} nodes, sharing got worse than {max_nodes}",
            d.nodes.len()
        );
        // The decision tree's own iterative walk is the reference: the
        // linked-node `TreeClassifier` recurses once per rule to build,
        // which a 10k-rule first-match chain does not survive on a test
        // thread's stack.
        let tree = build_tree(&rules, 4);
        for p in acl_probes(0xF10 + n as u64, &rules, 4096) {
            assert_eq!(d.classify(&p), tree.classify(&p), "{n} rules: {p:?}");
        }
    }

    #[test]
    fn synthetic_acl_1k_is_four_deep_shared_and_agrees_with_tree() {
        check_synthetic_acl(1_000, 1204);
    }

    #[test]
    fn synthetic_acl_10k_is_four_deep_shared_and_agrees_with_tree() {
        check_synthetic_acl(10_000, 5436);
    }

    #[test]
    fn serialization_round_trips() {
        let rules =
            parse_classifier_config("12/0806 20/0001, 12/0806 20/0002, 12/0800, -").unwrap();
        let d = build_diagram(&rules, 4);
        let text = d.to_string();
        let back: DecisionDiagram = text.parse().unwrap();
        assert_eq!(d, back);
        assert!("diag".parse::<DecisionDiagram>().is_err());
        assert!("diag x n0".parse::<DecisionDiagram>().is_err());
        // Field-order violations are rejected, not looped on.
        assert!("diag 1 n0 f 0:ff n 0:n0"
            .parse::<DecisionDiagram>()
            .is_err());
    }

    #[test]
    fn field_free_conditions_lower_to_their_value() {
        // `!true`, then an empty conjunction (true): no field to test.
        let rules = vec![
            Rule {
                cond: Cond::Not(Box::new(Cond::True)),
                action: Action::Emit(0),
            },
            Rule {
                cond: Cond::And(vec![Cond::True, Cond::And(Vec::new())]),
                action: Action::Emit(1),
            },
        ];
        let d = build_diagram(&rules, 2);
        assert_eq!(d.start, Target::Output(1));
        assert_eq!(build_diagram(&rules[..1], 2).start, Target::Drop);
    }

    #[test]
    fn negated_and_or_conditions_lower_correctly() {
        let rules = vec![
            Rule {
                cond: Cond::Or(vec![
                    Cond::Check(Check::new(0, 0xFF00_0000, 0x0100_0000)),
                    Cond::Not(Box::new(Cond::Check(Check::new(4, 0xFF, 7)))),
                ]),
                action: Action::Emit(0),
            },
            Rule {
                cond: Cond::True,
                action: Action::Emit(1),
            },
        ];
        let d = build_diagram(&rules, 2);
        let tree = build_tree(&rules, 2);
        for a in [0u8, 1, 2] {
            for b in [0u8, 7, 9] {
                let data = pkt(&[(0, a), (7, b)]);
                assert_eq!(d.classify(&data), tree.classify(&data), "a {a} b {b}");
            }
        }
    }
}
