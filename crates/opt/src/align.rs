//! `click-align` — alignment data-flow analysis (paper §7.1).
//!
//! On x86, unaligned word loads from packet data are legal; "on
//! architectures such as ARM, however, unaligned accesses crash the
//! machine". Click asks the *user* to guarantee alignment, and
//! `click-align` automates it: it "calculates the configuration's
//! expected and required packet data alignments, and inserts Align
//! elements wherever the expected and required alignments are in
//! conflict", then "removes redundant Aligns and adds an AlignmentInfo
//! element". The algorithm "was patterned after data-flow analyses in the
//! compiler literature".
//!
//! As in the paper, per-class alignment behavior is built into the tool
//! (§5.3 calls this solution "unsatisfactory" but practical).

use click_core::error::Result;
use click_core::graph::{ElementId, PortRef, RouterGraph};
use click_core::registry::devirt_base;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// A packet-data alignment guarantee: the data pointer is `offset` modulo
/// `modulus`. `modulus == 1` is the bottom element (nothing known).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alignment {
    /// The modulus (a power of two).
    pub modulus: u32,
    /// The offset within the modulus.
    pub offset: u32,
}

impl Alignment {
    /// Creates an alignment, normalizing the offset.
    pub fn new(modulus: u32, offset: u32) -> Alignment {
        assert!(
            modulus.is_power_of_two(),
            "alignment modulus must be a power of two"
        );
        Alignment {
            modulus,
            offset: offset % modulus,
        }
    }

    /// The bottom element: no guarantee.
    pub fn unknown() -> Alignment {
        Alignment {
            modulus: 1,
            offset: 0,
        }
    }

    /// The lattice meet: the strongest guarantee implied by both.
    pub fn meet(self, other: Alignment) -> Alignment {
        let mut m = self.modulus.min(other.modulus);
        while m > 1 && (self.offset % m != other.offset % m) {
            m /= 2;
        }
        Alignment::new(m, self.offset % m)
    }

    /// Shifts the data pointer forward by `n` bytes (`Strip(n)`), or
    /// backward for negative `n` (`Unstrip`/`EtherEncap`).
    pub fn shift(self, n: i64) -> Alignment {
        let m = i64::from(self.modulus);
        let off = (i64::from(self.offset) + n).rem_euclid(m) as u32;
        Alignment {
            modulus: self.modulus,
            offset: off,
        }
    }

    /// True if this guarantee satisfies requirement `req`.
    pub fn satisfies(self, req: Alignment) -> bool {
        self.modulus.is_multiple_of(req.modulus) && self.offset % req.modulus == req.offset
    }
}

impl fmt::Display for Alignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.modulus, self.offset)
    }
}

/// How an element class transforms and constrains alignment.
#[derive(Debug, Clone, Copy)]
enum Behavior {
    /// Passes alignment through unchanged.
    Through,
    /// Shifts the data pointer by a config-dependent or fixed amount.
    Shift(ShiftBy),
    /// Emits packets at a fixed alignment regardless of input.
    Generates(Alignment),
    /// `Align(modulus, offset)`: forces the configured alignment.
    AlignElement,
}

#[derive(Debug, Clone, Copy)]
enum ShiftBy {
    ConfigArg0,    // Strip(n): +n
    ConfigArg0Neg, // Unstrip(n): -n
    Fixed(i64),    // EtherEncap: -14
}

fn behavior(base: &str) -> Behavior {
    match base {
        "Strip" => Behavior::Shift(ShiftBy::ConfigArg0),
        "Unstrip" => Behavior::Shift(ShiftBy::ConfigArg0Neg),
        "EtherEncap" | "EtherEncapCombo" => Behavior::Shift(ShiftBy::Fixed(-14)),
        "ARPQuerier" => Behavior::Shift(ShiftBy::Fixed(-14)),
        // Device sources use the classic 2-byte offset so the IP header is
        // word-aligned once the Ethernet header is stripped.
        "FromDevice" | "PollDevice" | "InfiniteSource" | "RatedSource" | "TimedSource" => {
            Behavior::Generates(Alignment::new(4, 2))
        }
        // These build fresh, word-aligned packets.
        "ICMPError" | "ARPResponder" | "IPFragmenter" => Behavior::Generates(Alignment::new(4, 0)),
        "IPInputCombo" => Behavior::Shift(ShiftBy::Fixed(14)),
        "Align" => Behavior::AlignElement,
        _ => Behavior::Through,
    }
}

/// The alignment each class requires on its input, if any.
fn requirement(base: &str) -> Option<Alignment> {
    match base {
        // IP-header readers want the header word-aligned.
        "CheckIPHeader" | "IPClassifier" | "IPFilter" | "GetIPAddress" | "IPGWOptions"
        | "DecIPTTL" | "FixIPSrc" | "IPFragmenter" | "StaticIPLookup" | "LookupIPRoute"
        | "IPOutputCombo" => Some(Alignment::new(4, 0)),
        // Ethernet-level classifiers run on frames delivered with the
        // 2-byte offset.
        "Classifier" | "IPInputCombo" | "HostEtherFilter" => Some(Alignment::new(4, 2)),
        _ => None,
    }
}

fn first_int_arg(config: &str) -> Option<i64> {
    click_core::config::split_args(config)
        .first()?
        .trim()
        .parse()
        .ok()
}

fn align_config(config: &str) -> Option<Alignment> {
    let args = click_core::config::split_args(config);
    if args.len() != 2 {
        return None;
    }
    let m: u32 = args[0].trim().parse().ok()?;
    let o: u32 = args[1].trim().parse().ok()?;
    if m.is_power_of_two() && o < m {
        Some(Alignment::new(m, o))
    } else {
        None
    }
}

/// Transfers an alignment through an element.
fn transfer(graph: &RouterGraph, id: ElementId, input: Alignment) -> Alignment {
    let decl = graph.element(id);
    let base = devirt_base(decl.class()).unwrap_or(decl.class());
    match behavior(base) {
        Behavior::Through => input,
        Behavior::Shift(by) => {
            let n = match by {
                ShiftBy::ConfigArg0 => first_int_arg(decl.config()).unwrap_or(0),
                ShiftBy::ConfigArg0Neg => -first_int_arg(decl.config()).unwrap_or(0),
                ShiftBy::Fixed(n) => n,
            };
            input.shift(n)
        }
        Behavior::Generates(a) => a,
        Behavior::AlignElement => align_config(decl.config()).unwrap_or_else(Alignment::unknown),
    }
}

/// The computed alignment state of a configuration.
#[derive(Debug, Default)]
pub struct AlignmentAnalysis {
    /// Expected alignment arriving at each element input.
    pub at_input: HashMap<ElementId, Alignment>,
}

/// Runs the forward data-flow analysis to fixpoint.
pub fn analyze(graph: &RouterGraph) -> AlignmentAnalysis {
    let mut at_input: HashMap<ElementId, Alignment> = HashMap::new();
    let mut worklist: VecDeque<ElementId> = VecDeque::new();

    // Seed: packet generators.
    for (id, decl) in graph.elements() {
        let base = devirt_base(decl.class()).unwrap_or(decl.class());
        if matches!(behavior(base), Behavior::Generates(_)) {
            worklist.push_back(id);
        }
    }
    let mut guard = 0usize;
    let max_iters = (graph.element_count() + 1) * 64;
    while let Some(id) = worklist.pop_front() {
        guard += 1;
        if guard > max_iters {
            break; // oscillation guard (meet is monotone, so unreachable)
        }
        let input = at_input
            .get(&id)
            .copied()
            .unwrap_or_else(Alignment::unknown);
        let out = transfer(graph, id, input);
        for c in graph.outputs_of(id) {
            let t = c.to.element;
            let merged = match at_input.get(&t) {
                Some(&cur) => cur.meet(out),
                None => out,
            };
            if at_input.get(&t) != Some(&merged) {
                at_input.insert(t, merged);
                worklist.push_back(t);
            }
        }
    }
    AlignmentAnalysis { at_input }
}

/// What the tool did.
#[derive(Debug, Default)]
pub struct AlignReport {
    /// `(upstream element, port, requirement)` where an `Align` was
    /// inserted.
    pub inserted: Vec<(String, usize, Alignment)>,
    /// Redundant `Align` elements removed.
    pub removed: Vec<String>,
}

/// Runs `click-align`: inserts missing `Align` elements, removes
/// redundant ones, and records the final expectations in an
/// `AlignmentInfo` element.
///
/// # Errors
///
/// Currently infallible; returns `Result` for tool uniformity.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_opt::align::align;
///
///
/// let mut g = read_config(
///     "FromDevice(a) -> Strip(12) -> CheckIPHeader -> Queue -> ToDevice(b);",
/// )?;
/// let report = align(&mut g)?;
/// assert_eq!(report.inserted.len(), 1);
/// assert!(g.elements().any(|(_, e)| e.class() == "Align"));
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn align(graph: &mut RouterGraph) -> Result<AlignReport> {
    let mut report = AlignReport::default();

    // Pass 1: remove redundant Aligns (input already satisfies them).
    loop {
        let analysis = analyze(graph);
        let redundant = graph.elements().find_map(|(id, decl)| {
            if decl.class() != "Align" {
                return None;
            }
            let want = align_config(decl.config())?;
            let have = analysis.at_input.get(&id)?;
            have.satisfies(want).then_some(id)
        });
        match redundant {
            Some(id) => {
                report.removed.push(graph.element(id).name().to_owned());
                graph.splice_out(id)?;
            }
            None => break,
        }
    }

    // Pass 2: insert Aligns where expectations miss requirements.
    loop {
        let analysis = analyze(graph);
        let violation = graph.elements().find_map(|(id, decl)| {
            let base = devirt_base(decl.class()).unwrap_or(decl.class());
            let req = requirement(base)?;
            let have = analysis
                .at_input
                .get(&id)
                .copied()
                .unwrap_or_else(Alignment::unknown);
            if have.satisfies(req) {
                None
            } else {
                Some((id, req))
            }
        });
        let Some((id, req)) = violation else { break };
        // Insert one Align in front of every incoming connection target
        // port of `id`.
        let a = graph.add_anon_element("Align", format!("{}, {}", req.modulus, req.offset));
        let incoming = graph.inputs_of(id).to_vec();
        let mark = report.inserted.len();
        for c in &incoming {
            graph.disconnect(c.from, c.to);
            let _ = graph.connect(c.from, PortRef::new(a, 0));
            report.inserted.push((
                graph.element(c.from.element).name().to_owned(),
                c.from.port,
                req,
            ));
        }
        // All traffic funnels through the Align into input 0...  but the
        // element may use several input ports; re-fan to the original
        // ports requires one Align per port.
        // Simplest correct form: one Align per original target port.
        // Undo the funnel if multiple ports were involved.
        let distinct_ports: Vec<usize> = {
            let mut v: Vec<usize> = incoming.iter().map(|c| c.to.port).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        if distinct_ports.len() == 1 {
            let _ = graph.connect(PortRef::new(a, 0), PortRef::new(id, distinct_ports[0]));
        } else {
            // Remove the shared Align and insert per-port ones.
            graph.remove_element(a);
            report.inserted.truncate(mark);
            for port in distinct_ports {
                let ap =
                    graph.add_anon_element("Align", format!("{}, {}", req.modulus, req.offset));
                for c in incoming.iter().filter(|c| c.to.port == port) {
                    let _ = graph.connect(c.from, PortRef::new(ap, 0));
                    report.inserted.push((
                        graph.element(c.from.element).name().to_owned(),
                        c.from.port,
                        req,
                    ));
                }
                let _ = graph.connect(PortRef::new(ap, 0), PortRef::new(id, port));
            }
        }
    }

    // Pass 3: record the final state in an AlignmentInfo element.
    let analysis = analyze(graph);
    let mut entries: Vec<String> = graph
        .elements()
        .filter_map(|(id, decl)| {
            analysis
                .at_input
                .get(&id)
                .map(|a| format!("{} {}/{}", decl.name(), a.modulus, a.offset))
        })
        .collect();
    entries.sort();
    // Replace any existing AlignmentInfo.
    let existing: Vec<ElementId> = graph
        .elements()
        .filter(|(_, e)| e.class() == "AlignmentInfo")
        .map(|(id, _)| id)
        .collect();
    for id in existing {
        graph.remove_element(id);
    }
    graph.add_anon_element("AlignmentInfo", entries.join(", "));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::check::check;
    use click_core::lang::read_config;
    use click_core::registry::Library;
    use click_elements::ip_router::IpRouterSpec;

    #[test]
    fn alignment_lattice() {
        let a = Alignment::new(4, 2);
        let b = Alignment::new(4, 2);
        assert_eq!(a.meet(b), a);
        let c = Alignment::new(4, 0);
        assert_eq!(a.meet(c), Alignment::new(2, 0));
        let d = Alignment::new(4, 1);
        assert_eq!(a.meet(d), Alignment::new(1, 0));
        assert_eq!(a.meet(Alignment::unknown()), Alignment::unknown());
    }

    #[test]
    fn alignment_shift_wraps() {
        let a = Alignment::new(4, 2);
        assert_eq!(a.shift(14), Alignment::new(4, 0));
        assert_eq!(a.shift(-14), Alignment::new(4, 2).shift(2));
        assert_eq!(a.shift(-2), Alignment::new(4, 0));
    }

    #[test]
    fn satisfies_subsumption() {
        assert!(Alignment::new(8, 4).satisfies(Alignment::new(4, 0)));
        assert!(Alignment::new(4, 2).satisfies(Alignment::new(2, 0)));
        assert!(!Alignment::new(4, 2).satisfies(Alignment::new(4, 0)));
        assert!(!Alignment::new(2, 0).satisfies(Alignment::new(4, 0)));
    }

    #[test]
    fn ip_router_needs_no_aligns() {
        // The 2-byte device offset makes everything line up: the classic
        // design works without copies.
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        let report = align(&mut g).unwrap();
        assert!(
            report.inserted.is_empty(),
            "unexpected aligns: {:?}",
            report.inserted
        );
        assert!(g.elements().any(|(_, e)| e.class() == "AlignmentInfo"));
    }

    #[test]
    fn xformed_router_still_needs_no_aligns() {
        // The combo elements carry the same alignment behavior as the
        // chains they replace, so click-align after click-xform is also a
        // no-op on the reference router.
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        crate::xform::apply_patterns(&mut g, &crate::xform::ip_combo_patterns().unwrap()).unwrap();
        let report = align(&mut g).unwrap();
        assert!(
            report.inserted.is_empty(),
            "unexpected aligns: {:?}",
            report.inserted
        );
    }

    #[test]
    fn misaligned_strip_gets_align() {
        let mut g = read_config(
            "FromDevice(a) -> Strip(12) -> chk :: CheckIPHeader -> Queue -> ToDevice(b);",
        )
        .unwrap();
        let report = align(&mut g).unwrap();
        assert_eq!(report.inserted.len(), 1);
        let chk = g.find("chk").unwrap();
        let ins = g.inputs_of(chk);
        assert_eq!(ins.len(), 1);
        assert_eq!(g.element(ins[0].from.element).class(), "Align");
        assert_eq!(g.element(ins[0].from.element).config(), "4, 0");
        assert!(check(&g, &Library::standard()).is_ok());
    }

    #[test]
    fn redundant_align_removed() {
        let mut g = read_config(
            "FromDevice(a) -> Strip(14) -> al :: Align(4, 0) -> CheckIPHeader -> Queue -> ToDevice(b);",
        )
        .unwrap();
        let report = align(&mut g).unwrap();
        assert_eq!(report.removed, vec!["al"]);
        assert!(!g.elements().any(|(_, e)| e.class() == "Align"));
    }

    #[test]
    fn align_is_idempotent() {
        let mut g =
            read_config("FromDevice(a) -> Strip(12) -> CheckIPHeader -> Queue -> ToDevice(b);")
                .unwrap();
        align(&mut g).unwrap();
        let after_first = g.elements().filter(|(_, e)| e.class() == "Align").count();
        let report = align(&mut g).unwrap();
        assert!(report.inserted.is_empty());
        assert!(report.removed.is_empty());
        let after_second = g.elements().filter(|(_, e)| e.class() == "Align").count();
        assert_eq!(after_first, after_second);
    }

    #[test]
    fn ether_encap_shifts_backward() {
        // After EtherEncap the IP-aligned packet is at 4/2 again; a
        // Classifier (wants 4/2) is satisfied, CheckIPHeader is not.
        let mut g = read_config(
            "FromDevice(a) -> Strip(14) -> EtherEncap(0x0800, 00:00:00:00:00:01, 00:00:00:00:00:02) \
             -> c :: Classifier(12/0800, -); c [0] -> Queue -> ToDevice(b); c [1] -> Discard;",
        )
        .unwrap();
        let report = align(&mut g).unwrap();
        assert!(report.inserted.is_empty());
    }

    #[test]
    fn merge_point_takes_meet() {
        // Two producers with different alignments feeding one consumer:
        // the meet (no guarantee) forces an Align.
        let mut g = read_config(
            "FromDevice(a) -> Strip(14) -> chk :: CheckIPHeader -> Queue -> ToDevice(b); \
             FromDevice(c) -> Strip(13) -> chk;",
        )
        .unwrap();
        let report = align(&mut g).unwrap();
        assert!(!report.inserted.is_empty());
    }
}
