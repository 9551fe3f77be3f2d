//! `click-undead` — dead code elimination for configurations (paper §6.3).
//!
//! Two transformations:
//!
//! * **switch folding** — `StaticSwitch`/`Switch` elements route all
//!   packets to one statically known output; the switch is removed, the
//!   live branch spliced through, and the dead branches disconnected;
//! * **dead-element removal** — elements that can never receive a packet
//!   (not packet sources and not forward-reachable from any packet
//!   source) are deleted. `Idle` produces nothing, so subgraphs fed only
//!   by `Idle` die; this is what makes the pass "effective ... in the
//!   presence of compound element abstractions", whose unused branches
//!   typically end in such placeholders.
//!
//! Ports orphaned by removal are re-fed from fresh `Idle` elements so the
//! result still checks clean.

use click_core::error::Result;
use click_core::graph::{ElementId, PortRef, RouterGraph};
use click_core::registry::{devirt_base, Library};
use std::collections::{HashSet, VecDeque};

/// What the pass did.
#[derive(Debug, Default)]
pub struct UndeadReport {
    /// Folded switch element names.
    pub folded_switches: Vec<String>,
    /// Removed dead element names.
    pub removed: Vec<String>,
    /// Number of placeholder `Idle` elements inserted for orphaned ports.
    pub idles_inserted: usize,
}

fn base_class(graph: &RouterGraph, id: ElementId) -> &str {
    let class = graph.element(id).class();
    devirt_base(class).unwrap_or(class)
}

/// Folds constant switches.
fn fold_switches(graph: &mut RouterGraph, report: &mut UndeadReport) {
    loop {
        let Some((id, target)) = graph.elements().find_map(|(id, decl)| {
            let base = devirt_base(decl.class()).unwrap_or(decl.class());
            if base != "Switch" && base != "StaticSwitch" {
                return None;
            }
            let k: i64 = decl.config().trim().parse().ok()?;
            Some((id, usize::try_from(k).ok()))
        }) else {
            return;
        };
        let name = graph.element(id).name().to_owned();
        let preds: Vec<PortRef> = graph.inputs_of(id).iter().map(|c| c.from).collect();
        let succs: Vec<PortRef> = match target {
            Some(k) => graph.connections_from(id, k).map(|c| c.to).collect(),
            None => Vec::new(), // negative switch: all packets dropped
        };
        graph.remove_element(id);
        if succs.is_empty() {
            // Upstream pushes must land somewhere: a Discard.
            if !preds.is_empty() {
                let d = graph.add_anon_element("Discard", "");
                for p in &preds {
                    let _ = graph.connect(*p, PortRef::new(d, 0));
                }
            }
        } else {
            for p in &preds {
                for s in &succs {
                    let _ = graph.connect(*p, *s);
                }
            }
        }
        report.folded_switches.push(name);
    }
}

/// Forward reachability from packet sources. `Idle` counts as a sink-only
/// element: it never emits, so it does not seed reachability.
fn live_set(graph: &RouterGraph, library: &Library) -> HashSet<ElementId> {
    let mut live: HashSet<ElementId> = HashSet::new();
    let mut queue: VecDeque<ElementId> = VecDeque::new();
    for (id, decl) in graph.elements() {
        let base = devirt_base(decl.class()).unwrap_or(decl.class());
        let is_source = base != "Idle" && library.resolve(base).is_some_and(|s| s.packet_source);
        let is_information = library.resolve(base).is_some_and(|s| s.information);
        if is_source || is_information {
            live.insert(id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        if base_class(graph, id) == "Idle" {
            continue; // packets die here; nothing downstream awakens
        }
        for c in graph.outputs_of(id) {
            if live.insert(c.to.element) {
                queue.push_back(c.to.element);
            }
        }
        // Pull transfers move packets downstream too, but along the same
        // edges — already covered. Pull *requests* travel upstream but
        // carry no packets.
    }
    live
}

/// Runs dead-code elimination.
///
/// # Errors
///
/// Currently infallible; returns `Result` for tool uniformity.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_core::registry::Library;
/// use click_opt::undead::undead;
///
/// // StaticSwitch(0) sends everything to the first branch; the second is
/// // dead.
/// let mut g = read_config(
///     "Idle -> Discard; \
///      InfiniteSource(10) -> s :: StaticSwitch(0); \
///      s [0] -> live :: Counter -> Discard; \
///      s [1] -> dead :: Counter -> Discard;",
/// )?;
/// let report = undead(&mut g, &Library::standard())?;
/// assert!(report.folded_switches.contains(&"s".to_string()));
/// assert!(g.find("live").is_some());
/// assert!(g.find("dead").is_none());
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn undead(graph: &mut RouterGraph, library: &Library) -> Result<UndeadReport> {
    let mut report = UndeadReport::default();
    fold_switches(graph, &mut report);

    let live = live_set(graph, library);
    let dead: Vec<ElementId> = graph
        .element_ids()
        .filter(|id| !live.contains(id))
        .collect();

    // Record ports of live elements fed by dead ones (they orphan).
    let mut orphaned: Vec<PortRef> = Vec::new();
    for &d in &dead {
        for c in graph.outputs_of(d) {
            if live.contains(&c.to.element) {
                orphaned.push(c.to);
            }
        }
    }
    for &d in &dead {
        report.removed.push(graph.element(d).name().to_owned());
        graph.remove_element(d);
    }
    report.removed.sort();

    // Re-feed orphaned input ports so port numbering stays dense and pull
    // inputs keep a source.
    orphaned.sort();
    orphaned.dedup();
    for port in orphaned {
        if graph
            .connections_to(port.element, port.port)
            .next()
            .is_none()
        {
            let idle = graph.add_anon_element("Idle", "");
            let _ = graph.connect(PortRef::new(idle, 0), port);
            report.idles_inserted += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::check::check;
    use click_core::lang::read_config;

    fn lib() -> Library {
        Library::standard()
    }

    #[test]
    fn removes_idle_fed_subgraph() {
        let mut g = read_config(
            "InfiniteSource(5) -> live :: Counter -> d1 :: Discard; \
             Idle -> dead :: Counter -> d2 :: Discard;",
        )
        .unwrap();
        let report = undead(&mut g, &lib()).unwrap();
        assert!(g.find("live").is_some());
        assert!(g.find("dead").is_none());
        assert!(g.find("d2").is_none());
        assert!(report.removed.contains(&"dead".to_owned()));
        // The Idle element itself is also unreachable-from-source.
        assert!(!g.elements().any(|(_, e)| e.class() == "Idle"));
    }

    #[test]
    fn folds_switch_to_live_branch() {
        let mut g = read_config(
            "InfiniteSource(5) -> s :: StaticSwitch(1); \
             s [0] -> a :: Counter -> Discard; \
             s [1] -> b :: Counter -> Discard;",
        )
        .unwrap();
        let report = undead(&mut g, &lib()).unwrap();
        assert_eq!(report.folded_switches, vec!["s"]);
        assert!(g.find("s").is_none());
        assert!(g.find("a").is_none(), "branch 0 is dead");
        assert!(g.find("b").is_some());
        // Source now connects directly to b.
        let b = g.find("b").unwrap();
        let ins = g.inputs_of(b);
        assert_eq!(ins.len(), 1);
        assert_eq!(g.element(ins[0].from.element).class(), "InfiniteSource");
    }

    #[test]
    fn negative_switch_discards() {
        let mut g =
            read_config("InfiniteSource(5) -> s :: Switch(-1); s [0] -> a :: Counter -> Discard;")
                .unwrap();
        undead(&mut g, &lib()).unwrap();
        assert!(g.find("s").is_none());
        assert!(g.find("a").is_none());
        // The source drains into a generated Discard.
        assert!(g.elements().any(|(_, e)| e.class() == "Discard"));
        assert!(check(&g, &lib()).is_ok());
    }

    #[test]
    fn live_elements_untouched() {
        let mut g =
            read_config("FromDevice(a) -> c :: Counter -> q :: Queue -> ToDevice(b);").unwrap();
        let report = undead(&mut g, &lib()).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(g.element_count(), 4);
    }

    #[test]
    fn orphaned_pull_input_gets_idle() {
        // The scheduler's second input is fed only from a dead branch.
        let mut g = read_config(
            "FromDevice(a) -> q1 :: Queue; q1 -> [0] s :: RoundRobinSched; \
             Idle -> deadq :: Queue; deadq -> [1] s; \
             s -> ToDevice(b);",
        )
        .unwrap();
        let report = undead(&mut g, &lib()).unwrap();
        assert!(g.find("deadq").is_none());
        assert_eq!(report.idles_inserted, 1);
        let r = check(&g, &lib());
        assert!(r.is_ok(), "{:?}", r.errors().collect::<Vec<_>>());
    }

    #[test]
    fn result_still_checks_clean_on_compound_dead_code() {
        // The paper: compound elements are "the most likely source of dead
        // code". A compound with a StaticSwitch choosing a branch by
        // argument.
        let mut g = read_config(
            "elementclass MaybeCount { $which | \
                input -> s :: StaticSwitch($which); \
                s [0] -> Counter -> output; \
                s [1] -> output; } \
             InfiniteSource(5) -> MaybeCount(1) -> Discard;",
        )
        .unwrap();
        let before = g.element_count();
        let report = undead(&mut g, &lib()).unwrap();
        assert_eq!(report.folded_switches.len(), 1);
        assert!(g.element_count() < before);
        assert!(
            !g.elements().any(|(_, e)| e.class() == "Counter"),
            "branch 0 removed"
        );
        assert!(check(&g, &lib()).is_ok());
    }

    #[test]
    fn output_reparses() {
        let mut g = read_config(
            "InfiniteSource(5) -> s :: StaticSwitch(0); \
             s [0] -> Counter -> Discard; s [1] -> Counter -> Discard;",
        )
        .unwrap();
        undead(&mut g, &lib()).unwrap();
        let text = click_core::lang::write_config(&g);
        let back = read_config(&text).unwrap();
        assert!(g.same_configuration(&back));
    }
}
