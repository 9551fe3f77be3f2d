//! `click-devirtualize` — static class analysis for packet transfer
//! (paper §6.1).
//!
//! The tool replaces virtual packet-transfer calls with direct calls by
//! generating specialized element classes whose transfer targets are fixed
//! at "compile" time. Its core analysis decides which elements may *share*
//! a specialized class. Two elements cannot share code if any of:
//!
//! 1. they have different classes;
//! 2. they have different numbers of input or output ports;
//! 3. some port is push on one and pull on the other;
//! 4. at some pull input or push output port, the connected elements
//!    cannot share code, or the connections terminate at different port
//!    numbers.
//!
//! This is a coarsest-partition refinement (the same fixpoint shape as
//! DFA minimization): start from rule 1–3 equivalence and split classes
//! until rule 4 stabilizes.

use click_core::error::Result;
use click_core::graph::{ElementId, RouterGraph};
use click_core::pushpull::{resolve, PortAssignment};
use click_core::registry::{Library, DEVIRT_MARKER};
use click_core::spec::PortKind;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// What the tool did.
#[derive(Debug, Default)]
pub struct DevirtualizeReport {
    /// Generated classes: `(new class name, member element names)`.
    pub classes: Vec<(String, Vec<String>)>,
    /// Elements excluded from devirtualization.
    pub excluded: Vec<String>,
}

/// Rules 1–3: elements are equivalent if they agree on class, port counts
/// and every port's push/pull kind. Returns the partition and its number
/// of classes.
fn initial_partition(
    graph: &RouterGraph,
    ports: &PortAssignment,
) -> (HashMap<ElementId, usize>, usize) {
    let mut key_ids: HashMap<(&str, Vec<bool>, Vec<bool>), usize> = HashMap::new();
    let mut part: HashMap<ElementId, usize> = HashMap::new();
    for (id, decl) in graph.elements() {
        let pulls = |n: usize, kind: &dyn Fn(usize) -> PortKind| -> Vec<bool> {
            (0..n).map(|p| kind(p) == PortKind::Pull).collect()
        };
        let key = (
            decl.class(),
            pulls(graph.ninputs(id), &|p| ports.input(id, p)),
            pulls(graph.noutputs(id), &|p| ports.output(id, p)),
        );
        let next = key_ids.len();
        part.insert(id, *key_ids.entry(key).or_insert(next));
    }
    (part, key_ids.len())
}

/// One round of rule 4: an element's signature is its class so far plus,
/// for each *push output* and *pull input* port (the ports whose transfers
/// are compiled to direct calls), the class of the peer and the peer port
/// number. Returns the refined partition and its number of classes.
fn refine(
    graph: &RouterGraph,
    ports: &PortAssignment,
    part: &HashMap<ElementId, usize>,
) -> (HashMap<ElementId, usize>, usize) {
    let mut sig_ids: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut next_part: HashMap<ElementId, usize> = HashMap::with_capacity(part.len());
    for id in graph.element_ids() {
        // Per side: (own port, peer class, peer port), port by port, a
        // port's connections in the order they were made.
        let outs = graph.outputs_of(id).iter();
        let pushes = outs
            .filter(|c| ports.output(id, c.from.port) == PortKind::Push)
            .map(|c| [c.from.port, part[&c.to.element], c.to.port]);
        let ins = graph.inputs_of(id).iter();
        let pulls = ins
            .filter(|c| ports.input(id, c.to.port) == PortKind::Pull)
            .map(|c| [c.to.port, part[&c.from.element], c.from.port]);
        let mut sig: Vec<usize> = vec![part[&id]];
        for mut calls in [pushes.collect::<Vec<_>>(), pulls.collect()] {
            calls.sort_by_key(|call| call[0]);
            sig.push(calls.len());
            sig.extend(calls.iter().flatten());
        }
        let next = sig_ids.len();
        next_part.insert(id, *sig_ids.entry(sig).or_insert(next));
    }
    (next_part, sig_ids.len())
}

/// Computes the code-sharing partition. Returns, for each element, a
/// partition id; elements with equal ids may share a devirtualized class.
///
/// # Errors
///
/// Fails if push/pull resolution fails.
pub fn sharing_partition(
    graph: &RouterGraph,
    library: &Library,
) -> Result<HashMap<ElementId, usize>> {
    let ports = resolve(graph, library)?;
    let (mut part, mut classes) = initial_partition(graph, &ports);
    loop {
        // A signature starts with the element's current class, so a round
        // only ever splits classes: the partition is stable exactly when
        // the number of classes did not grow.
        let (next_part, next_classes) = refine(graph, &ports, &part);
        let stable = next_classes == classes;
        (part, classes) = (next_part, next_classes);
        if stable {
            return Ok(part);
        }
    }
}

/// Generates the descriptive source listing attached to the archive.
fn generate_source(graph: &RouterGraph, classes: &[(String, Vec<String>)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Generated by click-devirtualize; do not edit.");
    let _ = writeln!(s, "// One specialized class per sharing-equivalence class;");
    let _ = writeln!(s, "// packet transfers resolve to direct calls:");
    for (class, members) in classes {
        let _ = writeln!(s, "//\n// class {class} ({} element(s))", members.len());
        if let Some(first) = members.first().and_then(|n| graph.find(n)) {
            for c in graph.outputs_of(first) {
                let _ = writeln!(
                    s,
                    "//   output {}: next->{}::push({}, p)  // direct call",
                    c.from.port,
                    graph.element(c.to.element).class(),
                    c.to.port
                );
            }
        }
        for m in members {
            let _ = writeln!(s, "//   member: {m}");
        }
    }
    s
}

/// Runs `click-devirtualize`: renames each (non-excluded) element's class
/// to a specialized `Class__DVn` shared by its equivalence class, and
/// marks the configuration with the `devirtualize` requirement. The
/// runtime builds each `Class__DVn` as its base class behind the same
/// `Box<dyn Element>` as any other element; the requirement only records
/// that the pass ran.
///
/// "Click-devirtualize should be the last optimizer applied in any chain,
/// since it cements the order of elements in the configuration graph."
///
/// # Errors
///
/// Fails if the configuration's push/pull resolution fails.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_core::registry::Library;
/// use click_opt::devirtualize::devirtualize;
/// use std::collections::HashSet;
///
/// let mut g = read_config(
///     "FromDevice(a) -> c :: Counter -> Queue -> ToDevice(b);",
/// )?;
/// devirtualize(&mut g, &Library::standard(), &HashSet::new())?;
/// let c = g.find("c").unwrap();
/// assert!(g.element(c).class().starts_with("Counter__DV"));
/// assert!(g.has_requirement("devirtualize"));
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn devirtualize(
    graph: &mut RouterGraph,
    library: &Library,
    exclude: &HashSet<String>,
) -> Result<DevirtualizeReport> {
    let part = sharing_partition(graph, library)?;
    let mut report = DevirtualizeReport::default();

    // Group members by partition, skipping excluded elements and
    // already-generated classes.
    let mut groups: HashMap<usize, Vec<ElementId>> = HashMap::new();
    for (id, decl) in graph.elements() {
        if exclude.contains(decl.name()) {
            report.excluded.push(decl.name().to_owned());
            continue;
        }
        if decl.class().contains("@@") || decl.class().contains(DEVIRT_MARKER) {
            continue; // already specialized by another tool
        }
        groups.entry(part[&id]).or_default().push(id);
    }

    let mut counters: HashMap<String, usize> = HashMap::new();
    let mut ordered: Vec<(usize, Vec<ElementId>)> = groups.into_iter().collect();
    ordered.sort_by_key(|(_, members)| {
        members
            .iter()
            .map(|id| graph.element(*id).name().to_owned())
            .min()
    });
    for (_, members) in ordered {
        let base = graph.element(members[0]).class().to_owned();
        let k = counters.entry(base.clone()).or_insert(0);
        *k += 1;
        let new_class = format!("{base}{DEVIRT_MARKER}{k}");
        let names: Vec<String> = members
            .iter()
            .map(|&id| graph.element(id).name().to_owned())
            .collect();
        for &id in &members {
            graph.set_class(id, new_class.clone());
        }
        report.classes.push((new_class, names));
    }
    let source = generate_source(graph, &report.classes);
    graph.archive_mut().insert("devirtualize.rs", source);
    graph.add_requirement("devirtualize");
    Ok(report)
}

/// Convenience for tests and tools: the devirtualized class (partition
/// representative) of each element by name.
pub fn sharing_by_name(graph: &RouterGraph, library: &Library) -> Result<HashMap<String, usize>> {
    let part = sharing_partition(graph, library)?;
    Ok(part
        .into_iter()
        .map(|(id, p)| (graph.element(id).name().to_owned(), p))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;
    use click_elements::ip_router::IpRouterSpec;

    fn lib() -> Library {
        Library::standard()
    }

    const DIFFERENT_CLASSES: &str =
        "Idle -> a :: Counter -> d :: Discard; Idle -> b :: Null -> d2 :: Discard;";
    const SAME_SUCCESSOR_CLASS: &str =
        "Idle -> a :: Counter -> d1 :: Discard; Idle -> b :: Counter -> d2 :: Discard;";
    const DIFFERENT_SUCCESSORS: &str = "Idle -> a :: Counter -> Discard; \
         Idle -> b :: Counter -> Queue -> ToDevice(x);";
    const DIFFERENT_TARGET_PORTS: &str =
        "Idle -> a :: Counter -> [0] s1 :: Queue; s1 -> ToDevice(x); \
         Idle -> b :: Counter -> q0 :: Queue; q0 -> [1] rr :: RoundRobinSched; \
         Idle -> q1 :: Queue; q1 -> [0] rr; rr -> ToDevice(y);";
    const PULL_SIDE: &str = "FromDevice(a) -> q1 :: Queue; q1 -> n1 :: Null -> ToDevice(a2); \
         FromDevice(b) -> q2 :: Queue; q2 -> n2 :: Null -> ToDevice(b2); \
         FromDevice(c) -> q3 :: Queue; FromDevice(d) -> q4 :: Queue; \
         q3 -> [0] rr :: RoundRobinSched; q4 -> [1] rr; \
         rr -> n3 :: Null -> ToDevice(c2);";

    /// The stability test as first written: a round changed nothing if
    /// every pair of elements is together or apart as before.
    fn partition_by_all_pairs(graph: &RouterGraph) -> HashMap<ElementId, usize> {
        let ports = resolve(graph, &lib()).unwrap();
        let ids: Vec<ElementId> = graph.element_ids().collect();
        let (mut part, _) = initial_partition(graph, &ports);
        loop {
            let (next, _) = refine(graph, &ports, &part);
            let stable = ids.iter().all(|a| {
                ids.iter()
                    .all(|b| (part[a] == part[b]) == (next[a] == next[b]))
            });
            part = next;
            if stable {
                return part;
            }
        }
    }

    #[test]
    fn class_count_stability_gives_the_all_pairs_partition() {
        let mut configs: Vec<String> = [
            DIFFERENT_CLASSES,
            SAME_SUCCESSOR_CLASS,
            DIFFERENT_SUCCESSORS,
            DIFFERENT_TARGET_PORTS,
            PULL_SIDE,
        ]
        .map(str::to_owned)
        .into();
        configs.extend([2, 4, 16].map(|n| IpRouterSpec::standard(n).config()));
        for config in configs {
            let g = read_config(&config).unwrap();
            let part = sharing_partition(&g, &lib()).unwrap();
            assert_eq!(part, partition_by_all_pairs(&g), "{config}");
            assert!(part.values().max() > Some(&0), "one class only: {config}");
        }
    }

    #[test]
    fn different_classes_never_share() {
        let g = read_config(DIFFERENT_CLASSES).unwrap();
        let part = sharing_by_name(&g, &lib()).unwrap();
        assert_ne!(part["a"], part["b"]);
    }

    #[test]
    fn same_class_same_successor_class_shares() {
        // Two Counters, each feeding a Discard: the Discards share, so the
        // Counters share (the paper's §6.1 example).
        let g = read_config(SAME_SUCCESSOR_CLASS).unwrap();
        let part = sharing_by_name(&g, &lib()).unwrap();
        assert_eq!(part["d1"], part["d2"]);
        assert_eq!(part["a"], part["b"]);
    }

    #[test]
    fn different_successors_prevent_sharing() {
        // The paper's Figure 2 situation: same class, different targets.
        let g = read_config(DIFFERENT_SUCCESSORS).unwrap();
        let part = sharing_by_name(&g, &lib()).unwrap();
        assert_ne!(part["a"], part["b"]);
    }

    #[test]
    fn different_target_port_numbers_prevent_sharing() {
        let g = read_config(DIFFERENT_TARGET_PORTS).unwrap();
        // a pushes into a Queue at port 0; b also pushes into a Queue at
        // port 0, but the Queues differ: s1 drains to ToDevice directly,
        // q0 via a scheduler at different port — the queues still share
        // (queues have no push outputs or pull inputs), so a and b share.
        let part = sharing_by_name(&g, &lib()).unwrap();
        assert_eq!(part["a"], part["b"]);
        assert_eq!(part["s1"], part["q0"]);
    }

    #[test]
    fn pull_side_refinement() {
        // Two Null elements in pull context, pulling from queues that
        // share; they share. A third pulls from a RoundRobinSched: no.
        let g = read_config(PULL_SIDE).unwrap();
        let part = sharing_by_name(&g, &lib()).unwrap();
        assert_eq!(part["n1"], part["n2"]);
        assert_ne!(part["n1"], part["n3"]);
    }

    #[test]
    fn ip_router_interface_paths_share() {
        // "In our IP router configurations, analogous elements in
        // different interface paths can always share code."
        let spec = IpRouterSpec::standard(4);
        let g = read_config(&spec.config()).unwrap();
        let part = sharing_by_name(&g, &lib()).unwrap();
        for pair in [
            ("c0", "c1"),
            ("aq0", "aq3"),
            ("q0", "q2"),
            ("dt0", "dt1"),
            ("fr1", "fr2"),
        ] {
            assert_eq!(part[pair.0], part[pair.1], "{pair:?} should share");
        }
    }

    #[test]
    fn devirtualize_renames_and_marks() {
        let mut g = read_config(
            "Idle -> a :: Counter -> d1 :: Discard; Idle -> b :: Counter -> d2 :: Discard;",
        )
        .unwrap();
        let report = devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
        let a = g.find("a").unwrap();
        let b = g.find("b").unwrap();
        assert_eq!(g.element(a).class(), g.element(b).class());
        assert!(g.element(a).class().starts_with("Counter__DV"));
        assert!(g.has_requirement("devirtualize"));
        assert!(g.archive().get("devirtualize.rs").is_some());
        let counter_class = report
            .classes
            .iter()
            .find(|(c, _)| c.starts_with("Counter"))
            .expect("counter class");
        assert_eq!(counter_class.1.len(), 2);
    }

    #[test]
    fn exclusion_list_respected() {
        let mut g = read_config("Idle -> a :: Counter -> d :: Discard;").unwrap();
        let mut exclude = HashSet::new();
        exclude.insert("a".to_owned());
        let report = devirtualize(&mut g, &lib(), &exclude).unwrap();
        let a = g.find("a").unwrap();
        assert_eq!(g.element(a).class(), "Counter");
        assert_eq!(report.excluded, vec!["a"]);
    }

    #[test]
    fn devirtualized_config_still_validates() {
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
        let report = click_core::check::check(&g, &lib());
        assert!(report.is_ok(), "{:?}", report.errors().collect::<Vec<_>>());
    }

    #[test]
    fn devirtualize_skips_fastclassifier_output() {
        let mut g =
            read_config("Idle -> c :: Classifier(12/0800, -); c [0] -> Discard; c [1] -> Discard;")
                .unwrap();
        crate::fastclassifier::fastclassifier(&mut g).unwrap();
        let before = g.element(g.find("c").unwrap()).class().to_owned();
        devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
        let after = g.element(g.find("c").unwrap()).class().to_owned();
        assert_eq!(before, after, "generated classifier classes are left alone");
    }

    #[test]
    fn serialized_output_reparses() {
        let spec = IpRouterSpec::standard(2);
        let mut g = read_config(&spec.config()).unwrap();
        devirtualize(&mut g, &lib(), &HashSet::new()).unwrap();
        let text = click_core::lang::write_config(&g);
        let back = click_core::lang::read_config(&text).unwrap();
        assert!(g.same_configuration(&back));
    }
}
