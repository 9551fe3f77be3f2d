//! `click-combine` / `click-uncombine` — multi-router configurations
//! (paper §7.2).
//!
//! `click-combine` builds a single configuration "that encapsulates the
//! behavior of, and connections between, multiple routers": each router's
//! elements are copied under a `router/` name prefix and the
//! inter-router links become `RouterLink` elements replacing a
//! `ToDevice`/`FromDevice` pair. `click-uncombine` extracts a component
//! router back out, reconstructing its device elements from the manifest
//! the combiner stores in the configuration archive.
//!
//! The headline optimization such configurations enable — eliminating ARP
//! processing on point-to-point links ("MR" in the evaluation) — is
//! [`eliminate_arp`].

use click_core::config::split_args;
use click_core::error::{Error, Result};
use click_core::graph::{ElementId, PortRef, RouterGraph};
use click_core::registry::devirt_base;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Archive entry holding the combine manifest.
pub const MANIFEST_ENTRY: &str = "combine_manifest";

/// One inter-router link: router A's transmit device feeds router B's
/// receive device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// Name of the transmitting router.
    pub from_router: String,
    /// Its device name (`eth0`).
    pub from_device: String,
    /// Name of the receiving router.
    pub to_router: String,
    /// Its device name.
    pub to_device: String,
}

impl LinkSpec {
    /// Parses `A.eth0 -> B.eth1`.
    pub fn parse(s: &str) -> Result<LinkSpec> {
        let bad = || {
            Error::spec(format!(
                "bad link specification {s:?} (want `A.dev -> B.dev`)"
            ))
        };
        let (from, to) = s.split_once("->").ok_or_else(bad)?;
        let (fr, fd) = from.trim().split_once('.').ok_or_else(bad)?;
        let (tr, td) = to.trim().split_once('.').ok_or_else(bad)?;
        if fr.is_empty() || fd.is_empty() || tr.is_empty() || td.is_empty() {
            return Err(bad());
        }
        Ok(LinkSpec {
            from_router: fr.to_owned(),
            from_device: fd.to_owned(),
            to_router: tr.to_owned(),
            to_device: td.to_owned(),
        })
    }

    fn link_name(&self) -> String {
        format!(
            "link@{}.{}@{}.{}",
            self.from_router, self.from_device, self.to_router, self.to_device
        )
    }
}

/// Combines several routers into one configuration.
///
/// # Errors
///
/// Fails on duplicate router names or links referencing devices that do
/// not exist.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_opt::combine::{combine, LinkSpec};
///
/// let a = read_config("FromDevice(eth0) -> Queue -> ToDevice(eth1);")?;
/// let b = read_config("FromDevice(eth0) -> Queue -> ToDevice(eth1);")?;
/// let combined = combine(
///     &[("A".into(), a), ("B".into(), b)],
///     &[LinkSpec::parse("A.eth1 -> B.eth0")?],
/// )?;
/// assert!(combined.elements().any(|(_, e)| e.class() == "RouterLink"));
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn combine(routers: &[(String, RouterGraph)], links: &[LinkSpec]) -> Result<RouterGraph> {
    let mut out = RouterGraph::new();
    let mut manifest = String::new();
    let _ = writeln!(
        manifest,
        "routers {}",
        routers
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Copy every router under its prefix.
    let mut id_maps: HashMap<String, HashMap<ElementId, ElementId>> = HashMap::new();
    for (name, graph) in routers {
        if id_maps.contains_key(name) {
            return Err(Error::graph(format!("duplicate router name {name:?}")));
        }
        let mut map = HashMap::new();
        for (id, decl) in graph.elements() {
            let new = out.add_element(
                format!("{name}/{}", decl.name()),
                decl.class(),
                decl.config(),
            )?;
            map.insert(id, new);
        }
        for c in graph.connections() {
            out.connect(
                PortRef::new(map[&c.from.element], c.from.port),
                PortRef::new(map[&c.to.element], c.to.port),
            )?;
        }
        for req in graph.requirements() {
            out.add_requirement(req.clone());
        }
        id_maps.insert(name.clone(), map);
    }

    // Splice each link.
    for link in links {
        let find_device =
            |router: &str, class_match: &dyn Fn(&str) -> bool, device: &str| -> Result<ElementId> {
                out.elements()
                    .find(|(_, e)| {
                        e.name().starts_with(&format!("{router}/"))
                            && class_match(devirt_base(e.class()).unwrap_or(e.class()))
                            && split_args(e.config()).first().map(String::as_str) == Some(device)
                    })
                    .map(|(id, _)| id)
                    .ok_or_else(|| {
                        Error::graph(format!(
                            "router {router:?} has no device element for {device:?}"
                        ))
                    })
            };
        let to_dev = find_device(&link.from_router, &|c| c == "ToDevice", &link.from_device)?;
        let from_dev = find_device(
            &link.to_router,
            &|c| c == "FromDevice" || c == "PollDevice",
            &link.to_device,
        )?;
        let upstreams: Vec<PortRef> = out.inputs_of(to_dev).iter().map(|c| c.from).collect();
        let downstreams: Vec<PortRef> = out.outputs_of(from_dev).iter().map(|c| c.to).collect();
        let from_class = out.element(from_dev).class().to_owned();
        out.remove_element(to_dev);
        out.remove_element(from_dev);
        let rl = out.add_element(
            link.link_name(),
            "RouterLink",
            format!(
                "{}.{} -> {}.{}",
                link.from_router, link.from_device, link.to_router, link.to_device
            ),
        )?;
        for u in &upstreams {
            out.connect(*u, PortRef::new(rl, 0))?;
        }
        for d in &downstreams {
            out.connect(PortRef::new(rl, 0), *d)?;
        }
        let _ = writeln!(
            manifest,
            "link {} {} {} {} {} {}",
            link.link_name(),
            link.from_router,
            link.from_device,
            link.to_router,
            link.to_device,
            from_class
        );
    }
    out.archive_mut().insert(MANIFEST_ENTRY, manifest);
    Ok(out)
}

/// Extracts one component router from a combined configuration,
/// reconstructing the device elements that its links replaced.
///
/// # Errors
///
/// Fails if the configuration has no combine manifest or the router name
/// is unknown.
pub fn uncombine(combined: &RouterGraph, router: &str) -> Result<RouterGraph> {
    let manifest = combined
        .archive()
        .get(MANIFEST_ENTRY)
        .ok_or_else(|| Error::graph("configuration has no combine manifest".to_string()))?
        .to_owned();
    let known: Vec<&str> = manifest
        .lines()
        .find_map(|l| l.strip_prefix("routers "))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    if !known.contains(&router) {
        return Err(Error::graph(format!(
            "router {router:?} not in combined configuration (have {known:?})"
        )));
    }

    let prefix = format!("{router}/");
    let mut out = RouterGraph::new();
    let mut map: HashMap<ElementId, ElementId> = HashMap::new();
    for (id, decl) in combined.elements() {
        if let Some(short) = decl.name().strip_prefix(&prefix) {
            let new = out.add_element(short, decl.class(), decl.config())?;
            map.insert(id, new);
        }
    }
    for c in combined.connections() {
        if let (Some(&f), Some(&t)) = (map.get(&c.from.element), map.get(&c.to.element)) {
            out.connect(PortRef::new(f, c.from.port), PortRef::new(t, c.to.port))?;
        }
    }

    // Reconstruct device endpoints from link manifest lines:
    // `link NAME FROM_ROUTER FROM_DEV TO_ROUTER TO_DEV FROM_CLASS`.
    for line in manifest.lines() {
        let Some(rest) = line.strip_prefix("link ") else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        if f.len() != 6 {
            return Err(Error::graph(format!("malformed manifest line {line:?}")));
        }
        let (link_name, from_router, from_dev, to_router, to_dev, from_class) =
            (f[0], f[1], f[2], f[3], f[4], f[5]);
        let Some(link_id) = combined.find(link_name) else {
            continue;
        };
        if from_router == router {
            // Reattach a ToDevice where the link consumed packets.
            let td = out.add_anon_element("ToDevice", from_dev);
            for c in combined.inputs_of(link_id) {
                if let Some(&src) = map.get(&c.from.element) {
                    out.connect(PortRef::new(src, c.from.port), PortRef::new(td, 0))?;
                }
            }
        }
        if to_router == router {
            let fd = out.add_anon_element(from_class, to_dev);
            for c in combined.outputs_of(link_id) {
                if let Some(&dst) = map.get(&c.to.element) {
                    out.connect(PortRef::new(fd, 0), PortRef::new(dst, c.to.port))?;
                }
            }
        }
    }
    for req in combined.requirements() {
        out.add_requirement(req.clone());
    }
    Ok(out)
}

/// A cycle of routers found by [`check_loop_freedom`], as the sequence of
/// router names around the loop.
pub type RouterLoop = Vec<String>;

/// Checks a combined configuration for forwarding loops at the router
/// level: "the best use for combined configurations is probably to check
/// router networks for properties like loop freedom" (paper §7.2).
///
/// Builds the router-level digraph (one node per component router, one
/// edge per `RouterLink`) and returns every elementary cycle's node set
/// (each cycle reported once, as discovered by DFS).
pub fn check_loop_freedom(combined: &RouterGraph) -> Vec<RouterLoop> {
    // Edges between router namespaces, via RouterLink elements.
    let router_of =
        |name: &str| -> Option<String> { name.split_once('/').map(|(r, _)| r.to_owned()) };
    let mut edges: Vec<(String, String)> = Vec::new();
    for (id, decl) in combined.elements() {
        if devirt_base(decl.class()).unwrap_or(decl.class()) != "RouterLink" {
            continue;
        }
        let froms: Vec<String> = combined
            .inputs_of(id)
            .iter()
            .filter_map(|c| router_of(combined.element(c.from.element).name()))
            .collect();
        let tos: Vec<String> = combined
            .outputs_of(id)
            .iter()
            .filter_map(|c| router_of(combined.element(c.to.element).name()))
            .collect();
        for f in &froms {
            for t in &tos {
                if !edges.contains(&(f.clone(), t.clone())) {
                    edges.push((f.clone(), t.clone()));
                }
            }
        }
    }
    // DFS cycle detection over the small router graph.
    let mut nodes: Vec<String> = edges
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    nodes.sort();
    nodes.dedup();
    let mut loops: Vec<RouterLoop> = Vec::new();
    fn dfs(
        node: &str,
        edges: &[(String, String)],
        stack: &mut Vec<String>,
        loops: &mut Vec<RouterLoop>,
    ) {
        if let Some(pos) = stack.iter().position(|n| n == node) {
            let mut cycle: RouterLoop = stack[pos..].to_vec();
            // Canonicalize: rotate so the smallest name leads.
            if let Some(min_idx) = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| (*n).clone())
                .map(|(i, _)| i)
            {
                cycle.rotate_left(min_idx);
            }
            if !loops.contains(&cycle) {
                loops.push(cycle);
            }
            return;
        }
        stack.push(node.to_owned());
        for (f, t) in edges {
            if f == node {
                dfs(t, edges, stack, loops);
            }
        }
        stack.pop();
    }
    let mut stack = Vec::new();
    for n in &nodes {
        dfs(n, &edges, &mut stack, &mut loops);
    }
    loops
}

/// What ARP elimination did.
#[derive(Debug, Default)]
pub struct ArpEliminationReport {
    /// `(ARPQuerier name, substituted EtherEncap config)` per rewritten
    /// link endpoint.
    pub rewritten: Vec<(String, String)>,
}

/// Eliminates ARP on point-to-point links inside a combined configuration
/// (the "MR" optimization): an `ARPQuerier` whose packets flow through a
/// `RouterLink` to a peer whose `ARPResponder` advertises a fixed MAC can
/// become a constant `EtherEncap` — "there is therefore no need for an
/// ARP mechanism on that link (unless and until the configuration
/// changes)".
///
/// # Errors
///
/// Currently infallible; returns `Result` for tool uniformity.
pub fn eliminate_arp(graph: &mut RouterGraph) -> Result<ArpEliminationReport> {
    fn base(graph: &RouterGraph, e: ElementId) -> &str {
        let class = graph.element(e).class();
        devirt_base(class).unwrap_or(class)
    }
    let mut report = ArpEliminationReport::default();
    let links: Vec<ElementId> = graph
        .elements()
        .filter(|(_, e)| devirt_base(e.class()).unwrap_or(e.class()) == "RouterLink")
        .map(|(id, _)| id)
        .collect();
    for link in links {
        // Upstream: ... -> aq :: ARPQuerier -> q :: Queue -> link.
        let Some(queue) = graph
            .inputs_of(link)
            .iter()
            .map(|c| c.from.element)
            .find(|&e| base(graph, e) == "Queue")
        else {
            continue;
        };
        let Some(aq) = graph
            .inputs_of(queue)
            .iter()
            .map(|c| c.from.element)
            .find(|&e| base(graph, e) == "ARPQuerier")
        else {
            continue;
        };
        // Downstream: link -> classifier c2; c2 [0] -> ARPResponder.
        let Some(c2) = graph
            .outputs_of(link)
            .iter()
            .map(|c| c.to.element)
            .find(|&e| {
                let b = base(graph, e);
                b == "Classifier" || b == "IPClassifier"
            })
        else {
            continue;
        };
        let Some(ar2) = graph
            .connections_from(c2, 0)
            .map(|c| c.to.element)
            .find(|&e| base(graph, e) == "ARPResponder")
        else {
            continue;
        };
        // Extract MACs: ours from the querier config, the peer's from the
        // responder's advertisement.
        let aq_args = split_args(graph.element(aq).config());
        let Some(our_mac) = aq_args.get(1).cloned() else {
            continue;
        };
        let peer_entry = split_args(graph.element(ar2).config());
        let Some(peer_mac) = peer_entry
            .first()
            .and_then(|e| e.split_whitespace().nth(1))
            .map(str::to_owned)
        else {
            continue;
        };
        // Rewrite: the querier becomes a constant encapsulator; its ARP
        // reply input (port 1) is now dead and drains to a Discard.
        let aq_name = graph.element(aq).name().to_owned();
        let encap_config = format!("0x0800, {our_mac}, {peer_mac}");
        let reply_feeds: Vec<PortRef> = graph.connections_to(aq, 1).map(|c| c.from).collect();
        for &from in &reply_feeds {
            graph.disconnect(from, PortRef::new(aq, 1));
        }
        if !reply_feeds.is_empty() {
            let d = graph.add_anon_element("Discard", "");
            // Keep the new element inside the querier's router namespace
            // so uncombine extracts it too.
            if let Some((prefix, _)) = aq_name.rsplit_once('/') {
                let base = graph.element(d).name().to_owned();
                let _ = graph.rename(d, format!("{prefix}/{base}"));
            }
            for f in &reply_feeds {
                let _ = graph.connect(*f, PortRef::new(d, 0));
            }
        }
        graph.set_class(aq, "EtherEncap");
        graph.set_config(aq, encap_config.clone());
        report.rewritten.push((aq_name, encap_config));
    }
    if !report.rewritten.is_empty() {
        graph.add_requirement("arp-eliminated");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::check::check;
    use click_core::lang::read_config;
    use click_core::registry::Library;
    use click_elements::ip_router::IpRouterSpec;

    fn two_routers() -> Vec<(String, RouterGraph)> {
        let a = read_config(&IpRouterSpec::standard(2).config()).unwrap();
        let b = read_config(&IpRouterSpec::standard(2).config()).unwrap();
        vec![("A".into(), a), ("B".into(), b)]
    }

    #[test]
    fn link_spec_parsing() {
        let l = LinkSpec::parse("A.eth0 -> B.eth1").unwrap();
        assert_eq!(l.from_router, "A");
        assert_eq!(l.to_device, "eth1");
        assert!(LinkSpec::parse("nonsense").is_err());
        assert!(LinkSpec::parse("A.eth0 -> Beth1").is_err());
    }

    #[test]
    fn combine_prefixes_and_links() {
        let routers = two_routers();
        let combined = combine(&routers, &[LinkSpec::parse("A.eth1 -> B.eth0").unwrap()]).unwrap();
        // A's eth1 ToDevice and B's eth0 PollDevice are gone; one
        // RouterLink appears.
        assert!(combined.elements().all(|(_, e)| {
            !(e.name().starts_with("A/") && e.class() == "ToDevice" && e.config() == "eth1")
        }));
        assert_eq!(
            combined
                .elements()
                .filter(|(_, e)| e.class() == "RouterLink")
                .count(),
            1
        );
        assert!(combined.find("A/rt").is_some());
        assert!(combined.find("B/rt").is_some());
        assert!(combined.archive().get(MANIFEST_ENTRY).is_some());
        // The combined graph is still a checkable configuration.
        let r = check(&combined, &Library::standard());
        assert!(r.is_ok(), "{:?}", r.errors().collect::<Vec<_>>());
    }

    #[test]
    fn uncombine_round_trips_unlinked_router() {
        let routers = two_routers();
        let combined = combine(&routers, &[]).unwrap();
        let a = uncombine(&combined, "A").unwrap();
        assert!(a.same_configuration(&routers[0].1));
    }

    #[test]
    fn uncombine_restores_devices_across_link() {
        let routers = two_routers();
        let combined = combine(&routers, &[LinkSpec::parse("A.eth1 -> B.eth0").unwrap()]).unwrap();
        let a = uncombine(&combined, "A").unwrap();
        // A regains a ToDevice(eth1).
        assert!(a
            .elements()
            .any(|(_, e)| e.class() == "ToDevice" && e.config() == "eth1"));
        let r = check(&a, &Library::standard());
        assert!(r.is_ok(), "{:?}", r.errors().collect::<Vec<_>>());
        let b = uncombine(&combined, "B").unwrap();
        assert!(b
            .elements()
            .any(|(_, e)| e.class() == "PollDevice" && e.config() == "eth0"));
        assert!(check(&b, &Library::standard()).is_ok());
    }

    #[test]
    fn uncombine_unknown_router_errors() {
        let combined = combine(&two_routers(), &[]).unwrap();
        assert!(uncombine(&combined, "C").is_err());
        assert!(uncombine(&RouterGraph::new(), "A").is_err());
    }

    #[test]
    fn combine_missing_device_errors() {
        let routers = two_routers();
        assert!(combine(&routers, &[LinkSpec::parse("A.eth9 -> B.eth0").unwrap()]).is_err());
    }

    #[test]
    fn arp_elimination_on_point_to_point_link() {
        let routers = two_routers();
        let mut combined =
            combine(&routers, &[LinkSpec::parse("A.eth1 -> B.eth0").unwrap()]).unwrap();
        let report = eliminate_arp(&mut combined).unwrap();
        assert_eq!(report.rewritten.len(), 1);
        assert_eq!(report.rewritten[0].0, "A/aq1");
        // The querier became an EtherEncap carrying both MACs.
        let aq = combined.find("A/aq1").unwrap();
        assert_eq!(combined.element(aq).class(), "EtherEncap");
        let cfg = combined.element(aq).config();
        assert!(cfg.starts_with("0x0800"), "{cfg}");
        assert!(combined.has_requirement("arp-eliminated"));
        // Still checks clean.
        let r = check(&combined, &Library::standard());
        assert!(r.is_ok(), "{:?}", r.errors().collect::<Vec<_>>());
    }

    #[test]
    fn loop_freedom_detects_cycles() {
        // A -> B -> A is a forwarding loop at the router level.
        let routers = two_routers();
        let combined = combine(
            &routers,
            &[
                LinkSpec::parse("A.eth1 -> B.eth0").unwrap(),
                LinkSpec::parse("B.eth1 -> A.eth0").unwrap(),
            ],
        )
        .unwrap();
        let loops = check_loop_freedom(&combined);
        assert_eq!(loops.len(), 1, "{loops:?}");
        assert_eq!(loops[0], vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn loop_freedom_passes_acyclic_network() {
        let mut routers = two_routers();
        routers.push((
            "C".into(),
            read_config(&IpRouterSpec::standard(2).config()).unwrap(),
        ));
        let combined = combine(
            &routers,
            &[
                LinkSpec::parse("A.eth1 -> B.eth0").unwrap(),
                LinkSpec::parse("B.eth1 -> C.eth0").unwrap(),
            ],
        )
        .unwrap();
        assert!(check_loop_freedom(&combined).is_empty());
    }

    #[test]
    fn full_chain_combine_eliminate_uncombine() {
        // The paper's tool chain:
        // click-combine ... | click-xform(arp) ... | click-uncombine ...
        let routers = two_routers();
        let mut combined =
            combine(&routers, &[LinkSpec::parse("A.eth1 -> B.eth0").unwrap()]).unwrap();
        eliminate_arp(&mut combined).unwrap();
        let a = uncombine(&combined, "A").unwrap();
        assert!(
            a.elements().any(|(_, e)| e.class() == "EtherEncap"),
            "extracted router keeps the optimization"
        );
        let r = check(&a, &Library::standard());
        assert!(r.is_ok(), "{:?}", r.errors().collect::<Vec<_>>());
    }
}
