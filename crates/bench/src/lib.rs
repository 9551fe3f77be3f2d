//! # click-bench
//!
//! Builders for every router variant of Figure 9 (Base, FC, DV, XF, All,
//! MR, MR+All, Simple) and the binaries in `src/bin/` that print the
//! paper's figures from the `click-sim` cost model. Nothing here reads a
//! clock: real-engine numbers come from the measurement spine in
//! `benchmark/` (committed as `BENCH_spine.json` and
//! `BENCH_spine_layers.json`).
//!
//! | figure/table | printed by |
//! |---|---|
//! | Figure 2 (branch predictor) | `fig02_branch_predictor` |
//! | §4 firewall (388→188 ns)    | `sec4_firewall` |
//! | Figure 8 (CPU breakdown)    | `fig08_cpu_breakdown` |
//! | Figure 9 (optimizations)    | `fig09_optimizations` |
//! | Figure 10 (forwarding rate) | `fig10_forwarding_rate` |
//! | Figure 11 (outcomes)        | `fig11_outcomes` |
//! | Figure 12 (platform MLFFR)  | `fig12_platforms` |
//! | Figure 13 (hardware evolution) | `fig13_hardware_evolution` |
//! | §8.2 microarchitecture      | `sec82_microarch` |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::ip_router::{simple_config, IpRouterSpec};
use click_opt::combine::{combine, eliminate_arp, uncombine, LinkSpec};
use click_opt::devirtualize::devirtualize;
use click_opt::fastclassifier::fastclassifier;
use click_opt::xform::{apply_patterns, ip_combo_patterns};
use std::collections::HashSet;

/// One evaluation configuration.
pub struct Variant {
    /// Display name matching Figure 9 ("Base", "FC", ..., "Simple").
    pub name: &'static str,
    /// The (transformed) configuration.
    pub graph: RouterGraph,
}

fn apply_fc(g: &mut RouterGraph) -> Result<()> {
    fastclassifier(g)?;
    Ok(())
}

fn apply_xf(g: &mut RouterGraph) -> Result<()> {
    apply_patterns(g, &ip_combo_patterns()?)?;
    Ok(())
}

fn apply_dv(g: &mut RouterGraph) -> Result<()> {
    devirtualize(g, &Library::standard(), &HashSet::new())?;
    Ok(())
}

/// Applies the multiple-router ARP elimination to an IP router: combines
/// it with a peer router across its output interfaces, removes ARP on the
/// now point-to-point links, and extracts the router back out (the
/// paper's `click-combine | click-xform | click-uncombine` chain, §7.2).
pub fn apply_mr(spec: &IpRouterSpec, g: &RouterGraph) -> Result<RouterGraph> {
    let n = spec.interfaces.len();
    // The peer router stands in for the hosts on A's output links, so its
    // linked interfaces take over those hosts' addresses — the link swap
    // is then transparent and ARP elimination preserves behavior exactly.
    let mut peer_spec = IpRouterSpec::standard(n);
    for i in n / 2..n {
        let j = i - n / 2;
        peer_spec.interfaces[j].ip = spec.interfaces[i].neighbor_ip;
        peer_spec.interfaces[j].mac = spec.interfaces[i].neighbor_mac;
        peer_spec.interfaces[j].network = spec.interfaces[i].network;
    }
    let peer = read_config(&peer_spec.config())?;
    let links: Vec<LinkSpec> = (n / 2..n)
        .map(|i| {
            LinkSpec::parse(&format!("A.eth{i} -> B.eth{}", i - n / 2)).expect("static link spec")
        })
        .collect();
    let mut combined = combine(&[("A".into(), g.clone()), ("B".into(), peer)], &links)?;
    eliminate_arp(&mut combined)?;
    uncombine(&combined, "A")
}

/// Builds every Figure-9 variant for an `n`-interface IP router.
///
/// # Errors
///
/// Propagates tool failures (none occur for the standard router).
pub fn ip_router_variants(n: usize) -> Result<Vec<Variant>> {
    let spec = IpRouterSpec::standard(n);
    let base = read_config(&spec.config())?;

    let mut fc = base.clone();
    apply_fc(&mut fc)?;

    let mut dv = base.clone();
    apply_dv(&mut dv)?;

    let mut xf = base.clone();
    apply_xf(&mut xf)?;

    let mut all = base.clone();
    apply_xf(&mut all)?;
    apply_fc(&mut all)?;
    apply_dv(&mut all)?;

    let mr = apply_mr(&spec, &base)?;

    let mut mr_all = apply_mr(&spec, &base)?;
    apply_xf(&mut mr_all)?;
    apply_fc(&mut mr_all)?;
    apply_dv(&mut mr_all)?;

    let simple = read_config(&simple_config(
        &(0..n / 2).map(|i| (i, i + n / 2)).collect::<Vec<_>>(),
        1000,
    ))?;

    Ok(vec![
        Variant {
            name: "Base",
            graph: base,
        },
        Variant {
            name: "FC",
            graph: fc,
        },
        Variant {
            name: "DV",
            graph: dv,
        },
        Variant {
            name: "XF",
            graph: xf,
        },
        Variant {
            name: "All",
            graph: all,
        },
        Variant {
            name: "MR",
            graph: mr,
        },
        Variant {
            name: "MR+All",
            graph: mr_all,
        },
        Variant {
            name: "Simple",
            graph: simple,
        },
    ])
}

/// The standard 8-interface evaluation router spec.
pub fn evaluation_spec() -> IpRouterSpec {
    IpRouterSpec::standard(8)
}

/// Parses a `--name N` flag from a bench binary's argument list; returns
/// `default` when absent.
///
/// # Panics
///
/// Panics (with a usage message) if the flag is present without a valid
/// positive integer value — bench bins want loud failures, not silently
/// ignored knobs.
pub fn flag_usize(args: &[String], name: &str, default: usize) -> usize {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or_else(|| panic!("usage: {name} <positive integer>")),
    }
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::check::check;

    #[test]
    fn all_variants_build_and_check() {
        let variants = ip_router_variants(4).unwrap();
        assert_eq!(variants.len(), 8);
        let lib = Library::standard();
        for v in &variants {
            let report = check(&v.graph, &lib);
            assert!(
                report.is_ok(),
                "variant {} fails check: {:?}",
                v.name,
                report.errors().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mr_variant_replaces_arp_queriers_on_linked_interfaces() {
        let variants = ip_router_variants(4).unwrap();
        let mr = &variants.iter().find(|v| v.name == "MR").unwrap().graph;
        // Output interfaces (2, 3) lost their queriers; input ones kept
        // theirs.
        assert!(
            mr.find("aq2").map(|id| mr.element(id).class().to_owned())
                == Some("EtherEncap".to_owned())
        );
        assert!(
            mr.find("aq0").map(|id| mr.element(id).class().to_owned())
                == Some("ARPQuerier".to_owned())
        );
    }

    #[test]
    fn all_variant_is_fully_optimized() {
        let variants = ip_router_variants(4).unwrap();
        let base = &variants.iter().find(|v| v.name == "Base").unwrap().graph;
        let all = &variants.iter().find(|v| v.name == "All").unwrap().graph;
        assert!(all.has_requirement("fastclassifier"));
        assert!(all.has_requirement("devirtualize"));
        assert!(all
            .elements()
            .any(|(_, e)| e.class().contains("IPInputCombo")));
        // XF nets -8 elements per interface (4→1 input, 6→1 output).
        assert_eq!(base.element_count() - all.element_count(), 8 * 4);
    }
}
