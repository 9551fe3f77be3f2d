//! The optimizer chain, pass by pass, timed from outside.
//!
//! `parse → check → xform → fastclassifier → devirtualize → unparse →
//! re-parse → Router::from_graph` is what a user pays between writing a
//! configuration and having the optimized router running; the re-parse
//! proves the tools' textual output is itself a valid configuration (the
//! paper's tools are Unix filters).

use crate::span::{Tracer, NO_PARENT};
use click_core::check::check;
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use click_core::registry::Library;
use click_elements::CompiledRouter;
use click_opt::devirtualize::devirtualize;
use click_opt::fastclassifier::fastclassifier;
use click_opt::xform::{apply_patterns, ip_combo_patterns};
use std::collections::HashSet;

/// Exact counts out of one run of the chain.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChainCounts {
    /// Pattern replacements `xform` applied.
    pub xform_rewrites: usize,
    /// Classifiers `fastclassifier` specialized.
    pub fastclassifier_classes: usize,
    /// Classes `devirtualize` generated.
    pub devirtualize_classes: usize,
    /// Elements in the output configuration.
    pub elements_out: usize,
}

impl ChainCounts {
    /// Adds another input's counts.
    pub fn add(&mut self, other: ChainCounts) {
        self.xform_rewrites += other.xform_rewrites;
        self.fastclassifier_classes += other.fastclassifier_classes;
        self.devirtualize_classes += other.devirtualize_classes;
        self.elements_out += other.elements_out;
    }
}

fn must_check(graph: &RouterGraph, lib: &Library) -> Result<()> {
    let report = check(graph, lib);
    if report.is_ok() {
        return Ok(());
    }
    let msgs: Vec<String> = report.errors().map(ToString::to_string).collect();
    Err(Error::check(msgs.join("; ")))
}

/// The in-memory half of the chain: XF, then FC, then DV, on `graph`.
///
/// # Errors
///
/// Whatever a pass reports.
pub fn optimize(
    graph: &mut RouterGraph,
    lib: &Library,
    tr: &mut Tracer,
    iter: u32,
) -> Result<ChainCounts> {
    let s = tr.begin("compile.xform", NO_PARENT, iter);
    let xform_rewrites = apply_patterns(graph, &ip_combo_patterns()?)?;
    tr.end(s, 0);
    let s = tr.begin("compile.fastclassifier", NO_PARENT, iter);
    let fc = fastclassifier(graph)?;
    tr.end(s, 0);
    let s = tr.begin("compile.devirtualize", NO_PARENT, iter);
    let dv = devirtualize(graph, lib, &HashSet::new())?;
    tr.end(s, 0);
    Ok(ChainCounts {
        xform_rewrites,
        fastclassifier_classes: fc.specialized.len(),
        devirtualize_classes: dv.classes.len(),
        elements_out: graph.element_count(),
    })
}

/// Runs the full chain over configuration text. Returns the re-parsed
/// output graph, the router built from it, and the counts.
///
/// # Errors
///
/// A parse failure, a `check` failure on the input or on the re-parsed
/// output, or a pass or construction failure.
pub fn compile(
    text: &str,
    tr: &mut Tracer,
    iter: u32,
) -> Result<(RouterGraph, CompiledRouter, ChainCounts)> {
    let lib = Library::standard();
    let s = tr.begin("compile.parse", NO_PARENT, iter);
    let mut graph = read_config(text)?;
    tr.end(s, 0);
    let s = tr.begin("compile.check", NO_PARENT, iter);
    must_check(&graph, &lib)?;
    tr.end(s, 0);
    let counts = optimize(&mut graph, &lib, tr, iter)?;
    let s = tr.begin("compile.unparse", NO_PARENT, iter);
    let out = write_config(&graph);
    tr.end(s, 0);
    let s = tr.begin("compile.reparse", NO_PARENT, iter);
    let again = read_config(&out)?;
    tr.end(s, 0);
    // `from_graph` runs `check` on the output before building anything.
    let s = tr.begin("compile.build", NO_PARENT, iter);
    let router = CompiledRouter::from_graph(&again, &lib)?;
    tr.end(s, 0);
    Ok((again, router, counts))
}
