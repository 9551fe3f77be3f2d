//! `click-undead`: dead code elimination (paper §6.3).
//!
//! Usage: `click-undead < router.click`

fn main() {
    click_opt::tool::no_args("click-undead < router.click");
    click_opt::tool::run_tool("click-undead", |graph| {
        let lib = click_core::registry::Library::standard();
        let report = click_opt::undead::undead(graph, &lib)?;
        Ok(format!(
            "folded {} switch(es), removed {} element(s), inserted {} idle(s)",
            report.folded_switches.len(),
            report.removed.len(),
            report.idles_inserted
        ))
    });
}
