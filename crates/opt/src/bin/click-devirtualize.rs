//! `click-devirtualize`: replace virtual packet transfers with direct
//! calls (paper §6.1). Apply last in any tool chain.
//!
//! Usage: `click-devirtualize [--exclude NAME]... < router.click`

use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, _) = click_opt::tool::filter_args(
        "click-devirtualize [--exclude NAME]... < router.click",
        &args,
        &["exclude"],
        &[],
    );
    let exclude: HashSet<String> = flags.into_iter().filter_map(|(_, v)| v).collect();
    click_opt::tool::run_tool("click-devirtualize", move |graph| {
        let lib = click_core::registry::Library::standard();
        let report = click_opt::devirtualize::devirtualize(graph, &lib, &exclude)?;
        Ok(format!(
            "{} specialized class(es) over {} element(s); {} excluded",
            report.classes.len(),
            report.classes.iter().map(|(_, m)| m.len()).sum::<usize>(),
            report.excluded.len()
        ))
    });
}
