//! `click-align`: alignment analysis for non-x86 hosts (paper §7.1).
//!
//! Usage: `click-align < router.click`

fn main() {
    click_opt::tool::no_args("click-align < router.click");
    click_opt::tool::run_tool("click-align", |graph| {
        let report = click_opt::align::align(graph)?;
        Ok(format!(
            "inserted {} Align(s), removed {} redundant Align(s)",
            report.inserted.len(),
            report.removed.len()
        ))
    });
}
