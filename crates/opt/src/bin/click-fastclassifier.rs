//! `click-fastclassifier`: specialize classifier elements (paper §4).
//!
//! Usage: `click-fastclassifier < router.click > optimized.click`

fn main() {
    click_opt::tool::no_args("click-fastclassifier < router.click > optimized.click");
    click_opt::tool::run_tool("click-fastclassifier", |graph| {
        let report = click_opt::fastclassifier::fastclassifier(graph)?;
        Ok(format!(
            "specialized {} classifier(s), combined {} adjacent pair(s)",
            report.specialized.len(),
            report.combined.len()
        ))
    });
}
