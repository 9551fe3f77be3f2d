//! `click-flatten`: compile away compound element abstractions (paper §7).
//!
//! Usage: `click-flatten < router.click`
//!
//! Parsing already elaborates compounds, so this tool is read → write.

fn main() {
    click_opt::tool::no_args("click-flatten < router.click");
    click_opt::tool::run_tool("click-flatten", |graph| {
        Ok(format!(
            "{} element(s) after flattening",
            graph.element_count()
        ))
    });
}
