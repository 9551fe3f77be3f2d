//! `click-xform`: pattern-directed subgraph replacement (paper §6.2).
//!
//! Usage: `click-xform [PATTERN_FILE]... < router.click`
//!
//! With no pattern files, the standard IP-router combo patterns apply.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, files) = click_opt::tool::filter_args(
        "click-xform [PATTERN_FILE]... < router.click",
        &args,
        &[],
        &[],
    );
    click_opt::tool::run_tool("click-xform", move |graph| {
        let patterns = if files.is_empty() {
            click_opt::xform::ip_combo_patterns()?
        } else {
            let mut text = String::new();
            for f in &files {
                text.push_str(
                    &std::fs::read_to_string(f)
                        .map_err(|e| click_core::Error::graph(format!("reading {f}: {e}")))?,
                );
                text.push('\n');
            }
            click_opt::xform::PatternSet::parse(&text)?
        };
        let n = click_opt::xform::apply_patterns(graph, &patterns)?;
        Ok(format!("applied {n} replacement(s)"))
    });
}
