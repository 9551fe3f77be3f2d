//! `click-combine`: build a multi-router configuration (paper §7.2).
//!
//! Usage: `click-combine NAME=FILE.click... --link "A.eth1 -> B.eth0"... [--check-loops]`

use click_opt::combine::{combine, LinkSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = click_opt::tool::filter_args(
        "click-combine NAME=FILE.click... --link \"A.eth1 -> B.eth0\"... [--check-loops]",
        &args,
        &["link"],
        &["check-loops"],
    );
    let check_loops = flags.iter().any(|(f, _)| f == "check-loops");
    let result = (|| -> click_core::Result<click_core::RouterGraph> {
        let mut routers = Vec::new();
        for spec in &positional {
            let (name, file) = spec.split_once('=').ok_or_else(|| {
                click_core::Error::graph(format!("router spec {spec:?} must be NAME=FILE"))
            })?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| click_core::Error::graph(format!("reading {file}: {e}")))?;
            routers.push((name.to_owned(), click_core::lang::read_config(&text)?));
        }
        let mut links = Vec::new();
        // Only `--link` carries a value.
        for v in flags.iter().filter_map(|(_, v)| v.as_deref()) {
            links.push(LinkSpec::parse(v)?);
        }
        combine(&routers, &links)
    })();
    match result {
        Ok(graph) => {
            if check_loops {
                let loops = click_opt::combine::check_loop_freedom(&graph);
                if loops.is_empty() {
                    eprintln!("click-combine: network is loop-free");
                } else {
                    for l in &loops {
                        eprintln!("click-combine: forwarding loop: {}", l.join(" -> "));
                    }
                    std::process::exit(2);
                }
            }
            click_opt::tool::write_stdout_config(&graph)
        }
        Err(e) => {
            eprintln!("click-combine: {e}");
            std::process::exit(1);
        }
    }
}
