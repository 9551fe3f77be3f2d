//! Shared driver for the command-line tools.
//!
//! Every optimizer is a Unix filter (paper §5): it reads router
//! configurations on standard input, analyzes and transforms them, and
//! outputs the results on standard output (paper §5), so
//! chains like
//!
//! ```text
//! click-fastclassifier < ip.click | click-xform | click-devirtualize
//! ```
//!
//! compose exactly like compiler passes.

use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use std::io::{Read as _, Write as _};

/// Reads a configuration from standard input.
///
/// # Errors
///
/// I/O or parse failures.
pub fn read_stdin_config() -> Result<RouterGraph> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| click_core::Error::graph(format!("reading stdin: {e}")))?;
    read_config(&text)
}

/// Writes a configuration to standard output.
pub fn write_stdout_config(graph: &RouterGraph) {
    let text = write_config(graph);
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Runs a whole tool: stdin → transform → stdout, with the transform's
/// summary on stderr. Exits with status 1 on error.
pub fn run_tool<F>(tool_name: &str, transform: F)
where
    F: FnOnce(&mut RouterGraph) -> Result<String>,
{
    let result = read_stdin_config().and_then(|mut graph| {
        let summary = transform(&mut graph)?;
        Ok((graph, summary))
    });
    match result {
        Ok((graph, summary)) => {
            write_stdout_config(&graph);
            if !summary.is_empty() {
                eprintln!("{tool_name}: {summary}");
            }
        }
        Err(e) => {
            eprintln!("{tool_name}: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses `--flag value`-style arguments, returning `(flags, positional)`.
/// Flags listed in `value_flags` consume the following argument.
pub fn parse_args(
    args: &[String],
    value_flags: &[&str],
) -> (Vec<(String, Option<String>)>, Vec<String>) {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if value_flags.contains(&name) && i + 1 < args.len() {
                flags.push((name.to_owned(), Some(args[i + 1].clone())));
                i += 2;
                continue;
            }
            flags.push((name.to_owned(), None));
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    (flags, positional)
}

/// `(flags, positional)` as [`parse_args`] returns them.
pub type Args = (Vec<(String, Option<String>)>, Vec<String>);

/// [`parse_args`] for a tool that names every flag it takes: any other
/// `--flag`, or a flag of `value_flags` with nothing after it, is an
/// error saying which. Flags in `switches` take no value.
///
/// # Errors
///
/// The offending flag, as a message for the user.
pub fn parse_known_args(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> std::result::Result<Args, String> {
    let (flags, positional) = parse_args(args, value_flags);
    for (name, value) in &flags {
        if value_flags.contains(&name.as_str()) {
            if value.is_none() {
                return Err(format!("--{name} requires a value"));
            }
        } else if !switches.contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok((flags, positional))
}

/// The argument parser of the filter tools: [`parse_known_args`], with a
/// refused command line answered by the complaint and `usage` on stderr
/// and exit status 2 before anything is read or written — tool
/// arguments are outside input, and a mistyped flag must not silently
/// run the default.
pub fn filter_args(usage: &str, args: &[String], value_flags: &[&str], switches: &[&str]) -> Args {
    parse_known_args(args, value_flags, switches).unwrap_or_else(|complaint| {
        eprintln!("{complaint}\nusage: {usage}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_splits_flags_and_positional() {
        let args: Vec<String> = ["--exclude", "q0", "file.click", "--verbose"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (flags, pos) = parse_args(&args, &["exclude"]);
        assert_eq!(
            flags,
            vec![
                ("exclude".to_owned(), Some("q0".to_owned())),
                ("verbose".to_owned(), None)
            ]
        );
        assert_eq!(pos, vec!["file.click"]);
    }

    #[test]
    fn value_flag_at_end_without_value() {
        let args: Vec<String> = ["--exclude"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            parse_known_args(&args, &["exclude"], &[]),
            Err("--exclude requires a value".to_owned())
        );
    }

    #[test]
    fn unknown_flag_is_refused_and_known_ones_pass() {
        let args: Vec<String> = ["--exclde", "q0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            parse_known_args(&args, &["exclude"], &["check-loops"]),
            Err("unknown flag --exclde".to_owned())
        );
        let args: Vec<String> = ["--check-loops", "--exclude", "q0", "f"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_known_args(&args, &["exclude"], &["check-loops"]),
            Ok(parse_args(&args, &["exclude"]))
        );
    }
}
