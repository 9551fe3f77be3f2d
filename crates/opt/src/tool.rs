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

/// `(flags, positional)`: each `--flag` with its value, if it takes one.
pub type Args = (Vec<(String, Option<String>)>, Vec<String>);

/// Parses the arguments of a tool that names every flag it takes:
/// `--flag value` for the flags in `value_flags`, bare `--flag` for those
/// in `switches`, anything else positional.
///
/// # Errors
///
/// The offending flag, as a message for the user: one the tool does not
/// take, or a value flag with nothing after it.
pub fn parse_known_args(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> std::result::Result<Args, String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let value = if value_flags.contains(&name) {
            let value = args
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            Some(value.clone())
        } else if switches.contains(&name) {
            None
        } else {
            return Err(format!("unknown flag --{name}"));
        };
        flags.push((name.to_owned(), value));
    }
    Ok((flags, positional))
}

/// The argument parser of every tool: [`parse_known_args`], with a
/// refused command line answered by the complaint and `usage` on stderr
/// and exit status 2 before anything is read or written — tool
/// arguments are outside input, and a mistyped flag must not silently
/// run the default.
pub fn filter_args(usage: &str, args: &[String], value_flags: &[&str], switches: &[&str]) -> Args {
    parse_known_args(args, value_flags, switches)
        .unwrap_or_else(|complaint| refuse(usage, &complaint))
}

/// The argument check of a filter that takes no arguments: any flag or
/// positional argument is [`refuse`]d, so `tool router.click` cannot
/// silently transform an empty standard input.
pub fn no_args(usage: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, positional) = filter_args(usage, &args, &[], &[]);
    if let Some(arg) = positional.first() {
        refuse(
            usage,
            &format!("unexpected argument {arg:?}: the configuration is read on stdin"),
        );
    }
}

/// Answers a refused command line: `complaint` and `usage` on stderr,
/// exit status 2.
pub fn refuse(usage: &str, complaint: &str) -> ! {
    eprintln!("{complaint}\nusage: {usage}");
    std::process::exit(2);
}

/// The value of `--flag` as a number; one that does not parse is
/// [`refuse`]d.
pub fn number<T: std::str::FromStr>(usage: &str, flag: &str, value: &Option<String>) -> T {
    let parsed = value.as_deref().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| refuse(usage, &format!("--{flag} wants a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_values_and_positional_are_split() {
        let args = strings(&["--exclude", "q0", "file.click", "--verbose"]);
        let (flags, pos) = parse_known_args(&args, &["exclude"], &["verbose"]).unwrap();
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
    fn missing_values_and_unknown_flags_are_refused() {
        assert_eq!(
            parse_known_args(&strings(&["--exclude"]), &["exclude"], &[]),
            Err("--exclude requires a value".to_owned())
        );
        assert_eq!(
            parse_known_args(
                &strings(&["--exclde", "q0"]),
                &["exclude"],
                &["check-loops"]
            ),
            Err("unknown flag --exclde".to_owned())
        );
    }
}
