//! Configuration checking (the `click-check` tool's engine).
//!
//! Checks a flat configuration for the errors Click itself would report at
//! installation time: unknown element classes, port counts outside an
//! element's specification, unconnected ports, and push/pull violations
//! (a push output or pull input must have exactly one connection).

use crate::config::{arg_slices, parse_route, split_args, Route};
use crate::graph::{Connection, RouterGraph};
use crate::pushpull::{resolve, PortAssignment};
use crate::registry::Library;
use crate::spec::PortKind;
use std::collections::HashMap;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not fatal.
    Warning,
    /// The configuration would not run.
    Error,
}

/// One problem found in a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious.
    pub severity: Severity,
    /// The element the problem concerns, if any.
    pub element: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        match &self.element {
            Some(e) => write!(f, "{sev}: {e}: {}", self.message),
            None => write!(f, "{sev}: {}", self.message),
        }
    }
}

/// The result of checking a configuration.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All diagnostics, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// The push/pull assignment, if resolution succeeded.
    pub ports: Option<PortAssignment>,
}

impl CheckReport {
    /// True if no error-severity diagnostics were produced.
    pub fn is_ok(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Iterates over error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

fn diag(
    out: &mut Vec<Diagnostic>,
    severity: Severity,
    element: Option<&str>,
    message: impl Into<String>,
) {
    out.push(Diagnostic {
        severity,
        element: element.map(str::to_owned),
        message: message.into(),
    });
}

/// Checks a configuration against a library.
///
/// # Examples
///
/// ```
/// use click_core::check::check;
/// use click_core::lang::read_config;
/// use click_core::registry::Library;
///
/// let g = read_config("FromDevice(0) -> Queue -> ToDevice(0);")?;
/// assert!(check(&g, &Library::standard()).is_ok());
///
/// let bad = read_config("FromDevice(0) -> ToDevice(0);")?;
/// assert!(!check(&bad, &Library::standard()).is_ok());
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn check(graph: &RouterGraph, library: &Library) -> CheckReport {
    let mut ds = Vec::new();

    // Class resolution and port counts.
    for (id, decl) in graph.elements() {
        match library.resolve(decl.class()) {
            None => {
                diag(
                    &mut ds,
                    Severity::Error,
                    Some(decl.name()),
                    format!("unknown element class {:?}", decl.class()),
                );
            }
            Some(spec) => {
                let nin = graph.ninputs(id);
                let nout = graph.noutputs(id);
                if !spec.port_count.allows(nin, nout) {
                    diag(
                        &mut ds,
                        Severity::Error,
                        Some(decl.name()),
                        format!(
                            "{} has {nin} input(s) and {nout} output(s), but {} allows {}",
                            decl.class(),
                            decl.class(),
                            spec.port_count
                        ),
                    );
                }
                if spec.information && (nin > 0 || nout > 0) {
                    diag(
                        &mut ds,
                        Severity::Error,
                        Some(decl.name()),
                        format!("information element {} must not be connected", decl.class()),
                    );
                }
                // A packet element that could legally stand alone but has
                // no connections at all is almost always a leftover from
                // editing; warn (fatal under `click-check --Werror`).
                if !spec.information && nin == 0 && nout == 0 && spec.port_count.allows(0, 0) {
                    diag(
                        &mut ds,
                        Severity::Warning,
                        Some(decl.name()),
                        format!("{} is not connected to anything", decl.class()),
                    );
                }
                // Unconnected required ports.
                if nin < spec.port_count.inputs.min {
                    diag(
                        &mut ds,
                        Severity::Error,
                        Some(decl.name()),
                        format!(
                            "{} requires at least {} connected input(s)",
                            decl.class(),
                            spec.port_count.inputs.min
                        ),
                    );
                }
                if nout < spec.port_count.outputs.min {
                    diag(
                        &mut ds,
                        Severity::Error,
                        Some(decl.name()),
                        format!(
                            "{} requires at least {} connected output(s)",
                            decl.class(),
                            spec.port_count.outputs.min
                        ),
                    );
                }
            }
        }
    }

    // Port-gap check: if port 3 is used, ports 0..3 must be too.
    for (id, decl) in graph.elements() {
        let sides = [
            ("input", per_port(graph.inputs_of(id), |c| c.to.port)),
            ("output", per_port(graph.outputs_of(id), |c| c.from.port)),
        ];
        for (side, counts) in sides {
            for (p, _) in counts.iter().enumerate().filter(|(_, &n)| n == 0) {
                diag(
                    &mut ds,
                    Severity::Error,
                    Some(decl.name()),
                    format!("{side} port {p} unconnected but a higher port is in use"),
                );
            }
        }
    }

    check_route_tables(graph, &mut ds);
    check_devices(graph, &mut ds);

    // Push/pull resolution and connection-count rules.
    let ports = match resolve(graph, library) {
        Ok(pa) => {
            check_connection_counts(graph, &pa, &mut ds);
            Some(pa)
        }
        Err(e) => {
            diag(&mut ds, Severity::Error, None, e.to_string());
            None
        }
    };

    ds.sort_by_key(|d| std::cmp::Reverse(d.severity));
    CheckReport {
        diagnostics: ds,
        ports,
    }
}

/// Connections per port number, for one side of one element.
fn per_port(conns: &[Connection], port: impl Fn(&Connection) -> usize) -> Vec<usize> {
    let mut counts = Vec::new();
    for p in conns.iter().map(port) {
        if counts.len() <= p {
            counts.resize(p + 1, 0);
        }
        counts[p] += 1;
    }
    counts
}

/// Route-table lint for `StaticIPLookup` / `LookupIPRoute`: the element
/// builds its table with later duplicates overriding earlier entries, so a
/// repeated prefix is at best dead configuration and at worst (when the
/// output ports disagree) silently rewires traffic. Both cases warn.
/// Entries the element itself rejects are skipped (the install-time
/// error already covers them).
fn check_route_tables(graph: &RouterGraph, ds: &mut Vec<Diagnostic>) {
    for (_, decl) in graph.elements() {
        if !matches!(decl.class(), "StaticIPLookup" | "LookupIPRoute") {
            continue;
        }
        let entries = arg_slices(decl.config());
        let mut seen: HashMap<(u32, u8), usize> = HashMap::with_capacity(entries.len());
        for entry in entries {
            let Ok(Route {
                addr, plen, port, ..
            }) = parse_route(entry)
            else {
                continue;
            };
            let Some(prev) = seen.insert((addr, plen), port) else {
                continue;
            };
            let [a, b, c, d] = addr.to_be_bytes();
            let message = if prev != port {
                format!(
                    "route {a}.{b}.{c}.{d}/{plen} -> output {prev} is shadowed by a \
                     later duplicate -> output {port}"
                )
            } else {
                format!("duplicate route {a}.{b}.{c}.{d}/{plen} -> output {port}")
            };
            diag(ds, Severity::Warning, Some(decl.name()), message);
        }
    }
}

/// Device-name schemes the runtime's backend opener understands. Kept in
/// sync with `click_elements::iodev::BACKEND_SCHEMES` by a test over
/// there (core cannot depend on the elements crate).
pub const KNOWN_BACKEND_SCHEMES: &[&str] = &["mem", "pcap", "udp", "tap", "raw", "fault"];

/// Backend scheme of a device name (`udp:...` -> `udp`); `None` for
/// plain simulated names. Mirrors `click_elements::iodev::backend_scheme`.
fn device_scheme(name: &str) -> Option<&str> {
    let idx = name.find(':')?;
    let scheme = &name[..idx];
    if !scheme.is_empty() && scheme.bytes().all(|b| b.is_ascii_alphabetic()) {
        Some(scheme)
    } else {
        None
    }
}

/// Device lints for real-I/O configurations:
///
/// - a device name with an *unknown* backend scheme is an **error** — the
///   runtime's `open_backends` will refuse it, so the config cannot go
///   live;
/// - the same device read by two `FromDevice`/`PollDevice` elements is a
///   **warning** — both pop the same RX queue, so each sees an arbitrary
///   interleaving of the traffic (almost always a copy-paste mistake);
/// - in a configuration that uses backend schemes at all, a `ToDevice`
///   on a scheme-less device is a **warning** — its TX queue only drains
///   if a backend is attached programmatically, otherwise packets pile
///   up unsent.
fn check_devices(graph: &RouterGraph, ds: &mut Vec<Diagnostic>) {
    let mut readers: HashMap<String, String> = HashMap::new();
    let mut any_scheme = false;
    let mut schemeless_writers: Vec<(String, String)> = Vec::new();
    for (_, decl) in graph.elements() {
        let class = decl.class();
        if !matches!(class, "FromDevice" | "PollDevice" | "ToDevice") {
            continue;
        }
        let args = split_args(decl.config());
        let Some(device) = args.first().filter(|d| !d.is_empty()) else {
            continue; // the element's own config error covers this
        };
        match device_scheme(device) {
            Some(scheme) if !KNOWN_BACKEND_SCHEMES.contains(&scheme) => {
                diag(
                    ds,
                    Severity::Error,
                    Some(decl.name()),
                    format!(
                        "unknown device backend scheme `{scheme}:` in `{device}` \
                         (known: {})",
                        KNOWN_BACKEND_SCHEMES.join(", ")
                    ),
                );
                continue;
            }
            Some(_) => any_scheme = true,
            None => {}
        }
        match class {
            "FromDevice" | "PollDevice" => {
                if let Some(prev) = readers.insert(device.clone(), decl.name().to_string()) {
                    diag(
                        ds,
                        Severity::Warning,
                        Some(decl.name()),
                        format!(
                            "device `{device}` is already read by `{prev}`: two \
                             readers split the RX stream arbitrarily"
                        ),
                    );
                }
            }
            _ => {
                if device_scheme(device).is_none() {
                    schemeless_writers.push((decl.name().to_string(), device.clone()));
                }
            }
        }
    }
    if any_scheme {
        for (name, device) in schemeless_writers {
            diag(
                ds,
                Severity::Warning,
                Some(&name),
                format!(
                    "ToDevice writes `{device}`, which has no backend scheme: in \
                     this real-I/O configuration its TX queue will not drain \
                     unless a backend is attached programmatically"
                ),
            );
        }
    }
}

fn check_connection_counts(graph: &RouterGraph, pa: &PortAssignment, ds: &mut Vec<Diagnostic>) {
    for (id, decl) in graph.elements() {
        let name = Some(decl.name());
        let outs = per_port(graph.outputs_of(id), |c| c.from.port);
        for (p, &n) in outs.iter().enumerate() {
            if pa.output(id, p) == PortKind::Push && n > 1 {
                let message =
                    format!("push output port {p} has {n} connections (must have exactly 1)");
                diag(ds, Severity::Error, name, message);
            }
        }
        let ins = per_port(graph.inputs_of(id), |c| c.to.port);
        for (p, &n) in ins.iter().enumerate() {
            if pa.input(id, p) == PortKind::Pull && n > 1 {
                let message =
                    format!("pull input port {p} has {n} connections (must have exactly 1)");
                diag(ds, Severity::Error, name, message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::read_config;

    fn report(src: &str) -> CheckReport {
        check(&read_config(src).unwrap(), &Library::standard())
    }

    #[test]
    fn valid_config_passes() {
        assert!(report("FromDevice(0) -> Counter -> Queue -> ToDevice(0);").is_ok());
    }

    #[test]
    fn unknown_class_reported() {
        let r = report("Zorp -> Discard;");
        assert!(!r.is_ok());
        assert!(r
            .errors()
            .any(|d| d.message.contains("unknown element class")));
    }

    #[test]
    fn port_count_violation_reported() {
        // Strip allows exactly one output.
        let r = report("Idle -> s :: Strip(14); s [0] -> Discard; s [1] -> Discard;");
        assert!(!r.is_ok());
        assert!(r.errors().any(|d| d.message.contains("allows")));
    }

    #[test]
    fn port_gap_reported() {
        let r = report("c :: Classifier(a, b, c); Idle -> c; c [2] -> Discard;");
        assert!(r
            .errors()
            .any(|d| d.message.contains("output port 0 unconnected")));
        assert!(r
            .errors()
            .any(|d| d.message.contains("output port 1 unconnected")));
    }

    #[test]
    fn pushpull_conflict_reported() {
        let r = report("FromDevice(0) -> ToDevice(0);");
        assert!(!r.is_ok());
    }

    #[test]
    fn double_connection_on_push_output_reported() {
        let r = report("s :: FromDevice(0); s -> d1 :: Discard; s -> d2 :: Discard;");
        assert!(!r.is_ok());
        assert!(r
            .errors()
            .any(|d| d.message.contains("push output port 0 has 2 connections")));
    }

    #[test]
    fn fan_in_on_push_input_is_fine() {
        let r = report("FromDevice(0) -> q :: Queue -> ToDevice(0); FromDevice(1) -> q;");
        assert!(r.is_ok(), "{:?}", r.diagnostics);
    }

    #[test]
    fn double_connection_on_pull_input_reported() {
        let r = report(
            "FromDevice(0) -> q1 :: Queue; FromDevice(1) -> q2 :: Queue; \
             q1 -> t :: ToDevice(0); q2 -> t;",
        );
        assert!(!r.is_ok());
        assert!(r
            .errors()
            .any(|d| d.message.contains("pull input port 0 has 2 connections")));
    }

    #[test]
    fn connected_information_element_reported() {
        let r = report("Idle -> AlignmentInfo;");
        assert!(!r.is_ok());
    }

    #[test]
    fn required_ports_must_be_connected() {
        let r = report("c :: Counter;");
        assert!(!r.is_ok());
        assert!(r
            .errors()
            .any(|d| d.message.contains("requires at least 1 connected input")));
    }

    #[test]
    fn disconnected_element_warns_but_passes() {
        let r = report("i :: Idle; FromDevice(0) -> Queue -> ToDevice(0);");
        assert!(r.is_ok(), "{:?}", r.diagnostics);
        let w: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].element.as_deref(), Some("i"));
        assert!(w[0].message.contains("not connected to anything"));
    }

    #[test]
    fn route_table_lint_warns_on_duplicates_and_shadows() {
        // 10.0.0.0/8 repeats with the same port (dead entry); 10.1.2.9/24
        // masks to 10.1.2.0/24 and flips the port (silent rewire).
        let r = report(
            "Idle -> rt :: StaticIPLookup(0.0.0.0/0 0, 10.0.0.0/8 1, 10.0.0.0/8 1, \
             10.1.2.0/24 0, 10.1.2.9/24 1); rt [0] -> Discard; rt [1] -> Discard;",
        );
        assert!(r.is_ok(), "{:?}", r.diagnostics);
        let warnings: Vec<&Diagnostic> = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings
            .iter()
            .any(|d| d.message == "duplicate route 10.0.0.0/8 -> output 1"));
        assert!(warnings.iter().any(|d| d.message
            == "route 10.1.2.0/24 -> output 0 is shadowed by a later duplicate -> output 1"));
    }

    #[test]
    fn route_table_lint_accepts_clean_tables() {
        // Gateway form, host routes without /32, and distinct prefixes at
        // the same address but different lengths are all fine.
        let r = report(
            "Idle -> rt :: LookupIPRoute(0.0.0.0/0 18.26.4.1 0, 10.0.0.0/8 1, \
             10.0.0.0/16 1, 10.0.0.1 1); rt [0] -> Discard; rt [1] -> Discard;",
        );
        assert!(r.is_ok(), "{:?}", r.diagnostics);
        assert!(
            r.diagnostics.is_empty(),
            "clean table must not warn: {:?}",
            r.diagnostics
        );
    }

    #[test]
    fn route_table_lint_skips_malformed_entries() {
        // Malformed entries fail at install time; the lint stays quiet
        // rather than double-reporting.
        let r = report(
            "Idle -> rt :: StaticIPLookup(bogus, 10.0.0.0/99 0, 0.0.0.0/0 0); \
             rt [0] -> Discard;",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn diagnostics_display() {
        let r = report("Zorp -> Discard;");
        let text = r.diagnostics[0].to_string();
        assert!(text.starts_with("error:"), "{text}");
    }
}
