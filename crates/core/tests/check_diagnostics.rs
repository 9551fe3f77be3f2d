//! Exact-diagnostic tests for `click_core::check`: these pin the
//! severity, element attribution, and message text that `click-check`
//! prints (and that the hot-swap validation gate reports), so tool
//! output stays stable for scripts that grep it.

use click_core::check::{check, CheckReport, Diagnostic, Severity};
use click_core::lang::read_config;
use click_core::registry::Library;

fn report(src: &str) -> CheckReport {
    check(&read_config(src).unwrap(), &Library::standard())
}

/// Finds the one diagnostic whose message contains `needle`.
fn find<'r>(r: &'r CheckReport, needle: &str) -> &'r Diagnostic {
    let hits: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.message.contains(needle))
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one diagnostic matching {needle:?}, got {:?}",
        r.diagnostics
    );
    hits[0]
}

#[test]
fn unknown_class_names_the_element() {
    let r = report("z :: Zorp; d :: Discard; z -> d;");
    assert!(!r.is_ok());
    // The class check attributes the error to the element; the push/pull
    // resolver also fails (it cannot type an unknown class), but that
    // echo carries no element attribution.
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.message == "unknown element class \"Zorp\"")
        .unwrap_or_else(|| panic!("missing class diagnostic in {:?}", r.diagnostics));
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.element.as_deref(), Some("z"));
}

#[test]
fn port_arity_violation_states_counts_and_spec() {
    // Strip is an agnostic 1-in/1-out element; a second output violates
    // its port count.
    let r = report("Idle -> s :: Strip(14); s [0] -> d1 :: Discard; s [1] -> d2 :: Discard;");
    assert!(!r.is_ok());
    let d = find(&r, "allows");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.element.as_deref(), Some("s"));
    assert_eq!(
        d.message,
        "Strip has 1 input(s) and 2 output(s), but Strip allows 1/1"
    );
}

#[test]
fn unconnected_port_below_a_used_port_is_an_error() {
    let r = report("c :: Classifier(12/0800, -); Idle -> c; c [1] -> Discard;");
    assert!(!r.is_ok());
    let d = find(&r, "unconnected");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.element.as_deref(), Some("c"));
    assert_eq!(
        d.message,
        "output port 0 unconnected but a higher port is in use"
    );
}

#[test]
fn push_pull_conflict_names_both_endpoints() {
    // FromDevice pushes; ToDevice pulls; connecting them directly (no
    // Queue) cannot be scheduled.
    let r = report("f :: FromDevice(0); t :: ToDevice(0); f -> t;");
    assert!(!r.is_ok());
    let d = find(&r, "push/pull conflict");
    assert_eq!(d.severity, Severity::Error);
    // Resolution failures concern a connection, not a single element.
    assert_eq!(d.element, None);
    assert_eq!(
        d.message,
        "check error: push/pull conflict on connection f output port 0 -> t input port 0"
    );
}

#[test]
fn disconnected_element_is_a_named_warning() {
    let r = report("leftover :: Idle; FromDevice(0) -> Queue -> ToDevice(0);");
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "not connected");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("leftover"));
    assert_eq!(d.message, "Idle is not connected to anything");
}

#[test]
fn shadowed_route_prefix_is_a_named_warning() {
    // 10.1.2.77/24 masks to the same prefix as 10.1.2.0/24 but routes to a
    // different output; the later entry wins when the table is built.
    let r = report(
        "Idle -> rt :: LookupIPRoute(0.0.0.0/0 0, 10.1.2.0/24 1, 10.1.2.77/24 2); \
         rt [0] -> Discard; rt [1] -> Discard; rt [2] -> Discard;",
    );
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "shadowed");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("rt"));
    assert_eq!(
        d.message,
        "route 10.1.2.0/24 -> output 1 is shadowed by a later duplicate -> output 2"
    );
}

#[test]
fn duplicate_route_prefix_is_a_named_warning() {
    let r = report(
        "Idle -> rt :: StaticIPLookup(0.0.0.0/0 0, 10.0.0.0/8 1, 10.0.0.0/8 1); \
         rt [0] -> Discard; rt [1] -> Discard;",
    );
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "duplicate route");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("rt"));
    assert_eq!(d.message, "duplicate route 10.0.0.0/8 -> output 1");
}

#[test]
fn devirtualized_route_table_is_linted_as_its_base_class() {
    // `click-devirtualize` renames every Figure-1 lookup to a `__DVn`
    // class; its table is still the base element's.
    let r = report(
        "Idle -> rt :: StaticIPLookup__DV1(10.0.0.0/8 0, 10.0.0.0/8 1); \
         rt [0] -> Discard; rt [1] -> Discard;",
    );
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "shadowed");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("rt"));
    assert_eq!(
        d.message,
        "route 10.0.0.0/8 -> output 0 is shadowed by a later duplicate -> output 1"
    );
}

#[test]
fn errors_sort_before_warnings() {
    let r = report("leftover :: Idle; z :: Zorp; d :: Discard; z -> d;");
    assert!(!r.is_ok());
    let sevs: Vec<Severity> = r.diagnostics.iter().map(|d| d.severity).collect();
    let first_warning = sevs.iter().position(|&s| s == Severity::Warning);
    let last_error = sevs.iter().rposition(|&s| s == Severity::Error);
    if let (Some(w), Some(e)) = (first_warning, last_error) {
        assert!(e < w, "errors must sort before warnings: {sevs:?}");
    }
}

#[test]
fn unknown_backend_scheme_is_a_named_error() {
    let r = report("fd :: FromDevice(dpdk:eth0) -> Discard;");
    assert!(!r.is_ok());
    let d = find(&r, "unknown device backend scheme");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.element.as_deref(), Some("fd"));
    assert_eq!(
        d.message,
        "unknown device backend scheme `dpdk:` in `dpdk:eth0` \
         (known: mem, pcap, udp, tap, raw, fault)"
    );
}

#[test]
fn duplicate_device_reader_is_a_named_warning() {
    let r = report("a :: FromDevice(eth0) -> Discard; b :: FromDevice(eth0) -> Discard;");
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "already read by");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("b"));
    assert_eq!(
        d.message,
        "device `eth0` is already read by `a`: two readers split the RX \
         stream arbitrarily"
    );
}

#[test]
fn schemeless_todevice_in_real_io_config_is_a_named_warning() {
    let r = report("FromDevice(pcap:in.pcap) -> Queue(8) -> td :: ToDevice(out0);");
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    let d = find(&r, "no backend scheme");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.element.as_deref(), Some("td"));
}

#[test]
fn schemeless_devices_alone_stay_silent() {
    // Pure-simulation configs (no scheme anywhere) keep the historical
    // behavior: no device diagnostics at all.
    let r = report("FromDevice(in0) -> Queue(8) -> ToDevice(out0);");
    assert!(r.is_ok(), "{:?}", r.diagnostics);
    assert!(
        !r.diagnostics.iter().any(|d| d.message.contains("backend")),
        "{:?}",
        r.diagnostics
    );
}
