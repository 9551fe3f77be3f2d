//! The element-class registry.
//!
//! Optimizers "don't link with element class definitions" (paper §5.1);
//! instead they consult extracted specifications — processing codes, flow
//! codes, port counts (§5.3). This module holds those specifications for
//! the standard element vocabulary, plus resolution rules for the class
//! names that tools generate (`FastClassifier@@name`, devirtualized
//! `Class__DVn`).

use crate::spec::{FlowCode, PortCount, ProcessingCode};
use std::collections::HashMap;

/// Suffix marker for devirtualized class names: `Counter__DV3`.
pub const DEVIRT_MARKER: &str = "__DV";
/// Prefix for specialized classifier class names: `FastClassifier@@c`.
pub const FASTCLASSIFIER_PREFIX: &str = "FastClassifier@@";
/// Prefix for specialized IP filter class names.
pub const FASTIPFILTER_PREFIX: &str = "FastIPFilter@@";

/// Specification of one element class, as the tools see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementClassSpec {
    /// The class name, e.g. `"Classifier"`.
    pub name: String,
    /// Permitted port counts.
    pub port_count: PortCount,
    /// Push/pull processing code.
    pub processing: ProcessingCode,
    /// Packet flow code (which inputs reach which outputs).
    pub flow: FlowCode,
    /// True if the element spontaneously produces packets (device inputs,
    /// traffic sources). Used by dead-code elimination.
    pub packet_source: bool,
    /// True if packets legitimately terminate here (device outputs,
    /// `Discard`). Used by dead-code elimination.
    pub packet_sink: bool,
    /// True for the programmable classification elements that
    /// `click-fastclassifier` specializes.
    pub classifier: bool,
    /// True for pure-information elements that never see packets
    /// (`AlignmentInfo`, `ScheduleInfo`).
    pub information: bool,
}

/// A collection of element-class specifications.
#[derive(Debug, Clone, Default)]
pub struct Library {
    classes: HashMap<String, ElementClassSpec>,
}

impl Library {
    /// An empty library.
    pub fn new() -> Library {
        Library::default()
    }

    /// The standard library: every element class shipped by this workspace.
    ///
    /// # Examples
    ///
    /// ```
    /// use click_core::registry::Library;
    ///
    /// let lib = Library::standard();
    /// let q = lib.resolve("Queue").unwrap();
    /// assert_eq!(q.processing.to_string(), "h/l");
    /// ```
    pub fn standard() -> Library {
        let mut lib = Library::new();
        for spec in standard_specs() {
            lib.insert(spec);
        }
        lib
    }

    /// Adds or replaces a class specification.
    pub fn insert(&mut self, spec: ElementClassSpec) {
        self.classes.insert(spec.name.clone(), spec);
    }

    /// Looks up a class by exact name.
    pub fn get(&self, class: &str) -> Option<&ElementClassSpec> {
        self.classes.get(class)
    }

    /// Resolves a class name, understanding tool-generated names:
    ///
    /// * `FastClassifier@@x` / `FastIPFilter@@x` resolve to a classifier
    ///   spec with the generated name;
    /// * `Class__DVn` (devirtualized) resolves to `Class`'s spec under the
    ///   generated name.
    pub fn resolve(&self, class: &str) -> Option<ElementClassSpec> {
        if let Some(spec) = self.classes.get(class) {
            return Some(spec.clone());
        }
        if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
            let base = self.classes.get("Classifier")?;
            return Some(ElementClassSpec {
                name: class.to_owned(),
                ..base.clone()
            });
        }
        if let Some(base) = devirt_base(class) {
            let spec = self.classes.get(base)?;
            return Some(ElementClassSpec {
                name: class.to_owned(),
                ..spec.clone()
            });
        }
        None
    }

    /// Iterates over all registered specs.
    pub fn iter(&self) -> impl Iterator<Item = &ElementClassSpec> {
        self.classes.values()
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns true if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// If `class` is a devirtualized name (`Counter__DV3`), returns the base
/// class name (`Counter`).
pub fn devirt_base(class: &str) -> Option<&str> {
    let idx = class.rfind(DEVIRT_MARKER)?;
    let suffix = &class[idx + DEVIRT_MARKER.len()..];
    if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
        Some(&class[..idx])
    } else {
        None
    }
}

fn spec(name: &str, ports: &str, processing: &str, flow: &str) -> ElementClassSpec {
    ElementClassSpec {
        name: name.to_owned(),
        port_count: ports.parse().expect("static port count"),
        processing: processing.parse().expect("static processing code"),
        flow: flow.parse().expect("static flow code"),
        packet_source: false,
        packet_sink: false,
        classifier: false,
        information: false,
    }
}

fn source(mut s: ElementClassSpec) -> ElementClassSpec {
    s.packet_source = true;
    s
}

fn sink(mut s: ElementClassSpec) -> ElementClassSpec {
    s.packet_sink = true;
    s
}

fn classifier(mut s: ElementClassSpec) -> ElementClassSpec {
    s.classifier = true;
    s
}

fn information(mut s: ElementClassSpec) -> ElementClassSpec {
    s.information = true;
    s
}

fn standard_specs() -> Vec<ElementClassSpec> {
    vec![
        // Device and traffic endpoints.
        source(spec("FromDevice", "0/1", "h/h", "x/y")),
        source(spec("PollDevice", "0/1", "h/h", "x/y")),
        sink(spec("ToDevice", "1/0", "l/l", "x/y")),
        source(spec("InfiniteSource", "0/1", "a/a", "x/y")),
        source(spec("RatedSource", "0/1", "h/h", "x/y")),
        source(spec("TimedSource", "0/1", "h/h", "x/y")),
        // Classification.
        classifier(spec("Classifier", "1/-", "h/h", "x/x")),
        classifier(spec("IPClassifier", "1/-", "h/h", "x/x")),
        classifier(spec("IPFilter", "1/-", "h/h", "x/x")),
        spec("HostEtherFilter", "1/1-2", "a/ah", "x/x"),
        // Paint and header manipulation.
        spec("Paint", "1/1", "a/a", "x/x"),
        spec("PaintTee", "1/1-2", "a/ah", "x/x"),
        spec("CheckPaint", "1/1-2", "a/ah", "x/x"),
        spec("Strip", "1/1", "a/a", "x/x"),
        spec("Unstrip", "1/1", "a/a", "x/x"),
        spec("CheckIPHeader", "1/1-2", "a/ah", "x/x"),
        spec("MarkIPHeader", "1/1", "a/a", "x/x"),
        spec("GetIPAddress", "1/1", "a/a", "x/x"),
        spec("SetIPAddress", "1/1", "a/a", "x/x"),
        spec("DropBroadcasts", "1/1", "a/a", "x/x"),
        spec("IPGWOptions", "1/1-2", "a/ah", "x/x"),
        spec("FixIPSrc", "1/1", "a/a", "x/x"),
        spec("DecIPTTL", "1/1-2", "a/ah", "x/x"),
        spec("IPFragmenter", "1/1-2", "h/h", "x/x"),
        spec("EtherEncap", "1/1", "a/a", "x/x"),
        // Routing and ARP.
        spec("StaticIPLookup", "1/-", "h/h", "x/x"),
        spec("LookupIPRoute", "1/-", "h/h", "x/x"),
        spec("ARPQuerier", "2/1", "h/h", "xy/x"),
        spec("ARPResponder", "1/1", "a/a", "x/x"),
        spec("ICMPError", "1/1", "h/h", "x/x"),
        spec("ICMPPingResponder", "1/1-2", "h/h", "x/x"),
        // Storage and scheduling.
        spec("Queue", "1/1", "h/l", "x/y"),
        spec("RED", "1/1", "a/a", "x/x"),
        spec("Tee", "1/-", "h/h", "x/x"),
        spec("Switch", "1/-", "h/h", "x/x"),
        spec("StaticSwitch", "1/-", "h/h", "x/x"),
        spec("StaticPullSwitch", "-/1", "l/l", "x/x"),
        spec("RoundRobinSched", "-/1", "l/l", "x/x"),
        spec("PrioSched", "-/1", "l/l", "x/x"),
        // Plumbing.
        sink(spec("Discard", "1/0", "a/a", "x/y")),
        source(sink(spec("Idle", "-/-", "a/a", "x/y"))),
        spec("Null", "1/1", "a/a", "x/x"),
        spec("Counter", "1/1", "a/a", "x/x"),
        spec("FaultInject", "1/1", "h/h", "x/x"),
        spec("Align", "1/1", "a/a", "x/x"),
        spec("RouterLink", "1/1", "l/h", "x/y"),
        spec("Unqueue", "1/1", "l/h", "x/y"),
        // Combination elements installed by click-xform (paper §6.2).
        spec("IPInputCombo", "1/1-2", "h/h", "x/x"),
        spec("IPOutputCombo", "1/1-5", "h/h", "x/x"),
        spec("EtherEncapCombo", "1/1", "a/a", "x/x"),
        // Information elements.
        information(spec("AlignmentInfo", "0/0", "a/a", "x/y")),
        information(spec("ScheduleInfo", "0/0", "a/a", "x/y")),
        information(spec("AddressInfo", "0/0", "a/a", "x/y")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PortKind;

    #[test]
    fn standard_library_is_populated() {
        let lib = Library::standard();
        assert!(lib.len() > 40);
        assert!(lib.get("Classifier").unwrap().classifier);
        assert!(lib.get("FromDevice").unwrap().packet_source);
        assert!(lib.get("Discard").unwrap().packet_sink);
        assert!(lib.get("AlignmentInfo").unwrap().information);
    }

    #[test]
    fn queue_is_push_to_pull() {
        let lib = Library::standard();
        let q = lib.get("Queue").unwrap();
        assert_eq!(q.processing.input_kind(0), PortKind::Push);
        assert_eq!(q.processing.output_kind(0), PortKind::Pull);
    }

    #[test]
    fn checkipheader_second_output_is_push() {
        let lib = Library::standard();
        let c = lib.get("CheckIPHeader").unwrap();
        assert_eq!(c.processing.output_kind(0), PortKind::Agnostic);
        assert_eq!(c.processing.output_kind(1), PortKind::Push);
        assert!(c.port_count.allows(1, 1));
        assert!(c.port_count.allows(1, 2));
        assert!(!c.port_count.allows(1, 3));
    }

    #[test]
    fn resolve_fastclassifier_names() {
        let lib = Library::standard();
        let fc = lib.resolve("FastClassifier@@c").unwrap();
        assert!(fc.classifier);
        assert_eq!(fc.name, "FastClassifier@@c");
        assert!(lib.resolve("FastIPFilter@@fw").is_some());
    }

    #[test]
    fn resolve_devirtualized_names() {
        let lib = Library::standard();
        let dv = lib.resolve("Counter__DV3").unwrap();
        assert_eq!(dv.name, "Counter__DV3");
        assert_eq!(dv.processing, lib.get("Counter").unwrap().processing);
        assert!(lib.resolve("NoSuchClass__DV1").is_none());
        assert!(lib.resolve("Counter__DVx").is_none());
    }

    #[test]
    fn devirt_base_parsing() {
        assert_eq!(devirt_base("Counter__DV3"), Some("Counter"));
        assert_eq!(devirt_base("A__DV12"), Some("A"));
        assert_eq!(devirt_base("Counter"), None);
        assert_eq!(devirt_base("Counter__DV"), None);
        assert_eq!(devirt_base("X__DV3a"), None);
    }

    #[test]
    fn unknown_class_resolves_to_none() {
        assert!(Library::standard().resolve("Bogus").is_none());
    }

    #[test]
    fn arpquerier_flow_separates_inputs() {
        // Input 0 (IP packets) flows to output 0; input 1 (ARP responses)
        // does not flow through.
        let lib = Library::standard();
        let a = lib.get("ARPQuerier").unwrap();
        assert!(a.flow.flows(0, 0));
        assert!(!a.flow.flows(1, 0));
    }
}
