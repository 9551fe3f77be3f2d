//! Profile-guided optimization: the profile export format and the
//! `click-profile` pass.
//!
//! The paper's tools are static — they rewrite a configuration before it
//! runs. This module closes the static→dynamic loop (the direction
//! Morpheus takes for Click-style pipelines): the runtime's telemetry
//! layer ([`click_elements::telemetry`]) counts packets per element *and
//! per output port*, `click-report` exports those counters as a JSON
//! profile, and [`apply_profile`] feeds the profile back into the
//! configuration:
//!
//! * **Hot-branch hoisting.** A `Classifier` tests its patterns in
//!   order, so a hot pattern buried behind cold ones pays for every miss
//!   above it. The pass permutes patterns hottest-first — but only where
//!   that provably preserves semantics: a pattern may move ahead of an
//!   earlier one only if the two are *disjoint* (no packet matches
//!   both), which for conjunctive byte patterns is decidable by a
//!   byte-compare: patterns `A` and `B` are disjoint iff some check of
//!   `A` and some check of `B` overlap at an offset where
//!   `(value_A ^ value_B) & mask_A & mask_B != 0`. Patterns with negated
//!   terms or catch-alls (`-`) are treated as overlapping everything and
//!   never jumped over. Downstream connections are rewired to follow
//!   their patterns, so per-class packet counts are unchanged.
//! * **Cold-branch flagging.** Output ports that never saw a packet are
//!   reported so `click-undead` (or an operator) can prune the branch.
//!
//! The profile is plain JSON and its format is stated once: a header
//! (`version`, `source`, `shards`, `telemetry`), an `elements` array and
//! one section per gauge struct, each record written and read through
//! that struct's field table in [`click_elements::telemetry`] (key =
//! field name, in declaration order). Reading defaults a missing key,
//! ignores an unknown one and refuses one of the wrong kind; the value
//! type, parser and writer are `json.rs`.

use crate::json::{self, Json};
use click_classifier::pattern::parse_pattern;
use click_classifier::{Check, Cond};
use click_core::config::split_args;
use click_core::error::Result;
use click_core::graph::{PortRef, RouterGraph};
use click_elements::telemetry::{
    absorb, CheckpointGauges, ElementProfile, GaugeSet, Gauges, ReoptGauges, SteerGauges,
};

/// Schema version written by [`Profile::to_json`]. Version history:
///
/// * **1** — implicit: everything before the `version` field existed
///   (PR 1–7 exports carry no `version` key and parse as 1).
/// * **2** — adds `version` itself and the optional `reopt` section.
/// * **3** — adds the optional `devices` section.
/// * **4** — adds the optional `checkpoints` section.
///
/// [`Profile::from_json`] accepts any version (keys it does not know are
/// ignored, keys it misses default), so older tools keep reading newer
/// profiles and newer tools read version-less exports.
pub const PROFILE_VERSION: u32 = 4;

/// A runtime profile: one record per element instance, merged across
/// shards, plus the gauge sections of whoever produced it. Written by
/// `click-report`, `click-morph` and `click-pcap`; read by
/// `click-profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Schema version of the export ([`PROFILE_VERSION`] when produced
    /// by this build; 1 for version-less profiles from older builds).
    pub version: u32,
    /// Label of the profiled configuration (e.g. `ip-router-4`).
    pub source: String,
    /// Worker shards the profile was collected from (1 = serial).
    pub shards: usize,
    /// Whether the producing run had the telemetry switch armed (if
    /// `false`, every per-element counter is zero).
    pub telemetry: bool,
    /// Per-element records, merged across shards by element name.
    pub elements: Vec<ElementProfile>,
    /// The engine's sections, as [`Engine::gauges`] read them out; a
    /// section that is empty or `None` is not exported (`"gauges"`, the
    /// per-shard rows, always is).
    ///
    /// [`Engine::gauges`]: click_elements::engine::Engine::gauges
    pub gauges: Gauges,
    /// The `click-morph` control loop's section.
    pub reopt: Option<ReoptGauges>,
    /// The checkpoint daemon's section.
    pub checkpoints: Option<CheckpointGauges>,
}

impl Default for Profile {
    /// An empty profile stamped with the current [`PROFILE_VERSION`].
    fn default() -> Profile {
        Profile {
            version: PROFILE_VERSION,
            source: String::new(),
            shards: 0,
            telemetry: false,
            elements: Vec::new(),
            gauges: Gauges::default(),
            reopt: None,
            checkpoints: None,
        }
    }
}

/// `T`'s section as an array of records.
fn rows<T: GaugeSet>(items: &[T]) -> (&'static str, Json) {
    let records = items.iter().map(|t| Json::obj(json::record(t)));
    (T::SECTION, Json::Arr(records.collect()))
}

/// `T`'s section as one record, if there is one.
fn one<T: GaugeSet>(item: &Option<T>) -> Option<(&'static str, Json)> {
    Some((T::SECTION, Json::obj(json::record(item.as_ref()?))))
}

/// Reads `T`'s array section; absent is empty.
fn read_rows<T: GaugeSet>(v: &Json) -> Result<Vec<T>> {
    match v.get(T::SECTION) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => items.iter().map(json::read).collect(),
        Some(_) => Err(json::mistyped("profile", T::SECTION)),
    }
}

/// Reads `T`'s single-record section; absent is `None`.
fn read_one<T: GaugeSet>(v: &Json) -> Result<Option<T>> {
    v.get(T::SECTION).map(json::read).transpose()
}

impl Profile {
    /// Finds an element's record by instance name.
    pub fn element(&self, name: &str) -> Option<&ElementProfile> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// Total packets attributed across all elements (a cross-check
    /// value, not a unique-packet count: every element a packet
    /// traverses counts it once).
    pub fn total_packets(&self) -> u64 {
        self.elements.iter().map(|e| e.packets).sum()
    }

    /// Renders the profile as JSON.
    pub fn to_json(&self) -> String {
        let elements = self.elements.iter().map(|e| {
            // The one derived, export-only member: written after the
            // time it is derived from, ignored on load.
            let mut members = json::record(e);
            let time = members.iter().position(|(k, _)| *k == "self_ns");
            let rate = ("ns_per_packet", Json::Num(e.ns_per_packet()));
            members.insert(time.map_or(members.len(), |i| i + 1), rate);
            Json::obj(members)
        });
        let g = &self.gauges;
        let mut doc = vec![
            ("profile", Json::Str("click-report".into())),
            ("version", Json::Int(self.version.into())),
            ("source", Json::Str(self.source.clone())),
            ("shards", Json::Int(self.shards as u64)),
            ("telemetry", Json::Bool(self.telemetry)),
            (ElementProfile::SECTION, Json::Arr(elements.collect())),
            rows(&g.shards),
        ];
        // One record, but an array on the wire: format <= 4 readers and
        // files have it so.
        doc.extend(g.steering.map(|s| rows(&[s])));
        doc.extend((!g.devices.is_empty()).then(|| rows(&g.devices)));
        doc.extend(one(&g.faults));
        doc.extend(one(&g.swap));
        doc.extend(one(&self.reopt));
        doc.extend(one(&self.checkpoints));
        Json::obj(doc).render()
    }

    /// Parses a profile back from its JSON export. Missing keys default
    /// (so older and hand-written profiles load), unknown keys are
    /// ignored, and several `steering` rows (format <= 4 could carry one
    /// per stage) are summed into the one record.
    ///
    /// # Errors
    ///
    /// Returns [`click_core::Error::Spec`] on malformed
    /// JSON, or on a key present with a value of the wrong kind (a count
    /// that is a string, a fraction, negative), naming section and key.
    pub fn from_json(text: &str) -> Result<Profile> {
        let v = json::parse(text)?;
        let count = |key| v.member("profile", key, Json::as_u64);
        let source = v.member("profile", "source", Json::as_str)?;
        let telemetry = v.member("profile", "telemetry", Json::as_bool)?;
        let steering = read_rows::<SteerGauges>(&v)?;
        let steering = steering.into_iter().reduce(|mut sum, row| {
            absorb(&mut sum, &row);
            sum
        });
        Ok(Profile {
            // Version-less exports predate the field: they are schema 1.
            version: count("version")?.unwrap_or(1) as u32,
            source: source.unwrap_or_default().to_owned(),
            shards: count("shards")?.unwrap_or(1) as usize,
            telemetry: telemetry.unwrap_or(false),
            elements: read_rows(&v)?,
            gauges: Gauges {
                shards: read_rows(&v)?,
                steering,
                devices: read_rows(&v)?,
                faults: read_one(&v)?,
                swap: read_one(&v)?,
            },
            reopt: read_one(&v)?,
            checkpoints: read_one(&v)?,
        })
    }
}

// ---- the click-profile pass ----------------------------------------------

/// One classifier whose patterns were permuted hottest-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reordered {
    /// Element instance name.
    pub element: String,
    /// `order[new_port] = old_port`: the permutation applied to patterns
    /// and outgoing connections.
    pub order: Vec<usize>,
}

/// A classifier output port that never saw a packet in the profile —
/// a candidate for pruning with `click-undead`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdBranch {
    /// Element instance name.
    pub element: String,
    /// Output port (pattern index *before* reordering).
    pub port: usize,
    /// The pattern guarding the cold branch.
    pub pattern: String,
}

/// What [`apply_profile`] did to a configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Classifiers whose branches were reordered.
    pub reordered: Vec<Reordered>,
    /// Branches flagged cold (reported, never removed — removal is
    /// `click-undead`'s decision).
    pub cold: Vec<ColdBranch>,
    /// Classifiers present in the configuration but absent from the
    /// profile (left untouched).
    pub unprofiled: Vec<String>,
}

impl ProfileReport {
    /// One-line human summary for the tool's stderr.
    pub fn summary(&self) -> String {
        let reordered: Vec<String> = self
            .reordered
            .iter()
            .map(|r| format!("{} -> {:?}", r.element, r.order))
            .collect();
        let mut parts = vec![format!(
            "reordered {} classifier(s){}",
            self.reordered.len(),
            if reordered.is_empty() {
                String::new()
            } else {
                format!(" ({})", reordered.join(", "))
            }
        )];
        parts.push(format!(
            "{} cold branch(es) flagged for click-undead",
            self.cold.len()
        ));
        if !self.unprofiled.is_empty() {
            parts.push(format!(
                "{} classifier(s) unprofiled",
                self.unprofiled.len()
            ));
        }
        parts.join("; ")
    }
}

/// The byte checks of a purely conjunctive pattern, or `None` if the
/// pattern uses negation, alternation, or matches everything — those are
/// treated as overlapping every other pattern.
fn conjunctive_checks(cond: &Cond) -> Option<Vec<Check>> {
    match cond {
        Cond::Check(c) => Some(vec![*c]),
        Cond::And(cs) => {
            let mut out = Vec::new();
            for c in cs {
                out.extend(conjunctive_checks(c)?);
            }
            Some(out)
        }
        _ => None,
    }
}

/// True if no packet can match both patterns: some pair of checks
/// overlaps at an offset where the commonly-masked bits disagree.
fn checks_disjoint(a: &[Check], b: &[Check]) -> bool {
    a.iter().any(|ca| {
        b.iter()
            .any(|cb| ca.offset == cb.offset && (ca.value ^ cb.value) & ca.mask & cb.mask != 0)
    })
}

/// Greedy hottest-first order under the semantic constraint: a pattern
/// may be emitted before a still-unplaced, originally-earlier pattern
/// only if the two are provably disjoint. Returns `order[new] = old`.
fn hot_order(counts: &[u64], checks: &[Option<Vec<Check>>]) -> Vec<usize> {
    let disjoint = |a: usize, b: usize| match (&checks[a], &checks[b]) {
        (Some(ca), Some(cb)) => checks_disjoint(ca, cb),
        _ => false,
    };
    // `remaining` stays sorted by original index, so "originally
    // earlier" below is "appears before in `remaining`".
    let mut remaining: Vec<usize> = (0..counts.len()).collect();
    let mut order = Vec::with_capacity(counts.len());
    while !remaining.is_empty() {
        let mut best: Option<usize> = None;
        for (ri, &r) in remaining.iter().enumerate() {
            let eligible = remaining
                .iter()
                .take_while(|&&s| s != r)
                .all(|&s| disjoint(r, s));
            if !eligible {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => counts[r] > counts[remaining[b]],
            };
            if better {
                best = Some(ri);
            }
        }
        let ri = best.expect("the earliest remaining pattern is always eligible");
        order.push(remaining.remove(ri));
    }
    order
}

/// Applies a runtime profile to a configuration: hoists hot `Classifier`
/// branches first (where provably safe), rewires downstream connections
/// to follow their patterns, and flags cold branches for `click-undead`.
/// Adds a `profiled` requirement to mark the configuration as
/// profile-annotated.
///
/// Only plain `Classifier` elements are touched (the textual
/// `IPClassifier`/`IPFilter` languages and merged `FastClassifier`
/// specializations have richer semantics and are left alone).
///
/// # Errors
///
/// Returns [`click_core::Error::Spec`] if a profiled classifier's configuration
/// fails to parse.
pub fn apply_profile(graph: &mut RouterGraph, profile: &Profile) -> Result<ProfileReport> {
    let mut report = ProfileReport::default();
    let ids: Vec<_> = graph.element_ids().collect();
    for id in ids {
        let decl = graph.element(id);
        if decl.class() != "Classifier" {
            continue;
        }
        let name = decl.name().to_owned();
        let config = decl.config().to_owned();
        let Some(prof) = profile.element(&name) else {
            report.unprofiled.push(name);
            continue;
        };
        let patterns: Vec<String> = split_args(&config)
            .iter()
            .map(|p| p.trim().to_owned())
            .collect();
        let n = patterns.len();
        let counts: Vec<u64> = (0..n)
            .map(|p| prof.out_ports.get(p).copied().unwrap_or(0))
            .collect();
        for (port, &c) in counts.iter().enumerate() {
            if c == 0 {
                report.cold.push(ColdBranch {
                    element: name.clone(),
                    port,
                    pattern: patterns[port].clone(),
                });
            }
        }
        if n <= 1 {
            continue;
        }
        let checks: Vec<Option<Vec<Check>>> = patterns
            .iter()
            .map(|p| Ok(conjunctive_checks(&parse_pattern(p)?)))
            .collect::<Result<_>>()?;
        let order = hot_order(&counts, &checks);
        if order.iter().enumerate().all(|(i, &o)| i == o) {
            continue;
        }
        // Rewrite the pattern list and rewire each output's connections
        // to follow its pattern to the new port number.
        graph.set_config(id, patterns_config(&patterns, &order));
        let mut rewires: Vec<(PortRef, PortRef)> = Vec::new();
        for (new_port, &old_port) in order.iter().enumerate() {
            for c in graph.connections_from(id, old_port) {
                rewires.push((PortRef::new(id, new_port), c.to));
            }
        }
        for c in graph.outputs_of(id).to_vec() {
            if c.from.port < n {
                graph.disconnect(c.from, c.to);
            }
        }
        for (from, to) in rewires {
            let _ = graph.connect(from, to);
        }
        report.reordered.push(Reordered {
            element: name,
            order,
        });
    }
    if !report.reordered.is_empty() || !report.cold.is_empty() {
        graph.add_requirement("profiled");
    }
    Ok(report)
}

fn patterns_config(patterns: &[String], order: &[usize]) -> String {
    order
        .iter()
        .map(|&o| patterns[o].as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;
    use click_elements::telemetry::{
        DeviceGauges, FaultGauges, ShardGauges, SwapGauges, Value, LATENCY_BUCKETS,
    };

    fn profile_for(name: &str, out_ports: Vec<u64>) -> Profile {
        let mut e = ElementProfile::new(name, "Classifier");
        e.out_ports = out_ports;
        e.packets = e.out_ports.iter().sum();
        Profile {
            source: "test".into(),
            shards: 1,
            telemetry: true,
            elements: vec![e],
            ..Profile::default()
        }
    }

    /// A `T` with every table field set to a distinct non-default value
    /// (numbered from `*next` on; labels carry every escape the writer
    /// has).
    fn filled<T: GaugeSet>(next: &mut u64) -> T {
        let mut t = T::default();
        for f in T::FIELDS {
            *next += 1;
            let label = format!("{} \"{}\"\\\t\r\n\u{1}é #{next}", T::NAME, f.key);
            let stored = match (f.get)(&t) {
                Value::U64(_) => (f.set)(&mut t, Value::U64(*next)),
                Value::Str(_) => (f.set)(&mut t, Value::Str(&label)),
                Value::U64s(_) => (f.set)(&mut t, Value::U64s(&[*next, 0, *next + 1])),
            };
            assert!(stored, "{}.{} refuses its own kind", T::NAME, f.key);
        }
        t
    }

    /// The one round-trip test: every field of every section, through the
    /// table, so a field added to a gauge struct is covered by declaring
    /// it.
    #[test]
    fn every_field_of_every_section_round_trips() {
        let n = &mut 0;
        let p = Profile {
            version: PROFILE_VERSION,
            source: "every \"section\"".into(),
            shards: 4,
            telemetry: true,
            elements: vec![filled(n), filled(n)],
            gauges: Gauges {
                shards: vec![filled::<ShardGauges>(n), filled(n)],
                steering: Some(filled(n)),
                devices: vec![filled::<DeviceGauges>(n), filled(n)],
                faults: Some(filled::<FaultGauges>(n)),
                swap: Some(filled::<SwapGauges>(n)),
            },
            reopt: Some(filled(n)),
            checkpoints: Some(filled(n)),
        };
        let json = p.to_json();
        assert_eq!(Profile::from_json(&json).unwrap(), p, "{json}");
        // An empty profile round-trips too, with no optional section.
        let empty = Profile::default();
        let json = empty.to_json();
        assert!(
            json.ends_with("\"elements\": [\n  ],\n  \"gauges\": [\n  ]\n}\n"),
            "{json}"
        );
        assert_eq!(Profile::from_json(&json).unwrap(), empty);
    }

    #[test]
    fn old_and_hand_written_profiles_load() {
        // A version-less (pre-PR-8) export is schema 1, every later
        // section defaulted.
        let old = Profile::from_json(
            "{\"profile\": \"click-report\", \"source\": \"legacy\", \
             \"shards\": 4, \"telemetry\": true, \"elements\": []}",
        )
        .unwrap();
        assert_eq!(
            (old.version, old.source.as_str(), old.shards),
            (1, "legacy", 4)
        );
        assert!(old.telemetry);
        assert_eq!(old.gauges, Gauges::default());
        assert_eq!((old.reopt, old.checkpoints), (None, None));
        // Keys this build no longer knows are ignored: the retired
        // `autotune_runs`, and the `steerer`/`snoozes` of a format <= 4
        // steering row — whose several rows sum into the one record.
        let v4 = Profile::from_json(
            "{\"reopt\": {\"recompiles\": 2, \"autotune_runs\": 0}, \"steering\": [\
             {\"steerer\": 0, \"batches\": 12, \"packets\": 96, \"steer_ns\": 4800, \"snoozes\": 2},\
             {\"steerer\": 1, \"batches\": 11, \"packets\": 88, \"steer_ns\": 4100, \"snoozes\": 0}]}",
        )
        .unwrap();
        assert_eq!(v4.reopt.unwrap().recompiles, 2);
        let steering = v4.gauges.steering.unwrap();
        assert_eq!(
            (steering.batches, steering.packets, steering.steer_ns),
            (23, 184, 8900)
        );
    }

    #[test]
    fn parser_tolerates_missing_fields() {
        let p = Profile::from_json("{\"elements\": [{\"name\": \"x\"}]}").unwrap();
        assert_eq!(p.shards, 1);
        assert_eq!(p.elements.len(), 1);
        assert_eq!(p.elements[0].packets, 0);
    }

    #[test]
    fn counters_load_exactly_and_mistyped_fields_are_refused() {
        // Above 2^53 a float no longer holds every integer.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let mut e = ElementProfile::new("big", "Counter");
            e.bytes = n;
            e.lat_buckets[LATENCY_BUCKETS - 1] = n;
            let p = Profile {
                elements: vec![e],
                ..Profile::default()
            };
            let json = p.to_json();
            assert!(json.contains(&format!("\"bytes\": {n},")), "{json}");
            assert_eq!(Profile::from_json(&json).unwrap().elements, p.elements);
        }
        // Present but of the wrong kind: refused, naming section and key.
        for (text, section, key) in [
            (
                "{\"elements\": [{\"packets\": \"many\"}]}",
                "elements",
                "packets",
            ),
            (
                "{\"elements\": [{\"packets\": 1.5}]}",
                "elements",
                "packets",
            ),
            (
                "{\"elements\": [{\"out_ports\": [1, 1e3]}]}",
                "elements",
                "out_ports",
            ),
            ("{\"elements\": [{\"name\": 7}]}", "elements", "name"),
            ("{\"swap\": {\"swaps\": -1}}", "swap", "swaps"),
            // 2^64: an integer token, but not a count.
            (
                "{\"swap\": {\"swaps\": 18446744073709551616}}",
                "swap",
                "swaps",
            ),
            ("{\"devices\": {\"retries\": 1}}", "profile", "devices"),
            ("{\"faults\": 3}", "profile", "faults"),
            ("{\"shards\": \"four\"}", "profile", "shards"),
        ] {
            let e = Profile::from_json(text).unwrap_err().to_string();
            assert!(
                e.contains(&format!("`{key}` in `{section}`")),
                "{text}: {e}"
            );
        }
    }

    #[test]
    fn disjointness_on_ip_classifier_patterns() {
        let arp_req = conjunctive_checks(&parse_pattern("12/0806 20/0001").unwrap()).unwrap();
        let arp_rep = conjunctive_checks(&parse_pattern("12/0806 20/0002").unwrap()).unwrap();
        let ip = conjunctive_checks(&parse_pattern("12/0800").unwrap()).unwrap();
        assert!(checks_disjoint(&arp_req, &arp_rep)); // bytes 20-21 differ
        assert!(checks_disjoint(&arp_req, &ip)); // ethertype differs
        assert!(checks_disjoint(&arp_rep, &ip));
        // A catch-all is opaque: treated as overlapping everything.
        assert!(conjunctive_checks(&parse_pattern("-").unwrap()).is_none());
        assert!(conjunctive_checks(&parse_pattern("!12/0800").unwrap()).is_none());
    }

    #[test]
    fn overlapping_patterns_do_not_reorder() {
        // 12/08?? overlaps both ARP and IP ethertypes: the hot third
        // pattern must NOT jump ahead of it.
        let counts = vec![1, 0, 100];
        let p1 = conjunctive_checks(&parse_pattern("12/0806").unwrap());
        let p2 = conjunctive_checks(&parse_pattern("12/08??").unwrap());
        let p3 = conjunctive_checks(&parse_pattern("12/0800").unwrap());
        // 12/08?? masks out the second byte, so it is NOT disjoint from
        // 12/0800 — the hot pattern stays behind it.
        let order = hot_order(&counts, &[p1, p2, p3]);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn hot_order_hoists_ip_branch() {
        let counts = vec![0, 0, 50, 1];
        let checks: Vec<Option<Vec<Check>>> = ["12/0806 20/0001", "12/0806 20/0002", "12/0800"]
            .iter()
            .map(|p| conjunctive_checks(&parse_pattern(p).unwrap()))
            .chain(std::iter::once(None)) // the `-` catch-all
            .collect();
        // IP (old port 2) hoists first; the `-` catch-all is opaque, so
        // nothing jumps it and it cannot jump anything — it stays last.
        assert_eq!(hot_order(&counts, &checks), vec![2, 0, 1, 3]);
    }

    #[test]
    fn apply_profile_reorders_and_rewires() {
        let mut g = read_config(
            "src :: Idle; c :: Classifier(12/0806 20/0001, 12/0806 20/0002, 12/0800, -); \
             a :: Discard; b :: Discard; ip :: Discard; other :: Discard; \
             src -> c; c [0] -> a; c [1] -> b; c [2] -> ip; c [3] -> other;",
        )
        .unwrap();
        let p = profile_for("c", vec![2, 1, 40, 0]);
        let report = apply_profile(&mut g, &p).unwrap();
        assert_eq!(report.reordered.len(), 1);
        assert_eq!(report.reordered[0].order, vec![2, 0, 1, 3]);
        assert_eq!(report.cold.len(), 1);
        assert_eq!(report.cold[0].port, 3);
        let c = g.find("c").unwrap();
        assert_eq!(
            g.element(c).config(),
            "12/0800, 12/0806 20/0001, 12/0806 20/0002, -"
        );
        // The IP branch now leaves port 0 and still reaches `ip`.
        let ip = g.find("ip").unwrap();
        assert_eq!(g.connections_from(c, 0).next().unwrap().to.element, ip);
        let a = g.find("a").unwrap();
        assert_eq!(g.connections_from(c, 1).next().unwrap().to.element, a);
        let other = g.find("other").unwrap();
        assert_eq!(g.connections_from(c, 3).next().unwrap().to.element, other);
        assert!(g.has_requirement("profiled"));
    }

    #[test]
    fn identity_order_leaves_graph_untouched() {
        let mut g = read_config(
            "src :: Idle; c :: Classifier(12/0800, -); d :: Discard; e :: Discard; \
             src -> c; c [0] -> d; c [1] -> e;",
        )
        .unwrap();
        let before = g.clone();
        let p = profile_for("c", vec![10, 3]);
        let report = apply_profile(&mut g, &p).unwrap();
        assert!(report.reordered.is_empty());
        assert!(g.same_configuration(&before));
    }

    #[test]
    fn unprofiled_classifiers_are_reported_not_touched() {
        let mut g = read_config(
            "src :: Idle; c :: Classifier(12/0800, -); d :: Discard; e :: Discard; \
             src -> c; c [0] -> d; c [1] -> e;",
        )
        .unwrap();
        let p = Profile::default();
        let report = apply_profile(&mut g, &p).unwrap();
        assert_eq!(report.unprofiled, vec!["c".to_owned()]);
    }
}
