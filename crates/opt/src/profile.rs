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
//! The profile itself is deliberately plain JSON with no external
//! dependencies on either side: [`Profile::to_json`] hand-renders it and
//! [`Profile::from_json`] uses the small recursive-descent parser below.

use click_classifier::pattern::parse_pattern;
use click_classifier::{Check, Cond};
use click_core::config::split_args;
use click_core::error::{Error, Result};
use click_core::graph::{PortRef, RouterGraph};
use click_elements::telemetry::{
    CheckpointGauges, DeviceGauges, ElementProfile, FaultGauges, ReoptGauges, ShardGauges,
    SteerGauges, SwapGauges,
};

/// Schema version written by [`Profile::to_json`]. Version history:
///
/// * **1** — implicit: everything before the `version` field existed
///   (PR 1–7 exports carry no `version` key and parse as 1).
/// * **2** — adds `version` itself and the optional `reopt` gauge
///   section exported by `click-morph`.
/// * **3** — adds the optional `devices` section: per-device I/O and
///   supervision gauges from the real-I/O backends (`click-report
///   --devices`, `click-pcap`).
/// * **4** — adds the optional `checkpoints` section: persistence-layer
///   gauges (snapshots cut, torn files skipped, warm restarts, quiesce
///   pauses) from `click-pcap`'s crash drill and `click-report
///   --checkpoints`.
///
/// [`Profile::from_json`] accepts any version ≤ the current one (fields
/// it does not know default), so older tools keep reading newer profiles
/// of the same major shape and newer tools read version-less exports.
pub const PROFILE_VERSION: u32 = 4;

/// A runtime profile: one record per element instance, merged across
/// shards, plus per-shard runtime gauges. Produced by `click-report`,
/// consumed by `click-profile` and the benches.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Schema version of the export ([`PROFILE_VERSION`] when produced
    /// by this build; 1 for version-less profiles from older builds).
    pub version: u32,
    /// Label of the profiled configuration (e.g. `ip-router-4`).
    pub source: String,
    /// Worker shards the profile was collected from (1 = serial).
    pub shards: usize,
    /// Whether the producing binary was built with the `telemetry`
    /// feature (if `false`, every counter is zero by construction).
    pub telemetry: bool,
    /// Per-element records, merged across shards by element name.
    pub elements: Vec<ElementProfile>,
    /// Per-shard runtime gauges (empty for serial runs).
    pub gauges: Vec<ShardGauges>,
    /// Ingress steering gauges: one record for a sharded run's inject
    /// path (empty for serial-engine runs or older profiles; format ≤ 4
    /// profiles may carry several).
    pub steering: Vec<SteerGauges>,
    /// Supervisor fault gauges (restarts, degraded-mode entries,
    /// in-flight loss), exported when `click-report` runs with
    /// `--faults`; `None` for serial runs or older profiles.
    pub faults: Option<FaultGauges>,
    /// Live-reconfiguration gauges (swaps, rollbacks, canary failures),
    /// exported when `click-report` runs with `--swap`; `None` when no
    /// hot swap was exercised or for older profiles.
    pub swap: Option<SwapGauges>,
    /// Continuous-reoptimization gauges (windows observed, recompiles,
    /// kept swaps, rollbacks, thrash suppressions), exported by
    /// `click-morph`; `None` for profiles from other tools or older
    /// (version 1) exports.
    pub reopt: Option<ReoptGauges>,
    /// Per-device I/O and supervision gauges (RX/TX counts, faults,
    /// flaps, reopens, drain losses) from the real-I/O backend layer;
    /// empty for simulated runs and pre-version-3 profiles.
    pub devices: Vec<DeviceGauges>,
    /// Checkpoint/restore gauges (snapshots cut, torn files skipped,
    /// warm restarts, quiesce pauses) from the persistence layer;
    /// `None` when no checkpointing ran or for pre-version-4 profiles.
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
            gauges: Vec::new(),
            steering: Vec::new(),
            faults: None,
            swap: None,
            reopt: None,
            devices: Vec::new(),
            checkpoints: None,
        }
    }
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

    /// Renders the profile as JSON (the export format: one object per
    /// element under `"elements"`, gauges under `"gauges"`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"profile\": \"click-report\",\n");
        s.push_str(&format!("  \"version\": {},\n", self.version));
        s.push_str(&format!("  \"source\": {},\n", json_string(&self.source)));
        s.push_str(&format!("  \"shards\": {},\n", self.shards));
        s.push_str(&format!("  \"telemetry\": {},\n", self.telemetry));
        s.push_str("  \"elements\": [\n");
        for (i, e) in self.elements.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"name\": {}, ", json_string(&e.name)));
            s.push_str(&format!("\"class\": {}, ", json_string(&e.class)));
            s.push_str(&format!("\"calls\": {}, ", e.calls));
            s.push_str(&format!("\"packets\": {}, ", e.packets));
            s.push_str(&format!("\"bytes\": {}, ", e.bytes));
            s.push_str(&format!("\"self_ns\": {}, ", e.self_ns));
            s.push_str(&format!("\"ns_per_packet\": {:.2}, ", e.ns_per_packet()));
            s.push_str(&format!("\"out_ports\": {}, ", json_u64s(&e.out_ports)));
            s.push_str(&format!("\"lat_buckets\": {}, ", json_u64s(&e.lat_buckets)));
            s.push_str(&format!("\"recent_ns\": {}", json_u64s(&e.recent_ns)));
            s.push_str(if i + 1 < self.elements.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"gauges\": [\n");
        for (i, g) in self.gauges.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"shard\": {}, \"batches\": {}, \"packets\": {}, \
                 \"ring_high_water\": {}, \"backoff_snoozes\": {}}}{}\n",
                g.shard,
                g.batches,
                g.packets,
                g.ring_high_water,
                g.backoff_snoozes,
                if i + 1 < self.gauges.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
        if !self.steering.is_empty() {
            s.push_str(",\n  \"steering\": [\n");
            for (i, g) in self.steering.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"steerer\": {}, \"batches\": {}, \"packets\": {}, \
                     \"steer_ns\": {}, \"snoozes\": {}}}{}\n",
                    g.steerer,
                    g.batches,
                    g.packets,
                    g.steer_ns,
                    g.snoozes,
                    if i + 1 < self.steering.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]");
        }
        if !self.devices.is_empty() {
            s.push_str(",\n  \"devices\": [\n");
            for (i, d) in self.devices.iter().enumerate() {
                s.push_str("    {");
                s.push_str(&format!("\"device\": {}, ", json_string(&d.device)));
                s.push_str(&format!("\"backend\": {}, ", json_string(&d.backend)));
                s.push_str(&format!("\"health\": {}, ", json_string(&d.health)));
                s.push_str(&format!("\"rx_packets\": {}, ", d.rx_packets));
                s.push_str(&format!("\"rx_bytes\": {}, ", d.rx_bytes));
                s.push_str(&format!("\"tx_packets\": {}, ", d.tx_packets));
                s.push_str(&format!("\"tx_bytes\": {}, ", d.tx_bytes));
                s.push_str(&format!("\"short_reads\": {}, ", d.short_reads));
                s.push_str(&format!("\"would_blocks\": {}, ", d.would_blocks));
                s.push_str(&format!("\"retries\": {}, ", d.retries));
                s.push_str(&format!("\"backoffs\": {}, ", d.backoffs));
                s.push_str(&format!("\"flaps\": {}, ", d.flaps));
                s.push_str(&format!("\"down_events\": {}, ", d.down_events));
                s.push_str(&format!("\"reopens\": {}, ", d.reopens));
                s.push_str(&format!("\"drain_lost\": {}, ", d.drain_lost));
                s.push_str(&format!("\"corrupt_drops\": {}", d.corrupt_drops));
                s.push_str(if i + 1 < self.devices.len() {
                    "},\n"
                } else {
                    "}\n"
                });
            }
            s.push_str("  ]");
        }
        if let Some(f) = self.faults {
            s.push_str(&format!(
                ",\n  \"faults\": {{\"shard_deaths\": {}, \"restarts\": {}, \
                 \"degraded_entries\": {}, \"lost_packets\": {}, \
                 \"reclaimed_packets\": {}, \"no_live_shard_drops\": {}, \
                 \"live_shards\": {}, \"shards\": {}}}",
                f.shard_deaths,
                f.restarts,
                f.degraded_entries,
                f.lost_packets,
                f.reclaimed_packets,
                f.no_live_shard_drops,
                f.live_shards,
                f.shards
            ));
        }
        if let Some(w) = self.swap {
            s.push_str(&format!(
                ",\n  \"swap\": {{\"swaps\": {}, \"rollbacks\": {}, \
                 \"canary_failures\": {}, \"packets_transferred\": {}, \
                 \"rejected_configs\": {}}}",
                w.swaps, w.rollbacks, w.canary_failures, w.packets_transferred, w.rejected_configs
            ));
        }
        if let Some(r) = self.reopt {
            s.push_str(&format!(
                ",\n  \"reopt\": {{\"windows_observed\": {}, \"recompiles\": {}, \
                 \"swaps_kept\": {}, \"rollbacks\": {}, \
                 \"thrash_suppressed\": {}}}",
                r.windows_observed, r.recompiles, r.swaps_kept, r.rollbacks, r.thrash_suppressed
            ));
        }
        if let Some(c) = self.checkpoints {
            s.push_str(&format!(
                ",\n  \"checkpoints\": {{\"checkpoints_written\": {}, \
                 \"checkpoint_failures\": {}, \"torn_discarded\": {}, \
                 \"restores\": {}, \"cold_starts\": {}, \
                 \"last_generation\": {}, \"quiesce_ns_last\": {}, \
                 \"quiesce_ns_total\": {}, \"packets_persisted\": {}}}",
                c.checkpoints_written,
                c.checkpoint_failures,
                c.torn_discarded,
                c.restores,
                c.cold_starts,
                c.last_generation,
                c.quiesce_ns_last,
                c.quiesce_ns_total,
                c.packets_persisted
            ));
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a profile back from its JSON export.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on malformed JSON; missing fields default
    /// to zero / empty so older or hand-written profiles load.
    pub fn from_json(text: &str) -> Result<Profile> {
        let v = parse_json(text)?;
        let mut p = Profile {
            // Version-less exports predate the field: they are schema 1.
            version: v.get("version").and_then(Json::as_u64).unwrap_or(1) as u32,
            source: v.get("source").and_then(Json::as_str).unwrap_or_default(),
            shards: v.get("shards").and_then(Json::as_u64).unwrap_or(1) as usize,
            telemetry: v.get("telemetry").and_then(Json::as_bool).unwrap_or(false),
            elements: Vec::new(),
            gauges: Vec::new(),
            steering: Vec::new(),
            faults: None,
            swap: None,
            reopt: None,
            devices: Vec::new(),
            checkpoints: None,
        };
        if let Some(Json::Arr(items)) = v.get("elements") {
            for item in items {
                let mut e = ElementProfile::new(
                    &item.get("name").and_then(Json::as_str).unwrap_or_default(),
                    &item.get("class").and_then(Json::as_str).unwrap_or_default(),
                );
                e.calls = item.get("calls").and_then(Json::as_u64).unwrap_or(0);
                e.packets = item.get("packets").and_then(Json::as_u64).unwrap_or(0);
                e.bytes = item.get("bytes").and_then(Json::as_u64).unwrap_or(0);
                e.self_ns = item.get("self_ns").and_then(Json::as_u64).unwrap_or(0);
                if let Some(v) = item.get("out_ports").and_then(Json::as_u64s) {
                    e.out_ports = v;
                }
                if let Some(v) = item.get("lat_buckets").and_then(Json::as_u64s) {
                    e.lat_buckets = v;
                }
                if let Some(v) = item.get("recent_ns").and_then(Json::as_u64s) {
                    e.recent_ns = v;
                }
                p.elements.push(e);
            }
        }
        if let Some(Json::Arr(items)) = v.get("gauges") {
            for item in items {
                p.gauges.push(ShardGauges {
                    shard: item.get("shard").and_then(Json::as_u64).unwrap_or(0) as usize,
                    batches: item.get("batches").and_then(Json::as_u64).unwrap_or(0),
                    packets: item.get("packets").and_then(Json::as_u64).unwrap_or(0),
                    ring_high_water: item
                        .get("ring_high_water")
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize,
                    backoff_snoozes: item
                        .get("backoff_snoozes")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                });
            }
        }
        if let Some(Json::Arr(items)) = v.get("steering") {
            for item in items {
                p.steering.push(SteerGauges {
                    steerer: item.get("steerer").and_then(Json::as_u64).unwrap_or(0) as usize,
                    batches: item.get("batches").and_then(Json::as_u64).unwrap_or(0),
                    packets: item.get("packets").and_then(Json::as_u64).unwrap_or(0),
                    steer_ns: item.get("steer_ns").and_then(Json::as_u64).unwrap_or(0),
                    snoozes: item.get("snoozes").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        if let Some(Json::Arr(items)) = v.get("devices") {
            for item in items {
                let s = |k: &str| item.get(k).and_then(Json::as_str).unwrap_or_default();
                let g = |k: &str| item.get(k).and_then(Json::as_u64).unwrap_or(0);
                p.devices.push(DeviceGauges {
                    device: s("device"),
                    backend: s("backend"),
                    health: s("health"),
                    rx_packets: g("rx_packets"),
                    rx_bytes: g("rx_bytes"),
                    tx_packets: g("tx_packets"),
                    tx_bytes: g("tx_bytes"),
                    short_reads: g("short_reads"),
                    would_blocks: g("would_blocks"),
                    retries: g("retries"),
                    backoffs: g("backoffs"),
                    flaps: g("flaps"),
                    down_events: g("down_events"),
                    reopens: g("reopens"),
                    drain_lost: g("drain_lost"),
                    corrupt_drops: g("corrupt_drops"),
                });
            }
        }
        if let Some(f) = v.get("faults") {
            let g = |k: &str| f.get(k).and_then(Json::as_u64).unwrap_or(0);
            p.faults = Some(FaultGauges {
                shard_deaths: g("shard_deaths"),
                restarts: g("restarts"),
                degraded_entries: g("degraded_entries"),
                lost_packets: g("lost_packets"),
                reclaimed_packets: g("reclaimed_packets"),
                no_live_shard_drops: g("no_live_shard_drops"),
                live_shards: g("live_shards") as usize,
                shards: g("shards") as usize,
            });
        }
        if let Some(w) = v.get("swap") {
            let g = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or(0);
            p.swap = Some(SwapGauges {
                swaps: g("swaps"),
                rollbacks: g("rollbacks"),
                canary_failures: g("canary_failures"),
                packets_transferred: g("packets_transferred"),
                rejected_configs: g("rejected_configs"),
            });
        }
        if let Some(r) = v.get("reopt") {
            let g = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
            p.reopt = Some(ReoptGauges {
                windows_observed: g("windows_observed"),
                recompiles: g("recompiles"),
                swaps_kept: g("swaps_kept"),
                rollbacks: g("rollbacks"),
                thrash_suppressed: g("thrash_suppressed"),
            });
        }
        if let Some(c) = v.get("checkpoints") {
            let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
            p.checkpoints = Some(CheckpointGauges {
                checkpoints_written: g("checkpoints_written"),
                checkpoint_failures: g("checkpoint_failures"),
                torn_discarded: g("torn_discarded"),
                restores: g("restores"),
                cold_starts: g("cold_starts"),
                last_generation: g("last_generation"),
                quiesce_ns_last: g("quiesce_ns_last"),
                quiesce_ns_total: g("quiesce_ns_total"),
                packets_persisted: g("packets_persisted"),
            });
        }
        Ok(p)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64s(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

// ---- minimal JSON reader (no external dependencies) ----------------------

/// A parsed JSON value (just enough JSON for the profile and autotune
/// report formats).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub(crate) fn as_str(&self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
    fn as_u64s(&self) -> Option<Vec<u64>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, what: &str) -> Error {
        Error::spec(format!("profile JSON: {what} at byte {}", self.i))
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.s[self.i..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses a JSON document (used by [`Profile::from_json`] and the
/// autotune report reader).
pub(crate) fn parse_json(text: &str) -> Result<Json> {
    let mut p = JsonParser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
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
/// Returns [`Error::Spec`] if a profiled classifier's configuration
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

    #[test]
    fn json_round_trips() {
        let mut e = ElementProfile::new("c0", "Classifier");
        e.calls = 7;
        e.packets = 6;
        e.bytes = 384;
        e.self_ns = 900;
        e.out_ports = vec![0, 0, 6, 0];
        e.lat_buckets[3] = 7;
        e.recent_ns = vec![120, 130, 125];
        let p = Profile {
            source: "ip-router-4".into(),
            shards: 4,
            telemetry: true,
            elements: vec![e],
            gauges: vec![ShardGauges {
                shard: 1,
                batches: 3,
                packets: 24,
                ring_high_water: 2,
                backoff_snoozes: 9,
            }],
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn version_round_trips_and_versionless_profiles_parse_as_v1() {
        // A current export carries the schema version...
        let p = Profile {
            source: "versioned".into(),
            shards: 1,
            ..Profile::default()
        };
        assert_eq!(p.version, PROFILE_VERSION);
        let json = p.to_json();
        assert!(json.contains(&format!("\"version\": {PROFILE_VERSION}")));
        assert_eq!(Profile::from_json(&json).unwrap(), p);
        // ...while a version-less (pre-PR-8) export still loads, stamped
        // as schema 1 with every newer section defaulted.
        let old = Profile::from_json(
            "{\"profile\": \"click-report\", \"source\": \"legacy\", \
             \"shards\": 4, \"telemetry\": true, \"elements\": []}",
        )
        .unwrap();
        assert_eq!(old.version, 1);
        assert_eq!(old.source, "legacy");
        assert_eq!(old.shards, 4);
        assert!(old.telemetry);
        assert_eq!(old.reopt, None);
        assert_eq!(old.swap, None);
    }

    #[test]
    fn reopt_gauges_round_trip() {
        let p = Profile {
            source: "reopt-drill".into(),
            shards: 4,
            telemetry: true,
            reopt: Some(ReoptGauges {
                windows_observed: 12,
                recompiles: 2,
                swaps_kept: 1,
                rollbacks: 1,
                thrash_suppressed: 3,
            }),
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Profiles without the section stay `None` (older exports load),
        // and ones written while the section still carried the retired
        // `autotune_runs` key load with it ignored.
        let old = Profile::from_json("{\"elements\": []}").unwrap();
        assert_eq!(old.reopt, None);
        let v4 = p.to_json().replace("}\n}", ", \"autotune_runs\": 0}\n}");
        assert!(v4.contains("autotune_runs"));
        assert_eq!(Profile::from_json(&v4).unwrap(), p);
    }

    #[test]
    fn fault_gauges_round_trip() {
        let p = Profile {
            source: "chaos".into(),
            shards: 4,
            telemetry: false,
            faults: Some(FaultGauges {
                shard_deaths: 2,
                restarts: 1,
                degraded_entries: 1,
                lost_packets: 17,
                reclaimed_packets: 40,
                no_live_shard_drops: 0,
                live_shards: 3,
                shards: 4,
            }),
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Profiles without the section stay `None` (older exports load).
        let old = Profile::from_json("{\"elements\": []}").unwrap();
        assert_eq!(old.faults, None);
    }

    #[test]
    fn steering_gauges_round_trip() {
        let p = Profile {
            source: "steered".into(),
            shards: 4,
            telemetry: true,
            steering: vec![
                SteerGauges {
                    steerer: 0,
                    batches: 12,
                    packets: 96,
                    steer_ns: 4800,
                    snoozes: 2,
                },
                SteerGauges {
                    steerer: 1,
                    batches: 11,
                    packets: 88,
                    steer_ns: 4100,
                    snoozes: 0,
                },
            ],
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Profiles without the section stay empty (older exports load).
        let old = Profile::from_json("{\"elements\": []}").unwrap();
        assert!(old.steering.is_empty());
    }

    #[test]
    fn swap_gauges_round_trip() {
        let p = Profile {
            source: "swap-drill".into(),
            shards: 4,
            telemetry: true,
            swap: Some(SwapGauges {
                swaps: 1,
                rollbacks: 1,
                canary_failures: 1,
                packets_transferred: 321,
                rejected_configs: 2,
            }),
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Profiles without the section stay `None` (older exports load).
        let old = Profile::from_json("{\"elements\": []}").unwrap();
        assert_eq!(old.swap, None);
    }

    #[test]
    fn device_gauges_round_trip() {
        let p = Profile {
            source: "pcap-replay".into(),
            shards: 1,
            telemetry: true,
            devices: vec![DeviceGauges {
                device: "pcap:trace.pcap".into(),
                backend: "pcap".into(),
                health: "up".into(),
                rx_packets: 1000,
                rx_bytes: 64_000,
                tx_packets: 990,
                tx_bytes: 63_360,
                short_reads: 1,
                would_blocks: 12,
                retries: 4,
                backoffs: 4,
                flaps: 1,
                down_events: 1,
                reopens: 1,
                drain_lost: 10,
                corrupt_drops: 0,
            }],
            ..Profile::default()
        };
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Profiles without the section stay empty (older exports load).
        let old = Profile::from_json("{\"elements\": []}").unwrap();
        assert!(old.devices.is_empty());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Profile::from_json("").is_err());
        assert!(Profile::from_json("{\"a\": }").is_err());
        assert!(Profile::from_json("{} trailing").is_err());
        assert!(Profile::from_json("{\"elements\": [{\"name\"]}").is_err());
    }

    #[test]
    fn parser_tolerates_missing_fields() {
        let p = Profile::from_json("{\"elements\": [{\"name\": \"x\"}]}").unwrap();
        assert_eq!(p.shards, 1);
        assert_eq!(p.elements.len(), 1);
        assert_eq!(p.elements[0].packets, 0);
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
