//! Per-element runtime telemetry behind one run-time switch.
//!
//! The paper evaluates optimizations by *per-element cycle attribution*
//! (Figure 9/10 style tables); this module makes the running engines
//! produce that attribution themselves. Each element slot gets:
//!
//! * packet and byte counters,
//! * per-output-port emission counts (the input `click-profile` uses to
//!   hoist hot `Classifier` branches),
//! * a log2-bucket latency histogram of *self time* per element call,
//!   plus a small ring buffer of the most recent raw samples.
//!
//! Self time is exclusive: the engine keeps a frame stack, and a nested
//! call (a pull chain recursing upstream, or a device task emitting into
//! the push engine) subtracts its children's wall time from the parent.
//! On the stack-based push engine, frames nest only under task elements,
//! so attribution stays exact without sampling.
//!
//! **One binary, off until armed.** Every probe is compiled into every
//! build and starts with a test of the recorder's switch
//! ([`RouterTelemetry::set_enabled`], reached through
//! [`Engine::set_telemetry`](crate::engine::Engine::set_telemetry)); off
//! — the default — it returns at once: no clock read, no counter write,
//! no batch walk. That is not free, it is measured (EXPERIMENTS.md "One
//! binary" has every pair): in a closed loop the predicted branches do
//! not show (`ip_base` 316.4 → 314.2 ns/pkt over 10 alternating pairs,
//! every serial workload within ±2 %), while a lone frame between idle
//! polls runs them cold and its median latency rose 2–8 % (`ip_base`
//! 0.729 → 0.758 µs, 9 of 10 pairs) — 9–12 % before the recording
//! halves were moved out of line. Only what reads `profiles()` arms the
//! switch: the reopt daemon, `click-report`, and `click-pcap --json`.
//! Everything kept per *poll* or per rare event — the gauge structs
//! below — is always live.
//!
//! **Each exported counter is declared once.** [`ElementProfile`] and the
//! seven gauge structs are declared together with their field tables
//! ([`GaugeSet::FIELDS`]: key, kind, and the doc comment as help), and
//! everything that would otherwise restate the fields — the profile JSON
//! in `click-opt`, the tools' stderr [`summary`] lines, shard merging
//! ([`absorb`]), the OPERATIONS.md glossary — loops over the table. An
//! engine hands out its sections as one [`Gauges`].

use crate::batch::PacketBatch;
use crate::packet::Packet;
use crate::swap::TransferPlan;
use std::time::Instant;

/// Number of log2 latency buckets. Bucket `i` counts element calls whose
/// self time needed `i` significant bits of nanoseconds, i.e. fell in
/// `[2^(i-1), 2^i)` ns (bucket 0 is 0 ns); the last bucket absorbs
/// everything slower (`>= 2^22` ns ≈ 4 ms, far beyond any element call).
pub const LATENCY_BUCKETS: usize = 24;

/// Capacity of the per-element ring buffer of recent raw self-time
/// samples (nanoseconds), kept alongside the cumulative histogram.
pub const RECENT_WINDOW: usize = 32;

/// What one gauge field holds, as its [`Field`] hands it across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A counter, index or high-water mark.
    U64(u64),
    /// A name or state label.
    Str(&'a str),
    /// A histogram or sample list.
    U64s(&'a [u64]),
}

/// The field types a gauge struct may have, each mapped onto a [`Value`].
trait Cell {
    fn value(&self) -> Value<'_>;
    /// Stores `v`; `false` (and no change) if it is of another kind.
    fn store(&mut self, v: Value<'_>) -> bool;
}

impl Cell for u64 {
    fn value(&self) -> Value<'_> {
        Value::U64(*self)
    }
    fn store(&mut self, v: Value<'_>) -> bool {
        let Value::U64(n) = v else { return false };
        *self = n;
        true
    }
}

impl Cell for usize {
    fn value(&self) -> Value<'_> {
        Value::U64(*self as u64)
    }
    fn store(&mut self, v: Value<'_>) -> bool {
        let Value::U64(n) = v else { return false };
        *self = n as usize;
        true
    }
}

impl Cell for String {
    fn value(&self) -> Value<'_> {
        Value::Str(self)
    }
    fn store(&mut self, v: Value<'_>) -> bool {
        let Value::Str(s) = v else { return false };
        *self = s.to_owned();
        true
    }
}

impl Cell for Vec<u64> {
    fn value(&self) -> Value<'_> {
        Value::U64s(self)
    }
    fn store(&mut self, v: Value<'_>) -> bool {
        let Value::U64s(ns) = v else { return false };
        *self = ns.to_vec();
        true
    }
}

/// One row of a gauge struct's field table: the exported key, the help
/// line (the field's doc comment), and typed access to the field.
pub struct Field<T> {
    /// The field's name, which is also its key in the profile JSON.
    pub key: &'static str,
    help: &'static str,
    /// Reads the field.
    pub get: fn(&T) -> Value<'_>,
    /// Writes the field; `false` if the value is of another kind.
    pub set: fn(&mut T, Value<'_>) -> bool,
}

impl<T> Field<T> {
    /// What the field counts: its doc comment, on one line.
    pub fn help(&self) -> &'static str {
        self.help.trim()
    }
}

/// A struct whose fields are all exported: everything that serializes,
/// parses, prints or documents one goes through [`GaugeSet::FIELDS`]
/// (the profile JSON in `click-opt`, [`summary`], the OPERATIONS.md
/// glossary) and never names a field itself.
pub trait GaugeSet: Default + 'static {
    /// The struct's name.
    const NAME: &'static str;
    /// Key of the struct's section in the profile JSON.
    const SECTION: &'static str;
    /// The field table, in declaration (and export) order.
    const FIELDS: &'static [Field<Self>];
}

/// Declares a gauge struct together with its field table, so the two
/// cannot drift: `"section"; struct`, every field documented and of a
/// [`Cell`] type.
macro_rules! gauge_struct {
    ($section:literal; $(#[$meta:meta])* pub struct $name:ident {
        $($(#[doc = $help:literal])+ pub $field:ident: $ty:ty,)+
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $help])+ pub $field: $ty,)+
        }

        impl GaugeSet for $name {
            const NAME: &'static str = stringify!($name);
            const SECTION: &'static str = $section;
            const FIELDS: &'static [Field<Self>] = &[$(Field {
                key: stringify!($field),
                help: concat!($($help),+),
                get: |g| g.$field.value(),
                set: |g, v| g.$field.store(v),
            },)+];
        }
    };
}

/// One stderr line for a gauge record, every field as `value key`
/// (`3 checkpoints written, 1 torn discarded, ...`; labels as
/// `key value`).
pub fn summary<T: GaugeSet>(g: &T) -> String {
    let parts: Vec<String> = T::FIELDS
        .iter()
        .map(|f| {
            let key = f.key.replace('_', " ");
            match (f.get)(g) {
                Value::U64(n) => format!("{n} {key}"),
                Value::Str(s) => format!("{key} {s}"),
                Value::U64s(ns) => format!("{key} {ns:?}"),
            }
        })
        .collect();
    parts.join(", ")
}

/// Adds `other` into `into`, field by field: counters sum (saturating:
/// rows may come from a file), lists sum index by index (the longer
/// length wins), labels keep `into`'s. How
/// shards' records merge and several rows of one section fold into one.
pub fn absorb<T: GaugeSet>(into: &mut T, other: &T) {
    for f in T::FIELDS {
        match ((f.get)(into), (f.get)(other)) {
            (Value::U64(a), Value::U64(b)) => (f.set)(into, Value::U64(a.saturating_add(b))),
            (Value::U64s(a), Value::U64s(b)) => {
                let (long, short) = if a.len() < b.len() { (b, a) } else { (a, b) };
                let mut sum = long.to_vec();
                sum.iter_mut()
                    .zip(short)
                    .for_each(|(s, n)| *s = s.saturating_add(*n));
                (f.set)(into, Value::U64s(&sum))
            }
            _ => continue,
        };
    }
}

gauge_struct! {
    "elements";
    /// One element instance's telemetry snapshot, merged across shards —
    /// the unit record of the profile export. Counts only what ran while
    /// the switch was on ([`RouterTelemetry::set_enabled`]).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ElementProfile {
        /// Element instance name (configuration name, e.g. `c0`).
        pub name: String,
        /// Element class (e.g. `Classifier`).
        pub class: String,
        /// Element calls observed (push/pull/batch/task invocations,
        /// including empty pull polls).
        pub calls: u64,
        /// Packets handled (pushed in, pulled out, or moved by a task).
        pub packets: u64,
        /// Bytes handled on push/pull boundaries (tasks count packets only).
        pub bytes: u64,
        /// Cumulative exclusive (self) wall time, nanoseconds.
        pub self_ns: u64,
        /// Packets emitted per output port, indexed by port.
        pub out_ports: Vec<u64>,
        /// Log2 self-time histogram, `LATENCY_BUCKETS` buckets.
        pub lat_buckets: Vec<u64>,
        /// Most recent raw self-time samples (ns), oldest first, at most
        /// `RECENT_WINDOW` entries.
        pub recent_ns: Vec<u64>,
    }
}

impl ElementProfile {
    /// Creates a zeroed profile for a named element instance.
    pub fn new(name: &str, class: &str) -> ElementProfile {
        ElementProfile {
            name: name.to_owned(),
            class: class.to_owned(),
            lat_buckets: vec![0; LATENCY_BUCKETS],
            ..ElementProfile::default()
        }
    }

    /// Merges another shard's record for the same element instance:
    /// counters and histogram buckets sum ([`absorb`]); the recent-sample
    /// rings concatenate (truncated to [`RECENT_WINDOW`]).
    pub fn merge(&mut self, other: &ElementProfile) {
        let mut recent = std::mem::take(&mut self.recent_ns);
        recent.extend_from_slice(&other.recent_ns);
        recent.drain(..recent.len().saturating_sub(RECENT_WINDOW));
        absorb(self, other);
        self.recent_ns = recent;
    }

    /// Mean exclusive nanoseconds per packet (0.0 if no packets).
    pub fn ns_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.packets as f64
        }
    }

    /// Output ports that never emitted a packet, given the element's
    /// total port count (ports past the end of `out_ports` are cold too).
    pub fn cold_ports(&self, noutputs: usize) -> Vec<usize> {
        (0..noutputs)
            .filter(|&p| self.out_ports.get(p).copied().unwrap_or(0) == 0)
            .collect()
    }
}

/// Merges per-shard profile lists by element name: records with the same
/// `name` sum (the shards run clones of one graph, so names align);
/// order follows the first list. This is what the parallel control plane
/// applies to worker replies.
pub fn merge_profiles(shards: &[Vec<ElementProfile>]) -> Vec<ElementProfile> {
    let mut out: Vec<ElementProfile> = Vec::new();
    for shard in shards {
        for p in shard {
            match out.iter_mut().find(|q| q.name == p.name) {
                Some(q) => q.merge(p),
                None => out.push(p.clone()),
            }
        }
    }
    out
}

gauge_struct! {
    "gauges";
    /// One worker shard's runtime gauges: how loaded its inbound ring ran
    /// and how often it had to back off. Kept per ring poll, always live.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShardGauges {
        /// Shard index.
        pub shard: usize,
        /// Batches popped from the inbound ring.
        pub batches: u64,
        /// Packets popped from the inbound ring.
        pub packets: u64,
        /// Most batches seen queued on the inbound ring (read before each
        /// pop); near `ring_capacity`, this worker is the bottleneck.
        pub ring_high_water: usize,
        /// Backoff snoozes while waiting for input or for output-ring space.
        pub backoff_snoozes: u64,
    }
}

gauge_struct! {
    "steering";
    /// The ingress steering gauges of a sharded runtime: the inject
    /// path's classification work on the control thread. The counts are
    /// always live; `steer_ns` reads a clock per packet and so follows
    /// the telemetry switch.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SteerGauges {
        /// Ingress batches classified and handed off.
        pub batches: u64,
        /// Packets hashed and routed to a shard ring.
        pub packets: u64,
        /// Steering self time, ns: hash + classify + hand-off, excluding
        /// worker processing.
        pub steer_ns: u64,
    }
}

gauge_struct! {
    "faults";
    /// Supervisor fault gauges of a sharded runtime: kept by the control
    /// plane on rare events, never on the per-packet path.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultGauges {
        /// Worker shards that died (panicked, or exited unexpectedly).
        pub shard_deaths: u64,
        /// Shards restarted from the retained configuration graph.
        pub restarts: u64,
        /// Dead shards whose flows were re-steered across the survivors
        /// instead of restarting them.
        pub degraded_entries: u64,
        /// Packets inside a shard's engine when it died: lost, bounded by its
        /// in-flight ring occupancy.
        pub lost_packets: u64,
        /// Packets salvaged from a dead shard's rings and re-steered.
        pub reclaimed_packets: u64,
        /// Packets dropped at injection because no live shard remained.
        pub no_live_shard_drops: u64,
        /// Live shards at read time.
        pub live_shards: usize,
        /// Configured shard count.
        pub shards: usize,
    }
}

gauge_struct! {
    "swap";
    /// Live-reconfiguration gauges of a hot-swapping router, serial or
    /// sharded.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SwapGauges {
        /// Completed swaps: every live shard now runs the new graph.
        pub swaps: u64,
        /// Canary shards rolled back to the retained old graph.
        pub rollbacks: u64,
        /// Canary windows whose drop gauge regressed past the margin.
        pub canary_failures: u64,
        /// Packets moved by swaps (rebuilt elements' state, device queues),
        /// rollbacks included.
        pub packets_transferred: u64,
        /// Configurations refused before any state moved (sharded: by the
        /// canary's engine, before any other shard saw them).
        pub rejected_configs: u64,
    }
}

gauge_struct! {
    "reopt";
    /// Continuous-reoptimization gauges of a `click-morph` control loop.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReoptGauges {
        /// Telemetry windows judged, decision and judgment windows alike.
        pub windows_observed: u64,
        /// Recompiles (profile hoist + optimizer pipeline) that produced an
        /// install candidate.
        pub recompiles: u64,
        /// Candidates kept after their canary / probation window.
        pub swaps_kept: u64,
        /// Candidates rolled back (canary or probation regression, or install
        /// rejection).
        pub rollbacks: u64,
        /// Divergent windows whose recompile dwell, cooldown or the swap
        /// budget suppressed.
        pub thrash_suppressed: u64,
    }
}

gauge_struct! {
    "checkpoints";
    /// Checkpoint/restore gauges of the persistence layer
    /// ([`crate::persist`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CheckpointGauges {
        /// Checkpoints cut and durably renamed into place.
        pub checkpoints_written: u64,
        /// Snapshot or write attempts that failed; the engine keeps running.
        pub checkpoint_failures: u64,
        /// Torn, corrupt or wrong-version files skipped while scanning for
        /// the newest valid generation.
        pub torn_discarded: u64,
        /// Warm restarts completed from a valid checkpoint.
        pub restores: u64,
        /// Starts (or restore attempts) that found no usable checkpoint.
        pub cold_starts: u64,
        /// Newest generation written or restored.
        pub last_generation: u64,
        /// Data-plane pause of the latest cut, ns (quiesce wait plus state
        /// walk).
        pub quiesce_ns_last: u64,
        /// Data-plane pause summed over all cuts, ns.
        pub quiesce_ns_total: u64,
        /// Packets captured into checkpoints (element plus device queues),
        /// cumulative.
        pub packets_persisted: u64,
    }
}

gauge_struct! {
    "devices";
    /// Per-device I/O gauges of a supervised device backend: traffic
    /// volume, every fault the supervision layer absorbed, and the health
    /// transitions it drove. Bumped on the (syscall-bound) I/O path.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DeviceGauges {
        /// Device name, as the configuration writes it.
        pub device: String,
        /// Backend kind (`mem`, `pcap`, `udp`, `tap`, `raw`, `fault`).
        pub backend: String,
        /// Health at read time (`up`, `flapping`, `down`, `recovering`).
        pub health: String,
        /// Frames received from the backend and queued for the router.
        pub rx_packets: u64,
        /// Bytes received from the backend.
        pub rx_bytes: u64,
        /// Frames handed to the backend for transmission.
        pub tx_packets: u64,
        /// Bytes handed to the backend for transmission.
        pub tx_bytes: u64,
        /// Frames cut short on the wire or in a capture file (`Truncated`).
        pub short_reads: u64,
        /// `WouldBlock` results (empty RX poll, full TX ring); only a storm
        /// is a health signal.
        pub would_blocks: u64,
        /// Operations retried after a transient fault.
        pub retries: u64,
        /// Backoff sleeps taken between retries.
        pub backoffs: u64,
        /// Departures from `Up` (into `Flapping` or `Down`).
        pub flaps: u64,
        /// Hard `Down`/`Wedged` faults; each forces the state machine to
        /// `Down`.
        pub down_events: u64,
        /// Successful re-opens (`Down` -> `Recovering`); refused attempts
        /// are not counted.
        pub reopens: u64,
        /// Pending TX frames declared lost: the device stayed sick past the
        /// drain deadline, or was abandoned with frames queued.
        pub drain_lost: u64,
        /// RX frames that failed the backend's integrity check (`Corrupt`).
        pub corrupt_drops: u64,
    }
}

/// Every engine-owned gauge section, as one read-out
/// ([`Engine::gauges`](crate::engine::Engine::gauges)). A section the
/// engine does not keep is empty or `None`: the serial runtime has no
/// shards, steering stage or supervisor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Per-shard runtime gauges, in shard order.
    pub shards: Vec<ShardGauges>,
    /// The ingress steering stage.
    pub steering: Option<SteerGauges>,
    /// Every attached device backend, in device order.
    pub devices: Vec<DeviceGauges>,
    /// The shard supervisor's books.
    pub faults: Option<FaultGauges>,
    /// Hot swaps performed by this engine.
    pub swap: Option<SwapGauges>,
}

#[cold]
#[inline(never)]
fn volume_from(b: &PacketBatch, from: usize) -> (u64, u64) {
    b.iter()
        .skip(from)
        .fold((0, 0), |(n, bytes), p| (n + 1, bytes + p.len() as u64))
}

/// Log2 bucket index for a self-time sample: the number of significant
/// bits, clamped to the histogram width.
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

#[derive(Debug, Default, Clone)]
struct Record {
    calls: u64,
    packets: u64,
    bytes: u64,
    self_ns: u64,
    out_ports: Vec<u64>,
    lat_buckets: Vec<u64>,
    recent: Vec<u64>,
    recent_pos: usize,
}

#[derive(Debug)]
struct Frame {
    start: Instant,
    child_ns: u64,
}

/// Per-element counters for one engine, behind the run-time switch: off
/// (the default) every probe returns at once and the counters keep what
/// they held.
#[derive(Debug)]
pub struct RouterTelemetry {
    on: bool,
    records: Vec<Record>,
    frames: Vec<Frame>,
}

impl RouterTelemetry {
    /// Zeroed counters for `n` element slots, switched off.
    pub fn new(n: usize) -> RouterTelemetry {
        RouterTelemetry {
            on: false,
            records: vec![Record::default(); n],
            frames: Vec::with_capacity(8),
        }
    }

    /// Flips the switch. Turning it off discards the open frames, so a
    /// frame an unwound element call left behind cannot outlive the run
    /// that armed it; the counters freeze.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
        if !on {
            self.frames.clear();
        }
    }

    /// Opens a timing frame; pair with [`RouterTelemetry::exit`].
    #[inline(always)]
    pub fn enter(&mut self) {
        if self.on {
            self.open_frame();
        }
    }

    // The recording halves stay out of line and cold, so an un-armed
    // engine's transfer loops carry a test and a call site per probe,
    // not the recorder.
    #[cold]
    #[inline(never)]
    fn open_frame(&mut self) {
        self.frames.push(Frame {
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost frame, attributing its exclusive time
    /// (total minus nested frames) plus `packets`/`bytes` to `elem`.
    /// With no frame open — the switch was armed after the matching
    /// `enter` — nothing is recorded.
    #[inline(always)]
    pub fn exit(&mut self, elem: usize, packets: u64, bytes: u64) {
        if self.on {
            self.close_frame(elem, packets, bytes);
        }
    }

    #[cold]
    #[inline(never)]
    fn close_frame(&mut self, elem: usize, packets: u64, bytes: u64) {
        let Some(f) = self.frames.pop() else {
            return;
        };
        let total = f.start.elapsed().as_nanos() as u64;
        let self_ns = total.saturating_sub(f.child_ns);
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += total;
        }
        let r = &mut self.records[elem];
        r.calls += 1;
        r.packets += packets;
        r.bytes += bytes;
        r.self_ns += self_ns;
        if r.lat_buckets.is_empty() {
            // First call: both tables at their final size, so the
            // steady state never grows them.
            r.lat_buckets = vec![0; LATENCY_BUCKETS];
            r.recent.reserve_exact(RECENT_WINDOW);
        }
        r.lat_buckets[bucket_of(self_ns)] += 1;
        if r.recent.len() < RECENT_WINDOW {
            r.recent.push(self_ns);
        } else {
            r.recent[r.recent_pos % RECENT_WINDOW] = self_ns;
        }
        r.recent_pos = (r.recent_pos + 1) % RECENT_WINDOW;
    }

    /// Counts `n` packets emitted by `elem` on output port `oport`.
    #[inline(always)]
    pub fn record_out(&mut self, elem: usize, oport: usize, n: u64) {
        if self.on {
            self.count_out(elem, oport, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn count_out(&mut self, elem: usize, oport: usize, n: u64) {
        let r = &mut self.records[elem];
        if r.out_ports.len() <= oport {
            r.out_ports.resize(oport + 1, 0);
        }
        r.out_ports[oport] += n;
    }

    /// Bytes in a packet about to be pushed; 0 (the length is not read)
    /// when off.
    #[inline]
    pub fn packet_bytes(&self, p: &Packet) -> u64 {
        if self.on {
            p.len() as u64
        } else {
            0
        }
    }

    /// `(packets, bytes)` volume of the batch's tail starting at `from`
    /// (a batched pull attributes only what it newly produced); `(0, 0)`
    /// when off, without walking the batch.
    #[inline(always)]
    pub fn batch_volume_from(&self, b: &PacketBatch, from: usize) -> (u64, u64) {
        if self.on {
            volume_from(b, from)
        } else {
            (0, 0)
        }
    }

    /// Copies counters into pre-named profiles (index-aligned with
    /// the engine's element slots).
    pub fn fill(&self, profiles: &mut [ElementProfile]) {
        for (r, p) in self.records.iter().zip(profiles.iter_mut()) {
            p.calls = r.calls;
            p.packets = r.packets;
            p.bytes = r.bytes;
            p.self_ns = r.self_ns;
            p.out_ports = r.out_ports.clone();
            if !r.lat_buckets.is_empty() {
                p.lat_buckets = r.lat_buckets.clone();
            }
            // Unroll the ring so samples come out oldest first.
            p.recent_ns.clear();
            if r.recent.len() < RECENT_WINDOW {
                p.recent_ns.extend_from_slice(&r.recent);
            } else {
                let split = r.recent_pos % RECENT_WINDOW;
                p.recent_ns.extend_from_slice(&r.recent[split..]);
                p.recent_ns.extend_from_slice(&r.recent[..split]);
            }
        }
    }

    /// Makes this recorder the successor of `old` across a hot swap: it
    /// takes over the switch, a reused element's record moves over
    /// whole, and a rebuilt matched element's counters and histogram sum
    /// into its successor (its recent-sample ring restarts — it
    /// describes the retired object).
    pub fn transfer_from(&mut self, old: &mut RouterTelemetry, plan: &TransferPlan) {
        self.on = old.on;
        for &(oi, ni) in &plan.reused {
            self.records[ni] = std::mem::take(&mut old.records[oi]);
        }
        for &(oi, ni) in &plan.matched {
            if oi >= old.records.len() || ni >= self.records.len() {
                continue;
            }
            let o = &old.records[oi];
            let n = &mut self.records[ni];
            n.calls += o.calls;
            n.packets += o.packets;
            n.bytes += o.bytes;
            n.self_ns += o.self_ns;
            if n.out_ports.len() < o.out_ports.len() {
                n.out_ports.resize(o.out_ports.len(), 0);
            }
            for (d, s) in n.out_ports.iter_mut().zip(&o.out_ports) {
                *d += s;
            }
            if n.lat_buckets.len() < o.lat_buckets.len() {
                n.lat_buckets.resize(o.lat_buckets.len(), 0);
            }
            for (d, s) in n.lat_buckets.iter_mut().zip(&o.lat_buckets) {
                *d += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn profile_merge_sums_counters() {
        let mut a = ElementProfile::new("c0", "Classifier");
        a.packets = 3;
        a.bytes = 192;
        a.out_ports = vec![1, 0, 2];
        a.lat_buckets[2] = 3;
        let mut b = ElementProfile::new("c0", "Classifier");
        b.packets = 5;
        b.bytes = 320;
        b.out_ports = vec![0, 0, 4, 1];
        b.lat_buckets[3] = 5;
        a.merge(&b);
        assert_eq!(a.packets, 8);
        assert_eq!(a.bytes, 512);
        assert_eq!(a.out_ports, vec![1, 0, 6, 1]);
        assert_eq!(a.lat_buckets[2], 3);
        assert_eq!(a.lat_buckets[3], 5);
    }

    #[test]
    fn merge_profiles_aligns_by_name() {
        let mut s0 = ElementProfile::new("c0", "Classifier");
        s0.packets = 2;
        let mut s1a = ElementProfile::new("c0", "Classifier");
        s1a.packets = 3;
        let s1b = ElementProfile::new("q0", "Queue");
        let merged = merge_profiles(&[vec![s0], vec![s1a, s1b]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "c0");
        assert_eq!(merged[0].packets, 5);
        assert_eq!(merged[1].name, "q0");
    }

    #[test]
    fn cold_ports_include_unindexed_tail() {
        let mut p = ElementProfile::new("c0", "Classifier");
        p.out_ports = vec![4, 0];
        assert_eq!(p.cold_ports(4), vec![1, 2, 3]);
    }

    fn filled(t: &RouterTelemetry, n: usize) -> Vec<ElementProfile> {
        let mut profiles = vec![ElementProfile::new("e", "X"); n];
        t.fill(&mut profiles);
        profiles
    }

    #[test]
    fn frames_attribute_exclusive_time() {
        let mut t = RouterTelemetry::new(2);
        t.set_enabled(true);
        t.enter(); // elem 0 (parent)
        t.enter(); // elem 1 (child)
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(1, 1, 64);
        t.exit(0, 1, 64);
        let profiles = filled(&t, 2);
        // The child's sleep is excluded from the parent's self time.
        assert!(profiles[1].self_ns >= 1_000_000);
        assert!(profiles[0].self_ns < profiles[1].self_ns);
        assert_eq!(profiles[0].packets, 1);
        assert_eq!(profiles[1].calls, 1);
    }

    #[test]
    fn probes_record_nothing_until_armed_and_freeze_when_disarmed() {
        let mut t = RouterTelemetry::new(1);
        let p = Packet::new(60);
        let mut b = PacketBatch::new();
        b.push(Packet::new(60));
        assert_eq!(t.packet_bytes(&p), 0);
        assert_eq!(t.batch_volume_from(&b, 0), (0, 0));
        t.enter();
        t.exit(0, 1, 64);
        t.record_out(0, 0, 1);
        assert_eq!(filled(&t, 1)[0], ElementProfile::new("e", "X"));

        t.set_enabled(true);
        assert_eq!(t.packet_bytes(&p), 60);
        assert_eq!(t.batch_volume_from(&b, 0), (1, 60));
        assert_eq!(t.batch_volume_from(&b, 1), (0, 0));
        t.enter();
        t.exit(0, 1, 64);
        t.record_out(0, 0, 1);
        let armed = filled(&t, 1);
        assert_eq!(
            (armed[0].calls, armed[0].packets, armed[0].bytes),
            (1, 1, 64)
        );
        assert_eq!(armed[0].out_ports, vec![1]);

        t.set_enabled(false);
        t.enter();
        t.exit(0, 1, 64);
        t.record_out(0, 0, 1);
        assert_eq!(filled(&t, 1), armed);
    }

    /// A frame with no `exit` (its element call unwound) or an `exit`
    /// with no frame (the switch was armed in between) must neither
    /// panic nor bill anyone: disarming drops the orphan.
    #[test]
    fn unbalanced_frames_are_dropped_not_billed() {
        let mut t = RouterTelemetry::new(2);
        t.exit(0, 1, 64); // off: ignored
        t.set_enabled(true);
        t.exit(0, 1, 64); // armed after its `enter`: no frame, no record
        assert_eq!(filled(&t, 2)[0].calls, 0);

        t.enter(); // orphan: the call it timed never returned
        t.set_enabled(false);
        t.set_enabled(true);
        t.enter();
        t.exit(1, 1, 64);
        t.exit(0, 0, 0); // the orphan's late `exit` finds nothing
        let profiles = filled(&t, 2);
        assert_eq!((profiles[0].calls, profiles[1].calls), (0, 1));
    }
}
