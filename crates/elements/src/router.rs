//! The router runtime: instantiates a configuration graph and executes
//! packet transfers.
//!
//! Every element is a `Box<dyn Element>` and every transfer goes through
//! its vtable (the paper's "packets are transferred between elements via
//! dynamic dispatches"). `click-devirtualize`'s specialized classes
//! (`Counter__DV1`) are configuration: they build their base class into
//! the same store.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{CreateCtx, DeviceId, DeviceMap, Element, Emitter, PullContext, TaskContext};
use crate::elements::create_element;
use crate::iodev::{
    backend_scheme, open_backend, DeviceBackend, DeviceHealth, PumpStats, SupervisedDevice,
};
use crate::packet::Packet;
use crate::persist::{
    Checkpoint, CheckpointEngine, DeviceRecord, ElementRecord, EngineSnapshot, PacketRecord,
    RestoreStats,
};
use crate::swap::{SwapReport, TransferPlan};
use crate::telemetry::{DeviceGauges, Gauges, SwapGauges};
use crate::telemetry::{ElementProfile, RouterTelemetry};
use click_core::check::validate;
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::registry::{devirt_base, Library};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::rc::Rc;

/// The element store a [`Router`] is named by. It has one implementation,
/// `Box<dyn Element>`, and nothing depends on it. Kept for the frozen
/// benchmark, whose paths are generic over `Router<S>`; goes with ROADMAP
/// 1(a).
pub trait Slot {}

impl Slot for Box<dyn Element> {}

/// Network devices: per-device RX and TX packet queues that tests,
/// benchmarks, and the hardware simulator feed and drain — and that a
/// real I/O backend ([`crate::iodev::DeviceBackend`]) can sit beneath.
/// The elements only ever see the queues, so hot swap, fault gauges, and
/// the reopt daemon work identically over simulated and real traffic.
#[derive(Debug, Default)]
pub struct DeviceBank {
    map: DeviceMap,
    rx: Vec<VecDeque<Packet>>,
    tx: Vec<Vec<Packet>>,
    /// Supervised real-I/O backends, indexed like `rx`/`tx`. `None`
    /// keeps the device purely simulated.
    backends: Vec<Option<SupervisedDevice>>,
    /// Packets addressed to a device id the bank does not have (a stale
    /// id after a mismatched swap): recycled and accounted, not a panic.
    bad_id_drops: u64,
    /// Device losses inherited from banks retired by hot swaps, so
    /// [`DeviceBank::lost_packets`] stays monotonic.
    lost_retired: u64,
}

impl DeviceBank {
    fn from_map(map: DeviceMap) -> DeviceBank {
        let n = map.len();
        DeviceBank {
            map,
            rx: (0..n).map(|_| VecDeque::new()).collect(),
            tx: (0..n).map(|_| Vec::new()).collect(),
            backends: (0..n).map(|_| None).collect(),
            bad_id_drops: 0,
            lost_retired: 0,
        }
    }

    /// Looks up a device id by name.
    pub fn id(&self, name: &str) -> Option<DeviceId> {
        self.map.get(name)
    }

    /// Device names in id order.
    pub fn names(&self) -> Vec<&str> {
        (0..self.map.len())
            .map(|i| self.map.name(DeviceId(i)))
            .collect()
    }

    /// Device names in id order, as stored (no per-call `Vec`).
    pub fn device_names(&self) -> &[String] {
        self.map.names()
    }

    /// Queues a packet for reception on a device. A stale device id is
    /// an accounted drop, never a panic (PR 5 audit discipline).
    pub fn inject(&mut self, dev: DeviceId, p: Packet) {
        match self.rx.get_mut(dev.0) {
            Some(q) => q.push_back(p),
            None => {
                self.bad_id_drops += 1;
                p.recycle();
            }
        }
    }

    /// Pops one received packet.
    pub fn rx_pop(&mut self, dev: DeviceId) -> Option<Packet> {
        self.rx.get_mut(dev.0)?.pop_front()
    }

    /// Pops up to `max` received packets into `into`, oldest first (used
    /// by `FromDevice`); returns how many were moved. One pop at a time
    /// keeps an idle poll and a one-packet burst as cheap as `rx_pop`.
    pub fn rx_pop_batch(&mut self, dev: DeviceId, max: usize, into: &mut PacketBatch) -> usize {
        let Some(q) = self.rx.get_mut(dev.0) else {
            return 0;
        };
        let mut n = 0;
        while n < max {
            let Some(p) = q.pop_front() else { break };
            into.push(p);
            n += 1;
        }
        n
    }

    /// Number of packets waiting for reception.
    pub fn rx_len(&self, dev: DeviceId) -> usize {
        self.rx.get(dev.0).map_or(0, VecDeque::len)
    }

    /// Appends a transmitted packet (used by `ToDevice`). A stale device
    /// id is an accounted drop, never a panic.
    pub fn tx_push(&mut self, dev: DeviceId, p: Packet) {
        match self.tx.get_mut(dev.0) {
            Some(q) => q.push(p),
            None => {
                self.bad_id_drops += 1;
                p.recycle();
            }
        }
    }

    /// Appends a whole batch to a device's TX queue (used by `ToDevice`).
    /// The batch is drained but keeps its storage.
    pub fn tx_push_batch(&mut self, dev: DeviceId, batch: &mut PacketBatch) {
        match self.tx.get_mut(dev.0) {
            Some(q) => q.extend(batch.drain()),
            None => {
                for p in batch.drain() {
                    self.bad_id_drops += 1;
                    p.recycle();
                }
            }
        }
    }

    /// Takes all packets transmitted on a device so far.
    ///
    /// The caller owns the packets; a caller that only counts or
    /// inspects them should prefer [`DeviceBank::drain_tx_into`] (keeps
    /// batch storage warm) or [`DeviceBank::recycle_tx`] (returns the
    /// buffers to the packet pool), so long-running benchmarks do not
    /// leak pool capacity one drained packet at a time.
    pub fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        self.tx
            .get_mut(dev.0)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Drains every packet transmitted on a device into `into` in one
    /// batched transfer, reusing the batch's storage; returns how many
    /// packets moved. The TX queue keeps its capacity for the next burst.
    ///
    /// `into` need not be empty: drained packets are *appended* after any
    /// it already holds, and the return value counts only the packets
    /// appended by this call — it is **not** `into.len()`. Callers that
    /// accumulate several devices (or several drains) into one batch must
    /// sum the return values rather than read the batch length, or the
    /// earlier drains' packets are silently double-counted or lost from
    /// the stats.
    pub fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize {
        let before = into.len();
        let Some(q) = self.tx.get_mut(dev.0) else {
            return 0;
        };
        let n = q.len();
        into.extend(q.drain(..));
        debug_assert_eq!(
            into.len(),
            before + n,
            "drain_tx_into must append exactly the drained packets"
        );
        n
    }

    /// Drops every packet transmitted on a device, recycling their
    /// buffers into the thread-local packet pool; returns how many were
    /// recycled. This is the steady-state path for harnesses that drain
    /// TX queues without looking at the bytes — unlike dropping the
    /// result of [`DeviceBank::take_tx`], the buffer capacity survives
    /// for the next allocation.
    pub fn recycle_tx(&mut self, dev: DeviceId) -> usize {
        let Some(q) = self.tx.get_mut(dev.0) else {
            return 0;
        };
        let n = q.len();
        for p in q.drain(..) {
            p.recycle();
        }
        n
    }

    /// Number of packets transmitted on a device (since last take).
    pub fn tx_len(&self, dev: DeviceId) -> usize {
        self.tx.get(dev.0).map_or(0, Vec::len)
    }

    /// Moves every queued packet out of `old` into this bank, matching
    /// devices by name: the hot-swap path for in-flight device traffic.
    /// Returns `(moved, orphaned)` packet counts; packets on devices the
    /// new configuration lacks are recycled and counted as orphaned.
    fn adopt(&mut self, old: &mut DeviceBank) -> (u64, u64) {
        let mut moved = 0u64;
        let mut orphaned = 0u64;
        // Loss accounting survives the swap so `lost_packets` (and
        // through it `Router::total_drops`) stays monotonic.
        self.lost_retired += old.bad_id_drops + old.lost_retired;
        for old_id in 0..old.rx.len() {
            let target = self.map.get(old.map.name(DeviceId(old_id)));
            let rx = std::mem::take(&mut old.rx[old_id]);
            let tx = std::mem::take(&mut old.tx[old_id]);
            let backend = old.backends[old_id].take();
            match target {
                Some(new_id) => {
                    moved += (rx.len() + tx.len()) as u64;
                    self.rx[new_id.0].extend(rx);
                    self.tx[new_id.0].extend(tx);
                    // The live backend (descriptor, gauges, health state)
                    // follows the device name across the swap, unless the
                    // new configuration already opened its own.
                    if self.backends[new_id.0].is_none() {
                        self.backends[new_id.0] = backend;
                    } else if let Some(b) = backend {
                        self.lost_retired += b.lost();
                    }
                }
                None => {
                    orphaned += (rx.len() + tx.len()) as u64;
                    for p in rx {
                        p.recycle();
                    }
                    for p in tx {
                        p.recycle();
                    }
                    if let Some(b) = backend {
                        self.lost_retired += b.lost();
                    }
                }
            }
        }
        (moved, orphaned)
    }

    /// Non-destructive copy of every device's pending RX/TX traffic,
    /// for the checkpoint path. Devices with nothing pending still get a
    /// record, so a restore can match them by name cheaply.
    pub fn pending_records(&self) -> Vec<DeviceRecord> {
        (0..self.map.len())
            .map(|i| DeviceRecord {
                name: self.map.name(DeviceId(i)).to_owned(),
                rx: self.rx[i].iter().map(PacketRecord::from_packet).collect(),
                tx: self.tx[i].iter().map(PacketRecord::from_packet).collect(),
            })
            .collect()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no devices exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    // -- real I/O backends ------------------------------------------------

    /// Attaches a backend beneath a device, wrapped in default
    /// supervision. Replaces any previous backend (its losses are
    /// retired into the accounting).
    pub fn attach_backend(&mut self, dev: DeviceId, backend: Box<dyn DeviceBackend>) {
        self.attach_supervised(dev, SupervisedDevice::new(backend));
    }

    /// Attaches an already-supervised backend (custom policies).
    pub fn attach_supervised(&mut self, dev: DeviceId, sup: SupervisedDevice) {
        if let Some(slot) = self.backends.get_mut(dev.0) {
            if let Some(old) = slot.replace(sup) {
                self.lost_retired += old.lost();
            }
        }
    }

    /// Opens a backend for every device whose *name* carries a backend
    /// scheme (`pcap:...`, `udp:...`, `tap:...`, `raw:...`, `mem:...`,
    /// `fault:...@...`); scheme-less devices stay simulated. Returns how
    /// many backends were opened.
    ///
    /// Nothing is opened at router construction — real I/O is an
    /// explicit opt-in by whoever drives the router.
    ///
    /// # Errors
    ///
    /// Fails on the first device whose backend cannot be opened;
    /// already-opened backends stay attached.
    pub fn open_backends(&mut self) -> Result<usize> {
        let mut opened = 0;
        for i in 0..self.map.len() {
            if self.backends[i].is_some() {
                continue;
            }
            let name = self.map.name(DeviceId(i)).to_string();
            if backend_scheme(&name).is_none() {
                continue;
            }
            let backend = open_backend(&name)?;
            self.backends[i] = Some(SupervisedDevice::new(backend));
            opened += 1;
        }
        Ok(opened)
    }

    /// True if the device has a backend attached.
    pub fn has_backend(&self, dev: DeviceId) -> bool {
        self.backends.get(dev.0).is_some_and(Option::is_some)
    }

    /// True if any device has a backend attached.
    pub fn has_backends(&self) -> bool {
        self.backends.iter().any(Option::is_some)
    }

    /// Health of a device's backend, if one is attached.
    pub fn backend_health(&self, dev: DeviceId) -> Option<DeviceHealth> {
        self.backends
            .get(dev.0)?
            .as_ref()
            .map(SupervisedDevice::health)
    }

    /// The supervised backend of a device (tests, chaos drivers).
    pub fn backend_mut(&mut self, dev: DeviceId) -> Option<&mut SupervisedDevice> {
        self.backends.get_mut(dev.0)?.as_mut()
    }

    /// True once every attached RX source is exhausted (finite traces
    /// fully replayed). Devices without backends don't count.
    pub fn backends_exhausted(&self) -> bool {
        self.backends
            .iter()
            .flatten()
            .all(SupervisedDevice::exhausted)
    }

    /// TX frames still queued on backend-bound devices (blocked sends
    /// whose drain deadline is running).
    pub fn tx_backlog(&self) -> usize {
        self.backends
            .iter()
            .zip(&self.tx)
            .filter(|(b, _)| b.is_some())
            .map(|(_, q)| q.len())
            .sum()
    }

    /// One pump round, one burst per device and direction: drains each TX
    /// queue into its backend under the supervision rules (retry,
    /// backoff, drain deadline), then moves up to `burst` frames from the
    /// backend into the RX queue — in that order, so a poll sees what the
    /// send looped back. Devices without backends are untouched.
    pub fn pump(&mut self, burst: usize) -> PumpStats {
        let mut stats = PumpStats::default();
        for i in 0..self.backends.len() {
            let Some(sup) = self.backends[i].as_mut() else {
                continue;
            };
            sup.tick();
            // TX: tx queue -> backend, in order; a blocked device keeps
            // its queue (deadline running), a dead-past-deadline device
            // converts it to accounted loss. Either way the queue keeps
            // its storage.
            let tx = &mut self.tx[i];
            if tx.is_empty() {
                // Nothing to send.
            } else if sup.should_drop_pending() {
                let n = tx.len() as u64;
                tx.drain(..).for_each(Packet::recycle);
                sup.count_drain_lost(n);
                stats.lost += n;
            } else {
                let mut q = VecDeque::from(std::mem::take(tx));
                let (sent, lost) = sup.send_burst(&mut q);
                *tx = Vec::from(q);
                stats.tx += sent;
                stats.lost += lost;
            }
            // RX: backend -> rx queue.
            stats.rx += sup.recv_burst(burst.max(1), &mut self.rx[i]);
        }
        stats
    }

    /// Always-live per-device gauges for every attached backend, in
    /// device-id order.
    pub fn device_gauges(&self) -> Vec<DeviceGauges> {
        let mut out = Vec::new();
        for (i, slot) in self.backends.iter().enumerate() {
            if let Some(sup) = slot {
                let mut g = sup.gauges();
                g.device = self.map.name(DeviceId(i)).to_string();
                out.push(g);
            }
        }
        out
    }

    /// Packets this bank has irrecoverably lost: bad-device-id drops,
    /// drain-deadline TX losses, and losses inherited from swapped-out
    /// banks. Folded into [`Router::total_drops`] so
    /// `injected == tx + drops` stays exact over real devices too.
    pub fn lost_packets(&self) -> u64 {
        self.bad_id_drops
            + self.lost_retired
            + self
                .backends
                .iter()
                .flatten()
                .map(SupervisedDevice::lost)
                .sum::<u64>()
    }
}

/// One end of a connection: `(element slot, port)`.
type Port = (usize, usize);

/// One direction of the wiring, flattened at build time: the far ends of
/// every connection in one array, grouped by near end and in connection
/// order within a group. A transfer looks its targets up as a slice and
/// never copies them.
#[derive(Debug)]
struct PortTable {
    /// Element `e`'s ports are `spans[base[e]..base[e + 1]]`.
    base: Vec<usize>,
    /// Per port: `(start, len)` of its group in `peers`.
    spans: Vec<(usize, usize)>,
    peers: Vec<Port>,
}

impl PortTable {
    /// The output-side and input-side tables of `graph`, with element
    /// ids mapped to slot numbers through `index`.
    fn pair(
        graph: &RouterGraph,
        index: &HashMap<click_core::graph::ElementId, usize>,
    ) -> (PortTable, PortTable) {
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        for c in graph.connections() {
            let from = (index[&c.from.element], c.from.port);
            let to = (index[&c.to.element], c.to.port);
            fwd.push((from, to));
            rev.push((to, from));
        }
        let n = index.len();
        (PortTable::build(n, &fwd), PortTable::build(n, &rev))
    }

    /// Counting sort of `(near, far)` edges by near end; stable, so each
    /// group keeps connection order.
    fn build(n: usize, edges: &[(Port, Port)]) -> PortTable {
        let mut base = vec![0; n + 1];
        for &((e, port), _) in edges {
            base[e + 1] = base[e + 1].max(port + 1);
        }
        for e in 0..n {
            base[e + 1] += base[e];
        }
        let mut spans = vec![(0, 0); base[n]];
        for &((e, port), _) in edges {
            spans[base[e] + port].1 += 1;
        }
        let mut start = 0;
        for span in &mut spans {
            let len = span.1;
            *span = (start, 0);
            start += len;
        }
        let mut peers = vec![(0, 0); edges.len()];
        for &((e, port), far) in edges {
            let (start, len) = &mut spans[base[e] + port];
            peers[*start + *len] = far;
            *len += 1;
        }
        PortTable { base, spans, peers }
    }

    /// Number of ports of `e` up to its highest connected one.
    fn nports(&self, e: usize) -> usize {
        self.base[e + 1] - self.base[e]
    }

    /// What `(e, port)` is connected to; empty for an unconnected port.
    #[inline]
    fn peers(&self, e: usize, port: usize) -> &[Port] {
        if port >= self.nports(e) {
            return &[];
        }
        let (start, len) = self.spans[self.base[e] + port];
        &self.peers[start..start + len]
    }
}

/// One slot as the graph declared it. The configuration text is shared,
/// so a slot a hot swap reuses takes it into the next router uncopied,
/// and the swap after that compares against it.
#[derive(Debug)]
struct Decl {
    name: String,
    class: String,
    config: Rc<str>,
}

/// A running router.
///
/// Elements live in `Rc<RefCell<Box<dyn Element>>>` slots: packet
/// transfers borrow the target element in place, a failed re-borrow
/// detects configuration loops, and a hot swap hands an unchanged element
/// to the next router by sharing its slot. The same holds for what is
/// transferred: a [`Packet`] is an 8-byte handle to its block, so a hop
/// moves a pointer through the work stack and the emitter (24 and 16
/// bytes an entry), never the block.
///
/// `S` is a name only ([`Slot`]); every `Router<S>` is the same router.
pub struct Router<S: Slot = Box<dyn Element>> {
    slots: Vec<Rc<RefCell<Box<dyn Element>>>>,
    names: HashMap<String, usize>,
    decls: Vec<Decl>,
    /// Output port -> downstream input ports (the push direction).
    outputs: PortTable,
    /// Input port -> upstream output ports (the pull direction).
    inputs: PortTable,
    tasks: Vec<usize>,
    /// Simulated devices.
    pub devices: DeviceBank,
    drops_unconnected: u64,
    drops_reentrant: u64,
    /// Drop counters of elements retired by past hot swaps, folded in so
    /// [`Router::total_drops`] stays monotonic when a dropping element
    /// (e.g. a rolled-back `FaultInject`) leaves the configuration.
    drops_retired: u64,
    /// What this router's hot swaps did; carried across each of them.
    swap: SwapGauges,
    batching: bool,
    batch_burst: usize,
    /// The push engines' run state, owned by the router so steady-state
    /// forwarding reuses it: the depth-first work stack of `(element,
    /// input port, payload)` transfers and the emitter elements write
    /// into, per engine. All four are empty between runs — only their
    /// capacity (and `batch_out`'s free list, where tasks also get their
    /// scratch batches) persists. A run moves its pair into locals and
    /// puts it back when done, so the loop keeps them in registers and a
    /// nested run would merely start from fresh ones.
    push_stack: Vec<(usize, usize, Packet)>,
    push_out: Emitter,
    batch_stack: Vec<(usize, usize, PacketBatch)>,
    batch_out: BatchEmitter,
    telem: RouterTelemetry,
    /// Which worker shard this engine is (0 for a serial router); a hot
    /// swap rebuilds the replacement engine in the same shard.
    shard: usize,
    _slot: PhantomData<S>,
}

/// The router, with its element store spelled out.
pub type DynRouter = Router<Box<dyn Element>>;

impl<S: Slot> Router<S> {
    /// Instantiates a router from a configuration graph.
    ///
    /// # Errors
    ///
    /// Returns the first check error if the configuration is invalid, or a
    /// configuration error from an element constructor.
    pub fn from_graph(graph: &RouterGraph, library: &Library) -> Result<Router<S>> {
        Router::from_graph_in_shard(graph, library, 0)
    }

    /// Instantiates a router that knows it is worker shard `shard` of a
    /// sharded runtime: element constructors see the shard index through
    /// [`CreateCtx::shard`], so shard-scoped elements (`FaultInject` with
    /// a `SHARD` clause) can tell which clone they are. A serial router
    /// is shard 0.
    ///
    /// # Errors
    ///
    /// Same as [`Router::from_graph`].
    pub fn from_graph_in_shard(
        graph: &RouterGraph,
        library: &Library,
        shard: usize,
    ) -> Result<Router<S>> {
        Router::build(graph, library, shard, None).map(|(router, _)| router)
    }

    /// Builds a router for `graph` in worker shard `shard`. With a
    /// `donor`, each element the [`TransferPlan`] reuses is the donor's
    /// own slot, shared rather than taken, so the donor runs on
    /// untouched until the caller drops it; without one, every element
    /// is fresh.
    fn build(
        graph: &RouterGraph,
        library: &Library,
        shard: usize,
        donor: Option<&Router<S>>,
    ) -> Result<(Router<S>, TransferPlan)> {
        let report = validate(graph, library);
        if !report.is_ok() {
            // Join every error diagnostic: a rejected config (especially on
            // the hot-swap path) should surface all of its problems at
            // once, and this avoids assuming the report is non-empty.
            let msgs: Vec<String> = report.errors().map(ToString::to_string).collect();
            return Err(Error::check(msgs.join("; ")));
        }

        let ids: Vec<_> = graph.element_ids().collect();
        let index: HashMap<_, _> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let n = ids.len();
        let rows: Vec<(&str, &str, &str)> = (ids.iter().map(|&id| graph.element(id)))
            .map(|d| (d.name(), d.class(), d.config()))
            .collect();
        let plan = TransferPlan::compute(&donor.map_or_else(Vec::new, Router::rows), &rows);
        let mut reuse = vec![None; n];
        for &(oi, ni) in &plan.reused {
            reuse[ni] = donor.map(|old| (&old.slots[oi], &old.decls[oi].config));
        }

        let mut ctx = CreateCtx::for_shard(shard);
        let mut slots = Vec::with_capacity(n);
        let mut decls = Vec::with_capacity(n);
        for (&(name, class, config), reused) in rows.iter().zip(reuse) {
            let (slot, config) = match reused {
                Some((slot, config)) => (Rc::clone(slot), Rc::clone(config)),
                None => (
                    Rc::new(RefCell::new(create_element(class, config, &mut ctx)?)),
                    Rc::from(config),
                ),
            };
            slots.push(slot);
            decls.push(Decl {
                name: name.to_owned(),
                class: class.to_owned(),
                config,
            });
        }
        let names = (decls.iter().enumerate())
            .map(|(i, d)| (d.name.clone(), i))
            .collect();

        let (outputs, inputs) = PortTable::pair(graph, &index);

        let tasks: Vec<usize> = (0..n).filter(|&i| slots[i].borrow().is_task()).collect();

        let mut router = Router {
            slots,
            names,
            decls,
            outputs,
            inputs,
            tasks,
            devices: DeviceBank::from_map(ctx.devices),
            drops_unconnected: 0,
            drops_reentrant: 0,
            drops_retired: 0,
            swap: SwapGauges::default(),
            batching: false,
            batch_burst: crate::elements::device::BURST,
            push_stack: Vec::new(),
            push_out: Emitter::new(),
            batch_stack: Vec::new(),
            batch_out: BatchEmitter::new(),
            telem: RouterTelemetry::new(n),
            shard,
            _slot: PhantomData,
        };
        router.wire_red_elements();
        Ok((router, plan))
    }

    /// `(name, class, config)` of every element, in slot order — the
    /// table [`TransferPlan::compute`] matches on.
    fn rows(&self) -> Vec<(&str, &str, &str)> {
        (self.decls.iter())
            .map(|d| (d.name.as_str(), d.class.as_str(), &*d.config))
            .collect()
    }

    /// The class of an element with any devirtualization mangling
    /// stripped.
    fn base_class(&self, elem: usize) -> &str {
        let class = &self.decls[elem].class;
        devirt_base(class).unwrap_or(class)
    }

    /// RED elements need the depth handle of the nearest downstream
    /// storage element (Click finds its `Storage` the same way). `RED` is
    /// in [`crate::swap::ALWAYS_REBUILT`], so this only ever attaches to
    /// an element this build created.
    fn wire_red_elements(&mut self) {
        for i in 0..self.slots.len() {
            if self.base_class(i) != "RED" {
                continue;
            }
            // BFS downstream for a queue-depth handle.
            let mut seen = vec![false; self.slots.len()];
            let mut queue = VecDeque::from([i]);
            let mut handle = None;
            while let Some(e) = queue.pop_front() {
                if seen[e] {
                    continue;
                }
                seen[e] = true;
                if e != i {
                    if let Some(h) = self.slots[e].borrow().queue_depth_handle() {
                        handle = Some(h);
                        break;
                    }
                }
                for port in 0..self.outputs.nports(e) {
                    queue.extend(self.outputs.peers(e, port).iter().map(|&(te, _)| te));
                }
            }
            if let Some(h) = handle {
                self.slots[i].borrow_mut().attach_downstream_queue(h);
            }
        }
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.slots.len()
    }

    /// Finds an element index by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.names.get(name).copied()
    }

    /// The class name of an element.
    pub fn class_of(&self, elem: usize) -> &str {
        &self.decls[elem].class
    }

    /// Reads a named statistic from an element.
    pub fn stat(&self, element: &str, stat: &str) -> Option<u64> {
        let idx = self.find(element)?;
        let v = self.slots[idx].borrow().stat(stat);
        v
    }

    /// Sum of a statistic across all elements of a class.
    pub fn class_stat(&self, class: &str, stat: &str) -> u64 {
        (0..self.slots.len())
            .filter(|&i| self.base_class(i) == class)
            .filter_map(|i| self.slots[i].borrow().stat(stat))
            .sum()
    }

    /// Packets dropped because they were emitted on unconnected ports.
    pub fn unconnected_drops(&self) -> u64 {
        self.drops_unconnected
    }

    /// Packets dropped because a transfer re-entered an element already on
    /// the call stack (a configuration loop).
    pub fn reentrant_drops(&self) -> u64 {
        self.drops_reentrant
    }

    /// The router's aggregate drop gauge: every element's `drops`
    /// statistic plus the engine's unconnected/reentrant drops. Monotonic
    /// across a hot swap (reused elements keep their counters, rebuilt
    /// matched ones take theirs over, the engine drops transfer, and
    /// retired elements' drop counters fold into a carryover gauge),
    /// which is what makes it usable as the
    /// canary-regression signal in
    /// [`crate::parallel::ParallelRouter::hot_swap`] and as the
    /// probation signal of the `click-morph` reoptimization loop.
    pub fn total_drops(&self) -> u64 {
        let elem: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.borrow().stat("drops"))
            .sum();
        elem + self.drops_unconnected
            + self.drops_reentrant
            + self.drops_retired
            + self.devices.lost_packets()
    }

    /// The serial runtime's gauge sections: its device backends and the
    /// hot swaps it went through. Always live.
    pub fn gauges(&self) -> Gauges {
        Gauges {
            devices: self.devices.device_gauges(),
            swap: Some(self.swap),
            ..Gauges::default()
        }
    }

    /// Atomically replaces the running configuration with `new_graph`,
    /// keeping what did not change ([`TransferPlan`]): an element with the
    /// same name, base class and configuration text is *reused* — the
    /// object itself moves into the new engine with its counters, queue,
    /// tables and per-element telemetry. Only new and changed elements
    /// are constructed; a changed one takes over its predecessor's
    /// counters and buffered packets through
    /// [`Element::take_state`]/[`Element::restore_state`]. Device RX/TX
    /// queues move by device name, engine drop gauges stay monotonic, and
    /// the telemetry switch carries over.
    ///
    /// The caller must have drained in-flight work first — for a serial
    /// router that simply means calling this between transfers, since
    /// nothing is in flight outside [`Router::run_until_idle`]. `Queue`
    /// contents intentionally survive (they are the state being
    /// preserved, not in-flight work).
    ///
    /// The swap is all-or-nothing: `new_graph` is validated by
    /// [`click_core::check::validate`] and its new elements are constructed,
    /// with reused ones shared, *before* any state moves, so on error the
    /// old configuration keeps running untouched.
    ///
    /// # Errors
    ///
    /// [`Error::Check`] with every check diagnostic when `new_graph` is
    /// invalid; element-construction errors otherwise. The old
    /// configuration is unchanged in both cases.
    pub fn hot_swap(&mut self, new_graph: &RouterGraph, library: &Library) -> Result<SwapReport> {
        let (mut next, plan) = Router::build(new_graph, library, self.shard, Some(self))
            .inspect_err(|_| self.swap.rejected_configs += 1)?;
        next.set_batching(self.batching);
        next.set_batch_burst(self.batch_burst);

        let mut transferred = 0u64;
        let mut dropped = 0u64;
        let mut retired_drops = 0u64;
        for &(oi, ni) in &plan.matched {
            let state = self.slots[oi].borrow_mut().take_state();
            match state {
                Some(state) => {
                    transferred += state.packets.len() as u64;
                    next.slots[ni].borrow_mut().restore_state(state);
                }
                // No state surface (`Classifier`, `DropBroadcasts`, ...):
                // the successor counts from zero, so the predecessor's
                // drops join the carryover like a retired element's.
                None => retired_drops += self.slots[oi].borrow().stat("drops").unwrap_or(0),
            }
        }
        for &oi in &plan.retired {
            // A retired element's lifetime drops would silently leave
            // the aggregate gauge; remember them so `total_drops` stays
            // monotonic (the swap's own losses are counted separately).
            retired_drops += self.slots[oi].borrow().stat("drops").unwrap_or(0);
            if let Some(state) = self.slots[oi].borrow_mut().take_state() {
                dropped += state.packets.len() as u64;
                state.recycle_packets();
            }
        }

        let (moved, orphaned) = next.devices.adopt(&mut self.devices);
        transferred += moved;
        dropped += orphaned;

        // Engine gauges stay monotonic across the swap.
        next.drops_unconnected += self.drops_unconnected;
        next.drops_reentrant += self.drops_reentrant;
        next.drops_retired += self.drops_retired + retired_drops;
        next.telem.transfer_from(&mut self.telem, &plan);
        next.swap = SwapGauges {
            swaps: self.swap.swaps + 1,
            packets_transferred: self.swap.packets_transferred + transferred,
            ..self.swap
        };

        let report = SwapReport {
            reused: plan.reused.len(),
            matched: plan.matched.len(),
            fresh: plan.fresh.len(),
            retired: plan.retired.len(),
            packets_transferred: transferred,
            packets_dropped: dropped,
            swapped_shards: 1,
            ..SwapReport::default()
        };
        *self = next;
        Ok(report)
    }

    // ---- checkpoint/restore ---------------------------------------------

    /// Cuts a consistent snapshot of every element's state and the
    /// device bank's pending traffic **without disturbing the running
    /// router**: each element's state is taken over the hot-swap surface
    /// ([`Element::take_state`]), copied into plain-data records, and
    /// handed straight back with its counters cleared — so `+=`-style
    /// restores are no-ops, queued packets return home, and RNG state is
    /// untouched.
    ///
    /// The caller must be between transfers (a serial router always is,
    /// outside [`Router::run_until_idle`]); the reported `quiesce_ns` is
    /// the wall-clock cost of the state walk — the pause the data plane
    /// experiences.
    pub fn checkpoint_snapshot(&mut self) -> EngineSnapshot {
        let t0 = std::time::Instant::now();
        let mut elements = Vec::new();
        for (slot, decl) in self.slots.iter().zip(&self.decls) {
            let mut el = slot.borrow_mut();
            if let Some(mut state) = el.take_state() {
                elements.push(ElementRecord::from_state(&decl.name, &decl.class, &state));
                // Hand everything back: cleared counters make the
                // element's `+=` restore a no-op, while packets return
                // home.
                state.counters.clear();
                el.restore_state(state);
            }
        }
        let devices = self.devices.pending_records();
        EngineSnapshot {
            elements,
            devices,
            total_drops: self.total_drops(),
            quiesce_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Applies checkpoint records to this (freshly built) router:
    /// element records land on same-name, same-base-class elements
    /// (devirtualized names normalize, exactly as in a hot-swap transfer
    /// plan), device records refill the pending RX/TX queues by name,
    /// and the engine's drop ledger is topped up to `target_drops` — so
    /// the aggregate drop gauge resumes exactly where the checkpointed
    /// incarnation left it, with orphaned records counted as retired
    /// drops rather than silently vanishing.
    pub fn restore_records(
        &mut self,
        elements: &[ElementRecord],
        devices: &[DeviceRecord],
        target_drops: u64,
    ) -> RestoreStats {
        let mut stats = RestoreStats::default();
        for rec in elements {
            match self.find(&rec.name) {
                Some(i) if self.base_class(i) == devirt_base(&rec.class).unwrap_or(&rec.class) => {
                    let state = rec.to_state();
                    stats.packets_restored += state.packets.len() as u64;
                    self.slots[i].borrow_mut().restore_state(state);
                    stats.matched += 1;
                }
                _ => {
                    stats.unmatched += 1;
                    stats.packets_orphaned += rec.packets.len() as u64;
                }
            }
        }
        for dev in devices {
            match self.devices.id(&dev.name) {
                Some(id) => {
                    stats.packets_restored += (dev.rx.len() + dev.tx.len()) as u64;
                    for pr in &dev.rx {
                        self.devices.inject(id, pr.to_packet());
                    }
                    for pr in &dev.tx {
                        self.devices.tx_push(id, pr.to_packet());
                    }
                }
                None => stats.packets_orphaned += (dev.rx.len() + dev.tx.len()) as u64,
            }
        }
        // Resume the monotonic drop ledger exactly at the checkpoint's
        // value; whatever this incarnation cannot re-home is a retired
        // drop of its own.
        let have = self.total_drops();
        stats.drops_topped_up = target_drops.saturating_sub(have);
        self.drops_retired += stats.drops_topped_up + stats.packets_orphaned;
        stats
    }

    // ---- telemetry -------------------------------------------------------

    /// Per-element telemetry snapshots, one per element instance, in slot
    /// order. Counters cover what ran while the switch was on
    /// ([`Router::set_telemetry`]); a router never armed hands out names
    /// and classes with zeroes.
    pub fn telemetry_profiles(&self) -> Vec<ElementProfile> {
        let mut out: Vec<ElementProfile> = (self.decls.iter())
            .map(|d| ElementProfile::new(&d.name, &d.class))
            .collect();
        self.telem.fill(&mut out);
        out
    }

    /// Arms or disarms per-element telemetry (off in a new router). Off,
    /// every probe on the transfer path is one untaken branch and the
    /// counters keep what they held.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telem.set_enabled(on);
    }

    // ---- batch mode ------------------------------------------------------

    /// Switches the execution engine between per-packet transfers (the
    /// paper's model) and batched transfers (VPP-style vector processing).
    /// Task elements never see the flag: they move a burst through the
    /// router's [`TaskContext`], which sends it on one packet per hop
    /// (`device::BURST` packets per quantum) or as one [`PacketBatch`]
    /// per hop ([`batch_burst`](Router::batch_burst) packets per quantum).
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// True if the batched engine is active.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Sets how many packets tasks move per scheduling quantum in batch
    /// mode (defaults to the device `BURST`).
    pub fn set_batch_burst(&mut self, burst: usize) {
        self.batch_burst = burst.max(1);
    }

    /// Packets tasks move per scheduling quantum in batch mode.
    pub fn batch_burst(&self) -> usize {
        self.batch_burst
    }

    // ---- push path -----------------------------------------------------

    /// Delivers a packet to an element's input port and runs the push
    /// chain to completion.
    pub fn push_to(&mut self, elem: usize, port: usize, p: Packet) {
        let mut stack = std::mem::take(&mut self.push_stack);
        stack.push((elem, port, p));
        self.run_push_stack(stack);
    }

    /// Pushes a packet out of an element's output port (runs whatever is
    /// connected downstream).
    pub fn push_from(&mut self, elem: usize, out_port: usize, p: Packet) {
        let mut stack = std::mem::take(&mut self.push_stack);
        self.enqueue_targets(elem, out_port, p, &mut stack);
        self.run_push_stack(stack);
    }

    /// Runs `stack` (the router's own, taken by the caller) to completion
    /// and puts it back.
    fn run_push_stack(&mut self, mut stack: Vec<(usize, usize, Packet)>) {
        // A generous hop budget breaks configuration cycles (a -> b -> a):
        // the stack-based engine releases each element's borrow between
        // hops, so a pure re-entrancy check cannot see loops.
        let mut budget = 64 + self.slots.len() * 64;
        let mut out = std::mem::take(&mut self.push_out);
        while let Some((e, port, p)) = stack.pop() {
            if budget == 0 {
                self.drops_reentrant += 1;
                p.recycle();
                continue;
            }
            budget -= 1;
            {
                let Ok(mut el) = self.slots[e].try_borrow_mut() else {
                    self.drops_reentrant += 1;
                    p.recycle();
                    continue;
                };
                let bytes = self.telem.packet_bytes(&p);
                self.telem.enter();
                el.push(port, p, &mut out);
                self.telem.exit(e, 1, bytes);
            }
            // Emissions pop in reverse straight onto the stack, so the
            // first-emitted packet is processed first (depth-first, like
            // Click's call chain).
            while let Some((oport, pkt)) = out.pop() {
                self.enqueue_targets(e, oport, pkt, &mut stack);
            }
        }
        self.push_stack = stack;
        self.push_out = out;
    }

    #[inline]
    fn enqueue_targets(
        &mut self,
        e: usize,
        oport: usize,
        pkt: Packet,
        stack: &mut Vec<(usize, usize, Packet)>,
    ) {
        self.telem.record_out(e, oport, 1);
        let Some((&(le, lp), rest)) = self.outputs.peers(e, oport).split_last() else {
            self.drops_unconnected += 1;
            pkt.recycle();
            return;
        };
        // Fan-out: pooled clones in connection order, the original to the
        // last target (which is therefore processed first).
        for &(te, tp) in rest {
            stack.push((te, tp, pkt.clone()));
        }
        stack.push((le, lp, pkt));
    }

    // ---- batched push path ----------------------------------------------

    /// Delivers a whole batch to an element's input port and runs the
    /// batched push chain to completion.
    pub fn push_batch_to(&mut self, elem: usize, port: usize, batch: PacketBatch) {
        if batch.is_empty() {
            return;
        }
        let mut stack = std::mem::take(&mut self.batch_stack);
        stack.push((elem, port, batch));
        self.run_batch_stack(stack);
    }

    /// Pushes a whole batch out of an element's output port.
    pub fn push_batch_from(&mut self, elem: usize, out_port: usize, batch: PacketBatch) {
        if batch.is_empty() {
            return;
        }
        let mut stack = std::mem::take(&mut self.batch_stack);
        let mut out = std::mem::take(&mut self.batch_out);
        self.enqueue_targets_batch(elem, out_port, batch, &mut stack, &mut out);
        self.batch_out = out;
        self.run_batch_stack(stack);
    }

    /// Runs `stack` (the router's own, taken by the caller) to completion
    /// and puts it back.
    fn run_batch_stack(&mut self, mut stack: Vec<(usize, usize, PacketBatch)>) {
        // Same hop budget as the scalar engine, but per batch hop: a loop
        // is broken after the same number of transfers, dropping whole
        // batches.
        let mut budget = 64 + self.slots.len() * 64;
        let mut out = std::mem::take(&mut self.batch_out);
        while let Some((e, port, batch)) = stack.pop() {
            if budget == 0 {
                self.drops_reentrant += discard_batch(batch, &mut out);
                continue;
            }
            budget -= 1;
            {
                let Ok(mut el) = self.slots[e].try_borrow_mut() else {
                    self.drops_reentrant += discard_batch(batch, &mut out);
                    continue;
                };
                let (packets, bytes) = self.telem.batch_volume_from(&batch, 0);
                self.telem.enter();
                el.push_batch(port, batch, &mut out);
                self.telem.exit(e, packets, bytes);
            }
            // Groups pop in reverse emission order; pushing them onto the
            // stack leaves the first-emitted group on top, so processing
            // stays depth-first like the scalar engine.
            while let Some((oport, b)) = out.pop_group() {
                self.enqueue_targets_batch(e, oport, b, &mut stack, &mut out);
            }
        }
        self.batch_stack = stack;
        self.batch_out = out;
    }

    fn enqueue_targets_batch(
        &mut self,
        e: usize,
        oport: usize,
        batch: PacketBatch,
        stack: &mut Vec<(usize, usize, PacketBatch)>,
        out: &mut BatchEmitter,
    ) {
        self.telem.record_out(e, oport, batch.len() as u64);
        let Some((&(le, lp), rest)) = self.outputs.peers(e, oport).split_last() else {
            self.drops_unconnected += discard_batch(batch, out);
            return;
        };
        // Fan-out as in the scalar engine: pooled clones on recycled
        // storage in connection order, the original to the last target.
        for &(te, tp) in rest {
            let mut nb = out.take_storage();
            nb.extend(batch.iter().cloned());
            stack.push((te, tp, nb));
        }
        stack.push((le, lp, batch));
    }

    // ---- pull path -----------------------------------------------------

    /// Pulls a packet into an element's input port from whatever is
    /// connected upstream.
    pub fn pull_input_of(&mut self, elem: usize, in_port: usize) -> Option<Packet> {
        let &(se, sp) = self.inputs.peers(elem, in_port).first()?;
        self.pull_output_of(se, sp)
    }

    /// Asks an element to produce a packet on one of its output ports.
    pub fn pull_output_of(&mut self, elem: usize, out_port: usize) -> Option<Packet> {
        let cell = Rc::clone(&self.slots[elem]);
        let mut el = cell.try_borrow_mut().ok()?; // Err: re-entered a puller
        self.telem.enter();
        let p = {
            let mut ctx = RouterPullCtx { router: self, elem };
            el.pull(out_port, &mut ctx)
        };
        match &p {
            Some(pkt) => {
                let bytes = self.telem.packet_bytes(pkt);
                self.telem.exit(elem, 1, bytes);
                self.telem.record_out(elem, out_port, 1);
            }
            None => self.telem.exit(elem, 0, 0),
        }
        p
    }

    /// Pulls up to `max` packets into an element's input port in one
    /// batched transfer; returns how many arrived.
    pub fn pull_batch_input_of(
        &mut self,
        elem: usize,
        in_port: usize,
        max: usize,
        into: &mut PacketBatch,
    ) -> usize {
        let Some(&(se, sp)) = self.inputs.peers(elem, in_port).first() else {
            return 0;
        };
        self.pull_batch_output_of(se, sp, max, into)
    }

    /// Asks an element to produce up to `max` packets on an output port.
    pub fn pull_batch_output_of(
        &mut self,
        elem: usize,
        out_port: usize,
        max: usize,
        into: &mut PacketBatch,
    ) -> usize {
        let cell = Rc::clone(&self.slots[elem]);
        let Ok(mut el) = cell.try_borrow_mut() else {
            return 0;
        };
        let before = into.len();
        self.telem.enter();
        let n = {
            let mut ctx = RouterPullCtx { router: self, elem };
            el.pull_batch(out_port, max, &mut ctx, into)
        };
        let (packets, bytes) = self.telem.batch_volume_from(into, before);
        self.telem.exit(elem, packets, bytes);
        if n > 0 {
            self.telem.record_out(elem, out_port, n as u64);
        }
        n
    }

    // ---- task scheduling -------------------------------------------------

    /// Runs every task element once; returns packets moved.
    pub fn run_tasks_once(&mut self) -> usize {
        let mut moved = 0;
        for i in 0..self.tasks.len() {
            let t = self.tasks[i];
            let cell = Rc::clone(&self.slots[t]);
            let Ok(mut el) = cell.try_borrow_mut() else {
                continue;
            };
            self.telem.enter();
            let n = {
                let mut ctx = RouterTaskCtx {
                    router: self,
                    elem: t,
                };
                el.run_task(&mut ctx)
            };
            // Task self time excludes the downstream chain: pushes the
            // task emits re-enter the engine and open their own frames.
            self.telem.exit(t, n as u64, 0);
            moved += n;
        }
        moved
    }

    /// Runs tasks until quiescent (or `max_rounds`); returns total packets
    /// moved. This is the "constantly-active kernel thread" loop.
    pub fn run_until_idle(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let moved = self.run_tasks_once();
            if moved == 0 {
                break;
            }
            total += moved;
        }
        total
    }

    /// Runs the router over its real device backends: each round pumps
    /// frames backend -> RX, schedules tasks until idle, and drains TX ->
    /// backend, until the drain finds nothing more to receive (trace
    /// exhausted, TX flushed or accounted lost) or `max_rounds` passes.
    /// Returns the cumulative pump totals.
    ///
    /// With no backends attached this returns immediately — the
    /// simulated harness loops stay in charge.
    pub fn run_with_devices(&mut self, max_rounds: usize) -> PumpStats {
        let mut totals = PumpStats::default();
        if !self.devices.has_backends() {
            return totals;
        }
        let burst = self.batch_burst.max(crate::elements::device::BURST);
        for _ in 0..max_rounds {
            let round = self.devices.pump(burst);
            let moved = self.run_until_idle(max_rounds);
            // A final drain so TX produced this round reaches the wire
            // without waiting for the next pump.
            let drain = self.devices.pump(burst);
            totals.absorb(round);
            totals.absorb(drain);
            // The drain polled every RX after sending: with nothing
            // received, lost or parked there is nothing left to move. A
            // parked frame (blocked device, drain deadline running) waits
            // for a whole round to move nothing.
            let settled = drain.rx == 0 && drain.lost == 0 && self.devices.tx_backlog() == 0;
            if settled || (round.idle() && drain.idle() && moved == 0) {
                break;
            }
        }
        totals
    }
}

/// An engine-side drop of a whole batch: packets back to the pool,
/// storage back to the emitter's free list; returns the packet count.
fn discard_batch(mut batch: PacketBatch, out: &mut BatchEmitter) -> u64 {
    let n = batch.len() as u64;
    batch.recycle_packets();
    out.recycle_storage(batch);
    n
}

impl<S: Slot> CheckpointEngine for Router<S> {
    fn checkpoint_snapshot(&mut self) -> Result<EngineSnapshot> {
        Ok(Router::checkpoint_snapshot(self))
    }

    fn checkpoint_restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        Ok(self.restore_records(&ckpt.elements, &ckpt.devices, ckpt.ledger.drops))
    }
}

struct RouterPullCtx<'a, S: Slot> {
    router: &'a mut Router<S>,
    elem: usize,
}

impl<S: Slot> PullContext for RouterPullCtx<'_, S> {
    fn pull(&mut self, port: usize) -> Option<Packet> {
        self.router.pull_input_of(self.elem, port)
    }
    fn push_out(&mut self, port: usize, p: Packet) {
        self.router.push_from(self.elem, port, p)
    }
    fn ninputs(&self) -> usize {
        self.router.inputs.nports(self.elem)
    }
}

struct RouterTaskCtx<'a, S: Slot> {
    router: &'a mut Router<S>,
    elem: usize,
}

/// The one place a task's burst meets the transfer mode: per-packet,
/// each packet takes its own trip through `push`/`pull`; batched, the
/// burst moves as one batch per hop.
impl<S: Slot> TaskContext for RouterTaskCtx<'_, S> {
    fn burst(&self) -> usize {
        if self.router.batching {
            self.router.batch_burst
        } else {
            crate::elements::device::BURST
        }
    }
    fn rx_pop_batch(&mut self, dev: DeviceId, max: usize, into: &mut PacketBatch) -> usize {
        self.router.devices.rx_pop_batch(dev, max, into)
    }
    fn emit_batch(&mut self, port: usize, batch: &mut PacketBatch) {
        if self.router.batching {
            let owned = std::mem::take(batch);
            self.router.push_batch_from(self.elem, port, owned);
            // Hand the task fresh storage from the engine free list so its
            // scratch batch keeps a warmed-up capacity.
            *batch = self.router.batch_out.take_storage();
        } else {
            for p in batch.drain() {
                self.router.push_from(self.elem, port, p);
            }
        }
    }
    fn pull_batch(&mut self, port: usize, max: usize, into: &mut PacketBatch) -> usize {
        if self.router.batching {
            return self.router.pull_batch_input_of(self.elem, port, max, into);
        }
        let mut n = 0;
        while n < max {
            let Some(p) = self.router.pull_input_of(self.elem, port) else {
                break;
            };
            into.push(p);
            n += 1;
        }
        n
    }
    fn tx_push_batch(&mut self, dev: DeviceId, batch: &mut PacketBatch) {
        self.router.devices.tx_push_batch(dev, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;

    fn dyn_router(src: &str) -> DynRouter {
        let graph = read_config(src).unwrap();
        Router::from_graph(&graph, &Library::standard()).unwrap()
    }

    #[test]
    fn simple_push_chain() {
        let mut r = dyn_router("src :: Idle; c :: Counter; d :: Discard; src -> c -> d;");
        let c = r.find("c").unwrap();
        r.push_to(c, 0, Packet::new(60));
        r.push_to(c, 0, Packet::new(60));
        assert_eq!(r.stat("c", "count"), Some(2));
        assert_eq!(r.stat("d", "count"), Some(2));
    }

    #[test]
    fn invalid_config_rejected() {
        let graph = read_config("FromDevice(0) -> ToDevice(0);").unwrap();
        assert!(DynRouter::from_graph(&graph, &Library::standard()).is_err());
    }

    #[test]
    fn classifier_fans_out() {
        let mut r = dyn_router(
            "src :: Idle; c :: Classifier(12/0800, -); a :: Counter; b :: Counter; \
             d1 :: Discard; d2 :: Discard; \
             src -> c; c [0] -> a -> d1; c [1] -> b -> d2;",
        );
        let c = r.find("c").unwrap();
        let mut ip = Packet::new(60);
        ip.data_mut()[12] = 0x08;
        r.push_to(c, 0, ip);
        r.push_to(c, 0, Packet::new(60));
        assert_eq!(r.stat("a", "count"), Some(1));
        assert_eq!(r.stat("b", "count"), Some(1));
    }

    #[test]
    fn unconnected_emission_counts_as_drop() {
        // CheckIPHeader's bad output is unconnected: the bad packet is
        // dropped by the engine.
        let mut r = dyn_router("i :: Idle; chk :: CheckIPHeader; d :: Discard; i -> chk -> d;");
        let chk = r.find("chk").unwrap();
        r.push_to(chk, 0, Packet::from_data(&[0u8; 10])); // invalid IP
        assert_eq!(r.unconnected_drops(), 1);
        assert_eq!(r.stat("d", "count"), Some(0));
    }

    #[test]
    fn queue_to_device_pull_path() {
        let mut r = dyn_router("FromDevice(in0) -> q :: Queue(8) -> ToDevice(out0);");
        let in0 = r.devices.id("in0").unwrap();
        let out0 = r.devices.id("out0").unwrap();
        for _ in 0..5 {
            r.devices.inject(in0, Packet::new(60));
        }
        r.run_until_idle(100);
        assert_eq!(r.devices.tx_len(out0), 5);
        assert_eq!(r.stat("q", "drops"), Some(0));
    }

    #[test]
    fn a_source_burst_is_one_batch_hop_in_batch_mode() {
        // The task only moves a burst; the router sends it on as one batch
        // per hop when batching, one packet per hop when not.
        const N: u64 = 100;
        for (batching, burst, calls) in [
            (true, 16, N.div_ceil(16)),
            (true, 64, N.div_ceil(64)),
            (false, 64, N),
        ] {
            let mut r = dyn_router(&format!("InfiniteSource({N}) -> c :: Counter -> Discard;"));
            r.set_batching(batching);
            r.set_batch_burst(burst);
            r.set_telemetry(true);
            r.run_until_idle(1000);
            let c = r.find("c").unwrap();
            let profile = &r.telemetry_profiles()[c];
            assert_eq!(profile.packets, N);
            assert_eq!(profile.calls, calls, "batching {batching}, burst {burst}");
        }
    }

    #[test]
    fn tee_duplicates_through_engine() {
        let mut r = dyn_router(
            "i :: Idle; t :: Tee(2); a :: Counter; b :: Counter; da :: Discard; db :: Discard; \
             i -> t; t [0] -> a -> da; t [1] -> b -> db;",
        );
        let t = r.find("t").unwrap();
        r.push_to(t, 0, Packet::new(60));
        assert_eq!(r.stat("a", "count"), Some(1));
        assert_eq!(r.stat("b", "count"), Some(1));
    }

    #[test]
    fn pull_through_agnostic_element() {
        let mut r =
            dyn_router("FromDevice(in0) -> q :: Queue(8) -> n :: Counter -> ToDevice(out0);");
        let in0 = r.devices.id("in0").unwrap();
        let out0 = r.devices.id("out0").unwrap();
        for _ in 0..3 {
            r.devices.inject(in0, Packet::new(60));
        }
        r.run_until_idle(100);
        assert_eq!(r.devices.tx_len(out0), 3);
        assert_eq!(r.stat("n", "count"), Some(3));
    }

    #[test]
    fn round_robin_scheduler_alternates() {
        let mut r = dyn_router(
            "FromDevice(a) -> q1 :: Queue(8); FromDevice(b) -> q2 :: Queue(8); \
             q1 -> [0] s :: RoundRobinSched; q2 -> [1] s; s -> ToDevice(out);",
        );
        let a = r.devices.id("a").unwrap();
        let b = r.devices.id("b").unwrap();
        let out = r.devices.id("out").unwrap();
        for i in 0..4u8 {
            r.devices.inject(a, Packet::from_data(&[0xA0 + i]));
            r.devices.inject(b, Packet::from_data(&[0xB0 + i]));
        }
        r.run_until_idle(100);
        let tx = r.devices.take_tx(out);
        assert_eq!(tx.len(), 8);
        // Strict alternation between the two queues.
        let sides: Vec<u8> = tx.iter().map(|p| p.data()[0] & 0xF0).collect();
        for w in sides.windows(2) {
            assert_ne!(w[0], w[1], "round robin should alternate: {sides:?}");
        }
    }

    #[test]
    fn red_attaches_to_downstream_queue() {
        let mut r = dyn_router(
            "FromDevice(in0) -> red :: RED(1, 2, 1.0) -> q :: Queue(1000) -> ToDevice(out0);",
        );
        let in0 = r.devices.id("in0").unwrap();
        // Fill the queue without draining: inject many, run only the
        // FromDevice side by never letting ToDevice catch up is hard here,
        // so instead verify RED saw a live queue handle by pushing
        // packets through while the queue stays nonempty.
        for _ in 0..2000 {
            r.devices.inject(in0, Packet::new(60));
        }
        r.run_until_idle(10_000);
        // With thresholds (1, 2) and a drained queue RED may drop little;
        // the point is wiring happened (stat exists and engine ran).
        assert!(r.stat("red", "drops").is_some());
    }

    #[test]
    fn reentrant_loop_is_broken_not_hung() {
        // a -> b -> a is a push loop; the engine must drop rather than
        // recurse forever.
        let mut r = dyn_router("a :: Null; b :: Null; a -> b; b -> a;");
        let a = r.find("a").unwrap();
        r.push_to(a, 0, Packet::new(10));
        assert!(r.reentrant_drops() >= 1);
    }

    #[test]
    fn engine_drops_and_fan_out_keep_the_pool_whole() {
        use crate::packet::{drain_pool, pool_stats, reset_pool_stats};
        // CheckIPHeader's bad output is unconnected (an engine drop per
        // packet); Tee(3) is the 3-way fan-out.
        let mut r = dyn_router(
            "i :: Idle; chk :: CheckIPHeader; d :: Discard; i -> chk -> d; \
             j :: Idle; t :: Tee(3); j -> t; t [0] -> Queue(4) -> ToDevice(a); \
             t [1] -> Queue(4) -> ToDevice(b); t [2] -> Queue(4) -> ToDevice(c);",
        );
        let (chk, t) = (r.find("chk").unwrap(), r.find("t").unwrap());
        let frame: Vec<u8> = (0..60).collect();
        drain_pool();
        for round in 0..10_001 {
            if round == 1 {
                reset_pool_stats(); // round 0 was the warm-up
            }
            r.push_to(chk, 0, Packet::from_data(&[0u8; 10])); // invalid IP
            r.push_to(t, 0, Packet::from_data(&frame));
            r.run_until_idle(100);
            for dev in 0..3 {
                let tx = r.devices.take_tx(DeviceId(dev));
                assert_eq!(tx.len(), 1);
                assert_eq!(tx[0].data(), &frame[..], "every branch sees the bytes");
                tx.into_iter().for_each(Packet::recycle);
            }
        }
        assert_eq!(r.unconnected_drops(), 10_001);
        let s = pool_stats();
        assert_eq!((s.misses, s.dropped), (0, 0), "{s:?}");
    }

    /// The flat tables against the graph they were built from, under the
    /// mutation generator of `click_core::graph`'s own index test.
    #[test]
    fn port_tables_equal_the_graph_connections_in_order() {
        use click_core::graph::{Connection, ElementId, PortRef};
        for seed in 1..=8u64 {
            let mut lcg = click_core::Lcg::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rand = move |n: usize| lcg.below(n);
            let mut g = RouterGraph::new();
            for step in 0..600 {
                let live: Vec<ElementId> = g.element_ids().collect();
                let pick = |r: &mut dyn FnMut(usize) -> usize| live[r(live.len())];
                match rand(if live.len() < 2 { 1 } else { 16 }) {
                    0 | 1 => {
                        g.add_element(format!("e{step}"), "X", "").unwrap();
                    }
                    2..=8 => {
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        let to = PortRef::new(pick(&mut rand), rand(3));
                        let _ = g.connect(from, to);
                    }
                    9 | 10 => {
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        let to = PortRef::new(pick(&mut rand), rand(3));
                        g.disconnect(from, to);
                    }
                    11 => g.remove_element(pick(&mut rand)),
                    12 => {
                        let _ = g.splice_out(pick(&mut rand));
                    }
                    13 | 14 => {
                        let mid = g.add_element(format!("m{step}"), "M", "").unwrap();
                        let from = PortRef::new(pick(&mut rand), rand(3));
                        g.insert_after(from, mid).unwrap();
                    }
                    _ => g.compact(),
                }
                if step % 8 != 7 {
                    continue; // the scan below is quadratic; sample it
                }
                let ids: Vec<ElementId> = g.element_ids().collect();
                let index: HashMap<_, _> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
                let (outputs, inputs) = PortTable::pair(&g, &index);
                let far = |p: PortRef| (index[&p.element], p.port);
                for (slot, &id) in ids.iter().enumerate() {
                    assert_eq!(outputs.nports(slot), g.noutputs(id));
                    assert_eq!(inputs.nports(slot), g.ninputs(id));
                    // One port past the end too: unconnected, not a panic.
                    for port in 0..4 {
                        let along =
                            |near: fn(&Connection) -> PortRef,
                             other: fn(&Connection) -> PortRef| {
                                g.connections()
                                    .iter()
                                    .filter(|c| near(c) == PortRef::new(id, port))
                                    .map(|c| far(other(c)))
                                    .collect::<Vec<_>>()
                            };
                        assert_eq!(outputs.peers(slot, port), along(|c| c.from, |c| c.to));
                        assert_eq!(inputs.peers(slot, port), along(|c| c.to, |c| c.from));
                    }
                }
            }
            assert!(g.connections().len() > 10, "seed {seed} exercised nothing");
        }
    }

    #[test]
    fn tx_drain_and_recycle_feed_the_pool() {
        use crate::packet::{drain_pool, pool_stats, reset_pool_stats};
        let mut r = dyn_router("FromDevice(in0) -> q :: Queue(8) -> ToDevice(out0);");
        let in0 = r.devices.id("in0").unwrap();
        let out0 = r.devices.id("out0").unwrap();
        drain_pool();
        reset_pool_stats();
        for _ in 0..4 {
            r.devices.inject(in0, Packet::new(60));
        }
        r.run_until_idle(100);
        // Batched drain keeps order and empties the queue.
        let mut batch = PacketBatch::new();
        assert_eq!(r.devices.drain_tx_into(out0, &mut batch), 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(r.devices.tx_len(out0), 0);
        batch.recycle_packets();
        // recycle_tx sends buffers straight back to the pool.
        for _ in 0..3 {
            r.devices.inject(in0, Packet::new(60));
        }
        r.run_until_idle(100);
        let before = pool_stats().recycled;
        assert_eq!(r.devices.recycle_tx(out0), 3);
        assert_eq!(pool_stats().recycled, before + 3);
        // The next allocations are pool hits, not heap misses.
        reset_pool_stats();
        let p = Packet::new(60);
        assert_eq!(pool_stats().hits, 1);
        p.recycle();
    }

    #[test]
    fn stats_by_class() {
        let mut r = dyn_router(
            "i :: Idle; c1 :: Counter; c2 :: Counter; d :: Discard; i -> c1 -> c2 -> d;",
        );
        let c1 = r.find("c1").unwrap();
        r.push_to(c1, 0, Packet::new(10));
        assert_eq!(r.class_stat("Counter", "count"), 2);
    }

    #[test]
    fn stale_device_id_is_accounted_drop_not_panic() {
        let mut r = dyn_router("FromDevice(in0) -> Discard;");
        let bogus = DeviceId(99);
        r.devices.inject(bogus, Packet::new(60));
        r.devices.tx_push(bogus, Packet::new(60));
        assert_eq!(r.devices.rx_pop(bogus).map(|p| p.recycle()), None);
        assert_eq!(r.devices.rx_len(bogus), 0);
        assert_eq!(r.devices.tx_len(bogus), 0);
        assert_eq!(r.devices.take_tx(bogus).len(), 0);
        let mut batch = PacketBatch::new();
        assert_eq!(r.devices.drain_tx_into(bogus, &mut batch), 0);
        assert_eq!(r.devices.recycle_tx(bogus), 0);
        assert_eq!(r.devices.lost_packets(), 2);
        assert_eq!(r.total_drops(), 2);
    }

    #[test]
    fn backend_pump_feeds_router_and_drains_tx() {
        use crate::iodev::MemBackend;
        let mut r =
            dyn_router("FromDevice(in0) -> c :: Counter -> q :: Queue(32) -> ToDevice(out0);");
        let in0 = r.devices.id("in0").unwrap();
        let out0 = r.devices.id("out0").unwrap();
        let (rx_be, rx_q) = MemBackend::with_handles();
        let (tx_be, tx_q) = MemBackend::with_handles();
        r.devices.attach_backend(in0, Box::new(rx_be));
        r.devices.attach_backend(out0, Box::new(tx_be));
        for i in 0..5u8 {
            rx_q.push_rx(&[i; 60]);
        }
        let totals = r.run_with_devices(100);
        assert_eq!(totals.rx, 5);
        assert_eq!(totals.tx, 5);
        assert_eq!(totals.lost, 0);
        assert_eq!(r.stat("c", "count"), Some(5));
        let sent = tx_q.take_tx();
        assert_eq!(sent.len(), 5);
        assert_eq!(sent[2][0], 2, "frame order preserved end to end");
        let gauges = r.devices.device_gauges();
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].device, "in0");
        assert_eq!(gauges[0].rx_packets, 5);
        assert_eq!(gauges[1].device, "out0");
        assert_eq!(gauges[1].tx_packets, 5);
        assert_eq!(gauges[1].tx_bytes, 5 * 60);
    }

    #[test]
    fn open_backends_is_scheme_driven() {
        let mut r = dyn_router("FromDevice(mem:loop) -> Discard; Idle -> ToDevice(eth1);");
        assert_eq!(r.devices.open_backends().unwrap(), 1);
        let dev = r.devices.id("mem:loop").unwrap();
        assert!(r.devices.has_backend(dev));
        let eth1 = r.devices.id("eth1").unwrap();
        assert!(!r.devices.has_backend(eth1), "scheme-less stays simulated");
        // Idempotent: a second call opens nothing new.
        assert_eq!(r.devices.open_backends().unwrap(), 0);
    }

    #[test]
    fn hot_swap_carries_backend_and_losses() {
        use crate::iodev::MemBackend;
        let src = "FromDevice(in0) -> Counter -> q :: Queue(32) -> ToDevice(out0);";
        let mut r = dyn_router(src);
        let in0 = r.devices.id("in0").unwrap();
        let (rx_be, rx_q) = MemBackend::with_handles();
        r.devices.attach_backend(in0, Box::new(rx_be));
        // Provoke an accounted bad-id drop so loss carryover is nonzero.
        r.devices.inject(DeviceId(42), Packet::new(60));
        assert_eq!(r.devices.lost_packets(), 1);
        rx_q.push_rx(&[7; 60]);
        r.run_with_devices(50);

        let graph = read_config(src).unwrap();
        r.hot_swap(&graph, &Library::standard()).unwrap();
        let in0 = r.devices.id("in0").unwrap();
        assert!(
            r.devices.has_backend(in0),
            "backend follows the device name across a swap"
        );
        assert_eq!(r.devices.lost_packets(), 1, "loss accounting survives");
        let g = &r.devices.device_gauges()[0];
        assert_eq!(g.rx_packets, 1, "gauges travel with the backend");
        // The carried backend still works.
        rx_q.push_rx(&[8; 60]);
        let totals = r.run_with_devices(50);
        assert_eq!(totals.rx, 1);
    }
}
