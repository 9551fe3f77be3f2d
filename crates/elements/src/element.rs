//! The element trait and its supporting plumbing.
//!
//! Elements are "fine-grained packet processing modules" (paper §3). Each
//! element receives packets on numbered input ports and emits them on
//! numbered output ports, via *push* (upstream initiates) or *pull*
//! (downstream initiates) transfer. An element that turns each input
//! packet into at most one output packet implements only
//! [`Element::action`], the paper's footnote-1 `simple_action` widened to
//! name the output port; `push`, `push_batch` and `pull` default to
//! drivers over it, so its per-packet work is written once and runs the
//! same in every transfer mode.
//!
//! *Tasks* (paper §3: "polling device drivers and a constantly-active
//! kernel thread") only move packets between devices and the graph: each
//! [`Element::run_task`] has one body, which moves up to a burst through
//! the [`TaskContext`]'s batch calls. Whether the graph then sees one
//! packet per hop or the whole burst is the engine's transfer mode.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::packet::Packet;
use crate::swap::ElementState;
use click_core::error::Result;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// Identifies a simulated network device within a router's
/// [`DeviceBank`](crate::router::DeviceBank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub usize);

/// Collects the packets an element emits during one `push` call; the
/// engine routes them to downstream elements afterwards.
#[derive(Debug, Default)]
pub struct Emitter {
    items: Vec<(usize, Packet)>,
}

impl Emitter {
    /// Creates an empty emitter.
    pub fn new() -> Emitter {
        Emitter::default()
    }

    /// Emits `p` on output `port`.
    #[inline]
    pub fn emit(&mut self, port: usize, p: Packet) {
        self.items.push((port, p));
    }

    /// Drains emitted packets in emission order.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Packet)> + '_ {
        self.items.drain(..)
    }

    /// Removes the most recently emitted packet: the scalar engine moves
    /// emissions onto its work stack in reverse, so the first emitted is
    /// the first processed.
    #[inline]
    pub fn pop(&mut self) -> Option<(usize, Packet)> {
        self.items.pop()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// What a pulling element can do: pull its own inputs, and push error
/// packets out of push-side outputs (what an agnostic element like
/// `CheckIPHeader` does with a bad packet when it is pulled).
pub trait PullContext {
    /// Pulls a packet from the element's input `port`.
    fn pull(&mut self, port: usize) -> Option<Packet>;
    /// Pushes `p` out of the element's output `port` (an always-push
    /// error output).
    fn push_out(&mut self, port: usize, p: Packet);
    /// Number of connected input ports.
    fn ninputs(&self) -> usize;
}

/// What a scheduled task can do: move bursts between devices and the
/// graph.
///
/// A task asks for at most [`burst`](TaskContext::burst) packets per
/// quantum and hands them on as one [`PacketBatch`]; whether a hop then
/// carries the burst or one packet at a time is the context's choice, not
/// the task's. The router's context runs the per-packet loop
/// (`Element::push`/`pull`, one packet per hop) or the batched one
/// (`push_batch`/`pull_batch`) as
/// [`Router::set_batching`](crate::router::Router::set_batching) says.
pub trait TaskContext {
    /// Most packets a task should move per quantum.
    fn burst(&self) -> usize;
    /// Drains up to `max` received packets from a device RX queue into
    /// `into`; returns how many were moved.
    fn rx_pop_batch(&mut self, dev: DeviceId, max: usize, into: &mut PacketBatch) -> usize;
    /// Pushes every packet of `batch` out of output `port`, running the
    /// downstream push chain; `batch` is left empty.
    fn emit_batch(&mut self, port: usize, batch: &mut PacketBatch);
    /// Pulls up to `max` packets from input `port` into `into`; returns
    /// how many arrived.
    fn pull_batch(&mut self, port: usize, max: usize, into: &mut PacketBatch) -> usize;
    /// Appends every packet of `batch` to a device TX queue; `batch` is
    /// left empty.
    fn tx_push_batch(&mut self, dev: DeviceId, batch: &mut PacketBatch);
}

/// A packet-processing element.
///
/// Implement [`action`](Element::action) for single-input elements that
/// emit at most one packet per input packet; the default
/// [`push`](Element::push), [`push_batch`](Element::push_batch) and
/// [`pull`](Element::pull) drive it. Override `push` (and `push_batch`)
/// for elements that emit several packets per input, or whose inputs
/// differ; override `pull` for schedulers and storage; override
/// [`run_task`](Element::run_task) (and return `true` from
/// [`is_task`](Element::is_task)) for actively scheduled elements like
/// `ToDevice`. A default body is compiled for each implementing type, so
/// the driver's call to `action` is direct even behind `Box<dyn Element>`.
pub trait Element {
    /// The element's class name (for diagnostics and stats lookup).
    fn class_name(&self) -> &str;

    /// The per-packet body: `Some((port, p))` emits `p` on output `port`,
    /// `None` means the element consumed the packet (and dropped it).
    /// The default forwards every packet on output 0.
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        Some((0, p))
    }

    /// Push-path processing: handle `p` arriving on input `port`, emitting
    /// results through `out`. The default emits what
    /// [`action`](Element::action) returns.
    fn push(&mut self, port: usize, p: Packet, out: &mut Emitter) {
        let _ = port;
        if let Some((oport, p)) = self.action(p) {
            out.emit(oport, p);
        }
    }

    /// Pull-path processing: produce a packet for output `port` on demand.
    /// The default pulls input 0 and applies [`action`](Element::action)
    /// until a packet leaves on output 0 or the input runs dry: a packet
    /// sent to another output goes out through
    /// [`PullContext::push_out`], and a consumed one does not end the
    /// pull.
    fn pull(&mut self, port: usize, ctx: &mut dyn PullContext) -> Option<Packet> {
        let _ = port;
        while let Some(p) = ctx.pull(0) {
            match self.action(p) {
                Some((0, p)) => return Some(p),
                Some((oport, p)) => ctx.push_out(oport, p),
                None => {}
            }
        }
        None
    }

    /// Batched push-path processing: handle a whole [`PacketBatch`]
    /// arriving on input `port`, emitting results through the
    /// branch-sorted `out`. The default drains the batch through
    /// [`action`](Element::action), so output groups keep their
    /// first-emission order. An element that overrides `push` overrides
    /// this too, usually with [`BatchEmitter::push_each`].
    fn push_batch(&mut self, port: usize, mut batch: PacketBatch, out: &mut BatchEmitter) {
        let _ = port;
        for p in batch.drain() {
            if let Some((oport, p)) = self.action(p) {
                out.emit(oport, p);
            }
        }
        out.recycle_storage(batch);
    }

    /// Batched pull-path processing: produce up to `max` packets for
    /// output `port` into `into`, returning how many were produced. The
    /// default loops over [`pull`](Element::pull); storage elements
    /// (`Queue`) override it to drain in one pass.
    fn pull_batch(
        &mut self,
        port: usize,
        max: usize,
        ctx: &mut dyn PullContext,
        into: &mut PacketBatch,
    ) -> usize {
        let mut n = 0;
        while n < max {
            let Some(p) = self.pull(port, ctx) else { break };
            into.push(p);
            n += 1;
        }
        n
    }

    /// True if the element needs active scheduling.
    fn is_task(&self) -> bool {
        false
    }

    /// One scheduling quantum for task elements. Returns the number of
    /// packets moved (0 = idle, used for quiescence detection).
    fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
        let _ = ctx;
        0
    }

    /// Named statistics (Click handler analogue): `"count"`, `"drops"`, ...
    fn stat(&self, name: &str) -> Option<u64> {
        let _ = name;
        None
    }

    /// For storage elements: a shared handle to the current queue depth,
    /// used by RED's downstream-queue discovery.
    fn queue_depth_handle(&self) -> Option<Rc<Cell<usize>>> {
        None
    }

    /// For RED-like droppers: receives the depth handle of the nearest
    /// downstream storage element after the router is wired.
    fn attach_downstream_queue(&mut self, handle: Rc<Cell<usize>>) {
        let _ = handle;
    }

    /// Surrenders this element's transferable state for a hot swap
    /// ([`crate::router::Router::hot_swap`]) that rebuilds it with a
    /// changed configuration: counters and buffered packets that should
    /// survive the change. The element is left empty (it is about to be
    /// discarded). Stateless elements — the default — return `None`.
    fn take_state(&mut self) -> Option<ElementState> {
        None
    }

    /// Absorbs state taken from this element's predecessor in the old
    /// configuration (matched by name and class, see
    /// [`crate::swap::TransferPlan`]). The default discards the state
    /// and drops any buffered packets.
    ///
    /// Counters are added (`+=`): [`crate::router::Router::checkpoint_snapshot`]
    /// hands an element its own state back with `counters` emptied.
    fn restore_state(&mut self, _state: ElementState) {}
}

/// Maps device names (`eth0`) to dense [`DeviceId`]s at element-creation
/// time.
#[derive(Debug, Default, Clone)]
pub struct DeviceMap {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl DeviceMap {
    /// Creates an empty map.
    pub fn new() -> DeviceMap {
        DeviceMap::default()
    }

    /// Returns the id for `name`, allocating one if new.
    pub fn id_for(&mut self, name: &str) -> DeviceId {
        if let Some(&i) = self.index.get(name) {
            return DeviceId(i);
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        DeviceId(i)
    }

    /// Looks up an existing device by name.
    pub fn get(&self, name: &str) -> Option<DeviceId> {
        self.index.get(name).map(|&i| DeviceId(i))
    }

    /// The name of a device.
    pub fn name(&self, id: DeviceId) -> &str {
        &self.names[id.0]
    }

    /// Every device name, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of devices registered.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Context passed to element constructors.
#[derive(Debug, Default)]
pub struct CreateCtx {
    /// Device name registry.
    pub devices: DeviceMap,
    /// The worker shard this router instance runs in (0 for a serial
    /// router). Elements that scope behavior to one shard — `FaultInject`
    /// with a `SHARD` clause — read it at construction time.
    pub shard: usize,
}

impl CreateCtx {
    /// Creates an empty context (shard 0).
    pub fn new() -> CreateCtx {
        CreateCtx::default()
    }

    /// Creates a context for a router built inside worker shard `shard`.
    pub fn for_shard(shard: usize) -> CreateCtx {
        CreateCtx {
            shard,
            ..CreateCtx::default()
        }
    }
}

/// Helper: the element-configuration error type with a consistent shape.
pub fn config_err(class: &str, message: impl Into<String>) -> click_core::Error {
    click_core::Error::config(class, message)
}

/// Splits a config string into arguments (re-export for element impls).
pub fn args(config: &str) -> Vec<String> {
    click_core::config::split_args(config)
}

/// Parses a `Result`-producing integer argument.
pub fn int_arg<T: std::str::FromStr>(class: &str, what: &str, s: &str) -> Result<T> {
    s.trim()
        .parse::<T>()
        .map_err(|_| config_err(class, format!("bad {what} {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AddOne;

    impl Element for AddOne {
        fn class_name(&self) -> &str {
            "AddOne"
        }
        fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
            p.data_mut()[0] += 1;
            Some((0, p))
        }
    }

    struct NoPulls;
    impl PullContext for NoPulls {
        fn pull(&mut self, _port: usize) -> Option<Packet> {
            None
        }
        fn push_out(&mut self, _port: usize, _p: Packet) {}
        fn ninputs(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_push_uses_action() {
        let mut e = AddOne;
        let mut out = Emitter::new();
        e.push(0, Packet::from_data(&[41]), &mut out);
        let emitted: Vec<_> = out.drain().collect();
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].0, 0);
        assert_eq!(emitted[0].1.data(), &[42]);
    }

    #[test]
    fn default_pull_fails_without_upstream() {
        let mut e = AddOne;
        assert!(e.pull(0, &mut NoPulls).is_none());
    }

    #[test]
    fn device_map_allocates_dense_ids() {
        let mut m = DeviceMap::new();
        let a = m.id_for("eth0");
        let b = m.id_for("eth1");
        let a2 = m.id_for("eth0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.name(a), "eth0");
        assert_eq!(m.get("eth1"), Some(b));
        assert_eq!(m.get("eth9"), None);
    }

    #[test]
    fn emitter_preserves_order() {
        let mut out = Emitter::new();
        out.emit(1, Packet::from_data(&[1]));
        out.emit(0, Packet::from_data(&[2]));
        let v: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        assert_eq!(v, vec![1, 0]);
    }
}
