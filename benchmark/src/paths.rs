//! The three ways frames reach the element graph, behind one interface.
//!
//! * [`Inject`] — `DeviceBank::inject` / `run_until_idle` / `recycle_tx`:
//!   the engine alone, almost no I/O.
//! * [`Wire`] — a `MemBackend` under every device and
//!   `run_with_devices`: backend → `SupervisedDevice` → pump →
//!   `Packet::from_data` on the way in, backend `send` on the way out.
//! * [`Sharded`] — `ParallelRouter` with exactly one worker shard:
//!   inject → ring → worker → ring → collect.
//!
//! Each is only a thin adapter over public functions of `click-elements`;
//! the workloads time the adapter calls from outside.

use crate::gen::Frame;
use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::registry::Library;
use click_elements::element::DeviceId;
use click_elements::iodev::{MemBackend, MemQueues};
use click_elements::persist::{CheckpointEngine, EngineSnapshot};
use click_elements::router::{Router, Slot};
use click_elements::{Packet, PacketBatch, ParallelOpts, ParallelRouter, SwapReport};

/// Transfer burst of the batched (compiled) engine.
pub const BURST: usize = 64;
/// Scheduling-round budget for one settle; never reached by a healthy run.
const MAX_ROUNDS: usize = 10_000;

/// What the system says happened to the frames it did not transmit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Frames dropped or lost, by the system's own aggregate gauge.
    pub drops: u64,
    /// Device operations retried.
    pub retries: u64,
}

/// A router reachable through one of the three paths.
pub trait Path {
    /// Hands frames to the system on their ingress interfaces.
    fn feed(&mut self, frames: &[Frame]);
    /// Runs until everything fed has been forwarded or dropped.
    fn settle(&mut self);
    /// Makes progress without waiting for the system to go idle (the
    /// open loop's step). Single-threaded paths have nothing to wait
    /// for, so for them this is [`Path::settle`].
    fn poll(&mut self) {
        self.settle();
    }
    /// Discards transmitted frames, returning how many there were.
    fn drain_count(&mut self) -> usize;
    /// Shows every transmitted frame to `sink` as `(egress interface,
    /// bytes)`, then discards it; returns how many there were.
    fn drain_into(&mut self, sink: &mut dyn FnMut(usize, &[u8])) -> usize;
    /// Replaces the running configuration.
    ///
    /// # Errors
    ///
    /// Whatever the engine's `hot_swap` reports.
    fn swap(&mut self, graph: &RouterGraph) -> Result<SwapReport>;
    /// The snapshot half of a checkpoint.
    ///
    /// # Errors
    ///
    /// The engine could not quiesce.
    fn snapshot(&mut self) -> Result<EngineSnapshot>;
    /// The system's own loss accounting.
    fn ledger(&self) -> Ledger;
}

fn device_ids(names: &[&str], ifaces: usize) -> Vec<DeviceId> {
    (0..ifaces)
        .map(|i| {
            let want = format!("eth{i}");
            DeviceId(
                names
                    .iter()
                    .position(|n| *n == want)
                    .unwrap_or_else(|| panic!("generated config has no device {want}")),
            )
        })
        .collect()
}

fn engine<S: Slot>(graph: &RouterGraph, batched: bool) -> Result<Router<S>> {
    let mut router: Router<S> = Router::from_graph(graph, &Library::standard())?;
    if batched {
        router.set_batching(true);
        router.set_batch_burst(BURST);
    }
    Ok(router)
}

/// Direct injection into the device bank.
pub struct Inject<S: Slot> {
    /// The engine under test.
    pub router: Router<S>,
    devs: Vec<DeviceId>,
    scratch: PacketBatch,
}

impl<S: Slot> Inject<S> {
    /// Builds the engine; `batched` selects vector transfers at [`BURST`].
    ///
    /// # Errors
    ///
    /// Configuration check or element construction failures.
    pub fn new(graph: &RouterGraph, ifaces: usize, batched: bool) -> Result<Inject<S>> {
        let router = engine::<S>(graph, batched)?;
        let devs = device_ids(&router.devices.names(), ifaces);
        Ok(Inject {
            router,
            devs,
            scratch: PacketBatch::with_capacity(256),
        })
    }
}

impl<S: Slot> Path for Inject<S> {
    fn feed(&mut self, frames: &[Frame]) {
        for f in frames {
            self.router
                .devices
                .inject(self.devs[f.iface], Packet::from_data(&f.bytes));
        }
    }
    fn settle(&mut self) {
        self.router.run_until_idle(MAX_ROUNDS);
    }
    fn drain_count(&mut self) -> usize {
        self.devs
            .iter()
            .map(|&d| self.router.devices.recycle_tx(d))
            .sum()
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(usize, &[u8])) -> usize {
        let mut n = 0;
        for (i, &d) in self.devs.iter().enumerate() {
            n += self.router.devices.drain_tx_into(d, &mut self.scratch);
            for p in self.scratch.drain() {
                sink(i, p.data());
                p.recycle();
            }
        }
        n
    }
    fn swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.router.hot_swap(graph, &Library::standard())
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        CheckpointEngine::checkpoint_snapshot(&mut self.router)
    }
    fn ledger(&self) -> Ledger {
        Ledger {
            drops: self.router.total_drops(),
            retries: 0,
        }
    }
}

/// Wire to wire through in-memory device backends.
pub struct Wire<S: Slot> {
    /// The engine under test.
    pub router: Router<S>,
    /// The far side of each interface's backend.
    pub queues: Vec<MemQueues>,
}

impl<S: Slot> Wire<S> {
    /// Builds the engine and attaches one `MemBackend` per interface.
    ///
    /// # Errors
    ///
    /// Configuration check or element construction failures.
    pub fn new(graph: &RouterGraph, ifaces: usize, batched: bool) -> Result<Wire<S>> {
        let mut router = engine::<S>(graph, batched)?;
        let devs = device_ids(&router.devices.names(), ifaces);
        let queues = devs
            .iter()
            .map(|&d| {
                let (backend, q) = MemBackend::with_handles();
                router.devices.attach_backend(d, Box::new(backend));
                q
            })
            .collect();
        Ok(Wire { router, queues })
    }
}

impl<S: Slot> Path for Wire<S> {
    fn feed(&mut self, frames: &[Frame]) {
        for f in frames {
            self.queues[f.iface].push_rx(&f.bytes);
        }
    }
    fn settle(&mut self) {
        self.router.run_with_devices(MAX_ROUNDS);
    }
    fn drain_count(&mut self) -> usize {
        self.queues.iter().map(|q| q.take_tx().len()).sum()
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(usize, &[u8])) -> usize {
        let mut n = 0;
        for (i, q) in self.queues.iter().enumerate() {
            for frame in q.take_tx() {
                sink(i, &frame);
                n += 1;
            }
        }
        n
    }
    fn swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.router.hot_swap(graph, &Library::standard())
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        CheckpointEngine::checkpoint_snapshot(&mut self.router)
    }
    fn ledger(&self) -> Ledger {
        Ledger {
            drops: self.router.total_drops(),
            retries: self
                .router
                .devices
                .device_gauges()
                .iter()
                .map(|g| g.retries)
                .sum(),
        }
    }
}

/// The sharded runtime with exactly one worker shard: the calling thread
/// plus one worker is two threads, which is all a 2-CPU host can time.
pub struct Sharded {
    /// The runtime under test.
    pub router: ParallelRouter,
    devs: Vec<DeviceId>,
    scratch: PacketBatch,
}

impl Sharded {
    /// Spawns the one-shard runtime on the engine type `S`.
    ///
    /// # Errors
    ///
    /// Configuration failures or a failed thread spawn.
    pub fn new<S: Slot + 'static>(
        graph: &RouterGraph,
        ifaces: usize,
        batched: bool,
    ) -> Result<Sharded> {
        let mut opts = ParallelOpts::new(1);
        if batched {
            opts = opts.batched(BURST);
        }
        let router = ParallelRouter::from_graph::<S>(graph, opts)?;
        let names: Vec<&str> = router.device_names().iter().map(String::as_str).collect();
        let devs = device_ids(&names, ifaces);
        Ok(Sharded {
            router,
            devs,
            scratch: PacketBatch::with_capacity(256),
        })
    }
}

impl Path for Sharded {
    fn feed(&mut self, frames: &[Frame]) {
        for f in frames {
            self.router
                .inject(self.devs[f.iface], Packet::from_data(&f.bytes));
        }
    }
    fn settle(&mut self) {
        self.router.run_until_idle();
    }
    fn poll(&mut self) {
        self.router.flush();
        self.router.collect();
    }
    fn drain_count(&mut self) -> usize {
        let mut n = 0;
        for &d in &self.devs {
            n += self.router.drain_tx_into(d, &mut self.scratch);
            self.scratch.recycle_packets();
        }
        n
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(usize, &[u8])) -> usize {
        let mut n = 0;
        for (i, &d) in self.devs.iter().enumerate() {
            n += self.router.drain_tx_into(d, &mut self.scratch);
            for p in self.scratch.drain() {
                sink(i, p.data());
                p.recycle();
            }
        }
        n
    }
    fn swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        self.router.hot_swap(graph)
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot> {
        CheckpointEngine::checkpoint_snapshot(&mut self.router)
    }
    fn ledger(&self) -> Ledger {
        Ledger {
            drops: self.router.total_drops(),
            retries: 0,
        }
    }
}
