//! One drive-a-router surface over both runtimes.
//!
//! Tools, daemons and tests that feed a router, settle it, drain its TX,
//! swap its configuration, checkpoint it or run it over real devices do
//! so through [`Engine`], implemented once for the serial [`Router`] and
//! once for the sharded [`ParallelRouter`]. [`open`] and [`restore`] are
//! the one place the serial/sharded choice is made; the result is a
//! `Box<dyn Engine>`.
//!
//! The ledger reads the same on every engine:
//! `offered == tx + total_drops()`, where `tx` counts frames drained with
//! [`Engine::drain_tx_into`] plus frames [`Engine::run_devices`] reports
//! sent, and `total_drops()` includes what device supervision lost.

use crate::batch::PacketBatch;
use crate::element::{DeviceId, Element};
use crate::iodev::{PumpStats, SupervisedDevice};
use crate::packet::Packet;
use crate::parallel::{ParallelOpts, ParallelRouter};
use crate::persist::{Checkpoint, CheckpointEngine, RestoreStats};
use crate::router::Router;
use crate::swap::SwapReport;
use crate::telemetry::{ElementProfile, Gauges};
use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;

/// A live router that can be driven without knowing which runtime it is.
/// [`CheckpointEngine`] (snapshot, restore-into) is the supertrait, so a
/// `dyn Engine` goes straight to a
/// [`CheckpointDaemon`](crate::persist::CheckpointDaemon).
pub trait Engine: CheckpointEngine {
    /// Resolves a device by configuration name.
    fn device(&self, name: &str) -> Option<DeviceId>;
    /// Configuration names of every device, in id order.
    fn device_names(&self) -> Vec<String>;
    /// Buffers a packet on a device's RX path; nothing is processed until
    /// [`Engine::settle`] (or, on the sharded runtime, a hot swap's
    /// canary window) runs it.
    fn inject(&mut self, dev: DeviceId, p: Packet);
    /// Runs until all injected traffic has drained.
    fn settle(&mut self);
    /// Appends a device's transmitted packets to `into`; returns how many
    /// this call appended.
    fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize;
    /// Drains every device's transmitted packets into `into`, in device
    /// order; returns how many were appended.
    fn drain_all_tx_into(&mut self, into: &mut PacketBatch) -> usize {
        (0..self.device_names().len())
            .map(|i| self.drain_tx_into(DeviceId(i), into))
            .sum()
    }
    /// Monotonic drop counter: element and engine drops (surviving hot
    /// swaps) plus everything device supervision declared lost.
    fn total_drops(&self) -> u64;
    /// One element's named statistic (summed across shards); `None` if
    /// no element or statistic has that name.
    fn stat(&self, element: &str, stat: &str) -> Option<u64>;
    /// A statistic summed over every element of a (base) class.
    fn class_stat(&self, class: &str, stat: &str) -> u64;
    /// Packets emitted on unconnected ports.
    fn unconnected_drops(&self) -> u64;
    /// Packets dropped breaking a configuration loop.
    fn reentrant_drops(&self) -> u64;
    /// Arms or disarms per-element telemetry: what [`Engine::profiles`]
    /// reads and the steering stage's clock. Off in a new engine; on,
    /// every element call is timed, so only a caller that reads the
    /// profiles arms it. The setting survives hot swaps and shard
    /// restarts, and the counters keep their values while off.
    fn set_telemetry(&mut self, on: bool);
    /// Cumulative per-element telemetry (merged across shards): zeroes
    /// until [`Engine::set_telemetry`] arms it.
    fn profiles(&self) -> Vec<ElementProfile>;
    /// Hot-installs `graph` from the standard element library. A report
    /// with `canary_shard: None` was not judged by the runtime (serial);
    /// otherwise `rolled_back` says whether the canary kept it.
    ///
    /// # Errors
    ///
    /// The validation error of a rejected configuration, or a sharded
    /// rollout failure; the old graph keeps running.
    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport>;
    /// Puts a supervised backend beneath a device (unknown ids are
    /// ignored, as [`crate::router::DeviceBank::attach_supervised`]).
    fn attach_supervised(&mut self, dev: DeviceId, sup: SupervisedDevice);
    /// Opens a backend for every device whose name carries a scheme;
    /// returns how many were opened.
    ///
    /// # Errors
    ///
    /// The first backend that cannot be opened.
    fn open_backends(&mut self) -> Result<usize>;
    /// Runs over the attached backends until quiescent or `max_rounds`;
    /// see [`Router::run_with_devices`] and
    /// [`ParallelRouter::run_devices`] for each runtime's stop rule.
    ///
    /// # Errors
    ///
    /// A wedged worker shard (sharded runtime only).
    fn run_devices(&mut self, max_rounds: usize) -> Result<PumpStats>;
    /// Every gauge section this engine keeps — devices and swaps on
    /// both runtimes; shards, steering and faults on the sharded one.
    fn gauges(&self) -> Gauges;
}

impl Engine for Router {
    fn device(&self, name: &str) -> Option<DeviceId> {
        self.devices.id(name)
    }
    fn device_names(&self) -> Vec<String> {
        self.devices.device_names().to_vec()
    }
    fn inject(&mut self, dev: DeviceId, p: Packet) {
        self.devices.inject(dev, p);
    }
    fn settle(&mut self) {
        self.run_until_idle(1_000_000);
    }
    fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize {
        self.devices.drain_tx_into(dev, into)
    }
    fn total_drops(&self) -> u64 {
        Router::total_drops(self)
    }
    fn stat(&self, element: &str, stat: &str) -> Option<u64> {
        Router::stat(self, element, stat)
    }
    fn class_stat(&self, class: &str, stat: &str) -> u64 {
        Router::class_stat(self, class, stat)
    }
    fn unconnected_drops(&self) -> u64 {
        Router::unconnected_drops(self)
    }
    fn reentrant_drops(&self) -> u64 {
        Router::reentrant_drops(self)
    }
    fn set_telemetry(&mut self, on: bool) {
        Router::set_telemetry(self, on);
    }
    fn profiles(&self) -> Vec<ElementProfile> {
        self.telemetry_profiles()
    }
    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        Router::hot_swap(self, graph, &Library::standard())
    }
    fn attach_supervised(&mut self, dev: DeviceId, sup: SupervisedDevice) {
        self.devices.attach_supervised(dev, sup);
    }
    fn open_backends(&mut self) -> Result<usize> {
        self.devices.open_backends()
    }
    fn run_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        Ok(self.run_with_devices(max_rounds))
    }
    fn gauges(&self) -> Gauges {
        Router::gauges(self)
    }
}

impl Engine for ParallelRouter {
    fn device(&self, name: &str) -> Option<DeviceId> {
        self.device_id(name)
    }
    fn device_names(&self) -> Vec<String> {
        ParallelRouter::device_names(self).to_vec()
    }
    fn inject(&mut self, dev: DeviceId, p: Packet) {
        ParallelRouter::inject(self, dev, p);
    }
    fn settle(&mut self) {
        self.run_until_idle();
    }
    fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize {
        ParallelRouter::drain_tx_into(self, dev, into)
    }
    fn total_drops(&self) -> u64 {
        ParallelRouter::total_drops(self)
    }
    fn stat(&self, element: &str, stat: &str) -> Option<u64> {
        ParallelRouter::stat(self, element, stat)
    }
    fn class_stat(&self, class: &str, stat: &str) -> u64 {
        ParallelRouter::class_stat(self, class, stat)
    }
    fn unconnected_drops(&self) -> u64 {
        ParallelRouter::unconnected_drops(self)
    }
    fn reentrant_drops(&self) -> u64 {
        ParallelRouter::reentrant_drops(self)
    }
    fn set_telemetry(&mut self, on: bool) {
        ParallelRouter::set_telemetry(self, on);
    }
    fn profiles(&self) -> Vec<ElementProfile> {
        self.telemetry_profiles()
    }
    fn hot_swap(&mut self, graph: &RouterGraph) -> Result<SwapReport> {
        ParallelRouter::hot_swap(self, graph)
    }
    fn attach_supervised(&mut self, dev: DeviceId, sup: SupervisedDevice) {
        self.bank.attach_supervised(dev, sup);
    }
    fn open_backends(&mut self) -> Result<usize> {
        self.bank.open_backends()
    }
    fn run_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        ParallelRouter::run_devices(self, max_rounds)
    }
    fn gauges(&self) -> Gauges {
        ParallelRouter::gauges(self)
    }
}

/// Builds and starts an engine for `graph`: `opts.shards <= 1` is the
/// serial runtime (taking only `batching`/`burst` from `opts`), anything
/// more the sharded one.
///
/// # Errors
///
/// Configuration check or element construction failures, or a failed
/// thread spawn.
pub fn open(graph: &RouterGraph, opts: ParallelOpts) -> Result<Box<dyn Engine>> {
    if opts.shards > 1 {
        return Ok(Box::new(ParallelRouter::from_graph::<Box<dyn Element>>(
            graph, opts,
        )?));
    }
    let mut router: Router = Router::from_graph(graph, &Library::standard())?;
    if opts.batching {
        router.set_batching(true);
        router.set_batch_burst(opts.burst);
    }
    Ok(Box::new(router))
}

/// Warm restart: [`open`]s the checkpoint's installed configuration (the
/// *optimized* one if the reopt loop had swapped it in) and applies the
/// checkpoint's records to it.
///
/// # Errors
///
/// Configuration parse/check/construction errors or a failed restore;
/// the caller should degrade to a cold start from its source
/// configuration, not crash.
pub fn restore(ckpt: &Checkpoint, opts: ParallelOpts) -> Result<(Box<dyn Engine>, RestoreStats)> {
    let mut engine = open(&read_config(&ckpt.config)?, opts)?;
    let stats = engine.checkpoint_restore(ckpt)?;
    Ok((engine, stats))
}
