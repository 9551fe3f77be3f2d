//! Device endpoints: `FromDevice`/`PollDevice`, `ToDevice`, and
//! `RouterLink` (the element `click-combine` uses to splice routers
//! together, §7.2).
//!
//! Each router owns a [`DeviceBank`](crate::router::DeviceBank) of named
//! RX/TX queues that tests, benchmarks, and the hardware simulator feed
//! and drain — and that a real I/O backend
//! ([`crate::iodev::DeviceBackend`]) can sit beneath when the device name
//! carries a scheme (`pcap:trace.pcap`, `udp:ADDR>PEER`, `tap:NAME`).
//! These elements never talk to a backend directly: they only see the
//! queues, so the same configuration runs simulated or live, and every
//! I/O fault is absorbed by the supervision layer before it reaches the
//! graph. Click's polling discipline (paper §3: "polling device drivers
//! and a constantly-active kernel thread") maps to these elements being
//! *tasks* the router schedules.
//!
//! Audit note: these tasks and the `DeviceBank` queue paths they call
//! contain no `unwrap`/`expect`/indexing panics — a stale device id is an
//! accounted drop (`DeviceBank::lost_packets`), matching the PR 5
//! router.rs audit.

use crate::batch::PacketBatch;
use crate::element::{args, config_err, CreateCtx, DeviceId, Element, TaskContext};
use crate::headers::ether;
use click_core::error::Result;

/// Packets a task moves per invocation on the per-packet engine, matching
/// Click's device burst (the batched engine's is
/// [`Router::set_batch_burst`](crate::router::Router::set_batch_burst)).
pub const BURST: usize = 8;

/// Device id as a packet annotation, saturating instead of silently
/// truncating if a configuration ever names more than 65535 devices.
fn dev_anno(dev: DeviceId) -> u16 {
    u16::try_from(dev.0).unwrap_or(u16::MAX)
}

/// `FromDevice(dev)` / `PollDevice(dev)`: pulls received packets from a
/// device RX queue and pushes them into the configuration.
#[derive(Debug)]
pub struct FromDevice {
    class: &'static str,
    dev: DeviceId,
    count: u64,
    scratch: PacketBatch,
}

impl FromDevice {
    /// Creates a `FromDevice`.
    pub fn from_config(config: &str, ctx: &mut CreateCtx) -> Result<FromDevice> {
        Self::with_class("FromDevice", config, ctx)
    }

    /// Creates a `PollDevice` (identical here: our devices always poll).
    pub fn poll_device(config: &str, ctx: &mut CreateCtx) -> Result<FromDevice> {
        Self::with_class("PollDevice", config, ctx)
    }

    fn with_class(class: &'static str, config: &str, ctx: &mut CreateCtx) -> Result<FromDevice> {
        let a = args(config);
        if a.len() != 1 || a[0].is_empty() {
            return Err(config_err(class, "expects exactly one device name"));
        }
        Ok(FromDevice {
            class,
            dev: ctx.devices.id_for(&a[0]),
            count: 0,
            scratch: PacketBatch::new(),
        })
    }

    /// The device this element reads.
    pub fn device(&self) -> DeviceId {
        self.dev
    }
}

impl Element for FromDevice {
    fn class_name(&self) -> &str {
        self.class
    }
    fn is_task(&self) -> bool {
        true
    }
    fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
        let moved = ctx.rx_pop_batch(self.dev, ctx.burst(), &mut self.scratch);
        if moved == 0 {
            return 0;
        }
        for p in self.scratch.iter_mut() {
            p.anno.device = Some(dev_anno(self.dev));
            if p.len() >= ether::HLEN {
                p.anno.link_broadcast = ether::dst(p.data()) == ether::BROADCAST;
            }
        }
        self.count += moved as u64;
        ctx.emit_batch(0, &mut self.scratch);
        moved
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.count)
    }
}

/// `ToDevice(dev)`: pulls packets from upstream and appends them to a
/// device TX queue.
#[derive(Debug)]
pub struct ToDevice {
    dev: DeviceId,
    count: u64,
    scratch: PacketBatch,
}

impl ToDevice {
    /// Creates from a configuration string: the device name.
    pub fn from_config(config: &str, ctx: &mut CreateCtx) -> Result<ToDevice> {
        let a = args(config);
        if a.len() != 1 || a[0].is_empty() {
            return Err(config_err("ToDevice", "expects exactly one device name"));
        }
        Ok(ToDevice {
            dev: ctx.devices.id_for(&a[0]),
            count: 0,
            scratch: PacketBatch::new(),
        })
    }

    /// The device this element writes.
    pub fn device(&self) -> DeviceId {
        self.dev
    }
}

impl Element for ToDevice {
    fn class_name(&self) -> &str {
        "ToDevice"
    }
    fn is_task(&self) -> bool {
        true
    }
    fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
        let moved = ctx.pull_batch(0, ctx.burst(), &mut self.scratch);
        if moved == 0 {
            return 0;
        }
        self.count += moved as u64;
        ctx.tx_push_batch(self.dev, &mut self.scratch);
        moved
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.count)
    }
}

/// `RouterLink`: stands for a network link inside a combined multi-router
/// configuration — it actively pulls from the upstream router's queue and
/// pushes into the downstream router's input path.
#[derive(Debug, Default)]
pub struct RouterLink {
    count: u64,
    scratch: PacketBatch,
}

impl RouterLink {
    /// Creates from a configuration string (link metadata is advisory).
    pub fn from_config(_config: &str, _ctx: &mut CreateCtx) -> Result<RouterLink> {
        Ok(RouterLink::default())
    }
}

impl Element for RouterLink {
    fn class_name(&self) -> &str {
        "RouterLink"
    }
    fn is_task(&self) -> bool {
        true
    }
    fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
        let moved = ctx.pull_batch(0, ctx.burst(), &mut self.scratch);
        if moved == 0 {
            return 0;
        }
        self.count += moved as u64;
        ctx.emit_batch(0, &mut self.scratch);
        moved
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use std::collections::VecDeque;

    struct FakeIo {
        rx: VecDeque<Packet>,
        tx: Vec<Packet>,
        emitted: Vec<(usize, Packet)>,
        pullable: VecDeque<Packet>,
    }

    impl TaskContext for FakeIo {
        fn burst(&self) -> usize {
            BURST
        }
        fn rx_pop_batch(&mut self, _dev: DeviceId, max: usize, into: &mut PacketBatch) -> usize {
            let n = max.min(self.rx.len());
            into.extend(self.rx.drain(..n));
            n
        }
        fn emit_batch(&mut self, port: usize, batch: &mut PacketBatch) {
            self.emitted.extend(batch.drain().map(|p| (port, p)));
        }
        fn pull_batch(&mut self, _port: usize, max: usize, into: &mut PacketBatch) -> usize {
            let n = max.min(self.pullable.len());
            into.extend(self.pullable.drain(..n));
            n
        }
        fn tx_push_batch(&mut self, _dev: DeviceId, batch: &mut PacketBatch) {
            self.tx.extend(batch.drain());
        }
    }

    fn io() -> FakeIo {
        FakeIo {
            rx: VecDeque::new(),
            tx: Vec::new(),
            emitted: Vec::new(),
            pullable: VecDeque::new(),
        }
    }

    #[test]
    fn from_device_bursts_and_annotates() {
        let mut ctx = CreateCtx::new();
        let mut fd = FromDevice::from_config("eth0", &mut ctx).unwrap();
        let mut io = io();
        for _ in 0..BURST + 3 {
            let mut p = Packet::new(60);
            ether::write(p.data_mut(), ether::BROADCAST, [1; 6], 0x0800);
            io.rx.push_back(p);
        }
        assert_eq!(fd.run_task(&mut io), BURST);
        assert_eq!(io.emitted.len(), BURST);
        assert!(io.emitted[0].1.anno.link_broadcast);
        assert_eq!(io.emitted[0].1.anno.device, Some(0));
        assert_eq!(fd.run_task(&mut io), 3);
        assert_eq!(fd.stat("count"), Some((BURST + 3) as u64));
        assert_eq!(fd.run_task(&mut io), 0);
    }

    #[test]
    fn to_device_drains_upstream() {
        let mut ctx = CreateCtx::new();
        let mut td = ToDevice::from_config("eth1", &mut ctx).unwrap();
        let mut io = io();
        io.pullable.push_back(Packet::new(10));
        io.pullable.push_back(Packet::new(11));
        assert_eq!(td.run_task(&mut io), 2);
        assert_eq!(io.tx.len(), 2);
        assert_eq!(td.stat("count"), Some(2));
    }

    #[test]
    fn router_link_moves_pull_to_push() {
        let mut ctx = CreateCtx::new();
        let mut rl = RouterLink::from_config("A.eth0->B.eth1", &mut ctx).unwrap();
        let mut io = io();
        io.pullable.push_back(Packet::from_data(&[5]));
        assert_eq!(rl.run_task(&mut io), 1);
        assert_eq!(io.emitted.len(), 1);
        assert_eq!(io.emitted[0].1.data(), &[5]);
    }

    #[test]
    fn device_names_share_ids() {
        let mut ctx = CreateCtx::new();
        let fd = FromDevice::from_config("eth0", &mut ctx).unwrap();
        let td = ToDevice::from_config("eth0", &mut ctx).unwrap();
        assert_eq!(fd.device(), td.device());
        let td2 = ToDevice::from_config("eth1", &mut ctx).unwrap();
        assert_ne!(fd.device(), td2.device());
    }

    #[test]
    fn config_validation() {
        let mut ctx = CreateCtx::new();
        assert!(FromDevice::from_config("", &mut ctx).is_err());
        assert!(ToDevice::from_config("a, b", &mut ctx).is_err());
    }
}
