//! Basic plumbing elements: `Discard`, `Counter`, `Tee`, `Paint`,
//! `PaintTee`, `CheckPaint`, `Strip`, `Unstrip`, `Align`, `Switch`,
//! schedulers, `Idle`, `Null`, and `InfiniteSource`.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{
    args, config_err, int_arg, CreateCtx, Element, Emitter, PullContext, TaskContext,
};
use crate::packet::Packet;
use crate::swap::ElementState;
use click_core::error::Result;

/// `Discard`: consumes every packet.
#[derive(Debug, Default)]
pub struct Discard {
    count: u64,
}

impl Discard {
    /// Creates from a configuration string (which must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Discard> {
        if !config.trim().is_empty() {
            return Err(config_err("Discard", "takes no configuration"));
        }
        Ok(Discard::default())
    }
}

impl Element for Discard {
    fn class_name(&self) -> &str {
        "Discard"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        self.count += 1;
        p.recycle();
        None
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.count)
    }
    fn take_state(&mut self) -> Option<ElementState> {
        Some(ElementState::new("Discard").counter("count", self.count))
    }
    fn restore_state(&mut self, state: ElementState) {
        self.count += state.get("count");
        state.recycle_packets();
    }
}

/// `Counter`: counts passing packets and bytes.
#[derive(Debug, Default)]
pub struct Counter {
    count: u64,
    byte_count: u64,
}

impl Counter {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Counter> {
        if !config.trim().is_empty() {
            return Err(config_err("Counter", "takes no configuration"));
        }
        Ok(Counter::default())
    }
}

impl Element for Counter {
    fn class_name(&self) -> &str {
        "Counter"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        self.count += 1;
        self.byte_count += p.len() as u64;
        Some((0, p))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "count" => Some(self.count),
            "byte_count" => Some(self.byte_count),
            _ => None,
        }
    }
    fn take_state(&mut self) -> Option<ElementState> {
        Some(
            ElementState::new("Counter")
                .counter("count", self.count)
                .counter("byte_count", self.byte_count),
        )
    }
    fn restore_state(&mut self, state: ElementState) {
        self.count += state.get("count");
        self.byte_count += state.get("byte_count");
        state.recycle_packets();
    }
}

/// `Tee(n)`: duplicates each input packet to `n` outputs.
#[derive(Debug)]
pub struct Tee {
    n: usize,
}

impl Tee {
    /// Creates from a configuration string: the output count (default 2).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Tee> {
        let a = args(config);
        let n = match a.len() {
            0 => 2,
            1 => int_arg("Tee", "output count", &a[0])?,
            _ => return Err(config_err("Tee", "takes at most one argument")),
        };
        if n == 0 {
            return Err(config_err("Tee", "output count must be positive"));
        }
        Ok(Tee { n })
    }
}

impl Element for Tee {
    fn class_name(&self) -> &str {
        "Tee"
    }
    fn push(&mut self, _port: usize, p: Packet, out: &mut Emitter) {
        for port in 1..self.n {
            out.emit(port, p.clone());
        }
        out.emit(0, p);
    }
    fn push_batch(&mut self, port: usize, batch: PacketBatch, out: &mut BatchEmitter) {
        out.push_each(batch, |p, e| self.push(port, p, e));
    }
}

/// `Paint(color)`: sets the paint annotation.
#[derive(Debug)]
pub struct Paint {
    color: u8,
}

impl Paint {
    /// Creates from a configuration string: the color.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Paint> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err("Paint", "expects exactly one color argument"));
        }
        Ok(Paint {
            color: int_arg("Paint", "color", &a[0])?,
        })
    }
    /// The configured color.
    pub fn color(&self) -> u8 {
        self.color
    }
}

impl Element for Paint {
    fn class_name(&self) -> &str {
        "Paint"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.anno.paint = self.color;
        Some((0, p))
    }
}

/// `PaintTee(color)`: forwards every packet on output 0; packets whose
/// paint matches also send a copy to output 1 (the ICMP-redirect trigger
/// in the IP router). Pulled, it pushes the copy out of output 1.
#[derive(Debug)]
pub struct PaintTee {
    color: u8,
    matched: u64,
}

impl PaintTee {
    /// Creates from a configuration string: the color to test.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<PaintTee> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err("PaintTee", "expects exactly one color argument"));
        }
        Ok(PaintTee {
            color: int_arg("PaintTee", "color", &a[0])?,
            matched: 0,
        })
    }

    /// The copy for output 1, if `p`'s paint matches.
    fn copy(&mut self, p: &Packet) -> Option<Packet> {
        (p.anno.paint == self.color).then(|| {
            self.matched += 1;
            p.clone()
        })
    }
}

impl Element for PaintTee {
    fn class_name(&self) -> &str {
        "PaintTee"
    }
    fn push(&mut self, _port: usize, p: Packet, out: &mut Emitter) {
        if let Some(c) = self.copy(&p) {
            out.emit(1, c);
        }
        out.emit(0, p);
    }
    fn push_batch(&mut self, port: usize, batch: PacketBatch, out: &mut BatchEmitter) {
        out.push_each(batch, |p, e| self.push(port, p, e));
    }
    fn pull(&mut self, _port: usize, ctx: &mut dyn PullContext) -> Option<Packet> {
        let p = ctx.pull(0)?;
        if let Some(c) = self.copy(&p) {
            ctx.push_out(1, c);
        }
        Some(p)
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "matched").then_some(self.matched)
    }
}

/// `CheckPaint(color)`: routes matching-paint packets to output 1,
/// everything else to output 0.
#[derive(Debug)]
pub struct CheckPaint {
    color: u8,
}

impl CheckPaint {
    /// Creates from a configuration string: the color to test.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<CheckPaint> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "CheckPaint",
                "expects exactly one color argument",
            ));
        }
        Ok(CheckPaint {
            color: int_arg("CheckPaint", "color", &a[0])?,
        })
    }
}

impl Element for CheckPaint {
    fn class_name(&self) -> &str {
        "CheckPaint"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        Some((usize::from(p.anno.paint == self.color), p))
    }
}

/// `Strip(n)`: removes `n` bytes from the front of each packet.
#[derive(Debug)]
pub struct Strip {
    n: usize,
}

impl Strip {
    /// Creates from a configuration string: the byte count.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Strip> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err("Strip", "expects exactly one length argument"));
        }
        Ok(Strip {
            n: int_arg("Strip", "length", &a[0])?,
        })
    }
    /// The configured strip length.
    pub fn amount(&self) -> usize {
        self.n
    }
}

impl Element for Strip {
    fn class_name(&self) -> &str {
        "Strip"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.pull(self.n);
        Some((0, p))
    }
}

/// `Unstrip(n)`: restores `n` bytes at the front.
#[derive(Debug)]
pub struct Unstrip {
    n: usize,
}

impl Unstrip {
    /// Creates from a configuration string: the byte count.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Unstrip> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err("Unstrip", "expects exactly one length argument"));
        }
        Ok(Unstrip {
            n: int_arg("Unstrip", "length", &a[0])?,
        })
    }
}

impl Element for Unstrip {
    fn class_name(&self) -> &str {
        "Unstrip"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.push(self.n);
        Some((0, p))
    }
}

/// `Align(modulus, offset)`: copies packet data to the requested
/// alignment (inserted by `click-align`).
#[derive(Debug)]
pub struct Align {
    modulus: usize,
    offset: usize,
    realigned: u64,
}

impl Align {
    /// Creates from a configuration string: `modulus, offset`.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Align> {
        let a = args(config);
        if a.len() != 2 {
            return Err(config_err("Align", "expects `modulus, offset`"));
        }
        let modulus: usize = int_arg("Align", "modulus", &a[0])?;
        let offset: usize = int_arg("Align", "offset", &a[1])?;
        if !modulus.is_power_of_two() || offset >= modulus {
            return Err(config_err(
                "Align",
                "modulus must be a power of two greater than offset",
            ));
        }
        Ok(Align {
            modulus,
            offset,
            realigned: 0,
        })
    }
}

impl Element for Align {
    fn class_name(&self) -> &str {
        "Align"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        if p.alignment_offset() != self.offset % self.modulus.max(1)
            || p.headroom() % self.modulus != self.offset
        {
            self.realigned += 1;
        }
        p.align_to(self.modulus, self.offset);
        Some((0, p))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "realigned").then_some(self.realigned)
    }
}

/// `AlignmentInfo(...)`: information element, never sees packets.
#[derive(Debug)]
pub struct AlignmentInfo;

impl AlignmentInfo {
    /// Creates from any configuration string (contents are advisory).
    pub fn from_config(_config: &str, _ctx: &mut CreateCtx) -> Result<AlignmentInfo> {
        Ok(AlignmentInfo)
    }
}

impl Element for AlignmentInfo {
    fn class_name(&self) -> &str {
        "AlignmentInfo"
    }
}

/// `Switch(k)` / `StaticSwitch(k)`: sends every packet to output `k`, or
/// drops all packets if `k` is negative.
#[derive(Debug)]
pub struct Switch {
    k: i64,
}

impl Switch {
    /// Creates from a configuration string: the output index (or -1).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Switch> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err("Switch", "expects exactly one output argument"));
        }
        Ok(Switch {
            k: int_arg("Switch", "output", &a[0])?,
        })
    }
    /// The configured output, or `None` for "drop everything".
    pub fn target(&self) -> Option<usize> {
        usize::try_from(self.k).ok()
    }
}

impl Element for Switch {
    fn class_name(&self) -> &str {
        "Switch"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        match self.target() {
            Some(k) => Some((k, p)),
            None => {
                p.recycle();
                None
            }
        }
    }
}

/// `StaticPullSwitch(k)`: pulls from input `k` only.
#[derive(Debug)]
pub struct StaticPullSwitch {
    k: usize,
}

impl StaticPullSwitch {
    /// Creates from a configuration string: the input index.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<StaticPullSwitch> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "StaticPullSwitch",
                "expects exactly one input argument",
            ));
        }
        Ok(StaticPullSwitch {
            k: int_arg("StaticPullSwitch", "input", &a[0])?,
        })
    }
}

impl Element for StaticPullSwitch {
    fn class_name(&self) -> &str {
        "StaticPullSwitch"
    }
    fn pull(&mut self, _port: usize, ctx: &mut dyn PullContext) -> Option<Packet> {
        ctx.pull(self.k)
    }
}

/// `RoundRobinSched`: pulls from its inputs in round-robin order.
#[derive(Debug, Default)]
pub struct RoundRobinSched {
    next: usize,
}

impl RoundRobinSched {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<RoundRobinSched> {
        if !config.trim().is_empty() {
            return Err(config_err("RoundRobinSched", "takes no configuration"));
        }
        Ok(RoundRobinSched::default())
    }
}

impl Element for RoundRobinSched {
    fn class_name(&self) -> &str {
        "RoundRobinSched"
    }
    fn pull(&mut self, _port: usize, ctx: &mut dyn PullContext) -> Option<Packet> {
        let n = ctx.ninputs();
        for i in 0..n {
            let port = (self.next + i) % n;
            if let Some(p) = ctx.pull(port) {
                self.next = (port + 1) % n;
                return Some(p);
            }
        }
        None
    }
}

/// `PrioSched`: pulls from the lowest-numbered ready input.
#[derive(Debug, Default)]
pub struct PrioSched;

impl PrioSched {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<PrioSched> {
        if !config.trim().is_empty() {
            return Err(config_err("PrioSched", "takes no configuration"));
        }
        Ok(PrioSched)
    }
}

impl Element for PrioSched {
    fn class_name(&self) -> &str {
        "PrioSched"
    }
    fn pull(&mut self, _port: usize, ctx: &mut dyn PullContext) -> Option<Packet> {
        for port in 0..ctx.ninputs() {
            if let Some(p) = ctx.pull(port) {
                return Some(p);
            }
        }
        None
    }
}

/// `Idle`: never produces packets; consumes and drops anything pushed in.
#[derive(Debug, Default)]
pub struct Idle;

impl Idle {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Idle> {
        if !config.trim().is_empty() {
            return Err(config_err("Idle", "takes no configuration"));
        }
        Ok(Idle)
    }
}

impl Element for Idle {
    fn class_name(&self) -> &str {
        "Idle"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        p.recycle();
        None
    }
    fn pull(&mut self, _port: usize, _ctx: &mut dyn PullContext) -> Option<Packet> {
        None
    }
}

/// `Null`: forwards packets unchanged.
#[derive(Debug, Default)]
pub struct Null;

impl Null {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Null> {
        if !config.trim().is_empty() {
            return Err(config_err("Null", "takes no configuration"));
        }
        Ok(Null)
    }
}

impl Element for Null {
    fn class_name(&self) -> &str {
        "Null"
    }
}

/// `InfiniteSource(limit [, length])`: a task that pushes up to `limit`
/// synthetic packets, a burst per `run_task`.
#[derive(Debug)]
pub struct InfiniteSource {
    limit: u64,
    emitted: u64,
    length: usize,
    scratch: PacketBatch,
}

impl InfiniteSource {
    /// Creates from a configuration string: `limit [, packet length]`.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<InfiniteSource> {
        let a = args(config);
        let limit = match a.first() {
            Some(s) => int_arg("InfiniteSource", "limit", s)?,
            None => u64::MAX,
        };
        let length = match a.get(1) {
            Some(s) => int_arg("InfiniteSource", "length", s)?,
            None => 60,
        };
        if a.len() > 2 {
            return Err(config_err("InfiniteSource", "takes at most two arguments"));
        }
        Ok(InfiniteSource {
            limit,
            emitted: 0,
            length,
            scratch: PacketBatch::new(),
        })
    }
}

impl Element for InfiniteSource {
    fn class_name(&self) -> &str {
        "InfiniteSource"
    }
    fn is_task(&self) -> bool {
        true
    }
    fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
        let moved = (self.limit - self.emitted).min(ctx.burst() as u64) as usize;
        if moved == 0 {
            return 0;
        }
        self.scratch
            .extend((0..moved).map(|_| Packet::new(self.length)));
        self.emitted += moved as u64;
        ctx.emit_batch(0, &mut self.scratch);
        moved
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    fn push_one(e: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let mut out = Emitter::new();
        e.push(0, p, &mut out);
        out.drain().collect()
    }

    #[test]
    fn discard_counts() {
        let mut d = Discard::from_config("", &mut ctx()).unwrap();
        assert!(push_one(&mut d, Packet::new(10)).is_empty());
        assert_eq!(d.stat("count"), Some(1));
        assert!(Discard::from_config("x", &mut ctx()).is_err());
    }

    #[test]
    fn counter_counts_packets_and_bytes() {
        let mut c = Counter::from_config("", &mut ctx()).unwrap();
        push_one(&mut c, Packet::new(10));
        push_one(&mut c, Packet::new(20));
        assert_eq!(c.stat("count"), Some(2));
        assert_eq!(c.stat("byte_count"), Some(30));
        assert_eq!(c.stat("bogus"), None);
    }

    #[test]
    fn tee_duplicates() {
        let mut t = Tee::from_config("3", &mut ctx()).unwrap();
        let outs = push_one(&mut t, Packet::from_data(&[7]));
        let mut ports: Vec<usize> = outs.iter().map(|(p, _)| *p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1, 2]);
        assert!(outs.iter().all(|(_, p)| p.data() == [7]));
        assert!(Tee::from_config("0", &mut ctx()).is_err());
    }

    #[test]
    fn paint_and_checkpaint() {
        let mut paint = Paint::from_config("3", &mut ctx()).unwrap();
        let p = push_one(&mut paint, Packet::new(4)).remove(0).1;
        assert_eq!(p.anno.paint, 3);

        let mut cp = CheckPaint::from_config("3", &mut ctx()).unwrap();
        let hit = push_one(&mut cp, p.clone());
        assert_eq!(hit[0].0, 1);
        let mut other = p;
        other.anno.paint = 1;
        let miss = push_one(&mut cp, other);
        assert_eq!(miss[0].0, 0);
    }

    #[test]
    fn painttee_copies_on_match() {
        let mut pt = PaintTee::from_config("2", &mut ctx()).unwrap();
        let mut p = Packet::new(4);
        p.anno.paint = 2;
        let outs = push_one(&mut pt, p);
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().any(|(port, _)| *port == 0));
        assert!(outs.iter().any(|(port, _)| *port == 1));
        assert_eq!(pt.stat("matched"), Some(1));

        let mut q = Packet::new(4);
        q.anno.paint = 9;
        assert_eq!(push_one(&mut pt, q).len(), 1);
    }

    #[test]
    fn strip_and_unstrip() {
        let mut s = Strip::from_config("14", &mut ctx()).unwrap();
        let mut u = Unstrip::from_config("14", &mut ctx()).unwrap();
        let p = Packet::from_data(&(0..20).collect::<Vec<u8>>());
        let stripped = push_one(&mut s, p).remove(0).1;
        assert_eq!(stripped.len(), 6);
        assert_eq!(stripped.data()[0], 14);
        let restored = push_one(&mut u, stripped).remove(0).1;
        assert_eq!(restored.len(), 20);
        assert_eq!(restored.data()[0], 0);
    }

    #[test]
    fn align_element() {
        let mut a = Align::from_config("4, 0", &mut ctx()).unwrap();
        let p = Packet::new(20); // default offset 2
        let aligned = push_one(&mut a, p).remove(0).1;
        assert_eq!(aligned.alignment_offset(), 0);
        assert_eq!(a.stat("realigned"), Some(1));
        assert!(Align::from_config("3, 0", &mut ctx()).is_err());
        assert!(Align::from_config("4, 4", &mut ctx()).is_err());
    }

    #[test]
    fn switch_routes_or_drops() {
        let mut s = Switch::from_config("1", &mut ctx()).unwrap();
        assert_eq!(push_one(&mut s, Packet::new(1))[0].0, 1);
        let mut drop = Switch::from_config("-1", &mut ctx()).unwrap();
        assert!(push_one(&mut drop, Packet::new(1)).is_empty());
    }

    #[test]
    fn infinite_source_respects_limit() {
        struct Sink(Vec<Packet>);
        impl TaskContext for Sink {
            fn burst(&self) -> usize {
                8
            }
            fn rx_pop_batch(
                &mut self,
                _d: crate::element::DeviceId,
                _max: usize,
                _into: &mut PacketBatch,
            ) -> usize {
                0
            }
            fn emit_batch(&mut self, _port: usize, batch: &mut PacketBatch) {
                self.0.extend(batch.drain());
            }
            fn pull_batch(&mut self, _port: usize, _max: usize, _into: &mut PacketBatch) -> usize {
                0
            }
            fn tx_push_batch(&mut self, _d: crate::element::DeviceId, _batch: &mut PacketBatch) {}
        }
        let mut src = InfiniteSource::from_config("10, 60", &mut ctx()).unwrap();
        assert!(src.is_task());
        let mut sink = Sink(Vec::new());
        let mut total = 0;
        loop {
            let n = src.run_task(&mut sink);
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 10);
        assert_eq!(sink.0.len(), 10);
        assert_eq!(sink.0[0].len(), 60);
    }

    #[test]
    fn idle_and_null() {
        let mut i = Idle::from_config("", &mut ctx()).unwrap();
        assert!(push_one(&mut i, Packet::new(1)).is_empty());
        let mut n = Null::from_config("", &mut ctx()).unwrap();
        assert_eq!(push_one(&mut n, Packet::new(1)).len(), 1);
    }
}
