//! Storage elements: `Queue` and `RED`.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{args, config_err, int_arg, CreateCtx, Element, Emitter, PullContext};
use crate::packet::Packet;
use crate::swap::ElementState;
use click_core::error::Result;
use click_core::Lcg;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Default queue capacity, matching Click's 1000-packet default.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1000;

/// `Queue(capacity)`: push in, pull out, dropping when full. The boundary
/// between the push and pull halves of a configuration.
#[derive(Debug)]
pub struct Queue {
    q: VecDeque<Packet>,
    capacity: usize,
    drops: u64,
    highwater: usize,
    depth: Rc<Cell<usize>>,
}

impl Queue {
    /// Creates from a configuration string: optional capacity.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Queue> {
        let a = args(config);
        let capacity = match a.len() {
            0 => DEFAULT_QUEUE_CAPACITY,
            1 => int_arg("Queue", "capacity", &a[0])?,
            _ => return Err(config_err("Queue", "takes at most one capacity argument")),
        };
        if capacity == 0 {
            return Err(config_err("Queue", "capacity must be positive"));
        }
        Ok(Queue {
            q: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            drops: 0,
            highwater: 0,
            depth: Rc::new(Cell::new(0)),
        })
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Element for Queue {
    fn class_name(&self) -> &str {
        "Queue"
    }
    fn push(&mut self, _port: usize, p: Packet, _out: &mut Emitter) {
        if self.q.len() >= self.capacity {
            self.drops += 1;
        } else {
            self.q.push_back(p);
            self.highwater = self.highwater.max(self.q.len());
            self.depth.set(self.q.len());
        }
    }
    fn pull(&mut self, _port: usize, _ctx: &mut dyn PullContext) -> Option<Packet> {
        let p = self.q.pop_front();
        self.depth.set(self.q.len());
        p
    }
    fn push_batch(&mut self, _port: usize, mut batch: PacketBatch, out: &mut BatchEmitter) {
        // Bulk enqueue with one depth/highwater update; overflow drops go
        // back to the packet pool.
        for p in batch.drain() {
            if self.q.len() >= self.capacity {
                self.drops += 1;
            } else {
                self.q.push_back(p);
            }
        }
        self.highwater = self.highwater.max(self.q.len());
        self.depth.set(self.q.len());
        out.recycle_storage(batch);
    }
    fn pull_batch(
        &mut self,
        _port: usize,
        max: usize,
        _ctx: &mut dyn PullContext,
        into: &mut PacketBatch,
    ) -> usize {
        let n = max.min(self.q.len());
        into.extend(self.q.drain(..n));
        self.depth.set(self.q.len());
        n
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "drops" => Some(self.drops),
            "length" => Some(self.q.len() as u64),
            "highwater" => Some(self.highwater as u64),
            "capacity" => Some(self.capacity as u64),
            _ => None,
        }
    }
    fn queue_depth_handle(&self) -> Option<Rc<Cell<usize>>> {
        Some(Rc::clone(&self.depth))
    }
    fn take_state(&mut self) -> Option<ElementState> {
        let mut s = ElementState::new("Queue")
            .counter("drops", self.drops)
            .counter("highwater", self.highwater as u64);
        s.packets = self.q.drain(..).collect();
        self.depth.set(0);
        Some(s)
    }
    fn restore_state(&mut self, state: ElementState) {
        self.drops += state.get("drops");
        self.highwater = self.highwater.max(state.get("highwater") as usize);
        // Re-enqueue the predecessor's contents in FIFO order; if the new
        // queue is smaller, the overflow drops here and is visible in the
        // `drops` gauge, keeping the swap's loss accounted.
        for p in state.packets {
            if self.q.len() >= self.capacity {
                self.drops += 1;
            } else {
                self.q.push_back(p);
            }
        }
        self.highwater = self.highwater.max(self.q.len());
        self.depth.set(self.q.len());
    }
}

/// `RED(min_thresh, max_thresh, max_p_percent)`: random early detection.
///
/// Drops packets probabilistically as the average occupancy of the nearest
/// downstream `Queue` climbs between the two thresholds. The router
/// runtime wires the queue-depth handle after configuration (like Click's
/// `RED` finding its downstream `Storage` element). Randomness is a
/// deterministic LCG so runs are reproducible.
#[derive(Debug)]
pub struct Red {
    min_thresh: usize,
    max_thresh: usize,
    /// Drop probability at `max_thresh`, in 1/10000 units.
    max_p_e4: u64,
    avg_e8: u64, // EWMA of queue depth, fixed-point * 2^8
    depth: Option<Rc<Cell<usize>>>,
    drops: u64,
    rng: Lcg,
}

impl Red {
    /// Creates from a configuration string:
    /// `min_thresh, max_thresh, max_p` (`max_p` a fraction like `0.02`).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<Red> {
        let a = args(config);
        if a.len() != 3 {
            return Err(config_err("RED", "expects `min_thresh, max_thresh, max_p`"));
        }
        let min_thresh: usize = int_arg("RED", "min_thresh", &a[0])?;
        let max_thresh: usize = int_arg("RED", "max_thresh", &a[1])?;
        let max_p: f64 = a[2]
            .trim()
            .parse()
            .map_err(|_| config_err("RED", format!("bad max_p {:?}", a[2])))?;
        if max_thresh <= min_thresh {
            return Err(config_err("RED", "max_thresh must exceed min_thresh"));
        }
        if !(0.0..=1.0).contains(&max_p) {
            return Err(config_err("RED", "max_p must be between 0 and 1"));
        }
        Ok(Red {
            min_thresh,
            max_thresh,
            max_p_e4: (max_p * 10000.0) as u64,
            avg_e8: 0,
            depth: None,
            drops: 0,
            rng: Lcg::new(0x243F6A8885A308D3),
        })
    }

    fn next_rand_e4(&mut self) -> u64 {
        self.rng.next() % 10000
    }

    /// The current average queue depth estimate.
    pub fn avg_depth(&self) -> f64 {
        self.avg_e8 as f64 / 256.0
    }
}

impl Element for Red {
    fn class_name(&self) -> &str {
        "RED"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        let depth = self.depth.as_ref().map(|d| d.get()).unwrap_or(0);
        // EWMA with weight 1/4: avg += (depth - avg) / 4.
        let depth_e8 = (depth as u64) << 8;
        self.avg_e8 = self.avg_e8 - (self.avg_e8 >> 2) + (depth_e8 >> 2);
        let avg = (self.avg_e8 >> 8) as usize;
        if avg < self.min_thresh {
            return Some((0, p));
        }
        if avg >= self.max_thresh {
            self.drops += 1;
            return None;
        }
        let span = (self.max_thresh - self.min_thresh) as u64;
        let prob_e4 = self.max_p_e4 * (avg - self.min_thresh) as u64 / span;
        if self.next_rand_e4() < prob_e4 {
            self.drops += 1;
            None
        } else {
            Some((0, p))
        }
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "drops").then_some(self.drops)
    }
    fn attach_downstream_queue(&mut self, handle: Rc<Cell<usize>>) {
        self.depth = Some(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Emitter;

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

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    #[test]
    fn queue_fifo_order() {
        let mut q = Queue::from_config("4", &mut ctx()).unwrap();
        let mut out = Emitter::new();
        for i in 0..3u8 {
            q.push(0, Packet::from_data(&[i]), &mut out);
        }
        assert!(out.is_empty(), "queue must not emit during push");
        for i in 0..3u8 {
            let p = q.pull(0, &mut NoPulls).unwrap();
            assert_eq!(p.data(), &[i]);
        }
        assert!(q.pull(0, &mut NoPulls).is_none());
    }

    #[test]
    fn queue_drops_when_full() {
        let mut q = Queue::from_config("2", &mut ctx()).unwrap();
        let mut out = Emitter::new();
        for i in 0..5u8 {
            q.push(0, Packet::from_data(&[i]), &mut out);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.stat("drops"), Some(3));
        assert_eq!(q.stat("highwater"), Some(2));
    }

    #[test]
    fn queue_depth_handle_tracks_occupancy() {
        let mut q = Queue::from_config("10", &mut ctx()).unwrap();
        let h = q.queue_depth_handle().unwrap();
        let mut out = Emitter::new();
        q.push(0, Packet::new(1), &mut out);
        q.push(0, Packet::new(1), &mut out);
        assert_eq!(h.get(), 2);
        q.pull(0, &mut NoPulls);
        assert_eq!(h.get(), 1);
    }

    #[test]
    fn queue_config_validation() {
        assert!(Queue::from_config("0", &mut ctx()).is_err());
        assert!(Queue::from_config("1, 2", &mut ctx()).is_err());
        assert_eq!(
            Queue::from_config("", &mut ctx()).unwrap().capacity(),
            DEFAULT_QUEUE_CAPACITY
        );
    }

    #[test]
    fn red_passes_below_min_thresh() {
        let mut red = Red::from_config("5, 10, 0.5", &mut ctx()).unwrap();
        let depth = Rc::new(Cell::new(0));
        red.attach_downstream_queue(Rc::clone(&depth));
        for _ in 0..100 {
            assert!(red.action(Packet::new(1)).is_some());
        }
        assert_eq!(red.stat("drops"), Some(0));
    }

    #[test]
    fn red_drops_everything_above_max_thresh() {
        let mut red = Red::from_config("2, 4, 0.5", &mut ctx()).unwrap();
        let depth = Rc::new(Cell::new(100));
        red.attach_downstream_queue(Rc::clone(&depth));
        // Warm the EWMA past max_thresh.
        for _ in 0..20 {
            red.action(Packet::new(1));
        }
        let before = red.stat("drops").unwrap();
        for _ in 0..10 {
            assert!(red.action(Packet::new(1)).is_none());
        }
        assert_eq!(red.stat("drops").unwrap(), before + 10);
    }

    #[test]
    fn red_drops_probabilistically_in_between() {
        let mut red = Red::from_config("10, 1000, 1.0", &mut ctx()).unwrap();
        let depth = Rc::new(Cell::new(500));
        red.attach_downstream_queue(Rc::clone(&depth));
        let mut dropped = 0;
        for _ in 0..2000 {
            if red.action(Packet::new(1)).is_none() {
                dropped += 1;
            }
        }
        // Expected drop probability ~49% once the EWMA converges to 500.
        assert!(dropped > 500 && dropped < 1500, "dropped {dropped}/2000");
    }

    #[test]
    fn red_config_validation() {
        assert!(Red::from_config("10, 5, 0.1", &mut ctx()).is_err());
        assert!(Red::from_config("1, 2, 1.5", &mut ctx()).is_err());
        assert!(Red::from_config("1, 2", &mut ctx()).is_err());
    }
}
