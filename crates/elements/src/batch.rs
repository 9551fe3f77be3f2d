//! Vector packet processing: packet batches and the branch-sorted batch
//! emitter.
//!
//! The paper's optimizations attack *per-call* dispatch cost; batching
//! attacks *per-packet* dispatch cost by moving a whole burst of packets
//! across each element boundary in one call (VPP-style vector
//! processing). A [`PacketBatch`] is the unit of transfer; a
//! [`BatchEmitter`] collects an element's outputs *sorted by output
//! port*, so a batch that takes the same branch stays coalesced
//! hop-to-hop instead of degenerating back into single packets.
//!
//! Batch storage is recycled through the emitter's free list, mirroring
//! the packet pool in [`crate::packet`]: a steady-state forwarding path
//! moves batches without allocating.

use crate::element::Emitter;
use crate::packet::Packet;

/// A burst of packets traveling together between two elements.
///
/// Order within a batch is the arrival order of the packets; every
/// batch operation preserves it, so per-path FIFO behavior matches the
/// scalar engine exactly.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pkts: Vec<Packet>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> PacketBatch {
        PacketBatch::default()
    }

    /// An empty batch with room for `cap` packets.
    pub fn with_capacity(cap: usize) -> PacketBatch {
        PacketBatch {
            pkts: Vec::with_capacity(cap),
        }
    }

    /// Appends a packet (at the tail: batches are FIFO).
    #[inline]
    pub fn push(&mut self, p: Packet) {
        self.pkts.push(p);
    }

    /// Number of packets in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True if the batch holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Removes all packets, in order. Keeps the storage for reuse. The
    /// packets not yet taken stay readable through `as_slice`, so an
    /// element can look ahead at the rest of the batch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Packet> {
        self.pkts.drain(..)
    }

    /// Iterates over the packets.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.pkts.iter()
    }

    /// Iterates mutably over the packets (for in-place edits that keep
    /// the batch whole, as `ARPQuerier` frames its packets).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Packet> {
        self.pkts.iter_mut()
    }

    /// Drops all packets, keeping the storage for reuse.
    pub fn clear(&mut self) {
        self.pkts.clear();
    }

    /// Drops all packets. Kept for the frozen benchmark, which calls it;
    /// goes with ROADMAP 1(a).
    pub fn recycle_packets(&mut self) {
        self.clear();
    }

    /// Removes and returns packets without consuming the batch storage.
    pub fn take_all(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.pkts)
    }
}

impl Extend<Packet> for PacketBatch {
    fn extend<T: IntoIterator<Item = Packet>>(&mut self, iter: T) {
        self.pkts.extend(iter);
    }
}

impl IntoIterator for PacketBatch {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.pkts.into_iter()
    }
}

impl FromIterator<Packet> for PacketBatch {
    fn from_iter<T: IntoIterator<Item = Packet>>(iter: T) -> PacketBatch {
        PacketBatch {
            pkts: iter.into_iter().collect(),
        }
    }
}

/// Collects the packets an element emits during one
/// [`push_batch`](crate::element::Element::push_batch) call, grouped by
/// output port — the branch-sorted output map.
///
/// Ports appear in first-emission order; packets within a port keep
/// their relative order. Empty batch storage is kept on a free list so
/// repeated hops reuse allocations.
#[derive(Debug, Default)]
pub struct BatchEmitter {
    ports: Vec<(usize, PacketBatch)>,
    free: Vec<PacketBatch>,
    scratch: Emitter,
}

impl BatchEmitter {
    /// Creates an empty emitter.
    pub fn new() -> BatchEmitter {
        BatchEmitter::default()
    }

    fn batch_for(&mut self, port: usize) -> &mut PacketBatch {
        // Linear search: elements have a handful of output ports, and the
        // common case (port 0, most recently used) hits immediately.
        if let Some(i) = self.ports.iter().position(|(p, _)| *p == port) {
            return &mut self.ports[i].1;
        }
        let b = self.free.pop().unwrap_or_default();
        self.ports.push((port, b));
        &mut self.ports.last_mut().expect("just pushed").1
    }

    /// Emits one packet on `port`.
    #[inline]
    pub fn emit(&mut self, port: usize, p: Packet) {
        self.batch_for(port).push(p);
    }

    /// Emits a whole batch on `port`, keeping it coalesced. The incoming
    /// batch's storage is recycled.
    pub fn emit_batch(&mut self, port: usize, mut batch: PacketBatch) {
        if let Some(i) = self.ports.iter().position(|(p, _)| *p == port) {
            self.ports[i].1.extend(batch.drain());
            self.free.push(batch);
        } else {
            self.ports.push((port, batch));
        }
    }

    /// True if nothing was emitted since the last drain.
    pub fn is_empty(&self) -> bool {
        self.ports.iter().all(|(_, b)| b.is_empty())
    }

    /// Removes the most recently emitted port group (used by the engine
    /// to process groups in reverse, preserving depth-first order).
    pub fn pop_group(&mut self) -> Option<(usize, PacketBatch)> {
        loop {
            let (port, batch) = self.ports.pop()?;
            if batch.is_empty() {
                self.free.push(batch);
            } else {
                return Some((port, batch));
            }
        }
    }

    /// Takes empty batch storage from the free list (allocating only if
    /// the list is empty).
    pub fn take_storage(&mut self) -> PacketBatch {
        self.free.pop().unwrap_or_default()
    }

    /// Returns empty batch storage for reuse by later hops.
    pub fn recycle_storage(&mut self, mut batch: PacketBatch) {
        debug_assert!(
            batch.is_empty(),
            "recycling a non-empty batch drops its packets uncounted"
        );
        batch.pkts.clear();
        self.free.push(batch);
    }

    /// Runs a scalar `push`-style closure against a reusable [`Emitter`]
    /// and folds its emissions into the port map: the scalar adapter, for
    /// work that may emit several packets per input packet.
    pub fn with_scalar<F: FnOnce(&mut Emitter)>(&mut self, f: F) {
        let mut scratch = std::mem::take(&mut self.scratch);
        f(&mut scratch);
        for (port, p) in scratch.drain() {
            self.emit(port, p);
        }
        self.scratch = scratch;
    }

    /// Drains `batch` through a scalar `push` one packet at a time, via
    /// [`with_scalar`](Self::with_scalar): the `push_batch` of an element
    /// that overrides `push` (`Tee`, `IPFragmenter`, ...).
    pub fn push_each(
        &mut self,
        mut batch: PacketBatch,
        mut push: impl FnMut(Packet, &mut Emitter),
    ) {
        for p in batch.drain() {
            self.with_scalar(|e| push(p, e));
        }
        self.recycle_storage(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(b: u8) -> Packet {
        Packet::from_data(&[b])
    }

    #[test]
    fn batch_preserves_fifo_order() {
        let mut b = PacketBatch::new();
        for i in 0..5u8 {
            b.push(pkt(i));
        }
        let out: Vec<u8> = b.drain().map(|p| p.data()[0]).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn emitter_branch_sorts_by_port() {
        let mut out = BatchEmitter::new();
        out.emit(0, pkt(1));
        out.emit(2, pkt(2));
        out.emit(0, pkt(3));
        // Groups pop in reverse emission order; packets stay ordered.
        let (port, b) = out.pop_group().unwrap();
        assert_eq!(port, 2);
        assert_eq!(b.len(), 1);
        let (port, b) = out.pop_group().unwrap();
        assert_eq!(port, 0);
        let data: Vec<u8> = b.iter().map(|p| p.data()[0]).collect();
        assert_eq!(data, vec![1, 3]);
        assert!(out.pop_group().is_none());
    }

    #[test]
    fn emit_batch_coalesces_into_existing_group() {
        let mut out = BatchEmitter::new();
        out.emit(0, pkt(1));
        let mut extra = PacketBatch::new();
        extra.push(pkt(2));
        extra.push(pkt(3));
        out.emit_batch(0, extra);
        let (_, b) = out.pop_group().unwrap();
        let data: Vec<u8> = b.iter().map(|p| p.data()[0]).collect();
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn storage_is_recycled_between_hops() {
        let mut out = BatchEmitter::new();
        out.emit(1, pkt(9));
        let (_, mut b) = out.pop_group().unwrap();
        b.clear();
        out.recycle_storage(b);
        assert_eq!(out.free.len(), 1);
        out.emit(0, pkt(1));
        assert!(out.free.is_empty(), "new group must reuse free storage");
    }

    #[test]
    fn with_scalar_folds_emitter_output() {
        let mut out = BatchEmitter::new();
        out.with_scalar(|e| {
            e.emit(1, pkt(7));
            e.emit(0, pkt(8));
        });
        let (port, _) = out.pop_group().unwrap();
        assert_eq!(port, 0);
        let (port, b) = out.pop_group().unwrap();
        assert_eq!(port, 1);
        assert_eq!(b.iter().next().unwrap().data(), &[7]);
    }
}
