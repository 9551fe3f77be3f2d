//! The packet abstraction.
//!
//! "The Click packet abstraction is a thin veneer over the Linux kernel's
//! sk_buff" (paper §3): a contiguous byte buffer with headroom and tailroom
//! so headers can be stripped and prepended without copying, plus a small
//! set of annotations (paint, destination IP address, receiving device)
//! that elements use to communicate out of band.

use std::cell::RefCell;
use std::fmt;
use std::mem::ManuallyDrop;

/// Default headroom reserved in front of packet data.
///
/// Room for a re-prepended Ethernet header plus slack, while landing the
/// default data pointer at offset 2 mod 4 — the classic NIC trick that
/// makes the IP header word-aligned after a 14-byte Ethernet header is
/// stripped (see `click-align`).
pub const DEFAULT_HEADROOM: usize = 30;

/// Default tailroom reserved after packet data.
pub const DEFAULT_TAILROOM: usize = 64;

/// Most buffers the thread-local packet pool will hold before retired
/// buffers are released to the allocator instead.
const POOL_CAPACITY: usize = 8192;

/// Buffers larger than this are not pooled (a jumbo buffer would pin too
/// much memory for the common 64-byte forwarding case).
const POOL_MAX_BUF: usize = 1 << 16;

/// Counters describing packet-pool effectiveness.
///
/// `hits / (hits + misses)` after warmup is the figure of merit: a
/// steady-state forwarding path should allocate (nearly) every packet
/// buffer from recycled capacity rather than the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a recycled buffer.
    pub hits: u64,
    /// Allocations that fell through to the heap.
    pub misses: u64,
    /// Blocks returned to the pool by a dropped [`Packet`].
    pub recycled: u64,
    /// Buffers refused by the pool (full, or out of size bounds).
    pub dropped: u64,
}

impl PoolStats {
    /// Fraction of allocations served from the pool (1.0 when no
    /// allocations happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Pool {
    /// Retired blocks, most recently retired (cache-warm) last. Bare
    /// boxes, not `Packet`s: a block the pool clears or refuses is freed,
    /// never dropped as a packet while the pool is borrowed.
    #[allow(
        clippy::vec_box,
        reason = "the boxes are the `Packet` handles themselves"
    )]
    blocks: Vec<Box<PacketBlock>>,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

impl Pool {
    /// A block with fresh annotations and a zeroed buffer of exactly
    /// `len` bytes (Click's packet-pool analogue: the block is the
    /// `sk_buff`, its buffer the data area); the caller sets the data
    /// bounds. Retired blocks all come from the same forwarding path, so
    /// the most recently retired one almost always fits; when it is short
    /// it gets a new buffer, and is the one handed out next time.
    fn alloc(&mut self, len: usize) -> Packet {
        let Some(mut p) = self.blocks.pop() else {
            self.stats.misses += 1;
            return Packet(ManuallyDrop::new(Box::new(PacketBlock {
                buf: vec![0u8; len],
                head: 0,
                tail: 0,
                anno: Anno::default(),
            })));
        };
        // The capacity check dominates the zero-fill, so the hit path is
        // a `resize` known to be in capacity: a plain memset.
        if p.buf.capacity() >= len {
            self.stats.hits += 1;
            p.buf.clear();
            p.buf.resize(len, 0);
        } else {
            self.stats.misses += 1;
            p.buf = vec![0u8; len];
        }
        p.anno = Anno::default();
        Packet(ManuallyDrop::new(p))
    }

    fn retire(&mut self, block: Box<PacketBlock>) {
        if self.blocks.len() < POOL_CAPACITY && (1..=POOL_MAX_BUF).contains(&block.buf.capacity()) {
            self.stats.recycled += 1;
            self.blocks.push(block);
        } else {
            self.stats.dropped += 1;
        }
    }
}

/// Returns a dropped packet's block to this thread's pool. Out of line,
/// so a drop site is one call, and `extern "C"`, so it cannot unwind (a
/// panic in it aborts): loops that drop packets need no landing pad and
/// stay small enough to inline. `try_with`: a packet dropped while its
/// thread tears down just frees its block.
#[inline(never)]
extern "C" fn retire(block: Box<PacketBlock>) {
    let _ = POOL.try_with(|pool| pool.borrow_mut().retire(block));
}

/// Snapshot of this thread's packet-pool counters.
pub fn pool_stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Resets this thread's packet-pool counters (e.g. after benchmark
/// warmup, to measure the steady state only).
pub fn reset_pool_stats() {
    POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
}

/// Releases every pooled block on this thread (test isolation).
pub fn drain_pool() {
    POOL.with(|p| p.borrow_mut().blocks.clear());
}

/// Out-of-band per-packet annotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Anno {
    /// Paint color (set by `Paint`, tested by `PaintTee`/`CheckPaint`).
    pub paint: u8,
    /// Destination IP address annotation (set by `GetIPAddress` /
    /// `SetIPAddress`, consumed by `StaticIPLookup` and `ARPQuerier`).
    pub dst_ip: Option<u32>,
    /// Index of the device the packet arrived on.
    pub device: Option<u16>,
    /// True if the packet was addressed to the link-level broadcast
    /// address (set by device input, tested by `DropBroadcasts`).
    pub link_broadcast: bool,
    /// Set by `ICMPError`; tells `FixIPSrc` to overwrite the source
    /// address.
    pub fix_ip_src: bool,
    /// Arrival timestamp in simulated nanoseconds (0 if unset).
    pub timestamp: u64,
}

/// A network packet: an owning, pointer-sized handle to one pooled
/// [`PacketBlock`] — as Click hands its neighbour a `Packet *`, an element
/// here is handed eight bytes however large the block is. Dereferences
/// to the block for its annotations (`p.anno.paint`). Dropping a packet
/// returns its block to the thread's pool, so a later allocation reuses
/// it without touching the heap; its annotations die with it.
///
/// # Examples
///
/// ```
/// use click_elements::packet::Packet;
///
/// let mut p = Packet::from_data(&[0xAA; 20]);
/// assert_eq!(p.len(), 20);
/// p.pull(14); // strip a header
/// assert_eq!(p.len(), 6);
/// p.push(14); // put it back (contents preserved from the buffer)
/// assert_eq!(p.len(), 20);
/// ```
#[derive(PartialEq, Eq)]
pub struct Packet(ManuallyDrop<Box<PacketBlock>>);

/// What a [`Packet`] points to: a byte buffer with headroom/tailroom,
/// the bounds of the data in it, and annotations.
#[derive(PartialEq, Eq)]
pub struct PacketBlock {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Annotations.
    pub anno: Anno,
}

// Every work stack, emitter, batch, queue and ring entry carries a
// `Packet` by value: it must stay a pointer, with `None` in its niche.
const _: () = {
    assert!(std::mem::size_of::<Packet>() == std::mem::size_of::<usize>());
    assert!(std::mem::size_of::<Option<Packet>>() == std::mem::size_of::<usize>());
};

impl Drop for Packet {
    // Inlined, so a drop site hands `retire` the block pointer in a
    // register instead of keeping the packet in a stack slot for `&mut self`.
    #[inline]
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: `self.0` is taken exactly once, here, and `self` is
        // never used again after `drop`.
        let block = unsafe { ManuallyDrop::take(&mut self.0) };
        retire(block);
    }
}

impl std::ops::Deref for Packet {
    type Target = PacketBlock;
    #[inline]
    fn deref(&self) -> &PacketBlock {
        &self.0
    }
}

impl std::ops::DerefMut for Packet {
    #[inline]
    fn deref_mut(&mut self) -> &mut PacketBlock {
        &mut self.0
    }
}

impl Packet {
    /// Allocates a zero-filled packet of `len` bytes with default
    /// headroom and tailroom.
    pub fn new(len: usize) -> Packet {
        Packet::with_headroom(len, DEFAULT_HEADROOM)
    }

    /// Allocates a zero-filled packet with a specific headroom, which also
    /// determines the initial alignment of the data pointer.
    pub fn with_headroom(len: usize, headroom: usize) -> Packet {
        let mut p = POOL.with(|p| p.borrow_mut().alloc(headroom + len + DEFAULT_TAILROOM));
        p.head = headroom;
        p.tail = headroom + len;
        p
    }

    /// Drops the packet, which returns its block to the pool. Kept for
    /// the frozen benchmark, which calls it; goes with ROADMAP 1(a).
    #[inline]
    pub fn recycle(self) {}

    /// Creates a packet holding a copy of `data`.
    pub fn from_data(data: &[u8]) -> Packet {
        let mut p = Packet::new(data.len());
        p.data_mut().copy_from_slice(data);
        p
    }

    /// The packet as a device's far side receives it: only bytes cross a
    /// wire, so annotations are reset and the data sits at the default
    /// headroom again (copied only if an element moved `head`).
    pub(crate) fn into_wire(mut self) -> Packet {
        if self.0.head != DEFAULT_HEADROOM {
            return Packet::from_data(self.data());
        }
        self.anno = Anno::default();
        self
    }

    /// Hands the packet's own block over as a transmitted frame.
    pub(crate) fn into_frame(self) -> TxFrame {
        TxFrame(self)
    }

    /// The packet contents.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.0.buf[self.0.head..self.0.tail]
    }

    /// Mutable packet contents.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        let b = &mut **self;
        &mut b.buf[b.head..b.tail]
    }

    /// Packet length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.tail - self.0.head
    }

    /// True if the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Available headroom in front of the data.
    pub fn headroom(&self) -> usize {
        self.0.head
    }

    /// Available tailroom after the data.
    pub fn tailroom(&self) -> usize {
        self.0.buf.len() - self.0.tail
    }

    /// Removes `n` bytes from the front (e.g. stripping an Ethernet
    /// header). Removes at most `len()` bytes.
    pub fn pull(&mut self, n: usize) {
        self.0.head = (self.0.head + n).min(self.0.tail);
    }

    /// Moves the data into a zeroed pool buffer of `buf_len` bytes,
    /// starting at `head` there; the old buffer retires in the block the
    /// new one came in.
    fn rebuffer(&mut self, buf_len: usize, head: usize) {
        let len = self.len();
        let mut fresh = POOL.with(|p| p.borrow_mut().alloc(buf_len));
        fresh.buf[head..head + len].copy_from_slice(self.data());
        std::mem::swap(&mut self.0.buf, &mut fresh.buf);
        self.0.head = head;
        self.0.tail = head + len;
    }

    /// Prepends `n` bytes to the front, reallocating for extra headroom if
    /// necessary. Newly exposed bytes retain whatever the buffer held
    /// (zero for fresh allocations).
    pub fn push(&mut self, n: usize) {
        if n > self.0.head {
            // Grow headroom, preserving data alignment mod 4.
            let shift = (n + DEFAULT_HEADROOM - self.0.head).div_ceil(4) * 4;
            self.rebuffer(self.0.buf.len() + shift, self.0.head + shift);
        }
        self.0.head -= n;
    }

    /// Removes `n` bytes from the end.
    pub fn take(&mut self, n: usize) {
        self.0.tail -= n.min(self.len());
    }

    /// Appends `n` zero bytes to the end, reallocating if necessary.
    pub fn put(&mut self, n: usize) {
        let tailroom = self.tailroom();
        let b = &mut **self;
        if n > tailroom {
            b.buf.resize(b.tail + n + DEFAULT_TAILROOM, 0);
        }
        b.buf[b.tail..b.tail + n].fill(0);
        b.tail += n;
    }

    /// The alignment of the data pointer: `data() as usize % 4`, modeled
    /// as the head offset so it is deterministic. Used by alignment tests
    /// and the `Align` element.
    pub fn alignment_offset(&self) -> usize {
        self.0.head % 4
    }

    /// Copies the packet so its data starts at `offset` modulo `modulus`
    /// (the `Align` element's operation).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is 0 or not a power of two, or `offset >=
    /// modulus`.
    pub fn align_to(&mut self, modulus: usize, offset: usize) {
        assert!(
            modulus.is_power_of_two(),
            "alignment modulus must be a power of two"
        );
        assert!(offset < modulus);
        if self.0.head % modulus == offset {
            return;
        }
        let headroom = DEFAULT_HEADROOM / modulus * modulus + offset;
        self.rebuffer(headroom + self.len() + DEFAULT_TAILROOM, headroom);
    }
}

impl Clone for Packet {
    /// Copies the packet through the pool: the clone's block comes from
    /// recycled capacity when available, so fan-out (`Tee`, `PaintTee`)
    /// stays allocation-free in steady state. Byte-for-byte identical to
    /// a plain field-wise copy.
    fn clone(&self) -> Packet {
        let mut p = POOL.with(|p| p.borrow_mut().alloc(self.0.buf.len()));
        p.buf.copy_from_slice(&self.0.buf);
        p.head = self.0.head;
        p.tail = self.0.tail;
        p.anno = self.anno.clone();
        p
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet({} bytes", self.len())?;
        if self.anno.paint != 0 {
            write!(f, ", paint {}", self.anno.paint)?;
        }
        if let Some(ip) = self.anno.dst_ip {
            write!(f, ", dst_ip {}", crate::headers::ip_to_string(ip))?;
        }
        let preview: Vec<String> = self
            .data()
            .iter()
            .take(8)
            .map(|b| format!("{b:02x}"))
            .collect();
        write!(f, ", data {}..)", preview.join(" "))
    }
}

/// A frame a device transmitted, handed to whoever reads the far side:
/// the packet that carried it, seen as its bytes only. Dereferences to
/// the bytes; dropping it drops the packet, so a reader that only looks
/// allocates nothing and one that keeps the frame converts it `into` a
/// `Vec<u8>`.
pub struct TxFrame(Packet);

impl std::ops::Deref for TxFrame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.0.data()
    }
}

impl From<TxFrame> for Vec<u8> {
    fn from(frame: TxFrame) -> Vec<u8> {
        frame.to_vec()
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for TxFrame {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl fmt::Debug for TxFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_is_zeroed() {
        let p = Packet::new(32);
        assert_eq!(p.len(), 32);
        assert!(p.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn pull_and_push_are_inverse() {
        let mut p = Packet::from_data(&(0..40).collect::<Vec<u8>>());
        p.pull(14);
        assert_eq!(p.data()[0], 14);
        assert_eq!(p.len(), 26);
        p.push(14);
        assert_eq!(p.len(), 40);
        assert_eq!(p.data()[0], 0); // original bytes preserved in buffer
    }

    #[test]
    fn push_beyond_headroom_reallocates() {
        let mut p = Packet::with_headroom(8, 2);
        let align_before = p.alignment_offset();
        p.push(10);
        assert_eq!(p.len(), 18);
        // Reallocation preserves alignment mod 4.
        assert_eq!((p.alignment_offset() + 10) % 4, align_before % 4);
    }

    #[test]
    fn pull_clamps_to_length() {
        let mut p = Packet::from_data(&[1, 2, 3]);
        p.pull(10);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn take_and_put() {
        let mut p = Packet::from_data(&[1, 2, 3, 4]);
        p.take(2);
        assert_eq!(p.data(), &[1, 2]);
        p.put(3);
        assert_eq!(p.data(), &[1, 2, 0, 0, 0]);
    }

    #[test]
    fn put_beyond_tailroom_reallocates() {
        let mut p = Packet::from_data(&[7; 4]);
        p.put(DEFAULT_TAILROOM + 100);
        assert_eq!(p.len(), 4 + DEFAULT_TAILROOM + 100);
        assert_eq!(&p.data()[..4], &[7; 4]);
    }

    #[test]
    fn default_headroom_gives_mod4_offset_2() {
        // The 2-byte offset trick: data starts at 2 mod 4 so the IP header
        // is aligned after stripping 14 bytes of Ethernet.
        let p = Packet::new(64);
        assert_eq!(p.alignment_offset(), 2);
        let mut q = p.clone();
        q.pull(14);
        assert_eq!(q.alignment_offset(), 0);
    }

    #[test]
    fn align_to_changes_offset_and_preserves_data() {
        let mut p = Packet::from_data(&(0..32).collect::<Vec<u8>>());
        let before = p.data().to_vec();
        p.align_to(4, 0);
        assert_eq!(p.alignment_offset(), 0);
        assert_eq!(p.data(), &before[..]);
        p.align_to(4, 2);
        assert_eq!(p.alignment_offset(), 2);
        assert_eq!(p.data(), &before[..]);
    }

    #[test]
    fn align_to_is_idempotent() {
        let mut p = Packet::from_data(&[9; 16]);
        p.align_to(4, 2);
        let head = p.headroom();
        p.align_to(4, 2);
        assert_eq!(p.headroom(), head);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_to_rejects_non_power_of_two() {
        Packet::new(4).align_to(3, 0);
    }

    #[test]
    fn annotations_travel_with_clone() {
        let mut p = Packet::new(8);
        p.anno.paint = 3;
        p.anno.dst_ip = Some(0x0A000001);
        let q = p.clone();
        assert_eq!(q.anno.paint, 3);
        assert_eq!(q.anno.dst_ip, Some(0x0A000001));
    }

    #[test]
    fn pool_round_trips_capacity() {
        drain_pool();
        reset_pool_stats();
        let p = Packet::new(64);
        assert_eq!(pool_stats().hits, 0);
        drop(p);
        assert_eq!(pool_stats().recycled, 1);
        // The next same-size allocation must reuse the retired buffer.
        let q = Packet::new(64);
        assert_eq!(pool_stats().hits, 1, "{:?}", pool_stats());
        assert_eq!(q.len(), 64);
        assert!(
            q.data().iter().all(|&b| b == 0),
            "pooled packet must be zeroed"
        );
        // A larger request than any pooled buffer misses.
        drop(q);
        let _big = Packet::new(POOL_MAX_BUF * 2);
        let s = pool_stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
    }

    /// Retires a block whose every annotation is set and whose every
    /// buffer byte is 0xEE: the next allocation on this thread gets it.
    fn retire_dirty(len: usize) {
        let mut p = Packet::new(len);
        p.anno = Anno {
            paint: 7,
            dst_ip: Some(0x0A000001),
            device: Some(3),
            link_broadcast: true,
            fix_ip_src: true,
            timestamp: 42,
        };
        p.0.buf.fill(0xEE);
    }

    /// `p` sits where it was asked to, carries `anno`, and holds nothing
    /// but zeroes outside its data.
    fn assert_clean(p: &Packet, headroom: usize, len: usize, anno: &Anno) {
        assert_eq!((p.headroom(), p.len()), (headroom, len));
        assert_eq!(&p.anno, anno, "annotations leaked through the pool");
        let outside = p.0.buf[..p.0.head].iter().chain(&p.0.buf[p.0.tail..]);
        assert!(
            outside.copied().all(|b| b == 0),
            "stale bytes leaked through the pool"
        );
    }

    #[test]
    fn pool_never_leaks_annotations_between_reuses() {
        drain_pool();
        reset_pool_stats();
        let fresh = Anno::default();
        let painted = Anno {
            paint: 9,
            ..Anno::default()
        };
        // Every way a block comes back out takes the dirty one: `hits`
        // counts them.
        retire_dirty(60);
        let p = Packet::new(60);
        assert_clean(&p, DEFAULT_HEADROOM, 60, &fresh);
        assert!(p.data().iter().all(|&b| b == 0));

        retire_dirty(60);
        let p = Packet::with_headroom(60, 2);
        assert_clean(&p, 2, 60, &fresh);
        assert!(p.data().iter().all(|&b| b == 0));

        retire_dirty(60);
        let mut src = Packet::from_data(&[0xAB; 60]);
        assert_clean(&src, DEFAULT_HEADROOM, 60, &fresh);
        assert_eq!(src.data(), &[0xAB; 60]);

        src.anno.paint = 9;
        retire_dirty(60);
        let copy = src.clone();
        assert_clean(&copy, DEFAULT_HEADROOM, 60, &painted);
        assert_eq!(copy, src);

        // The regrow in `push` and the copy in `align_to` keep the
        // packet's own annotations and move its bytes into the dirty
        // block's buffer.
        let mut p = Packet::with_headroom(8, 2);
        p.data_mut().fill(0x11);
        p.anno.paint = 9;
        retire_dirty(60);
        p.push(10);
        assert_clean(&p, 32, 18, &painted);
        assert_eq!(p.data(), [[0; 10].as_slice(), &[0x11; 8]].concat());

        retire_dirty(60);
        src.align_to(4, 0);
        assert_clean(&src, 28, 60, &painted);
        assert_eq!(src.data(), &[0xAB; 60]);

        // A transmitted frame's block comes back through `drop`.
        let mut sent = Packet::from_data(&[0xCD; 60]);
        sent.anno.timestamp = 42;
        let before = pool_stats();
        drop(sent.into_frame());
        assert_eq!(pool_stats().recycled, before.recycled + 1);
        let p = Packet::new(60);
        assert_clean(&p, DEFAULT_HEADROOM, 60, &fresh);
        assert!(p.data().iter().all(|&b| b == 0));

        let s = pool_stats();
        assert_eq!((s.hits, s.misses), (8, 7), "reuse expected: {s:?}");
    }

    #[test]
    fn large_allocation_over_a_full_pool_of_small_blocks_misses_once() {
        drain_pool();
        let small: Vec<Packet> = (0..POOL_CAPACITY).map(|_| Packet::new(60)).collect();
        drop(small);
        reset_pool_stats();
        for _ in 0..100 {
            drop(Packet::new(1500));
        }
        // The top block got a 1500-byte buffer once and went back on top.
        let s = pool_stats();
        assert!(s.misses <= 1 && s.hits >= 99, "{s:?}");
        drain_pool();
    }

    #[test]
    fn a_packet_retires_into_the_pool_of_the_thread_that_recycles_it() {
        // As in the sharded runtime: allocated by the injecting thread,
        // dropped by a worker.
        reset_pool_stats();
        let mut p = Packet::new(60);
        p.anno.paint = 7;
        p.data_mut().fill(0xEE);
        let theirs = std::thread::spawn(move || {
            drop(p);
            let q = Packet::new(60);
            assert_clean(&q, DEFAULT_HEADROOM, 60, &Anno::default());
            assert!(q.data().iter().all(|&b| b == 0));
            pool_stats()
        })
        .join()
        .expect("worker side is clean");
        assert_eq!((theirs.recycled, theirs.hits, theirs.misses), (1, 1, 0));
        assert_eq!(pool_stats().recycled, 0, "nothing came back to this thread");
    }

    #[test]
    fn frame_dropped_during_thread_teardown_frees_instead_of_panicking() {
        thread_local! {
            static HELD: RefCell<Option<TxFrame>> = const { RefCell::new(None) };
        }
        // Thread-local destructors run in an order the test does not
        // choose, so register `HELD` before the pool on one thread and
        // after it on the other: on one of them the frame outlives the
        // pool, and its drop must fall back to freeing the block.
        for held_first in [true, false] {
            std::thread::spawn(move || {
                if held_first {
                    HELD.with(|h| h.borrow_mut().take());
                }
                let frame = Packet::from_data(&[1, 2, 3]).into_frame();
                HELD.with(|h| *h.borrow_mut() = Some(frame));
            })
            .join()
            .expect("teardown does not panic");
        }
    }

    #[test]
    fn pooled_clone_is_byte_identical() {
        let mut p = Packet::from_data(&(0..48).collect::<Vec<u8>>());
        p.pull(14);
        p.anno.paint = 5;
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(q.headroom(), p.headroom());
        assert_eq!(q.tailroom(), p.tailroom());
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        drain_pool();
        reset_pool_stats();
        drop(Packet::new(POOL_MAX_BUF + 1));
        assert_eq!(pool_stats().recycled, 0);
        assert_eq!(pool_stats().dropped, 1);
    }

    #[test]
    fn debug_is_informative() {
        let mut p = Packet::from_data(&[0xDE, 0xAD]);
        p.anno.paint = 1;
        let s = format!("{p:?}");
        assert!(s.contains("2 bytes"));
        assert!(s.contains("de ad"));
    }
}
