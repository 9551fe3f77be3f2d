//! Bounded single-producer/single-consumer ring queues — the transfer
//! fabric of the sharded runtime ([`crate::parallel`]).
//!
//! Each worker shard owns one inbound and one outbound ring; the
//! injection side and the TX-collection side hold the matching
//! endpoints. Capacity is fixed at construction, so a slow consumer
//! exerts *backpressure* on its producer (the producer spins with
//! [`Backoff`]) instead of growing a queue without bound or dropping.
//!
//! The implementation is safe Rust (`click-elements` forbids `unsafe`):
//! monotonically increasing head/tail counters published with
//! acquire/release atomics select a slot, and a per-slot `Mutex<Option<T>>`
//! hands the value across the thread boundary. With one producer and one
//! consumer every slot lock is uncontended — acquiring it is a single
//! compare-and-swap — so the ring still behaves like a classic lock-free
//! SPSC queue, without the `UnsafeCell` machinery one would use outside
//! a `forbid(unsafe_code)` crate. The [`spsc`] constructor returns
//! distinct [`RingProducer`]/[`RingConsumer`] endpoint types (neither is
//! `Clone`), so the single-producer/single-consumer discipline is
//! enforced by ownership rather than by convention.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The shared ring state behind a producer/consumer endpoint pair.
#[derive(Debug)]
struct Ring<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Next sequence number to pop. Only the consumer stores it.
    head: AtomicUsize,
    /// Next sequence number to push. Only the producer stores it.
    tail: AtomicUsize,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Ring<T> {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

/// Creates a bounded SPSC ring of `capacity` slots, returning the two
/// endpoints. Move the [`RingConsumer`] (or the producer) to another
/// thread; each endpoint is `Send` but deliberately not `Clone`.
pub fn spsc<T: Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let ring = Arc::new(Ring::new(capacity));
    (
        RingProducer {
            ring: Arc::clone(&ring),
        },
        RingConsumer { ring },
    )
}

/// The producing endpoint of a [`spsc`] ring.
#[derive(Debug)]
pub struct RingProducer<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> RingProducer<T> {
    /// Attempts to enqueue one value; returns it back if the ring is full
    /// (the caller decides whether to back off or give up).
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= ring.slots.len() {
            return Err(value);
        }
        // A peer that panicked while holding the slot lock poisons it;
        // the Option protocol stays consistent regardless, so recover the
        // guard instead of propagating the panic into this thread.
        let mut slot = ring.slots[tail % ring.slots.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        debug_assert!(slot.is_none(), "producer overran consumer");
        *slot = Some(value);
        drop(slot);
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues as many items from the front of `items` as fit; returns
    /// how many were moved. Items that do not fit stay in `items` (no
    /// drops — the caller retries after the consumer catches up).
    pub fn push_batch(&self, items: &mut Vec<T>) -> usize {
        // With a single producer the free-slot count can only grow while
        // this runs (the consumer drains concurrently), so one probe
        // bounds the whole batch safely.
        let want = (self.capacity() - self.len()).min(items.len());
        let mut moved = 0;
        // Cannot fail under the SPSC discipline (the probe bounds the
        // batch), but a lost value would be a leaked packet buffer — on a
        // refused push, keep the stragglers and put them back in order
        // instead of asserting.
        let mut leftover: Vec<T> = Vec::new();
        for value in items.drain(..want) {
            if leftover.is_empty() {
                match self.try_push(value) {
                    Ok(()) => moved += 1,
                    Err(v) => leftover.push(v),
                }
            } else {
                leftover.push(value);
            }
        }
        if !leftover.is_empty() {
            leftover.append(items);
            *items = leftover;
        }
        moved
    }

    /// Drains every queued value back out through the *producer* side.
    ///
    /// This deliberately breaks the SPSC role split and is only sound
    /// once the consumer is inert: the supervisor calls it after a worker
    /// shard's thread has died (panicked or exited) to salvage in-flight
    /// items for re-steering, and at shutdown to reclaim buffers. Values
    /// are appended to `into` in FIFO order; returns how many were
    /// salvaged.
    pub fn reclaim(&self, into: &mut Vec<T>) -> usize {
        let ring = &*self.ring;
        let mut moved = 0;
        loop {
            let head = ring.head.load(Ordering::Acquire);
            let tail = ring.tail.load(Ordering::Acquire);
            if head == tail {
                return moved;
            }
            let mut slot = ring.slots[head % ring.slots.len()]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(value) = slot.take() {
                into.push(value);
                moved += 1;
            }
            drop(slot);
            ring.head.store(head.wrapping_add(1), Ordering::Release);
        }
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the ring has no free slot.
    pub fn is_full(&self) -> bool {
        self.len() >= self.ring.slots.len()
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }
}

/// The consuming endpoint of a [`spsc`] ring.
#[derive(Debug)]
pub struct RingConsumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> RingConsumer<T> {
    /// Dequeues one value, or `None` if the ring is empty.
    pub fn try_pop(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // See `try_push`: recover a poisoned slot lock rather than
        // cascading a peer's panic.
        let mut slot = ring.slots[head % ring.slots.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let value = slot.take();
        debug_assert!(value.is_some(), "consumer overran producer");
        drop(slot);
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }

    /// Dequeues up to `max` values into `into`; returns how many arrived.
    pub fn pop_batch(&self, max: usize, into: &mut Vec<T>) -> usize {
        let mut moved = 0;
        while moved < max {
            let Some(v) = self.try_pop() else { break };
            into.push(v);
            moved += 1;
        }
        moved
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }
}

/// Which pause a [`Backoff`] would take on its next unproductive poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffPhase {
    /// Busy-spin: the peer is expected to act within a few cycles.
    Spin,
    /// Yield the core to whoever holds the data we are waiting for.
    Yield,
    /// Sleep; each consecutive nap doubles up to the configured cap.
    Nap,
}

/// Busy-poll pacing for ring endpoints: spin briefly (the common case —
/// the peer is about to act), then yield the core, then sleep in naps
/// that grow *exponentially* — 2 µs doubling to a cap — so a worker
/// that has been idle for a while stops burning its CPU, yet wakes
/// quickly after a short stall. The sharded runtime picks the spin
/// budget from the host's core count ([`crate::parallel`]).
///
/// `reset()` after productive work returns the machine to the spin
/// phase *and* shrinks the nap back to its floor, so one long idle
/// stretch cannot make the next stall start with a long sleep.
#[derive(Debug, Clone)]
pub struct Backoff {
    spins: u32,
    budget: u32,
    nap: std::time::Duration,
    max_nap: std::time::Duration,
}

/// First nap length once spins and yields are exhausted.
const NAP_FLOOR: std::time::Duration = std::time::Duration::from_micros(2);

/// Default ceiling for the exponential nap growth.
const NAP_CAP: std::time::Duration = std::time::Duration::from_micros(512);

impl Backoff {
    /// A backoff that spins `budget` times before yielding/sleeping,
    /// with the default nap cap.
    pub fn new(budget: u32) -> Backoff {
        Backoff::with_max_nap(budget, NAP_CAP)
    }

    /// A backoff with an explicit nap ceiling (per-ring tuning): short
    /// caps favor latency, long caps favor an idle core.
    pub fn with_max_nap(budget: u32, max_nap: std::time::Duration) -> Backoff {
        Backoff {
            spins: 0,
            budget,
            nap: NAP_FLOOR,
            max_nap: max_nap.max(NAP_FLOOR),
        }
    }

    /// The phase the next [`snooze`](Backoff::snooze) will execute.
    pub fn phase(&self) -> BackoffPhase {
        if self.spins < self.budget {
            BackoffPhase::Spin
        } else if self.spins < self.budget.saturating_mul(2).saturating_add(8) {
            BackoffPhase::Yield
        } else {
            BackoffPhase::Nap
        }
    }

    /// The nap the next [`snooze`](Backoff::snooze) would take if the
    /// machine is in (or reaches) the nap phase.
    pub fn next_nap(&self) -> std::time::Duration {
        self.nap
    }

    /// Records an unproductive poll and pauses accordingly.
    pub fn snooze(&mut self) {
        match self.phase() {
            BackoffPhase::Spin => {
                self.spins += 1;
                std::hint::spin_loop();
            }
            BackoffPhase::Yield => {
                self.spins += 1;
                std::thread::yield_now();
            }
            BackoffPhase::Nap => {
                // `park_timeout`, not `sleep`: a producer that knows this
                // endpoint's `Thread` can `unpark` it after a push (a
                // doorbell), cutting the nap short the moment work
                // arrives. Spurious or stale unparks only cost one extra
                // loop through the caller's poll.
                std::thread::park_timeout(self.nap);
                self.nap = self.nap.saturating_mul(2).min(self.max_nap);
            }
        }
    }

    /// Resets the pacing after productive work: back to the spin phase
    /// with the nap length at its floor.
    pub fn reset(&mut self) {
        self.spins = 0;
        self.nap = NAP_FLOOR;
    }
}

/// Occupancy-driven burst controller: grows the per-ring transfer burst
/// while the ring runs hot (amortizing hand-off cost over more packets)
/// and shrinks it while the ring runs cold (keeping latency low and the
/// peer busy). Sizes every transfer on the sharded runtime's enqueue and
/// dequeue sides.
///
/// The rule is deliberately simple and branch-cheap: observe occupancy
/// after each transfer; above 3/4 capacity double the burst (up to
/// `max`), below 1/4 halve it (down to `min`). Hysteresis between the
/// two thresholds keeps the burst stable under steady load.
#[derive(Debug, Clone)]
pub struct AdaptiveBurst {
    cur: usize,
    min: usize,
    max: usize,
}

impl AdaptiveBurst {
    /// A controller starting at `initial`, clamped to `[min, max]`.
    pub fn new(initial: usize, min: usize, max: usize) -> AdaptiveBurst {
        let min = min.max(1);
        let max = max.max(min);
        AdaptiveBurst {
            cur: initial.clamp(min, max),
            min,
            max,
        }
    }

    /// The burst to use for the next transfer.
    pub fn get(&self) -> usize {
        self.cur
    }

    /// Feeds back the ring occupancy observed after a transfer.
    pub fn observe(&mut self, occupancy: usize, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if occupancy.saturating_mul(4) >= capacity.saturating_mul(3) {
            self.cur = self.cur.saturating_mul(2).min(self.max);
        } else if occupancy.saturating_mul(4) <= capacity {
            self.cur = (self.cur / 2).max(self.min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_pops_nothing() {
        let (p, c) = spsc::<u32>(4);
        assert!(c.try_pop().is_none());
        assert!(p.is_empty() && c.is_empty());
        assert!(!p.is_full());
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn full_ring_rejects_push_and_recovers() {
        let (p, c) = spsc::<u32>(2);
        assert!(p.try_push(1).is_ok());
        assert!(p.try_push(2).is_ok());
        assert!(p.is_full());
        // Full: the value comes back, nothing is dropped.
        assert_eq!(p.try_push(3), Err(3));
        assert_eq!(c.try_pop(), Some(1));
        assert!(p.try_push(3).is_ok());
        assert_eq!(c.try_pop(), Some(2));
        assert_eq!(c.try_pop(), Some(3));
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn wraparound_preserves_fifo() {
        let (p, c) = spsc::<usize>(3);
        let mut next = 0usize;
        let mut expect = 0usize;
        for _ in 0..50 {
            while p.try_push(next).is_ok() {
                next += 1;
            }
            while let Some(v) = c.try_pop() {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn batch_enqueue_over_capacity_backpressures_without_drops() {
        let (p, c) = spsc::<u32>(4);
        let mut items: Vec<u32> = (0..10).collect();
        // Only 4 fit; the other 6 must remain queued on the caller side.
        assert_eq!(p.push_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(p.push_batch(&mut items), 0, "full ring accepts nothing");
        // Consumer catches up; the remainder goes through in order.
        let mut got = Vec::new();
        assert_eq!(c.pop_batch(usize::MAX, &mut got), 4);
        assert_eq!(p.push_batch(&mut items), 4);
        assert_eq!(p.push_batch(&mut items), 0, "full again until drained");
        assert_eq!(c.pop_batch(usize::MAX, &mut got), 4);
        assert_eq!(p.push_batch(&mut items), 2);
        assert!(items.is_empty());
        c.pop_batch(usize::MAX, &mut got);
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn pop_batch_respects_max() {
        let (p, c) = spsc::<u32>(8);
        let mut items: Vec<u32> = (0..6).collect();
        p.push_batch(&mut items);
        let mut got = Vec::new();
        assert_eq!(c.pop_batch(4, &mut got), 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(c.pop_batch(4, &mut got), 2);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_thread_smoke_transfers_everything_in_order() {
        // The loom-free concurrency smoke test: a real producer thread
        // races a real consumer thread through a small ring, with
        // backpressure on both sides. Every value must arrive exactly
        // once, in order.
        const N: u64 = 20_000;
        let (p, c) = spsc::<u64>(8);
        let producer = std::thread::spawn(move || {
            let mut backoff = Backoff::new(64);
            for v in 0..N {
                loop {
                    match p.try_push(v) {
                        Ok(()) => {
                            backoff.reset();
                            break;
                        }
                        Err(_) => backoff.snooze(),
                    }
                }
            }
        });
        let mut backoff = Backoff::new(64);
        let mut expect = 0u64;
        while expect < N {
            match c.try_pop() {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
        producer.join().expect("producer thread");
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn backoff_snooze_terminates() {
        let mut b = Backoff::new(2);
        for _ in 0..10 {
            b.snooze();
        }
        b.reset();
        b.snooze();
    }

    #[test]
    fn backoff_walks_spin_yield_nap_in_order() {
        let mut b = Backoff::with_max_nap(2, std::time::Duration::from_micros(8));
        // budget = 2 → 2 spins, then yields until 2*2+8 = 12, then naps.
        assert_eq!(b.phase(), BackoffPhase::Spin);
        b.snooze();
        b.snooze();
        assert_eq!(b.phase(), BackoffPhase::Yield);
        for _ in 2..12 {
            assert_eq!(b.phase(), BackoffPhase::Yield);
            b.snooze();
        }
        assert_eq!(b.phase(), BackoffPhase::Nap);
    }

    #[test]
    fn backoff_naps_double_to_the_cap() {
        let cap = std::time::Duration::from_micros(16);
        let mut b = Backoff::with_max_nap(0, cap);
        // Skip the yield phase (8 yields at budget 0).
        for _ in 0..8 {
            b.snooze();
        }
        assert_eq!(b.phase(), BackoffPhase::Nap);
        let first = b.next_nap();
        assert_eq!(first, std::time::Duration::from_micros(2));
        b.snooze();
        assert_eq!(b.next_nap(), first * 2, "nap doubles after each sleep");
        b.snooze();
        b.snooze();
        b.snooze();
        assert_eq!(b.next_nap(), cap, "nap growth is capped");
        b.snooze();
        assert_eq!(b.next_nap(), cap, "stays at the cap");
    }

    #[test]
    fn backoff_reset_restores_spin_phase_and_nap_floor() {
        let mut b = Backoff::new(1);
        for _ in 0..64 {
            b.snooze();
        }
        assert_eq!(b.phase(), BackoffPhase::Nap);
        assert!(b.next_nap() > std::time::Duration::from_micros(2));
        b.reset();
        assert_eq!(b.phase(), BackoffPhase::Spin);
        assert_eq!(
            b.next_nap(),
            std::time::Duration::from_micros(2),
            "reset shrinks the nap back to the floor"
        );
    }

    #[test]
    fn backoff_nap_cap_never_below_floor() {
        let mut b = Backoff::with_max_nap(0, std::time::Duration::ZERO);
        for _ in 0..10 {
            b.snooze();
        }
        assert_eq!(b.next_nap(), std::time::Duration::from_micros(2));
    }

    #[test]
    fn burst_grows_when_hot_and_shrinks_when_cold() {
        let mut ab = AdaptiveBurst::new(8, 1, 64);
        assert_eq!(ab.get(), 8);
        // Hot ring (≥ 3/4 full): burst doubles, capped at max.
        ab.observe(96, 128);
        assert_eq!(ab.get(), 16);
        ab.observe(128, 128);
        ab.observe(128, 128);
        assert_eq!(ab.get(), 64);
        ab.observe(128, 128);
        assert_eq!(ab.get(), 64, "capped at max");
        // Cold ring (≤ 1/4 full): burst halves, floored at min.
        ab.observe(32, 128);
        assert_eq!(ab.get(), 32);
        for _ in 0..10 {
            ab.observe(0, 128);
        }
        assert_eq!(ab.get(), 1, "floored at min");
        // Mid-band occupancy: hysteresis, no change.
        ab.observe(64, 128);
        assert_eq!(ab.get(), 1);
    }

    #[test]
    fn burst_clamps_constructor_arguments() {
        let ab = AdaptiveBurst::new(1000, 0, 32);
        assert_eq!(ab.get(), 32);
        let ab = AdaptiveBurst::new(0, 4, 32);
        assert_eq!(ab.get(), 4);
    }
}
