//! The transfer core's allocation budget, held in tier-1: once warm, the
//! Figure-1 router forwards without touching the heap, scalar and batched,
//! so a `clone()` or `collect()` that creeps onto the per-hop path fails
//! `cargo test`, not a benchmark three PRs later. A packet is a pooled
//! block plus its buffer, so a pool miss is two allocations (block +
//! buffer); only the warm-up pass sees one. Armed telemetry is held to
//! the same zero (its tables reach their final size on an element's first
//! call), and the device path and the calling thread of the one-shard
//! runtime to stated budgets.
//!
//! The binary installs a counting `#[global_allocator]`; counts are kept
//! per thread, so the tests stay exact when the harness runs them in
//! parallel.

use click::core::lang::read_config;
use click::core::registry::Library;
use click::elements::element::{DeviceId, Element};
use click::elements::iodev::{MemBackend, MemQueues};
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::packet::Packet;
use click::elements::{PacketBatch, ParallelOpts, ParallelRouter, Router};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (fresh or grown) made by this thread while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn note() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized, destructor-free thread-locals, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const IFACES: usize = 4;
const FRAMES: usize = 4096;
/// Frames handed over between two settles, as in the spine's closed loop.
const ROUND: usize = 256;
const BURST: usize = 64;

/// A frame's ingress interface and its bytes.
type Frame = (usize, Vec<u8>);

/// Valid cross-interface UDP frames, every input and output in use.
fn frames(spec: &IpRouterSpec) -> Vec<Frame> {
    (0..FRAMES)
        .map(|k| {
            let src = k % IFACES;
            let dst = (src + 1 + k / IFACES % (IFACES - 1)) % IFACES;
            let mut p = test_packet(spec, src, dst);
            p.data_mut()[50] = k as u8;
            let bytes = p.data().to_vec();
            p.recycle();
            (src, bytes)
        })
        .collect()
}

fn figure1(batched: bool) -> (Router, Vec<DeviceId>, Vec<Frame>) {
    let spec = IpRouterSpec::standard(IFACES);
    let graph = read_config(&spec.config()).unwrap();
    let mut router: Router = Router::from_graph(&graph, &Library::standard()).unwrap();
    if batched {
        router.set_batching(true);
        router.set_batch_burst(BURST);
    }
    let devs = (0..IFACES)
        .map(|i| router.devices.id(&format!("eth{i}")).unwrap())
        .collect();
    (router, devs, frames(&spec))
}

/// One pass of every frame through `inject -> run_until_idle ->
/// recycle_tx`; returns how many came out.
fn inject_pass(r: &mut Router, devs: &[DeviceId], frames: &[Frame]) -> usize {
    let mut forwarded = 0;
    for round in frames.chunks(ROUND) {
        for (src, bytes) in round {
            r.devices.inject(devs[*src], Packet::from_data(bytes));
        }
        r.run_until_idle(10_000);
        forwarded += devs.iter().map(|&d| r.devices.recycle_tx(d)).sum::<usize>();
    }
    forwarded
}

fn steady_state_is_allocation_free(batched: bool, telemetry: bool) {
    let (mut router, devs, frames) = figure1(batched);
    router.set_telemetry(telemetry);
    assert_eq!(inject_pass(&mut router, &devs, &frames), FRAMES, "warm-up");
    let mut forwarded = 0;
    let allocs = allocations_in(|| forwarded = inject_pass(&mut router, &devs, &frames));
    assert_eq!(forwarded, FRAMES);
    assert_eq!(router.total_drops(), 0);
    assert_eq!(allocs, 0, "{allocs} heap allocations in {FRAMES} frames");
}

#[test]
fn dyn_scalar_forwards_without_allocating() {
    steady_state_is_allocation_free(false, false);
}

#[test]
fn dyn_batched_forwards_without_allocating() {
    steady_state_is_allocation_free(true, false);
}

#[test]
fn armed_telemetry_forwards_without_allocating() {
    steady_state_is_allocation_free(false, true);
    steady_state_is_allocation_free(true, true);
}

/// One pass wire to wire: `push_rx -> run_with_devices -> take_tx`.
fn wire_pass(r: &mut Router, queues: &[MemQueues], frames: &[Frame]) -> usize {
    for round in frames.chunks(ROUND) {
        for (src, bytes) in round {
            queues[*src].push_rx(bytes);
        }
        r.run_with_devices(10_000);
    }
    queues.iter().map(|q| q.take_tx().len()).sum()
}

#[test]
fn device_rounds_allocate_only_what_the_backend_api_forces() {
    let (mut router, devs, frames) = figure1(true);
    let queues: Vec<MemQueues> = devs
        .iter()
        .map(|&d| {
            let (backend, q) = MemBackend::with_handles();
            router.devices.attach_backend(d, Box::new(backend));
            q
        })
        .collect();
    assert_eq!(wire_pass(&mut router, &queues, &frames), FRAMES, "warm-up");
    let mut forwarded = 0;
    let allocs = allocations_in(|| forwarded = wire_pass(&mut router, &queues, &frames));
    assert_eq!(forwarded, FRAMES);
    // No frame costs an allocation: `push_rx` builds the packet in a pool
    // buffer, `recv` pops it, `send` moves that buffer to the TX list and
    // the reader's drop returns it to the pool. What is left is the
    // reader's own: each `take_tx` carries its list away and leaves one
    // of the same size behind, one vector per interface and no regrowth.
    assert!(
        allocs <= IFACES as u64,
        "{allocs} heap allocations in {FRAMES} frames wire to wire"
    );
}

/// One pass through the one-shard runtime as the spine's `Sharded` path
/// drives it: `inject -> run_until_idle -> drain_tx_into +
/// recycle_packets`; returns how many came out.
fn sharded_pass(
    r: &mut ParallelRouter,
    devs: &[DeviceId],
    scratch: &mut PacketBatch,
    frames: &[Frame],
) -> usize {
    let mut forwarded = 0;
    for round in frames.chunks(ROUND) {
        for (src, bytes) in round {
            r.inject(devs[*src], Packet::from_data(bytes));
        }
        r.run_until_idle();
        for &d in devs {
            forwarded += r.drain_tx_into(d, scratch);
            scratch.recycle_packets();
        }
    }
    forwarded
}

#[test]
fn sharded_calling_thread_forwards_within_its_budget() {
    let spec = IpRouterSpec::standard(IFACES);
    let graph = read_config(&spec.config()).unwrap();
    let opts = ParallelOpts::new(1).batched(BURST);
    let mut router = ParallelRouter::from_graph::<Box<dyn Element>>(&graph, opts).unwrap();
    let devs: Vec<DeviceId> = (0..IFACES)
        .map(|i| router.device_id(&format!("eth{i}")).unwrap())
        .collect();
    let frames = frames(&spec);
    let mut scratch = PacketBatch::with_capacity(ROUND);
    let mut pass = |r: &mut ParallelRouter| sharded_pass(r, &devs, &mut scratch, &frames);
    assert_eq!(pass(&mut router), FRAMES, "warm-up");
    let mut forwarded = 0;
    let allocs = allocations_in(|| forwarded = pass(&mut router));
    assert_eq!(forwarded, FRAMES);
    assert_eq!(router.total_drops(), 0);
    // No frame and no round costs an allocation: the batch `inject` fills
    // comes from the storage `collect` got back from the worker (sized to
    // a burst there), and `collect` pops the ring into a vector it keeps.
    // What is left follows the two threads' timing, not the traffic — a
    // high-water mark met for the first time (a longer ring backlog in
    // one `collect`, a burst the ingress widened under backpressure)
    // grows its vector once — so the budget is one per round, not zero.
    // The worker's own allocations (the batches it publishes: one burst
    // in fans out to three devices) are its thread's and not counted.
    let rounds = (FRAMES / ROUND) as u64;
    assert!(
        allocs <= rounds,
        "{allocs} heap allocations in {FRAMES} frames on the calling thread"
    );
}
