//! The multi-core router runtime: N independent shards of the compiled
//! element graph, RSS flow steering, bounded ring queues — and a
//! supervisor that keeps the router forwarding when a shard dies.
//!
//! The paper's runtime is a "constantly-active kernel thread" — one core
//! runs the whole element graph, and any element misbehavior takes the
//! whole router down. [`ParallelRouter`] scales that model across cores
//! the way production packet processors (and Click's own SMP successor)
//! do, and adds the fault-isolation discipline they need:
//!
//! * **Per-shard graph clones.** Every worker thread builds its *own*
//!   [`Router<S>`] from the same configuration graph. Nothing on the
//!   packet path is shared between shards — no locks, no cache-line
//!   ping-pong — and each worker thread gets its own thread-local
//!   packet pool ([`crate::packet`]) and its own element statistics.
//!   Graph-level optimizations (`fastclassifier`, `devirtualize`,
//!   `xform`) compose with sharding unchanged: each shard runs the same
//!   optimized graph, just on a subset of flows.
//! * **RSS flow steering, inline.** [`ParallelRouter::inject`] hashes
//!   each frame's IP 5-tuple ([`crate::steer`]) on the calling thread to
//!   pick a shard, so all packets of one flow traverse one shard in FIFO
//!   order — per-flow ordering is preserved without cross-core
//!   synchronization. Non-IP frames steer by receiving device. This is
//!   the only ingress path: the runtime has two kinds of thread, the
//!   control thread (whichever one calls into the router: it injects,
//!   collects and supervises) and one worker per shard.
//! * **Bounded SPSC rings.** [`PacketBatch`]es travel to a worker and
//!   back on exactly one fixed-capacity single-producer/single-consumer
//!   ring each way ([`crate::ring`]): occupancy-adapted bursts,
//!   busy-poll with backoff, and backpressure instead of drops when a
//!   shard falls behind.
//!
//! `docs/ARCHITECTURE.md` ("The sharded runtime") maps every thread,
//! channel, counter and `&mut Router` access point.
//!
//! # Fault isolation and supervision
//!
//! Each worker wraps its packet-processing loop in
//! [`std::panic::catch_unwind`]: a panic inside an element (a bug, a
//! malformed frame tripping an assertion, or a deliberate
//! `FaultInject(PANIC …)` chaos element) is confined to that shard. The
//! panicked worker publishes its death through a *health word* (an
//! atomic the supervisor reads on every unproductive poll — never on the
//! per-packet fast path) and then parks as a **zombie**: its thread
//! stays alive answering read jobs, so the dead shard's
//! element statistics and telemetry remain readable until shutdown.
//!
//! The supervisor — the main thread, inside [`ParallelRouter::flush`] /
//! [`ParallelRouter::run_until_idle`] — reacts to a death by:
//!
//! 1. salvaging every in-flight batch from the dead shard's rings
//!    ([`crate::ring::RingProducer::reclaim`] is sound once the consumer
//!    is inert) and accounting the irrecoverable remainder (packets that
//!    were *inside* the engine when it died) in [`FaultGauges`];
//! 2. either **restarting** the shard — a fresh worker thread built from
//!    the retained [`RouterGraph`] ([`Recovery::Restart`]) — or entering
//!    **degraded mode** ([`Recovery::Degrade`]): the steering stage's
//!    live-shard mask ([`crate::steer::RssSteering::mark_dead`])
//!    deterministically re-homes the dead shard's flows across the
//!    survivors, while flows homed on live shards keep their original
//!    assignment (and therefore their per-flow order);
//! 3. re-injecting the salvaged packets in FIFO order through the
//!    (updated) steering stage.
//!
//! # Shards and jobs
//!
//! A worker shard is a serial engine — a `Box<dyn Engine>` its own
//! thread builds — driven by the same [`Engine`] calls the serial path
//! uses: `inject`, `settle`, `drain_tx_into`. The control plane reaches
//! it only through *jobs*: a closure that runs on the worker against the
//! shard's engine and sends its typed result on a reply channel of its
//! own. A read job runs wherever the engine is readable (between bursts,
//! while stalled on a full outbound ring, in a zombie); a write job
//! (`hot_swap`, `checkpoint_*`, `set_telemetry`) runs only at the
//! quiesced top of the loop and is refused with a "shard busy" error
//! anywhere else.
//!
//! The control plane is typed-error clean: jobs honor [`CTRL_TIMEOUT`]
//! and return [`Error::Runtime`] instead of panicking when a worker is
//! gone or wedged, injection into a wedged router reports a backpressure
//! timeout instead of spinning forever
//! ([`ParallelRouter::try_run_until_idle`]), and `Drop` performs a
//! bounded, orderly drain.
//!
//! Statistics aggregate through read jobs: [`ParallelRouter::stat`] /
//! [`ParallelRouter::class_stat`] ask every worker (including zombies
//! and restarted shards' predecessors) and sum, so a sharded router
//! answers exactly like a serial [`Router`] and equivalence tests run
//! unchanged.

use crate::batch::PacketBatch;
use crate::element::DeviceId;
use crate::engine::Engine;
use crate::iodev::PumpStats;
use crate::packet::{Packet, PoolStats};
use crate::persist::{
    Checkpoint, CheckpointEngine, DeviceRecord, ElementRecord, EngineSnapshot, PacketRecord,
    RestoreStats,
};
use crate::ring::{spsc, AdaptiveBurst, Backoff, RingConsumer, RingProducer};
use crate::router::{DeviceBank, Router, Slot};
use crate::steer::{RssSteering, MAX_SHARDS};
use crate::swap::SwapReport;
use crate::telemetry::{
    self, ElementProfile, FaultGauges, Gauges, ShardGauges, SteerGauges, SwapGauges,
};
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::registry::Library;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// One unit of ring transfer: a burst of packets for (or from) one
/// simulated device.
type ShardItem = (DeviceId, PacketBatch);

/// Builds a shard's engine on the worker's own thread. The one factory
/// is [`shard_engine`], instantiated for the engine type `S` by
/// [`ParallelRouter::from_graph`].
type EngineFactory = fn(&RouterGraph, &WorkerCfg) -> Result<Box<dyn Engine>>;

/// A boxed worker spawner for `(shard, telemetry switch)` (captures the
/// retained graph, the rest of the worker config, and the engine
/// factory).
type MakeWorker = Box<dyn Fn(usize, bool) -> Result<Worker>>;

/// How long a control job may wait on a worker before the runtime
/// declares it wedged and returns [`Error::Runtime`].
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a zombie shard naps between looks at its job channel; a job
/// sender unparks it at once.
const ZOMBIE_NAP: Duration = Duration::from_millis(1);

/// Frames a device round receives per backend.
const DEVICE_BURST: usize = 64;

/// Worker dequeue burst floor (items per ring poll). The adaptive
/// controller grows from here under load.
const DEQUEUE_BURST: usize = 16;

/// How many times an idle ring endpoint spins before it starts yielding
/// and napping ([`Backoff`]).
const BACKOFF_SPINS: u32 = 128;

/// Spin-budget ceiling applied to every ring endpoint when the
/// configured threads (shards + the control thread) oversubscribe the
/// host's cores. An idle endpoint that spins or yields on an
/// oversubscribed host steals timeslices from whichever thread actually
/// holds work, so the runtime clamps the budget and lets idle threads
/// escalate to napping almost immediately.
const OVERSUB_SPINS: u32 = 8;

/// The endpoint spin budget for `shards` workers after accounting for
/// host oversubscription (see [`OVERSUB_SPINS`]).
fn effective_spins(shards: usize) -> u32 {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    if shards + 1 > host {
        OVERSUB_SPINS
    } else {
        BACKOFF_SPINS
    }
}

/// Health-word states a worker publishes (see [`WorkerShared`]).
const HEALTH_RUNNING: u8 = 0;
/// The worker's engine panicked; the thread is parked as a zombie that
/// still answers read jobs.
const HEALTH_PANICKED: u8 = 1;
/// The worker exited cleanly (shutdown).
const HEALTH_EXITED: u8 = 2;
/// The worker could not build its engine (cannot normally happen: the
/// graph was validated on the main thread).
const HEALTH_BUILD_FAILED: u8 = 3;

/// What the supervisor does when a worker shard dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Enter degraded mode: mark the shard dead in the steering mask and
    /// spread its flows across the survivors. The default.
    Degrade,
    /// Restart the shard from the retained configuration graph, at most
    /// `max_per_shard` times per shard; further deaths degrade.
    Restart {
        /// Restart budget per shard before falling back to degradation.
        max_per_shard: u32,
    },
}

/// Configuration knobs of the sharded runtime.
#[derive(Debug, Clone)]
pub struct ParallelOpts {
    /// Number of worker shards (graph clones / threads).
    pub shards: usize,
    /// Run each shard's engine in batched (vector) transfer mode.
    pub batching: bool,
    /// Packets per transfer batch: the floor of the injection side's
    /// occupancy-adapted bursts ([`AdaptiveBurst`]: hot rings amortize
    /// hand-off over bigger bursts, cold rings fall back to this), and
    /// the engine burst of batching shards ([`Router::set_batch_burst`]).
    pub burst: usize,
    /// Capacity (in batches) of each SPSC ring.
    pub ring_capacity: usize,
    /// What to do when a worker shard dies.
    pub recovery: Recovery,
    /// How long injection may make zero progress (all target rings full,
    /// nothing arriving) before
    /// [`ParallelRouter::try_run_until_idle`] reports a backpressure
    /// timeout, and how long `Drop` waits for workers before abandoning
    /// a wedged thread.
    pub wedge_timeout: Duration,
}

impl ParallelOpts {
    /// Defaults for `shards` workers: scalar engine, device burst,
    /// 256-batch rings, degrade-on-fault, 10 s wedge timeout.
    pub fn new(shards: usize) -> ParallelOpts {
        ParallelOpts {
            shards,
            batching: false,
            burst: crate::elements::device::BURST,
            ring_capacity: 256,
            recovery: Recovery::Degrade,
            wedge_timeout: CTRL_TIMEOUT,
        }
    }

    /// Enables batched (vector) transfers inside each shard.
    pub fn batched(mut self, burst: usize) -> ParallelOpts {
        self.batching = true;
        self.burst = burst.max(1);
        self
    }

    /// Sets the SPSC ring capacity (in batches).
    pub fn with_ring_capacity(mut self, capacity: usize) -> ParallelOpts {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// Restart dead shards from the retained graph, at most `max` times
    /// per shard.
    pub fn restart_on_fault(mut self, max: u32) -> ParallelOpts {
        self.recovery = Recovery::Restart { max_per_shard: max };
        self
    }

    /// Never restart: re-steer a dead shard's flows across survivors.
    pub fn degrade_on_fault(mut self) -> ParallelOpts {
        self.recovery = Recovery::Degrade;
        self
    }

    /// Sets the zero-progress deadline for injection and shutdown.
    pub fn with_wedge_timeout(mut self, t: Duration) -> ParallelOpts {
        self.wedge_timeout = t;
        self
    }
}

/// Knobs of a canary rollout ([`ParallelRouter::hot_swap_with`]).
#[derive(Debug, Clone, Copy)]
pub struct SwapOpts {
    /// How many packets the canary shard should process under the new
    /// configuration before its drop gauge is judged. The window also
    /// ends early when the buffered traffic drains.
    pub canary_window: u64,
    /// Allowed excess in the canary's drops-per-packet rate over the
    /// surviving shards' aggregate rate. A canary whose rate exceeds
    /// `survivor_rate + drop_margin` is rolled back.
    pub drop_margin: f64,
}

impl Default for SwapOpts {
    fn default() -> SwapOpts {
        SwapOpts {
            canary_window: 256,
            drop_margin: 0.05,
        }
    }
}

/// Reads the retained configuration graph, tolerating lock poisoning
/// (the lock only ever guards an `Arc` pointer swap, so a poisoned
/// value is still intact).
fn read_retained(retained: &RwLock<Arc<RouterGraph>>) -> Arc<RouterGraph> {
    match retained.read() {
        Ok(g) => Arc::clone(&g),
        Err(p) => Arc::clone(&p.into_inner()),
    }
}

/// What a read job is handed: the shard's engine and its loop gauges,
/// or why there is no engine to read.
type ReadJob = Box<dyn FnOnce(Result<(&dyn Engine, &ShardGauges)>) + Send>;

/// What a write job is handed: the shard's engine, mutably, or why the
/// shard cannot give it out right now.
type WriteJob = Box<dyn FnOnce(Result<&mut dyn Engine>) + Send>;

/// Where a job's answer arrives: the job's own channel, so an answer
/// that comes too late is dropped with its channel instead of being read
/// as the answer to the next job.
type Reply<T> = mpsc::Receiver<Result<T>>;

/// A control-plane job: a closure the control thread sends a worker,
/// which runs it on the worker thread against the shard's engine. It
/// carries the sending half of its [`Reply`] and always answers on it —
/// with its result, or with the error that kept it from running. Rare
/// and cheap; the packet path never touches the job channel.
enum Job {
    /// Runs wherever the engine is readable: at the top of the loop,
    /// while stalled on a full outbound ring, and in a zombie.
    Read(ReadJob),
    /// Runs only at the quiesced top of the loop, the one point where
    /// the shard holds no packet in flight; anywhere else it is refused
    /// with a "shard busy" error.
    Write(WriteJob),
}

impl Job {
    /// A read job running `f`, and the channel its answer arrives on.
    fn read<T: Send + 'static>(
        f: impl FnOnce(&dyn Engine, &ShardGauges) -> T + Send + 'static,
    ) -> (Job, Reply<T>) {
        let (tx, rx) = mpsc::channel();
        let job = Job::Read(Box::new(move |shard| {
            let _ = tx.send(shard.map(|(e, g)| f(e, g)));
        }));
        (job, rx)
    }

    /// A write job running `f`, and the channel its answer arrives on.
    fn write<T: Send + 'static>(
        f: impl FnOnce(&mut dyn Engine) -> T + Send + 'static,
    ) -> (Job, Reply<T>) {
        let (tx, rx) = mpsc::channel();
        let job = Job::Write(Box::new(move |engine| {
            let _ = tx.send(engine.map(f));
        }));
        (job, rx)
    }
}

/// A parked thread's doorbell. [`Backoff::snooze`] naps with
/// `park_timeout`, so any producer that knows the consumer's thread can
/// `unpark` it after a push and end the nap the moment work arrives
/// instead of when the timer expires. Worker threads are addressed
/// directly through their [`JoinHandle`]s; the supervisor can be any
/// thread (whichever one called `pump`), so it registers itself here at
/// pump entry and workers ring this bell when they publish output or
/// completion counters.
#[derive(Debug, Default)]
struct Doorbell {
    thread: Mutex<Option<Thread>>,
}

impl Doorbell {
    /// Registers the calling thread as the bell's current owner.
    fn register(&self) {
        if let Ok(mut t) = self.thread.lock() {
            *t = Some(std::thread::current());
        }
    }

    /// Unparks the registered owner (no-op before registration). A
    /// stale ring only costs the owner one spurious poll.
    fn ring(&self) {
        let t = self.thread.lock().ok().and_then(|t| t.clone());
        if let Some(t) = t {
            t.unpark();
        }
    }
}

/// State a worker shares with the supervisor: the health word, a
/// heartbeat the worker bumps every poll, and completion counters the
/// supervisor balances against its own enqueue counters to detect both
/// idleness and in-flight loss.
#[derive(Debug, Default)]
struct WorkerShared {
    health: AtomicU8,
    heartbeat: AtomicU64,
    completed_batches: AtomicU64,
    completed_pkts: AtomicU64,
}

/// Main-thread handle to one worker shard (or to a dead predecessor
/// retired to the graveyard, kept for its statistics).
struct Worker {
    shard: usize,
    to_worker: RingProducer<ShardItem>,
    from_worker: RingConsumer<ShardItem>,
    jobs: mpsc::Sender<Job>,
    /// Batches handed to this worker (main thread is the only writer).
    enqueued_batches: u64,
    /// Packets handed to this worker.
    enqueued_pkts: u64,
    shared: Arc<WorkerShared>,
    /// Restarts already spent on this shard slot (carried across
    /// replacements so the budget is per shard, not per incarnation).
    restarts: u32,
    /// Set once the supervisor has processed this worker's death; a dead
    /// worker is skipped by injection and counts as idle.
    dead: bool,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Creates one shard's rings and job channel: the control thread's
    /// handle (with no thread yet) and the worker-side ends.
    fn link(cfg: &WorkerCfg, stop: &Arc<AtomicBool>, bell: &Arc<Doorbell>) -> (Worker, ShardLinks) {
        let (to_worker, input) = spsc::<ShardItem>(cfg.ring_capacity);
        let (output, from_worker) = spsc::<ShardItem>(cfg.ring_capacity);
        let (jobs, job_rx) = mpsc::channel();
        let shared = Arc::new(WorkerShared::default());
        let links = ShardLinks {
            input,
            output,
            jobs: job_rx,
            shared: Arc::clone(&shared),
            stop: Arc::clone(stop),
            bell: Arc::clone(bell),
        };
        let worker = Worker {
            shard: cfg.shard,
            to_worker,
            from_worker,
            jobs,
            enqueued_batches: 0,
            enqueued_pkts: 0,
            shared,
            restarts: 0,
            dead: false,
            handle: None,
        };
        (worker, links)
    }

    /// All handed-over batches processed (a reconciled dead worker
    /// counts as idle: the supervisor already settled its accounts).
    fn is_idle(&self) -> bool {
        self.dead || self.shared.completed_batches.load(Ordering::Acquire) == self.enqueued_batches
    }

    /// True when the worker is no longer processing packets: it
    /// panicked, failed to build, or its thread is gone.
    fn is_dead(&self) -> bool {
        if self.dead {
            return true;
        }
        match self.shared.health.load(Ordering::Acquire) {
            HEALTH_RUNNING => self.handle.as_ref().is_none_or(JoinHandle::is_finished),
            _ => true,
        }
    }

    /// Rings the worker's doorbell: cuts short a backoff nap after a
    /// push to its inbound ring or a control send.
    fn wake(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }

    /// Sends a job and waits (bounded) for its answer.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the worker is gone, refuses the job (a
    /// failed build, or a write job on a busy shard), or does not answer
    /// within [`CTRL_TIMEOUT`].
    fn query<T>(&self, (job, reply): (Job, Reply<T>)) -> Result<T> {
        let shard = self.shard;
        self.jobs
            .send(job)
            .map_err(|_| Error::runtime(format!("shard {shard}: job channel closed")))?;
        self.wake();
        match reply.recv_timeout(CTRL_TIMEOUT) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(Error::runtime(format!(
                "shard {shard}: control job timed out after {CTRL_TIMEOUT:?} (worker wedged?)"
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(Error::runtime(format!(
                "shard {shard}: worker exited without answering"
            ))),
        }
    }
}

/// A router running as N independent shards on worker threads, fed
/// through RSS flow steering and watched by a supervisor. See the module
/// docs for the architecture.
///
/// # Examples
///
/// ```
/// use click_core::lang::read_config;
/// use click_elements::element::Element;
/// use click_elements::packet::Packet;
/// use click_elements::parallel::{ParallelOpts, ParallelRouter};
///
/// let graph = read_config(
///     "FromDevice(in0) -> Counter -> Queue(64) -> ToDevice(out0);",
/// )?;
/// let mut router =
///     ParallelRouter::from_graph::<Box<dyn Element>>(&graph, ParallelOpts::new(2))?;
/// let in0 = router.device_id("in0").unwrap();
/// let out0 = router.device_id("out0").unwrap();
/// router.inject(in0, Packet::new(60));
/// router.run_until_idle();
/// assert_eq!(router.tx_len(out0), 1);
/// assert_eq!(router.class_stat("Counter", "count"), 1);
/// # Ok::<(), click_core::Error>(())
/// ```
pub struct ParallelRouter {
    workers: Vec<Worker>,
    /// Dead predecessors of restarted shards, kept alive (as zombies)
    /// so their statistics stay queryable until shutdown.
    graveyard: Vec<Worker>,
    steer: RssSteering,
    stop: Arc<AtomicBool>,
    /// The control thread's device bank: the name table, the collected
    /// TX queues, and any attached real-I/O backends. Only this thread
    /// ever touches it — workers own private banks inside their engines.
    pub(crate) bank: DeviceBank,
    /// Per-shard injection buffers, grouped into (device, burst) items.
    pending: Vec<Vec<ShardItem>>,
    /// Open-batch index per `(shard, device)` into `pending`: traffic
    /// that interleaves devices still fills device-coherent bursts
    /// instead of cutting a new batch on every device switch.
    /// Invalidated whenever the shard's groups are flushed or salvaged.
    pending_open: Vec<Vec<Option<usize>>>,
    /// Reusable empty batch storage for injection grouping.
    storage: Vec<PacketBatch>,
    /// Where `collect` pops the workers' outbound rings into (empty
    /// between calls; kept for its capacity).
    collected: Vec<ShardItem>,
    /// Per-shard adaptive enqueue burst.
    burst_ctl: Vec<AdaptiveBurst>,
    /// Ingress gauges of the injection thread; `steer_ns` only while
    /// `telemetry` is on.
    ingress: SteerGauges,
    /// The telemetry switch, as last set: every live shard engine has
    /// it, and a restarted shard is spawned with it.
    telemetry: bool,
    /// The supervisor's doorbell: workers ring it when they publish
    /// output, so pump loops wake on delivery instead of on nap expiry.
    bell: Arc<Doorbell>,
    backoff_spins: u32,
    recovery: Recovery,
    wedge_timeout: Duration,
    faults: FaultGauges,
    swap: SwapGauges,
    /// The configuration the shards are (supposed to be) running:
    /// restarts rebuild from it, and a canary rollback re-installs it.
    /// A completed hot swap replaces it with the new graph.
    retained: Arc<RwLock<Arc<RouterGraph>>>,
    /// Spawns a replacement worker for a shard slot.
    make_worker: MakeWorker,
}

impl ParallelRouter {
    /// Builds and starts a sharded router over `graph`: validates the
    /// configuration, then spawns one worker thread per shard, each
    /// building its own `Router<S>` from the standard element library
    /// and driving it as a `dyn Engine`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Router::from_graph`] (configuration
    /// check failures, element construction errors), or
    /// [`Error::Runtime`] for an invalid shard count or a failed thread
    /// spawn; no threads are leaked in either case.
    pub fn from_graph<S: Slot + 'static>(
        graph: &RouterGraph,
        opts: ParallelOpts,
    ) -> Result<ParallelRouter> {
        if opts.shards < 1 || opts.shards > MAX_SHARDS {
            return Err(Error::runtime(format!(
                "shard count {} outside 1..={MAX_SHARDS}",
                opts.shards
            )));
        }
        if opts.ring_capacity < 1 {
            return Err(Error::runtime("ring capacity must be at least 1"));
        }
        // Validate once on this thread so errors surface synchronously;
        // the prototype's (empty) device bank becomes the control side's.
        let bank = Router::<S>::from_graph(graph, &Library::standard())?.devices;

        let stop = Arc::new(AtomicBool::new(false));
        let bell = Arc::new(Doorbell::default());
        let spins = effective_spins(opts.shards);
        let cfg = WorkerCfg {
            shard: 0,
            batching: opts.batching,
            burst: opts.burst,
            backoff_spins: spins,
            ring_capacity: opts.ring_capacity,
            telemetry: false,
        };
        let retained = Arc::new(RwLock::new(Arc::new(graph.clone())));
        let make_worker: MakeWorker = {
            let retained = Arc::clone(&retained);
            let stop = Arc::clone(&stop);
            let bell = Arc::clone(&bell);
            Box::new(move |shard, telemetry| {
                let graph = read_retained(&retained);
                let cfg = WorkerCfg {
                    shard,
                    telemetry,
                    ..cfg
                };
                spawn_worker(&graph, cfg, shard_engine::<S>, &stop, &bell)
            })
        };
        let mut workers = Vec::with_capacity(opts.shards);
        for shard in 0..opts.shards {
            match make_worker(shard, false) {
                Ok(w) => workers.push(w),
                Err(e) => {
                    // Already-spawned workers exit on the stop flag
                    // instead of leaking as spinning threads.
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
        let n_dev = bank.len();
        let burst = opts.burst.max(1);
        let burst_ctl = (0..opts.shards)
            .map(|_| AdaptiveBurst::new(burst, burst, burst.saturating_mul(8).min(256)))
            .collect();
        Ok(ParallelRouter {
            workers,
            graveyard: Vec::new(),
            steer: RssSteering::new(opts.shards),
            stop,
            bank,
            pending: (0..opts.shards).map(|_| Vec::new()).collect(),
            pending_open: (0..opts.shards).map(|_| vec![None; n_dev]).collect(),
            storage: Vec::new(),
            collected: Vec::new(),
            burst_ctl,
            ingress: SteerGauges::default(),
            telemetry: false,
            bell,
            backoff_spins: spins,
            recovery: opts.recovery,
            wedge_timeout: opts.wedge_timeout,
            faults: FaultGauges {
                shards: opts.shards,
                live_shards: opts.shards,
                ..FaultGauges::default()
            },
            swap: SwapGauges::default(),
            retained,
            make_worker,
        })
    }

    /// All workers idle.
    fn workers_idle(&self) -> bool {
        self.workers.iter().all(Worker::is_idle)
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Number of shards currently accepting traffic.
    pub fn live_shards(&self) -> usize {
        self.steer.live_count()
    }

    /// Supervisor fault gauges: shard deaths, restarts, degraded-mode
    /// entries, and in-flight packet loss. All zero on a healthy run.
    pub fn fault_gauges(&self) -> FaultGauges {
        FaultGauges {
            live_shards: self.steer.live_count(),
            shards: self.workers.len(),
            ..self.faults
        }
    }

    /// Live-reconfiguration gauges: completed swaps, rollbacks, canary
    /// failures, packets transferred, and rejected configs. Always
    /// live, like [`ParallelRouter::fault_gauges`].
    pub fn swap_gauges(&self) -> SwapGauges {
        self.swap
    }

    /// Sum of every live shard's engine drop counter (element drops plus
    /// unconnected-port and reentrancy drops — [`Router::total_drops`]
    /// per shard), plus packets dropped at injection because no live
    /// shard remained, plus the control-side device bank's losses (drain
    /// deadline, abandoned backends). Always live;
    /// monotonic across hot swaps because each shard's counter survives
    /// its swap. Dead or unreachable shards contribute their last known
    /// nothing (0), so a reading during a fault can transiently
    /// understate.
    pub fn total_drops(&self) -> u64 {
        let engine: u64 = self
            .gauge_snapshot()
            .iter()
            .map(|s| s.map(|(d, _)| d).unwrap_or(0))
            .sum();
        engine + self.faults.no_live_shard_drops + self.bank.lost_packets()
    }

    // ---- checkpoint/restore ---------------------------------------------

    /// Cuts a consistent snapshot across the whole sharded runtime:
    /// every live shard is quiesced through the same control-plane
    /// machinery hot swaps use (its ring drains; nothing new is handed
    /// to it), each shard's engine state is captured non-destructively
    /// ([`Router::checkpoint_snapshot`]), and the per-shard records are
    /// merged by element name — counters sum, queued packets concatenate
    /// in shard order. Supervisor-held traffic (buffered injection
    /// bursts not yet handed to a shard, collected TX not yet drained by
    /// the harness) is captured too, so the checkpoint holds every
    /// packet the runtime owns. The reported `quiesce_ns` spans the
    /// whole cut — the pause the data plane experienced.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no live shard exists, a shard fails to
    /// quiesce within the wedge timeout, or a control job fails; the
    /// runtime keeps forwarding either way.
    pub fn checkpoint_snapshot(&mut self) -> Result<EngineSnapshot> {
        let t0 = Instant::now();
        let live: Vec<usize> = (0..self.workers.len())
            .filter(|&s| !self.workers[s].dead && !self.workers[s].is_dead())
            .collect();
        if live.is_empty() {
            return Err(Error::runtime("checkpoint: no live shard"));
        }
        for &s in &live {
            self.quiesce_shard(s)?;
        }
        let mut elements: Vec<ElementRecord> = Vec::new();
        let mut devices: Vec<DeviceRecord> = self
            .bank
            .device_names()
            .iter()
            .map(|n| DeviceRecord {
                name: n.clone(),
                ..DeviceRecord::default()
            })
            .collect();
        for &s in &live {
            let snap = self.workers[s].query(Job::write(|e| e.checkpoint_snapshot()))??;
            for rec in snap.elements {
                match elements.iter_mut().find(|e| e.name == rec.name) {
                    Some(merged) => merged.absorb(&rec),
                    None => elements.push(rec),
                }
            }
            for dev in snap.devices {
                if let Some(d) = devices.iter_mut().find(|d| d.name == dev.name) {
                    d.rx.extend(dev.rx);
                    d.tx.extend(dev.tx);
                }
            }
        }
        // Supervisor-held packets: injection bursts still buffered for a
        // shard count as received-but-unprocessed (RX), and the
        // collected TX banks as transmitted-but-undrained.
        for (dev, batch) in self.pending.iter().flatten() {
            if let Some(d) = devices.get_mut(dev.0) {
                d.rx.extend(batch.iter().map(PacketRecord::from_packet));
            }
        }
        for (d, own) in devices.iter_mut().zip(self.bank.pending_records()) {
            d.rx.extend(own.rx);
            d.tx.extend(own.tx);
        }
        Ok(EngineSnapshot {
            elements,
            devices,
            total_drops: self.total_drops(),
            quiesce_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    /// Applies a decoded checkpoint to this (freshly built) sharded
    /// runtime: the element records and drop-ledger target land on the
    /// lowest-index live shard (per-element and per-class statistics sum
    /// across shards, so aggregate counters resume exactly), pending RX
    /// packets re-enter through normal injection (steering re-places
    /// them), and pending TX lands in the supervisor's collected banks
    /// for the harness to drain.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no live shard exists or the shard cannot
    /// quiesce; the caller should degrade to a cold start, not crash.
    pub fn checkpoint_restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        let Some(shard) =
            (0..self.workers.len()).find(|&s| !self.workers[s].dead && !self.workers[s].is_dead())
        else {
            return Err(Error::runtime("restore: no live shard"));
        };
        self.quiesce_shard(shard)?;
        // The shard takes the element records and the ledger; the device
        // records are this thread's, below.
        let records = Checkpoint {
            elements: ckpt.elements.clone(),
            ledger: ckpt.ledger,
            ..Checkpoint::default()
        };
        let mut stats =
            self.workers[shard].query(Job::write(move |e| e.checkpoint_restore(&records)))??;
        for dev in &ckpt.devices {
            match self.device_id(&dev.name) {
                Some(id) => {
                    stats.packets_restored += (dev.rx.len() + dev.tx.len()) as u64;
                    for pr in &dev.rx {
                        self.inject(id, pr.to_packet());
                    }
                    for pr in &dev.tx {
                        self.bank.tx_push(id, pr.to_packet());
                    }
                }
                None => {
                    // No such device in this configuration: recorded
                    // both in the stats and in the drop ledger, so the
                    // cross-incarnation books still balance.
                    let n = (dev.rx.len() + dev.tx.len()) as u64;
                    stats.packets_orphaned += n;
                    self.faults.no_live_shard_drops += n;
                }
            }
        }
        Ok(stats)
    }

    /// Rolls `new_graph` out across the shards behind a canary with the
    /// default [`SwapOpts`]. See [`ParallelRouter::hot_swap_with`].
    ///
    /// # Errors
    ///
    /// Same as [`ParallelRouter::hot_swap_with`].
    pub fn hot_swap(&mut self, new_graph: &RouterGraph) -> Result<SwapReport> {
        self.hot_swap_with(new_graph, SwapOpts::default())
    }

    /// Live reconfiguration: installs `new_graph` with a two-phase canary
    /// rollout, preserving element state ([`Router::hot_swap`]) on every
    /// swapped shard.
    ///
    /// 1. **Canary.** The lowest-index live shard is quiesced (its ring
    ///    drains; other shards keep forwarding, so per-flow order on
    ///    their flows is untouched) and swapped to the new graph with
    ///    full state transfer.
    /// 2. **Validate.** The canary is the validator: its engine's
    ///    [`Router::hot_swap`] checks and builds the new graph before any
    ///    state moves, so a config that fails `click_core::check::check`
    ///    or an element constructor leaves the canary's old graph intact.
    ///    It is counted in [`SwapGauges::rejected_configs`] and no other
    ///    shard ever sees it.
    /// 3. **Window.** Buffered traffic is pumped until the canary has
    ///    processed [`SwapOpts::canary_window`] packets (or the traffic
    ///    drains), then the canary's drops-per-packet delta is compared
    ///    against the surviving shards' aggregate delta.
    /// 4. **Roll or roll back.** Within margin: every remaining live
    ///    shard is quiesced and swapped in turn and the new graph becomes
    ///    the retained configuration (future restarts build it). Past
    ///    margin: the canary is quiesced and swapped *back* to the
    ///    retained old graph — again with state transfer, so its counters
    ///    survive the round trip — and the old configuration stays
    ///    installed everywhere.
    ///
    /// Loss is bounded exactly as in the fault path: a quiesced shard
    /// swap loses nothing (queue contents and device queues transfer);
    /// packets the canary *dropped* while running a regressing config are
    /// visible in its drop gauges and reported via
    /// [`SwapReport::canary_drops`].
    ///
    /// # Errors
    ///
    /// [`Error::Check`] for an invalid config (old config untouched);
    /// [`Error::Runtime`] when no live shard exists, a shard fails to
    /// quiesce within the wedge timeout, or a worker's swap fails. If a
    /// later shard of the rollout fails, earlier shards keep the new
    /// graph while the retained configuration stays old — a retry (or a
    /// rollback swap to the old graph) converges the fleet.
    pub fn hot_swap_with(&mut self, new_graph: &RouterGraph, opts: SwapOpts) -> Result<SwapReport> {
        self.supervise();
        let canary = (0..self.workers.len())
            .find(|&i| !self.workers[i].dead && !self.workers[i].is_dead())
            .ok_or_else(|| Error::runtime("hot swap: no live shard to canary"))?;
        let new_arc = Arc::new(new_graph.clone());

        // Phase 1: quiesce and swap the canary. An error from its engine
        // is the config's verdict; an error reaching it is not.
        self.quiesce_shard(canary)?;
        let before = self.gauge_snapshot();
        let mut report = self.swap_shard(canary, &new_arc)?.inspect_err(|_| {
            self.swap.rejected_configs += 1;
        })?;
        report.canary_shard = Some(canary);

        // Phase 2: the canary window, over whatever traffic the caller
        // has buffered. Non-canary shards process their share under the
        // old configuration and serve as the comparison baseline.
        let start_pkts = before[canary].map_or(0, |(_, p)| p);
        self.pump_window(canary, opts.canary_window, start_pkts);
        let after = self.gauge_snapshot();

        let (canary_drops, canary_pkts) = match (before[canary], after[canary]) {
            (Some((bd, bp)), Some((ad, ap))) => (ad.saturating_sub(bd), ap.saturating_sub(bp)),
            _ => (0, 0),
        };
        let mut surv_drops = 0u64;
        let mut surv_pkts = 0u64;
        for i in 0..self.workers.len() {
            if i == canary {
                continue;
            }
            if let (Some((bd, bp)), Some((ad, ap))) = (before[i], after[i]) {
                surv_drops += ad.saturating_sub(bd);
                surv_pkts += ap.saturating_sub(bp);
            }
        }
        let canary_rate = if canary_pkts > 0 {
            canary_drops as f64 / canary_pkts as f64
        } else {
            0.0
        };
        let surv_rate = if surv_pkts > 0 {
            surv_drops as f64 / surv_pkts as f64
        } else {
            0.0
        };
        let regressed = canary_pkts > 0 && canary_rate > surv_rate + opts.drop_margin;

        if regressed {
            // Auto-rollback: drain what the canary still holds under the
            // regressing config, measure the full faulty-regime drop
            // delta, then swap it back to the retained old graph.
            self.swap.canary_failures += 1;
            self.quiesce_shard(canary)?;
            let final_snap = self.gauge_snapshot();
            let old = read_retained(&self.retained);
            report.absorb(&self.swap_shard(canary, &old)??);
            report.swapped_shards = 0;
            report.rolled_back = true;
            if let (Some((bd, bp)), Some((fd, fp))) = (before[canary], final_snap[canary]) {
                report.canary_drops = fd.saturating_sub(bd);
                report.canary_packets = fp.saturating_sub(bp);
            }
            self.swap.rollbacks += 1;
            self.swap.packets_transferred += report.packets_transferred;
            return Ok(report);
        }

        // Phase 3: roll the remaining live shards and retain the new
        // graph (restarts now rebuild it).
        report.canary_drops = canary_drops;
        report.canary_packets = canary_pkts;
        for i in 0..self.workers.len() {
            if i == canary || self.workers[i].dead || self.workers[i].is_dead() {
                continue;
            }
            self.quiesce_shard(i)?;
            report.absorb(&self.swap_shard(i, &new_arc)??);
        }
        match self.retained.write() {
            Ok(mut g) => *g = Arc::clone(&new_arc),
            Err(mut p) => **p.get_mut() = Arc::clone(&new_arc),
        }
        self.swap.swaps += 1;
        self.swap.packets_transferred += report.packets_transferred;
        Ok(report)
    }

    /// Waits (bounded) for one live shard to finish everything handed to
    /// it, without handing it anything new; other shards' pending traffic
    /// stays buffered too, but TX keeps draining.
    fn quiesce_shard(&mut self, shard: usize) -> Result<()> {
        let deadline = Instant::now() + self.wedge_timeout;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        loop {
            self.collect();
            self.supervise();
            if self.workers[shard].dead || self.workers[shard].is_dead() {
                return Err(Error::runtime(format!(
                    "hot swap: shard {shard} died while quiescing"
                )));
            }
            if self.workers[shard].is_idle() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::runtime(format!(
                    "hot swap: shard {shard} did not quiesce within {:?}",
                    self.wedge_timeout
                )));
            }
            backoff.snooze();
        }
    }

    /// Asks one worker to hot-swap its engine (it must be quiesced). The
    /// outer error is the control plane's, the inner one the engine's.
    fn swap_shard(&self, shard: usize, graph: &Arc<RouterGraph>) -> Result<Result<SwapReport>> {
        let graph = Arc::clone(graph);
        self.workers[shard].query(Job::write(move |e| e.hot_swap(&graph)))
    }

    /// Per-shard `(total_drops, completed_packets)` snapshot; `None` for
    /// shards that are dead or unreachable.
    fn gauge_snapshot(&self) -> Vec<Option<(u64, u64)>> {
        self.workers
            .iter()
            .map(|w| {
                if w.dead || w.is_dead() {
                    return None;
                }
                let drops = w.query(Job::read(|e, _| e.total_drops())).ok()?;
                Some((drops, w.shared.completed_pkts.load(Ordering::Acquire)))
            })
            .collect()
    }

    /// Hands buffered traffic to the shards and pumps until the canary
    /// has processed `window` packets beyond `start_pkts`, everything
    /// drains, or the wedge timeout passes.
    fn pump_window(&mut self, canary: usize, window: u64, start_pkts: u64) {
        let deadline = Instant::now() + self.wedge_timeout;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        loop {
            self.flush();
            self.collect();
            let canary_pkts = self.workers[canary]
                .shared
                .completed_pkts
                .load(Ordering::Acquire)
                .saturating_sub(start_pkts);
            let idle = self.workers_idle() && self.pending.iter().all(Vec::is_empty);
            if canary_pkts >= window || idle || Instant::now() >= deadline {
                return;
            }
            backoff.snooze();
        }
    }

    /// Looks up a device id by name (same table every shard uses).
    pub fn device_id(&self, name: &str) -> Option<DeviceId> {
        self.bank.id(name)
    }

    /// Device names in id order.
    pub fn device_names(&self) -> &[String] {
        self.bank.device_names()
    }

    /// The shard a frame received on `dev` steers to when every shard is
    /// live (exposed for tests and the core-scaling benchmark, which
    /// pre-partitions traces with the very same function).
    pub fn shard_for(&self, frame: &[u8], dev: DeviceId) -> usize {
        self.steer.shard_for(frame, dev)
    }

    /// Steers a packet to its (live) shard and buffers it for injection
    /// on `dev`. Call [`ParallelRouter::flush`] (or
    /// [`ParallelRouter::run_until_idle`]) to hand buffered bursts to
    /// the workers. If no live shard remains the packet is dropped and
    /// counted in [`FaultGauges::no_live_shard_drops`].
    pub fn inject(&mut self, dev: DeviceId, p: Packet) {
        let t0 = self.telemetry.then(Instant::now);
        let Some(shard) = self.steer.live_shard_for(p.data(), dev) else {
            self.faults.no_live_shard_drops += 1;
            p.recycle();
            return;
        };
        self.ingress.packets += 1;
        if let Some(t0) = t0 {
            self.ingress.steer_ns += t0.elapsed().as_nanos() as u64;
        }
        let burst = self.burst_ctl[shard].get();
        let groups = &mut self.pending[shard];
        let open = &mut self.pending_open[shard];
        if open.len() <= dev.0 {
            open.resize(dev.0 + 1, None);
        }
        match open[dev.0] {
            Some(i) if groups[i].1.len() < burst => groups[i].1.push(p),
            _ => {
                let mut batch = self.storage.pop().unwrap_or_default();
                batch.push(p);
                open[dev.0] = Some(groups.len());
                groups.push((dev, batch));
                self.ingress.batches += 1;
            }
        }
    }

    /// Enqueues every buffered burst onto its shard's ring, spinning
    /// with backpressure (and draining TX output) while rings are full,
    /// and supervising worker health while blocked. Returns the number
    /// of packets collected into the TX banks while waiting for ring
    /// space.
    ///
    /// If a live worker wedges (zero progress for the configured
    /// `wedge_timeout`), this returns early with the packets collected
    /// so far; un-handed bursts stay buffered. Use
    /// [`ParallelRouter::try_run_until_idle`] to observe the timeout as
    /// an error.
    pub fn flush(&mut self) -> usize {
        self.pump(false).0
    }

    /// Drains every worker's outbound ring into the merged TX banks;
    /// returns how many packets arrived.
    pub fn collect(&mut self) -> usize {
        let mut moved = 0;
        for w in &mut self.workers {
            w.from_worker.pop_batch(usize::MAX, &mut self.collected);
            for (dev, mut batch) in self.collected.drain(..) {
                moved += batch.len();
                self.bank.tx_push_batch(dev, &mut batch);
                if self.storage.len() < 64 {
                    self.storage.push(batch);
                }
            }
        }
        moved
    }

    /// Flushes buffered injections and busy-polls (with backoff) until
    /// every live shard has processed everything handed to it and all TX
    /// output has been collected, supervising worker health along the
    /// way. Returns the number of packets that arrived in the TX banks
    /// during this call.
    ///
    /// This is the sharded counterpart of [`Router::run_until_idle`].
    /// If a live worker wedges, returns early with what was collected;
    /// use [`ParallelRouter::try_run_until_idle`] to observe the timeout
    /// as an error.
    pub fn run_until_idle(&mut self) -> usize {
        self.pump(true).0
    }

    /// Like [`ParallelRouter::run_until_idle`], but reports a wedged
    /// router.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when no progress was made for the configured
    /// `wedge_timeout` while work was still outstanding.
    pub fn try_run_until_idle(&mut self) -> Result<usize> {
        let (collected, r) = self.pump(true);
        r.map(|()| collected)
    }

    /// One device round: pumps the bank's backends (RX in, queued TX out
    /// under the supervision rules), steers everything received into the
    /// shards, and collects what the workers have published into the
    /// bank's TX queues for the next round to send.
    fn pump_devices(&mut self) -> PumpStats {
        let stats = self.bank.pump(DEVICE_BURST);
        for dev in (0..self.bank.len()).map(DeviceId) {
            while let Some(p) = self.bank.rx_pop(dev) {
                self.inject(dev, p);
            }
        }
        self.flush();
        self.collect();
        stats
    }

    /// Runs the router over its attached device backends — the sharded
    /// counterpart of [`Router::run_with_devices`]: device rounds around
    /// [`ParallelRouter::try_run_until_idle`] until a full round moves
    /// nothing, the workers are idle, and every backend is exhausted with
    /// no TX backlog — or `max_rounds` passes (live sockets and memory
    /// queues never exhaust; call with a small `max_rounds` in your own
    /// loop for those). A blocked TX device whose drain deadline is still
    /// running is waited out, so its frames end up sent or counted lost.
    /// Returns the cumulative pump totals.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when a worker wedges past the wedge timeout.
    pub fn run_devices(&mut self, max_rounds: usize) -> Result<PumpStats> {
        let mut totals = PumpStats::default();
        for _ in 0..max_rounds {
            let round = self.pump_devices();
            let moved = self.try_run_until_idle()?;
            // Send what the idle run produced before judging quiescence.
            let drain = self.pump_devices();
            totals.absorb(round);
            totals.absorb(drain);
            if round.idle() && drain.idle() && moved == 0 {
                if self.bank.backends_exhausted() && self.bank.tx_backlog() == 0 {
                    break;
                }
                // Blocked TX with the deadline still running: give the
                // supervision clock a moment to progress.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(totals)
    }

    /// The shared injection/collection engine. Pushes pending bursts,
    /// drains TX, supervises health when unproductive, and (for
    /// `until_idle`) waits for every live worker to finish. Returns the
    /// packets collected plus `Err` if progress stalled past the wedge
    /// timeout.
    fn pump(&mut self, until_idle: bool) -> (usize, Result<()>) {
        let mut collected = 0;
        self.bell.register();
        let mut backoff = Backoff::new(self.backoff_spins);
        let mut last_progress = Instant::now();
        // One cheap health sweep per burst of work — faults that occurred
        // since the last call are handled before new packets commit to a
        // dead shard's ring.
        self.supervise();
        loop {
            let mut progressed = false;
            let mut outstanding = 0usize;
            // Hand buffered bursts to their shards' rings.
            for shard in 0..self.workers.len() {
                if self.pending[shard].is_empty() {
                    continue;
                }
                if self.workers[shard].dead {
                    // Death detected mid-loop; supervise() re-steers.
                    outstanding += self.pending[shard].len();
                    continue;
                }
                if self.workers[shard].to_worker.is_full() {
                    outstanding += self.pending[shard].len();
                    continue;
                }
                let mut groups = std::mem::take(&mut self.pending[shard]);
                // Flushing shifts group indices; close every open batch.
                self.pending_open[shard].iter_mut().for_each(|o| *o = None);
                let before_pkts: usize = groups.iter().map(|(_, b)| b.len()).sum();
                let n = self.workers[shard].to_worker.push_batch(&mut groups);
                let after_pkts: usize = groups.iter().map(|(_, b)| b.len()).sum();
                self.workers[shard].enqueued_batches += n as u64;
                self.workers[shard].enqueued_pkts += (before_pkts - after_pkts) as u64;
                if n > 0 {
                    progressed = true;
                    self.workers[shard].wake();
                    let ring = &self.workers[shard].to_worker;
                    self.burst_ctl[shard].observe(ring.len(), ring.capacity());
                }
                outstanding += groups.len();
                self.pending[shard] = groups;
            }
            let got = self.collect();
            collected += got;
            if got > 0 {
                progressed = true;
            }
            if outstanding == 0 {
                if !until_idle {
                    return (collected, Ok(()));
                }
                if self.workers_idle() {
                    // Workers are done; one final sweep picks up anything
                    // published between the last collect and the idle
                    // check.
                    collected += self.collect();
                    return (collected, Ok(()));
                }
            }
            if progressed {
                last_progress = Instant::now();
                backoff.reset();
                continue;
            }
            // Unproductive poll: the cheap per-burst health-word check.
            if self.supervise() {
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() >= self.wedge_timeout {
                return (
                    collected,
                    Err(Error::runtime(format!(
                        "backpressure timeout: no progress for {:?} with work outstanding \
                         (a worker shard appears wedged)",
                        self.wedge_timeout
                    ))),
                );
            }
            backoff.snooze();
        }
    }

    /// Scans worker health words and handles any newly dead shard:
    /// salvage, account, recover (restart or degrade), re-steer.
    /// Returns `true` if a fault was handled.
    fn supervise(&mut self) -> bool {
        let mut handled = false;
        for i in 0..self.workers.len() {
            if !self.workers[i].dead && self.workers[i].is_dead() {
                self.handle_dead_shard(i);
                handled = true;
            }
        }
        handled
    }

    /// The supervisor's fault path for one dead shard.
    fn handle_dead_shard(&mut self, shard: usize) {
        self.faults.shard_deaths += 1;
        self.steer.mark_dead(shard);
        self.workers[shard].dead = true;

        // Salvage: everything still in the inbound ring (the dead
        // consumer is inert, and this thread is the ring's single
        // producer), every published TX burst in the outbound ring, and
        // every not-yet-enqueued pending burst, in FIFO order.
        let mut salvaged: Vec<ShardItem> = Vec::new();
        self.workers[shard].to_worker.reclaim(&mut salvaged);
        let ring_pkts: u64 = salvaged.iter().map(|(_, b)| b.len() as u64).sum();
        let mut published: Vec<ShardItem> = Vec::new();
        self.workers[shard]
            .from_worker
            .pop_batch(usize::MAX, &mut published);
        for (dev, mut batch) in published {
            self.bank.tx_push_batch(dev, &mut batch);
            if self.storage.len() < 64 {
                self.storage.push(batch);
            }
        }
        salvaged.append(&mut self.pending[shard]);
        self.pending_open[shard].iter_mut().for_each(|o| *o = None);
        let salvaged_pkts: u64 = salvaged.iter().map(|(_, b)| b.len() as u64).sum();

        // Account the irrecoverable loss: packets handed to the worker
        // that it neither completed nor left in the rings were inside
        // the engine when it died.
        let w = &mut self.workers[shard];
        let completed_b = w.shared.completed_batches.load(Ordering::Acquire);
        let completed_p = w.shared.completed_pkts.load(Ordering::Acquire);
        let lost = w
            .enqueued_pkts
            .saturating_sub(completed_p)
            .saturating_sub(ring_pkts);
        self.faults.lost_packets += lost;
        self.faults.reclaimed_packets += salvaged_pkts;
        // Reconcile the dead worker's books so it reads as idle.
        w.enqueued_batches = completed_b;
        w.enqueued_pkts = completed_p;

        // Recover.
        let restart_budget = match self.recovery {
            Recovery::Restart { max_per_shard } => max_per_shard,
            Recovery::Degrade => 0,
        };
        let mut restarted = false;
        if self.workers[shard].restarts < restart_budget {
            match (self.make_worker)(shard, self.telemetry) {
                Ok(mut fresh) => {
                    fresh.restarts = self.workers[shard].restarts + 1;
                    let old = std::mem::replace(&mut self.workers[shard], fresh);
                    self.graveyard.push(old);
                    self.steer.mark_live(shard);
                    self.faults.restarts += 1;
                    restarted = true;
                }
                Err(_) => {
                    // Could not spawn a replacement; degrade instead.
                }
            }
        }
        if !restarted {
            self.faults.degraded_entries += 1;
        }

        // Re-inject the salvaged packets through the updated steering:
        // back to the restarted shard, or re-homed across survivors.
        for (dev, mut batch) in salvaged {
            for p in batch.drain() {
                self.inject(dev, p);
            }
            if self.storage.len() < 64 {
                self.storage.push(batch);
            }
        }
    }

    /// Health snapshot of every worker shard: `(shard, live, heartbeat,
    /// restarts)`. A live worker's heartbeat advances on every poll, so
    /// two snapshots distinguish busy from wedged.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.workers
            .iter()
            .map(|w| ShardHealth {
                shard: w.shard,
                live: !w.dead && !w.is_dead(),
                heartbeat: w.shared.heartbeat.load(Ordering::Relaxed),
                restarts: w.restarts,
            })
            .collect()
    }

    /// Pings a worker over the control plane.
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] when the shard index is out of range or the
    /// worker is gone/wedged.
    pub fn ping(&self, shard: usize) -> Result<()> {
        let w = self
            .workers
            .get(shard)
            .ok_or_else(|| Error::runtime(format!("no shard {shard}")))?;
        w.query(Job::read(|_, _| ()))
    }

    /// Number of packets transmitted on a device and collected so far.
    pub fn tx_len(&self, dev: DeviceId) -> usize {
        self.bank.tx_len(dev)
    }

    /// Takes all collected TX packets for a device.
    pub fn take_tx(&mut self, dev: DeviceId) -> Vec<Packet> {
        self.bank.take_tx(dev)
    }

    /// Drains collected TX packets for a device into a batch (storage
    /// stays warm, mirroring [`crate::router::DeviceBank::drain_tx_into`]).
    ///
    /// Same contract as the serial version: packets are *appended* to
    /// `into` (which need not be empty), and the return value counts only
    /// the packets appended by this call, not `into.len()`.
    pub fn drain_tx_into(&mut self, dev: DeviceId, into: &mut PacketBatch) -> usize {
        self.bank.drain_tx_into(dev, into)
    }

    /// Runs `f` as a read job on every worker that can still answer one
    /// — the live shards, zombies, and the graveyard (dead predecessors
    /// of restarted shards), so merged statistics keep counting packets
    /// the dead saw — and yields the answers. Shards that cannot answer
    /// (gone, wedged) are skipped.
    fn ask_all<T: Send + 'static>(
        &self,
        f: impl FnOnce(&dyn Engine, &ShardGauges) -> T + Clone + Send + 'static,
    ) -> impl Iterator<Item = T> + '_ {
        (self.workers.iter().chain(&self.graveyard))
            .filter_map(move |w| w.query(Job::read(f.clone())).ok())
    }

    /// Reads a named statistic from an element, summed across shards —
    /// the merged view that makes a sharded router answer like a serial
    /// one. `None` if no shard knows the element/statistic.
    pub fn stat(&self, element: &str, stat: &str) -> Option<u64> {
        let (element, stat) = (element.to_owned(), stat.to_owned());
        (self.ask_all(move |e, _| e.stat(&element, &stat)))
            .flatten()
            .reduce(|a, b| a + b)
    }

    /// Sum of a statistic across all elements of a class, across all
    /// shards.
    pub fn class_stat(&self, class: &str, stat: &str) -> u64 {
        let (class, stat) = (class.to_owned(), stat.to_owned());
        self.ask_all(move |e, _| e.class_stat(&class, &stat)).sum()
    }

    /// Packets dropped on unconnected ports, summed across shards.
    pub fn unconnected_drops(&self) -> u64 {
        self.ask_all(|e, _| e.unconnected_drops()).sum()
    }

    /// Packets dropped breaking configuration loops, summed across
    /// shards.
    pub fn reentrant_drops(&self) -> u64 {
        self.ask_all(|e, _| e.reentrant_drops()).sum()
    }

    /// Merged packet-pool counters of every worker thread (each shard
    /// allocates from its own thread-local pool).
    pub fn pool_stats(&self) -> PoolStats {
        let pools = self.ask_all(|_, _| crate::packet::pool_stats());
        pools.fold(PoolStats::default(), |t, s| PoolStats {
            hits: t.hits + s.hits,
            misses: t.misses + s.misses,
            recycled: t.recycled + s.recycled,
            dropped: t.dropped + s.dropped,
        })
    }

    /// Resets every worker thread's packet-pool counters (benchmark
    /// warmup).
    pub fn reset_pool_stats(&self) {
        self.ask_all(|_, _| crate::packet::reset_pool_stats())
            .for_each(drop);
    }

    /// Arms or disarms telemetry on every shard engine and on the
    /// steering clock of [`ParallelRouter::inject`]. Each live shard is
    /// quiesced first, so what it was already handed runs under the old
    /// setting and everything after under the new one; a shard restarted
    /// later is spawned with it, and hot swaps carry it. Shards that
    /// cannot answer (dead, wedged) are skipped.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
        for s in 0..self.workers.len() {
            if self.quiesce_shard(s).is_ok() {
                let _ = self.workers[s].query(Job::write(move |e| e.set_telemetry(on)));
            }
        }
    }

    /// Per-element telemetry profiles merged across shards: each worker
    /// snapshots its own engine's counters
    /// ([`Router::telemetry_profiles`]) and the control plane sums
    /// records by element name, so the merged profile reads like a
    /// serial run of the same graph. Zeroes until
    /// [`ParallelRouter::set_telemetry`] arms the shards.
    pub fn telemetry_profiles(&self) -> Vec<ElementProfile> {
        let shards: Vec<Vec<ElementProfile>> = self.ask_all(|e, _| e.profiles()).collect();
        telemetry::merge_profiles(&shards)
    }

    /// Runtime gauges of every worker shard, in shard order: inbound-ring
    /// occupancy high-water, backoff snoozes, and batches/packets
    /// processed. Always live (kept per ring poll).
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        (self.workers.iter())
            .filter_map(|w| w.query(Job::read(|_, g| *g)).ok())
            .collect()
    }

    /// Ingress-steering gauges: batches and packets steered on the
    /// injection thread (always live) and their classification self-time
    /// (while the telemetry switch is on).
    pub fn steer_gauges(&self) -> SteerGauges {
        self.ingress
    }

    /// Every gauge section of the sharded runtime in one read-out.
    pub fn gauges(&self) -> Gauges {
        Gauges {
            shards: self.shard_gauges(),
            steering: Some(self.steer_gauges()),
            devices: self.bank.device_gauges(),
            faults: Some(self.fault_gauges()),
            swap: Some(self.swap_gauges()),
        }
    }

    /// Stops the workers and joins their threads. Equivalent to dropping
    /// the router, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Orderly, bounded teardown: signal stop, keep draining TX so no
    /// worker deadlocks against a full outbound ring, join every thread
    /// that exits within the wedge timeout (wedged threads are
    /// abandoned, never blocked on), then reclaim and recycle every
    /// packet still sitting in the rings of joined workers so pool
    /// accounting balances even after an abortive teardown.
    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        let deadline = Instant::now() + self.wedge_timeout;
        loop {
            self.collect();
            let all_finished = self
                .workers
                .iter()
                .chain(self.graveyard.iter())
                .all(|w| w.handle.as_ref().is_none_or(JoinHandle::is_finished));
            if all_finished || Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        let mut leftovers: Vec<ShardItem> = Vec::new();
        for w in self.workers.iter_mut().chain(self.graveyard.iter_mut()) {
            if let Some(h) = w.handle.take() {
                if h.is_finished() {
                    let _ = h.join();
                    // The consumer is gone: reclaim the inbound ring.
                    w.to_worker.reclaim(&mut leftovers);
                } else {
                    // Wedged thread: abandon it (detached). Its rings may
                    // still be touched, so leave them alone.
                    w.handle = None;
                }
            }
            w.from_worker.pop_batch(usize::MAX, &mut leftovers);
        }
        // Buffered-but-never-handed bursts also recycle.
        for groups in &mut self.pending {
            leftovers.append(groups);
        }
        for (_, mut batch) in leftovers.drain(..) {
            batch.recycle_packets();
        }
        self.collect();
    }
}

impl Drop for ParallelRouter {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl CheckpointEngine for ParallelRouter {
    fn checkpoint_snapshot(&mut self) -> Result<EngineSnapshot> {
        ParallelRouter::checkpoint_snapshot(self)
    }

    fn checkpoint_restore(&mut self, ckpt: &Checkpoint) -> Result<RestoreStats> {
        ParallelRouter::checkpoint_restore(self, ckpt)
    }
}

/// One row of [`ParallelRouter::shard_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Whether the worker is alive and processing.
    pub live: bool,
    /// Poll-loop heartbeat (advances while the worker is responsive).
    pub heartbeat: u64,
    /// Restarts spent on this shard slot.
    pub restarts: u32,
}

/// Per-worker configuration handed to the worker thread.
#[derive(Clone, Copy)]
struct WorkerCfg {
    shard: usize,
    batching: bool,
    burst: usize,
    backoff_spins: u32,
    ring_capacity: usize,
    /// The telemetry switch the shard's engine starts with.
    telemetry: bool,
}

/// The engine factory: shard `cfg.shard`'s `Router<S>` from the standard
/// element library, set up as `cfg` says and boxed as a `dyn Engine`.
fn shard_engine<S: Slot + 'static>(
    graph: &RouterGraph,
    cfg: &WorkerCfg,
) -> Result<Box<dyn Engine>> {
    let mut router = Router::<S>::from_graph_in_shard(graph, &Library::standard(), cfg.shard)?;
    router.set_batching(cfg.batching);
    router.set_batch_burst(cfg.burst);
    router.set_telemetry(cfg.telemetry);
    Ok(Box::new(router))
}

/// Creates the rings, job channel and thread of one worker shard; the
/// thread builds its engine with `factory` and runs [`Shard::run`].
fn spawn_worker(
    graph: &Arc<RouterGraph>,
    cfg: WorkerCfg,
    factory: EngineFactory,
    stop: &Arc<AtomicBool>,
    bell: &Arc<Doorbell>,
) -> Result<Worker> {
    let (mut worker, links) = Worker::link(&cfg, stop, bell);
    let graph = Arc::clone(graph);
    let handle = std::thread::Builder::new()
        .name(format!("click-shard-{}", cfg.shard))
        .spawn(move || Shard::new(factory(&graph, &cfg), &cfg, links).run(cfg.backoff_spins))
        .map_err(|e| Error::runtime(format!("spawning shard {}: {e}", cfg.shard)))?;
    worker.handle = Some(handle);
    Ok(worker)
}

/// The worker-side ends of one shard's rings and job channel, and what
/// it shares with the supervisor.
struct ShardLinks {
    input: RingConsumer<ShardItem>,
    output: RingProducer<ShardItem>,
    jobs: mpsc::Receiver<Job>,
    shared: Arc<WorkerShared>,
    stop: Arc<AtomicBool>,
    bell: Arc<Doorbell>,
}

impl ShardLinks {
    /// Publishes a health-word state and wakes the supervisor to read it.
    fn set_health(&self, state: u8) {
        self.shared.health.store(state, Ordering::Release);
        self.bell.ring();
    }
}

/// What one [`Shard::step`] did, which tells its thread how to wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Forwarded packets: poll again at once.
    Busy,
    /// Found nothing to do, or is stalled on a full outbound ring.
    Idle,
    /// A zombie, which forwards nothing more: nap until a job arrives.
    Parked,
    /// The runtime shut down.
    Exit,
}

/// One worker shard: a serial engine between an inbound and an outbound
/// ring. Its thread calls [`Shard::step`] in a loop ([`Shard::run`]); a
/// caller can step it just as well. A step never blocks: TX that does
/// not fit the outbound ring waits in `outbox` for a later step, and
/// meanwhile the shard answers read jobs and refuses write jobs.
///
/// A panic in the engine is confined to the shard: it publishes
/// [`HEALTH_PANICKED`] and turns zombie, forwarding nothing more but
/// still answering read jobs (so the dead shard's statistics survive)
/// until shutdown.
struct Shard {
    /// The shard's engine, or why it could not be built (the shard then
    /// only refuses jobs).
    engine: Result<Box<dyn Engine>>,
    /// Set once the engine panicked.
    zombie: bool,
    links: ShardLinks,
    gauges: ShardGauges,
    /// Dequeue burst: occupancy-adapted per poll.
    deq: AdaptiveBurst,
    /// Items popped from the inbound ring and not yet forwarded.
    inbox: VecDeque<ShardItem>,
    /// TX bursts drained from the engine, waiting for ring space.
    outbox: Vec<ShardItem>,
    /// `(batches, packets)` completed but not yet published: they are
    /// published once `outbox` is on the ring, so the supervisor never
    /// finds the shard idle with output it cannot collect yet.
    owed: (u64, u64),
    /// Empty batch storage for TX bursts.
    free: Vec<PacketBatch>,
    /// Devices of the engine's graph (a write job may change them).
    n_dev: usize,
    /// Capacity of a freshly allocated TX batch.
    burst: usize,
}

impl Shard {
    fn new(engine: Result<Box<dyn Engine>>, cfg: &WorkerCfg, links: ShardLinks) -> Shard {
        // The graph was validated on the control thread; a failure here
        // is a bug, surfaced as a health-word state rather than a panic.
        if engine.is_err() {
            links.set_health(HEALTH_BUILD_FAILED);
        }
        let capacity = links.input.capacity().max(DEQUEUE_BURST);
        Shard {
            n_dev: engine.as_ref().map_or(0, |e| e.device_names().len()),
            engine,
            zombie: false,
            links,
            gauges: ShardGauges {
                shard: cfg.shard,
                ..ShardGauges::default()
            },
            deq: AdaptiveBurst::new(DEQUEUE_BURST, DEQUEUE_BURST, capacity),
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            owed: (0, 0),
            free: Vec::new(),
            burst: cfg.burst,
        }
    }

    /// The worker thread's loop: steps the shard, backing off while it
    /// finds nothing to do and napping while it is a zombie.
    fn run(mut self, backoff_spins: u32) {
        let mut backoff = Backoff::new(backoff_spins);
        loop {
            match self.step() {
                Step::Busy => backoff.reset(),
                Step::Idle => {
                    self.gauges.backoff_snoozes += 1;
                    backoff.snooze();
                }
                Step::Parked => std::thread::park_timeout(ZOMBIE_NAP),
                Step::Exit => return,
            }
        }
    }

    /// One poll: publish what a full outbound ring held back, serve the
    /// job channel, then pop a burst from the inbound ring and forward
    /// it.
    fn step(&mut self) -> Step {
        self.links.shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        if self.zombie || self.engine.is_err() {
            self.serve(false);
            return if self.stopping() {
                self.exit()
            } else {
                Step::Parked
            };
        }
        if !self.publish() {
            self.serve(false);
            // The supervisor fell behind on collection; wake it.
            self.links.bell.ring();
            return Step::Idle;
        }
        // With the inbox empty this is the quiesced top of the loop.
        self.serve(self.inbox.is_empty());
        if self.inbox.is_empty() {
            let input = &self.links.input;
            self.gauges.ring_high_water = self.gauges.ring_high_water.max(input.len());
            let burst = self.deq.get();
            self.inbox
                .extend(std::iter::from_fn(|| input.try_pop()).take(burst));
            self.deq.observe(input.len(), input.capacity());
            if self.inbox.is_empty() {
                return if self.stopping() && input.is_empty() {
                    self.exit()
                } else {
                    Step::Idle
                };
            }
            self.gauges.batches += self.inbox.len() as u64;
            self.gauges.packets += self.inbox.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        }
        // Fault isolation: a panic anywhere in the element graph is
        // confined to this shard. The engine lives outside the catch so
        // its statistics remain readable afterwards.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.forward()));
        // One doorbell ring per productive poll: the supervisor sees the
        // output batches and completion counters published above without
        // waiting out its own nap.
        self.links.bell.ring();
        if outcome.is_err() {
            // Unprocessed items are part of the in-flight loss the
            // supervisor accounts; drop their buffers here.
            self.inbox.clear();
            self.outbox.clear();
            self.zombie = true;
            self.links.set_health(HEALTH_PANICKED);
        }
        Step::Busy
    }

    /// Forwards the inbox item by item through the engine — inject,
    /// settle, drain every device's TX — and publishes each item's
    /// output, until the inbox is empty or the outbound ring is full.
    fn forward(&mut self) {
        while let Some((dev, mut batch)) = self.inbox.pop_front() {
            let Ok(engine) = self.engine.as_deref_mut() else {
                return;
            };
            let pkts = batch.len() as u64;
            for p in batch.drain() {
                engine.inject(dev, p);
            }
            if self.free.len() < 64 {
                self.free.push(batch);
            }
            engine.settle();
            for d in (0..self.n_dev).map(DeviceId) {
                // Sized to a burst: this storage ends up in the injecting
                // thread's free list, which refills it.
                let fresh = || PacketBatch::with_capacity(self.burst);
                let mut out = self.free.pop().unwrap_or_else(fresh);
                if engine.drain_tx_into(d, &mut out) > 0 {
                    self.outbox.push((d, out));
                } else {
                    self.free.push(out);
                }
            }
            self.owed.0 += 1;
            self.owed.1 += pkts;
            if !self.publish() {
                return;
            }
        }
    }

    /// Moves `outbox` onto the outbound ring (once the runtime is
    /// stopping, what does not fit is recycled), then publishes the
    /// completions owed. Returns `false` while TX is still held back.
    fn publish(&mut self) -> bool {
        if !self.outbox.is_empty() {
            self.links.output.push_batch(&mut self.outbox);
            if !self.outbox.is_empty() {
                if !self.stopping() {
                    return false;
                }
                for (_, mut batch) in self.outbox.drain(..) {
                    batch.recycle_packets();
                }
            }
        }
        let (batches, pkts) = std::mem::take(&mut self.owed);
        if batches > 0 {
            let shared = &self.links.shared;
            shared
                .completed_batches
                .fetch_add(batches, Ordering::Release);
            shared.completed_pkts.fetch_add(pkts, Ordering::Release);
        }
        true
    }

    /// Runs every queued job. A read job gets the engine wherever it is
    /// readable; a write job gets it only when `quiesced`, and is refused
    /// with "shard busy" otherwise.
    fn serve(&mut self, quiesced: bool) {
        while let Ok(job) = self.links.jobs.try_recv() {
            match (job, &mut self.engine) {
                (Job::Read(job), Ok(e)) => job(Ok((&**e, &self.gauges))),
                (Job::Write(job), Ok(e)) if quiesced => {
                    job(Ok(&mut **e));
                    self.n_dev = e.device_names().len();
                }
                (Job::Write(job), Ok(_)) => job(Err(Error::runtime(
                    "shard busy: a write job needs a quiesced worker",
                ))),
                (Job::Read(job), Err(e)) => job(Err(e.clone())),
                (Job::Write(job), Err(e)) => job(Err(e.clone())),
            }
        }
    }

    fn stopping(&self) -> bool {
        self.links.stop.load(Ordering::Acquire)
    }

    fn exit(&self) -> Step {
        self.links.set_health(HEALTH_EXITED);
        Step::Exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::headers::build_udp_packet;
    use click_core::lang::read_config;

    fn counter_graph() -> RouterGraph {
        read_config("FromDevice(in0) -> c :: Counter -> Queue(4096) -> ToDevice(out0);").unwrap()
    }

    fn udp(sport: u16, seq: u8) -> Packet {
        let mut p = build_udp_packet([1; 6], [2; 6], 0x0A000002, 0x0A000102, sport, 9, 18, 64);
        let n = p.len();
        p.data_mut()[n - 1] = seq;
        p
    }

    /// One shard on the calling thread, with no thread spawned.
    fn stepped_shard(ring_capacity: usize) -> (Worker, Shard) {
        let cfg = WorkerCfg {
            shard: 0,
            batching: false,
            burst: 8,
            backoff_spins: 1,
            ring_capacity,
            telemetry: false,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let (worker, links) = Worker::link(&cfg, &stop, &Arc::new(Doorbell::default()));
        let engine = shard_engine::<Box<dyn Element>>(&counter_graph(), &cfg);
        (worker, Shard::new(engine, &cfg, links))
    }

    /// Puts a burst of `n` frames for `in0` on the shard's inbound ring.
    fn hand(w: &Worker, shard: &Shard, n: u8) {
        let in0 = shard.engine.as_ref().unwrap().device("in0").unwrap();
        let mut batch = PacketBatch::new();
        (0..n).for_each(|i| batch.push(udp(5000, i)));
        assert!(w.to_worker.try_push((in0, batch)).is_ok());
    }

    /// Pops the outbound ring; returns the packets per burst.
    fn take_out(w: &Worker) -> Vec<usize> {
        let mut out = Vec::new();
        w.from_worker.pop_batch(usize::MAX, &mut out);
        (out.into_iter())
            .map(|(_, mut b)| {
                let n = b.len();
                b.recycle_packets();
                n
            })
            .collect()
    }

    fn completed(w: &Worker) -> u64 {
        w.shared.completed_batches.load(Ordering::Acquire)
    }

    #[test]
    fn a_stepped_shard_forwards_a_burst_and_answers_jobs_on_top() {
        let (w, mut shard) = stepped_shard(4);
        hand(&w, &shard, 5);
        assert_eq!(shard.step(), Step::Busy);
        assert_eq!(take_out(&w), [5]);
        assert_eq!(completed(&w), 1);
        assert_eq!(shard.step(), Step::Idle, "nothing left to pop");

        // A write job waits for the next step, which answers it at the
        // top of the loop.
        let (job, reply) = Job::write(|e| {
            e.set_telemetry(true);
            e.profiles().len()
        });
        w.jobs.send(job).unwrap();
        assert!(reply.try_recv().is_err());
        assert_eq!(shard.step(), Step::Idle);
        assert_eq!(reply.try_recv().unwrap().unwrap(), 4);
    }

    #[test]
    fn a_stalled_shard_refuses_write_jobs_and_answers_read_jobs() {
        let (w, mut shard) = stepped_shard(1);
        hand(&w, &shard, 3);
        assert_eq!(shard.step(), Step::Busy);
        // The first burst's TX fills the one-slot outbound ring; the
        // second burst is forwarded but its TX is held back, and so is
        // its completion.
        hand(&w, &shard, 4);
        assert_eq!(shard.step(), Step::Busy);
        assert_eq!(completed(&w), 1);

        let (write, written) = Job::write(|e| e.hot_swap(&counter_graph()));
        let (read, count) = Job::read(|e, _| e.stat("c", "count"));
        w.jobs.send(write).unwrap();
        w.jobs.send(read).unwrap();
        assert_eq!(shard.step(), Step::Idle, "stalled on the full ring");
        let err = written.try_recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("shard busy"), "{err}");
        assert_eq!(count.try_recv().unwrap().unwrap(), Some(7));

        // Once the ring drains, the held burst goes out and the shard is
        // quiesced again: a write job runs.
        assert_eq!(take_out(&w), [3]);
        let (write, written) = Job::write(|e| e.hot_swap(&counter_graph()));
        w.jobs.send(write).unwrap();
        assert_eq!(shard.step(), Step::Idle);
        assert_eq!(completed(&w), 2);
        assert_eq!(take_out(&w), [4]);
        let report = written.try_recv().unwrap().unwrap().unwrap();
        assert_eq!(report.reused, 2, "{report:?}");
    }

    #[test]
    fn single_shard_forwards_everything() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(1)).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for i in 0..40u8 {
            r.inject(in0, udp(1000 + u16::from(i % 8), i));
        }
        let got = r.run_until_idle();
        assert_eq!(got, 40);
        assert_eq!(r.tx_len(out0), 40);
        assert_eq!(r.stat("c", "count"), Some(40));
        assert_eq!(r.class_stat("Counter", "count"), 40);
        assert_eq!(
            r.fault_gauges(),
            FaultGauges {
                live_shards: 1,
                shards: 1,
                ..FaultGauges::default()
            }
        );
        r.shutdown();
    }

    #[test]
    fn shards_preserve_per_flow_order() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(4).batched(8))
                .unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        // 8 flows × 16 packets, interleaved.
        for seq in 0..16u8 {
            for flow in 0..8u16 {
                r.inject(in0, udp(2000 + flow, seq));
            }
        }
        assert_eq!(r.run_until_idle(), 128);
        let tx = r.take_tx(out0);
        assert_eq!(tx.len(), 128);
        // Within each flow (source port), sequence numbers stay ordered.
        for flow in 0..8u16 {
            let seqs: Vec<u8> = tx
                .iter()
                .filter(|p| crate::steer::flow_key(p.data()).unwrap().3 == 2000 + flow)
                .map(|p| p.data()[p.len() - 1])
                .collect();
            assert_eq!(seqs, (0..16u8).collect::<Vec<_>>(), "flow {flow} reordered");
        }
        assert_eq!(r.class_stat("Counter", "count"), 128);
        assert_eq!(r.unconnected_drops(), 0);
    }

    #[test]
    fn workers_use_their_own_packet_pools() {
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2).batched(8))
                .unwrap();
        let in0 = r.device_id("in0").unwrap();
        r.reset_pool_stats();
        for i in 0..32u8 {
            r.inject(in0, udp(3000 + u16::from(i), 0));
        }
        r.run_until_idle();
        // The workers did the forwarding, so their (merged) pools saw the
        // traffic; exact counts depend on engine internals, but the
        // counters must be alive and shard-local.
        let _ = r.pool_stats();
        r.shutdown();
    }

    #[test]
    fn backpressure_survives_tiny_rings() {
        let g = counter_graph();
        let mut opts = ParallelOpts::new(2).batched(4);
        opts.ring_capacity = 2; // force both rings to fill repeatedly
        let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, opts).unwrap();
        let in0 = r.device_id("in0").unwrap();
        let out0 = r.device_id("out0").unwrap();
        for i in 0..200u16 {
            r.inject(in0, udp(4000 + (i % 16), (i / 16) as u8));
        }
        assert_eq!(r.run_until_idle(), 200, "no drops under backpressure");
        assert_eq!(r.tx_len(out0), 200);
    }

    #[test]
    fn invalid_config_errors_before_spawning() {
        let g = read_config("FromDevice(a) -> ToDevice(b);").unwrap();
        assert!(ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2)).is_err());
    }

    #[test]
    fn absurd_shard_counts_error() {
        let g = counter_graph();
        assert!(ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(0)).is_err());
        assert!(
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(129)).is_err()
        );
    }

    #[test]
    fn drop_joins_worker_threads() {
        let g = counter_graph();
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(3)).unwrap();
        drop(r); // must not hang or leak spinning threads
    }

    #[test]
    fn device_rounds_pump_backends_through_the_shards() {
        use crate::iodev::{MemBackend, SupervisedDevice};
        let g = counter_graph();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2).batched(8))
                .unwrap();
        let (in_be, in_q) = MemBackend::with_handles();
        let (out_be, out_q) = MemBackend::with_handles();
        let (in0, out0) = (r.device_id("in0").unwrap(), r.device_id("out0").unwrap());
        r.bank
            .attach_supervised(in0, SupervisedDevice::new(Box::new(in_be)));
        r.bank
            .attach_supervised(out0, SupervisedDevice::new(Box::new(out_be)));
        for i in 0..20u8 {
            in_q.push_rx(udp(2000 + u16::from(i % 4), i).data());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut totals = PumpStats::default();
        while totals.tx < 20 && Instant::now() < deadline {
            totals.absorb(r.run_devices(1).unwrap());
        }
        assert_eq!((totals.rx, totals.tx, totals.lost), (20, 20, 0));
        assert_eq!(r.total_drops(), 0);
        assert_eq!(out_q.tx_len(), 20);
        let gauges = r.bank.device_gauges();
        assert_eq!(gauges[0].rx_packets, 20);
        assert_eq!(gauges[1].tx_packets, 20);
        r.shutdown();
    }

    #[test]
    fn unknown_device_is_rejected_at_lookup() {
        use crate::iodev::{MemBackend, SupervisedDevice};
        let g = read_config("FromDevice(in0) -> Discard;").unwrap();
        let mut r =
            ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(1)).unwrap();
        assert!(r.device_id("nosuch").is_none());
        // A stale id attaches nothing and the rounds stay idle.
        r.bank.attach_supervised(
            DeviceId(7),
            SupervisedDevice::new(Box::new(MemBackend::echo())),
        );
        assert!(r.bank.device_gauges().is_empty());
        assert!(r.run_devices(1).unwrap().idle());
        r.shutdown();
    }

    #[test]
    fn ping_and_health_report_live_workers() {
        let g = counter_graph();
        let r = ParallelRouter::from_graph::<Box<dyn Element>>(&g, ParallelOpts::new(2)).unwrap();
        r.ping(0).unwrap();
        r.ping(1).unwrap();
        assert!(r.ping(2).is_err(), "no such shard");
        let health = r.shard_health();
        assert_eq!(health.len(), 2);
        assert!(health.iter().all(|h| h.live && h.restarts == 0));
        r.shutdown();
    }
}
