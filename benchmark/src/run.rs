//! One run of one workload: set-up, verification, then interleaved rounds
//! of {calibrate, set up again, forward, latency, control}, all through
//! [`crate::paths::Path`].
//!
//! The same loop code serves the untraced run (end-to-end metrics) and
//! the traced run (per-layer metrics); the only difference is whether the
//! [`Tracer`] is on.

use crate::chain;
use crate::estimator::{Summary, Windows, WINDOW_NS};
use crate::gen::{seq_of, trace, Frame, Rng};
use crate::oracle::{Oracle, Verifier};
use crate::paths::{Inject, Path, Sharded, Wire};
use crate::sched::{Lateness, Schedule};
use crate::span::{Tracer, NO_PARENT};
use crate::workloads::{inputs, Engine, Input, PathKind, Spec};
use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use click_core::registry::Library;
use click_elements::fast::FastElement;
use click_elements::persist::{config_hash, CheckpointLedger};
use click_elements::{Checkpoint, CheckpointStore, CompiledRouter, DynRouter};
use click_opt::reopt::optimize_pipeline;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Frames fed, settled and drained per closed-loop iteration.
pub const ITER: usize = 256;
/// Offered rate of the open loop.
pub const RATE_PPS: u64 = 250_000;
/// Time a run spends setting the router up again, over all rounds, on
/// top of `--seconds`. Every round sets it up at least once more, so a
/// big configuration is set up [`ROUNDS`] + 1 times and a millisecond
/// set-up a few hundred times.
pub const SETUP_FLOOR: Duration = Duration::from_millis(300);
/// Interleaved rounds the phases are split into. The host's slow
/// phases last seconds; many short rounds spread each of them over all
/// metrics and give every metric windows from all over the run.
pub const ROUNDS: usize = 8;
/// Frames one latency percentile is taken over: 100 ms of offered load.
const LAT_WINDOW: usize = (RATE_PPS / 10) as usize;
/// Share of a run's measuring time spent on the calibration kernel, on
/// top of `--seconds`.
const REF_SHARE: f64 = 0.05;
/// Kernel steps per timed piece (~40 µs).
const REF_STEPS: u64 = 20_000;
/// The unit end-to-end times are reported in: one calibration-kernel step
/// counts as this many nanoseconds (see [`host_speed`]). It is what the
/// step takes on the pipeline host when nobody disturbs it, so that a
/// reported time reads like the wall-clock time there; any other constant
/// would only rescale every value of every run alike.
pub const REF_NOMINAL_NS: f64 = 2.0;
/// Iterations between control-plane writes in a churn workload (1024
/// frames).
const CHURN_EVERY: u32 = 4;

/// A named value with its estimator diagnostics.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value and diagnostics.
    pub summary: Summary,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }
}

/// Operations attempted and failed, in the contract's sense: a frame
/// offered is an operation; so is a compile, a swap, a checkpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was wrong or missing.
    pub failed: u64,
}

impl Tally {
    fn frames(&mut self, offered: usize, delivered: usize) {
        self.attempted += offered as u64;
        self.failed += offered.saturating_sub(delivered) as u64;
    }
    fn op<T>(&mut self, r: Result<T>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("click-spine: {what} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct Measured {
    /// Operation counts.
    pub tally: Tally,
    /// Every output checked equal to the oracle's and the ledger exact.
    pub correct: bool,
    /// `setup_s` repetitions, seconds.
    pub setup_s: Vec<f64>,
    /// Closed-loop windows with the tracer off, ns per packet.
    pub fwd_ns: Vec<f64>,
    /// Closed-loop windows with the tracer on (traced run only).
    pub fwd_traced_ns: Vec<f64>,
    /// Per-window latency medians, µs.
    pub lat_p50_us: Vec<f64>,
    /// Per-window latency 99th percentiles, µs.
    pub lat_p99_us: Vec<f64>,
    /// Generator lateness over the whole latency phase.
    pub lateness: Lateness,
    /// Full-chain compile repetitions (summed over inputs), seconds.
    pub compile_s: Vec<f64>,
    /// `hot_swap` calls, µs.
    pub swap_us: Vec<f64>,
    /// Checkpoint cuts (snapshot to encoded, without the save), µs.
    pub ckpt_us: Vec<f64>,
    /// `optimize_pipeline` calls, ms.
    pub reopt_ms: Vec<f64>,
    /// Stand-alone engine builds of the swap target, ms (traced run).
    pub swap_build_ms: Vec<f64>,
    /// Packets the swaps carried across.
    pub swap_pkts: Vec<f64>,
    /// Encoded checkpoint size, bytes.
    pub ckpt_bytes: Vec<f64>,
    /// Exact counts from the last compile repetition, summed over inputs.
    pub counts: chain::ChainCounts,
    /// Heap allocations and bytes per forwarded packet in steady state
    /// (traced run).
    pub allocs_per_pkt: (f64, f64),
    /// Calibration-kernel windows from every round, ns per step.
    pub ref_ns: Vec<f64>,
    /// The span recorder.
    pub tracer: Tracer,
}

struct Live {
    path: Box<dyn Path>,
    source: RouterGraph,
    installed: RouterGraph,
}

/// The installed router. It is absent only inside
/// [`Runner::setup_phase`], between dropping one incarnation (which joins
/// its threads) and building the next.
fn up(live: &mut Option<Live>) -> &mut Live {
    live.as_mut()
        .expect("a router is installed between set-ups")
}

fn build_path(spec: &Spec, graph: &RouterGraph, ifaces: usize) -> Result<Box<dyn Path>> {
    Ok(match (spec.path, spec.engine) {
        (PathKind::Inject, Engine::Dyn) => Box::new(
            Inject::<Box<dyn click_elements::Element>>::new(graph, ifaces, false)?,
        ),
        (PathKind::Inject, Engine::Compiled) => {
            Box::new(Inject::<FastElement>::new(graph, ifaces, true)?)
        }
        (PathKind::Wire, Engine::Compiled) => {
            Box::new(Wire::<FastElement>::new(graph, ifaces, true)?)
        }
        (PathKind::Sharded, Engine::Compiled) => {
            Box::new(Sharded::new::<FastElement>(graph, ifaces, true)?)
        }
        (path, engine) => {
            return Err(Error::runtime(format!(
                "no workload runs {path:?} on {engine:?}"
            )))
        }
    })
}

/// Generated configuration text → engine ready: parse, the optimizer
/// chain if the workload's engine is the compiled one, engine build (and
/// thread spawn), one warm pass so lazy tables and pools exist.
fn set_up(spec: &Spec, text: &str, ifaces: usize, warm: &[Frame]) -> Result<(Live, usize)> {
    let source = read_config(text)?;
    let mut installed = source.clone();
    if spec.engine == Engine::Compiled {
        chain::optimize(
            &mut installed,
            &Library::standard(),
            &mut Tracer::new(false),
            0,
        )?;
    }
    let mut path = build_path(spec, &installed, ifaces)?;
    path.feed(warm);
    path.settle();
    let delivered = path.drain_count();
    Ok((
        Live {
            path,
            source,
            installed,
        },
        delivered,
    ))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Where run-time files (checkpoints, traces, results) go: `out/` beside
/// the benchmark's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Runner<'a> {
    spec: &'a Spec,
    inputs: Vec<(Input, String)>,
    frames: Vec<Frame>,
    pos: usize,
    live: Option<Live>,
    alternate: RouterGraph,
    /// Configuration text of the installed and the alternate artifact
    /// (what a checkpoint cut after a swap to either must carry).
    texts: [String; 2],
    on_alternate: bool,
    store: CheckpointStore,
    injected: u64,
    iter_id: u32,
    control_balance: f64,
    lat_window: Vec<f64>,
    ref_windows: Windows,
    traced: bool,
    m: Measured,
}

impl Runner<'_> {
    /// Sets the router up again from its text, in place of the running
    /// one, until `budget` is spent (once at least). Every phase leaves
    /// the set-up configuration installed, so the new incarnation takes
    /// over where the old one stood. Repeating the set-up in every round
    /// rather than in one stretch keeps a slow phase of the host from
    /// landing on all of `setup_s`'s repetitions at once.
    fn setup_phase(&mut self, budget: Duration) -> Result<()> {
        let (own, text) = &self.inputs[0];
        let start = Instant::now();
        loop {
            drop(self.live.take()); // joins its threads before the clock starts
            let t = Instant::now();
            let (live, delivered) = set_up(self.spec, text, own.plan.ifaces, &self.frames[..ITER])?;
            self.m.setup_s.push(t.elapsed().as_secs_f64());
            self.m.tally.frames(ITER, delivered);
            self.live = Some(live);
            if start.elapsed() >= budget {
                return Ok(());
            }
        }
    }

    /// One closed-loop iteration: [`ITER`] frames fed, settled, drained.
    /// Returns the nanoseconds the feed-settle-drain took.
    fn forward_iter(&mut self) -> u64 {
        let it = self.iter_id;
        self.iter_id += 1;
        let tr = &mut self.m.tracer;
        let root = tr.begin("iter", NO_PARENT, it);
        let s = tr.begin("gen", root.slot, it);
        let batch = &self.frames[self.pos..self.pos + ITER];
        self.pos = (self.pos + ITER) % self.frames.len();
        tr.end(s, ITER as u32);
        let t0 = Instant::now();
        let s = tr.begin("rx", root.slot, it);
        up(&mut self.live).path.feed(batch);
        tr.end(s, ITER as u32);
        let s = tr.begin("run", root.slot, it);
        up(&mut self.live).path.settle();
        tr.end(s, ITER as u32);
        let s = tr.begin("tx", root.slot, it);
        let n = up(&mut self.live).path.drain_count();
        tr.end(s, n as u32);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = tr.begin("sink", root.slot, it);
        self.injected += ITER as u64;
        self.m.tally.frames(ITER, n);
        tr.end(s, n as u32);
        tr.end(root, n as u32);
        ns
    }

    /// Empties the calling thread's packet pool and runs one untimed
    /// iteration to fill it again from the allocator.
    ///
    /// The pool is a LIFO that transmit order permutes on every
    /// iteration, so which buffer a packet gets — and with it the memory
    /// access pattern — drifts as a process ages; left alone, `ip_all`
    /// was seen to sit for seconds at 210–270 ns/pkt and then return to
    /// 140 (same binary, same seed), while runs that emptied the pool
    /// every 250 ms stayed at 140. Starting every window from a freshly
    /// filled pool makes each window a sample of the same state instead
    /// of a sample of wherever the drift happens to be.
    fn refill_pool(&mut self) {
        click_elements::packet::drain_pool();
        let on = self.m.tracer.is_on();
        self.m.tracer.set_on(false);
        self.forward_iter();
        self.m.tracer.set_on(on);
    }

    fn forward_phase(&mut self, budget: Duration) {
        let start = Instant::now();
        let mut plain = Windows::new(WINDOW_NS);
        let mut traced = Windows::new(WINDOW_NS);
        let mut since_churn = 0;
        let mut fresh_window = true;
        while start.elapsed() < budget {
            if fresh_window {
                self.refill_pool();
            }
            // The traced run alternates traced and untraced windows, so
            // both see the same host and their difference is the
            // tracing overhead.
            let tracing =
                self.traced && (plain.samples.len() + traced.samples.len()).is_multiple_of(2);
            self.m.tracer.set_on(tracing);
            let ns = self.forward_iter();
            fresh_window = if tracing { &mut traced } else { &mut plain }.add(ns, ITER as u64);
            since_churn += 1;
            if self.spec.churn && since_churn == CHURN_EVERY {
                since_churn = 0;
                self.m.tracer.set_on(self.traced);
                self.reoptimize();
                self.swap();
                self.checkpoint();
            }
        }
        self.m.tracer.set_on(self.traced);
        self.back_to_installed();
        plain.finish();
        traced.finish();
        self.m.fwd_ns.extend(plain.samples);
        self.m.fwd_traced_ns.extend(traced.samples);
    }

    /// Open loop at [`RATE_PPS`]: frames are handed over when due,
    /// whatever the system is doing, and each frame's latency runs from
    /// its due time to when the harness sees it transmitted.
    fn latency_phase(&mut self, budget: Duration) {
        let sched = Schedule::at_rate(RATE_PPS);
        let budget_ns = budget.as_nanos() as u64;
        let mut batch: Vec<Frame> = Vec::with_capacity(ITER);
        // The window in progress is carried from round to round, so a
        // round shorter than a window still contributes to one.
        let mut window = std::mem::take(&mut self.lat_window);
        let (mut next, mut seen) = (0u64, 0u64);
        let start = Instant::now();
        loop {
            let now = start.elapsed().as_nanos() as u64;
            let stop = now >= budget_ns;
            if !stop {
                let due = sched.due_by(now).min(next + ITER as u64);
                batch.clear();
                for k in next..due {
                    let mut f = self.frames[k as usize % self.frames.len()].clone();
                    f.stamp(k as u32);
                    self.m.lateness.record(sched.due_ns(k), now);
                    batch.push(f);
                }
                next = due;
                up(&mut self.live).path.feed(&batch);
                up(&mut self.live).path.poll();
            } else {
                up(&mut self.live).path.settle();
            }
            let seen_ns = start.elapsed().as_nanos() as u64;
            seen += up(&mut self.live).path.drain_into(&mut |_, bytes| {
                if let Some(k) = seq_of(bytes) {
                    let lat = seen_ns.saturating_sub(sched.due_ns(u64::from(k)));
                    window.push(lat as f64 / 1e3);
                }
            }) as u64;
            if window.len() >= LAT_WINDOW {
                self.close_latency_window(&mut window);
            }
            if stop {
                break;
            }
        }
        self.lat_window = window;
        self.injected += next;
        self.m.tally.frames(next as usize, seen as usize);
    }

    fn close_latency_window(&mut self, window: &mut Vec<f64>) {
        window.sort_by(f64::total_cmp);
        self.m.lat_p50_us.push(percentile(window, 0.50));
        self.m.lat_p99_us.push(percentile(window, 0.99));
        window.clear();
    }

    fn reoptimize(&mut self) {
        let s = self
            .m
            .tracer
            .begin("reopt.compile", NO_PARENT, self.iter_id);
        let t = Instant::now();
        let r = optimize_pipeline(&up(&mut self.live).source);
        self.m.reopt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.m.tracer.end(s, 0);
        self.m.tally.op(r, "optimize_pipeline");
    }

    /// One `hot_swap` between traffic, alternating the two artifacts.
    fn swap(&mut self) {
        let live = up(&mut self.live);
        let target = if self.on_alternate {
            &live.installed
        } else {
            &self.alternate
        };
        if self.traced {
            // The engine build inside every swap, timed on its own (the
            // built engine is dropped after the clock stops).
            let lib = Library::standard();
            let t = Instant::now();
            let built: Result<Box<dyn std::any::Any>> = match self.spec.engine {
                Engine::Dyn => DynRouter::from_graph(target, &lib).map(|r| Box::new(r) as _),
                Engine::Compiled => {
                    CompiledRouter::from_graph(target, &lib).map(|r| Box::new(r) as _)
                }
            };
            self.m.swap_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.m.tally.op(built, "from_graph");
        }
        let s = self.m.tracer.begin("swap", NO_PARENT, self.iter_id);
        let t = Instant::now();
        let r = live.path.swap(target);
        self.m.swap_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.m.tracer.end(s, 0);
        if let Some(report) = self.m.tally.op(r, "hot_swap") {
            self.m.swap_pkts.push(report.packets_transferred as f64);
            self.on_alternate = !self.on_alternate;
        }
    }

    /// One checkpoint, made with the calls `CheckpointDaemon::checkpoint_now`
    /// makes — snapshot, build, encode, fsync'd save — so that the cut
    /// and the save can be timed apart. `ckpt_cut_us` is the cut: the
    /// time until the engine's state is out of the engine and encoded.
    /// The save that follows is nine tenths of a Figure-1 checkpoint
    /// (680 of 760 µs) and times the host's disk: with it inside,
    /// `ckpt_cut_us` spread 12–27 % between runs of one commit, more than
    /// the widest bound there is. It is still made every time, and timed
    /// on its own (`elements.persist.save_us`).
    fn checkpoint(&mut self) {
        let tx = self.injected - self.m.tally.failed.min(self.injected);
        let it = self.iter_id;
        let tr = &mut self.m.tracer;
        let root = tr.begin("cut", NO_PARENT, it);
        let t = Instant::now();
        let s = tr.begin("cut.snapshot", root.slot, it);
        let snap = up(&mut self.live).path.snapshot();
        tr.end(s, 0);
        let Some(snap) = self.m.tally.op(snap, "checkpoint snapshot") else {
            return;
        };
        let config = self.texts[usize::from(self.on_alternate)].clone();
        let ckpt = Checkpoint {
            generation: self.store.next_generation(),
            config_hash: config_hash(&config),
            config,
            ledger: CheckpointLedger {
                injected: self.injected,
                tx,
                drops: snap.total_drops,
            },
            quiesce_ns: snap.quiesce_ns,
            elements: snap.elements,
            devices: snap.devices,
        };
        let s = tr.begin("cut.encode", root.slot, it);
        let bytes = ckpt.encode().len();
        tr.end(s, 0);
        self.m.ckpt_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.m.ckpt_bytes.push(bytes as f64);
        let s = tr.begin("cut.save", root.slot, it);
        let saved = self.store.save(&ckpt);
        tr.end(s, 0);
        tr.end(root, 0);
        self.m.tally.op(saved, "checkpoint save");
    }

    /// The whole chain over every input of the workload; one repetition
    /// of `compile_s`.
    fn compile_all(&mut self) {
        let it = self.iter_id;
        let t = Instant::now();
        let outputs: Vec<_> = self
            .inputs
            .iter()
            .map(|(_, text)| chain::compile(text, &mut self.m.tracer, it))
            .collect();
        self.m.compile_s.push(t.elapsed().as_secs_f64());
        self.m.counts = chain::ChainCounts::default();
        for out in outputs {
            if let Some((_, _, counts)) = self.m.tally.op(out, "compile") {
                self.m.counts.add(counts);
            }
        }
    }

    /// Compile, swap and checkpoint cycles. One cycle of a big
    /// configuration can outlast a round's budget, so the budget is kept
    /// as a running balance: a round that overspent is paid for by the
    /// next ones starting fewer cycles. The first cycle always runs, so
    /// every metric has at least one repetition.
    fn control_phase(&mut self, budget: Duration) {
        self.control_balance += budget.as_secs_f64();
        while self.control_balance > 0.0 || self.m.compile_s.is_empty() {
            let t = Instant::now();
            self.compile_all();
            // Swaps and cuts ride along at a tenth of the compile's cost:
            // one pair beside a millisecond compile, some thirty beside
            // `toolchain`'s second, so they too have a fast decile.
            let compiled = t.elapsed();
            let pairs = Instant::now();
            loop {
                self.forward_iter();
                self.swap();
                self.forward_iter();
                self.checkpoint();
                if pairs.elapsed() * 10 >= compiled {
                    break;
                }
            }
            self.control_balance -= t.elapsed().as_secs_f64();
        }
        self.back_to_installed();
    }

    /// Phases always start on the configuration the router was set up
    /// with, whichever artifact the last swap left installed.
    fn back_to_installed(&mut self) {
        if self.on_alternate {
            self.swap();
        }
    }

    /// Times the calibration kernel for `budget`: a dependent
    /// multiply-add-shift chain whose time per step is a fixed number of
    /// cycles, so it reads the host's effective clock — the clock it was
    /// granted, after frequency changes and stolen time. The window in
    /// progress carries over to the next round.
    fn calibrate(&mut self, budget: Duration) {
        let start = Instant::now();
        let mut x = u64::from(self.iter_id);
        while start.elapsed() < budget {
            let t = Instant::now();
            for _ in 0..REF_STEPS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            self.ref_windows
                .add(t.elapsed().as_nanos() as u64, REF_STEPS);
        }
        std::hint::black_box(x);
    }

    /// Exact heap allocations per forwarded packet over 64 steady-state
    /// iterations.
    fn count_allocations(&mut self) {
        self.m.tracer.set_on(false);
        for _ in 0..8 {
            self.forward_iter();
        }
        let before = crate::alloc::start_counting();
        for _ in 0..64 {
            self.forward_iter();
        }
        let (allocs, bytes) = crate::alloc::stop_counting(before);
        let pkts = (64 * ITER) as f64;
        self.m.allocs_per_pkt = (allocs as f64 / pkts, bytes as f64 / pkts);
        self.m.tracer.set_on(self.traced);
    }
}

/// Checks one compiled output against the oracle: forwards the input's
/// whole trace through `router` and judges every egress frame.
fn verify_through(
    path: &mut dyn Path,
    frames: &[Frame],
    oracle: &Oracle,
    tally: &mut Tally,
) -> bool {
    const BASE: u32 = 0x4000_0000;
    let mut v = Verifier::new(oracle, frames, BASE);
    let before = path.ledger();
    let mut delivered = 0u64;
    for (i, chunk) in frames.chunks(ITER).enumerate() {
        let batch: Vec<Frame> = chunk
            .iter()
            .enumerate()
            .map(|(j, f)| {
                let mut f = f.clone();
                f.stamp(BASE + (i * ITER + j) as u32);
                f
            })
            .collect();
        path.feed(&batch);
        path.settle();
        delivered += path.drain_into(&mut |iface, bytes| v.see(iface, bytes)) as u64;
    }
    let after = path.ledger();
    tally.attempted += frames.len() as u64;
    tally.failed += v.failed();
    // The system's own books must balance: every frame offered was
    // transmitted or is in its drop gauge, and no device op was retried.
    let ledger_ok = frames.len() as u64 == delivered + (after.drops - before.drops)
        && after.retries == before.retries;
    if v.failed() > 0 || v.bad > 0 || !ledger_ok {
        eprintln!(
            "click-spine: verification: {} of {} frames wrong or missing, {} unexpected, ledger {}",
            v.failed(),
            frames.len(),
            v.bad,
            if ledger_ok { "exact" } else { "BROKEN" }
        );
        if let Some(bad) = &v.first_bad {
            eprintln!("click-spine: first bad frame: {bad}");
        }
    }
    v.failed() == 0 && v.bad == 0 && ledger_ok
}

/// Runs one workload for `seconds` of measuring time.
///
/// `quick` sets the router up once instead of again in every round and
/// is otherwise the same code; its numbers are not comparable with a full
/// run's.
///
/// # Errors
///
/// Only failures that leave nothing to measure: the generated
/// configuration does not parse or build, or the output directory cannot
/// be created.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, quick: bool) -> Result<Measured> {
    let mut rng = Rng::new(seed);
    let generated: Vec<(Input, String)> = inputs(spec, &mut rng)
        .into_iter()
        .map(|i| {
            let text = i.plan.config_text();
            (i, text)
        })
        .collect();
    let (own, own_text) = &generated[0];
    let frames = trace(&own.plan, &mut rng, own.flows, own.trace_len);
    assert_eq!(
        frames.len() % ITER,
        0,
        "trace is a whole number of iterations"
    );
    let mut tally = Tally::default();
    let mut correct = true;

    // The first set-up; every round repeats it (`Runner::setup_phase`).
    let t = Instant::now();
    let (mut live, delivered) = set_up(spec, own_text, own.plan.ifaces, &frames[..ITER])?;
    let setup_s = vec![t.elapsed().as_secs_f64()];
    tally.frames(ITER, delivered);

    // One full verification pass before any timing.
    correct &= verify_through(
        &mut *live.path,
        &frames,
        &Oracle::new(&own.plan),
        &mut tally,
    );

    // Every compile input's output must pass `check` (inside `compile`)
    // and forward a probe trace exactly as the oracle says.
    for (input, text) in &generated {
        let compiled = chain::compile(text, &mut Tracer::new(false), 0);
        let Some((graph, _, _)) = tally.op(compiled, input.name) else {
            correct = false;
            continue;
        };
        let probe = trace(&input.plan, &mut rng, input.flows.min(ITER), ITER);
        let built = Inject::<FastElement>::new(&graph, input.plan.ifaces, true);
        match tally.op(built, input.name) {
            Some(mut p) => {
                correct &= verify_through(&mut p, &probe, &Oracle::new(&input.plan), &mut tally)
            }
            None => correct = false,
        }
    }

    let alternate = match spec.engine {
        Engine::Dyn => live.source.clone(),
        Engine::Compiled => optimize_pipeline(&live.source)?,
    };
    let store_dir = out_dir().join(format!("ckpt.{}.{}", spec.name, std::process::id()));
    let store = CheckpointStore::open(&store_dir, 2)?;
    let texts = [write_config(&live.installed), write_config(&alternate)];

    let mut r = Runner {
        spec,
        inputs: generated,
        frames,
        pos: 0,
        live: Some(live),
        alternate,
        texts,
        on_alternate: false,
        store,
        injected: 0,
        iter_id: 0,
        control_balance: 0.0,
        lat_window: Vec::with_capacity(LAT_WINDOW + ITER),
        ref_windows: Windows::new(WINDOW_NS),
        traced,
        m: Measured {
            tally,
            correct,
            setup_s,
            fwd_ns: Vec::new(),
            fwd_traced_ns: Vec::new(),
            lat_p50_us: Vec::new(),
            lat_p99_us: Vec::new(),
            lateness: Lateness::default(),
            compile_s: Vec::new(),
            swap_us: Vec::new(),
            ckpt_us: Vec::new(),
            reopt_ms: Vec::new(),
            swap_build_ms: Vec::new(),
            swap_pkts: Vec::new(),
            ckpt_bytes: Vec::new(),
            counts: chain::ChainCounts::default(),
            allocs_per_pkt: (f64::NAN, f64::NAN),
            ref_ns: Vec::new(),
            tracer: Tracer::new(traced),
        },
    };
    if traced {
        r.reoptimize();
    }
    let part = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    for _ in 0..ROUNDS {
        r.calibrate(part(REF_SHARE));
        if !quick {
            r.setup_phase(SETUP_FLOOR / ROUNDS as u32)?;
        }
        r.forward_phase(part(spec.shares.forward));
        r.latency_phase(part(spec.shares.latency));
        r.control_phase(part(spec.shares.control));
    }
    // The last latency window counts if it is at least half full.
    let mut tail = std::mem::take(&mut r.lat_window);
    if tail.len() * 2 >= LAT_WINDOW {
        r.close_latency_window(&mut tail);
    }
    r.ref_windows.finish();
    r.m.ref_ns = std::mem::take(&mut r.ref_windows.samples);
    if traced {
        r.count_allocations();
    }
    let Runner { live, mut m, .. } = r;
    drop(live);
    let _ = std::fs::remove_dir_all(&store_dir);
    m.correct &= m.tally.failed == 0;
    Ok(m)
}

/// How fast the host ran during a run: the calibration kernel's time per
/// step over [`REF_NOMINAL_NS`]. 1.1 means the host's effective clock was
/// 10 % slower than the nominal one. The value (fast decile of the
/// kernel's windows) is what end-to-end times are divided by; the median
/// is printed beside it.
///
/// The pipeline host's effective clock differs by ±10 % from one run to
/// the next, and every timing follows it: wall-clock `ns_per_pkt` spread
/// 7.5–14.6 % over 10 runs of each workload and `compile_s` 9.8–14.9 %;
/// divided by this factor, 1.7–6.1 % and 1.8–8.3 % (every row in
/// `README.md`; fsync-bound `ckpt_cut_us` and memory-bound `compile_s` on
/// 100 000 routes narrow too). No bound the contract allows holds on the
/// wall-clock values, so end-to-end times are reported in
/// calibration-kernel steps. The kernel and every metric are sampled in
/// every round and both by their fast decile, so both sides of the
/// division saw the same host.
pub fn host_speed(m: &Measured) -> Summary {
    Summary::fast(&m.ref_ns).scaled(1.0 / REF_NOMINAL_NS)
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order: every
/// time divided by the host's speed, memory as read.
pub fn end_to_end(m: &Measured, peak_rss_mb: f64) -> Vec<Metric> {
    let speed = host_speed(m).value;
    let fast = |samples: &[f64]| Summary::fast(samples).scaled(1.0 / speed);
    vec![
        Metric::new("ns_per_pkt", "ns", fast(&m.fwd_ns)),
        Metric::new("lat_p50_us", "us", fast(&m.lat_p50_us)),
        Metric::new("setup_s", "s", fast(&m.setup_s)),
        Metric::new("compile_s", "s", fast(&m.compile_s)),
        Metric::new("swap_pause_us", "us", fast(&m.swap_us)),
        Metric::new("ckpt_cut_us", "us", fast(&m.ckpt_us)),
        Metric::new("peak_rss_mb", "MB", Summary::exact(peak_rss_mb)),
    ]
}
