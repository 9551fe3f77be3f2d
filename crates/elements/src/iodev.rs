//! Real packet I/O: pluggable device backends and their supervision.
//!
//! The simulated [`DeviceBank`](crate::router::DeviceBank) queues stay the
//! interface the elements see; a [`DeviceBackend`] slots *underneath* a
//! named device and moves frames between those queues and the outside
//! world (a pcap trace, a UDP socket, a Linux tap or raw-packet device).
//! Every backend is wrapped in a [`SupervisedDevice`], which turns I/O
//! failure into a first-class, accounted event instead of a panic or a
//! silent stall:
//!
//! - a typed [`IoFault`] taxonomy (`WouldBlock` / `Truncated` / `Down` /
//!   `Wedged` / `Corrupt`),
//! - bounded retry with exponential backoff and a per-operation deadline
//!   ([`RetryPolicy`]),
//! - a per-device health state machine `Up -> Flapping -> Down ->
//!   Recovering` driven by an error-rate window ([`HealthPolicy`]),
//! - graceful degradation when a device dies: RX stops cleanly, pending
//!   TX is flushed within a drain deadline or counted as lost, so
//!   `injected == tx + drops` stays exact,
//! - automatic re-open with a budget, mirroring the shard supervisor's
//!   Restart/Degrade policy.
//!
//! Backends are named by URL-ish schemes in the device name itself
//! (`pcap:trace.pcap`, `udp:127.0.0.1:9000>127.0.0.1:9001`, `tap:click0`,
//! `raw:eth0`, `mem:loop`, `fault:DOWN-AFTER 100@mem:loop`), so a plain
//! Click configuration selects real I/O with no new syntax; scheme-less
//! device names keep the simulated in-memory behavior.

use crate::elements::fault;
use crate::packet::{Packet, TxFrame};
use crate::telemetry::DeviceGauges;
use click_core::error::{Error, Result};
use click_core::Lcg;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest frame any backend will accept or deliver; a pcap record that
/// claims more than this is corrupt, not huge.
pub const MAX_FRAME: usize = 256 * 1024;

// ---------------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------------

/// A typed I/O fault surfaced by a [`DeviceBackend`].
///
/// The taxonomy is the contract between backends and the supervision
/// layer: backends classify, [`SupervisedDevice`] decides (retry, back
/// off, flap, declare down, drop with accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFault {
    /// Transient: nothing to receive right now, or the TX ring is full.
    /// Retry later; only a storm of these is a health signal.
    WouldBlock,
    /// A frame was cut short on the wire or in a capture file; the bytes
    /// read are unusable but the next operation may succeed.
    Truncated {
        /// Bytes the frame claimed to hold.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The device is gone: closed descriptor, unplugged interface, failed
    /// socket. Only a successful re-open recovers.
    Down(String),
    /// The device accepts operations but makes no progress (a stuck TX
    /// queue). Treated like `Down` by the state machine, but reported
    /// distinctly so the gauges can tell the stories apart.
    Wedged,
    /// The device returned bytes that fail the backend's own integrity
    /// check (bad pcap record header, impossible length).
    Corrupt(String),
}

impl IoFault {
    /// True for faults a bounded retry may clear without a re-open.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IoFault::WouldBlock | IoFault::Truncated { .. } | IoFault::Corrupt(_)
        )
    }

    /// True for faults that force the health state machine to `Down`.
    pub fn is_hard(&self) -> bool {
        matches!(self, IoFault::Down(_) | IoFault::Wedged)
    }
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFault::WouldBlock => write!(f, "operation would block"),
            IoFault::Truncated { expected, got } => {
                write!(f, "short read: expected {expected} bytes, got {got}")
            }
            IoFault::Down(reason) => write!(f, "device down: {reason}"),
            IoFault::Wedged => write!(f, "device wedged (no forward progress)"),
            IoFault::Corrupt(reason) => write!(f, "corrupt frame: {reason}"),
        }
    }
}

/// Result alias for backend operations.
pub type IoResult<T> = std::result::Result<T, IoFault>;

// ---------------------------------------------------------------------------
// The backend trait
// ---------------------------------------------------------------------------

/// A packet source/sink underneath one named device.
///
/// Backends are deliberately dumb: they move frames and classify
/// failures into [`IoFault`]s. Retry, backoff, health, and loss
/// accounting all live in [`SupervisedDevice`], so every backend gets the
/// same robustness for free.
pub trait DeviceBackend: Send + fmt::Debug {
    /// Short scheme name (`"pcap"`, `"udp"`, `"tap"`, `"raw"`, `"mem"`,
    /// `"fault"`).
    fn kind(&self) -> &'static str;
    /// Receives one frame. `Ok(None)` means the source is exhausted for
    /// good (end of a capture file); `Err(WouldBlock)` means nothing is
    /// available *right now*.
    fn recv(&mut self) -> IoResult<Option<Packet>>;
    /// Transmits one frame.
    fn send(&mut self, frame: &[u8]) -> IoResult<()>;
    /// Appends up to `max` received frames to `into`. Returns how many,
    /// and the first [`DeviceBackend::recv`] outcome that was not a frame
    /// (`Ok(())` for an exhausted source) if one ended the burst early.
    /// The default makes one `recv` per frame.
    fn recv_burst(
        &mut self,
        max: usize,
        into: &mut VecDeque<Packet>,
    ) -> (usize, Option<IoResult<()>>) {
        for n in 0..max {
            match self.recv() {
                Ok(Some(p)) => into.push_back(p),
                Ok(None) => return (n, Some(Ok(()))),
                Err(fault) => return (n, Some(Err(fault))),
            }
        }
        (max, None)
    }
    /// Transmits packets from the front of `q`, in order, taking each one
    /// it sends. Returns how many, and the fault that stopped it; the
    /// packet that met the fault is still at the front of `q`. The
    /// default makes one `send` per packet.
    fn send_burst(&mut self, q: &mut VecDeque<Packet>) -> (usize, Option<IoFault>) {
        send_each(q, |frame| self.send(frame))
    }
    /// Attempts to bring a `Down` device back (re-open the file,
    /// re-create the socket, re-plug the tap).
    fn reopen(&mut self) -> IoResult<()>;
    /// True once `recv` can never yield another frame.
    fn exhausted(&self) -> bool {
        false
    }
}

/// Hands `send` the packets at the front of `q` until one faults; that
/// packet stays in `q`, the ones sent are recycled.
fn send_each(
    q: &mut VecDeque<Packet>,
    mut send: impl FnMut(&[u8]) -> IoResult<()>,
) -> (usize, Option<IoFault>) {
    let mut n = 0;
    while let Some(p) = q.pop_front() {
        if let Err(fault) = send(p.data()) {
            q.push_front(p);
            return (n, Some(fault));
        }
        n += 1;
    }
    (n, None)
}

// ---------------------------------------------------------------------------
// Policies and health
// ---------------------------------------------------------------------------

/// Bounded-retry knobs applied to each backend operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt of one operation.
    pub max_retries: u32,
    /// First backoff sleep between retries, microseconds. Doubles per
    /// retry up to [`RetryPolicy::backoff_max_us`].
    pub backoff_base_us: u64,
    /// Backoff cap, microseconds.
    pub backoff_max_us: u64,
    /// Total wall-clock budget for one operation including backoffs,
    /// microseconds, counted from its first failed attempt (a send that
    /// succeeds at once reads no clock). The op fails over to the health
    /// machinery when the deadline passes even if retries remain.
    pub op_deadline_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 50,
            backoff_max_us: 5_000,
            op_deadline_us: 20_000,
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: u32) -> Duration {
        let us = self
            .backoff_base_us
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_max_us);
        Duration::from_micros(us)
    }
}

/// Health state machine knobs: when errors flap a device, when they take
/// it down, and what recovery costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failed operations that move `Up -> Flapping`.
    pub flap_threshold: u32,
    /// Sliding error window length in operations (clamped to 64).
    pub window: u32,
    /// Errors inside the window that declare the device `Down`.
    pub down_errors: u32,
    /// Consecutive successful operations that return `Flapping` or
    /// `Recovering` to `Up`.
    pub recovery_ops: u32,
    /// Re-open attempts allowed while `Down` before the device is
    /// abandoned (stays `Down`, pending TX becomes loss).
    pub reopen_budget: u32,
    /// Microseconds pending TX may wait on a blocked or down device
    /// before the drain deadline declares the frames lost.
    pub drain_deadline_us: u64,
    /// First sleep before a re-open attempt, microseconds (doubles per
    /// failed attempt).
    pub reopen_backoff_us: u64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            flap_threshold: 3,
            window: 32,
            down_errors: 8,
            recovery_ops: 4,
            reopen_budget: 8,
            drain_deadline_us: 50_000,
            reopen_backoff_us: 100,
        }
    }
}

/// Per-device health, driven by the error-rate window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Operating normally.
    Up,
    /// Errors above the flap threshold but below the down threshold.
    Flapping,
    /// Hard fault or error rate past the window threshold; only re-open
    /// recovers.
    Down,
    /// Re-opened; probing back toward `Up`.
    Recovering,
}

impl DeviceHealth {
    /// Lower-case label used by gauges and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceHealth::Up => "up",
            DeviceHealth::Flapping => "flapping",
            DeviceHealth::Down => "down",
            DeviceHealth::Recovering => "recovering",
        }
    }
}

/// What became of one packet handed to [`SupervisedDevice::send_pkt`].
#[derive(Debug)]
pub enum SendOutcome {
    /// Delivered to the backend; the packet was recycled.
    Sent,
    /// Could not be delivered now; the caller keeps it queued (the drain
    /// deadline is running).
    Pending(Packet),
    /// Declared lost (counted in `drain_lost`); the packet was recycled.
    Lost,
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// A backend wrapped in retry, backoff, health, and loss accounting.
#[derive(Debug)]
pub struct SupervisedDevice {
    backend: Box<dyn DeviceBackend>,
    retry: RetryPolicy,
    policy: HealthPolicy,
    health: DeviceHealth,
    /// Sliding error window: one bit per recent operation, 1 = error.
    window_bits: u64,
    window_len: u32,
    consec_errors: u32,
    consec_ok: u32,
    reopen_attempts: u32,
    next_reopen_at: Option<Instant>,
    tx_blocked_since: Option<Instant>,
    gauges: DeviceGauges,
    /// Storage for the one-packet burst behind `send_pkt`.
    one: VecDeque<Packet>,
}

impl SupervisedDevice {
    /// Wraps a backend with default policies.
    pub fn new(backend: Box<dyn DeviceBackend>) -> SupervisedDevice {
        SupervisedDevice::with_policies(backend, RetryPolicy::default(), HealthPolicy::default())
    }

    /// Wraps a backend with explicit retry and health policies.
    pub fn with_policies(
        backend: Box<dyn DeviceBackend>,
        retry: RetryPolicy,
        policy: HealthPolicy,
    ) -> SupervisedDevice {
        let gauges = DeviceGauges {
            backend: backend.kind().to_string(),
            ..DeviceGauges::default()
        };
        SupervisedDevice {
            backend,
            retry,
            policy,
            health: DeviceHealth::Up,
            window_bits: 0,
            window_len: 0,
            consec_errors: 0,
            consec_ok: 0,
            reopen_attempts: 0,
            next_reopen_at: None,
            tx_blocked_since: None,
            gauges,
            one: VecDeque::new(),
        }
    }

    /// Current health.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// True once the re-open budget is spent while `Down`.
    pub fn abandoned(&self) -> bool {
        self.health == DeviceHealth::Down && self.reopen_attempts >= self.policy.reopen_budget
    }

    /// True once the backend can never deliver another frame.
    pub fn exhausted(&self) -> bool {
        self.backend.exhausted()
    }

    /// Gauge snapshot; the owner fills `device` with the bank's name.
    pub fn gauges(&self) -> DeviceGauges {
        let mut g = self.gauges.clone();
        g.health = self.health.as_str().to_string();
        g
    }

    /// Frames this device has declared lost (drain deadline, abandonment).
    pub fn lost(&self) -> u64 {
        self.gauges.drain_lost
    }

    /// Direct access to the wrapped backend (tests, tools).
    pub fn backend_mut(&mut self) -> &mut dyn DeviceBackend {
        &mut *self.backend
    }

    /// Advances time-driven supervision: while `Down`, attempts a
    /// budgeted, backed-off re-open. Called once per pump round even when
    /// no traffic moves.
    pub fn tick(&mut self) {
        if self.health != DeviceHealth::Down || self.abandoned() {
            return;
        }
        let due = self.next_reopen_at.is_none_or(|t| Instant::now() >= t);
        if !due {
            return;
        }
        self.reopen_attempts += 1;
        match self.backend.reopen() {
            Ok(()) => {
                self.gauges.reopens += 1;
                self.health = DeviceHealth::Recovering;
                self.window_bits = 0;
                self.window_len = 0;
                self.consec_errors = 0;
                self.consec_ok = 0;
                self.next_reopen_at = None;
                // The re-opened device gets a fresh drain deadline.
                self.tx_blocked_since = None;
            }
            Err(_) => {
                self.gauges.retries += 1;
                let us = self
                    .policy
                    .reopen_backoff_us
                    .saturating_mul(1u64 << self.reopen_attempts.min(16))
                    .min(self.retry.backoff_max_us.max(self.policy.reopen_backoff_us));
                self.next_reopen_at = Some(Instant::now() + Duration::from_micros(us));
            }
        }
    }

    /// Receives one frame under supervision. `None` means "nothing now":
    /// empty poll, exhausted trace, or a device that is down.
    pub fn recv(&mut self) -> Option<Packet> {
        if !self.rx_ready() {
            return None;
        }
        let mut attempts = 0;
        loop {
            let stop = match self.backend.recv() {
                Ok(Some(p)) => {
                    self.rx_frame(&p);
                    return Some(p);
                }
                Ok(None) => Ok(()),
                Err(fault) => Err(fault),
            };
            if !self.rx_retry(stop, &mut attempts) {
                return None;
            }
        }
    }

    /// Receives up to `max` frames under supervision, appending them to
    /// `into`; returns how many. Frame for frame what that many
    /// [`SupervisedDevice::recv`] calls do, ending at the first `None`.
    pub fn recv_burst(&mut self, max: usize, into: &mut VecDeque<Packet>) -> usize {
        if !self.rx_ready() {
            return 0;
        }
        let (mut got, mut attempts) = (0, 0);
        while got < max {
            let (n, stop) = self.backend.recv_burst(max - got, into);
            for p in into.range(into.len() - n..) {
                self.rx_frame(p);
            }
            got += n;
            if n > 0 {
                attempts = 0;
            }
            if stop.is_some_and(|stop| !self.rx_retry(stop, &mut attempts)) {
                break;
            }
        }
        got
    }

    /// The gate of an RX poll: a device that is down (and stays so after
    /// a tick) or exhausted is not asked.
    fn rx_ready(&mut self) -> bool {
        if self.health == DeviceHealth::Down {
            self.tick();
        }
        self.health != DeviceHealth::Down && !self.backend.exhausted()
    }

    fn rx_frame(&mut self, p: &Packet) {
        self.gauges.rx_packets += 1;
        self.gauges.rx_bytes += p.len() as u64;
        self.record_ok();
    }

    /// Accounts the outcome that ended an RX poll without a frame; true
    /// if the poll is to be retried, `attempts` counting the retries
    /// spent on the frame being waited for.
    fn rx_retry(&mut self, stop: IoResult<()>, attempts: &mut u32) -> bool {
        match stop {
            Ok(()) => {
                self.record_ok();
                return false;
            }
            Err(IoFault::WouldBlock) => {
                // An empty RX poll is normal, not an error: do not
                // spin or sleep on an idle device.
                self.gauges.would_blocks += 1;
                return false;
            }
            Err(IoFault::Truncated { .. }) => {
                self.gauges.short_reads += 1;
                self.record_err();
            }
            Err(IoFault::Corrupt(_)) => {
                self.gauges.corrupt_drops += 1;
                self.record_err();
            }
            Err(fault) => {
                debug_assert!(fault.is_hard());
                self.go_down();
                return false;
            }
        }
        if self.health == DeviceHealth::Down || *attempts >= self.retry.max_retries {
            return false;
        }
        *attempts += 1;
        self.gauges.retries += 1;
        true
    }

    /// Transmits one packet under supervision, retrying transient faults
    /// with exponential backoff inside the operation deadline.
    pub fn send_pkt(&mut self, p: Packet) -> SendOutcome {
        let mut one = std::mem::take(&mut self.one);
        one.push_back(p);
        let (sent, _) = self.send_burst(&mut one);
        let outcome = match one.pop_front() {
            Some(p) => SendOutcome::Pending(p),
            None if sent == 1 => SendOutcome::Sent,
            None => SendOutcome::Lost,
        };
        self.one = one;
        outcome
    }

    /// Transmits packets from the front of `q` under supervision, each as
    /// [`SupervisedDevice::send_pkt`] would; returns `(sent, lost)`. What
    /// stays in `q` could not be delivered now: the caller keeps it
    /// queued (the drain deadline is running).
    pub fn send_burst(&mut self, q: &mut VecDeque<Packet>) -> (usize, u64) {
        let (mut sent, mut lost) = (0, 0);
        // Retry state of the packet at the front of `q`. Its op deadline
        // runs from the first failed attempt: a send that succeeds at
        // once (the steady state) never reads the clock.
        let mut started: Option<Instant> = None;
        let mut attempts = 0u32;
        while !q.is_empty() {
            if attempts == 0 && self.health == DeviceHealth::Down {
                self.tick();
                if self.health == DeviceHealth::Down {
                    if !self.lose_front(q) {
                        break;
                    }
                    lost += 1;
                    continue;
                }
            }
            let offered: usize = q.iter().map(Packet::len).sum();
            let (n, fault) = self.backend.send_burst(q);
            let left: usize = q.iter().map(Packet::len).sum();
            self.gauges.tx_bytes += (offered - left) as u64;
            for _ in 0..n {
                self.gauges.tx_packets += 1;
                self.record_ok();
            }
            sent += n;
            if n > 0 {
                self.tx_blocked_since = None;
                (attempts, started) = (0, None);
            }
            let retry = fault.is_some()
                && attempts < self.retry.max_retries
                && started.get_or_insert_with(Instant::now).elapsed()
                    < Duration::from_micros(self.retry.op_deadline_us);
            let front_lost = match fault {
                None => continue,
                Some(IoFault::WouldBlock) => {
                    self.gauges.would_blocks += 1;
                    if retry {
                        attempts += 1;
                        self.gauges.retries += 1;
                        self.gauges.backoffs += 1;
                        std::thread::sleep(self.retry.backoff(attempts - 1));
                        continue;
                    }
                    // The op failed despite retries: that is an error
                    // signal (an EAGAIN storm).
                    self.record_err();
                    false
                }
                Some(IoFault::Truncated { .. }) => {
                    self.gauges.short_reads += 1;
                    self.record_err();
                    // As on RX, a device this error has just taken down
                    // is not retried: the packets behind the front one
                    // must meet the `Down` check above first.
                    if retry && self.health != DeviceHealth::Down {
                        attempts += 1;
                        self.gauges.retries += 1;
                        continue;
                    }
                    false
                }
                Some(IoFault::Corrupt(_)) => {
                    // The backend rejected the frame itself: retrying the
                    // same bytes cannot succeed. Accounted loss.
                    self.gauges.corrupt_drops += 1;
                    self.record_err();
                    self.drop_front(q);
                    true
                }
                Some(fault) => {
                    debug_assert!(fault.is_hard());
                    self.go_down();
                    self.lose_front(q)
                }
            };
            if !front_lost {
                // The front packet stays queued, the drain deadline runs.
                self.tx_blocked_since.get_or_insert_with(Instant::now);
                break;
            }
            lost += 1;
            (attempts, started) = (0, None);
        }
        (sent, lost)
    }

    /// True when pending TX for this device should be declared lost: the
    /// drain deadline expired while blocked, or the device was abandoned.
    pub fn should_drop_pending(&self) -> bool {
        if self.abandoned() {
            return true;
        }
        self.tx_blocked_since
            .is_some_and(|t| t.elapsed() >= Duration::from_micros(self.policy.drain_deadline_us))
    }

    /// Records `n` pending frames dropped by the owner after
    /// [`SupervisedDevice::should_drop_pending`] fired.
    pub fn count_drain_lost(&mut self, n: u64) {
        self.gauges.drain_lost += n;
        self.tx_blocked_since = None;
    }

    /// Declares the packet at the front of `q` lost and drops it.
    fn drop_front(&mut self, q: &mut VecDeque<Packet>) {
        self.gauges.drain_lost += 1;
        q.pop_front();
    }

    /// The front packet of `q` on a device that is down: lost (true) if
    /// pending TX should be dropped, else parked under the drain deadline.
    fn lose_front(&mut self, q: &mut VecDeque<Packet>) -> bool {
        let lose = self.should_drop_pending();
        if lose {
            self.drop_front(q);
            self.tx_blocked_since = None;
        } else {
            self.tx_blocked_since.get_or_insert_with(Instant::now);
        }
        lose
    }

    fn window_cap(&self) -> u32 {
        self.policy.window.clamp(1, 64)
    }

    fn window_errors(&self) -> u32 {
        self.window_bits.count_ones()
    }

    fn window_push(&mut self, err: bool) {
        let cap = self.window_cap();
        self.window_bits = (self.window_bits << 1) | u64::from(err);
        if cap < 64 {
            self.window_bits &= (1u64 << cap) - 1;
        }
        self.window_len = (self.window_len + 1).min(cap);
    }

    fn record_ok(&mut self) {
        self.window_push(false);
        self.consec_errors = 0;
        self.consec_ok = self.consec_ok.saturating_add(1);
        match self.health {
            DeviceHealth::Flapping | DeviceHealth::Recovering
                if self.consec_ok >= self.policy.recovery_ops =>
            {
                self.health = DeviceHealth::Up;
                self.reopen_attempts = 0;
            }
            _ => {}
        }
    }

    fn record_err(&mut self) {
        self.window_push(true);
        self.consec_ok = 0;
        self.consec_errors = self.consec_errors.saturating_add(1);
        match self.health {
            DeviceHealth::Up => {
                if self.consec_errors >= self.policy.flap_threshold
                    || self.window_errors() >= self.policy.down_errors
                {
                    self.health = DeviceHealth::Flapping;
                    self.gauges.flaps += 1;
                }
            }
            DeviceHealth::Flapping | DeviceHealth::Recovering => {
                if self.window_errors() >= self.policy.down_errors {
                    self.set_down();
                }
            }
            DeviceHealth::Down => {}
        }
    }

    fn go_down(&mut self) {
        self.gauges.down_events += 1;
        if self.health == DeviceHealth::Up {
            self.gauges.flaps += 1;
        }
        self.set_down();
    }

    fn set_down(&mut self) {
        if self.health != DeviceHealth::Down {
            self.health = DeviceHealth::Down;
            self.reopen_attempts = 0;
            self.next_reopen_at =
                Some(Instant::now() + Duration::from_micros(self.policy.reopen_backoff_us));
            if self.tx_blocked_since.is_none() {
                self.tx_blocked_since = Some(Instant::now());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backend schemes
// ---------------------------------------------------------------------------

/// Device-name schemes the runtime can open.
///
/// `click_core::check` keeps a copy of this list (core cannot depend on
/// this crate); a test here asserts the two stay identical.
pub const BACKEND_SCHEMES: &[&str] = &["mem", "pcap", "udp", "tap", "raw", "fault"];

/// Returns the backend scheme of a device name (`udp:...` -> `udp`), or
/// `None` for plain simulated device names like `eth0`.
pub fn backend_scheme(device: &str) -> Option<&str> {
    let idx = device.find(':')?;
    let scheme = &device[..idx];
    if !scheme.is_empty() && scheme.bytes().all(|b| b.is_ascii_alphabetic()) {
        Some(scheme)
    } else {
        None
    }
}

/// Opens a backend from a scheme-bearing device name.
///
/// | spec | backend |
/// |---|---|
/// | `mem:NAME` | in-memory echo loopback (TX re-appears on RX) |
/// | `pcap:IN` / `pcap:IN>OUT` | replay `IN`, optionally record TX to `OUT` |
/// | `udp:BIND` / `udp:BIND>PEER` | nonblocking UDP socket |
/// | `tap:NAME` | Linux tap device (x86_64, raw syscalls) |
/// | `raw:IFACE` | Linux `AF_PACKET` raw socket bound to `IFACE` |
/// | `fault:CLAUSES@INNER` | deterministic fault shim over `INNER` |
///
/// # Errors
///
/// Unknown schemes, malformed specs, and failed opens return
/// [`Error::Runtime`].
pub fn open_backend(spec: &str) -> Result<Box<dyn DeviceBackend>> {
    let scheme = backend_scheme(spec)
        .ok_or_else(|| Error::runtime(format!("device `{spec}` has no backend scheme")))?;
    let rest = &spec[scheme.len() + 1..];
    match scheme {
        "mem" => Ok(Box::new(MemBackend::echo())),
        "pcap" => {
            let (input, output) = match rest.split_once('>') {
                Some((i, o)) => (i, Some(o)),
                None => (rest, None),
            };
            if input.is_empty() {
                return Err(Error::runtime(
                    "pcap backend needs an input file: pcap:FILE",
                ));
            }
            Ok(Box::new(PcapBackend::open(input, output)?))
        }
        "udp" => {
            let (bind, peer) = match rest.split_once('>') {
                Some((b, p)) => (b, Some(p.to_string())),
                None => (rest, None),
            };
            if bind.is_empty() {
                return Err(Error::runtime(
                    "udp backend needs a bind address: udp:ADDR[>PEER]",
                ));
            }
            Ok(Box::new(UdpBackend::open(bind, peer)?))
        }
        "tap" => Ok(Box::new(TapBackend::open(rest)?)),
        "raw" => Ok(Box::new(RawSocketBackend::open(rest)?)),
        "fault" => {
            let (clauses, inner) = rest
                .split_once('@')
                .ok_or_else(|| Error::runtime("fault backend spec is fault:CLAUSES@INNER-SPEC"))?;
            let inner = open_backend(inner)?;
            Ok(Box::new(FaultInjectBackend::parse(clauses, inner)?))
        }
        other => Err(Error::runtime(format!(
            "unknown device backend scheme `{other}:` (known: {})",
            BACKEND_SCHEMES.join(", ")
        ))),
    }
}

// ---------------------------------------------------------------------------
// MemBackend: in-memory frames behind the backend interface
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemState {
    rx: VecDeque<Packet>,
    tx: Vec<TxFrame>,
    closed: bool,
}

impl MemState {
    fn check_open(&self) -> IoResult<()> {
        if self.closed {
            return Err(IoFault::Down("mem backend closed".to_string()));
        }
        Ok(())
    }
}

/// Shared handles onto a [`MemBackend`]'s queues, for tests and chaos
/// drivers that feed frames in and read transmitted frames out.
#[derive(Debug, Clone, Default)]
pub struct MemQueues {
    inner: Arc<Mutex<MemState>>,
}

impl MemQueues {
    fn state(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.inner
            .lock()
            .expect("no mem queue user panics while holding the lock")
    }

    /// Queues a frame for the backend to receive. The packet is built
    /// here, on the caller's side, so receiving it is a pop.
    pub fn push_rx(&self, frame: &[u8]) {
        let p = Packet::from_data(frame);
        self.state().rx.push_back(p);
    }

    /// Takes every frame the backend has transmitted so far. Each is the
    /// sent packet's own buffer, back in the packet pool once dropped.
    pub fn take_tx(&self) -> Vec<TxFrame> {
        let mut st = self.state();
        // The next list starts as large as this one grew: steady traffic
        // costs the reader this one vector per take and no regrowth.
        let next = Vec::with_capacity(st.tx.len());
        std::mem::replace(&mut st.tx, next)
    }

    /// Frames waiting to be received.
    pub fn rx_len(&self) -> usize {
        self.state().rx.len()
    }

    /// Frames transmitted since the last take.
    pub fn tx_len(&self) -> usize {
        self.state().tx.len()
    }

    /// Simulates unplugging: subsequent backend ops fail `Down` until a
    /// re-open.
    pub fn close(&self) {
        self.state().closed = true;
    }
}

/// An in-memory [`DeviceBackend`]: deterministic frames for tests, CI,
/// and as the inner device under [`FaultInjectBackend`].
#[derive(Debug)]
pub struct MemBackend {
    q: MemQueues,
    echo: bool,
}

impl MemBackend {
    /// A backend plus the shared handles that feed and drain it.
    pub fn with_handles() -> (MemBackend, MemQueues) {
        let q = MemQueues::default();
        (
            MemBackend {
                q: q.clone(),
                echo: false,
            },
            q,
        )
    }

    /// An echo loopback: transmitted frames re-appear on RX (the `mem:`
    /// scheme).
    pub fn echo() -> MemBackend {
        MemBackend {
            q: MemQueues::default(),
            echo: true,
        }
    }

    /// Hands transmitted packets to the far side: back onto RX as the
    /// wire would deliver them (echo), or to the reader's list.
    fn transmit(&self, st: &mut MemState, pkts: impl Iterator<Item = Packet>) {
        if self.echo {
            st.rx.extend(pkts.map(Packet::into_wire));
        } else {
            st.tx.extend(pkts.map(Packet::into_frame));
        }
    }
}

impl DeviceBackend for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        let mut st = self.q.state();
        st.check_open()?;
        st.rx.pop_front().map(Some).ok_or(IoFault::WouldBlock)
    }
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        let mut st = self.q.state();
        st.check_open()?;
        self.transmit(&mut st, std::iter::once(Packet::from_data(frame)));
        Ok(())
    }
    /// One lock for the whole burst.
    fn recv_burst(
        &mut self,
        max: usize,
        into: &mut VecDeque<Packet>,
    ) -> (usize, Option<IoResult<()>>) {
        let mut st = self.q.state();
        if let Err(fault) = st.check_open() {
            return (0, Some(Err(fault)));
        }
        let n = max.min(st.rx.len());
        into.extend(st.rx.drain(..n));
        (n, (n < max).then_some(Err(IoFault::WouldBlock)))
    }
    /// One lock for the whole burst, and each packet's buffer moves.
    fn send_burst(&mut self, q: &mut VecDeque<Packet>) -> (usize, Option<IoFault>) {
        let mut st = self.q.state();
        if let Err(fault) = st.check_open() {
            return (0, Some(fault));
        }
        let n = q.len();
        self.transmit(&mut st, q.drain(..));
        (n, None)
    }
    fn reopen(&mut self) -> IoResult<()> {
        self.q.state().closed = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pcap: classic capture files, read and written with no dependencies
// ---------------------------------------------------------------------------

const PCAP_MAGIC_US: u32 = 0xa1b2_c3d4;
const PCAP_MAGIC_NS: u32 = 0xa1b2_3c4d;

/// Writes a classic little-endian pcap file (linktype 1, Ethernet).
/// Timestamps are a deterministic frame counter, so two writes of the
/// same frames are bit-identical. Records are buffered: they are in the
/// file after [`PcapWriter::flush`] (or drop, which cannot report errors).
#[derive(Debug)]
pub struct PcapWriter {
    file: BufWriter<File>,
    frames: u32,
}

impl PcapWriter {
    /// Creates the file and writes the global header.
    pub fn create(path: impl Into<PathBuf>) -> Result<PcapWriter> {
        let path = path.into();
        let file = File::create(&path)
            .map_err(|e| Error::runtime(format!("pcap create {}: {e}", path.display())))?;
        let mut file = BufWriter::new(file);
        let mut hdr = Vec::with_capacity(24);
        hdr.extend_from_slice(&PCAP_MAGIC_US.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes()); // version major
        hdr.extend_from_slice(&4u16.to_le_bytes()); // version minor
        hdr.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        hdr.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        hdr.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes()); // snaplen
        hdr.extend_from_slice(&1u32.to_le_bytes()); // linktype: Ethernet
        file.write_all(&hdr)
            .map_err(|e| Error::runtime(format!("pcap header write: {e}")))?;
        Ok(PcapWriter { file, frames: 0 })
    }

    /// Appends one frame record.
    pub fn write_frame(&mut self, frame: &[u8]) -> Result<()> {
        let len = frame.len() as u32;
        let mut hdr = [0u8; 16];
        // ts_sec, ts_usec, incl_len, orig_len
        let fields = [self.frames / 1_000_000, self.frames % 1_000_000, len, len];
        for (at, v) in hdr.chunks_exact_mut(4).zip(fields) {
            at.copy_from_slice(&v.to_le_bytes());
        }
        self.frames += 1;
        self.file
            .write_all(&hdr)
            .and_then(|()| self.file.write_all(frame))
            .map_err(|e| Error::runtime(format!("pcap record write: {e}")))
    }

    /// Flushes to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| Error::runtime(format!("pcap flush: {e}")))
    }

    fn write_all(mut self, frames: &[Vec<u8>]) -> Result<()> {
        frames.iter().try_for_each(|f| self.write_frame(f))?;
        self.flush()
    }
}

/// Writes `frames` to `path` as a pcap file (test/tool convenience).
pub fn write_pcap(path: impl Into<PathBuf>, frames: &[Vec<u8>]) -> Result<()> {
    PcapWriter::create(path)?.write_all(frames)
}

/// Appends `frames` as records to an existing capture at `path`,
/// creating it (with a fresh global header) when it is missing or
/// empty. The appended records restart the deterministic timestamp
/// counter, so repeated identical appends stay bit-identical.
pub fn append_pcap(path: impl Into<PathBuf>, frames: &[Vec<u8>]) -> Result<()> {
    let path = path.into();
    let has_header = std::fs::metadata(&path).is_ok_and(|m| m.len() >= 24);
    if !has_header {
        return write_pcap(path, frames);
    }
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| Error::runtime(format!("pcap append {}: {e}", path.display())))?;
    let file = BufWriter::new(file);
    PcapWriter { file, frames: 0 }.write_all(frames)
}

/// Reads every frame of a pcap file into memory (tool convenience: the
/// crash drill feeds a trace frame-by-frame with an abort point, which
/// a streaming backend cannot express). Tolerates a trailing truncated
/// record — the frames before it are returned.
///
/// # Errors
///
/// [`Error::Runtime`] when the file cannot be opened or is not a pcap
/// capture.
pub fn read_pcap(path: impl Into<PathBuf>) -> Result<Vec<Vec<u8>>> {
    let path = path.into();
    let bytes = std::fs::read(&path)
        .map_err(|e| Error::runtime(format!("pcap read {}: {e}", path.display())))?;
    if bytes.len() < 24 {
        return Err(Error::runtime(format!(
            "{}: not a pcap file (too short)",
            path.display()
        )));
    }
    let swapped = pcap_swapped(&bytes, &path)?;
    let mut frames = Vec::new();
    let mut at = 24usize;
    while bytes.len() - at >= 16 {
        let incl = pcap_u32(swapped, &bytes, at + 8) as usize;
        at += 16;
        if bytes.len() - at < incl {
            break; // torn trailing record: keep what precedes it
        }
        frames.push(bytes[at..at + incl].to_vec());
        at += incl;
    }
    Ok(frames)
}

/// Replays a pcap file frame by frame; optionally records transmitted
/// frames to a second pcap file. The `pcap:` scheme backend.
#[derive(Debug)]
pub struct PcapBackend {
    path: PathBuf,
    file: Option<BufReader<File>>,
    /// Byte offset of the next unread record (survives re-open).
    offset: u64,
    swapped: bool,
    exhausted: bool,
    writer: Option<PcapWriter>,
}

impl PcapBackend {
    /// Opens `input` for replay; `output` (if given) records TX frames.
    pub fn open(input: &str, output: Option<&str>) -> Result<PcapBackend> {
        let path = PathBuf::from(input);
        let (file, swapped) = Self::open_and_check(&path)?;
        let writer = match output {
            Some(o) if !o.is_empty() => Some(PcapWriter::create(o)?),
            _ => None,
        };
        Ok(PcapBackend {
            path,
            file: Some(file),
            offset: 24,
            swapped,
            exhausted: false,
            writer,
        })
    }

    fn open_and_check(path: &PathBuf) -> Result<(BufReader<File>, bool)> {
        let file = File::open(path)
            .map_err(|e| Error::runtime(format!("pcap open {}: {e}", path.display())))?;
        let mut file = BufReader::new(file);
        let mut hdr = [0u8; 24];
        file.read_exact(&mut hdr)
            .map_err(|e| Error::runtime(format!("pcap {} header: {e}", path.display())))?;
        Ok((file, pcap_swapped(&hdr, path)?))
    }
}

/// Reads the byte order off a global header's magic: true if swapped.
fn pcap_swapped(hdr: &[u8], path: &std::path::Path) -> Result<bool> {
    match pcap_u32(false, hdr, 0) {
        PCAP_MAGIC_US | PCAP_MAGIC_NS => Ok(false),
        m if m.swap_bytes() == PCAP_MAGIC_US || m.swap_bytes() == PCAP_MAGIC_NS => Ok(true),
        m => Err(Error::runtime(format!(
            "{}: not a pcap file (magic {m:#010x})",
            path.display()
        ))),
    }
}

fn pcap_u32(swapped: bool, b: &[u8], i: usize) -> u32 {
    let raw = u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    if swapped {
        raw.swap_bytes()
    } else {
        raw
    }
}

/// Reads until `buf` is full or the source ends; returns the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> IoResult<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(IoFault::Down(format!("pcap read: {e}"))),
        }
    }
    Ok(got)
}

impl PcapBackend {
    /// Buffers one TX record; [`PcapBackend::flush`] puts it in the file.
    fn write(&mut self, frame: &[u8]) -> IoResult<()> {
        match self.writer.as_mut() {
            Some(w) => w
                .write_frame(frame)
                .map_err(|e| IoFault::Down(e.to_string())),
            // A replay-only pcap device quietly sinks TX, like replaying
            // a trace at a real interface nobody listens on.
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> IoResult<()> {
        let flushed = self.writer.as_mut().map_or(Ok(()), PcapWriter::flush);
        flushed.map_err(|e| IoFault::Down(e.to_string()))
    }
}

impl DeviceBackend for PcapBackend {
    fn kind(&self) -> &'static str {
        "pcap"
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        if self.exhausted {
            return Ok(None);
        }
        let Some(file) = self.file.as_mut() else {
            return Err(IoFault::Down("pcap file closed".to_string()));
        };
        let mut hdr = [0u8; 16];
        let got = read_full(file, &mut hdr)?;
        if got == 0 {
            // Clean end of trace.
            self.exhausted = true;
            return Ok(None);
        }
        if got < hdr.len() {
            // The file ends inside a record header; nothing more can
            // follow, so the next call reports clean exhaustion.
            self.exhausted = true;
            return Err(IoFault::Truncated {
                expected: hdr.len(),
                got,
            });
        }
        let incl_len = pcap_u32(self.swapped, &hdr, 8) as usize;
        if incl_len == 0 || incl_len > MAX_FRAME {
            self.exhausted = true;
            return Err(IoFault::Corrupt(format!(
                "pcap record claims {incl_len} bytes"
            )));
        }
        // The record's bytes land in the pool frame they leave in.
        let mut p = Packet::new(incl_len);
        let got = read_full(file, p.data_mut());
        if got != Ok(incl_len) {
            let got = got?;
            self.exhausted = true;
            return Err(IoFault::Truncated {
                expected: incl_len,
                got,
            });
        }
        self.offset += 16 + incl_len as u64;
        Ok(Some(p))
    }
    /// Outside a burst every frame sent is in the file.
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        self.write(frame)?;
        self.flush()
    }
    /// One flush, and so one write to the file, for the burst.
    fn send_burst(&mut self, q: &mut VecDeque<Packet>) -> (usize, Option<IoFault>) {
        let (n, fault) = send_each(q, |frame| self.write(frame));
        (n, fault.or(self.flush().err()))
    }
    fn reopen(&mut self) -> IoResult<()> {
        let (mut file, swapped) =
            Self::open_and_check(&self.path).map_err(|e| IoFault::Down(e.to_string()))?;
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| IoFault::Down(format!("pcap seek: {e}")))?;
        self.swapped = swapped;
        self.file = Some(file);
        self.exhausted = false;
        Ok(())
    }
    fn exhausted(&self) -> bool {
        self.exhausted
    }
}

// ---------------------------------------------------------------------------
// UdpBackend: frames over a nonblocking UDP socket
// ---------------------------------------------------------------------------

/// One Ethernet frame per UDP datagram over a nonblocking socket: the
/// `udp:BIND[>PEER]` scheme. Without a peer the device is receive-only.
#[derive(Debug)]
pub struct UdpBackend {
    bind: String,
    peer: Option<String>,
    /// `peer` as resolved by the last (re-)open: sends never resolve.
    peer_addr: Option<SocketAddr>,
    sock: Option<UdpSocket>,
    buf: Vec<u8>,
}

impl UdpBackend {
    /// Binds the socket and resolves the peer.
    pub fn open(bind: &str, peer: Option<String>) -> Result<UdpBackend> {
        let peer_addr = peer.as_deref().map(Self::resolve).transpose()?;
        let sock = Self::make_socket(bind)?;
        Ok(UdpBackend {
            bind: bind.to_string(),
            peer,
            peer_addr,
            sock: Some(sock),
            buf: vec![0u8; 65536],
        })
    }

    fn resolve(peer: &str) -> Result<SocketAddr> {
        let addr = peer
            .to_socket_addrs()
            .ok()
            .and_then(|mut found| found.next());
        addr.ok_or_else(|| Error::runtime(format!("udp peer `{peer}` does not resolve")))
    }

    fn make_socket(bind: &str) -> Result<UdpSocket> {
        let sock =
            UdpSocket::bind(bind).map_err(|e| Error::runtime(format!("udp bind {bind}: {e}")))?;
        sock.set_nonblocking(true)
            .map_err(|e| Error::runtime(format!("udp nonblocking: {e}")))?;
        Ok(sock)
    }
}

impl DeviceBackend for UdpBackend {
    fn kind(&self) -> &'static str {
        "udp"
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        let Some(sock) = self.sock.as_ref() else {
            return Err(IoFault::Down("udp socket closed".to_string()));
        };
        match sock.recv_from(&mut self.buf) {
            Ok((n, _)) => Ok(Some(Packet::from_data(&self.buf[..n]))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(IoFault::WouldBlock),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Err(IoFault::WouldBlock),
            Err(e) => {
                self.sock = None;
                Err(IoFault::Down(format!("udp recv: {e}")))
            }
        }
    }
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        let Some(peer) = self.peer_addr else {
            return Err(IoFault::Down("udp backend has no peer address".to_string()));
        };
        let Some(sock) = self.sock.as_ref() else {
            return Err(IoFault::Down("udp socket closed".to_string()));
        };
        match sock.send_to(frame, peer) {
            Ok(n) if n == frame.len() => Ok(()),
            Ok(n) => Err(IoFault::Truncated {
                expected: frame.len(),
                got: n,
            }),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(IoFault::WouldBlock),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Err(IoFault::WouldBlock),
            Err(e) => {
                self.sock = None;
                Err(IoFault::Down(format!("udp send: {e}")))
            }
        }
    }
    fn reopen(&mut self) -> IoResult<()> {
        let down = |e: Error| IoFault::Down(e.to_string());
        let peer = self.peer.as_deref().map(Self::resolve);
        self.peer_addr = peer.transpose().map_err(down)?;
        self.sock = Some(Self::make_socket(&self.bind).map_err(down)?);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Linux tap / raw-packet backends (raw syscalls, no libc)
// ---------------------------------------------------------------------------

/// Raw Linux syscall shims for the tap and `AF_PACKET` backends. The
/// workspace has no libc crate, so descriptor setup (ioctl, socket, bind,
/// connect) is done with inline-assembly syscalls; actual frame I/O goes
/// through `std::fs::File` over the raw descriptor, which already maps
/// `EAGAIN` to `ErrorKind::WouldBlock`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)] // raw syscalls: the workspace has no libc crate
pub mod sys {
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::fd::FromRawFd;

    const SYS_IOCTL: i64 = 16;
    const SYS_SOCKET: i64 = 41;
    const SYS_CONNECT: i64 = 42;
    const SYS_BIND: i64 = 49;
    const SYS_CLOSE: i64 = 3;

    const AF_INET: i64 = 2;
    const AF_PACKET: i64 = 17;
    const SOCK_DGRAM: i64 = 2;
    const SOCK_RAW: i64 = 3;
    const SOCK_NONBLOCK: i64 = 0x800;
    const IPPROTO_ICMP: i64 = 1;
    /// `ETH_P_ALL` in network byte order, as `socket(2)` wants it.
    const ETH_P_ALL_BE: i64 = 0x0300;

    const TUNSETIFF: i64 = 0x4004_54ca;
    const IFF_TAP: u16 = 0x0002;
    const IFF_NO_PI: u16 = 0x1000;

    const SIOCGIFFLAGS: i64 = 0x8913;
    const SIOCSIFFLAGS: i64 = 0x8914;
    const SIOCSIFADDR: i64 = 0x8916;
    const SIOCSIFNETMASK: i64 = 0x891c;
    const SIOCGIFINDEX: i64 = 0x8933;
    const IFF_UP: u16 = 0x0001;
    const IFF_RUNNING: u16 = 0x0040;

    unsafe fn syscall3(n: i64, a: i64, b: i64, c: i64) -> i64 {
        let ret: i64;
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// A 40-byte `struct ifreq`: 16-byte name + 24-byte union.
    fn ifreq(name: &str) -> io::Result<[u8; 40]> {
        let mut req = [0u8; 40];
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.len() > 15 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "interface name must be 1..=15 bytes",
            ));
        }
        req[..bytes.len()].copy_from_slice(bytes);
        Ok(req)
    }

    unsafe fn ioctl(fd: i64, req: i64, arg: *mut u8) -> io::Result<i64> {
        check(syscall3(SYS_IOCTL, fd, req, arg as i64))
    }

    fn close_fd(fd: i64) {
        unsafe {
            let _ = syscall3(SYS_CLOSE, fd, 0, 0);
        }
    }

    /// Opens `/dev/net/tun` nonblocking and attaches it to tap `name`
    /// (`IFF_TAP | IFF_NO_PI`: raw Ethernet frames, no packet-info
    /// header). Returns the tap as a `File`.
    pub fn tap_open(name: &str) -> io::Result<File> {
        use std::os::fd::AsRawFd;
        use std::os::unix::fs::OpenOptionsExt;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .custom_flags(0x800) // O_NONBLOCK
            .open("/dev/net/tun")?;
        let mut req = ifreq(name)?;
        req[16..18].copy_from_slice(&(IFF_TAP | IFF_NO_PI).to_ne_bytes());
        unsafe { ioctl(file.as_raw_fd() as i64, TUNSETIFF, req.as_mut_ptr())? };
        Ok(file)
    }

    /// Assigns `ip/prefix` to the host side of interface `name` and
    /// brings it up — what `ip addr add` + `ip link set up` would do.
    pub fn configure_iface(name: &str, ip: [u8; 4], prefix: u8) -> io::Result<()> {
        let fd = unsafe { check(syscall3(SYS_SOCKET, AF_INET, SOCK_DGRAM, 0))? };
        let result = (|| {
            // sockaddr_in lives in the ifreq union at offset 16.
            let mut addr_req = ifreq(name)?;
            addr_req[16..18].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            addr_req[20..24].copy_from_slice(&ip);
            unsafe { ioctl(fd, SIOCSIFADDR, addr_req.as_mut_ptr())? };

            let mask = if prefix >= 32 {
                u32::MAX
            } else {
                !(u32::MAX >> prefix)
            };
            let mut mask_req = ifreq(name)?;
            mask_req[16..18].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            mask_req[20..24].copy_from_slice(&mask.to_be_bytes());
            unsafe { ioctl(fd, SIOCSIFNETMASK, mask_req.as_mut_ptr())? };

            let mut flags_req = ifreq(name)?;
            unsafe { ioctl(fd, SIOCGIFFLAGS, flags_req.as_mut_ptr())? };
            let flags = u16::from_ne_bytes([flags_req[16], flags_req[17]]);
            let flags = flags | IFF_UP | IFF_RUNNING;
            flags_req[16..18].copy_from_slice(&flags.to_ne_bytes());
            unsafe { ioctl(fd, SIOCSIFFLAGS, flags_req.as_mut_ptr())? };
            Ok(())
        })();
        close_fd(fd);
        result
    }

    /// Opens a nonblocking `AF_PACKET` raw socket bound to `iface`,
    /// receiving every protocol (`ETH_P_ALL`).
    pub fn raw_socket(iface: &str) -> io::Result<File> {
        let fd = unsafe {
            check(syscall3(
                SYS_SOCKET,
                AF_PACKET,
                SOCK_RAW | SOCK_NONBLOCK,
                ETH_P_ALL_BE,
            ))?
        };
        let result = (|| {
            let mut req = ifreq(iface)?;
            unsafe { ioctl(fd, SIOCGIFINDEX, req.as_mut_ptr())? };
            let ifindex = i32::from_ne_bytes([req[16], req[17], req[18], req[19]]);

            // struct sockaddr_ll, 20 bytes.
            let mut sll = [0u8; 20];
            sll[0..2].copy_from_slice(&(AF_PACKET as u16).to_ne_bytes());
            sll[2..4].copy_from_slice(&(ETH_P_ALL_BE as u16).to_ne_bytes());
            sll[4..8].copy_from_slice(&ifindex.to_ne_bytes());
            unsafe { check(syscall3(SYS_BIND, fd, sll.as_ptr() as i64, 20))? };
            Ok(())
        })();
        match result {
            Ok(()) => Ok(unsafe { File::from_raw_fd(fd as i32) }),
            Err(e) => {
                close_fd(fd);
                Err(e)
            }
        }
    }

    /// Opens a nonblocking raw ICMP socket connected to `peer` (lets a
    /// test ping without a `ping` binary). Requires root.
    pub fn icmp_socket(peer: [u8; 4]) -> io::Result<File> {
        let fd = unsafe {
            check(syscall3(
                SYS_SOCKET,
                AF_INET,
                SOCK_RAW | SOCK_NONBLOCK,
                IPPROTO_ICMP,
            ))?
        };
        // struct sockaddr_in, 16 bytes.
        let mut sin = [0u8; 16];
        sin[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
        sin[4..8].copy_from_slice(&peer);
        let result = unsafe { check(syscall3(SYS_CONNECT, fd, sin.as_ptr() as i64, 16)) };
        match result {
            Ok(_) => Ok(unsafe { File::from_raw_fd(fd as i32) }),
            Err(e) => {
                close_fd(fd);
                Err(e)
            }
        }
    }
}

/// Shared read/write plumbing for file-descriptor backends (tap, raw).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fd_recv(file: &mut File, buf: &mut [u8], what: &str) -> IoResult<Option<Packet>> {
    match file.read(buf) {
        Ok(0) => Err(IoFault::Down(format!("{what} closed"))),
        Ok(n) => Ok(Some(Packet::from_data(&buf[..n]))),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(IoFault::WouldBlock),
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Err(IoFault::WouldBlock),
        Err(e) => Err(IoFault::Down(format!("{what} read: {e}"))),
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fd_send(file: &mut File, frame: &[u8], what: &str) -> IoResult<()> {
    match file.write(frame) {
        Ok(n) if n == frame.len() => Ok(()),
        Ok(n) => Err(IoFault::Truncated {
            expected: frame.len(),
            got: n,
        }),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(IoFault::WouldBlock),
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Err(IoFault::WouldBlock),
        Err(e) => Err(IoFault::Down(format!("{what} write: {e}"))),
    }
}

/// A Linux tap device: the kernel's side is a real network interface, our
/// side reads and writes raw Ethernet frames. The `tap:NAME` scheme.
#[derive(Debug)]
pub struct TapBackend {
    name: String,
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    file: Option<File>,
    buf: Vec<u8>,
}

impl TapBackend {
    /// Creates (or re-attaches) tap `name`. Requires root or
    /// `CAP_NET_ADMIN` plus a usable `/dev/net/tun`.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub fn open(name: &str) -> Result<TapBackend> {
        let file =
            sys::tap_open(name).map_err(|e| Error::runtime(format!("tap open {name}: {e}")))?;
        Ok(TapBackend {
            name: name.to_string(),
            file: Some(file),
            buf: vec![0u8; MAX_FRAME],
        })
    }

    /// Tap devices need Linux on x86_64 (raw-syscall shims).
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub fn open(name: &str) -> Result<TapBackend> {
        Err(Error::runtime(format!(
            "tap backend `{name}` requires linux/x86_64"
        )))
    }
}

impl DeviceBackend for TapBackend {
    fn kind(&self) -> &'static str {
        "tap"
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        let Some(file) = self.file.as_mut() else {
            return Err(IoFault::Down("tap closed".to_string()));
        };
        fd_recv(file, &mut self.buf, "tap")
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        let Some(file) = self.file.as_mut() else {
            return Err(IoFault::Down("tap closed".to_string()));
        };
        fd_send(file, frame, "tap")
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn reopen(&mut self) -> IoResult<()> {
        self.file =
            Some(sys::tap_open(&self.name).map_err(|e| IoFault::Down(format!("tap reopen: {e}")))?);
        Ok(())
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        Err(IoFault::Down(
            "tap unsupported on this platform".to_string(),
        ))
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn send(&mut self, _frame: &[u8]) -> IoResult<()> {
        Err(IoFault::Down(
            "tap unsupported on this platform".to_string(),
        ))
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn reopen(&mut self) -> IoResult<()> {
        Err(IoFault::Down(
            "tap unsupported on this platform".to_string(),
        ))
    }
}

/// An `AF_PACKET` raw socket bound to a real interface: every frame the
/// interface sees, sent frames injected directly. The `raw:IFACE` scheme.
#[derive(Debug)]
pub struct RawSocketBackend {
    iface: String,
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    file: Option<File>,
    buf: Vec<u8>,
}

impl RawSocketBackend {
    /// Binds to `iface`. Requires root or `CAP_NET_RAW`.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub fn open(iface: &str) -> Result<RawSocketBackend> {
        let file = sys::raw_socket(iface)
            .map_err(|e| Error::runtime(format!("raw socket {iface}: {e}")))?;
        Ok(RawSocketBackend {
            iface: iface.to_string(),
            file: Some(file),
            buf: vec![0u8; MAX_FRAME],
        })
    }

    /// Raw sockets need Linux on x86_64 (raw-syscall shims).
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub fn open(iface: &str) -> Result<RawSocketBackend> {
        Err(Error::runtime(format!(
            "raw backend `{iface}` requires linux/x86_64"
        )))
    }
}

impl DeviceBackend for RawSocketBackend {
    fn kind(&self) -> &'static str {
        "raw"
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        let Some(file) = self.file.as_mut() else {
            return Err(IoFault::Down("raw socket closed".to_string()));
        };
        fd_recv(file, &mut self.buf, "raw socket")
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        let Some(file) = self.file.as_mut() else {
            return Err(IoFault::Down("raw socket closed".to_string()));
        };
        fd_send(file, frame, "raw socket")
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn reopen(&mut self) -> IoResult<()> {
        self.file = Some(
            sys::raw_socket(&self.iface).map_err(|e| IoFault::Down(format!("raw reopen: {e}")))?,
        );
        Ok(())
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        Err(IoFault::Down(
            "raw unsupported on this platform".to_string(),
        ))
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn send(&mut self, _frame: &[u8]) -> IoResult<()> {
        Err(IoFault::Down(
            "raw unsupported on this platform".to_string(),
        ))
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn reopen(&mut self) -> IoResult<()> {
        Err(IoFault::Down(
            "raw unsupported on this platform".to_string(),
        ))
    }
}

// ---------------------------------------------------------------------------
// FaultInjectBackend: deterministic chaos without real NICs
// ---------------------------------------------------------------------------

/// A deterministic fault shim wrapped around any inner backend: the
/// device-level sibling of the `FaultInject` element, so chaos tests and
/// CI exercise every supervision transition without real hardware.
///
/// Clause language (the `fault:CLAUSES@INNER` scheme), tokenized as the
/// element's: `KEY value` clauses separated by commas and/or whitespace.
///
/// | clause | effect |
/// |---|---|
/// | `DROP p` | RX/TX frame silently lost on the wire with probability `p` |
/// | `TRUNCATE p` | RX frame cut short (`Truncated`) with probability `p` |
/// | `EAGAIN p` | operation fails `WouldBlock` with probability `p` |
/// | `STORM n` | each `EAGAIN` firing starts a storm of `n` consecutive blocks |
/// | `DOWN-AFTER n` | device goes hard `Down` after `n` operations |
/// | `DOWN-FOR n` | the first `n` re-open attempts are refused |
/// | `WEDGE-AFTER n` | TX wedges (`Wedged`) after `n` operations |
/// | `SEED n` | LCG seed (default 1) |
#[derive(Debug)]
pub struct FaultInjectBackend {
    inner: Box<dyn DeviceBackend>,
    drop_p: u64,
    trunc_p: u64,
    eagain_p: u64,
    storm: u32,
    storm_left: u32,
    down_after: Option<u64>,
    down_for: u32,
    reopens_refused: u32,
    wedge_after: Option<u64>,
    ops: u64,
    down: bool,
    wedged: bool,
    /// Steps by 1, as the `FaultInject` element's does.
    lcg: Lcg,
}

impl FaultInjectBackend {
    /// Parses the clause language; an empty string is a transparent shim
    /// (no faults) over `inner`.
    pub fn parse(clauses: &str, inner: Box<dyn DeviceBackend>) -> Result<FaultInjectBackend> {
        let mut fb = FaultInjectBackend {
            inner,
            drop_p: 0,
            trunc_p: 0,
            eagain_p: 0,
            storm: 1,
            storm_left: 0,
            down_after: None,
            down_for: 0,
            reopens_refused: 0,
            wedge_after: None,
            ops: 0,
            down: false,
            wedged: false,
            lcg: Lcg::with_increment(1, 1),
        };
        for (key, val) in fault::clauses(clauses) {
            let Some(val) = val else {
                return Err(Error::runtime(format!(
                    "fault clause `{key}` is missing its value"
                )));
            };
            let prob = |v: &str| fault::prob(v).map_err(Error::runtime);
            match key.to_ascii_uppercase().as_str() {
                "DROP" => fb.drop_p = prob(val)?,
                "TRUNCATE" => fb.trunc_p = prob(val)?,
                "EAGAIN" => fb.eagain_p = prob(val)?,
                "STORM" => fb.storm = int(val)? as u32,
                "DOWN-AFTER" => fb.down_after = Some(int(val)?),
                "DOWN-FOR" => fb.down_for = int(val)? as u32,
                "WEDGE-AFTER" => fb.wedge_after = Some(int(val)?),
                "SEED" => fb.lcg = Lcg::with_increment(int(val)?, 1),
                other => {
                    return Err(Error::runtime(format!(
                        "unknown fault clause `{other}` (known: DROP, TRUNCATE, EAGAIN, \
                         STORM, DOWN-AFTER, DOWN-FOR, WEDGE-AFTER, SEED)"
                    )))
                }
            }
        }
        Ok(fb)
    }

    fn roll(&mut self, p: u64) -> bool {
        if p == 0 {
            return false;
        }
        u64::from((self.lcg.step() >> 32) as u32) < p
    }

    /// Counts an op; returns the hard fault the op must fail with, if any.
    fn op_faults(&mut self) -> Option<IoFault> {
        if self.down {
            return Some(IoFault::Down("injected fault: device down".to_string()));
        }
        if self.storm_left > 0 {
            self.storm_left -= 1;
            return Some(IoFault::WouldBlock);
        }
        self.ops += 1;
        if let Some(n) = self.down_after {
            if self.ops >= n {
                self.down = true;
                return Some(IoFault::Down("injected fault: DOWN-AFTER".to_string()));
            }
        }
        if self.roll(self.eagain_p) {
            self.storm_left = self.storm.saturating_sub(1);
            return Some(IoFault::WouldBlock);
        }
        None
    }
}

fn int(s: &str) -> Result<u64> {
    s.parse()
        .map_err(|_| Error::runtime(format!("bad integer `{s}`")))
}

impl DeviceBackend for FaultInjectBackend {
    fn kind(&self) -> &'static str {
        "fault"
    }
    fn recv(&mut self) -> IoResult<Option<Packet>> {
        if let Some(f) = self.op_faults() {
            return Err(f);
        }
        loop {
            match self.inner.recv()? {
                Some(p) => {
                    if self.roll(self.drop_p) {
                        // Lost on the wire before we ever saw it.
                        continue;
                    }
                    if self.roll(self.trunc_p) {
                        let expected = p.len();
                        let got = expected / 2;
                        return Err(IoFault::Truncated { expected, got });
                    }
                    return Ok(Some(p));
                }
                None => return Ok(None),
            }
        }
    }
    fn send(&mut self, frame: &[u8]) -> IoResult<()> {
        if self.wedged {
            return Err(IoFault::Wedged);
        }
        if let Some(f) = self.op_faults() {
            return Err(f);
        }
        if let Some(n) = self.wedge_after {
            if self.ops >= n {
                self.wedged = true;
                return Err(IoFault::Wedged);
            }
        }
        if self.roll(self.drop_p) {
            // Lost on the wire after a successful send: the sender
            // cannot tell, so this is a success here.
            return Ok(());
        }
        self.inner.send(frame)
    }
    fn reopen(&mut self) -> IoResult<()> {
        if self.down || self.wedged {
            if self.reopens_refused < self.down_for {
                self.reopens_refused += 1;
                return Err(IoFault::Down("injected fault: reopen refused".to_string()));
            }
            self.inner.reopen()?;
            self.down = false;
            self.wedged = false;
            // One-shot triggers: a recovered device stays recovered.
            self.down_after = None;
            self.wedge_after = None;
            self.reopens_refused = 0;
            return Ok(());
        }
        self.inner.reopen()
    }
    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

// ---------------------------------------------------------------------------
// Pump statistics
// ---------------------------------------------------------------------------

/// What one pump round moved between backends and device queues.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PumpStats {
    /// Frames received from backends into RX queues.
    pub rx: usize,
    /// Frames delivered from TX queues to backends.
    pub tx: usize,
    /// TX frames declared lost (drain deadline, abandoned device).
    pub lost: u64,
}

impl PumpStats {
    /// Folds another round's stats into this one.
    pub fn absorb(&mut self, other: PumpStats) {
        self.rx += other.rx;
        self.tx += other.tx;
        self.lost += other.lost;
    }

    /// True if the round moved nothing at all.
    pub fn idle(&self) -> bool {
        self.rx == 0 && self.tx == 0 && self.lost == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8, len: usize) -> Vec<u8> {
        let mut f = vec![0u8; len];
        f[0] = tag;
        f
    }

    /// Tight policies so tests run fast and deterministically.
    fn fast_policies() -> (RetryPolicy, HealthPolicy) {
        (
            RetryPolicy {
                max_retries: 2,
                backoff_base_us: 1,
                backoff_max_us: 4,
                op_deadline_us: 10_000,
            },
            HealthPolicy {
                flap_threshold: 2,
                window: 16,
                down_errors: 6,
                recovery_ops: 2,
                reopen_budget: 4,
                drain_deadline_us: 1_000,
                reopen_backoff_us: 1,
            },
        )
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(backend_scheme("udp:127.0.0.1:9000"), Some("udp"));
        assert_eq!(backend_scheme("pcap:t.pcap"), Some("pcap"));
        assert_eq!(backend_scheme("fault:DROP 0.5@mem:x"), Some("fault"));
        assert_eq!(backend_scheme("eth0"), None);
        assert_eq!(backend_scheme("127.0.0.1:9000"), None);
        assert_eq!(backend_scheme(":oops"), None);
    }

    #[test]
    fn open_backend_rejects_unknown_scheme() {
        let err = open_backend("ring:foo").unwrap_err();
        assert!(err.to_string().contains("unknown device backend scheme"));
        assert!(open_backend("pcap:").is_err());
        assert!(open_backend("udp:").is_err());
        assert!(open_backend("fault:DROP 0.5").is_err(), "missing @inner");
    }

    #[test]
    fn mem_backend_round_trip() {
        let (mut be, q) = MemBackend::with_handles();
        q.push_rx(&frame(1, 60));
        let p = be.recv().unwrap().unwrap();
        assert_eq!(p.data()[0], 1);
        assert_eq!(be.recv().unwrap_err(), IoFault::WouldBlock);
        be.send(&frame(2, 40)).unwrap();
        assert_eq!(q.take_tx(), vec![frame(2, 40)]);
        q.close();
        assert!(matches!(be.recv(), Err(IoFault::Down(_))));
        be.reopen().unwrap();
        assert_eq!(be.recv().unwrap_err(), IoFault::WouldBlock);
    }

    #[test]
    fn mem_echo_loops_tx_to_rx() {
        let mut be = MemBackend::echo();
        be.send(&frame(7, 20)).unwrap();
        let p = be.recv().unwrap().unwrap();
        assert_eq!(p.data()[0], 7);
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("click-iodev-{}-{tag}.pcap", std::process::id()));
        p
    }

    #[test]
    fn pcap_write_then_replay() {
        let path = tmp_path("roundtrip");
        let frames: Vec<Vec<u8>> = (0..5).map(|i| frame(i as u8, 60 + i)).collect();
        write_pcap(&path, &frames).unwrap();
        let mut be = PcapBackend::open(path.to_str().unwrap(), None).unwrap();
        for f in &frames {
            let p = be.recv().unwrap().unwrap();
            assert_eq!(p.data(), &f[..]);
        }
        assert_eq!(be.recv().unwrap(), None);
        assert!(be.exhausted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pcap_truncated_record_is_typed() {
        let path = tmp_path("trunc");
        write_pcap(&path, &[frame(1, 64)]).unwrap();
        // Chop the last 10 bytes off the only record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut be = PcapBackend::open(path.to_str().unwrap(), None).unwrap();
        assert!(matches!(be.recv(), Err(IoFault::Truncated { .. })));
        assert_eq!(be.recv().unwrap(), None, "truncated tail ends the trace");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pcap_rejects_garbage() {
        let path = tmp_path("garbage");
        std::fs::write(&path, b"this is not a capture file at all").unwrap();
        assert!(PcapBackend::open(path.to_str().unwrap(), None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pcap_reopen_resumes_at_offset() {
        let path = tmp_path("resume");
        let frames: Vec<Vec<u8>> = (0..4).map(|i| frame(i as u8, 60)).collect();
        write_pcap(&path, &frames).unwrap();
        let mut be = PcapBackend::open(path.to_str().unwrap(), None).unwrap();
        let p = be.recv().unwrap().unwrap();
        assert_eq!(p.data()[0], 0);
        be.reopen().unwrap();
        let p = be.recv().unwrap().unwrap();
        assert_eq!(p.data()[0], 1, "reopen resumes, not restarts");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn udp_backend_loopback() {
        // Bind both ends on ephemeral ports, then wire them together.
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = probe.local_addr().unwrap();
        let mut be = UdpBackend::open("127.0.0.1:0", Some(peer_addr.to_string())).unwrap();
        let be_addr = be.sock.as_ref().unwrap().local_addr().unwrap();

        assert_eq!(be.recv().unwrap_err(), IoFault::WouldBlock);
        be.send(&frame(9, 80)).unwrap();
        let mut buf = [0u8; 256];
        probe
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (n, _) = probe.recv_from(&mut buf).unwrap();
        assert_eq!(n, 80);
        assert_eq!(buf[0], 9);

        probe.send_to(&frame(4, 33), be_addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match be.recv() {
                Ok(Some(p)) => {
                    assert_eq!(p.len(), 33);
                    assert_eq!(p.data()[0], 4);
                    break;
                }
                Ok(None) => panic!("udp backend never exhausts"),
                Err(IoFault::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("udp recv: {e}"),
            }
        }
    }

    #[test]
    fn udp_peer_is_resolved_at_open() {
        // No resolver lookup on the packet path, and no device that opens
        // fine only to die on its first send.
        let err = open_backend("udp:127.0.0.1:0>not an address").unwrap_err();
        assert!(err.to_string().contains("`not an address`"), "{err}");
    }

    #[test]
    fn fault_clause_parsing() {
        let inner = Box::new(MemBackend::echo());
        let fb = FaultInjectBackend::parse(
            "DROP 0.25 EAGAIN 0.5 STORM 4 DOWN-AFTER 100 DOWN-FOR 2 SEED 7",
            inner,
        )
        .unwrap();
        assert_eq!(fb.drop_p, (0.25 * fault::PROB_ONE as f64) as u64);
        assert_eq!(fb.storm, 4);
        assert_eq!(fb.down_after, Some(100));
        assert_eq!(fb.down_for, 2);
        assert_eq!(fb.lcg.state(), 7);
        let inner = Box::new(MemBackend::echo());
        assert!(FaultInjectBackend::parse("BOGUS 1", inner).is_err());
        let inner = Box::new(MemBackend::echo());
        assert!(FaultInjectBackend::parse("DROP", inner).is_err());
    }

    #[test]
    fn fault_down_after_and_recovery() {
        let (inner, q) = MemBackend::with_handles();
        let mut fb = FaultInjectBackend::parse("DOWN-AFTER 3 DOWN-FOR 2", Box::new(inner)).unwrap();
        q.push_rx(&frame(0, 60));
        q.push_rx(&frame(1, 60));
        fb.recv().unwrap().unwrap(); // op 1
        fb.recv().unwrap().unwrap(); // op 2
        assert!(matches!(fb.recv(), Err(IoFault::Down(_)))); // op 3: dies
        assert!(matches!(fb.recv(), Err(IoFault::Down(_))));
        // First two reopens refused, third succeeds.
        assert!(fb.reopen().is_err());
        assert!(fb.reopen().is_err());
        fb.reopen().unwrap();
        q.push_rx(&frame(2, 60));
        let p = fb.recv().unwrap().unwrap();
        assert_eq!(p.data()[0], 2);
    }

    #[test]
    fn fault_eagain_storm_blocks_consecutively() {
        let (inner, q) = MemBackend::with_handles();
        q.push_rx(&frame(1, 60));
        let mut fb = FaultInjectBackend::parse("EAGAIN 1 STORM 3", Box::new(inner)).unwrap();
        // Every op rolls EAGAIN; each roll starts a storm of 3.
        for _ in 0..3 {
            assert_eq!(fb.recv().unwrap_err(), IoFault::WouldBlock);
        }
        // Storm over; next op rolls EAGAIN again (p = 1.0).
        assert_eq!(fb.recv().unwrap_err(), IoFault::WouldBlock);
    }

    #[test]
    fn supervised_flap_down_recover_cycle() {
        let (inner, q) = MemBackend::with_handles();
        let fb = FaultInjectBackend::parse("DOWN-AFTER 3 DOWN-FOR 1", Box::new(inner)).unwrap();
        let (retry, health) = fast_policies();
        let mut sup = SupervisedDevice::with_policies(Box::new(fb), retry, health);
        for i in 0..2 {
            q.push_rx(&frame(i, 60));
        }
        assert!(sup.recv().is_some());
        assert!(sup.recv().is_some());
        assert_eq!(sup.health(), DeviceHealth::Up);
        // Third op injects Down.
        assert!(sup.recv().is_none());
        assert_eq!(sup.health(), DeviceHealth::Down);
        let g = sup.gauges();
        assert_eq!(g.down_events, 1);
        assert_eq!(g.flaps, 1);
        // Ticks retry the reopen: first refused, then accepted.
        let deadline = Instant::now() + Duration::from_secs(2);
        while sup.health() == DeviceHealth::Down && Instant::now() < deadline {
            sup.tick();
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(sup.health(), DeviceHealth::Recovering);
        assert_eq!(sup.gauges().reopens, 1);
        // Successful ops walk Recovering back to Up.
        q.push_rx(&frame(8, 60));
        q.push_rx(&frame(9, 60));
        assert!(sup.recv().is_some());
        assert!(sup.recv().is_some());
        assert_eq!(sup.health(), DeviceHealth::Up);
    }

    #[test]
    fn supervised_send_blocks_then_loses_on_deadline() {
        let (inner, q) = MemBackend::with_handles();
        let fb = FaultInjectBackend::parse("EAGAIN 1 STORM 1000", Box::new(inner)).unwrap();
        let (retry, health) = fast_policies();
        let mut sup = SupervisedDevice::with_policies(Box::new(fb), retry, health);
        // TX can never succeed: the first sends come back Pending with
        // retries and backoffs counted...
        let p = Packet::from_data(&frame(1, 60));
        let outcome = sup.send_pkt(p);
        let p = match outcome {
            SendOutcome::Pending(p) => p,
            other => panic!("expected Pending, got {other:?}"),
        };
        let g = sup.gauges();
        assert!(g.retries >= 2);
        assert!(g.backoffs >= 2);
        assert!(g.would_blocks >= 3);
        // ...and once the drain deadline passes, pending TX is lost.
        std::thread::sleep(Duration::from_micros(health.drain_deadline_us + 200));
        assert!(sup.should_drop_pending());
        sup.count_drain_lost(1);
        drop(p);
        assert_eq!(sup.gauges().drain_lost, 1);
        let _ = q;
    }

    #[test]
    fn supervised_abandons_after_reopen_budget() {
        let (inner, _q) = MemBackend::with_handles();
        // Refuse more reopens than the budget allows.
        let fb = FaultInjectBackend::parse("DOWN-AFTER 1 DOWN-FOR 100", Box::new(inner)).unwrap();
        let (retry, health) = fast_policies();
        let mut sup = SupervisedDevice::with_policies(Box::new(fb), retry, health);
        assert!(sup.recv().is_none()); // op 1: down
        let deadline = Instant::now() + Duration::from_secs(2);
        while !sup.abandoned() && Instant::now() < deadline {
            sup.tick();
            std::thread::sleep(Duration::from_micros(50));
        }
        assert!(sup.abandoned());
        assert_eq!(sup.health(), DeviceHealth::Down);
        assert_eq!(sup.gauges().reopens, 0);
        assert!(sup.should_drop_pending());
    }

    #[test]
    fn schemes_list_matches_known_openers() {
        // Every listed scheme must be understood by open_backend (even if
        // opening fails for environmental reasons, it must not be
        // "unknown scheme").
        for s in BACKEND_SCHEMES {
            let err = match open_backend(&format!("{s}:")) {
                Ok(_) => continue, // mem: opens fine
                Err(e) => e.to_string(),
            };
            assert!(
                !err.contains("unknown device backend scheme"),
                "scheme {s} rejected as unknown: {err}"
            );
        }
    }
    #[test]
    fn schemes_list_matches_click_check() {
        // click-core's `check_devices` lint keeps its own copy of this
        // list (core cannot depend on this crate); they must not drift.
        assert_eq!(
            click_core::check::KNOWN_BACKEND_SCHEMES,
            BACKEND_SCHEMES,
            "update click_core::check::KNOWN_BACKEND_SCHEMES"
        );
    }
}
