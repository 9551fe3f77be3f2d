//! `FaultInject`: deterministic chaos injection for robustness testing.
//!
//! Production packet processors are exercised with fault injection long
//! before a real fault finds them. `FaultInject` sits on a push path (it
//! is push-only: one pull could not return a duplicate or a delayed
//! packet, so `click-check` refuses it on a pull path) and
//! misbehaves on purpose — dropping, corrupting, duplicating, delaying,
//! or `panic!`ing — under a seeded LCG so every run is reproducible:
//!
//! ```text
//! FromDevice(in0) -> FaultInject(DROP 0.01, CORRUPT 0.001, SEED 7) -> ...
//! ```
//!
//! Keyword clauses (all optional, any order, separated by commas and/or
//! whitespace; the device-level [`crate::iodev::FaultInjectBackend`]
//! reads the same syntax with its own keys):
//!
//! * `DROP p` — drop a packet with probability `p` (buffer recycled).
//! * `CORRUPT p` — flip one LCG-chosen byte with probability `p`.
//! * `DUP p` — emit a duplicate ahead of the packet with probability `p`.
//! * `DELAY k` — hold packets in a `k`-deep FIFO delay line
//!   (order-preserving; the line drains only as later packets arrive).
//! * `PANIC p` — `panic!` with probability `p`. In the sharded runtime
//!   the panic is confined to the worker shard and exercises the
//!   supervisor ([`crate::parallel`]); in a serial router it unwinds to
//!   the caller.
//! * `WEDGE p` — park the calling thread forever with probability `p`
//!   (the element sleeps in a loop and never returns). This simulates a
//!   livelocked element: the shard stops consuming, its ring fills, and
//!   the runtime's backpressure timeout
//!   ([`crate::parallel::ParallelRouter::try_run_until_idle`]) is the only way
//!   out. Only for chaos tests — never configure it in a serial router.
//! * `SEED s` — LCG seed (default 1); identical seeds give identical
//!   fault sequences.
//! * `SHARD k` — only act inside worker shard `k`
//!   ([`crate::element::CreateCtx::shard`]); other shards' clones pass
//!   packets through untouched. Default: act in every shard.
//! * `AFTER n` — pass the first `n` packets through unharmed before
//!   arming the faults (lets a chaos test kill a shard mid-stream at a
//!   deterministic point).

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{config_err, int_arg, CreateCtx, Element, Emitter};
use crate::packet::Packet;
use crate::swap::ElementState;
use click_core::error::Result;
use click_core::Lcg;
use std::collections::VecDeque;

/// Probability scale: thresholds live in a 32-bit fixed-point space so a
/// fault fires when a fresh 32-bit LCG draw falls below the threshold.
/// Shared with the device-level shim, [`crate::iodev::FaultInjectBackend`].
pub(crate) const PROB_ONE: u64 = 1 << 32;

/// The fault clause tokenizer both shims share: clauses are `KEY value`,
/// separated by commas, whitespace or both (`DROP 0.1, DUP 0.2`,
/// `DROP 0.1 DUP 0.2` and `DROP 0.1,DUP 0.2` are one language). A key
/// with no value left comes back with `None`.
pub(crate) fn clauses(text: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    let mut words = text
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|w| !w.is_empty());
    std::iter::from_fn(move || {
        let key = words.next()?;
        Some((key, words.next()))
    })
}

/// Parses a probability in `[0, 1]` into its fixed-point threshold; the
/// error names what was wrong, for the caller to wrap.
pub(crate) fn prob(s: &str) -> std::result::Result<u64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{s}` not in [0, 1]"));
    }
    Ok((p * PROB_ONE as f64) as u64)
}

/// The chaos-injection element. See the module docs for the clause
/// language.
#[derive(Debug)]
pub struct FaultInject {
    drop_t: u64,
    corrupt_t: u64,
    dup_t: u64,
    panic_t: u64,
    wedge_t: u64,
    delay: usize,
    lcg: Lcg,
    /// False when a `SHARD` clause names a different shard than the one
    /// this clone was built in: the element becomes a transparent wire.
    active: bool,
    after: u64,
    seen: u64,
    line: VecDeque<Packet>,
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
}

fn prob_arg(key: &str, value: &str) -> Result<u64> {
    prob(value).map_err(|e| config_err("FaultInject", format!("{key}: {e}")))
}

impl FaultInject {
    /// Creates from a configuration string of keyword clauses.
    pub fn from_config(config: &str, ctx: &mut CreateCtx) -> Result<FaultInject> {
        let mut e = FaultInject {
            drop_t: 0,
            corrupt_t: 0,
            dup_t: 0,
            panic_t: 0,
            wedge_t: 0,
            delay: 0,
            lcg: Lcg::with_increment(1, 1),
            active: true,
            after: 0,
            seen: 0,
            line: VecDeque::new(),
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
        };
        for (key, value) in clauses(config) {
            let value =
                value.ok_or_else(|| config_err("FaultInject", format!("bare clause {key:?}")))?;
            match key.to_ascii_uppercase().as_str() {
                "DROP" => e.drop_t = prob_arg("DROP", value)?,
                "CORRUPT" => e.corrupt_t = prob_arg("CORRUPT", value)?,
                "DUP" => e.dup_t = prob_arg("DUP", value)?,
                "PANIC" => e.panic_t = prob_arg("PANIC", value)?,
                "WEDGE" => e.wedge_t = prob_arg("WEDGE", value)?,
                "DELAY" => e.delay = int_arg("FaultInject", "DELAY depth", value)?,
                "SEED" => e.lcg = Lcg::with_increment(int_arg("FaultInject", "SEED", value)?, 1),
                "AFTER" => e.after = int_arg("FaultInject", "AFTER count", value)?,
                "SHARD" => {
                    let shard: usize = int_arg("FaultInject", "SHARD index", value)?;
                    e.active = shard == ctx.shard;
                }
                other => {
                    return Err(config_err(
                        "FaultInject",
                        format!("unknown clause {other:?}"),
                    ))
                }
            }
        }
        Ok(e)
    }

    /// One 32-bit draw from the element's LCG (high bits are the strong
    /// ones).
    fn roll(&mut self) -> u64 {
        self.lcg.step() >> 32
    }

    /// Sends `p` through the delay line (or straight out when `DELAY` is
    /// unset / the line is warm).
    fn forward(&mut self, p: Packet, out: &mut Emitter) {
        if self.delay == 0 {
            out.emit(0, p);
            return;
        }
        self.line.push_back(p);
        while self.line.len() > self.delay {
            if let Some(front) = self.line.pop_front() {
                out.emit(0, front);
            }
        }
    }
}

impl Element for FaultInject {
    fn class_name(&self) -> &str {
        "FaultInject"
    }

    fn push(&mut self, _port: usize, mut p: Packet, out: &mut Emitter) {
        if !self.active {
            out.emit(0, p);
            return;
        }
        self.seen += 1;
        if self.seen <= self.after {
            self.forward(p, out);
            return;
        }
        if self.panic_t > 0 && self.roll() < self.panic_t {
            panic!("FaultInject: injected panic (chaos run)");
        }
        if self.wedge_t > 0 && self.roll() < self.wedge_t {
            // Livelock on purpose: never return. The shard stops
            // consuming and the runtime's wedge detection takes over.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        if self.drop_t > 0 && self.roll() < self.drop_t {
            self.dropped += 1;
            return;
        }
        if self.corrupt_t > 0 && self.roll() < self.corrupt_t && !p.data().is_empty() {
            let idx = (self.roll() as usize) % p.len();
            p.data_mut()[idx] ^= 0xFF;
            self.corrupted += 1;
        }
        if self.dup_t > 0 && self.roll() < self.dup_t {
            self.duplicated += 1;
            out.emit(0, p.clone());
        }
        self.forward(p, out);
    }

    fn push_batch(&mut self, port: usize, batch: PacketBatch, out: &mut BatchEmitter) {
        out.push_each(batch, |p, e| self.push(port, p, e));
    }

    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "seen" => Some(self.seen),
            "drops" => Some(self.dropped),
            "corrupted" => Some(self.corrupted),
            "duplicated" => Some(self.duplicated),
            "delayed" => Some(self.line.len() as u64),
            _ => None,
        }
    }
    fn take_state(&mut self) -> Option<ElementState> {
        // Arm-state: the fault counters, the arming progress (`seen`
        // gates AFTER clauses), the LCG cursor so the random sequence
        // continues instead of restarting, and the delay line's packets.
        let mut s = ElementState::new("FaultInject")
            .counter("seen", self.seen)
            .counter("lcg", self.lcg.state())
            .counter("drops", self.dropped)
            .counter("corrupted", self.corrupted)
            .counter("duplicated", self.duplicated);
        s.packets = self.line.drain(..).collect();
        Some(s)
    }
    fn restore_state(&mut self, state: ElementState) {
        self.seen += state.get("seen");
        self.dropped += state.get("drops");
        self.corrupted += state.get("corrupted");
        self.duplicated += state.get("duplicated");
        if let Some(lcg) = state.find("lcg") {
            self.lcg = Lcg::with_increment(lcg, 1);
        }
        self.line.extend(state.packets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(e: &mut FaultInject, n: usize) -> Vec<Packet> {
        let mut got = Vec::new();
        for i in 0..n {
            let mut out = Emitter::new();
            e.push(0, Packet::from_data(&[i as u8; 8]), &mut out);
            got.extend(out.drain().map(|(_, p)| p));
        }
        got
    }

    #[test]
    fn empty_config_is_a_wire() {
        let mut e = FaultInject::from_config("", &mut CreateCtx::new()).unwrap();
        assert_eq!(push_n(&mut e, 10).len(), 10);
        assert_eq!(e.stat("seen"), Some(10));
        assert_eq!(e.stat("drops"), Some(0));
    }

    #[test]
    fn drop_all_drops_everything() {
        let mut e = FaultInject::from_config("DROP 1, SEED 42", &mut CreateCtx::new()).unwrap();
        assert!(push_n(&mut e, 20).is_empty());
        assert_eq!(e.stat("drops"), Some(20));
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let out1: Vec<usize> = {
            let mut e =
                FaultInject::from_config("DROP 0.5, SEED 7", &mut CreateCtx::new()).unwrap();
            push_n(&mut e, 64).iter().map(|p| p.len()).collect()
        };
        let out2: Vec<usize> = {
            let mut e =
                FaultInject::from_config("DROP 0.5, SEED 7", &mut CreateCtx::new()).unwrap();
            push_n(&mut e, 64).iter().map(|p| p.len()).collect()
        };
        assert_eq!(out1, out2);
        assert!(out1.len() < 64, "p=0.5 must drop something in 64 packets");
        assert!(!out1.is_empty(), "p=0.5 must pass something in 64 packets");
    }

    #[test]
    fn after_holds_fire() {
        let mut e =
            FaultInject::from_config("DROP 1, AFTER 5, SEED 1", &mut CreateCtx::new()).unwrap();
        assert_eq!(push_n(&mut e, 8).len(), 5, "first 5 pass, rest drop");
    }

    #[test]
    fn shard_clause_scopes_faults() {
        let mut other = CreateCtx::for_shard(1);
        let mut e = FaultInject::from_config("DROP 1, SHARD 0", &mut other).unwrap();
        assert_eq!(push_n(&mut e, 4).len(), 4, "wrong shard: transparent");
        let mut mine = CreateCtx::for_shard(0);
        let mut e = FaultInject::from_config("DROP 1, SHARD 0", &mut mine).unwrap();
        assert!(push_n(&mut e, 4).is_empty(), "matching shard: active");
    }

    #[test]
    fn delay_line_preserves_order() {
        let mut e = FaultInject::from_config("DELAY 3", &mut CreateCtx::new()).unwrap();
        let got = push_n(&mut e, 10);
        assert_eq!(got.len(), 7, "3 packets still in the line");
        let firsts: Vec<u8> = got.iter().map(|p| p.data()[0]).collect();
        assert_eq!(firsts, (0u8..7).collect::<Vec<_>>());
        assert_eq!(e.stat("delayed"), Some(3));
    }

    #[test]
    fn dup_duplicates() {
        let mut e = FaultInject::from_config("DUP 1, SEED 3", &mut CreateCtx::new()).unwrap();
        assert_eq!(push_n(&mut e, 5).len(), 10);
        assert_eq!(e.stat("duplicated"), Some(5));
    }

    #[test]
    fn corrupt_flips_one_byte() {
        let mut e = FaultInject::from_config("CORRUPT 1, SEED 9", &mut CreateCtx::new()).unwrap();
        let got = push_n(&mut e, 4);
        assert_eq!(got.len(), 4, "corruption forwards the packet");
        assert_eq!(e.stat("corrupted"), Some(4));
        for p in &got {
            let flipped = p.data().iter().filter(|&&b| b != p.data()[0]).count();
            // Exactly one byte differs from the fill — unless the flip hit
            // byte 0 itself, in which case seven differ.
            assert!(flipped == 1 || flipped == 7, "one byte flipped: {:?}", p);
        }
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn panic_clause_panics() {
        let mut e = FaultInject::from_config("PANIC 1", &mut CreateCtx::new()).unwrap();
        push_n(&mut e, 1);
    }

    #[test]
    fn both_shims_read_commas_and_spaces_alike() {
        use crate::iodev::{FaultInjectBackend, MemBackend};
        let element = |text| {
            let e = FaultInject::from_config(text, &mut CreateCtx::new()).unwrap();
            format!("{e:?}")
        };
        for text in ["DROP 0.1 DUP 0.2", "DROP 0.1,DUP 0.2"] {
            assert_eq!(element(text), element("DROP 0.1, DUP 0.2"), "{text:?}");
        }
        let backend = |text| {
            let fb = FaultInjectBackend::parse(text, Box::new(MemBackend::echo())).unwrap();
            format!("{fb:?}")
        };
        for text in ["DROP 0.1,EAGAIN 0.2", "DROP 0.1, EAGAIN 0.2"] {
            assert_eq!(backend(text), backend("DROP 0.1 EAGAIN 0.2"), "{text:?}");
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        for cfg in [
            "DROP",        // bare clause
            "DROP 1.5",    // probability out of range
            "DROP banana", // not a number
            "FROB 1",      // unknown keyword
            "DELAY -3",    // negative depth
            "PANIC 2, SEED 1",
        ] {
            assert!(
                FaultInject::from_config(cfg, &mut CreateCtx::new()).is_err(),
                "should reject {cfg:?}"
            );
        }
    }
}
