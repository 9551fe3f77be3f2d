//! Live reconfiguration: what a hot swap keeps, moves and retires
//! between an old and a new router graph.
//!
//! The paper's optimizers rewrite *configurations*, but a production
//! router cannot afford to restart — and lose every queued packet and
//! counter — just to adopt an optimized graph. Nor should it pay to
//! rebuild what the new configuration did not change. This module
//! provides the pieces a hot swap needs:
//!
//! * [`TransferPlan`] — how each element of the new graph comes to be.
//!   Matching is Click-style, by element *name* with the
//!   (devirtualization-normalized) class agreeing, so a `Counter` named
//!   `c` lines up with the optimized graph's `Counter__DV3` also named
//!   `c`. A matched element whose configuration string is byte-identical
//!   is **reused**: the running element object moves into the new router
//!   with everything it holds (counters, queue, RNG, routing table,
//!   telemetry). Every other match is rebuilt and **matched**: it gets
//!   its predecessor's [`ElementState`]. An element with no predecessor
//!   is **fresh**; one with no successor is **retired**.
//! * [`ALWAYS_REBUILT`] — the classes that read their graph context at
//!   construction or wiring time and so are never reused.
//! * [`ElementState`] — the portable state a rebuilt element takes over
//!   ([`crate::element::Element::take_state`] on the predecessor,
//!   [`crate::element::Element::restore_state`] on the successor): named
//!   counters plus buffered packets (queue contents, delay lines). The
//!   checkpoint path uses the same surface.
//! * [`SwapReport`] — what a completed swap did: how many elements it
//!   reused, how much state moved, what was retired, and (for the
//!   sharded runtime) how the canary rollout went.
//!
//! The swap itself lives on the engines:
//! [`crate::router::Router::hot_swap`] performs the quiesced, atomic
//! serial swap; [`crate::parallel::ParallelRouter::hot_swap`] rolls the
//! new graph out shard by shard behind a canary with automatic rollback.

use click_core::registry::devirt_base;
use std::collections::HashMap;

use crate::packet::Packet;

/// Base classes a swap always rebuilds, even with an unchanged
/// configuration: the device elements take their device id from the
/// [`crate::element::CreateCtx`] device map of the graph they are built
/// in, and `RED` finds its downstream queue by walking the new wiring.
pub const ALWAYS_REBUILT: &[&str] = &["FromDevice", "PollDevice", "ToDevice", "RED"];

/// Portable state extracted from one element for transfer into its
/// successor across a hot swap.
///
/// The representation is deliberately schema-free — named counters plus
/// a packet list — so elements evolve their state without touching the
/// transfer machinery, and a mismatch degrades to "counter ignored"
/// rather than an error.
#[derive(Debug, Default)]
pub struct ElementState {
    /// Class name of the donor element (normalized by the *plan*, not
    /// here: a devirtualized donor reports its mangled class).
    pub class: String,
    /// Named counters, e.g. `("drops", 3)`. Order is not significant.
    pub counters: Vec<(String, u64)>,
    /// Buffered packets in FIFO order (queue contents, delay lines).
    pub packets: Vec<Packet>,
}

impl ElementState {
    /// Creates empty state tagged with the donor's class name.
    pub fn new(class: &str) -> ElementState {
        ElementState {
            class: class.to_owned(),
            counters: Vec::new(),
            packets: Vec::new(),
        }
    }

    /// Adds a named counter (builder style).
    #[must_use]
    pub fn counter(mut self, name: &str, value: u64) -> ElementState {
        self.counters.push((name.to_owned(), value));
        self
    }

    /// Looks up a counter by name.
    pub fn find(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a counter by name, defaulting to zero when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.find(name).unwrap_or(0)
    }

    /// Recycles every buffered packet back into the thread-local pool
    /// (the fate of state nobody adopts).
    pub fn recycle_packets(self) {
        for p in self.packets {
            p.recycle();
        }
    }
}

/// The pairing of old-graph elements to new-graph elements computed
/// before a hot swap.
///
/// Indices refer to the two `(name, class, config)` tables handed to
/// [`TransferPlan::compute`] (element slot order in each engine). Every
/// new element is in exactly one of `reused`, `matched` and `fresh`;
/// every old one in exactly one of `reused`, `matched` and `retired`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TransferPlan {
    /// `(old_index, new_index)` pairs whose element object moves into the
    /// new router as it is: same name, base class and configuration, and
    /// a class not in [`ALWAYS_REBUILT`].
    pub reused: Vec<(usize, usize)>,
    /// `(old_index, new_index)` pairs rebuilt from the new graph whose
    /// state carries over through [`ElementState`].
    pub matched: Vec<(usize, usize)>,
    /// Old elements with no successor: their state is retired (packets
    /// recycled and counted by the swap).
    pub retired: Vec<usize>,
    /// New elements with no predecessor: they start fresh.
    pub fresh: Vec<usize>,
}

impl TransferPlan {
    /// Computes the transfer plan between two `(name, class, config)`
    /// tables.
    ///
    /// An old element has a successor iff the new graph declares an
    /// element of the same name whose class — after stripping any
    /// `click-devirtualize` mangling on either side — agrees. A same-name
    /// element of a *different* class starts fresh (its predecessor's
    /// state is retired), exactly like Click's install-time matching.
    /// A successor is reused when its configuration string is
    /// byte-identical and its base class is not in [`ALWAYS_REBUILT`].
    pub fn compute(old: &[(&str, &str, &str)], new: &[(&str, &str, &str)]) -> TransferPlan {
        fn base(class: &str) -> &str {
            devirt_base(class).unwrap_or(class)
        }
        let new_by_name: HashMap<&str, usize> = new
            .iter()
            .enumerate()
            .map(|(i, &(name, _, _))| (name, i))
            .collect();
        let mut plan = TransferPlan::default();
        let mut claimed = vec![false; new.len()];
        for (oi, &(name, class, config)) in old.iter().enumerate() {
            let Some(&ni) = new_by_name.get(name) else {
                plan.retired.push(oi);
                continue;
            };
            let (_, new_class, new_config) = new[ni];
            let class = base(class);
            if class != base(new_class) {
                plan.retired.push(oi);
            } else if config == new_config && !ALWAYS_REBUILT.contains(&class) {
                plan.reused.push((oi, ni));
                claimed[ni] = true;
            } else {
                plan.matched.push((oi, ni));
                claimed[ni] = true;
            }
        }
        plan.fresh = (0..new.len()).filter(|&ni| !claimed[ni]).collect();
        plan
    }
}

/// What a hot swap did.
///
/// A serial [`crate::router::Router::hot_swap`] fills the state-transfer
/// fields and reports one swapped shard; the sharded
/// [`crate::parallel::ParallelRouter::hot_swap`] additionally reports the
/// canary outcome.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// Elements moved into the new router unrebuilt (same name, base
    /// class and configuration).
    pub reused: usize,
    /// Elements rebuilt whose state carried over (same name and base
    /// class, changed configuration or an [`ALWAYS_REBUILT`] class).
    pub matched: usize,
    /// New elements that started with fresh state.
    pub fresh: usize,
    /// Old elements retired with no successor.
    pub retired: usize,
    /// Packets moved into the new graph: the state of rebuilt matched
    /// elements (queue contents, delay lines) plus device RX/TX queues
    /// carried by device name. A reused element's packets never move.
    pub packets_transferred: u64,
    /// Buffered packets with no home in the new graph — retired-element
    /// state and queues of devices the new graph lacks. Recycled, and
    /// part of the swap's bounded loss.
    pub packets_dropped: u64,
    /// Shards now running the configuration this swap installed.
    pub swapped_shards: usize,
    /// The shard that ran the new configuration first (sharded swaps).
    pub canary_shard: Option<usize>,
    /// Packets the canary processed during its judgment window.
    pub canary_packets: u64,
    /// Drop-gauge delta on the canary while it ran the new
    /// configuration (through rollback, if one happened).
    pub canary_drops: u64,
    /// True when the canary's drop gauge regressed past the margin and
    /// the shard was rolled back to the retained old graph.
    pub rolled_back: bool,
}

impl SwapReport {
    /// Folds one shard's serial swap into this rollout-level report
    /// (packet accounting sums; element matching is per-shard identical,
    /// so those fields keep the canary's values).
    pub fn absorb(&mut self, shard: &SwapReport) {
        self.packets_transferred += shard.packets_transferred;
        self.packets_dropped += shard.packets_dropped;
        self.swapped_shards += shard.swapped_shards;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_by_name_and_class() {
        let old = [
            ("c", "Counter", ""),
            ("q", "Queue", "8"),
            ("d", "Discard", ""),
        ];
        let new = [
            ("q", "Queue", "16"),
            ("c", "Counter", ""),
            ("t", "Tee", "2"),
        ];
        let plan = TransferPlan::compute(&old, &new);
        assert_eq!(plan.reused, vec![(0, 1)]);
        assert_eq!(plan.matched, vec![(1, 0)]);
        assert_eq!(plan.retired, vec![2]);
        assert_eq!(plan.fresh, vec![2]);
    }

    #[test]
    fn plan_normalizes_devirtualized_classes() {
        let old = [("c", "Counter", "")];
        let new = [("c", "Counter__DV3", "")];
        let plan = TransferPlan::compute(&old, &new);
        assert_eq!(plan.reused, vec![(0, 0)]);
        assert!(plan.matched.is_empty() && plan.retired.is_empty() && plan.fresh.is_empty());
    }

    #[test]
    fn plan_retires_same_name_different_class() {
        let old = [("x", "Counter", "")];
        let new = [("x", "Queue", "")];
        let plan = TransferPlan::compute(&old, &new);
        assert!(plan.reused.is_empty() && plan.matched.is_empty());
        assert_eq!(plan.retired, vec![0]);
        assert_eq!(plan.fresh, vec![0]);
    }

    #[test]
    fn plan_rebuilds_graph_context_classes_even_when_unchanged() {
        let old = [
            ("in", "FromDevice", "eth0"),
            ("red", "RED__DV1", "5, 50, 0.02"),
            ("q", "Queue", "64"),
        ];
        let plan = TransferPlan::compute(&old, &old);
        assert_eq!(plan.matched, vec![(0, 0), (1, 1)]);
        assert_eq!(plan.reused, vec![(2, 2)]);
    }

    #[test]
    fn state_counters_round_trip() {
        let s = ElementState::new("Queue").counter("drops", 7);
        assert_eq!(s.get("drops"), 7);
        assert_eq!(s.find("missing"), None);
        assert_eq!(s.get("missing"), 0);
    }
}
