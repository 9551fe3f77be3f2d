//! Branch-target-buffer model for indirect (virtual) calls.
//!
//! Paper §3: "The Pentium caches the targets of indirect branch
//! instructions; when correctly predicted, a virtual function call takes
//! about 7 cycles, comparable to a conventional function call.
//! Incorrectly predicted calls, however, take dozens of cycles." And
//! Figure 2: two elements of the same class share one call site, so when
//! their targets differ and packets alternate, "the branch predictor is
//! always wrong."

use std::collections::HashMap;

/// Cycle cost of a correctly predicted indirect call (paper: "about 7").
pub const PREDICTED_CALL_CYCLES: f64 = 7.0;
/// Cycle cost of a mispredicted indirect call (paper: "dozens").
pub const MISPREDICTED_CALL_CYCLES: f64 = 40.0;
/// Cycle cost of a direct (devirtualized) call.
pub const DIRECT_CALL_CYCLES: f64 = 3.0;

/// A call-site identifier: the *code* performing the call. Elements of
/// the same (non-devirtualized) class share code, hence share sites.
pub type CallSite = (u64, usize);

/// A last-target branch predictor keyed by call site.
#[derive(Debug, Default, Clone)]
pub struct Btb {
    last_target: HashMap<CallSite, u64>,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates an empty predictor.
    pub fn new() -> Btb {
        Btb::default()
    }

    /// Records an indirect call from `site` to `target`; returns the cycle
    /// cost (predicted or mispredicted).
    pub fn indirect_call(&mut self, site: CallSite, target: u64) -> f64 {
        match self.last_target.insert(site, target) {
            Some(prev) if prev == target => {
                self.hits += 1;
                PREDICTED_CALL_CYCLES
            }
            Some(_) => {
                self.misses += 1;
                MISPREDICTED_CALL_CYCLES
            }
            None => {
                // Cold: counts as a miss.
                self.misses += 1;
                MISPREDICTED_CALL_CYCLES
            }
        }
    }

    /// Correct predictions so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Mispredictions so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of calls mispredicted (0 if no calls yet).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Clears history and counters.
    pub fn reset(&mut self) {
        self.last_target.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

/// Stable hash for code identities (class names).
pub fn code_id(name: &str) -> u64 {
    click_core::fnv1a(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_target_predicts() {
        let mut btb = Btb::new();
        let site = (code_id("ARPQuerier"), 0);
        let queue = code_id("Queue");
        btb.indirect_call(site, queue); // cold miss
        for _ in 0..10 {
            assert_eq!(btb.indirect_call(site, queue), PREDICTED_CALL_CYCLES);
        }
        assert_eq!(btb.misses(), 1);
        assert_eq!(btb.hits(), 10);
    }

    #[test]
    fn alternating_targets_always_miss() {
        // The Figure 2 pathology.
        let mut btb = Btb::new();
        let site = (code_id("ARPQuerier"), 0);
        let a = code_id("TargetA");
        let b = code_id("TargetB");
        btb.indirect_call(site, a);
        for _ in 0..10 {
            assert_eq!(btb.indirect_call(site, b), MISPREDICTED_CALL_CYCLES);
            assert_eq!(btb.indirect_call(site, a), MISPREDICTED_CALL_CYCLES);
        }
        assert!(btb.miss_rate() > 0.95);
    }

    #[test]
    fn distinct_sites_do_not_interfere() {
        // Devirtualization gives each element its own code, hence its own
        // call site: the alternation disappears.
        let mut btb = Btb::new();
        let site1 = (code_id("ARPQuerier__DV1"), 0);
        let site2 = (code_id("ARPQuerier__DV2"), 0);
        let a = code_id("TargetA");
        let b = code_id("TargetB");
        btb.indirect_call(site1, a);
        btb.indirect_call(site2, b);
        for _ in 0..10 {
            assert_eq!(btb.indirect_call(site1, a), PREDICTED_CALL_CYCLES);
            assert_eq!(btb.indirect_call(site2, b), PREDICTED_CALL_CYCLES);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut btb = Btb::new();
        btb.indirect_call((1, 0), 2);
        btb.reset();
        assert_eq!(btb.hits() + btb.misses(), 0);
        assert_eq!(btb.miss_rate(), 0.0);
    }
}
