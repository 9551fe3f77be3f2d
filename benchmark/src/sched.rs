//! The open-loop send schedule and its lateness accounting.
//!
//! An open loop sends on a fixed schedule whether or not the system has
//! finished the previous frames. Frame `k` is *due* at `k × period`; its
//! latency is counted from that due time, never from when the generator
//! got round to handing it over — so a stall in the system shows up as
//! latency on every frame that came due during it. How late the
//! generator itself ran is reported separately ([`Lateness`]), because a
//! generator that falls behind turns the open loop back into a closed
//! one.

/// Fixed-rate schedule: frame `k` is due `k × period_ns` after the start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    /// A schedule of `pps` frames per second.
    pub fn at_rate(pps: u64) -> Schedule {
        assert!(pps > 0 && pps <= 1_000_000_000);
        Schedule {
            period_ns: 1_000_000_000 / pps,
        }
    }

    /// When frame `k` is due, in nanoseconds after the start.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    /// How many frames are due at or before `now_ns` (frame 0 is due at
    /// time 0).
    pub fn due_by(&self, now_ns: u64) -> u64 {
        now_ns / self.period_ns + 1
    }
}

/// Frames handed over later than this after their due time count as late.
pub const LATE_THRESHOLD_NS: u64 = 10_000;

/// How late the generator handed frames to the system.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lateness {
    /// Frames handed over.
    pub sent: u64,
    /// Frames handed over more than [`LATE_THRESHOLD_NS`] after due.
    pub late: u64,
    /// Worst hand-over delay seen, nanoseconds.
    pub max_ns: u64,
}

impl Lateness {
    /// Accounts one frame due at `due_ns` and handed over at `sent_ns`.
    /// A frame can never be handed over early; clock skew that would say
    /// so is clamped to zero.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        let delay = sent_ns.saturating_sub(due_ns);
        self.sent += 1;
        if delay > LATE_THRESHOLD_NS {
            self.late += 1;
        }
        self.max_ns = self.max_ns.max(delay);
    }

    /// Share of frames handed over late (0 when nothing was sent).
    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate_from_time_zero() {
        let s = Schedule::at_rate(250_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 4_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(3_999), 1);
        assert_eq!(s.due_by(4_000), 2);
        // After a 1 ms stall, 250 more frames have come due at once: the
        // schedule does not slow down for the system.
        assert_eq!(s.due_by(1_000_000) - s.due_by(0), 250);
    }

    #[test]
    fn lateness_counts_from_due_time_with_a_threshold() {
        let mut l = Lateness::default();
        l.record(4_000, 4_000); // on time
        l.record(8_000, 18_000); // exactly at the threshold: not late
        l.record(12_000, 22_001); // just past it
        l.record(16_000, 15_000); // "early" clamps to zero delay
        assert_eq!((l.sent, l.late, l.max_ns), (4, 1, 10_001));
        assert_eq!(l.late_share(), 0.25);
        assert_eq!(Lateness::default().late_share(), 0.0);
    }

    #[test]
    fn a_stall_makes_every_frame_due_in_it_late() {
        // The system stalls from 100 µs to 400 µs; the generator can only
        // hand over at 400 µs what came due meanwhile.
        let s = Schedule::at_rate(250_000);
        let mut l = Lateness::default();
        let (first, last) = (s.due_by(100_000), s.due_by(400_000));
        for k in first..last {
            l.record(s.due_ns(k), 400_000);
        }
        assert_eq!(l.sent, 75);
        // Frames due within the last 10 µs of the stall are not late.
        assert_eq!(l.sent - l.late, 3);
        assert_eq!(l.max_ns, 400_000 - s.due_ns(first));
    }
}
