//! The workspace's one seeded generator and one hash: every crate
//! depends on `click-core`, so chaos elements, trace generators, test
//! helpers, flow steering and checkpoint fingerprints share these two
//! instead of restating the constants.

/// Knuth's 64-bit linear congruential generator (the MMIX multiplier):
/// `state = state * 6364136223846793005 + increment`. The high bits are
/// the well-mixed ones, so the draws ([`Lcg::next`], [`Lcg::below`],
/// [`Lcg::word`]) take the top 31 of each step; [`Lcg::step`] hands out
/// the raw state for callers with a shift of their own.
///
/// The increment is a constructor argument because stored data froze a
/// second convention: checkpoints carry the cursor of `FaultInject`,
/// which has always stepped by 1, and a restored element must continue
/// the very sequence it was cut in.
///
/// ```
/// use click_core::Lcg;
///
/// let (mut a, mut b) = (Lcg::new(7), Lcg::new(7));
/// assert_eq!(a.next(), b.next());
/// let mut resumed = Lcg::with_increment(a.state(), Lcg::INCREMENT);
/// assert_eq!(resumed.word(), b.word());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lcg {
    state: u64,
    increment: u64,
}

impl Lcg {
    /// Knuth's increment for the MMIX multiplier.
    pub const INCREMENT: u64 = 1442695040888963407;

    /// A generator started at `seed`, stepping by [`Lcg::INCREMENT`];
    /// equal seeds yield equal streams.
    pub const fn new(seed: u64) -> Lcg {
        Lcg::with_increment(seed, Lcg::INCREMENT)
    }

    /// A generator at `state` (a seed, or a cursor read back with
    /// [`Lcg::state`]) stepping by `increment`.
    pub const fn with_increment(state: u64, increment: u64) -> Lcg {
        Lcg { state, increment }
    }

    /// Advances one step and returns the whole new state.
    #[inline]
    pub fn step(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(self.increment);
        self.state
    }

    /// The cursor: a generator rebuilt from it continues the sequence.
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Advances one step and returns the state's top 31 bits.
    #[allow(clippy::should_implement_trait)] // an endless stream: no `None` to end an `Iterator`
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.step() >> 33
    }

    /// A value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }

    /// 32 bits from two steps (one step carries only 31).
    pub fn word(&mut self) -> u32 {
        (self.next() as u32) ^ ((self.next() as u32) << 16)
    }
}

/// 64-bit FNV-1a over `bytes`. Byte-wise FNV disperses small sequential
/// inputs (ports, addresses) evenly, which is what flow steering needs;
/// it is not collision-resistant against crafted input.
///
/// ```
/// assert_eq!(click_core::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(click_core::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
