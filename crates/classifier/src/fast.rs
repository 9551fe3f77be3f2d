//! Shape-specialized matchers over an optimized decision tree.
//!
//! The paper's `click-fastclassifier` emits C++ per decision tree (Figure
//! 3b). Here common tree shapes compile to dedicated struct variants
//! whose `classify` is straight-line code, and everything else falls
//! back to the contiguous [`ClassifierProgram`]. `click-fastclassifier`
//! itself emits a [`crate::diagram::DecisionDiagram`]; this form stays
//! for the paper's §4 firewall reproduction, which specializes an
//! optimized tree.

use crate::program::ClassifierProgram;
use crate::tree::{DecisionTree, Step};

/// The outcome of a leaf: an output port or a drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Emit on this output.
    Output(usize),
    /// Drop the packet.
    Drop,
}

impl Outcome {
    fn from_step(s: Step) -> Option<Outcome> {
        match s {
            Step::Output(o) => Some(Outcome::Output(o)),
            Step::Drop => Some(Outcome::Drop),
            Step::Node(_) => None,
        }
    }

    #[inline]
    fn get(self) -> Option<usize> {
        match self {
            Outcome::Output(o) => Some(o),
            Outcome::Drop => None,
        }
    }
}

/// A specialized classifier: the fastest available implementation of a
/// decision tree.
///
/// # Examples
///
/// ```
/// use click_classifier::build::build_tree;
/// use click_classifier::fast::FastMatcher;
/// use click_classifier::pattern::parse_classifier_config;
///
/// // Figure 3's classifier specializes to a single word compare.
/// let rules = parse_classifier_config("12/0800, -")?;
/// let m = FastMatcher::compile(&build_tree(&rules, 2));
/// assert!(matches!(m, FastMatcher::SingleCheck { .. }));
/// let mut pkt = [0u8; 64];
/// pkt[12] = 0x08;
/// assert_eq!(m.classify(&pkt), Some(0));
/// # Ok::<(), click_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastMatcher {
    /// Every packet gets the same outcome.
    Constant {
        /// That outcome.
        outcome: Outcome,
    },
    /// One word compare — the shape of the paper's Figure 3b.
    SingleCheck {
        /// Word-aligned byte offset.
        offset: u32,
        /// Mask.
        mask: u32,
        /// Expected value.
        value: u32,
        /// Outcome on match.
        yes: Outcome,
        /// Outcome on mismatch.
        no: Outcome,
    },
    /// A chain of up to two conjunctive compares with a single failure
    /// outcome (e.g. `12/0806 20/0001`).
    DoubleCheck {
        /// First check `(offset, mask, value)`.
        first: (u32, u32, u32),
        /// Second check.
        second: (u32, u32, u32),
        /// Outcome when both match.
        yes: Outcome,
        /// Outcome when either fails.
        no: Outcome,
    },
    /// General case: a contiguous compiled program.
    Program(ClassifierProgram),
}

impl FastMatcher {
    /// Chooses the best specialization for a tree.
    pub fn compile(tree: &DecisionTree) -> FastMatcher {
        // Constant?
        if let Some(outcome) = Outcome::from_step(tree.start) {
            return FastMatcher::Constant { outcome };
        }
        let Step::Node(first) = tree.start else {
            unreachable!()
        };
        let e0 = &tree.exprs[first];
        // Single check?
        if let (Some(yes), Some(no)) = (Outcome::from_step(e0.yes), Outcome::from_step(e0.no)) {
            return FastMatcher::SingleCheck {
                offset: e0.offset,
                mask: e0.mask,
                value: e0.value,
                yes,
                no,
            };
        }
        // Double check with shared failure outcome?
        if let (Step::Node(second), Some(no0)) = (e0.yes, Outcome::from_step(e0.no)) {
            let e1 = &tree.exprs[second];
            if let (Some(yes), Some(no1)) = (Outcome::from_step(e1.yes), Outcome::from_step(e1.no))
            {
                if no0 == no1 {
                    return FastMatcher::DoubleCheck {
                        first: (e0.offset, e0.mask, e0.value),
                        second: (e1.offset, e1.mask, e1.value),
                        yes,
                        no: no0,
                    };
                }
            }
        }
        #[allow(clippy::disallowed_methods)]
        FastMatcher::Program(ClassifierProgram::compile(tree))
    }

    /// Classifies a packet. Returns the output port or `None` for a drop.
    #[inline]
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        match self {
            FastMatcher::Constant { outcome, .. } => outcome.get(),
            FastMatcher::SingleCheck {
                offset,
                mask,
                value,
                yes,
                no,
            } => {
                let w = crate::tree::load_word(data, *offset as usize);
                if w & mask == *value {
                    yes.get()
                } else {
                    no.get()
                }
            }
            FastMatcher::DoubleCheck {
                first,
                second,
                yes,
                no,
            } => {
                let w0 = crate::tree::load_word(data, first.0 as usize);
                if w0 & first.1 != first.2 {
                    return no.get();
                }
                let w1 = crate::tree::load_word(data, second.0 as usize);
                if w1 & second.1 == second.2 {
                    yes.get()
                } else {
                    no.get()
                }
            }
            FastMatcher::Program(p) => p.classify(data),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::iplang::parse_ipfilter_config;
    use crate::optimize::optimize;
    use crate::pattern::parse_classifier_config;

    fn tree_of(config: &str) -> DecisionTree {
        let rules = parse_classifier_config(config).unwrap();
        let n = rules.len();
        build_tree(&rules, n)
    }

    #[test]
    fn fig3_specializes_to_single_check() {
        let m = FastMatcher::compile(&tree_of("12/0800, -"));
        assert!(matches!(m, FastMatcher::SingleCheck { .. }));
        let mut pkt = [0u8; 64];
        pkt[12] = 0x08;
        assert_eq!(m.classify(&pkt), Some(0));
        pkt[12] = 0x86;
        assert_eq!(m.classify(&pkt), Some(1));
    }

    #[test]
    fn two_term_pattern_specializes_to_double_check() {
        let m = FastMatcher::compile(&tree_of("12/0806 20/0001"));
        assert!(matches!(m, FastMatcher::DoubleCheck { .. }));
        let mut pkt = [0u8; 64];
        pkt[12] = 0x08;
        pkt[13] = 0x06;
        pkt[21] = 0x01;
        assert_eq!(m.classify(&pkt), Some(0));
        pkt[21] = 0x02;
        assert_eq!(m.classify(&pkt), None);
    }

    #[test]
    fn catchall_specializes_to_constant() {
        let m = FastMatcher::compile(&tree_of("-"));
        assert!(matches!(m, FastMatcher::Constant { .. }));
        assert_eq!(m.classify(&[]), Some(0));
    }

    #[test]
    fn complex_tree_falls_back_to_program() {
        let rules = parse_ipfilter_config("allow tcp dst port 80, allow udp dst port 53, deny all")
            .unwrap();
        let tree = optimize(&build_tree(&rules, 1));
        let m = FastMatcher::compile(&tree);
        assert!(matches!(m, FastMatcher::Program(_)));
        let mut ip = vec![0u8; 40];
        ip[0] = 0x45;
        ip[9] = 17;
        ip[23] = 53;
        assert_eq!(m.classify(&ip), Some(0));
    }

    #[test]
    fn all_shapes_agree_with_tree() {
        for config in ["12/0800, -", "12/0806 20/0001", "-", "0/01, 4/02, 8/03, -"] {
            let tree = tree_of(config);
            let m = FastMatcher::compile(&tree);
            let mut pkt = vec![0u8; 64];
            for fill in 0u8..8 {
                for b in pkt.iter_mut() {
                    *b = fill.wrapping_mul(37);
                }
                pkt[12] = 0x08;
                assert_eq!(
                    m.classify(&pkt),
                    tree.classify(&pkt),
                    "config {config:?} fill {fill}"
                );
            }
        }
    }
}
