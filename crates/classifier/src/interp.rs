//! The tree-walking interpreter — unoptimized `Classifier` semantics.
//!
//! This mirrors the original `Classifier::push` inner loop (paper Figure
//! 3a): classification chases pointers through individually heap-allocated
//! decision nodes laid out wherever the allocator put them. That layout is
//! the point — it reproduces the data-cache behavior `click-fastclassifier`
//! eliminates. [`crate::diagram::DecisionDiagram`] is the specialized
//! form.

use crate::tree::{DecisionTree, Step};
use std::rc::Rc;

/// One heap-allocated decision node.
#[derive(Debug)]
struct Node {
    offset: u32,
    mask: u32,
    value: u32,
    yes: Link,
    no: Link,
}

/// A branch target.
#[derive(Debug, Clone)]
enum Link {
    Node(Rc<Node>),
    Output(usize),
    Drop,
}

/// A pointer-chasing classifier, built from a [`DecisionTree`].
///
/// # Examples
///
/// ```
/// use click_classifier::build::build_tree;
/// use click_classifier::pattern::parse_classifier_config;
/// use click_classifier::interp::TreeClassifier;
///
/// let rules = parse_classifier_config("12/0800, -")?;
/// let tree = build_tree(&rules, 2);
/// let clf = TreeClassifier::new(&tree);
/// let mut pkt = [0u8; 64];
/// pkt[12] = 0x08;
/// assert_eq!(clf.classify(&pkt), Some(0));
/// # Ok::<(), click_core::Error>(())
/// ```
#[derive(Debug)]
pub struct TreeClassifier {
    start: Link,
    safe_length: usize,
    noutputs: usize,
}

impl TreeClassifier {
    /// Builds the linked-node form of a decision tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree contains a cycle (builders never produce one).
    pub fn new(tree: &DecisionTree) -> TreeClassifier {
        assert!(tree.depth().is_some(), "decision tree must be acyclic");
        // Build nodes bottom-up, memoizing so shared subtrees stay shared.
        fn build(tree: &DecisionTree, s: Step, memo: &mut Vec<Option<Rc<Node>>>) -> Link {
            match s {
                Step::Output(o) => Link::Output(o),
                Step::Drop => Link::Drop,
                Step::Node(i) => {
                    if let Some(n) = &memo[i] {
                        return Link::Node(Rc::clone(n));
                    }
                    let e = &tree.exprs[i];
                    let yes = build(tree, e.yes, memo);
                    let no = build(tree, e.no, memo);
                    let node = Rc::new(Node {
                        offset: e.offset,
                        mask: e.mask,
                        value: e.value,
                        yes,
                        no,
                    });
                    memo[i] = Some(Rc::clone(&node));
                    Link::Node(node)
                }
            }
        }
        let mut memo = vec![None; tree.exprs.len()];
        TreeClassifier {
            start: build(tree, tree.start, &mut memo),
            safe_length: tree.safe_length(),
            noutputs: tree.noutputs,
        }
    }

    /// Classifies a packet, returning the output port or `None` for a drop.
    #[inline]
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        let mut link = &self.start;
        loop {
            match link {
                Link::Output(o) => return Some(*o),
                Link::Drop => return None,
                Link::Node(n) => {
                    let w = crate::tree::load_word(data, n.offset as usize);
                    link = if w & n.mask == n.value { &n.yes } else { &n.no };
                }
            }
        }
    }

    /// The minimum packet length at which no node reads past the end.
    pub fn safe_length(&self) -> usize {
        self.safe_length
    }

    /// Number of outputs.
    pub fn noutputs(&self) -> usize {
        self.noutputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_tree, Action, Rule};
    use crate::iplang::{parse_expr, parse_ipfilter_config};
    use crate::pattern::parse_classifier_config;

    #[test]
    fn matches_tree_semantics() {
        let rules =
            parse_classifier_config("12/0806 20/0001, 12/0806 20/0002, 12/0800, -").unwrap();
        let tree = build_tree(&rules, 4);
        let clf = TreeClassifier::new(&tree);
        let mut pkt = vec![0u8; 64];
        for (e1, e2, w) in [
            (0x08u8, 0x06u8, 0x01u8),
            (0x08, 0x06, 0x02),
            (0x08, 0x00, 0),
            (0x86, 0xDD, 0),
        ] {
            pkt[12] = e1;
            pkt[13] = e2;
            pkt[21] = w;
            assert_eq!(clf.classify(&pkt), tree.classify(&pkt));
        }
    }

    #[test]
    fn drop_semantics() {
        let rules = parse_ipfilter_config("allow tcp, deny all").unwrap();
        let tree = build_tree(&rules, 1);
        let clf = TreeClassifier::new(&tree);
        let mut ip = vec![0u8; 40];
        ip[0] = 0x45;
        ip[9] = 6;
        assert_eq!(clf.classify(&ip), Some(0));
        ip[9] = 17;
        assert_eq!(clf.classify(&ip), None);
    }

    #[test]
    fn shared_subtrees_stay_shared() {
        // An Or produces a shared yes-target; the Rc build must memoize.
        let rules = vec![Rule {
            cond: parse_expr("tcp or udp").unwrap(),
            action: Action::Emit(0),
        }];
        let tree = build_tree(&rules, 1);
        let clf = TreeClassifier::new(&tree);
        let mut ip = vec![0u8; 40];
        ip[9] = 17;
        assert_eq!(clf.classify(&ip), Some(0));
    }

    #[test]
    fn metadata_preserved() {
        let rules = parse_classifier_config("12/0800, -").unwrap();
        let tree = build_tree(&rules, 2);
        let clf = TreeClassifier::new(&tree);
        assert_eq!(clf.safe_length(), tree.safe_length());
        assert_eq!(clf.noutputs(), 2);
    }
}
