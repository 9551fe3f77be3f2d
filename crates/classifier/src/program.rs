//! Flat compiled classifier programs — the `click-fastclassifier` target.
//!
//! Where the tree interpreter chases pointers through heap nodes, a
//! [`ClassifierProgram`] lays the whole decision structure out in one
//! contiguous array of fixed-size instructions with all constants inlined,
//! "so there is no tree to access" (paper §4): traversal touches a single
//! small allocation that stays resident in cache.
//!
//! `click-fastclassifier` emits decision diagrams, not programs: this
//! form stays as the paper's §4 firewall reproduction's tree runtime
//! (through [`crate::fast::FastMatcher`]).

use crate::tree::{DecisionTree, Expr, Step};

/// Branch target encoding: non-negative values are instruction indices;
/// negative values encode outcomes.
type Target = i32;

const DROP: Target = -1;

fn encode(step: Step) -> Target {
    match step {
        Step::Node(i) => i as Target,
        Step::Output(o) => -2 - (o as Target),
        Step::Drop => DROP,
    }
}

fn decode(t: Target) -> Step {
    if t >= 0 {
        Step::Node(t as usize)
    } else if t == DROP {
        Step::Drop
    } else {
        Step::Output((-2 - t) as usize)
    }
}

/// One compiled instruction. 20 bytes, stored contiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Word-aligned byte offset to load.
    pub offset: u32,
    /// Mask applied to the word.
    pub mask: u32,
    /// Value compared against.
    pub value: u32,
    /// Target when the comparison succeeds.
    pub yes: Target,
    /// Target when it fails.
    pub no: Target,
}

/// A compiled classifier: contiguous instructions plus entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifierProgram {
    instrs: Vec<Instr>,
    start: Target,
    safe_length: usize,
}

impl ClassifierProgram {
    /// Compiles a decision tree, laying instructions out in depth-first
    /// "hot path first" order (the yes-chain of each node is adjacent).
    ///
    /// # Panics
    ///
    /// Panics if the tree is cyclic.
    pub fn compile(tree: &DecisionTree) -> ClassifierProgram {
        assert!(tree.depth().is_some(), "decision tree must be acyclic");
        // DFS preorder following yes before no, so likely-taken paths are
        // sequential in memory.
        let mut order = Vec::new();
        let mut place = vec![usize::MAX; tree.exprs.len()];
        fn dfs(tree: &DecisionTree, s: Step, order: &mut Vec<usize>, place: &mut [usize]) {
            if let Step::Node(i) = s {
                if place[i] != usize::MAX {
                    return;
                }
                place[i] = order.len();
                order.push(i);
                dfs(tree, tree.exprs[i].yes, order, place);
                dfs(tree, tree.exprs[i].no, order, place);
            }
        }
        dfs(tree, tree.start, &mut order, &mut place);
        let remap = |s: Step| -> Step {
            match s {
                Step::Node(i) => Step::Node(place[i]),
                other => other,
            }
        };
        let instrs: Vec<Instr> = order
            .iter()
            .map(|&i| {
                let e: &Expr = &tree.exprs[i];
                Instr {
                    offset: e.offset,
                    mask: e.mask,
                    value: e.value,
                    yes: encode(remap(e.yes)),
                    no: encode(remap(e.no)),
                }
            })
            .collect();
        ClassifierProgram {
            instrs,
            start: encode(remap(tree.start)),
            safe_length: tree.safe_length(),
        }
    }

    /// Classifies a packet. Returns the output port or `None` for a drop.
    #[inline]
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        if data.len() < self.safe_length {
            return self.classify_checked(data);
        }
        let mut t = self.start;
        let instrs = self.instrs.as_slice();
        while t >= 0 {
            let Some(ins) = instrs.get(t as usize) else {
                break;
            };
            let off = ins.offset as usize;
            let Some(bytes) = data.get(off..off + 4) else {
                break;
            };
            let w = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            t = if w & ins.mask == ins.value {
                ins.yes
            } else {
                ins.no
            };
        }
        match decode(t) {
            Step::Output(o) => Some(o),
            _ => None,
        }
    }

    /// Classification for packets shorter than `safe_length`;
    /// out-of-range loads read zero padding, matching tree semantics.
    fn classify_checked(&self, data: &[u8]) -> Option<usize> {
        let mut t = self.start;
        while t >= 0 {
            let ins = &self.instrs[t as usize];
            let w = crate::tree::load_word(data, ins.offset as usize);
            t = if w & ins.mask == ins.value {
                ins.yes
            } else {
                ins.no
            };
        }
        match decode(t) {
            Step::Output(o) => Some(o),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::pattern::parse_classifier_config;

    fn fig3_program() -> ClassifierProgram {
        let rules = parse_classifier_config("12/0800, -").unwrap();
        ClassifierProgram::compile(&build_tree(&rules, 2))
    }

    #[test]
    fn program_matches_tree() {
        let rules =
            parse_classifier_config("12/0806 20/0001, 12/0806 20/0002, 12/0800, -").unwrap();
        let tree = build_tree(&rules, 4);
        let prog = ClassifierProgram::compile(&tree);
        let mut pkt = vec![0u8; 64];
        for b12 in [0x08u8, 0x86] {
            for b13 in [0x00u8, 0x06] {
                for b21 in [0u8, 1, 2] {
                    pkt[12] = b12;
                    pkt[13] = b13;
                    pkt[21] = b21;
                    assert_eq!(prog.classify(&pkt), tree.classify(&pkt));
                }
            }
        }
    }

    #[test]
    fn short_packets_use_checked_path() {
        let prog = fig3_program();
        assert_eq!(prog.safe_length, 16);
        assert_eq!(prog.classify(&[0u8; 10]), Some(1));
        let mut p = vec![0u8; 14];
        p[12] = 0x08;
        assert_eq!(prog.classify(&p), Some(0));
    }

    #[test]
    fn hot_path_layout_is_sequential() {
        // After compilation, node 0's yes-successor should be node 1
        // whenever the yes branch is an internal node.
        let rules = parse_classifier_config("0/01 4/02 8/03, -").unwrap();
        let prog = ClassifierProgram::compile(&build_tree(&rules, 2));
        for (i, ins) in prog.instrs.iter().enumerate() {
            if ins.yes >= 0 {
                assert_eq!(ins.yes as usize, i + 1, "yes chain should be adjacent");
            }
        }
    }

    #[test]
    fn trivial_program() {
        let prog = ClassifierProgram::compile(&DecisionTree::all_match(0));
        assert!(prog.instrs.is_empty());
        assert_eq!(prog.classify(&[]), Some(0));
        let drop = ClassifierProgram::compile(&DecisionTree::drop_all());
        assert_eq!(drop.classify(&[1, 2, 3]), None);
    }
}
