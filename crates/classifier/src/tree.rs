//! Decision trees.
//!
//! A classifier compiles its textual specification into a decision tree of
//! word-compare nodes (paper §3, Figure 3a): each node loads a 32-bit word
//! at a fixed offset into the packet, masks it, compares against an inlined
//! value, and branches. Leaves either emit the packet on an output port or
//! drop it.
//!
//! This module holds the analyzable, index-based form of the tree: what
//! the generic classifier elements walk, what [`crate::optimize`]
//! rewrites, and what the cost model counts comparisons on.

use click_core::error::{Error, Result};

/// Where a branch goes: another node, an output port, or the drop action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Continue at the node with this index.
    Node(usize),
    /// Emit the packet on this output port.
    Output(usize),
    /// Drop the packet (no pattern matched).
    Drop,
}

/// One decision node: `if (word(packet, offset) & mask) == value`.
///
/// `offset` is a byte offset, always a multiple of 4 (trees operate on
/// aligned 32-bit words, like Click's `Expr`). The word is read big-endian,
/// so masks and values read naturally in network byte order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Expr {
    /// Word-aligned byte offset into the packet data.
    pub offset: u32,
    /// Mask applied to the loaded word.
    pub mask: u32,
    /// Value compared against the masked word.
    pub value: u32,
    /// Branch taken on a match.
    pub yes: Step,
    /// Branch taken on a mismatch.
    pub no: Step,
}

/// A complete decision tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTree {
    /// The nodes. Indices in [`Step::Node`] refer into this vector.
    pub exprs: Vec<Expr>,
    /// Where classification starts.
    pub start: Step,
    /// Number of output ports the tree can emit on.
    pub noutputs: usize,
}

impl DecisionTree {
    /// A tree that sends every packet to `output`.
    pub fn all_match(output: usize) -> DecisionTree {
        DecisionTree {
            exprs: Vec::new(),
            start: Step::Output(output),
            noutputs: output + 1,
        }
    }

    /// A tree that drops every packet.
    pub fn drop_all() -> DecisionTree {
        DecisionTree {
            exprs: Vec::new(),
            start: Step::Drop,
            noutputs: 0,
        }
    }

    /// The minimum packet length (in bytes) that every node access stays
    /// within: `max(offset + 4)` over all nodes, or 0 for an empty tree.
    pub fn safe_length(&self) -> usize {
        self.exprs
            .iter()
            .map(|e| e.offset as usize + 4)
            .max()
            .unwrap_or(0)
    }

    /// Classifies a packet by interpreting the tree in index form.
    ///
    /// Returns the output port, or `None` for a drop. Packets shorter than
    /// an accessed word fail that node's comparison unless the mask covers
    /// only bytes that are present.
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        let mut step = self.start;
        loop {
            match step {
                Step::Output(o) => return Some(o),
                Step::Drop => return None,
                Step::Node(i) => {
                    let e = &self.exprs[i];
                    let w = load_word(data, e.offset as usize);
                    step = if w & e.mask == e.value { e.yes } else { e.no };
                }
            }
        }
    }

    /// Validates internal consistency: node indices in range, offsets
    /// word-aligned, `value` a subset of `mask`, and outputs within
    /// `noutputs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        let check_step = |s: Step, what: &str| -> Result<()> {
            match s {
                Step::Node(i) if i >= self.exprs.len() => {
                    Err(Error::spec(format!("{what}: node index {i} out of range")))
                }
                Step::Output(o) if o >= self.noutputs => {
                    Err(Error::spec(format!("{what}: output {o} out of range")))
                }
                _ => Ok(()),
            }
        };
        check_step(self.start, "start")?;
        for (i, e) in self.exprs.iter().enumerate() {
            if e.offset % 4 != 0 {
                return Err(Error::spec(format!(
                    "node {i}: offset {} not word-aligned",
                    e.offset
                )));
            }
            if e.value & !e.mask != 0 {
                return Err(Error::spec(format!(
                    "node {i}: value has bits outside mask"
                )));
            }
            check_step(e.yes, &format!("node {i} yes"))?;
            check_step(e.no, &format!("node {i} no"))?;
        }
        Ok(())
    }

    /// Counts nodes reachable from `start`.
    pub fn reachable_count(&self) -> usize {
        let mut seen = vec![false; self.exprs.len()];
        let mut stack = vec![self.start];
        let mut count = 0;
        while let Some(s) = stack.pop() {
            if let Step::Node(i) = s {
                if !seen[i] {
                    seen[i] = true;
                    count += 1;
                    stack.push(self.exprs[i].yes);
                    stack.push(self.exprs[i].no);
                }
            }
        }
        count
    }

    /// The maximum number of comparisons any packet can incur, or `None`
    /// if the tree contains a cycle (which [`validate`](Self::validate)
    /// does not forbid but builders never produce).
    pub fn depth(&self) -> Option<usize> {
        // Longest path in a DAG via memoized DFS with cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unvisited,
            InProgress,
            Done(usize),
        }
        fn walk(exprs: &[Expr], s: Step, state: &mut [State]) -> Option<usize> {
            match s {
                Step::Output(_) | Step::Drop => Some(0),
                Step::Node(i) => match state[i] {
                    State::InProgress => None,
                    State::Done(d) => Some(d),
                    State::Unvisited => {
                        state[i] = State::InProgress;
                        let y = walk(exprs, exprs[i].yes, state)?;
                        let n = walk(exprs, exprs[i].no, state)?;
                        let d = 1 + y.max(n);
                        state[i] = State::Done(d);
                        Some(d)
                    }
                },
            }
        }
        let mut state = vec![State::Unvisited; self.exprs.len()];
        walk(&self.exprs, self.start, &mut state)
    }
}

/// Loads a big-endian 32-bit word at `offset`, zero-padding past the end of
/// the packet.
#[inline]
pub fn load_word(data: &[u8], offset: usize) -> u32 {
    if let Some(chunk) = data.get(offset..offset + 4) {
        u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]])
    } else {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = data.get(offset + i).copied().unwrap_or(0);
        }
        u32::from_be_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 example: `Classifier(12/0800, -)` — ethertype
    /// IP goes to output 0, everything else to output 1.
    pub(crate) fn fig3_tree() -> DecisionTree {
        DecisionTree {
            exprs: vec![Expr {
                offset: 12,
                mask: 0xFFFF_0000,
                value: 0x0800_0000,
                yes: Step::Output(0),
                no: Step::Output(1),
            }],
            start: Step::Node(0),
            noutputs: 2,
        }
    }

    #[test]
    fn classify_fig3() {
        let t = fig3_tree();
        let mut pkt = [0u8; 64];
        pkt[12] = 0x08;
        pkt[13] = 0x00;
        assert_eq!(t.classify(&pkt), Some(0));
        pkt[13] = 0x06; // ARP
        assert_eq!(t.classify(&pkt), Some(1));
    }

    #[test]
    fn short_packet_reads_zero_padded() {
        let t = fig3_tree();
        assert_eq!(t.classify(&[0u8; 13]), Some(1));
        assert_eq!(t.classify(&[]), Some(1));
        // A 14-byte packet contains the ethertype bytes.
        let mut pkt = [0u8; 14];
        pkt[12] = 0x08;
        assert_eq!(t.classify(&pkt), Some(0));
    }

    #[test]
    fn all_match_and_drop_all() {
        assert_eq!(DecisionTree::all_match(3).classify(&[]), Some(3));
        assert_eq!(DecisionTree::drop_all().classify(&[1, 2, 3]), None);
    }

    #[test]
    fn safe_length() {
        assert_eq!(fig3_tree().safe_length(), 16);
        assert_eq!(DecisionTree::all_match(0).safe_length(), 0);
    }

    #[test]
    fn validate_catches_problems() {
        let mut t = fig3_tree();
        t.exprs[0].offset = 13;
        assert!(t.validate().is_err());

        let mut t = fig3_tree();
        t.exprs[0].value = 0x1234_5678; // bits outside mask
        assert!(t.validate().is_err());

        let mut t = fig3_tree();
        t.exprs[0].yes = Step::Node(7);
        assert!(t.validate().is_err());

        let mut t = fig3_tree();
        t.exprs[0].yes = Step::Output(5);
        assert!(t.validate().is_err());
    }

    #[test]
    fn depth_and_reachability() {
        let t = fig3_tree();
        assert_eq!(t.depth(), Some(1));
        assert_eq!(t.reachable_count(), 1);

        let chain = DecisionTree {
            exprs: vec![
                Expr {
                    offset: 0,
                    mask: 0xFF,
                    value: 1,
                    yes: Step::Node(1),
                    no: Step::Drop,
                },
                Expr {
                    offset: 4,
                    mask: 0xFF,
                    value: 2,
                    yes: Step::Output(0),
                    no: Step::Drop,
                },
            ],
            start: Step::Node(0),
            noutputs: 1,
        };
        assert_eq!(chain.depth(), Some(2));

        let cyclic = DecisionTree {
            exprs: vec![Expr {
                offset: 0,
                mask: 1,
                value: 1,
                yes: Step::Node(0),
                no: Step::Drop,
            }],
            start: Step::Node(0),
            noutputs: 1,
        };
        assert_eq!(cyclic.depth(), None);
    }

    #[test]
    fn load_word_is_big_endian() {
        assert_eq!(load_word(&[0x12, 0x34, 0x56, 0x78], 0), 0x1234_5678);
        assert_eq!(load_word(&[0, 0, 0, 0, 0xAB], 4), 0xAB00_0000);
    }
}
