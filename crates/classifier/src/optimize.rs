//! Decision-tree optimization.
//!
//! The paper (§3): "we implemented an extensive set of decision tree
//! optimizations, similar to BPF+'s, to optimize them further." This module
//! implements the data-flow flavor of those optimizations:
//!
//! * **redundant-predicate elimination** — walking the tree, each path
//!   accumulates facts about words already tested; a node whose outcome is
//!   implied by the path's facts is bypassed;
//! * **subtree sharing (hash-consing)** — structurally identical subtrees
//!   collapse to a single node;
//! * **dead-node elimination** — only nodes reachable from the start
//!   survive.
//!
//! The rewrite never changes classification results (property-tested in
//! this crate's test suite).
//!
//! Cost: the rewrite visits each distinct (node, facts-on-the-path) state
//! once and spends O(1) hashing plus the facts *at that node's offset* on
//! it. The node budget bounds the size of the output, not the number of
//! states: a tree whose nodes are reached under many different fact sets
//! still takes time proportional to that number.

use crate::tree::{DecisionTree, Expr, Step};
use std::collections::{HashMap, HashSet};

/// One word comparison whose outcome a path knows: `(offset, mask, value)`.
type Fact = (u32, u32, u32);

/// Interned fact sequences: a sequence is its parent sequence plus one
/// fact, so two paths hold the same id exactly when they accumulated the
/// same facts in the same order. Id 0 is the empty sequence.
#[derive(Default)]
struct Chains(HashMap<(u32, Fact), u32>);

impl Chains {
    fn extend(&mut self, parent: u32, fact: Fact) -> u32 {
        let next = self.0.len() as u32 + 1;
        *self.0.entry((parent, fact)).or_insert(next)
    }
}

struct Optimizer<'a> {
    tree: &'a DecisionTree,
    out: Vec<Expr>,
    /// Hash-consing table: node shape → index in `out`.
    interned: HashMap<Expr, usize>,
    /// Memoized rewrites: (original node, comparisons known to have
    /// succeeded, comparisons known to have failed) → rewritten step.
    memo: HashMap<(usize, u32, u32), Step>,
    succeeded: Chains,
    failed: Chains,
    /// The facts of the path being walked, indexed for `decide`: the
    /// `(mask, value)` of each succeeded comparison by offset, oldest
    /// first, and the set of failed comparisons.
    succeeded_at: HashMap<u32, Vec<(u32, u32)>>,
    failed_now: HashSet<Fact>,
    budget: usize,
}

impl<'a> Optimizer<'a> {
    fn new(tree: &'a DecisionTree) -> Optimizer<'a> {
        Optimizer {
            tree,
            out: Vec::new(),
            interned: HashMap::new(),
            memo: HashMap::new(),
            succeeded: Chains::default(),
            failed: Chains::default(),
            succeeded_at: HashMap::new(),
            failed_now: HashSet::new(),
            budget: node_budget(tree),
        }
    }

    /// Decides a node's outcome from the current path's facts, if possible.
    fn decide(&self, e: &Expr) -> Option<bool> {
        for &(mask, value) in self.succeeded_at.get(&e.offset).into_iter().flatten() {
            let common = mask & e.mask;
            if common != 0 && (value & common) != (e.value & common) {
                // A bit the fact pins down disagrees with this node's
                // expectation: the comparison must fail.
                return Some(false);
            }
            if common == e.mask {
                // The fact covers every bit this node tests.
                return Some((value & e.mask) == e.value);
            }
        }
        self.failed_now
            .contains(&(e.offset, e.mask, e.value))
            .then_some(false)
    }

    /// Rewrites `step` under the current path's facts, whose interned
    /// sequences are `succeeded` and `failed`.
    fn rewrite(&mut self, step: Step, succeeded: u32, failed: u32) -> Option<Step> {
        let Step::Node(i) = step else {
            return Some(step);
        };
        let k = (i, succeeded, failed);
        if let Some(&s) = self.memo.get(&k) {
            return Some(s);
        }
        let e = self.tree.exprs[i];
        let result = match self.decide(&e) {
            Some(true) => self.rewrite(e.yes, succeeded, failed)?,
            Some(false) => self.rewrite(e.no, succeeded, failed)?,
            None => {
                let fact = (e.offset, e.mask, e.value);
                let at_offset = self.succeeded_at.entry(e.offset).or_default();
                at_offset.push((e.mask, e.value));
                let assumed = self.succeeded.extend(succeeded, fact);
                let yes = self.rewrite(e.yes, assumed, failed)?;
                self.succeeded_at
                    .get_mut(&e.offset)
                    .expect("pushed above")
                    .pop();

                self.failed_now.insert(fact);
                let assumed = self.failed.extend(failed, fact);
                let no = self.rewrite(e.no, succeeded, assumed)?;
                self.failed_now.remove(&fact);

                if yes == no {
                    // Both branches agree: the test is pointless.
                    yes
                } else {
                    let shape = Expr { yes, no, ..e };
                    let idx = match self.interned.get(&shape) {
                        Some(&idx) => idx,
                        None => {
                            if self.out.len() >= self.budget {
                                return None;
                            }
                            self.out.push(shape);
                            self.interned.insert(shape, self.out.len() - 1);
                            self.out.len() - 1
                        }
                    };
                    Step::Node(idx)
                }
            }
        };
        self.memo.insert(k, result);
        Some(result)
    }
}

/// The node budget of a rewrite: path-sensitive expansion may not blow
/// the tree up beyond this many nodes.
fn node_budget(tree: &DecisionTree) -> usize {
    (tree.exprs.len() * 4).max(64)
}

/// Keeps a rewrite only if it actually helped (fewer nodes or shallower),
/// so callers can rely on `optimize` being monotone.
fn keep_if_better(tree: &DecisionTree, rewritten: Option<(Vec<Expr>, Step)>) -> DecisionTree {
    let Some((exprs, start)) = rewritten else {
        return tree.clone();
    };
    let result = DecisionTree {
        exprs,
        start,
        noutputs: tree.noutputs,
    };
    debug_assert!(result.validate().is_ok());
    if result.exprs.len() <= tree.exprs.len() || result.depth() < tree.depth() {
        result
    } else {
        tree.clone()
    }
}

/// Optimizes a decision tree. Classification behavior is preserved exactly.
///
/// If the input contains a cycle, or path-sensitive rewriting would exceed
/// an internal node budget, the input is returned unchanged.
///
/// # Examples
///
/// ```
/// use click_classifier::build::{build_tree, Action, Rule};
/// use click_classifier::iplang::parse_expr;
/// use click_classifier::optimize::optimize;
///
/// // Two rules that both re-test the protocol word.
/// let rules = vec![
///     Rule { cond: parse_expr("tcp dst port 25")?, action: Action::Emit(0) },
///     Rule { cond: parse_expr("tcp dst port 80")?, action: Action::Emit(0) },
///     Rule { cond: parse_expr("all")?, action: Action::Drop },
/// ];
/// let tree = build_tree(&rules, 1);
/// let opt = optimize(&tree);
/// assert!(opt.exprs.len() <= tree.exprs.len());
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn optimize(tree: &DecisionTree) -> DecisionTree {
    if tree.depth().is_none() {
        return tree.clone(); // cyclic: refuse to touch
    }
    let mut opt = Optimizer::new(tree);
    let start = opt.rewrite(tree.start, 0, 0);
    keep_if_better(tree, start.map(|start| (opt.out, start)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_tree, Action, Check, Cond, Rule};
    use crate::iplang::parse_expr;

    fn ip_packet(proto: u8, src: [u8; 4], dst: [u8; 4], sport: u16, dport: u16) -> Vec<u8> {
        let mut p = vec![0u8; 40];
        p[0] = 0x45;
        p[9] = proto;
        p[12..16].copy_from_slice(&src);
        p[16..20].copy_from_slice(&dst);
        p[20..22].copy_from_slice(&sport.to_be_bytes());
        p[22..24].copy_from_slice(&dport.to_be_bytes());
        p
    }

    #[test]
    fn removes_repeated_identical_checks() {
        // Rule chain that tests the same word twice on the success path.
        let c = Check::new(0, 0xFF00_0000, 0x4500_0000);
        let rules = vec![Rule {
            cond: Cond::And(vec![Cond::Check(c), Cond::Check(c)]),
            action: Action::Emit(0),
        }];
        let tree = build_tree(&rules, 1);
        assert_eq!(tree.exprs.len(), 2);
        let opt = optimize(&tree);
        assert_eq!(opt.reachable_count(), 1);
    }

    #[test]
    fn contradiction_prunes_branch() {
        // First rule: proto == TCP. Second rule (reached only when the
        // first failed... but on its yes-path): proto == UDP is impossible
        // after proto == TCP succeeded.
        let tcp = Check::new(8, 0x00FF_0000, 6 << 16);
        let udp = Check::new(8, 0x00FF_0000, 17 << 16);
        let rules = vec![Rule {
            cond: Cond::And(vec![Cond::Check(tcp), Cond::Check(udp)]),
            action: Action::Emit(0),
        }];
        let tree = build_tree(&rules, 1);
        let opt = optimize(&tree);
        // The contradiction makes the whole rule unsatisfiable: no nodes
        // needed at all, or at most the first check.
        assert!(opt.depth().unwrap() <= 1);
        assert_eq!(opt.classify(&ip_packet(6, [0; 4], [0; 4], 0, 0)), None);
    }

    #[test]
    fn subsumption_through_wider_mask() {
        // Knowing the full first word pins down the version nibble.
        let full = Check::new(0, 0xFFFF_FFFF, 0x4500_0040);
        let vers = Check::new(0, 0xF000_0000, 0x4000_0000);
        let rules = vec![Rule {
            cond: Cond::And(vec![Cond::Check(full), Cond::Check(vers)]),
            action: Action::Emit(0),
        }];
        let tree = build_tree(&rules, 1);
        let opt = optimize(&tree);
        assert_eq!(opt.reachable_count(), 1);
    }

    #[test]
    fn preserves_semantics_on_firewall_like_rules() {
        let rules = vec![
            Rule {
                cond: parse_expr("src net 127.0.0.0/8").unwrap(),
                action: Action::Drop,
            },
            Rule {
                cond: parse_expr("dst host 10.0.0.2 and tcp dst port 25").unwrap(),
                action: Action::Emit(0),
            },
            Rule {
                cond: parse_expr("dst host 10.0.0.3 and udp dst port 53").unwrap(),
                action: Action::Emit(0),
            },
            Rule {
                cond: parse_expr("icmp type 8").unwrap(),
                action: Action::Emit(0),
            },
            Rule {
                cond: parse_expr("all").unwrap(),
                action: Action::Drop,
            },
        ];
        let tree = build_tree(&rules, 1);
        let opt = optimize(&tree);
        let packets = [
            ip_packet(6, [127, 0, 0, 1], [10, 0, 0, 2], 1, 25),
            ip_packet(6, [9, 9, 9, 9], [10, 0, 0, 2], 1, 25),
            ip_packet(17, [9, 9, 9, 9], [10, 0, 0, 3], 1, 53),
            ip_packet(17, [9, 9, 9, 9], [10, 0, 0, 3], 1, 54),
            ip_packet(1, [9, 9, 9, 9], [8, 8, 8, 8], 0x0800, 0),
            ip_packet(6, [9, 9, 9, 9], [8, 8, 8, 8], 1, 2),
        ];
        for p in &packets {
            assert_eq!(tree.classify(p), opt.classify(p), "packet {p:?}");
        }
    }

    #[test]
    fn optimized_tree_is_not_larger() {
        let rules = vec![
            Rule {
                cond: parse_expr("tcp dst port 25").unwrap(),
                action: Action::Emit(0),
            },
            Rule {
                cond: parse_expr("tcp dst port 80").unwrap(),
                action: Action::Emit(1),
            },
            Rule {
                cond: parse_expr("udp dst port 53").unwrap(),
                action: Action::Emit(2),
            },
            Rule {
                cond: parse_expr("all").unwrap(),
                action: Action::Emit(3),
            },
        ];
        let tree = build_tree(&rules, 4);
        let opt = optimize(&tree);
        assert!(opt.exprs.len() <= tree.exprs.len());
        assert!(opt.validate().is_ok());
    }

    #[test]
    fn shares_identical_subtrees() {
        // Two rules with different first checks but identical continuations.
        let a = Check::new(0, 0xFF, 1);
        let b = Check::new(0, 0xFF, 2);
        let tail = Check::new(4, 0xFF, 3);
        let rules = vec![
            Rule {
                cond: Cond::And(vec![Cond::Check(a), Cond::Check(tail)]),
                action: Action::Emit(0),
            },
            Rule {
                cond: Cond::And(vec![Cond::Check(b), Cond::Check(tail)]),
                action: Action::Emit(0),
            },
        ];
        let tree = build_tree(&rules, 1);
        let opt = optimize(&tree);
        // The `tail -> Emit(0)` subtree should appear once, not twice...
        // except the drop continuations differ. At minimum the rewrite
        // should not duplicate beyond the original size.
        assert!(opt.exprs.len() <= tree.exprs.len());
    }

    #[test]
    fn trivial_trees_pass_through() {
        let t = DecisionTree::all_match(0);
        assert_eq!(optimize(&t), t);
        let d = DecisionTree::drop_all();
        assert_eq!(optimize(&d), d);
    }

    #[test]
    fn cyclic_tree_returned_unchanged() {
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
        assert_eq!(optimize(&cyclic), cyclic);
    }

    /// The optimizer as first written: path facts are two growing vectors,
    /// cloned per child and hashed in full per memo lookup. Quadratic and
    /// worse, but plainly right; `optimize` must return the identical tree.
    mod reference {
        use super::super::{keep_if_better, node_budget};
        use crate::tree::{DecisionTree, Expr, Step};
        use std::collections::HashMap;

        #[derive(Clone, Default, PartialEq, Eq, Hash)]
        struct Facts {
            equal: Vec<(u32, u32, u32)>,
            not_equal: Vec<(u32, u32, u32)>,
        }

        impl Facts {
            fn decide(&self, e: &Expr) -> Option<bool> {
                for &(off, mask, value) in &self.equal {
                    if off != e.offset {
                        continue;
                    }
                    let common = mask & e.mask;
                    if common != 0 && (value & common) != (e.value & common) {
                        return Some(false);
                    }
                    if common == e.mask {
                        return Some((value & e.mask) == e.value);
                    }
                }
                let same = |f: &(u32, u32, u32)| *f == (e.offset, e.mask, e.value);
                self.not_equal.iter().any(same).then_some(false)
            }
        }

        struct Optimizer<'a> {
            tree: &'a DecisionTree,
            out: Vec<Expr>,
            interned: HashMap<Expr, usize>,
            memo: HashMap<(Step, Facts), Step>,
            budget: usize,
        }

        impl Optimizer<'_> {
            fn rewrite(&mut self, step: Step, facts: &Facts) -> Option<Step> {
                let k = (step, facts.clone());
                if let Some(&s) = self.memo.get(&k) {
                    return Some(s);
                }
                let result = match step {
                    Step::Output(_) | Step::Drop => step,
                    Step::Node(i) => {
                        let e = self.tree.exprs[i];
                        match facts.decide(&e) {
                            Some(true) => self.rewrite(e.yes, facts)?,
                            Some(false) => self.rewrite(e.no, facts)?,
                            None => {
                                let fact = (e.offset, e.mask, e.value);
                                let mut assumed = facts.clone();
                                assumed.equal.push(fact);
                                let yes = self.rewrite(e.yes, &assumed)?;
                                let mut assumed = facts.clone();
                                assumed.not_equal.push(fact);
                                let no = self.rewrite(e.no, &assumed)?;
                                if yes == no {
                                    yes
                                } else {
                                    let shape = Expr { yes, no, ..e };
                                    let idx = match self.interned.get(&shape) {
                                        Some(&idx) => idx,
                                        None => {
                                            if self.out.len() >= self.budget {
                                                return None;
                                            }
                                            self.out.push(shape);
                                            self.interned.insert(shape, self.out.len() - 1);
                                            self.out.len() - 1
                                        }
                                    };
                                    Step::Node(idx)
                                }
                            }
                        }
                    }
                };
                self.memo.insert(k, result);
                Some(result)
            }
        }

        pub fn optimize(tree: &DecisionTree) -> DecisionTree {
            if tree.depth().is_none() {
                return tree.clone();
            }
            let mut opt = Optimizer {
                tree,
                out: Vec::new(),
                interned: HashMap::new(),
                memo: HashMap::new(),
                budget: node_budget(tree),
            };
            let start = opt.rewrite(tree.start, &Facts::default());
            keep_if_better(tree, start.map(|start| (opt.out, start)))
        }
    }

    /// Seeded rule text for each classifier class: overlapping nets, ports
    /// and protocols, so paths share, contradict and subsume facts.
    fn seeded_config(class: &str, rules: usize, seed: u64) -> String {
        let mut lcg = click_core::Lcg::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut rand = move |n: u64| lcg.next() % n;
        let mut args: Vec<String> = (1..rules)
            .map(|_| match class {
                "Classifier" => match rand(3) {
                    0 => format!("12/0800 23/{:02x}", [1, 6, 17][rand(3) as usize]),
                    1 => format!("12/0800 30/c0a8{:02x}%ffff{:02x}", rand(8), [0xff, 0xf0][rand(2) as usize]),
                    _ => format!("12/08{:02x} 20/{:04x}", rand(3) * 6, rand(16)),
                },
                _ => {
                    let verdict = match class {
                        "IPFilter" => ["allow ", "deny "][rand(2) as usize],
                        _ => "",
                    };
                    let proto = ["tcp", "udp"][rand(2) as usize];
                    match rand(4) {
                        0 => format!("{verdict}src net 172.{}.{}.0/24 && {proto} dst port {}", 16 + rand(4), rand(8), 1 + rand(64)),
                        1 => format!("{verdict}dst net 192.168.{}.0/24 && src net 172.{}.0.0/16", rand(8), 16 + rand(4)),
                        2 => format!("{verdict}dst host 10.0.{}.{} && {proto} src port {}", rand(2), rand(8), 1 + rand(16)),
                        _ => format!("{verdict}src net 172.{}.{}.0/24 && dst net 192.168.{}.0/24 && tcp dst port {}", 16 + rand(16), rand(48), rand(48), 1 + rand(1024)),
                    }
                }
            })
            .collect();
        args.push(match class {
            "IPFilter" => "allow all".to_owned(),
            _ => "-".to_owned(),
        });
        args.join(", ")
    }

    #[test]
    fn identical_to_the_vec_facts_reference_on_seeded_rule_sets() {
        for (class, sizes) in [
            ("Classifier", &[10usize, 100, 400][..]),
            ("IPClassifier", &[10, 60, 150]),
            ("IPFilter", &[10, 60, 150]),
        ] {
            for (seed, &n) in sizes.iter().enumerate() {
                let config = seeded_config(class, n, seed as u64 + 1);
                let rules = crate::parse_rules(class, &config).unwrap();
                let tree = build_tree(&rules, crate::rules_noutputs(&rules));
                let opt = optimize(&tree);
                assert_eq!(opt, reference::optimize(&tree), "{class} x{n}");
                assert_ne!(opt, tree, "{class} x{n}: nothing was rewritten");
            }
        }
    }

    /// What `click-fastclassifier` builds when one classifier's output
    /// `port` feeds another classifier: `b` grafted onto that output.
    fn graft(a: &DecisionTree, port: usize, b: &DecisionTree) -> DecisionTree {
        let kept = a.noutputs - 1;
        let in_b = |s: Step| match s {
            Step::Output(o) => Step::Output(kept + o),
            other => other,
        };
        let in_a = |s: Step| match s {
            Step::Node(i) => Step::Node(i + b.exprs.len()),
            Step::Output(o) if o == port => in_b(b.start),
            Step::Output(o) if o > port => Step::Output(o - 1),
            other => other,
        };
        let relink = |e: &Expr, f: &dyn Fn(Step) -> Step| Expr {
            yes: f(e.yes),
            no: f(e.no),
            ..*e
        };
        let b_nodes = b.exprs.iter().map(|e| relink(e, &in_b));
        let a_nodes = a.exprs.iter().map(|e| relink(e, &in_a));
        DecisionTree {
            exprs: b_nodes.chain(a_nodes).collect(),
            start: in_a(a.start),
            noutputs: kept + b.noutputs,
        }
    }

    #[test]
    fn identical_to_the_vec_facts_reference_on_merged_trees() {
        // The downstream classifier re-tests words the upstream one already
        // decided, which is what merging exists to remove.
        let tree_of = |config: &str| {
            let rules = crate::parse_rules("Classifier", config).unwrap();
            build_tree(&rules, crate::rules_noutputs(&rules))
        };
        let a = tree_of(&seeded_config("Classifier", 40, 11));
        let b = tree_of(&seeded_config("Classifier", 60, 12));
        let c = tree_of("12/0800 23/06, 12/0800 23/11, 12/0806, -");
        for (port, downstream) in [(0, &b), (17, &b), (39, &b), (3, &c), (39, &c)] {
            let merged = graft(&a, port, downstream);
            merged.validate().unwrap();
            let twice = graft(&merged, merged.noutputs - 1, &c);
            for tree in [merged, twice] {
                let opt = optimize(&tree);
                assert_eq!(opt, reference::optimize(&tree), "graft at {port}");
                assert!(opt.exprs.len() < tree.exprs.len(), "graft at {port}");
            }
        }
    }

    #[test]
    fn identical_to_the_vec_facts_reference_when_the_budget_runs_out() {
        // OR over i of (A_i and B_i), decided by a tail that tests
        // A_0, B_0, A_1, B_1, ... — behind a head that tests all the A's and
        // then all the B's and passes through either way. Rewriting moves
        // the decision into the head's order, where it needs 2^K nodes.
        const K: usize = 8;
        let test = |var: usize, yes: Step, no: Step| Expr {
            offset: 4 * var as u32,
            mask: 0xFF,
            value: 1,
            yes,
            no,
        };
        let head = (0..2 * K).map(|v| test(v, Step::Node(v + 1), Step::Node(v + 1)));
        let tail = (0..K).flat_map(|i| {
            let next = match i + 1 {
                K => Step::Output(0),
                _ => Step::Node(2 * K + 2 * (i + 1)),
            };
            let a = test(i, Step::Node(2 * K + 2 * i + 1), next);
            [a, test(K + i, Step::Output(1), next)]
        });
        let tree = DecisionTree {
            exprs: head.chain(tail).collect(),
            start: Step::Node(0),
            noutputs: 2,
        };
        tree.validate().unwrap();
        assert_eq!(Optimizer::new(&tree).rewrite(tree.start, 0, 0), None);
        assert_eq!(optimize(&tree), tree);
        assert_eq!(reference::optimize(&tree), tree);
    }

    #[test]
    fn equal_branches_collapse() {
        let t = DecisionTree {
            exprs: vec![Expr {
                offset: 0,
                mask: 0xFF,
                value: 1,
                yes: Step::Output(0),
                no: Step::Output(0),
            }],
            start: Step::Node(0),
            noutputs: 1,
        };
        let opt = optimize(&t);
        assert_eq!(opt.start, Step::Output(0));
        assert_eq!(opt.reachable_count(), 0);
    }
}
