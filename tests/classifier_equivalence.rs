//! Property tests: the classifier runtimes (pointer-chasing tree,
//! compiled program, specialized matcher, decision diagram) and the
//! reference condition evaluator agree on every packet, for randomly
//! generated rule sets — and tree optimization never changes
//! classification.
//!
//! Randomness comes from a fixed-seed LCG so the suite is deterministic
//! and dependency-free; change the seed to explore a different corner of
//! the space.

// `FastMatcher` and `ClassifierProgram` stay only as the spine's and
// §4's tree runtimes; this suite keeps them equal to the rest.
#![allow(clippy::disallowed_methods)]

use click::classifier::{
    build_diagram, build_tree, optimize, parse_rules, Action, Check, ClassifierProgram, Cond,
    DecisionDiagram, FastMatcher, Rule, TreeClassifier,
};
use click::core::Lcg;

/// A random single-word check with plausible packet offsets.
fn gen_check(r: &mut Lcg) -> Cond {
    let word = r.below(6) as u32;
    let mask = r.word() | 1; // never trivially empty
    let value = r.word() & mask;
    Cond::Check(Check::new(word * 4, mask, value))
}

fn gen_cond(r: &mut Lcg, depth: usize) -> Cond {
    if depth == 0 || r.below(2) == 0 {
        return match r.below(6) {
            0 => Cond::True,
            1 => Cond::False,
            _ => gen_check(r),
        };
    }
    match r.below(3) {
        0 => Cond::And(
            (0..1 + r.below(3))
                .map(|_| gen_cond(r, depth - 1))
                .collect(),
        ),
        1 => Cond::Or(
            (0..1 + r.below(3))
                .map(|_| gen_cond(r, depth - 1))
                .collect(),
        ),
        _ => Cond::Not(Box::new(gen_cond(r, depth - 1))),
    }
}

fn gen_rules(r: &mut Lcg) -> Vec<Rule> {
    (0..1 + r.below(5))
        .map(|i| Rule {
            cond: gen_cond(r, 3),
            action: if r.below(2) == 0 {
                Action::Emit(i)
            } else {
                Action::Drop
            },
        })
        .collect()
}

fn gen_packet(r: &mut Lcg) -> Vec<u8> {
    (0..r.below(48)).map(|_| r.next() as u8).collect()
}

/// Reference semantics: first matching rule decides.
fn reference(rules: &[Rule], data: &[u8]) -> Option<usize> {
    for r in rules {
        if r.cond.eval(data) {
            return match r.action {
                Action::Emit(o) => Some(o),
                Action::Drop => None,
            };
        }
    }
    None
}

#[test]
fn all_runtimes_agree() {
    let mut r = Lcg::new(0xC1A551F1E5);
    for case in 0..128 {
        let rules = gen_rules(&mut r);
        let noutputs = rules.len();
        let tree = build_tree(&rules, noutputs);
        let opt = optimize(&tree);
        let interp = TreeClassifier::new(&tree);
        let prog = ClassifierProgram::compile(&tree);
        let fast = FastMatcher::compile(&opt);
        let diagram = build_diagram(&rules, noutputs);
        for _ in 0..1 + r.below(7) {
            let data = gen_packet(&mut r);
            let expected = reference(&rules, &data);
            assert_eq!(
                tree.classify(&data),
                expected,
                "tree vs reference, case {case}"
            );
            assert_eq!(
                opt.classify(&data),
                expected,
                "optimized tree vs reference, case {case}"
            );
            assert_eq!(
                interp.classify(&data),
                expected,
                "interpreter vs reference, case {case}"
            );
            assert_eq!(
                prog.classify(&data),
                expected,
                "program vs reference, case {case}"
            );
            assert_eq!(
                fast.classify(&data),
                expected,
                "fast matcher vs reference, case {case}"
            );
            assert_eq!(
                diagram.classify(&data),
                expected,
                "diagram vs reference, case {case}"
            );
        }
    }
}

#[test]
fn optimization_never_grows_depth() {
    let mut r = Lcg::new(0xDEE9);
    for _ in 0..128 {
        let rules = gen_rules(&mut r);
        let tree = build_tree(&rules, rules.len());
        let opt = optimize(&tree);
        assert!(opt.depth().unwrap() <= tree.depth().unwrap());
        assert!(opt.validate().is_ok());
    }
}

/// The diagram text is what every specialized classifier is configured
/// with: it must round-trip and classify like the reference.
#[test]
fn diagram_serialization_round_trips() {
    let mut r = Lcg::new(0x5E11A11);
    for case in 0..128 {
        let rules = gen_rules(&mut r);
        let d = build_diagram(&rules, rules.len());
        let back: DecisionDiagram = d.to_string().parse().unwrap();
        assert_eq!(d, back, "case {case}");
        for _ in 0..4 {
            let data = gen_packet(&mut r);
            assert_eq!(
                back.classify(&data),
                reference(&rules, &data),
                "case {case}"
            );
        }
    }
}

#[test]
fn ip_language_agrees_with_runtimes_on_structured_packets() {
    // Deterministic cross-check over the richer IPFilter language.
    let config = "allow src net 10.0.0.0/8 and tcp dst port 80, \
                  deny icmp type 8, \
                  allow udp, \
                  deny all";
    let rules = parse_rules("IPFilter", config).unwrap();
    let tree = build_tree(&rules, 1);
    let fast = FastMatcher::compile(&optimize(&tree));
    let mut lcg = Lcg::with_increment(0x5EED, 1);
    let mut rand_byte = move || lcg.next() as u8;
    for _ in 0..500 {
        let mut p = vec![0u8; 40];
        p[0] = 0x45;
        p[9] = [1u8, 6, 17, 47][rand_byte() as usize % 4];
        p[12] = [10u8, 11, 192][rand_byte() as usize % 3];
        p[20] = rand_byte();
        p[22..24].copy_from_slice(&(if rand_byte() % 2 == 0 { 80u16 } else { 443 }).to_be_bytes());
        let expected = rules
            .iter()
            .find(|r| r.cond.eval(&p))
            .and_then(|r| match r.action {
                Action::Emit(o) => Some(o),
                Action::Drop => None,
            });
        assert_eq!(tree.classify(&p), expected);
        assert_eq!(fast.classify(&p), expected);
    }
}
