//! §4: the 17-rule *Building Internet Firewalls* IPFilter measurement.
//!
//! Paper: a packet matching the next-to-last rule (DNS-5) cost 388 ns in
//! the generic IPFilter — "23% of the total time it takes a packet to
//! pass through the default Click IP router (excluding devices)" — and
//! 188 ns after `click-fastclassifier`, a >2× improvement.
//!
//! Prints the size and depth of both decision trees and the cost model's
//! price for the nodes the DNS-5 packet visits in each. The measured
//! ratio is a row the spine has yet to gain (`classifier.sec4_gain`,
//! ROADMAP 3(a)).
//!
//! Run: `cargo run --release -p click-bench --bin sec4_firewall`

use click_classifier::firewall::{dns5_packet, firewall_config};
use click_classifier::{build_tree, optimize, parse_rules, FastMatcher, TreeClassifier};
use click_sim::CostParams;

fn main() {
    let config = firewall_config();
    let rules = parse_rules("IPFilter", &config).expect("firewall parses");
    let tree = build_tree(&rules, 1);
    let opt = optimize(&tree);
    let generic = TreeClassifier::new(&tree);
    #[allow(clippy::disallowed_methods)] // §4 specializes the optimized tree
    let fast = FastMatcher::compile(&opt);
    let pkt = dns5_packet();

    println!("Section 4: 17-rule firewall, DNS-5 packet (matches next-to-last rule)");
    println!();
    println!(
        "decision tree: {} nodes (optimized: {})",
        tree.exprs.len(),
        opt.exprs.len()
    );
    println!(
        "tree depth:    {} comparisons max (optimized: {})",
        tree.depth().unwrap(),
        opt.depth().unwrap()
    );
    assert_eq!(generic.classify(&pkt), Some(0));
    assert_eq!(fast.classify(&pkt), Some(0));

    // Cost-model numbers (700 MHz P0 cycles → ns).
    let params = CostParams::default();
    let (generic_visits, _) = count_visits(&tree, &pkt);
    let (fast_visits, _) = count_visits(&opt, &pkt);
    let to_ns = |cycles: f64| cycles / 0.7;
    let generic_model = to_ns(params.tree_entry + generic_visits as f64 * params.tree_node);
    let fast_model = to_ns(params.fast_entry + fast_visits as f64 * params.fast_node);
    println!();
    println!("cost model (ns):   generic {generic_model:.0}   fastclassifier {fast_model:.0}");
    println!("paper (ns):        generic 388   fastclassifier 188   (>2x)");
    println!("model ratio: {:.2}x", generic_model / fast_model);
}

fn count_visits(tree: &click_classifier::DecisionTree, data: &[u8]) -> (usize, Option<usize>) {
    use click_classifier::Step;
    let mut visits = 0;
    let mut s = tree.start;
    loop {
        match s {
            Step::Output(o) => return (visits, Some(o)),
            Step::Drop => return (visits, None),
            Step::Node(i) => {
                visits += 1;
                let e = &tree.exprs[i];
                let w = click_classifier::tree::load_word(data, e.offset as usize);
                s = if w & e.mask == e.value { e.yes } else { e.no };
            }
        }
    }
}
