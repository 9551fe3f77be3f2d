//! The §4 firewall experiment as an application: an `IPFilter` running
//! the 17-rule *Building Internet Firewalls* rule set, before and after
//! `click-fastclassifier`.
//!
//! ```sh
//! cargo run --release --example firewall
//! ```

use click::classifier::firewall::{
    denied_packet, dns5_packet, firewall_config, smtp_packet, RULE_COUNT,
};
use click::core::lang::read_config;
use click::core::registry::Library;
use click::elements::packet::Packet;
use click::elements::router::DynRouter;
use click::elements::Router;

fn run_firewall(graph: &click::core::RouterGraph, packets: &[(&str, Vec<u8>)]) -> (u64, u64) {
    let lib = Library::standard();
    let mut router: DynRouter = Router::from_graph(graph, &lib).expect("router builds");
    let input = router.devices.id("in").expect("device");
    for (_, bytes) in packets {
        // The firewall operates on IP packets (no Ethernet header).
        router.devices.inject(input, Packet::from_data(bytes));
    }
    router.run_until_idle(10_000);
    let passed = router.stat("passed", "count").expect("counter exists");
    let out = router.devices.id("out").expect("device");
    let _ = router.devices.take_tx(out);
    let dropped = router.class_stat("IPFilter", "drops")
        + router
            .find("fw")
            .map(|i| router.class_of(i).to_owned())
            .filter(|c| c.starts_with("FastClassifier@@") || c.starts_with("FastIPFilter@@"))
            .and_then(|_| router.stat("fw", "drops"))
            .unwrap_or(0);
    (passed, dropped)
}

fn main() -> click::core::Result<()> {
    let config = format!(
        "FromDevice(in) -> fw :: IPFilter({}) -> passed :: Counter -> Queue(64) -> ToDevice(out);",
        firewall_config()
    );
    let base = read_config(&config)?;
    println!("17-rule firewall (RULE_COUNT = {RULE_COUNT})");

    let mut optimized = base.clone();
    let report = click::opt::fastclassifier::fastclassifier(&mut optimized)?;
    let (name, class) = &report.specialized[0];
    println!("click-fastclassifier: {name} -> {class}");

    let workload: Vec<(&str, Vec<u8>)> = vec![
        ("dns5 (allowed, next-to-last rule)", dns5_packet()),
        ("smtp (allowed, early rule)", smtp_packet()),
        ("irc (denied)", denied_packet()),
        ("dns5 again", dns5_packet()),
    ];
    let (passed_base, dropped_base) = run_firewall(&base, &workload);
    let (passed_fast, dropped_fast) = run_firewall(&optimized, &workload);
    println!();
    println!("generic IPFilter:    {passed_base} passed, {dropped_base} dropped");
    println!("specialized:         {passed_fast} passed, {dropped_fast} dropped");
    assert_eq!(
        passed_base, passed_fast,
        "optimization must not change policy"
    );
    assert_eq!(dropped_base, dropped_fast);

    // The decision-tree view of what the optimizer did.
    let rules = click::classifier::parse_rules("IPFilter", &firewall_config())?;
    let tree = click::classifier::build_tree(&rules, 1);
    let opt = click::classifier::optimize(&tree);
    println!();
    println!(
        "decision tree: depth {} -> {} after BPF+-style optimization",
        tree.depth().expect("acyclic"),
        opt.depth().expect("acyclic")
    );
    println!("paper anchor: DNS-5 classification 388 ns -> 188 ns on the 700 MHz testbed");
    Ok(())
}
