//! The paper's Figure-1 IP router, unoptimized and fully optimized,
//! forwarding the same packets — then priced by the cost model.
//!
//! ```sh
//! cargo run --release --example ip_router
//! ```

use click::core::lang::read_config;
use click::core::registry::Library;
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::Router;
use click::sim::cost::path::router_cpu_cost;
use click::sim::{evaluation_traffic, Platform};
use std::collections::HashSet;

fn main() -> click::core::Result<()> {
    let spec = IpRouterSpec::standard(8);
    let base = read_config(&spec.config())?;
    let lib = Library::standard();
    println!(
        "reference IP router: {} interfaces, {} elements, {} connections",
        spec.interfaces.len(),
        base.element_count(),
        base.connections().len()
    );

    // Optimize: xform -> fastclassifier -> devirtualize (last, per §6.1).
    let mut optimized = base.clone();
    let n = click::opt::xform::apply_patterns(
        &mut optimized,
        &click::opt::xform::ip_combo_patterns()?,
    )?;
    click::opt::fastclassifier::fastclassifier(&mut optimized)?;
    click::opt::devirtualize::devirtualize(&mut optimized, &lib, &HashSet::new())?;
    println!(
        "after optimization:  {} elements ({} xform replacements)",
        optimized.element_count(),
        n
    );

    // Forward the same packets through both configurations; outputs must
    // agree.
    let mut base_router: Router = Router::from_graph(&base, &lib)?;
    let mut opt_router: Router = Router::from_graph(&optimized, &lib)?;
    let mut sent = (0usize, 0usize);
    for src in 0..4usize {
        let dst = src + 4;
        let p = test_packet(&spec, src, dst);
        let dev_d = base_router
            .devices
            .id(&format!("eth{src}"))
            .expect("device");
        let dev_o = opt_router.devices.id(&format!("eth{src}")).expect("device");
        base_router.devices.inject(dev_d, p.clone());
        opt_router.devices.inject(dev_o, p);
    }
    base_router.run_until_idle(10_000);
    opt_router.run_until_idle(10_000);
    for dst in 4..8usize {
        let dev_d = base_router
            .devices
            .id(&format!("eth{dst}"))
            .expect("device");
        let dev_o = opt_router.devices.id(&format!("eth{dst}")).expect("device");
        let a = base_router.devices.take_tx(dev_d);
        let b = opt_router.devices.take_tx(dev_o);
        assert_eq!(a.len(), b.len(), "configurations disagree on eth{dst}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data(), "payload mismatch on eth{dst}");
        }
        sent.0 += a.len();
        sent.1 += b.len();
    }
    println!(
        "both configurations forwarded {} packets with identical bytes",
        sent.0
    );

    // Price both on the paper's 700 MHz testbed machine.
    let traffic = evaluation_traffic(&spec);
    let p0 = Platform::p0();
    let base_cost = router_cpu_cost(&base, &p0, &traffic)?;
    let opt_cost = router_cpu_cost(&optimized, &p0, &traffic)?;
    println!();
    println!("cost model @700 MHz (paper: 1657 -> 1101 ns, a 34% reduction):");
    println!(
        "  unoptimized forwarding path: {:.0} ns ({} elements, {} transfers)",
        base_cost.forwarding_ns,
        base_cost.elements.round(),
        base_cost.hops.round()
    );
    println!(
        "  optimized forwarding path:   {:.0} ns ({} elements, {} transfers)",
        opt_cost.forwarding_ns,
        opt_cost.elements.round(),
        opt_cost.hops.round()
    );
    println!(
        "  reduction:                   {:.0}%",
        (1.0 - opt_cost.forwarding_ns / base_cost.forwarding_ns) * 100.0
    );
    Ok(())
}
