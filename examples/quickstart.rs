//! Quickstart: write a configuration, check it, optimize it, run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use click::core::check::check;
use click::core::lang::{read_config, write_config};
use click::core::registry::Library;
use click::elements::packet::Packet;
use click::elements::router::DynRouter;
use click::elements::Router;
use std::collections::HashSet;

fn main() -> click::core::Result<()> {
    // A little router: classify Ethernet frames; count IP, drop the rest.
    let source = "
        // quickstart.click
        FromDevice(in0)
            -> c :: Classifier(12/0800, -);   // IP vs everything else
        c [0] -> ip_count :: Counter -> Queue(64) -> ToDevice(out0);
        c [1] -> other :: Counter -> Discard;
    ";

    // 1. Parse (compound elements would be elaborated away here too).
    let mut graph = read_config(source)?;
    println!(
        "parsed {} elements, {} connections",
        graph.element_count(),
        graph.connections().len()
    );

    // 2. Check it like Click would at install time.
    let lib = Library::standard();
    let report = check(&graph, &lib);
    assert!(report.is_ok(), "{:?}", report.diagnostics);
    println!("configuration checks clean");

    // 3. Optimize: specialize the classifier, devirtualize transfers.
    let fc = click::opt::fastclassifier::fastclassifier(&mut graph)?;
    println!(
        "click-fastclassifier: specialized {} classifier(s)",
        fc.specialized.len()
    );
    let dv = click::opt::devirtualize::devirtualize(&mut graph, &lib, &HashSet::new())?;
    println!(
        "click-devirtualize: {} specialized class(es)",
        dv.classes.len()
    );

    // 4. The optimized configuration is still a plain Click file.
    let text = write_config(&graph);
    println!("--- optimized configuration (first lines) ---");
    for line in text.lines().take(6) {
        println!("{line}");
    }

    // 5. Run packets through it.
    let mut router: DynRouter = Router::from_graph(&graph, &lib)?;
    let in0 = router.devices.id("in0").expect("device exists");
    let out0 = router.devices.id("out0").expect("device exists");
    for i in 0..10u16 {
        let mut p = Packet::new(60);
        // Every third frame is ARP (0x0806); the rest are IP (0x0800).
        let ethertype: u16 = if i % 3 == 0 { 0x0806 } else { 0x0800 };
        p.data_mut()[12..14].copy_from_slice(&ethertype.to_be_bytes());
        router.devices.inject(in0, p);
    }
    router.run_until_idle(1000);
    println!("--- run ---");
    println!("transmitted on out0:   {}", router.devices.tx_len(out0));
    println!(
        "IP packets counted:    {}",
        router.stat("ip_count", "count").unwrap()
    );
    println!(
        "non-IP discarded:      {}",
        router.stat("other", "count").unwrap()
    );
    Ok(())
}
