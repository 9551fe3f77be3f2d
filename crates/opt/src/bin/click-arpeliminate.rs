//! `click-arpeliminate`: remove ARP machinery on point-to-point links in
//! a combined configuration (the paper's §7.2 sample multi-router
//! optimization).
//!
//! Usage: `click-combine ... | click-arpeliminate | click-uncombine A`

fn main() {
    click_opt::tool::no_args("click-arpeliminate < combined.click");
    click_opt::tool::run_tool("click-arpeliminate", |graph| {
        let report = click_opt::combine::eliminate_arp(graph)?;
        Ok(format!(
            "rewrote {} ARPQuerier(s) into EtherEncap",
            report.rewritten.len()
        ))
    });
}
