//! A seeded route table for the big-table tests. Its prefixes nest
//! deeply (/8s, /16s inside them, /17–/32s inside those) and their
//! chunks range from dense to nearly empty, so a batch of lookups has
//! lanes that stop at the root and at each of the three stride levels;
//! and some destinations have no route at all.

use click::core::Lcg;

/// Output ports the routes use.
pub const PORTS: usize = 4;

/// `n` routes as `StaticIPLookup` configuration text, and their
/// prefixes. Every third route has a gateway. There is no default route:
/// every prefix lies in a /8 with a first octet below 100.
pub fn deep_routes(seed: u64, n: usize) -> (String, Vec<(u32, u8)>) {
    let mut rng = Lcg::new(seed);
    let eights: Vec<u32> = (0..8).map(|_| (1 + rng.below(99) as u32) << 24).collect();
    let sixteens: Vec<u32> = (0..512)
        .map(|_| eights[rng.below(8)] | (rng.word() & 0x00FF_0000))
        .collect();
    let mut prefixes: Vec<(u32, u8)> = eights.iter().map(|&a| (a, 8)).collect();
    prefixes.extend(sixteens.iter().map(|&a| (a, 16)));
    while prefixes.len() < n {
        let plen = 17 + rng.below(16) as u8;
        // Skewed: the first /16s fill up, the last stay sparse.
        let span = 1 + rng.below(sixteens.len());
        let sixteen = sixteens[rng.below(span)];
        let addr = sixteen | (rng.word() & 0xFFFF);
        prefixes.push((addr & (u32::MAX << (32 - plen)), plen));
    }
    let text = prefixes
        .iter()
        .enumerate()
        .map(|(i, &(addr, plen))| {
            let port = i % PORTS;
            match i % 3 {
                0 => format!("{}/{plen} {} {port}", dotted(addr), dotted(addr | 1)),
                _ => format!("{}/{plen} {port}", dotted(addr)),
            }
        })
        .collect::<Vec<_>>()
        .join(", ");
    (text, prefixes)
}

/// `len` destinations: hosts inside random `prefixes`, and every
/// seventh an address in 200.0.0.0/8, which no route covers.
pub fn destinations(seed: u64, prefixes: &[(u32, u8)], len: usize) -> Vec<u32> {
    let mut rng = Lcg::new(seed);
    (0..len)
        .map(|i| {
            if i % 7 == 3 {
                return (200 << 24) | (rng.word() & 0x00FF_FFFF);
            }
            let (addr, plen) = prefixes[rng.below(prefixes.len())];
            addr | (rng.word() & u32::MAX.checked_shr(u32::from(plen)).unwrap_or(0))
        })
        .collect()
}

fn dotted(a: u32) -> String {
    let [b0, b1, b2, b3] = a.to_be_bytes();
    format!("{b0}.{b1}.{b2}.{b3}")
}
