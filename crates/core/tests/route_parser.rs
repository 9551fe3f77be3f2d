//! Differential test of the one route-entry parser
//! (`click_core::config::parse_route`, used by `StaticIPLookup` and the
//! route-table lint) against the `split`/`parse` composition both used
//! before it: same accept/reject set, same field refused, same route.

use click_core::config::{parse_ipv4, parse_route, Route, RouteError};
use click_core::Lcg;

/// The old `headers::parse_ip`.
fn reference_ipv4(s: &str) -> Option<u32> {
    let mut v = 0u32;
    let mut count = 0;
    for part in s.split('.') {
        v = (v << 8) | u32::from(part.parse::<u8>().ok()?);
        count += 1;
    }
    (count == 4).then_some(v)
}

/// The old `StaticIPLookup::with_class` entry parse.
fn reference_route(entry: &str) -> Result<Route, RouteError> {
    let mut words = entry.split_whitespace();
    let (Some(dst), Some(second), third, None) =
        (words.next(), words.next(), words.next(), words.next())
    else {
        return Err(RouteError::Shape);
    };
    let (addr, plen) = match dst.split_once('/') {
        Some((a, l)) => (
            a,
            l.parse::<u8>()
                .ok()
                .filter(|&l| l <= 32)
                .ok_or(RouteError::Prefix)?,
        ),
        None => (dst, 32),
    };
    let addr = reference_ipv4(addr).ok_or(RouteError::Address)?;
    let (gateway, port) = match third {
        Some(port) => (
            Some(reference_ipv4(second).ok_or(RouteError::Gateway)?),
            port,
        ),
        None => (None, second),
    };
    let port: usize = port.parse().map_err(|_| RouteError::Port)?;
    let addr = if plen == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - plen))
    };
    Ok(Route {
        addr,
        plen,
        gateway,
        port,
    })
}

fn pick<'a>(rng: &mut Lcg, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len())]
}

/// A number field: usually valid, one time in eight an edge spelling.
fn number(rng: &mut Lcg, max: u64, odd: &[&str]) -> String {
    if rng.below(8) == 0 {
        pick(rng, odd).to_owned()
    } else {
        (rng.next() % (max + 1)).to_string()
    }
}

const OCTET_ODD: &[&str] = &[
    "256",
    "+7",
    "007",
    "",
    "-1",
    "+",
    "++1",
    "1a",
    "0x1",
    " 1",
    "00000000255",
    "99999999999999999999",
];

/// Three to five octets; four most of the time.
fn address(rng: &mut Lcg) -> String {
    let n = [3, 4, 4, 4, 4, 4, 4, 4, 4, 5][rng.below(10)];
    (0..n)
        .map(|_| number(rng, 255, OCTET_ODD))
        .collect::<Vec<_>>()
        .join(".")
}

fn entry(rng: &mut Lcg) -> String {
    let mut words = vec![address(rng)];
    if rng.below(4) != 0 {
        let odd = &["", "33", "+24", "024", "-1", "256", "99999999999", "3/2"];
        words[0] = format!("{}/{}", words[0], number(rng, 40, odd));
    }
    if rng.below(2) == 0 {
        words.push(address(rng));
    }
    let odd = &[
        "+3",
        "007",
        "-1",
        "1.5",
        "abc",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
    ];
    words.push(number(rng, 300, odd));
    if rng.below(12) == 0 {
        words.push(number(rng, 9, &["x"]));
    }
    if rng.below(20) == 0 {
        words.truncate(rng.below(words.len()));
    }
    let sep = [" ", " ", "  ", "\t", "\u{b}", "\u{a0}", " \u{2003} "];
    let mut out = String::new();
    for (i, w) in words.iter().enumerate() {
        if i > 0 || rng.below(10) == 0 {
            out.push_str(sep[rng.below(sep.len())]);
        }
        out.push_str(w);
    }
    out
}

#[test]
fn check_route_parser_against_split_parse_reference() {
    let mut rng = Lcg::new(0x2007E);
    let mut refused = [0usize; 5];
    for _ in 0..40_000 {
        let e = entry(&mut rng);
        let want = reference_route(&e);
        assert_eq!(parse_route(&e), want, "{e:?}");
        if let Err(kind) = want {
            refused[kind as usize] += 1;
        }
        let a = address(&mut rng);
        assert_eq!(parse_ipv4(&a), reference_ipv4(&a), "{a:?}");
    }
    // Every way to be refused was generated, and most entries were not.
    assert!(refused.iter().all(|&n| n > 100), "{refused:?}");
    assert!(refused.iter().sum::<usize>() < 30_000, "{refused:?}");
}

#[test]
fn check_route_parser_edge_spellings() {
    let ok = |e: &str| parse_route(e).unwrap();
    assert_eq!(ok("+10.007.0.1/+8 +1").addr, 0x0A00_0000);
    assert_eq!(ok("0.0.0.0/0 18.26.4.1 0").gateway, Some(0x121A_0401));
    assert_eq!(ok("10.0.0.1 18446744073709551615").port, usize::MAX);
    assert_eq!(ok("10.0.0.1\u{a0}2").plen, 32);
    for (e, kind) in [
        ("", RouteError::Shape),
        ("10.0.0.0/8", RouteError::Shape),
        ("10.0.0.0/8 1.2.3.4 1 2", RouteError::Shape),
        ("10.0.0.0/33 1", RouteError::Prefix),
        ("10.0.0.0/ 1", RouteError::Prefix),
        ("10.0.0/8 1", RouteError::Address),
        ("10.0.0.0.0/8 1", RouteError::Address),
        ("10.0.0.256/8 1", RouteError::Address),
        ("10..0.0/8 1", RouteError::Address),
        ("10.0.0.0/8 1.2.3 1", RouteError::Gateway),
        ("10.0.0.0/8 18446744073709551616", RouteError::Port),
        ("10.0.0.0/8 -1", RouteError::Port),
    ] {
        assert_eq!(parse_route(e), Err(kind), "{e:?}");
        assert_eq!(reference_route(e), Err(kind), "{e:?}");
    }
}
