//! The `IPClassifier` / `IPFilter` textual language.
//!
//! These elements "compile textual filter specifications, such as
//! `src 10.0.0.2 & tcp src port 25`, into decision tree structures
//! traversed on each packet" (paper §3). This module parses that language
//! into [`Cond`]s over the IP header. Offsets are relative to the start of
//! the IP header (both elements run downstream of `Strip(14)` /
//! `CheckIPHeader` in router configurations).
//!
//! Supported primitives: bare protocols (`tcp`, `udp`, `icmp`),
//! `ip proto P`, `[src|dst] [host] ADDR`, `[src|dst] net CIDR`,
//! `[proto] [src|dst] port P`, `icmp type N`, `ip vers/hl/ttl/tos N`,
//! `ip frag`, `ip unfrag`, `true`, `false`, `all`, combined with
//! `and`/`&&`/`&`, `or`/`||`/`|`, `not`/`!`, parentheses, and implicit
//! conjunction by juxtaposition.
//!
//! Transport-layer primitives (`port`, `icmp type`) implicitly require a
//! 20-byte IP header (`ip hl 5`), since decision trees compare at fixed
//! offsets.

use crate::build::{Action, Check, Cond, Rule};
use click_core::error::{Error, Result};

// IP header field checks (offsets relative to IP header start).

fn check_vers_hl(vers: u8, hl: u8) -> Cond {
    Cond::Check(Check::new(
        0,
        0xFF00_0000,
        ((vers as u32) << 28) | ((hl as u32) << 24),
    ))
}

fn check_hl5() -> Cond {
    check_vers_hl(4, 5)
}

fn check_proto(proto: u8) -> Cond {
    // Protocol is byte 9, the second byte of the word at offset 8.
    Cond::Check(Check::new(8, 0x00FF_0000, (proto as u32) << 16))
}

fn check_src_host(addr: u32) -> Cond {
    Cond::Check(Check::new(12, 0xFFFF_FFFF, addr))
}

fn check_dst_host(addr: u32) -> Cond {
    Cond::Check(Check::new(16, 0xFFFF_FFFF, addr))
}

fn prefix_mask(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// Protocol numbers.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Src,
    Dst,
    Either,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Word(String),
    LParen,
    RParen,
    And,
    Or,
    Not,
}

fn tokenize(s: &str) -> Result<Vec<Token>> {
    let mut toks = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push(Token::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Token::RParen);
            }
            '!' => {
                chars.next();
                toks.push(Token::Not);
            }
            '&' => {
                chars.next();
                if chars.peek() == Some(&'&') {
                    chars.next();
                }
                toks.push(Token::And);
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                }
                toks.push(Token::Or);
            }
            c if c.is_ascii_alphanumeric() || c == '.' || c == '/' || c == '_' => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '.' || c == '/' || c == '_' {
                        w.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match w.as_str() {
                    "and" => toks.push(Token::And),
                    "or" => toks.push(Token::Or),
                    "not" => toks.push(Token::Not),
                    _ => toks.push(Token::Word(w)),
                }
            }
            other => {
                return Err(Error::spec(format!(
                    "unexpected character {other:?} in IP filter"
                )))
            }
        }
    }
    Ok(toks)
}

fn parse_ipv4(s: &str) -> Result<u32> {
    click_core::config::parse_ipv4(s).ok_or_else(|| Error::spec(format!("bad IP address {s:?}")))
}

fn port_number(s: &str) -> Result<u16> {
    if let Ok(n) = s.parse::<u16>() {
        return Ok(n);
    }
    let n = match s {
        "ftp" => 21,
        "ssh" => 22,
        "telnet" => 23,
        "smtp" => 25,
        "dns" | "domain" => 53,
        "bootps" => 67,
        "bootpc" => 68,
        "www" | "http" => 80,
        "auth" => 113,
        "nntp" => 119,
        "ntp" => 123,
        "snmp" => 161,
        "https" => 443,
        _ => return Err(Error::spec(format!("unknown port {s:?}"))),
    };
    Ok(n)
}

fn proto_number(s: &str) -> Option<u8> {
    match s {
        "icmp" => Some(proto::ICMP),
        "tcp" => Some(proto::TCP),
        "udp" => Some(proto::UDP),
        _ => s.parse::<u8>().ok(),
    }
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn peek_word(&self) -> Option<&str> {
        match self.peek() {
            Some(Token::Word(w)) => Some(w),
            _ => None,
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn expect_word(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(Error::spec(format!("expected {what}, found {other:?}"))),
        }
    }

    fn parse_or(&mut self) -> Result<Cond> {
        let mut terms = vec![self.parse_and()?];
        while self.peek() == Some(&Token::Or) {
            self.bump();
            terms.push(self.parse_and()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one")
        } else {
            Cond::Or(terms)
        })
    }

    fn parse_and(&mut self) -> Result<Cond> {
        let mut terms = vec![self.parse_not()?];
        loop {
            match self.peek() {
                Some(Token::And) => {
                    self.bump();
                    terms.push(self.parse_not()?);
                }
                // Implicit conjunction by juxtaposition.
                Some(Token::Word(_)) | Some(Token::LParen) | Some(Token::Not) => {
                    terms.push(self.parse_not()?);
                }
                _ => break,
            }
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one")
        } else {
            Cond::And(terms)
        })
    }

    fn parse_not(&mut self) -> Result<Cond> {
        if self.peek() == Some(&Token::Not) {
            self.bump();
            Ok(Cond::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Cond> {
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            let inner = self.parse_or()?;
            match self.bump() {
                Some(Token::RParen) => Ok(inner),
                other => Err(Error::spec(format!("expected `)`, found {other:?}"))),
            }
        } else {
            self.parse_primitive()
        }
    }

    fn parse_dir(&mut self) -> Dir {
        match self.peek_word() {
            Some("src") => {
                self.bump();
                // "src or dst"
                if self.peek() == Some(&Token::Or)
                    && self.toks.get(self.i + 1) == Some(&Token::Word("dst".into()))
                {
                    self.bump();
                    self.bump();
                    Dir::Either
                } else {
                    Dir::Src
                }
            }
            Some("dst") => {
                self.bump();
                Dir::Dst
            }
            _ => Dir::Either,
        }
    }

    fn parse_primitive(&mut self) -> Result<Cond> {
        let word = match self.peek_word() {
            Some(w) => w.to_owned(),
            None => {
                return Err(Error::spec(format!(
                    "expected a filter primitive, found {:?}",
                    self.peek()
                )))
            }
        };
        match word.as_str() {
            "true" | "all" => {
                self.bump();
                Ok(Cond::True)
            }
            "false" | "none" => {
                self.bump();
                Ok(Cond::False)
            }
            "tcp" | "udp" => {
                self.bump();
                let p = proto_number(&word).expect("known proto");
                // `tcp opt syn` — TCP flag tests (byte 13 of the TCP
                // header, i.e. byte 33 of the IP packet with hl == 5).
                if word == "tcp" && self.peek_word() == Some("opt") {
                    self.bump();
                    let flag = self.expect_word("TCP flag")?;
                    let bit: u32 = match flag.as_str() {
                        "fin" => 0x01,
                        "syn" => 0x02,
                        "rst" => 0x04,
                        "psh" => 0x08,
                        "ack" => 0x10,
                        "urg" => 0x20,
                        other => return Err(Error::spec(format!("unknown TCP flag {other:?}"))),
                    };
                    // Flag set ⇔ the masked word at offset 32 is nonzero.
                    return Ok(Cond::And(vec![
                        check_hl5(),
                        check_proto(proto::TCP),
                        Cond::Not(Box::new(Cond::Check(Check::new(32, bit << 16, 0)))),
                    ]));
                }
                // `tcp src port 25` / `udp port 53` — proto prefixing a
                // port primitive.
                if matches!(self.peek_word(), Some("src") | Some("dst") | Some("port")) {
                    let dir = self.parse_dir();
                    if self.peek_word() == Some("port") {
                        self.bump();
                        let port = port_number(&self.expect_word("port number")?)?;
                        return Ok(Cond::And(vec![
                            check_hl5(),
                            check_proto(p),
                            port_cond(dir, port),
                        ]));
                    }
                    return Err(Error::spec(format!(
                        "expected `port` after `{word} src/dst`"
                    )));
                }
                Ok(check_proto(p))
            }
            "icmp" => {
                self.bump();
                if self.peek_word() == Some("type") {
                    self.bump();
                    let t: u8 = self
                        .expect_word("ICMP type")?
                        .parse()
                        .map_err(|_| Error::spec("bad ICMP type".to_string()))?;
                    // ICMP type is the first byte of the transport header.
                    return Ok(Cond::And(vec![
                        check_hl5(),
                        check_proto(proto::ICMP),
                        Cond::Check(Check::new(20, 0xFF00_0000, (t as u32) << 24)),
                    ]));
                }
                Ok(check_proto(proto::ICMP))
            }
            "ip" => {
                self.bump();
                let field = self.expect_word("IP field")?;
                match field.as_str() {
                    "proto" => {
                        let w = self.expect_word("protocol")?;
                        let p = proto_number(&w)
                            .ok_or_else(|| Error::spec(format!("unknown protocol {w:?}")))?;
                        Ok(check_proto(p))
                    }
                    "vers" => {
                        let v: u8 = self
                            .expect_word("version")?
                            .parse()
                            .map_err(|_| Error::spec("bad IP version".to_string()))?;
                        Ok(Cond::Check(Check::new(0, 0xF000_0000, (v as u32) << 28)))
                    }
                    "hl" => {
                        let v: u8 = self
                            .expect_word("header length")?
                            .parse()
                            .map_err(|_| Error::spec("bad IP header length".to_string()))?;
                        Ok(Cond::Check(Check::new(0, 0x0F00_0000, (v as u32) << 24)))
                    }
                    "ttl" => {
                        let v: u8 = self
                            .expect_word("TTL")?
                            .parse()
                            .map_err(|_| Error::spec("bad TTL".to_string()))?;
                        Ok(Cond::Check(Check::new(8, 0xFF00_0000, (v as u32) << 24)))
                    }
                    "tos" => {
                        let v: u8 = self
                            .expect_word("TOS")?
                            .parse()
                            .map_err(|_| Error::spec("bad TOS".to_string()))?;
                        Ok(Cond::Check(Check::new(0, 0x00FF_0000, (v as u32) << 16)))
                    }
                    "frag" => Ok(Cond::Not(Box::new(Cond::Check(Check::new(
                        4,
                        0x0000_3FFF,
                        0,
                    ))))),
                    "unfrag" => Ok(Cond::Check(Check::new(4, 0x0000_3FFF, 0))),
                    other => Err(Error::spec(format!("unknown IP field {other:?}"))),
                }
            }
            "src" | "dst" | "host" | "net" | "port" => {
                let dir = self.parse_dir();
                match self.peek_word() {
                    Some("host") => {
                        self.bump();
                        let addr = parse_ipv4(&self.expect_word("IP address")?)?;
                        Ok(host_cond(dir, addr))
                    }
                    Some("net") => {
                        self.bump();
                        let spec = self.expect_word("network")?;
                        let (addr_str, len_str) = spec.split_once('/').ok_or_else(|| {
                            Error::spec(format!("bad network {spec:?} (want a.b.c.d/len)"))
                        })?;
                        let addr = parse_ipv4(addr_str)?;
                        let len: u32 =
                            len_str.parse().ok().filter(|&l| l <= 32).ok_or_else(|| {
                                Error::spec(format!("bad prefix length in {spec:?}"))
                            })?;
                        Ok(net_cond(dir, addr, prefix_mask(len)))
                    }
                    Some("port") => {
                        self.bump();
                        let port = port_number(&self.expect_word("port number")?)?;
                        // No protocol context: match TCP or UDP.
                        Ok(Cond::And(vec![
                            check_hl5(),
                            Cond::Or(vec![check_proto(proto::TCP), check_proto(proto::UDP)]),
                            port_cond(dir, port),
                        ]))
                    }
                    // Bare address after a direction: `src 10.0.0.2`
                    // (the paper's own example syntax).
                    Some(w) if w.contains('.') => {
                        let spec = self.expect_word("IP address")?;
                        if let Some((addr_str, len_str)) = spec.split_once('/') {
                            let addr = parse_ipv4(addr_str)?;
                            let len: u32 =
                                len_str.parse().ok().filter(|&l| l <= 32).ok_or_else(|| {
                                    Error::spec(format!("bad prefix length in {spec:?}"))
                                })?;
                            Ok(net_cond(dir, addr, prefix_mask(len)))
                        } else {
                            Ok(host_cond(dir, parse_ipv4(&spec)?))
                        }
                    }
                    other => Err(Error::spec(format!(
                        "expected host/net/port specification, found {other:?}"
                    ))),
                }
            }
            other => {
                // A bare protocol number or name.
                if let Some(p) = proto_number(other) {
                    self.bump();
                    Ok(check_proto(p))
                } else {
                    Err(Error::spec(format!("unknown filter primitive {other:?}")))
                }
            }
        }
    }
}

fn host_cond(dir: Dir, addr: u32) -> Cond {
    match dir {
        Dir::Src => check_src_host(addr),
        Dir::Dst => check_dst_host(addr),
        Dir::Either => Cond::Or(vec![check_src_host(addr), check_dst_host(addr)]),
    }
}

fn net_cond(dir: Dir, addr: u32, mask: u32) -> Cond {
    let v = addr & mask;
    match dir {
        Dir::Src => Cond::Check(Check::new(12, mask, v)),
        Dir::Dst => Cond::Check(Check::new(16, mask, v)),
        Dir::Either => Cond::Or(vec![
            Cond::Check(Check::new(12, mask, v)),
            Cond::Check(Check::new(16, mask, v)),
        ]),
    }
}

fn port_cond(dir: Dir, port: u16) -> Cond {
    // Transport header at offset 20 (hl == 5): src port bytes 20-21, dst
    // port bytes 22-23.
    let src = Cond::Check(Check::new(20, 0xFFFF_0000, (port as u32) << 16));
    let dst = Cond::Check(Check::new(20, 0x0000_FFFF, port as u32));
    match dir {
        Dir::Src => src,
        Dir::Dst => dst,
        Dir::Either => Cond::Or(vec![src, dst]),
    }
}

/// Parses a single filter expression into a condition.
///
/// # Errors
///
/// Returns [`Error::Spec`] on malformed expressions.
///
/// # Examples
///
/// ```
/// use click_classifier::iplang::parse_expr;
///
/// // The paper's example filter.
/// let cond = parse_expr("src 10.0.0.2 && tcp src port 25")?;
/// # let _ = cond;
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn parse_expr(s: &str) -> Result<Cond> {
    let toks = tokenize(s)?;
    if toks.is_empty() {
        return Err(Error::spec("empty filter expression".to_string()));
    }
    let mut p = Parser { toks, i: 0 };
    let cond = p.parse_or()?;
    if p.i != p.toks.len() {
        return Err(Error::spec(format!(
            "trailing tokens after filter expression: {:?}",
            &p.toks[p.i..]
        )));
    }
    Ok(cond)
}

/// Parses an `IPClassifier` configuration: each argument is an expression
/// (or `-` for match-all) selecting its output port.
///
/// # Errors
///
/// Returns [`Error::Spec`] on malformed expressions or an empty config.
pub fn parse_ipclassifier_config(config: &str) -> Result<Vec<Rule>> {
    let args = click_core::config::split_args(config);
    if args.is_empty() {
        return Err(Error::spec(
            "IPClassifier requires at least one pattern".to_string(),
        ));
    }
    args.iter()
        .enumerate()
        .map(|(i, a)| {
            let cond = if a.trim() == "-" {
                Cond::True
            } else {
                parse_expr(a)?
            };
            Ok(Rule {
                cond,
                action: Action::Emit(i),
            })
        })
        .collect()
}

/// Parses an `IPFilter` configuration: each argument is `allow EXPR`,
/// `deny EXPR`, or `drop EXPR`. Allowed packets go to output 0; denied
/// packets (and packets matching no rule) are dropped.
///
/// # Errors
///
/// Returns [`Error::Spec`] on malformed rules.
pub fn parse_ipfilter_config(config: &str) -> Result<Vec<Rule>> {
    let args = click_core::config::split_args(config);
    if args.is_empty() {
        return Err(Error::spec(
            "IPFilter requires at least one rule".to_string(),
        ));
    }
    args.iter()
        .map(|a| {
            let a = a.trim();
            let (action, rest) = if let Some(r) = a.strip_prefix("allow ") {
                (Action::Emit(0), r)
            } else if let Some(r) = a.strip_prefix("deny ") {
                (Action::Drop, r)
            } else if let Some(r) = a.strip_prefix("drop ") {
                (Action::Drop, r)
            } else if a == "allow" {
                (Action::Emit(0), "all")
            } else if a == "deny" || a == "drop" {
                (Action::Drop, "all")
            } else {
                return Err(Error::spec(format!(
                    "IPFilter rule {a:?} must start with allow/deny/drop"
                )));
            };
            Ok(Rule {
                cond: parse_expr(rest)?,
                action,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_tree;

    /// Builds a minimal IP(+transport) header as raw bytes.
    pub(crate) fn ip_packet(
        proto: u8,
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
    ) -> Vec<u8> {
        let mut p = vec![0u8; 40];
        p[0] = 0x45; // version 4, hl 5
        p[8] = 64; // ttl
        p[9] = proto;
        p[12..16].copy_from_slice(&src);
        p[16..20].copy_from_slice(&dst);
        p[20..22].copy_from_slice(&sport.to_be_bytes());
        p[22..24].copy_from_slice(&dport.to_be_bytes());
        p
    }

    #[test]
    fn paper_example_filter() {
        let cond = parse_expr("src 10.0.0.2 & tcp src port 25").unwrap();
        let hit = ip_packet(proto::TCP, [10, 0, 0, 2], [1, 2, 3, 4], 25, 9999);
        assert!(cond.eval(&hit));
        let wrong_src = ip_packet(proto::TCP, [10, 0, 0, 3], [1, 2, 3, 4], 25, 9999);
        assert!(!cond.eval(&wrong_src));
        let wrong_port = ip_packet(proto::TCP, [10, 0, 0, 2], [1, 2, 3, 4], 26, 9999);
        assert!(!cond.eval(&wrong_port));
        let udp = ip_packet(proto::UDP, [10, 0, 0, 2], [1, 2, 3, 4], 25, 9999);
        assert!(!cond.eval(&udp));
    }

    #[test]
    fn host_directions() {
        let src = parse_expr("src host 1.2.3.4").unwrap();
        let dst = parse_expr("dst host 1.2.3.4").unwrap();
        let either = parse_expr("host 1.2.3.4").unwrap();
        let p1 = ip_packet(proto::TCP, [1, 2, 3, 4], [5, 6, 7, 8], 1, 2);
        let p2 = ip_packet(proto::TCP, [5, 6, 7, 8], [1, 2, 3, 4], 1, 2);
        assert!(src.eval(&p1) && !src.eval(&p2));
        assert!(!dst.eval(&p1) && dst.eval(&p2));
        assert!(either.eval(&p1) && either.eval(&p2));
    }

    #[test]
    fn net_prefixes() {
        let c = parse_expr("src net 10.0.0.0/8").unwrap();
        assert!(c.eval(&ip_packet(proto::UDP, [10, 99, 3, 7], [1, 1, 1, 1], 0, 0)));
        assert!(!c.eval(&ip_packet(proto::UDP, [11, 0, 0, 1], [1, 1, 1, 1], 0, 0)));
        let zero = parse_expr("src net 0.0.0.0/0").unwrap();
        assert!(zero.eval(&ip_packet(proto::UDP, [9, 9, 9, 9], [1, 1, 1, 1], 0, 0)));
    }

    #[test]
    fn bare_src_with_cidr() {
        let c = parse_expr("src 127.0.0.0/8").unwrap();
        assert!(c.eval(&ip_packet(proto::TCP, [127, 0, 0, 1], [2, 2, 2, 2], 1, 2)));
    }

    #[test]
    fn port_without_proto_matches_tcp_and_udp() {
        let c = parse_expr("dst port 53").unwrap();
        assert!(c.eval(&ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 1000, 53)));
        assert!(c.eval(&ip_packet(proto::UDP, [1, 1, 1, 1], [2, 2, 2, 2], 1000, 53)));
        assert!(!c.eval(&ip_packet(
            proto::ICMP,
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1000,
            53
        )));
    }

    #[test]
    fn port_requires_hl5() {
        let c = parse_expr("tcp dst port 80").unwrap();
        let mut p = ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 5, 80);
        assert!(c.eval(&p));
        p[0] = 0x46; // hl = 6: fixed-offset port match must not fire
        assert!(!c.eval(&p));
    }

    #[test]
    fn icmp_type() {
        let c = parse_expr("icmp type 8").unwrap();
        let mut p = ip_packet(proto::ICMP, [1, 1, 1, 1], [2, 2, 2, 2], 0, 0);
        p[20] = 8;
        assert!(c.eval(&p));
        p[20] = 0;
        assert!(!c.eval(&p));
    }

    #[test]
    fn boolean_structure() {
        let c = parse_expr("(tcp or udp) and not dst host 9.9.9.9").unwrap();
        assert!(c.eval(&ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2)));
        assert!(!c.eval(&ip_packet(proto::TCP, [1, 1, 1, 1], [9, 9, 9, 9], 1, 2)));
        assert!(!c.eval(&ip_packet(proto::ICMP, [1, 1, 1, 1], [2, 2, 2, 2], 0, 0)));
    }

    #[test]
    fn juxtaposition_is_conjunction() {
        let a = parse_expr("tcp dst port 80 src host 1.2.3.4").unwrap();
        let b = parse_expr("tcp dst port 80 and src host 1.2.3.4").unwrap();
        for pkt in [
            ip_packet(proto::TCP, [1, 2, 3, 4], [0, 0, 0, 0], 5, 80),
            ip_packet(proto::TCP, [4, 3, 2, 1], [0, 0, 0, 0], 5, 80),
        ] {
            assert_eq!(a.eval(&pkt), b.eval(&pkt));
        }
    }

    #[test]
    fn ip_fields() {
        let ttl = parse_expr("ip ttl 64").unwrap();
        assert!(ttl.eval(&ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2)));
        let frag = parse_expr("ip frag").unwrap();
        let unfrag = parse_expr("ip unfrag").unwrap();
        let mut p = ip_packet(proto::UDP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2);
        assert!(!frag.eval(&p));
        assert!(unfrag.eval(&p));
        p[6] = 0x20; // more-fragments bit
        assert!(frag.eval(&p));
        assert!(!unfrag.eval(&p));
    }

    #[test]
    fn port_names() {
        let a = parse_expr("tcp dst port smtp").unwrap();
        let b = parse_expr("tcp dst port 25").unwrap();
        let p = ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 9, 25);
        assert_eq!(a.eval(&p), b.eval(&p));
    }

    #[test]
    fn tcp_flags() {
        let syn = parse_expr("tcp opt syn").unwrap();
        let ack = parse_expr("tcp opt ack").unwrap();
        let mut p = ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2);
        p[33] = 0x02; // SYN
        assert!(syn.eval(&p));
        assert!(!ack.eval(&p));
        p[33] = 0x12; // SYN|ACK
        assert!(syn.eval(&p) && ack.eval(&p));
        // Not TCP: no flag matches.
        let mut u = ip_packet(proto::UDP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2);
        u[33] = 0x02;
        assert!(!syn.eval(&u));
        assert!(parse_expr("tcp opt wibble").is_err());
    }

    #[test]
    fn syn_only_filter_composes() {
        // The classic "new inbound connections" rule.
        let c = parse_expr("tcp opt syn and not tcp opt ack and dst port 22").unwrap();
        let mut p = ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 999, 22);
        p[33] = 0x02;
        assert!(c.eval(&p));
        p[33] = 0x12;
        assert!(!c.eval(&p));
    }

    #[test]
    fn malformed_expressions_rejected() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("bogus primitive").is_err());
        assert!(parse_expr("src host").is_err());
        assert!(parse_expr("src host 1.2.3").is_err());
        assert!(parse_expr("src net 10.0.0.0").is_err());
        assert!(parse_expr("src net 10.0.0.0/40").is_err());
        assert!(parse_expr("tcp and").is_err());
        assert!(parse_expr("(tcp").is_err());
        assert!(parse_expr("tcp )").is_err());
    }

    #[test]
    fn ipfilter_rules() {
        let rules = parse_ipfilter_config(
            "deny src net 127.0.0.0/8, allow dst host 10.0.0.2 and tcp dst port 25, deny all",
        )
        .unwrap();
        assert_eq!(rules.len(), 3);
        let tree = build_tree(&rules, 1);
        let smtp = ip_packet(proto::TCP, [5, 5, 5, 5], [10, 0, 0, 2], 999, 25);
        assert_eq!(tree.classify(&smtp), Some(0));
        let spoof = ip_packet(proto::TCP, [127, 0, 0, 1], [10, 0, 0, 2], 999, 25);
        assert_eq!(tree.classify(&spoof), None);
        let other = ip_packet(proto::UDP, [5, 5, 5, 5], [10, 0, 0, 2], 999, 53);
        assert_eq!(tree.classify(&other), None);
    }

    #[test]
    fn ipclassifier_outputs() {
        let rules = parse_ipclassifier_config("tcp, udp, -").unwrap();
        let tree = build_tree(&rules, 3);
        assert_eq!(
            tree.classify(&ip_packet(proto::TCP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2)),
            Some(0)
        );
        assert_eq!(
            tree.classify(&ip_packet(proto::UDP, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2)),
            Some(1)
        );
        assert_eq!(
            tree.classify(&ip_packet(proto::ICMP, [1, 1, 1, 1], [2, 2, 2, 2], 0, 0)),
            Some(2)
        );
    }

    #[test]
    fn ipfilter_requires_action_keyword() {
        assert!(parse_ipfilter_config("tcp dst port 80").is_err());
    }
}
