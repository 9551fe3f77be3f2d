//! Classifier elements: the generic, tree-walking `Classifier` /
//! `IPClassifier` / `IPFilter` and the specialized `FastClassifier@@*`
//! classes that `click-fastclassifier` substitutes for them.

use crate::element::{config_err, CreateCtx, Element};
use crate::packet::Packet;
use click_classifier::{build_tree, parse_rules, rules_noutputs, FastMatcher, TreeClassifier};
use click_core::error::Result;
use click_core::registry::{FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};

/// Sends `p` out of the output a classifier chose, or counts it in
/// `drops` and recycles it when no rule matched.
fn classified(port: Option<usize>, p: Packet, drops: &mut u64) -> Option<(usize, Packet)> {
    match port {
        Some(port) => Some((port, p)),
        None => {
            *drops += 1;
            p.recycle();
            None
        }
    }
}

/// The generic classifier element: compiles its configuration into a
/// decision tree at configuration time and walks heap-allocated nodes per
/// packet (the unoptimized inner loop of the paper's Figure 3a).
#[derive(Debug)]
pub struct ClassifierElement {
    class: &'static str,
    runtime: TreeClassifier,
    drops: u64,
}

impl ClassifierElement {
    /// Creates a `Classifier`.
    pub fn classifier(config: &str, _ctx: &mut CreateCtx) -> Result<ClassifierElement> {
        Self::with_class("Classifier", config)
    }

    /// Creates an `IPClassifier`.
    pub fn ip_classifier(config: &str, _ctx: &mut CreateCtx) -> Result<ClassifierElement> {
        Self::with_class("IPClassifier", config)
    }

    /// Creates an `IPFilter`.
    pub fn ip_filter(config: &str, _ctx: &mut CreateCtx) -> Result<ClassifierElement> {
        Self::with_class("IPFilter", config)
    }

    fn with_class(class: &'static str, config: &str) -> Result<ClassifierElement> {
        let rules = parse_rules(class, config)?;
        let noutputs = rules_noutputs(&rules);
        let tree = build_tree(&rules, noutputs);
        Ok(ClassifierElement {
            class,
            runtime: TreeClassifier::new(&tree),
            drops: 0,
        })
    }
}

impl Element for ClassifierElement {
    fn class_name(&self) -> &str {
        self.class
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        let port = self.runtime.classify(p.data());
        classified(port, p, &mut self.drops)
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "drops").then_some(self.drops)
    }
}

/// A specialized classifier produced by `click-fastclassifier`. Its class
/// name starts with `FastClassifier@@` (or `FastIPFilter@@`) and its
/// configuration string carries the serialized [`FastMatcher`].
#[derive(Debug)]
pub struct FastClassifierElement {
    class: String,
    matcher: FastMatcher,
    drops: u64,
}

impl FastClassifierElement {
    /// Creates from a generated class name and its serialized matcher.
    pub fn from_config(
        class: &str,
        config: &str,
        _ctx: &mut CreateCtx,
    ) -> Result<FastClassifierElement> {
        if !class.starts_with(FASTCLASSIFIER_PREFIX) && !class.starts_with(FASTIPFILTER_PREFIX) {
            return Err(config_err(
                class,
                "not a generated fast classifier class name",
            ));
        }
        let matcher: FastMatcher = config.trim().parse()?;
        Ok(FastClassifierElement {
            class: class.to_owned(),
            matcher,
            drops: 0,
        })
    }

    /// The specialization shape chosen for this element.
    pub fn shape(&self) -> &'static str {
        self.matcher.shape()
    }
}

impl Element for FastClassifierElement {
    fn class_name(&self) -> &str {
        &self.class
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        let port = self.matcher.classify(p.data());
        classified(port, p, &mut self.drops)
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "drops").then_some(self.drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Emitter;
    use click_classifier::optimize;

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    fn push_one(e: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let mut out = Emitter::new();
        e.push(0, p, &mut out);
        out.drain().collect()
    }

    fn ether_pkt(ethertype: u16) -> Packet {
        let mut p = Packet::new(60);
        p.data_mut()[12..14].copy_from_slice(&ethertype.to_be_bytes());
        p
    }

    #[test]
    fn classifier_element_routes_by_pattern() {
        let mut c = ClassifierElement::classifier("12/0800, 12/0806, -", &mut ctx()).unwrap();
        assert_eq!(push_one(&mut c, ether_pkt(0x0800))[0].0, 0);
        assert_eq!(push_one(&mut c, ether_pkt(0x0806))[0].0, 1);
        assert_eq!(push_one(&mut c, ether_pkt(0x86DD))[0].0, 2);
    }

    #[test]
    fn classifier_without_match_drops() {
        let mut c = ClassifierElement::classifier("12/0800", &mut ctx()).unwrap();
        assert!(push_one(&mut c, ether_pkt(0x0806)).is_empty());
        assert_eq!(c.stat("drops"), Some(1));
    }

    #[test]
    fn ip_filter_element() {
        let mut f =
            ClassifierElement::ip_filter("allow udp dst port 53, deny all", &mut ctx()).unwrap();
        let mut p = Packet::new(40);
        {
            let d = p.data_mut();
            d[0] = 0x45;
            d[9] = 17;
            d[22..24].copy_from_slice(&53u16.to_be_bytes());
        }
        assert_eq!(push_one(&mut f, p.clone())[0].0, 0);
        p.data_mut()[9] = 6;
        assert!(push_one(&mut f, p).is_empty());
    }

    #[test]
    fn fast_classifier_matches_generic() {
        let config = "12/0806 20/0001, 12/0806 20/0002, 12/0800, -";
        let mut generic = ClassifierElement::classifier(config, &mut ctx()).unwrap();
        let rules = parse_rules("Classifier", config).unwrap();
        let tree = optimize(&build_tree(&rules, 4));
        let matcher = FastMatcher::compile(&tree);
        let mut fast = FastClassifierElement::from_config(
            "FastClassifier@@c",
            &matcher.to_string(),
            &mut ctx(),
        )
        .unwrap();
        for ethertype in [0x0800u16, 0x0806, 0x86DD, 0x8100] {
            for w in [0u8, 1, 2] {
                let mut p = ether_pkt(ethertype);
                p.data_mut()[21] = w;
                let a: Vec<usize> = push_one(&mut generic, p.clone())
                    .iter()
                    .map(|x| x.0)
                    .collect();
                let b: Vec<usize> = push_one(&mut fast, p).iter().map(|x| x.0).collect();
                assert_eq!(a, b, "ethertype {ethertype:#x} w {w}");
            }
        }
    }

    #[test]
    fn fast_classifier_rejects_bad_names_and_configs() {
        assert!(FastClassifierElement::from_config(
            "Classifier",
            "fast constant 1 out0",
            &mut ctx()
        )
        .is_err());
        assert!(
            FastClassifierElement::from_config("FastClassifier@@x", "garbage", &mut ctx()).is_err()
        );
    }

    #[test]
    fn bad_patterns_rejected_at_configure_time() {
        assert!(ClassifierElement::classifier("nothex/zz", &mut ctx()).is_err());
        assert!(ClassifierElement::ip_filter("frobnicate all", &mut ctx()).is_err());
    }
}
