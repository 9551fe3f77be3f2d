//! # click-classifier
//!
//! The packet-classification engine for the Click reproduction: the
//! `Classifier` byte-pattern language, the `IPClassifier`/`IPFilter`
//! textual language, decision-tree construction and optimization, and the
//! two runtimes whose contrast the paper's `click-fastclassifier` tool
//! exploits:
//!
//! 1. [`interp::TreeClassifier`] — pointer-chasing tree walk (the
//!    unoptimized `Classifier::push` of Figure 3a);
//! 2. [`diagram::DecisionDiagram`] — an ordered-field decision diagram,
//!    one multiway test per packet field, what every specialized
//!    `FastClassifier@@*` element runs (the generated-code analogue of
//!    Figure 3b).
//!
//! [`fast::FastMatcher`] and [`program::ClassifierProgram`] specialize an
//! optimized tree instead; the paper's §4 firewall reproduction keeps
//! them.
//!
//! ```
//! use click_classifier::build::build_tree;
//! use click_classifier::diagram::build_diagram;
//! use click_classifier::interp::TreeClassifier;
//! use click_classifier::pattern::parse_classifier_config;
//!
//! let rules = parse_classifier_config("12/0800, -")?;
//! let slow = TreeClassifier::new(&build_tree(&rules, 2));
//! let fast = build_diagram(&rules, 2);
//! let mut pkt = [0u8; 64];
//! pkt[12] = 0x08;
//! assert_eq!(slow.classify(&pkt), fast.classify(&pkt));
//! # Ok::<(), click_core::Error>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod diagram;
pub mod fast;
pub mod firewall;
pub mod interp;
pub mod iplang;
pub mod optimize;
pub mod pattern;
pub mod program;
pub mod tree;

pub use build::{build_tree, Action, Check, Cond, Rule};
pub use diagram::{build_diagram, DecisionDiagram};
pub use fast::FastMatcher;
pub use interp::TreeClassifier;
pub use optimize::optimize;
pub use program::ClassifierProgram;
pub use tree::{DecisionTree, Expr, Step};

use click_core::error::Result;

/// Parses any of the three classifier element configurations into rules,
/// dispatching on the element class name.
///
/// # Errors
///
/// Returns an error for unknown classifier classes or malformed configs.
pub fn parse_rules(class: &str, config: &str) -> Result<Vec<Rule>> {
    match class {
        "Classifier" => pattern::parse_classifier_config(config),
        "IPClassifier" => iplang::parse_ipclassifier_config(config),
        "IPFilter" => iplang::parse_ipfilter_config(config),
        other => Err(click_core::Error::spec(format!(
            "{other:?} is not a classifier class"
        ))),
    }
}

/// Number of output ports a rule set uses.
pub fn rules_noutputs(rules: &[Rule]) -> usize {
    rules
        .iter()
        .filter_map(|r| match r.action {
            Action::Emit(o) => Some(o + 1),
            Action::Drop => None,
        })
        .max()
        .unwrap_or(0)
}

/// Convenience: parse, build, and optimize in one step.
///
/// # Errors
///
/// Propagates parse errors from the underlying language.
pub fn compile_config(class: &str, config: &str) -> Result<DecisionTree> {
    let rules = parse_rules(class, config)?;
    let n = rules_noutputs(&rules);
    Ok(optimize(&build_tree(&rules, n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rules_dispatches() {
        assert!(parse_rules("Classifier", "12/0800, -").is_ok());
        assert!(parse_rules("IPClassifier", "tcp, udp, -").is_ok());
        assert!(parse_rules("IPFilter", "allow tcp, deny all").is_ok());
        assert!(parse_rules("Counter", "").is_err());
    }

    #[test]
    fn rules_noutputs_counts_emits() {
        let rules = parse_rules("Classifier", "12/0800, -").unwrap();
        assert_eq!(rules_noutputs(&rules), 2);
        let filter = parse_rules("IPFilter", "allow tcp, deny all").unwrap();
        assert_eq!(rules_noutputs(&filter), 1);
    }

    #[test]
    fn compile_config_produces_working_tree() {
        let tree = compile_config("Classifier", "12/0800, -").unwrap();
        let mut pkt = [0u8; 64];
        pkt[12] = 0x08;
        assert_eq!(tree.classify(&pkt), Some(0));
    }
}
