//! `click-mkmindriver` — computes the minimal element-class set a
//! configuration needs, so a "minimum Click containing only the elements
//! needed for a given configuration" can be built (paper §7).

use click_core::graph::RouterGraph;
use click_core::registry::{devirt_base, FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};
use std::collections::BTreeSet;

/// The minimal driver manifest for a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverManifest {
    /// Element classes the driver must ship, sorted.
    pub classes: Vec<String>,
    /// Generated classes whose source rides in the archive.
    pub generated: Vec<String>,
}

impl DriverManifest {
    /// Renders as the tool's textual output.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# click-mkmindriver manifest\n");
        for c in &self.classes {
            s.push_str("class ");
            s.push_str(c);
            s.push('\n');
        }
        for g in &self.generated {
            s.push_str("generated ");
            s.push_str(g);
            s.push('\n');
        }
        s
    }
}

/// Computes the minimal class set: tool-generated names resolve to their
/// underlying requirements (a devirtualized `Counter__DV3` needs
/// `Counter`; a `FastClassifier@@c` needs the fast-classifier runtime).
pub fn mkmindriver(graph: &RouterGraph) -> DriverManifest {
    let mut classes: BTreeSet<String> = BTreeSet::new();
    let mut generated: BTreeSet<String> = BTreeSet::new();
    for (_, decl) in graph.elements() {
        let class = decl.class();
        if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
            generated.insert(class.to_owned());
            classes.insert("FastClassifier".to_owned());
        } else if let Some(base) = devirt_base(class) {
            generated.insert(class.to_owned());
            classes.insert(base.to_owned());
        } else {
            classes.insert(class.to_owned());
        }
    }
    DriverManifest {
        classes: classes.into_iter().collect(),
        generated: generated.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;

    #[test]
    fn lists_each_class_once() {
        let g =
            read_config("FromDevice(a) -> c1 :: Counter -> c2 :: Counter -> Queue -> ToDevice(b);")
                .unwrap();
        let m = mkmindriver(&g);
        assert_eq!(
            m.classes,
            vec!["Counter", "FromDevice", "Queue", "ToDevice"]
        );
        assert!(m.generated.is_empty());
    }

    #[test]
    fn resolves_generated_classes() {
        let g = read_config(
            "Idle -> Counter__DV2 -> Discard; \
             Idle -> fc :: FastClassifier@@c(fast diag 1 out0); fc [0] -> Discard;",
        )
        .unwrap();
        let m = mkmindriver(&g);
        assert!(m.classes.contains(&"Counter".to_owned()));
        assert!(m.classes.contains(&"FastClassifier".to_owned()));
        assert_eq!(m.generated.len(), 2);
    }

    #[test]
    fn text_output_shape() {
        let g = read_config("Idle -> Discard;").unwrap();
        let text = mkmindriver(&g).to_text();
        assert!(text.contains("class Discard\n"));
        assert!(text.contains("class Idle\n"));
    }
}
