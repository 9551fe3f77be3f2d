//! # click-opt
//!
//! The paper's contribution: configuration-level optimization tools that
//! read a Click router configuration, transform it as a graph, and write
//! the optimized configuration back out — compiler passes whose
//! "instructions" are element classes (paper §5.4):
//!
//! | module | tool | compiler analogy |
//! |---|---|---|
//! | [`fastclassifier`] | `click-fastclassifier` | dynamic code generation |
//! | [`devirtualize`] | `click-devirtualize` | static class analysis |
//! | [`xform`] | `click-xform` | instruction selection / peephole |
//! | [`undead`] | `click-undead` | dead code elimination |
//! | [`align`] | `click-align` | data-flow analysis |
//! | [`combine`] | `click-combine` / `click-uncombine` | cross-router (interprocedural) optimization |
//! | [`mkmindriver`] | `click-mkmindriver` | tree shaking |
//! | [`pretty`] | `click-pretty` | pretty printer |
//! | [`profile`] | `click-report` / `click-profile` | profile-guided optimization |
//!
//! Like compiler passes (or Unix filters), the tools compose:
//!
//! ```
//! use click_core::lang::read_config;
//! use click_core::registry::Library;
//! use click_elements::ip_router::IpRouterSpec;
//! use std::collections::HashSet;
//!
//! let mut g = read_config(&IpRouterSpec::standard(2).config())?;
//! click_opt::xform::apply_patterns(&mut g, &click_opt::xform::ip_combo_patterns()?)?;
//! click_opt::fastclassifier::fastclassifier(&mut g)?;
//! click_opt::devirtualize::devirtualize(&mut g, &Library::standard(), &HashSet::new())?;
//! # Ok::<(), click_core::Error>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod align;
pub mod combine;
pub mod devirtualize;
pub mod fastclassifier;
mod json;
pub mod mkmindriver;
pub mod pretty;
pub mod profile;
pub mod reopt;
pub mod tool;
pub mod undead;
pub mod xform;
