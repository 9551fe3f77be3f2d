//! # click-core
//!
//! The configuration substrate for a Rust reproduction of *"Programming
//! Language Optimizations for Modular Router Configurations"* (Kohler,
//! Morris, Chen — ASPLOS 2002): the Click configuration language, the
//! router graph IR that optimization tools manipulate, element
//! specifications (processing codes, flow codes, port counts), push/pull
//! resolution, configuration checking, and the archive format tools use to
//! attach generated code to configurations.
//!
//! ## Quick start
//!
//! ```
//! use click_core::lang::{read_config, write_config};
//! use click_core::check::check;
//! use click_core::registry::Library;
//!
//! // Parse a Click configuration (compound elements are compiled away).
//! let graph = read_config(
//!     "elementclass Buffered { $cap | input -> Queue($cap) -> output; } \
//!      FromDevice(eth0) -> Counter -> Buffered(128) -> ToDevice(eth0);",
//! )?;
//! assert_eq!(graph.element_count(), 4);
//!
//! // Validate it like Click would at installation time.
//! let report = check(&graph, &Library::standard());
//! assert!(report.is_ok());
//!
//! // Emit Click source for the flattened graph.
//! let text = write_config(&graph);
//! assert!(text.contains("Queue(128)"));
//! # Ok::<(), click_core::Error>(())
//! ```
//!
//! ## Module map
//!
//! * [`lang`] — lexer, parser, elaborator (compound expansion), unparser.
//! * [`graph`] — the [`graph::RouterGraph`] IR and its manipulation API.
//! * [`spec`] — processing codes, flow codes, port-count codes.
//! * [`registry`] — element-class specifications for the standard library.
//! * [`pushpull`] — push/pull constraint resolution.
//! * [`check`] — the `click-check` engine.
//! * [`archive`] — multi-file configuration bundles.
//! * [`config`] — configuration-string utilities (argument splitting,
//!   `$variable` substitution).
//! * [`hash`] — the workspace's one seeded generator ([`Lcg`]) and one
//!   hash ([`fnv1a`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod archive;
pub mod check;
pub mod config;
pub mod error;
pub mod graph;
pub mod hash;
pub mod lang;
pub mod pushpull;
pub mod registry;
pub mod spec;

pub use error::{Error, Result};
pub use graph::{Connection, ElementId, PortRef, RouterGraph};
pub use hash::{fnv1a, Lcg};
