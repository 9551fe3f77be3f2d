//! click-spine library half: everything but the `#[global_allocator]`.
pub mod alloc;
pub mod chain;
pub mod cli;
pub mod compare;
pub mod estimator;
pub mod fingerprint;
pub mod gen;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod oracle;
pub mod paths;
pub mod run;
pub mod sched;
pub mod span;
pub mod suite;
pub mod workloads;
