//! # click-elements
//!
//! The element library and router runtime for the Click reproduction:
//! packets, headers, the [`element::Element`] trait, the full Figure-1 IP
//! router element set, and two execution engines over the same
//! configuration graph:
//!
//! * [`router::DynRouter`] — every packet transfer dispatches through a
//!   `Box<dyn Element>` vtable (the baseline Click "virtual function"
//!   regime, paper §3);
//! * [`fast::CompiledRouter`] — elements stored inline in an enum and
//!   dispatched statically (the `click-devirtualize` regime, §6.1).
//!
//! ## Quick start
//!
//! ```
//! use click_core::lang::read_config;
//! use click_core::registry::Library;
//! use click_elements::packet::Packet;
//! use click_elements::router::DynRouter;
//!
//! let graph = read_config(
//!     "FromDevice(in0) -> Counter -> Queue(64) -> ToDevice(out0);",
//! )?;
//! let mut router = DynRouter::from_graph(&graph, &Library::standard())?;
//! let in0 = router.devices.id("in0").unwrap();
//! let out0 = router.devices.id("out0").unwrap();
//! router.devices.inject(in0, Packet::new(60));
//! router.run_until_idle(100);
//! assert_eq!(router.devices.tx_len(out0), 1);
//! # Ok::<(), click_core::Error>(())
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: the in-memory engine is entirely safe code, but
// the real-I/O device backends (`iodev::sys`) need raw Linux syscalls —
// the workspace deliberately has no libc dependency — and carry a scoped
// `#[allow(unsafe_code)]` with the safety argument at each call site.
#![deny(unsafe_code)]

pub mod batch;
pub mod element;
pub mod elements;
pub mod engine;
pub mod fast;
pub mod headers;
pub mod iodev;
pub mod ip_router;
pub mod packet;
pub mod parallel;
pub mod persist;
pub mod ring;
pub mod router;
pub mod routing;
pub mod steer;
pub mod swap;
pub mod telemetry;

pub use batch::{BatchEmitter, PacketBatch};
pub use element::Element;
pub use engine::Engine;
pub use fast::CompiledRouter;
pub use iodev::{DeviceBackend, DeviceHealth, IoFault, SupervisedDevice};
pub use packet::Packet;
pub use parallel::{ParallelOpts, ParallelRouter};
pub use persist::{Checkpoint, CheckpointDaemon, CheckpointEngine, CheckpointStore};
pub use router::{DynRouter, Router};
pub use steer::RssSteering;
pub use swap::{ElementState, SwapReport, TransferPlan};
pub use telemetry::{ElementProfile, ShardGauges, SwapGauges};
