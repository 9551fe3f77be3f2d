//! Names of the retired devirtualized element store.
//!
//! `click-devirtualize` (paper §6.1) is a *configuration* transform: it
//! specializes element classes (`Counter__DV1`, ...) so that a C++
//! compiler can turn virtual transfer calls into direct ones. Its output
//! runs on the one element store, `Box<dyn Element>`, which resolves the
//! specialized class names to their base classes. An enum store that
//! dispatched by `match` ran level with the vtable on every Figure-9 row
//! (EXPERIMENTS.md, "Transfer-engine overhead"), so it was deleted; these
//! two names remain as aliases of the one store.

use crate::element::Element;
use crate::router::DynRouter;

/// The one element store under its retired name. Kept for the frozen
/// benchmark; goes with ROADMAP 1(a).
pub type FastElement = Box<dyn Element>;

/// The one router under its retired name. Kept for the frozen benchmark;
/// goes with ROADMAP 1(a).
pub type CompiledRouter = DynRouter;
