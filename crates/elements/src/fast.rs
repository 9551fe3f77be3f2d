//! The devirtualized element store.
//!
//! `click-devirtualize` "addresses virtual function call overhead by
//! changing packet-transfer virtual function calls into conventional
//! function calls" (paper §6.1). Rust's analogue: instead of
//! `Box<dyn Element>` and vtable dispatch, [`FastElement`] is an enum over
//! the concrete element types, so every transfer is a direct call behind
//! a `match` on a discriminant, and element state lives inline. The
//! match is a jump table — still one indirect branch per transfer — and
//! on the measured host this engine runs level with the vtable engine,
//! not ahead of it (EXPERIMENTS.md, "Transfer-engine overhead").
//!
//! Classes without a variant fall back to boxed dynamic dispatch, so a
//! [`CompiledRouter`] runs *any* configuration; only the hot classes gain.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{CreateCtx, Element, Emitter, PullContext, TaskContext};
use crate::elements::{basic, classify, combo, device, ether, ip, queueing};
use crate::packet::Packet;
use crate::router::{Router, Slot};
use crate::swap::ElementState;
use click_core::error::Result;
use click_core::registry::{devirt_base, FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};
use std::cell::Cell;
use std::rc::Rc;

macro_rules! fast_elements {
    ($( $variant:ident ( $ty:ty ) ),* $(,)?) => {
        /// An element stored inline and dispatched by `match` — the
        /// devirtualized counterpart of `Box<dyn Element>`.
        pub enum FastElement {
            $(
                #[doc = concat!("Inline `", stringify!($variant), "`.")]
                $variant($ty),
            )*
            /// Fallback: a class without an inline variant.
            Dyn(Box<dyn Element>),
        }

        impl FastElement {
            /// A short label for the chosen storage (used by tests).
            pub fn storage(&self) -> &'static str {
                match self {
                    $( FastElement::$variant(_) => stringify!($variant), )*
                    FastElement::Dyn(_) => "Dyn",
                }
            }
        }

        impl Slot for FastElement {
            fn create(class: &str, config: &str, ctx: &mut CreateCtx) -> Result<Self> {
                if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
                    return Ok(FastElement::FastClassifier(
                        classify::FastClassifierElement::from_config(class, config, ctx)?,
                    ));
                }
                let base = devirt_base(class).unwrap_or(class);
                Ok(match base {
                    "Paint" => FastElement::Paint(basic::Paint::from_config(config, ctx)?),
                    "PaintTee" => FastElement::PaintTee(basic::PaintTee::from_config(config, ctx)?),
                    "CheckPaint" => FastElement::CheckPaint(basic::CheckPaint::from_config(config, ctx)?),
                    "Strip" => FastElement::Strip(basic::Strip::from_config(config, ctx)?),
                    "Counter" => FastElement::Counter(basic::Counter::from_config(config, ctx)?),
                    "Discard" => FastElement::Discard(basic::Discard::from_config(config, ctx)?),
                    "Tee" => FastElement::Tee(basic::Tee::from_config(config, ctx)?),
                    "Null" => FastElement::Null(basic::Null::from_config(config, ctx)?),
                    "Queue" => FastElement::Queue(queueing::Queue::from_config(config, ctx)?),
                    "RED" => FastElement::Red(queueing::Red::from_config(config, ctx)?),
                    "EtherEncap" | "EtherEncapCombo" => {
                        FastElement::EtherEncap(ether::EtherEncap::from_config(config, ctx)?)
                    }
                    "ARPQuerier" => FastElement::ArpQuerier(ether::ArpQuerier::from_config(config, ctx)?),
                    "ARPResponder" => {
                        FastElement::ArpResponder(ether::ArpResponder::from_config(config, ctx)?)
                    }
                    "CheckIPHeader" => {
                        FastElement::CheckIPHeader(ip::CheckIPHeader::from_config(config, ctx)?)
                    }
                    "GetIPAddress" => {
                        FastElement::GetIPAddress(ip::GetIPAddress::from_config(config, ctx)?)
                    }
                    "DropBroadcasts" => {
                        FastElement::DropBroadcasts(ip::DropBroadcasts::from_config(config, ctx)?)
                    }
                    "IPGWOptions" => FastElement::IPGWOptions(ip::IPGWOptions::from_config(config, ctx)?),
                    "FixIPSrc" => FastElement::FixIPSrc(ip::FixIPSrc::from_config(config, ctx)?),
                    "DecIPTTL" => FastElement::DecIPTTL(ip::DecIPTTL::from_config(config, ctx)?),
                    "IPFragmenter" => {
                        FastElement::IPFragmenter(ip::IPFragmenter::from_config(config, ctx)?)
                    }
                    "ICMPError" => FastElement::ICMPError(ip::ICMPError::from_config(config, ctx)?),
                    "StaticIPLookup" => {
                        FastElement::StaticIPLookup(ip::StaticIPLookup::from_config(config, ctx)?)
                    }
                    "LookupIPRoute" => {
                        FastElement::StaticIPLookup(ip::StaticIPLookup::lookup_ip_route(config, ctx)?)
                    }
                    "Classifier" => {
                        FastElement::Classifier(classify::ClassifierElement::classifier(config, ctx)?)
                    }
                    "IPClassifier" => {
                        FastElement::Classifier(classify::ClassifierElement::ip_classifier(config, ctx)?)
                    }
                    "IPFilter" => {
                        FastElement::Classifier(classify::ClassifierElement::ip_filter(config, ctx)?)
                    }
                    "IPInputCombo" => {
                        FastElement::IPInputCombo(combo::IPInputCombo::from_config(config, ctx)?)
                    }
                    "IPOutputCombo" => {
                        FastElement::IPOutputCombo(combo::IPOutputCombo::from_config(config, ctx)?)
                    }
                    "FromDevice" => FastElement::FromDevice(device::FromDevice::from_config(config, ctx)?),
                    "PollDevice" => FastElement::FromDevice(device::FromDevice::poll_device(config, ctx)?),
                    "ToDevice" => FastElement::ToDevice(device::ToDevice::from_config(config, ctx)?),
                    "RouterLink" | "Unqueue" => {
                        FastElement::RouterLink(device::RouterLink::from_config(config, ctx)?)
                    }
                    _ => FastElement::Dyn(crate::elements::create_element(class, config, ctx)?),
                })
            }

            // `push` and `push_batch` are kept out of line: with these
            // 30-arm matches (and every arm's element body) merged into
            // the engine's run loop, the compiled engine ran slower than
            // the vtable call it replaces (DV+batched behind Base+batched
            // in Figure 9). One direct call per hop costs nothing
            // measurable.
            #[inline(never)]
            fn push(&mut self, port: usize, p: Packet, out: &mut Emitter) {
                match self {
                    $( FastElement::$variant(e) => e.push(port, p, out), )*
                    FastElement::Dyn(e) => e.push(port, p, out),
                }
            }

            #[inline]
            fn pull<C: PullContext>(&mut self, port: usize, ctx: &mut C) -> Option<Packet> {
                match self {
                    $( FastElement::$variant(e) => e.pull(port, ctx), )*
                    FastElement::Dyn(e) => e.pull(port, ctx),
                }
            }

            #[inline(never)]
            fn push_batch(&mut self, port: usize, batch: PacketBatch, out: &mut BatchEmitter) {
                match self {
                    $( FastElement::$variant(e) => e.push_batch(port, batch, out), )*
                    FastElement::Dyn(e) => e.push_batch(port, batch, out),
                }
            }

            #[inline]
            fn pull_batch<C: PullContext>(
                &mut self,
                port: usize,
                max: usize,
                ctx: &mut C,
                into: &mut PacketBatch,
            ) -> usize {
                match self {
                    $( FastElement::$variant(e) => e.pull_batch(port, max, ctx, into), )*
                    FastElement::Dyn(e) => e.pull_batch(port, max, ctx, into),
                }
            }

            fn is_task(&self) -> bool {
                match self {
                    $( FastElement::$variant(e) => e.is_task(), )*
                    FastElement::Dyn(e) => e.is_task(),
                }
            }

            fn run_task(&mut self, ctx: &mut dyn TaskContext) -> usize {
                match self {
                    $( FastElement::$variant(e) => e.run_task(ctx), )*
                    FastElement::Dyn(e) => e.run_task(ctx),
                }
            }

            fn stat(&self, name: &str) -> Option<u64> {
                match self {
                    $( FastElement::$variant(e) => e.stat(name), )*
                    FastElement::Dyn(e) => e.stat(name),
                }
            }

            fn queue_depth_handle(&self) -> Option<Rc<Cell<usize>>> {
                match self {
                    $( FastElement::$variant(e) => e.queue_depth_handle(), )*
                    FastElement::Dyn(e) => e.queue_depth_handle(),
                }
            }

            fn attach_downstream_queue(&mut self, handle: Rc<Cell<usize>>) {
                match self {
                    $( FastElement::$variant(e) => e.attach_downstream_queue(handle), )*
                    FastElement::Dyn(e) => e.attach_downstream_queue(handle),
                }
            }

            fn take_state(&mut self) -> Option<ElementState> {
                match self {
                    $( FastElement::$variant(e) => e.take_state(), )*
                    FastElement::Dyn(e) => e.take_state(),
                }
            }

            fn restore_state(&mut self, state: ElementState) {
                match self {
                    $( FastElement::$variant(e) => e.restore_state(state), )*
                    FastElement::Dyn(e) => e.restore_state(state),
                }
            }
        }
    };
}

fast_elements! {
    Paint(basic::Paint),
    PaintTee(basic::PaintTee),
    CheckPaint(basic::CheckPaint),
    Strip(basic::Strip),
    Counter(basic::Counter),
    Discard(basic::Discard),
    Tee(basic::Tee),
    Null(basic::Null),
    Queue(queueing::Queue),
    Red(queueing::Red),
    EtherEncap(ether::EtherEncap),
    ArpQuerier(ether::ArpQuerier),
    ArpResponder(ether::ArpResponder),
    CheckIPHeader(ip::CheckIPHeader),
    GetIPAddress(ip::GetIPAddress),
    DropBroadcasts(ip::DropBroadcasts),
    IPGWOptions(ip::IPGWOptions),
    FixIPSrc(ip::FixIPSrc),
    DecIPTTL(ip::DecIPTTL),
    IPFragmenter(ip::IPFragmenter),
    ICMPError(ip::ICMPError),
    StaticIPLookup(ip::StaticIPLookup),
    Classifier(classify::ClassifierElement),
    FastClassifier(classify::FastClassifierElement),
    IPInputCombo(combo::IPInputCombo),
    IPOutputCombo(combo::IPOutputCombo),
    FromDevice(device::FromDevice),
    ToDevice(device::ToDevice),
    RouterLink(device::RouterLink),
}

/// A router whose elements dispatch statically through [`FastElement`] —
/// the devirtualized runtime.
pub type CompiledRouter = Router<FastElement>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::DynRouter;
    use click_core::lang::read_config;
    use click_core::registry::Library;

    fn both(src: &str) -> (DynRouter, CompiledRouter) {
        let graph = read_config(src).unwrap();
        let lib = Library::standard();
        (
            Router::from_graph(&graph, &lib).unwrap(),
            Router::from_graph(&graph, &lib).unwrap(),
        )
    }

    #[test]
    fn fast_store_uses_inline_variants() {
        let mut ctx = CreateCtx::new();
        let e = FastElement::create("Counter", "", &mut ctx).unwrap();
        assert_eq!(e.storage(), "Counter");
        let dv = FastElement::create("Counter__DV3", "", &mut ctx).unwrap();
        assert_eq!(dv.storage(), "Counter");
        let fc =
            FastElement::create("FastClassifier@@c", "fast constant 1 out0", &mut ctx).unwrap();
        assert_eq!(fc.storage(), "FastClassifier");
        let other = FastElement::create("Idle", "", &mut ctx).unwrap();
        assert_eq!(other.storage(), "Dyn");
    }

    #[test]
    fn compiled_router_matches_dyn_router() {
        let src = "FromDevice(in0) -> c :: Classifier(12/0800, -) ; \
                   c [0] -> Strip(14) -> CheckIPHeader -> Counter -> Unstrip(14) -> q :: Queue(64); \
                   c [1] -> q; q -> ToDevice(out0);";
        let (mut a, mut b) = both(src);
        let in_a = a.devices.id("in0").unwrap();
        let out_a = a.devices.id("out0").unwrap();
        let in_b = b.devices.id("in0").unwrap();
        let out_b = b.devices.id("out0").unwrap();
        for i in 0..20u8 {
            let mut p = crate::headers::build_udp_packet(
                [1; 6],
                [2; 6],
                0x0A000001,
                0x0A000100 + u32::from(i),
                1,
                2,
                18,
                64,
            );
            if i % 3 == 0 {
                p.data_mut()[12] = 0x86; // not IP: takes the other branch
            }
            a.devices.inject(in_a, p.clone());
            b.devices.inject(in_b, p);
        }
        a.run_until_idle(1000);
        b.run_until_idle(1000);
        let ta = a.devices.take_tx(out_a);
        let tb = b.devices.take_tx(out_b);
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x.data(), y.data());
        }
        assert_eq!(a.stat("c", "drops"), b.stat("c", "drops"));
    }
}
