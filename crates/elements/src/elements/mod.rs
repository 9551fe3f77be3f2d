//! The element library and the dynamic-dispatch element factory.

pub mod basic;
pub mod classify;
pub mod combo;
pub mod device;
pub mod ether;
pub mod fault;
pub mod ip;
pub mod queueing;

use crate::element::{CreateCtx, Element};
use click_core::error::{Error, Result};
use click_core::registry::{devirt_base, FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};

/// Creates a boxed element of the given class.
///
/// Understands tool-generated class names: `Class__DVn` (devirtualized)
/// behaves like `Class`; `FastClassifier@@x` / `FastIPFilter@@x` build
/// specialized classifiers from their serialized configuration.
///
/// # Errors
///
/// Returns an error for unknown classes or malformed configurations.
///
/// # Examples
///
/// ```
/// use click_elements::element::CreateCtx;
/// use click_elements::elements::create_element;
///
/// let mut ctx = CreateCtx::new();
/// let q = create_element("Queue", "128", &mut ctx)?;
/// assert_eq!(q.class_name(), "Queue");
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn create_element(class: &str, config: &str, ctx: &mut CreateCtx) -> Result<Box<dyn Element>> {
    // Generated classifier classes.
    if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
        return Ok(Box::new(classify::FastClassifierElement::from_config(
            class, config, ctx,
        )?));
    }
    // Devirtualized classes behave like their base class.
    let base = devirt_base(class).unwrap_or(class);
    let element: Box<dyn Element> = match base {
        "Discard" => Box::new(basic::Discard::from_config(config, ctx)?),
        "Counter" => Box::new(basic::Counter::from_config(config, ctx)?),
        "Tee" => Box::new(basic::Tee::from_config(config, ctx)?),
        "Paint" => Box::new(basic::Paint::from_config(config, ctx)?),
        "PaintTee" => Box::new(basic::PaintTee::from_config(config, ctx)?),
        "CheckPaint" => Box::new(basic::CheckPaint::from_config(config, ctx)?),
        "Strip" => Box::new(basic::Strip::from_config(config, ctx)?),
        "Unstrip" => Box::new(basic::Unstrip::from_config(config, ctx)?),
        "Align" => Box::new(basic::Align::from_config(config, ctx)?),
        "AlignmentInfo" => Box::new(basic::AlignmentInfo::from_config(config, ctx)?),
        "Switch" | "StaticSwitch" => Box::new(basic::Switch::from_config(config, ctx)?),
        "StaticPullSwitch" => Box::new(basic::StaticPullSwitch::from_config(config, ctx)?),
        "RoundRobinSched" => Box::new(basic::RoundRobinSched::from_config(config, ctx)?),
        "PrioSched" => Box::new(basic::PrioSched::from_config(config, ctx)?),
        "Idle" => Box::new(basic::Idle::from_config(config, ctx)?),
        "Null" => Box::new(basic::Null::from_config(config, ctx)?),
        "FaultInject" => Box::new(fault::FaultInject::from_config(config, ctx)?),
        "InfiniteSource" | "RatedSource" | "TimedSource" => {
            Box::new(basic::InfiniteSource::from_config(config, ctx)?)
        }
        "Queue" => Box::new(queueing::Queue::from_config(config, ctx)?),
        "RED" => Box::new(queueing::Red::from_config(config, ctx)?),
        "EtherEncap" => Box::new(ether::EtherEncap::from_config(config, ctx)?),
        "ARPQuerier" => Box::new(ether::ArpQuerier::from_config(config, ctx)?),
        "ARPResponder" => Box::new(ether::ArpResponder::from_config(config, ctx)?),
        "HostEtherFilter" => Box::new(ether::HostEtherFilter::from_config(config, ctx)?),
        "CheckIPHeader" => Box::new(ip::CheckIPHeader::from_config(config, ctx)?),
        "MarkIPHeader" => Box::new(ip::MarkIPHeader::from_config(config, ctx)?),
        "GetIPAddress" => Box::new(ip::GetIPAddress::from_config(config, ctx)?),
        "SetIPAddress" => Box::new(ip::SetIPAddress::from_config(config, ctx)?),
        "DropBroadcasts" => Box::new(ip::DropBroadcasts::from_config(config, ctx)?),
        "IPGWOptions" => Box::new(ip::IPGWOptions::from_config(config, ctx)?),
        "FixIPSrc" => Box::new(ip::FixIPSrc::from_config(config, ctx)?),
        "DecIPTTL" => Box::new(ip::DecIPTTL::from_config(config, ctx)?),
        "IPFragmenter" => Box::new(ip::IPFragmenter::from_config(config, ctx)?),
        "ICMPError" => Box::new(ip::ICMPError::from_config(config, ctx)?),
        "ICMPPingResponder" => Box::new(ip::ICMPPingResponder::from_config(config, ctx)?),
        "StaticIPLookup" => Box::new(ip::StaticIPLookup::from_config(config, ctx)?),
        "LookupIPRoute" => Box::new(ip::StaticIPLookup::lookup_ip_route(config, ctx)?),
        "Classifier" => Box::new(classify::ClassifierElement::classifier(config, ctx)?),
        "IPClassifier" => Box::new(classify::ClassifierElement::ip_classifier(config, ctx)?),
        "IPFilter" => Box::new(classify::ClassifierElement::ip_filter(config, ctx)?),
        "IPInputCombo" => Box::new(combo::IPInputCombo::from_config(config, ctx)?),
        "IPOutputCombo" => Box::new(combo::IPOutputCombo::from_config(config, ctx)?),
        "EtherEncapCombo" => Box::new(ether::EtherEncap::from_config(config, ctx)?),
        "FromDevice" => Box::new(device::FromDevice::from_config(config, ctx)?),
        "PollDevice" => Box::new(device::FromDevice::poll_device(config, ctx)?),
        "ToDevice" => Box::new(device::ToDevice::from_config(config, ctx)?),
        "RouterLink" | "Unqueue" => Box::new(device::RouterLink::from_config(config, ctx)?),
        "ScheduleInfo" | "AddressInfo" => Box::new(basic::AlignmentInfo::from_config(config, ctx)?),
        other => {
            return Err(Error::config(
                other,
                "unknown element class (not in the runtime factory)".to_string(),
            ))
        }
    };
    Ok(element)
}

#[cfg(test)]
#[path = "../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::sample_config;
    use super::*;

    #[test]
    fn factory_covers_every_standard_runtime_class() {
        // Every non-information class in the core registry must be
        // constructible (the paper's "common understanding between tools
        // and Click" applies to us too).
        let lib = click_core::registry::Library::standard();
        for spec in lib.iter() {
            let mut ctx = CreateCtx::new();
            let result = create_element(&spec.name, sample_config(&spec.name), &mut ctx);
            assert!(
                result.is_ok(),
                "class {:?} failed: {:?}",
                spec.name,
                result.err()
            );
            // A hot swap hands an unchanged element to the next router as
            // it is, so a class whose construction reads the graph's
            // device map must be rebuilt every time.
            assert!(
                ctx.devices.is_empty() || crate::swap::ALWAYS_REBUILT.contains(&spec.name.as_str()),
                "{:?} registers a device: list it in swap::ALWAYS_REBUILT",
                spec.name
            );
        }
    }

    #[test]
    fn factory_rejects_unknown_class() {
        let mut ctx = CreateCtx::new();
        assert!(create_element("Zorp", "", &mut ctx).is_err());
    }

    #[test]
    fn factory_resolves_devirtualized_names() {
        let mut ctx = CreateCtx::new();
        let e = create_element("Counter__DV7", "", &mut ctx).unwrap();
        assert_eq!(e.class_name(), "Counter");
    }

    #[test]
    fn factory_builds_fast_classifiers() {
        let mut ctx = CreateCtx::new();
        let e = create_element("FastClassifier@@c", "fast constant 1 out0", &mut ctx).unwrap();
        assert!(e.class_name().starts_with("FastClassifier@@"));
    }
}
