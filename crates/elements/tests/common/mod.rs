//! The one table of sample configurations, shared by the element
//! factory's unit tests (through a `#[path]` module) and the checkpoint
//! suite.

/// A configuration every registered class accepts: a class added to the
/// registry without an entry here fails the factory coverage test, the
/// always-rebuilt guard and the state round trip by construction.
pub fn sample_config(class: &str) -> &'static str {
    match class {
        "Classifier" => "12/0800, -",
        "IPClassifier" => "tcp, -",
        "IPFilter" => "allow all",
        "Paint" | "PaintTee" | "CheckPaint" => "1",
        "Strip" | "Unstrip" => "14",
        "Align" => "4, 0",
        "Switch" | "StaticSwitch" | "StaticPullSwitch" => "0",
        "Queue" => "",
        "RED" => "5, 50, 0.02",
        "EtherEncap" | "EtherEncapCombo" => "0x0800, 00:00:00:00:00:01, 00:00:00:00:00:02",
        "ARPQuerier" => "10.0.0.1, 00:00:00:00:00:01",
        "ARPResponder" => "10.0.0.1 00:00:00:00:00:01",
        "HostEtherFilter" => "00:00:00:00:00:01",
        "GetIPAddress" => "16",
        "SetIPAddress" | "FixIPSrc" => "10.0.0.1",
        "IPFragmenter" => "1500",
        "ICMPError" => "10.0.0.1, 11, 0",
        "ICMPPingResponder" => "10.0.0.1",
        "StaticIPLookup" | "LookupIPRoute" => "10.0.0.0/8 0",
        "IPInputCombo" => "1",
        "IPOutputCombo" => "1, 10.0.0.1, 1500",
        "FromDevice" | "PollDevice" | "ToDevice" => "eth0",
        _ => "",
    }
}
