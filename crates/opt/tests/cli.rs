//! End-to-end tests of the command-line tools, run as real processes
//! with real pipes — the paper's deployment model.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn run_tool(exe: &str, args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    // A tool that refuses its arguments exits without reading stdin.
    match child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => panic!("write stdin: {e}"),
        _ => {}
    }
    let out = child.wait_with_output().expect("tool runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const ROUTERISH: &str = "Idle -> c :: Classifier(12/0800, -); \
                         c [0] -> Counter -> Discard; c [1] -> Discard;";

#[test]
fn check_accepts_good_and_rejects_bad() {
    let (stdout, _, ok) = run_tool(env!("CARGO_BIN_EXE_click-check"), &[], ROUTERISH);
    assert!(ok);
    assert!(stdout.contains("configuration OK"));

    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-check"), &[], "Zorp -> Discard;");
    assert!(!ok);
    assert!(stderr.contains("unknown element class"), "{stderr}");

    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-check"), &[], "syntax ->");
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn fastclassifier_pipe_produces_archive_that_rechecks() {
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-fastclassifier"), &[], ROUTERISH);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("specialized 1 classifier"), "{stderr}");
    assert!(
        stdout.starts_with("!<click-archive>"),
        "generated code must ride in an archive"
    );
    // The output is itself a valid tool input.
    let (stdout2, _, ok) = run_tool(env!("CARGO_BIN_EXE_click-check"), &[], &stdout);
    assert!(ok, "optimized output fails click-check");
    assert!(stdout2.contains("configuration OK"));
}

#[test]
fn three_stage_pipe_matches_paper_chain() {
    // click-xform | click-fastclassifier | click-devirtualize
    let spec = click_elements::ip_router::IpRouterSpec::standard(2);
    let source = spec.config();
    let (s1, e1, ok) = run_tool(env!("CARGO_BIN_EXE_click-xform"), &[], &source);
    assert!(ok, "{e1}");
    assert!(e1.contains("applied 4 replacement(s)"), "{e1}");
    let (s2, e2, ok) = run_tool(env!("CARGO_BIN_EXE_click-fastclassifier"), &[], &s1);
    assert!(ok, "{e2}");
    let (s3, e3, ok) = run_tool(env!("CARGO_BIN_EXE_click-devirtualize"), &[], &s2);
    assert!(ok, "{e3}");
    let graph = click_core::lang::read_config(&s3).expect("final stage parses");
    assert!(graph.has_requirement("fastclassifier"));
    assert!(graph.has_requirement("devirtualize"));
    assert!(graph.elements().any(
        |(_, e)| e.class() == "IPInputCombo__DV1" || e.class().starts_with("IPInputCombo__DV")
    ));
}

#[test]
fn devirtualize_exclude_flag() {
    let input = "Idle -> keep :: Counter -> Discard;";
    let (stdout, _, ok) = run_tool(
        env!("CARGO_BIN_EXE_click-devirtualize"),
        &["--exclude", "keep"],
        input,
    );
    assert!(ok);
    let graph = click_core::lang::read_config(&stdout).unwrap();
    let keep = graph.find("keep").unwrap();
    assert_eq!(
        graph.element(keep).class(),
        "Counter",
        "excluded element untouched"
    );
}

/// A mistyped flag, or a value flag with its value missing, must not
/// silently run the default transform: usage on stderr, nothing on
/// stdout, failure status.
#[test]
fn tools_refuse_unknown_flags_and_missing_values() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_click-devirtualize"),
            &["--exclde", "a"][..],
        ),
        (env!("CARGO_BIN_EXE_click-devirtualize"), &["--exclude"][..]),
        (env!("CARGO_BIN_EXE_click-xform"), &["--bogus"][..]),
        // The runtime tools too: these used to run the default workload
        // and print a profile, or run a drill without checkpoints.
        (
            env!("CARGO_BIN_EXE_click-report"),
            &["--packets", "8", "--out"][..],
        ),
        (
            env!("CARGO_BIN_EXE_click-pcap"),
            &["--in", "x", "--ckpt-dir"][..],
        ),
        // A retired switch: there is one element store to run on.
        (
            env!("CARGO_BIN_EXE_click-pcap"),
            &["--in", "x", "--compiled"][..],
        ),
        (env!("CARGO_BIN_EXE_click-morph"), &["--bogus"][..]),
    ] {
        let (stdout, stderr, ok) = run_tool(exe, args, "a :: Idle;");
        assert!(!ok, "{exe} {args:?} ran");
        assert_eq!(stdout, "", "{exe} {args:?} wrote its output");
        assert!(stderr.contains("usage: click-"), "{exe} {args:?}: {stderr}");
    }
}

/// The filters that take no arguments refuse any: a configuration named
/// on the command line used to be ignored while an empty stdin was
/// transformed, and `--help` waited on the terminal.
#[test]
fn argumentless_filters_refuse_any_argument() {
    for exe in [
        env!("CARGO_BIN_EXE_click-align"),
        env!("CARGO_BIN_EXE_click-arpeliminate"),
        env!("CARGO_BIN_EXE_click-fastclassifier"),
        env!("CARGO_BIN_EXE_click-flatten"),
        env!("CARGO_BIN_EXE_click-undead"),
    ] {
        for arg in ["x.click", "--help"] {
            let out = Command::new(exe)
                .arg(arg)
                .stdin(Stdio::null())
                .output()
                .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{exe} {arg}: {stderr}");
            assert!(out.stdout.is_empty(), "{exe} {arg} wrote its output");
            assert!(stderr.contains("usage: click-"), "{exe} {arg}: {stderr}");
        }
    }
}

#[test]
fn undead_folds_switches_via_cli() {
    let input = "InfiniteSource(5) -> s :: StaticSwitch(0); \
                 s [0] -> a :: Counter -> Discard; s [1] -> b :: Counter -> Discard;";
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-undead"), &[], input);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("folded 1 switch"), "{stderr}");
    let graph = click_core::lang::read_config(&stdout).unwrap();
    assert!(graph.find("a").is_some());
    assert!(graph.find("b").is_none());
}

#[test]
fn align_inserts_via_cli() {
    let input = "FromDevice(a) -> Strip(12) -> CheckIPHeader -> Queue -> ToDevice(b);";
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-align"), &[], input);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("inserted 1 Align"), "{stderr}");
    assert!(stdout.contains("Align(4, 0)"));
}

#[test]
fn flatten_compiles_away_compounds() {
    let input = "elementclass P { input -> Counter -> output; } Idle -> P -> P -> Discard;";
    let (stdout, _, ok) = run_tool(env!("CARGO_BIN_EXE_click-flatten"), &[], input);
    assert!(ok);
    assert!(!stdout.contains("elementclass"));
    let graph = click_core::lang::read_config(&stdout).unwrap();
    assert_eq!(
        graph
            .elements()
            .filter(|(_, e)| e.class() == "Counter")
            .count(),
        2
    );
}

#[test]
fn mkmindriver_lists_classes() {
    let (stdout, _, ok) = run_tool(env!("CARGO_BIN_EXE_click-mkmindriver"), &[], ROUTERISH);
    assert!(ok);
    assert!(stdout.contains("class Classifier"));
    assert!(stdout.contains("class Counter"));
}

#[test]
fn pretty_emits_html() {
    let (stdout, _, ok) = run_tool(
        env!("CARGO_BIN_EXE_click-pretty"),
        &["my router"],
        ROUTERISH,
    );
    assert!(ok);
    assert!(stdout.contains("<!DOCTYPE html>"));
    assert!(stdout.contains("my router"));
}

#[test]
fn combine_uncombine_pipe() {
    // click-combine needs files; write the two routers to a temp dir.
    let dir = std::env::temp_dir().join(format!("click-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = click_elements::ip_router::IpRouterSpec::standard(2);
    let a_path = dir.join("a.click");
    let b_path = dir.join("b.click");
    std::fs::write(&a_path, spec.config()).unwrap();
    std::fs::write(&b_path, spec.config()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_click-combine"))
        .arg(format!("A={}", a_path.display()))
        .arg(format!("B={}", b_path.display()))
        .args(["--link", "A.eth1 -> B.eth0"])
        .output()
        .expect("combine runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let combined = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(combined.contains("RouterLink"));

    let (elim, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-arpeliminate"), &[], &combined);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("rewrote 1 ARPQuerier"), "{stderr}");

    let (a_out, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_click-uncombine"), &["A"], &elim);
    assert!(ok, "{stderr}");
    let a_graph = click_core::lang::read_config(&a_out).unwrap();
    let aq1 = a_graph.find("aq1").unwrap();
    assert_eq!(a_graph.element(aq1).class(), "EtherEncap");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn xform_with_custom_pattern_file() {
    let dir = std::env::temp_dir().join(format!("click-xform-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pat = dir.join("null.pattern");
    std::fs::write(
        &pat,
        "elementclass Nn_pattern { input -> Null -> Null -> output; } \
         elementclass Nn_replacement { input -> Null -> output; }",
    )
    .unwrap();
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_click-xform"),
        &[pat.to_str().unwrap()],
        "Idle -> Null -> Null -> Null -> Discard;",
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("applied 2 replacement(s)"), "{stderr}");
    let graph = click_core::lang::read_config(&stdout).unwrap();
    assert_eq!(
        graph
            .elements()
            .filter(|(_, e)| e.class() == "Null")
            .count(),
        1
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `click-report --devices --swap`: frames forwarded *after* the swap to
/// a backend-bound device must reach the backend, on both runtimes (the
/// serial twin used to settle the post-swap half without a device round,
/// leaving them in the TX queue yet counting them as sent).
#[test]
fn report_devices_swap_pumps_post_swap_tx_to_the_backend() {
    let dir = std::env::temp_dir().join(format!("click-cli-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_owned()
    };
    // A pcap device with an empty trace: nothing to receive, and every
    // frame the router sends it is written to `sent.pcap`.
    let empty = write("empty.pcap", "");
    click_elements::iodev::write_pcap(&empty, &[]).unwrap();
    let sent = dir.join("sent.pcap");
    let tail = format!(
        "q :: Queue(4096) -> ToDevice(pcap:{empty}>{});",
        sent.display()
    );
    let old = write(
        "old.click",
        &format!("FromDevice(in0) -> c :: Counter -> {tail}"),
    );
    let new = write(
        "new.click",
        &format!("FromDevice(in0) -> c :: Counter -> c2 :: Counter -> {tail}"),
    );
    for shards in ["1", "2"] {
        // 400 generic frames round-robin over {in0, pcap:...}; the
        // scheme-bearing device is fed by its backend only, so 200 enter
        // on in0 and every one is forwarded to the backend.
        let (stdout, stderr, ok) = run_tool(
            env!("CARGO_BIN_EXE_click-report"),
            &[
                "--devices",
                "--packets",
                "400",
                "--shards",
                shards,
                "--swap",
                &new,
                &old,
            ],
            "",
        );
        assert!(ok, "shards {shards}: {stderr}");
        assert!(stdout.contains("\"swaps\": 1"), "shards {shards}: {stdout}");
        assert!(
            stdout.contains("\"tx_packets\": 200"),
            "shards {shards}: both halves must reach the backend: {stdout}"
        );
        assert!(
            stderr.contains("400 packets in, 200 out"),
            "shards {shards}: {stderr}"
        );
        let on_disk = click_elements::iodev::read_pcap(&sent).unwrap();
        assert_eq!(on_disk.len(), 200, "shards {shards}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
