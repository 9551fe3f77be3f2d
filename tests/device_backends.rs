//! Real-I/O backend suite: the same configuration must forward the same
//! packets whether its devices are simulated queues, pcap replay, UDP
//! sockets, or a kernel tap — and the supervision layer must never let a
//! backend fault corrupt the ledger.
//!
//! The contracts under test (see `crates/elements/src/iodev.rs`):
//!
//! * **Differential**: replaying a pcap trace through `FromDevice` is
//!   bit-identical to injecting the same frames in memory — on both
//!   engines (per-packet and batched) and both runtimes (serial, one
//!   worker shard, and 4-shard);
//!   re-captured output pcaps are byte-for-byte equal (deterministic
//!   counter timestamps).
//! * **UDP loopback**: frames sent from a plain `std::net::UdpSocket`
//!   traverse the router and come back out of a `udp:` backend, end to
//!   end on the local stack.
//! * **Tap**: with a `tap:` device, the kernel itself is the peer — its
//!   ARP queries are answered by `ARPResponder` and its ICMP echo
//!   requests by `ICMPPingResponder`, i.e. the router is pingable.
//!   (Runtime-skipped where `/dev/net/tun` is unavailable.)

use click::core::lang::read_config;
use click::core::registry::Library;
use click::core::RouterGraph;
use click::elements::batch::PacketBatch;
use click::elements::engine::{self, Engine};
use click::elements::headers::build_udp_packet;
use click::elements::iodev::{write_pcap, PcapBackend, SupervisedDevice};
use click::elements::packet::Packet;
use click::elements::parallel::{ParallelOpts, ParallelRouter};
use click::elements::router::Router;
use click::elements::Element;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scratch directory unique to this test process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("click-devio-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The forwarding pipeline both injection modes run: enough elements to
/// exercise real per-packet work (classification would reorder nothing).
const PIPELINE: &str =
    "FromDevice(in0) -> Counter -> Queue(4096) -> c2 :: Counter -> ToDevice(out0);";

/// A deterministic trace: UDP frames across 16 flows with a sequence
/// number in the last payload byte.
fn trace_frames(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let sport = 2000 + (i as u16 % 16);
            let mut p =
                build_udp_packet([1; 6], [2; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
            let len = p.len();
            p.data_mut()[len - 1] = i as u8;
            p.data().to_vec()
        })
        .collect()
}

/// `shards` shards on the per-packet or the batched engine.
fn open_engine(graph: &RouterGraph, shards: usize, batched: bool) -> Box<dyn Engine> {
    let opts = ParallelOpts::new(shards);
    engine::open(graph, if batched { opts.batched(8) } else { opts }).unwrap()
}

/// The serial runtime.
fn serial(graph: &RouterGraph, batched: bool) -> Box<dyn Engine> {
    open_engine(graph, 1, batched)
}

/// The sharded runtime with one worker shard (`engine::open` runs one
/// shard serially).
fn one_worker(graph: &RouterGraph, batched: bool) -> Box<dyn Engine> {
    let opts = ParallelOpts::new(1);
    let opts = if batched { opts.batched(8) } else { opts };
    Box::new(ParallelRouter::from_graph::<Box<dyn Element>>(graph, opts).unwrap())
}

/// The 4-shard runtime.
fn sharded(graph: &RouterGraph, batched: bool) -> Box<dyn Engine> {
    open_engine(graph, 4, batched)
}

/// The frames forwarded to `out0`, in arrival order (inter-flow order is
/// scheduling-dependent on the sharded runtime).
fn out0_frames(e: &mut dyn Engine) -> Vec<Vec<u8>> {
    let mut tx = PacketBatch::new();
    e.drain_tx_into(e.device("out0").unwrap(), &mut tx);
    tx.iter().map(|p| p.data().to_vec()).collect()
}

/// Runs `frames` through `e` by in-memory injection.
fn forward_mem(mut e: Box<dyn Engine>, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let in0 = e.device("in0").unwrap();
    for f in frames {
        e.inject(in0, Packet::from_data(f));
    }
    e.settle();
    out0_frames(&mut *e)
}

/// Runs the pcap `trace` through `e` by backend replay on `in0`.
fn forward_pcap(mut e: Box<dyn Engine>, trace: &std::path::Path) -> Vec<Vec<u8>> {
    let in0 = e.device("in0").unwrap();
    let pcap = PcapBackend::open(trace.to_str().unwrap(), None).unwrap();
    e.attach_supervised(in0, SupervisedDevice::new(Box::new(pcap)));
    e.run_devices(1_000_000).unwrap();
    out0_frames(&mut *e)
}

/// Canonical order for runs where global arrival order is legitimately
/// scheduling-dependent.
fn sorted(mut frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    frames.sort();
    frames
}

#[test]
fn pcap_replay_matches_memory_injection_both_engines() {
    let dir = scratch("diff");
    let trace = dir.join("trace.pcap");
    let frames = trace_frames(300);
    write_pcap(&trace, &frames).unwrap();
    let graph = read_config(PIPELINE).unwrap();

    // Serial, per-packet: replay must be *identical in order*, and both
    // must equal the injected trace exactly (this pipeline reorders
    // nothing).
    let mem = forward_mem(serial(&graph, false), &frames);
    let pcap = forward_pcap(serial(&graph, false), &trace);
    assert_eq!(mem, frames);
    assert_eq!(pcap, mem);

    // Serial, batched.
    let mem_batched = forward_mem(serial(&graph, true), &frames);
    let pcap_batched = forward_pcap(serial(&graph, true), &trace);
    assert_eq!(mem_batched, mem);
    assert_eq!(pcap_batched, mem);

    // Re-captured pcaps are bit-identical: deterministic counter
    // timestamps make the bytes a function of the frames alone.
    let out_a = dir.join("out-mem.pcap");
    let out_b = dir.join("out-pcap.pcap");
    write_pcap(&out_a, &mem).unwrap();
    write_pcap(&out_b, &pcap).unwrap();
    assert_eq!(
        std::fs::read(&out_a).unwrap(),
        std::fs::read(&out_b).unwrap(),
        "re-captured pcap files must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pcap_replay_matches_memory_injection_sharded() {
    let dir = scratch("diff4");
    let trace = dir.join("trace.pcap");
    let frames = trace_frames(300);
    write_pcap(&trace, &frames).unwrap();
    let graph = read_config(PIPELINE).unwrap();

    // 4-shard: global order is scheduling-dependent, so compare the
    // canonicalized captures — still bit-identical as files.
    let mem = sorted(forward_mem(sharded(&graph, true), &frames));
    let pcap = sorted(forward_pcap(sharded(&graph, true), &trace));
    assert_eq!(mem, sorted(frames.clone()));
    assert_eq!(pcap, mem);

    let mem_scalar = sorted(forward_mem(sharded(&graph, false), &frames));
    let pcap_scalar = sorted(forward_pcap(sharded(&graph, false), &trace));
    assert_eq!(mem_scalar, mem);
    assert_eq!(pcap_scalar, mem);

    let out_a = dir.join("out-mem.pcap");
    let out_b = dir.join("out-pcap.pcap");
    write_pcap(&out_a, &mem).unwrap();
    write_pcap(&out_b, &pcap).unwrap();
    assert_eq!(
        std::fs::read(&out_a).unwrap(),
        std::fs::read(&out_b).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One worker shard keeps the serial order of the whole capture, not
/// just each flow's: every frame enters on one device, and the worker
/// forwards each burst it pops in ring order.
#[test]
fn pcap_replay_on_one_worker_matches_serial_order() {
    let dir = scratch("diff1");
    let trace = dir.join("trace.pcap");
    let frames = trace_frames(300);
    write_pcap(&trace, &frames).unwrap();
    let graph = read_config(PIPELINE).unwrap();
    for batched in [false, true] {
        let pcap = forward_pcap(one_worker(&graph, batched), &trace);
        assert_eq!(pcap, frames, "batched={batched}");
        let mem = forward_mem(one_worker(&graph, batched), &frames);
        assert_eq!(mem, frames, "batched={batched}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only bytes cross a device. `mem:` echo hands the transmitted packet's
/// own buffer back to RX, so whatever the graph hung on it before
/// `ToDevice` — paint, the destination annotation, a `head` moved by
/// `Strip` — must be gone when `FromDevice` sees the frame again.
#[test]
fn echoed_frames_carry_bytes_only() {
    for (strip, ip_offset) in [("", 30), ("-> Strip(14) ", 16)] {
        let graph = read_config(&format!(
            "FromDevice(in0) -> Paint(3) {strip}-> GetIPAddress({ip_offset}) \
             -> Queue(64) -> ToDevice(mem:loop); \
             FromDevice(mem:loop) -> cp :: CheckPaint(3); \
             cp[0] -> Queue(64) -> ToDevice(plain); \
             cp[1] -> Queue(64) -> ToDevice(painted);"
        ))
        .unwrap();
        let mut e = serial(&graph, false);
        assert_eq!(e.open_backends().unwrap(), 1);
        let frames = trace_frames(8);
        let in0 = e.device("in0").unwrap();
        for f in &frames {
            e.inject(in0, Packet::from_data(f));
        }
        e.run_devices(100).unwrap();

        let mut tx = PacketBatch::new();
        e.drain_tx_into(e.device("painted").unwrap(), &mut tx);
        assert_eq!(tx.len(), 0, "paint crossed the device (strip: {strip:?})");
        e.drain_tx_into(e.device("plain").unwrap(), &mut tx);
        assert_eq!(tx.len(), frames.len());
        for (p, f) in tx.iter().zip(&frames) {
            let sent = &f[f.len() - p.len()..];
            assert_eq!(p.data(), sent);
            assert_eq!((p.anno.paint, p.anno.dst_ip), (0, None));
            let fresh = Packet::from_data(sent);
            assert_eq!(p.alignment_offset(), fresh.alignment_offset());
        }
    }
}

#[test]
fn udp_loopback_end_to_end() {
    // Host-side sockets: one feeds the router's RX, one receives its TX.
    let feeder = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let sink = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sink.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let rx_sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let rx_port = rx_sock.local_addr().unwrap().port();
    let sink_port = sink.local_addr().unwrap().port();
    drop(rx_sock); // the router's backend re-binds this port

    let graph = read_config(&format!(
        "FromDevice(udp:127.0.0.1:{rx_port}>127.0.0.1:{sink_port}) -> Counter \
         -> Queue(256) -> ToDevice(udp:127.0.0.1:{rx_port}>127.0.0.1:{sink_port});"
    ))
    .unwrap();
    let mut r: Router = Router::from_graph(&graph, &Library::standard()).unwrap();
    assert_eq!(r.devices.open_backends().unwrap(), 1);

    for i in 0..20u8 {
        feeder
            .send_to(&[0xAB, i, i, i], ("127.0.0.1", rx_port))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got: Vec<Vec<u8>> = Vec::new();
    let mut buf = [0u8; 2048];
    while got.len() < 20 && Instant::now() < deadline {
        r.run_with_devices(10_000);
        while let Ok((n, _)) = sink.recv_from(&mut buf) {
            got.push(buf[..n].to_vec());
        }
    }
    assert_eq!(got.len(), 20, "all frames must come back over loopback");
    got.sort();
    let mut want: Vec<Vec<u8>> = (0..20u8).map(|i| vec![0xAB, i, i, i]).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn tap_router_answers_kernel_arp_and_ping() {
    use click::elements::iodev::sys;

    // The kernel side needs /dev/net/tun and root; skip (visibly) where
    // the environment cannot provide them.
    let probe = sys::tap_open("clktest-probe");
    let Ok(probe_tap) = probe else {
        eprintln!("SKIP: tap unavailable: {}", probe.err().unwrap());
        return;
    };
    drop(probe_tap);

    // Router at 10.207.0.2/24 on tap `clktest0`; host side 10.207.0.1.
    // ARP requests are answered by ARPResponder, echo requests by
    // ICMPPingResponder; everything else is dropped.
    let graph = read_config(
        "fd :: FromDevice(tap:clktest0) -> cl :: Classifier(12/0806 20/0001, 12/0800, -); \
         cl [0] -> ARPResponder(10.207.0.2 02:00:00:00:00:02) -> q :: Queue(256); \
         cl [1] -> ICMPPingResponder(10.207.0.2) -> q; \
         cl [2] -> Discard; \
         q -> ToDevice(tap:clktest0);",
    )
    .unwrap();
    let mut r: Router = Router::from_graph(&graph, &Library::standard()).unwrap();
    assert_eq!(r.devices.open_backends().unwrap(), 1);
    sys::configure_iface("clktest0", [10, 207, 0, 1], 24).unwrap();

    let icmp = sys::icmp_socket([10, 207, 0, 2]).unwrap();

    // An ICMP echo request; the raw socket adds the IP header for us.
    let mut req = vec![8u8, 0, 0, 0, 0x12, 0x34, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF];
    let mut sum = 0u32;
    for c in req.chunks(2) {
        sum += u32::from(u16::from_be_bytes([c[0], *c.get(1).unwrap_or(&0)]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    let c = !(sum as u16);
    req[2..4].copy_from_slice(&c.to_be_bytes());

    use std::io::{Read, Write};
    let mut icmp = icmp;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reply = None;
    let mut buf = [0u8; 2048];
    while reply.is_none() && Instant::now() < deadline {
        // Re-send periodically: the first requests may be consumed by
        // the kernel's ARP resolution.
        let _ = icmp.write(&req);
        for _ in 0..50 {
            r.run_with_devices(10_000);
            match icmp.read(&mut buf) {
                Ok(n) if n > 0 => {
                    // Raw ICMP sockets deliver the full IP packet.
                    let hlen = ((buf[0] & 0x0f) as usize) * 4;
                    if buf.len() > hlen && buf[hlen] == 0 {
                        reply = Some(buf[..n].to_vec());
                        break;
                    }
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
    let reply = reply.expect("kernel ping must be answered through the tap router");
    let hlen = ((reply[0] & 0x0f) as usize) * 4;
    // Echo reply, same identifier and payload as the request.
    assert_eq!(reply[hlen], 0);
    assert_eq!(&reply[hlen + 4..hlen + 6], &[0x12, 0x34]);
    assert_eq!(&reply[hlen + 8..hlen + 12], &[0xDE, 0xAD, 0xBE, 0xEF]);
    // The responder actually did the work (ARP may or may not have been
    // needed depending on the kernel's neighbor cache).
    let gauges = r.devices.device_gauges();
    assert_eq!(gauges.len(), 1);
    assert!(gauges[0].rx_packets >= 1);
    assert!(gauges[0].tx_packets >= 1);
    assert_eq!(gauges[0].health, "up");
}
