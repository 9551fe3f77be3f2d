//! The forwarding-path cost model.
//!
//! Walks a (possibly optimizer-transformed) configuration graph along the
//! path a concrete packet takes — classifying with the element's real
//! decision tree, routing with its real routing table — and charges
//! cycles for element work, packet transfers (virtual calls through the
//! [`Btb`], or direct calls for devirtualized classes), classification
//! comparisons, and memory misses. The optimizations' savings therefore
//! *emerge from the transformed graphs*, not from per-configuration
//! constants.

use crate::cost::btb::{code_id, Btb, DIRECT_CALL_CYCLES};
use crate::cost::params::{CostParams, Platform};
use click_classifier::{
    build_tree, parse_rules, rules_noutputs, DecisionDiagram, DecisionTree, Step,
};
use click_core::error::{Error, Result};
use click_core::graph::{ElementId, RouterGraph};
use click_core::registry::{devirt_base, FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};
use click_elements::element::CreateCtx;
use click_elements::elements::classify::fast_diagram;
use click_elements::elements::ip::StaticIPLookup;
use click_elements::headers::ipv4;
use std::collections::HashMap;

/// The walking packet: raw frame bytes plus the annotations the cost
/// model needs to choose branches.
#[derive(Debug, Clone)]
struct Sketch {
    data: Vec<u8>,
    offset: usize,
    paint: u8,
    dst_ip: u32,
}

impl Sketch {
    fn view(&self) -> &[u8] {
        &self.data[self.offset.min(self.data.len())..]
    }
}

/// The cost of one packet's trip through the forwarding path.
#[derive(Debug, Clone, Default)]
pub struct PathCost {
    /// Compute cycles (700 MHz-equivalent).
    pub cycles: f64,
    /// Memory misses charged on the path.
    pub mem_misses: f64,
    /// Elements visited.
    pub elements: usize,
    /// Packet transfers performed.
    pub hops: usize,
    /// Of which indirect (virtual) transfers.
    pub virtual_hops: usize,
    /// Of `cycles`, the share spent on packet transfers (dispatch,
    /// BTB, simple_action adapters) — the part a batched engine
    /// amortizes across the batch.
    pub transfer_cycles: f64,
}

/// A reusable cost model for one configuration.
pub struct PathModel<'g> {
    graph: &'g RouterGraph,
    params: CostParams,
    /// Decision trees for generic classifiers, by element.
    trees: HashMap<ElementId, DecisionTree>,
    /// Decision diagrams for specialized classifiers.
    diagrams: HashMap<ElementId, DecisionDiagram>,
    /// Routing tables.
    tables: HashMap<ElementId, StaticIPLookup>,
    /// The branch predictor, persistent across packets.
    pub btb: Btb,
}

fn base_of(class: &str) -> &str {
    devirt_base(class).unwrap_or(class)
}

fn is_devirtualized(class: &str) -> bool {
    devirt_base(class).is_some()
        || class.starts_with(FASTCLASSIFIER_PREFIX)
        || class.starts_with(FASTIPFILTER_PREFIX)
}

impl<'g> PathModel<'g> {
    /// Prepares a model: compiles classifier trees and routing tables
    /// exactly once, like router initialization.
    ///
    /// # Errors
    ///
    /// Fails if a classifier or routing configuration is malformed.
    pub fn new(graph: &'g RouterGraph, params: CostParams) -> Result<PathModel<'g>> {
        let mut trees = HashMap::new();
        let mut diagrams = HashMap::new();
        let mut tables = HashMap::new();
        for (id, decl) in graph.elements() {
            let class = decl.class();
            if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
                diagrams.insert(id, fast_diagram(decl.config())?);
                continue;
            }
            match base_of(class) {
                "Classifier" | "IPClassifier" | "IPFilter" => {
                    let rules = parse_rules(base_of(class), decl.config())?;
                    trees.insert(id, build_tree(&rules, rules_noutputs(&rules)));
                }
                "StaticIPLookup" | "LookupIPRoute" => {
                    let mut ctx = CreateCtx::new();
                    tables.insert(id, StaticIPLookup::from_config(decl.config(), &mut ctx)?);
                }
                _ => {}
            }
        }
        Ok(PathModel {
            graph,
            params,
            trees,
            diagrams,
            tables,
            btb: Btb::new(),
        })
    }

    /// Charges the transfer from `from` to `to` and returns
    /// `(cycles, was_virtual)`.
    fn transfer_cost(&mut self, from: ElementId, from_port: usize, to: ElementId) -> (f64, bool) {
        let from_class = self.graph.element(from).class();
        let to_class = self.graph.element(to).class();
        if is_devirtualized(from_class) {
            // Direct call with inlined port constants; simple_action
            // bodies are entered directly too.
            (DIRECT_CALL_CYCLES, false)
        } else {
            let site = (code_id(from_class), from_port);
            let mut c = self.params.dispatch_overhead
                + self.btb.indirect_call(site, code_id(base_of(to_class)));
            if self.params.uses_simple_action(base_of(to_class)) {
                let sa_site = (code_id(base_of(to_class)), usize::MAX);
                c += self.params.simple_action_overhead
                    + self.btb.indirect_call(sa_site, code_id(base_of(to_class)))
                    - crate::cost::btb::PREDICTED_CALL_CYCLES;
            }
            (c, true)
        }
    }

    /// Classification cost and chosen output for classifier elements.
    fn classify(&self, id: ElementId, data: &[u8]) -> Result<(f64, usize)> {
        if let Some(tree) = self.trees.get(&id) {
            let (visits, out) = count_tree(tree, data);
            let out = out.ok_or_else(|| {
                Error::graph(format!(
                    "cost model: packet dropped by classifier {}",
                    self.graph.element(id).name()
                ))
            })?;
            return Ok((
                self.params.tree_entry + visits as f64 * self.params.tree_node,
                out,
            ));
        }
        if let Some(d) = self.diagrams.get(&id) {
            // A diagram charges by the nodes the packet visits (bounded
            // by the field count).
            let (out, steps) = d.classify_steps(data);
            let out = out.ok_or_else(|| {
                Error::graph(format!(
                    "cost model: packet dropped by fast classifier {}",
                    self.graph.element(id).name()
                ))
            })?;
            return Ok((
                self.params.diagram_entry + steps as f64 * self.params.diagram_node,
                out,
            ));
        }
        Err(Error::graph("not a classifier".to_string()))
    }

    /// Walks one packet from the device-input element named by `src_dev`
    /// to its `ToDevice`, returning the accumulated forwarding-path cost.
    ///
    /// # Errors
    ///
    /// Fails if the path dead-ends (drop, missing route, unconnected
    /// port) — the cost model only prices *forwarded* packets.
    pub fn walk(&mut self, src_dev: &str, frame: &[u8]) -> Result<PathCost> {
        let start = self
            .graph
            .elements()
            .find(|(_, e)| {
                matches!(base_of(e.class()), "PollDevice" | "FromDevice")
                    && click_core::config::split_args(e.config())
                        .first()
                        .map(String::as_str)
                        == Some(src_dev)
            })
            .map(|(id, _)| id)
            .ok_or_else(|| Error::graph(format!("no input device element for {src_dev:?}")))?;

        let mut sketch = Sketch {
            data: frame.to_vec(),
            offset: 0,
            paint: 0,
            dst_ip: if frame.len() >= 34 {
                ipv4::dst(&frame[14..])
            } else {
                0
            },
        };
        let mut cost = PathCost {
            cycles: self.params.scheduling,
            ..PathCost::default()
        };

        let mut cur = start;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.graph.element_count() * 2 + 16 {
                return Err(Error::graph(
                    "cost model: forwarding path does not terminate".to_string(),
                ));
            }
            cost.elements += 1;
            let decl = self.graph.element(cur);
            let base = base_of(decl.class()).to_owned();
            let is_fast_classifier = self.diagrams.contains_key(&cur);
            // Element work. LPM elements are charged below by the stride
            // depth their lookup actually walks, not the flat table rate.
            if !matches!(base.as_str(), "StaticIPLookup" | "LookupIPRoute") {
                cost.cycles += self.params.work(&base);
            }
            // Per-class behavior: output port choice and sketch updates.
            let out_port: usize = if is_fast_classifier || self.trees.contains_key(&cur) {
                let (c, out) = self.classify(cur, sketch.view())?;
                cost.cycles += c;
                out
            } else {
                match base.as_str() {
                    "Paint" => {
                        sketch.paint = decl.config().trim().parse().unwrap_or(0);
                        0
                    }
                    "Strip" => {
                        sketch.offset += decl.config().trim().parse().unwrap_or(0);
                        0
                    }
                    "Unstrip" => {
                        let n: usize = decl.config().trim().parse().unwrap_or(0);
                        sketch.offset = sketch.offset.saturating_sub(n);
                        0
                    }
                    "EtherEncap" | "EtherEncapCombo" | "ARPQuerier" => {
                        sketch.offset = sketch.offset.saturating_sub(14);
                        0
                    }
                    "IPInputCombo" => {
                        sketch.paint = click_core::config::split_args(decl.config())
                            .first()
                            .and_then(|a| a.trim().parse().ok())
                            .unwrap_or(0);
                        sketch.offset += 14;
                        let v = sketch.view();
                        if v.len() >= 20 {
                            sketch.dst_ip = ipv4::dst(v);
                        }
                        0
                    }
                    "GetIPAddress" => {
                        let off: usize = decl.config().trim().parse().unwrap_or(16);
                        let v = sketch.view();
                        if v.len() >= off + 4 {
                            sketch.dst_ip =
                                u32::from_be_bytes([v[off], v[off + 1], v[off + 2], v[off + 3]]);
                        }
                        0
                    }
                    "StaticIPLookup" | "LookupIPRoute" => {
                        let table = &self.tables[&cur];
                        let (hit, steps) = table.route_steps(sketch.dst_ip);
                        cost.cycles += self.params.lpm_root + steps as f64 * self.params.lpm_stride;
                        let (next_hop, port) = hit.ok_or_else(|| {
                            Error::graph(format!(
                                "cost model: no route for {} at {}",
                                click_elements::headers::ip_to_string(sketch.dst_ip),
                                decl.name()
                            ))
                        })?;
                        sketch.dst_ip = next_hop;
                        port
                    }
                    "CheckPaint" => {
                        let c: u8 = decl.config().trim().parse().unwrap_or(0);
                        usize::from(sketch.paint == c)
                    }
                    "Switch" | "StaticSwitch" => {
                        let k: i64 = decl.config().trim().parse().unwrap_or(0);
                        usize::try_from(k).map_err(|_| {
                            Error::graph(
                                "cost model: packet dropped by negative Switch".to_string(),
                            )
                        })?
                    }
                    "Queue" => {
                        // End of the push half; continue on the pull side.
                        cost.mem_misses += 0.0;
                        0
                    }
                    "ToDevice" => {
                        // Done.
                        cost.mem_misses += self.params.fwd_mem_misses
                            * f64::from(u8::from(self.touches_headers()));
                        return Ok(cost);
                    }
                    _ => 0,
                }
            };
            // Transfer to the next element.
            let mut conns = self.graph.connections_from(cur, out_port);
            let next = conns.next().ok_or_else(|| {
                Error::graph(format!(
                    "cost model: {} output {out_port} is unconnected",
                    decl.name()
                ))
            })?;
            let (tc, virt) = self.transfer_cost(cur, out_port, next.to.element);
            cost.cycles += tc;
            cost.transfer_cycles += tc;
            cost.hops += 1;
            cost.virtual_hops += usize::from(virt);
            cur = next.to.element;
        }
    }

    /// True if the configuration reads packet headers on the forwarding
    /// path (classifiers or IP elements) — determines header cache
    /// misses. The "Simple" configuration does not.
    fn touches_headers(&self) -> bool {
        self.graph.elements().any(|(_, e)| {
            let b = base_of(e.class());
            !matches!(
                b,
                "PollDevice" | "FromDevice" | "ToDevice" | "Queue" | "Idle" | "Discard"
            ) || e.class().starts_with(FASTCLASSIFIER_PREFIX)
        })
    }
}

/// Counts decision-tree node visits and returns the classification.
fn count_tree(tree: &DecisionTree, data: &[u8]) -> (usize, Option<usize>) {
    let mut visits = 0usize;
    let mut step = tree.start;
    loop {
        match step {
            Step::Output(o) => return (visits, Some(o)),
            Step::Drop => return (visits, None),
            Step::Node(i) => {
                visits += 1;
                let e = &tree.exprs[i];
                let w = click_classifier::tree::load_word(data, e.offset as usize);
                step = if w & e.mask == e.value { e.yes } else { e.no };
            }
        }
    }
}

/// The Figure-8 cost breakdown for one router configuration under a
/// traffic pattern.
#[derive(Debug, Clone, Default)]
pub struct CpuCost {
    /// "Receiving device interactions" (ns/packet).
    pub rx_device_ns: f64,
    /// "Click forwarding path" (ns/packet).
    pub forwarding_ns: f64,
    /// "Transmitting device interactions" (ns/packet).
    pub tx_device_ns: f64,
    /// Mean forwarding-path compute cycles (700 MHz-equivalent).
    pub forwarding_cycles: f64,
    /// BTB misprediction rate observed.
    pub btb_miss_rate: f64,
    /// Mean transfers per packet.
    pub hops: f64,
    /// Mean elements per packet.
    pub elements: f64,
}

impl CpuCost {
    /// Total CPU ns per packet (the Figure-8 "Total" row).
    pub fn total_ns(&self) -> f64 {
        self.rx_device_ns + self.forwarding_ns + self.tx_device_ns
    }
}

/// A stream of representative packets: `(source device, frame bytes)`
/// cycled round-robin (alternating interfaces, like the evaluation's
/// four-source traffic).
pub type TrafficSpec = Vec<(String, Vec<u8>)>;

/// Computes the per-packet CPU cost of a configuration on a platform:
/// walks `warmup + measure` packets (warming the BTB), averages the
/// measured half.
///
/// # Errors
///
/// Fails if any packet's path dead-ends.
pub fn router_cpu_cost(
    graph: &RouterGraph,
    platform: &Platform,
    traffic: &TrafficSpec,
) -> Result<CpuCost> {
    assert!(!traffic.is_empty(), "traffic spec must not be empty");
    let mut model = PathModel::new(graph, CostParams::default())?;
    let warmup = traffic.len() * 4;
    let measure = traffic.len() * 8;
    let mut acc = PathCost::default();
    for i in 0..warmup + measure {
        let (dev, frame) = &traffic[i % traffic.len()];
        let c = model.walk(dev, frame)?;
        if i >= warmup {
            acc.cycles += c.cycles;
            acc.mem_misses += c.mem_misses;
            acc.hops += c.hops;
            acc.elements += c.elements;
        }
    }
    let n = measure as f64;
    let cycles = acc.cycles / n;
    let forwarding_ns =
        platform.cycles_to_ns(cycles) + acc.mem_misses / n * platform.mem_latency_ns;
    Ok(CpuCost {
        rx_device_ns: platform.rx_device_ns,
        forwarding_ns,
        tx_device_ns: platform.tx_device_ns,
        forwarding_cycles: cycles,
        btb_miss_rate: model.btb.miss_rate(),
        hops: acc.hops as f64 / n,
        elements: acc.elements as f64 / n,
    })
}

/// Computes the per-packet CPU cost of a configuration under the
/// *batched* engine: per-packet element work is unchanged, but the
/// scheduling quantum and every transfer are charged once per batch of
/// `batch` packets instead of once per packet, plus a small per-packet
/// batch-loop bookkeeping term ([`CostParams::batch_loop`]).
///
/// With `batch == 1` this degenerates to the scalar engine plus the loop
/// bookkeeping — i.e. batching a single packet is (correctly) a small
/// loss, mirroring the measured engines.
///
/// # Errors
///
/// Fails if any packet's path dead-ends.
pub fn router_cpu_cost_batched(
    graph: &RouterGraph,
    platform: &Platform,
    traffic: &TrafficSpec,
    batch: usize,
) -> Result<CpuCost> {
    assert!(!traffic.is_empty(), "traffic spec must not be empty");
    assert!(batch >= 1, "batch size must be positive");
    let params = CostParams::default();
    let mut model = PathModel::new(graph, params.clone())?;
    let warmup = traffic.len() * 4;
    let measure = traffic.len() * 8;
    let mut acc = PathCost::default();
    for i in 0..warmup + measure {
        let (dev, frame) = &traffic[i % traffic.len()];
        let c = model.walk(dev, frame)?;
        if i >= warmup {
            acc.cycles += c.cycles;
            acc.mem_misses += c.mem_misses;
            acc.hops += c.hops;
            acc.elements += c.elements;
            acc.transfer_cycles += c.transfer_cycles;
        }
    }
    let n = measure as f64;
    let b = batch as f64;
    // Amortizable share: the scheduling quantum (walk charges it once per
    // packet) and every transfer's dispatch cost.
    let amortizable = params.scheduling + acc.transfer_cycles / n;
    let cycles = acc.cycles / n - amortizable * (1.0 - 1.0 / b) + params.batch_loop;
    let forwarding_ns =
        platform.cycles_to_ns(cycles) + acc.mem_misses / n * platform.mem_latency_ns;
    Ok(CpuCost {
        rx_device_ns: platform.rx_device_ns,
        forwarding_ns,
        tx_device_ns: platform.tx_device_ns,
        forwarding_cycles: cycles,
        btb_miss_rate: model.btb.miss_rate(),
        hops: acc.hops as f64 / n,
        elements: acc.elements as f64 / n,
    })
}

/// The predicted cost of one configuration on the sharded
/// ([`ParallelRouter`](click_elements::parallel::ParallelRouter))
/// runtime: a steering stage feeding `shards` independent copies of the
/// batched forwarding path through ring queues.
#[derive(Debug, Clone)]
pub struct ParallelCpuCost {
    /// Number of worker shards modeled.
    pub shards: usize,
    /// Steering-stage cost per packet (5-tuple hash plus two amortized
    /// ring crossings), in ns.
    pub steer_ns: f64,
    /// Per-packet cost of the batched forwarding path on one shard, in
    /// ns — the serial baseline the shards divide.
    pub serial_ns: f64,
    /// Load-imbalance factor (busiest shard's load over the mean, ≥ 1),
    /// computed by steering the actual traffic with the runtime's own
    /// RSS hash.
    pub imbalance: f64,
    /// Predicted per-packet cost of the whole pipeline: the slower of
    /// the steering stage and the bottleneck shard.
    pub ns_per_packet: f64,
}

impl ParallelCpuCost {
    /// Predicted speedup over the serial batched engine.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.ns_per_packet
    }
}

/// Predicts the per-packet cost of a configuration on the sharded
/// multi-core runtime: `shards` workers each run the *batched* engine on
/// the flows the RSS hash steers to them, so the ideal cost is the
/// batched cost divided by the shard count. Two effects keep the
/// prediction honest:
///
/// * **Steering** is a pipeline stage of its own — hashing the 5-tuple
///   ([`CostParams::steer_hash`]) plus two ring crossings amortized over
///   the burst ([`CostParams::ring_hop`]). Past the point where shards
///   make the workers cheap, the steering stage bounds throughput.
/// * **Imbalance** comes from the hash itself: the model steers the
///   actual `traffic` frames with the runtime's
///   [`RssSteering`](click_elements::steer::RssSteering) and charges the
///   bottleneck shard (`max load / mean load`), so few-flow traffic
///   correctly refuses to scale.
///
/// # Errors
///
/// Fails if any packet's path dead-ends (same contract as
/// [`router_cpu_cost_batched`]).
pub fn router_cpu_cost_parallel(
    graph: &RouterGraph,
    platform: &Platform,
    traffic: &TrafficSpec,
    batch: usize,
    shards: usize,
) -> Result<ParallelCpuCost> {
    assert!(shards >= 1, "need at least one shard");
    let serial = router_cpu_cost_batched(graph, platform, traffic, batch)?;
    let params = CostParams::default();
    let steer_cycles = params.steer_hash + 2.0 * params.ring_hop / batch as f64;
    let steer_ns = platform.cycles_to_ns(steer_cycles);

    // Steer the actual traffic to find the bottleneck shard. This is
    // the runtime's own hash (steer::flow_key / flow_hash) applied
    // directly, so the model can explore shard counts beyond the
    // runtime's live-mask limit (steer::MAX_SHARDS).
    let mut dev_names: Vec<&str> = Vec::new();
    let mut bins = vec![0usize; shards];
    for (dev, frame) in traffic {
        let idx = match dev_names.iter().position(|d| *d == dev) {
            Some(i) => i,
            None => {
                dev_names.push(dev);
                dev_names.len() - 1
            }
        };
        let shard = match click_elements::steer::flow_key(frame) {
            Some(key) => (click_elements::steer::flow_hash(key) % shards as u64) as usize,
            None => idx % shards,
        };
        bins[shard] += 1;
    }
    let mean = traffic.len() as f64 / shards as f64;
    let max = bins.iter().copied().max().unwrap_or(0) as f64;
    let imbalance = if mean > 0.0 {
        (max / mean).max(1.0)
    } else {
        1.0
    };

    let serial_ns = serial.total_ns();
    let per_shard_ns = serial_ns * imbalance / shards as f64;
    Ok(ParallelCpuCost {
        shards,
        steer_ns,
        serial_ns,
        imbalance,
        ns_per_packet: steer_ns.max(per_shard_ns),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::lang::read_config;
    use click_elements::ip_router::{simple_config, test_packet, IpRouterSpec};

    fn ip_traffic(spec: &IpRouterSpec, n: usize) -> TrafficSpec {
        (0..n)
            .map(|i| {
                let src = i % n;
                let dst = (src + n / 2).max(1) % n;
                (
                    spec.interfaces[src].device.clone(),
                    test_packet(spec, src, if dst == src { (src + 1) % n } else { dst })
                        .data()
                        .to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn base_router_lands_near_paper_figure8() {
        let spec = IpRouterSpec::standard(8);
        let g = read_config(&spec.config()).unwrap();
        let traffic = ip_traffic(&spec, 4);
        let cost = router_cpu_cost(&g, &Platform::p0(), &traffic).unwrap();
        // Paper Figure 8: forwarding 1657 ns, total 2905 ns. Allow ±8%.
        assert!(
            (cost.forwarding_ns - 1657.0).abs() / 1657.0 < 0.08,
            "forwarding {} ns",
            cost.forwarding_ns
        );
        assert!(
            (cost.total_ns() - 2905.0).abs() / 2905.0 < 0.08,
            "total {} ns",
            cost.total_ns()
        );
        // Sixteen elements on the path (paper §3).
        assert_eq!(cost.elements.round() as usize, 16);
    }

    #[test]
    fn simple_config_is_much_cheaper() {
        let g = read_config(&simple_config(&[(0, 4), (1, 5), (2, 6), (3, 7)], 1000)).unwrap();
        let traffic: TrafficSpec = (0..4).map(|i| (format!("eth{i}"), vec![0u8; 60])).collect();
        let cost = router_cpu_cost(&g, &Platform::p0(), &traffic).unwrap();
        assert!(
            cost.forwarding_ns < 700.0,
            "simple fwd {} ns",
            cost.forwarding_ns
        );
        assert!(cost.forwarding_ns > 200.0);
    }

    #[test]
    fn optimized_router_is_faster_and_ordered() {
        let spec = IpRouterSpec::standard(8);
        let base = read_config(&spec.config()).unwrap();
        let traffic = ip_traffic(&spec, 4);
        let p0 = Platform::p0();
        let base_cost = router_cpu_cost(&base, &p0, &traffic).unwrap().forwarding_ns;

        // FC only.
        let mut fc = base.clone();
        click_opt::fastclassifier::fastclassifier(&mut fc).unwrap();
        let fc_cost = router_cpu_cost(&fc, &p0, &traffic).unwrap().forwarding_ns;

        // XF only.
        let mut xf = base.clone();
        click_opt::xform::apply_patterns(&mut xf, &click_opt::xform::ip_combo_patterns().unwrap())
            .unwrap();
        let xf_cost = router_cpu_cost(&xf, &p0, &traffic).unwrap().forwarding_ns;

        // DV only.
        let mut dv = base.clone();
        click_opt::devirtualize::devirtualize(
            &mut dv,
            &click_core::registry::Library::standard(),
            &Default::default(),
        )
        .unwrap();
        let dv_cost = router_cpu_cost(&dv, &p0, &traffic).unwrap().forwarding_ns;

        // All three.
        let mut all = base.clone();
        click_opt::xform::apply_patterns(&mut all, &click_opt::xform::ip_combo_patterns().unwrap())
            .unwrap();
        click_opt::fastclassifier::fastclassifier(&mut all).unwrap();
        click_opt::devirtualize::devirtualize(
            &mut all,
            &click_core::registry::Library::standard(),
            &Default::default(),
        )
        .unwrap();
        let all_cost = router_cpu_cost(&all, &p0, &traffic).unwrap().forwarding_ns;

        // Orderings from Figure 9.
        assert!(fc_cost < base_cost);
        assert!(
            base_cost - fc_cost < 0.10 * base_cost,
            "FC alone saves little"
        );
        assert!(
            xf_cost < base_cost * 0.85,
            "XF is a major win: {xf_cost} vs {base_cost}"
        );
        assert!(
            dv_cost < base_cost * 0.85,
            "DV is a major win: {dv_cost} vs {base_cost}"
        );
        assert!(all_cost < xf_cost && all_cost < dv_cost);
        // Paper: All reduces forwarding cost by 34% (1657 → 1101).
        let reduction = 1.0 - all_cost / base_cost;
        assert!(
            (0.26..=0.42).contains(&reduction),
            "All reduction {reduction:.2} (costs {base_cost:.0} → {all_cost:.0})"
        );
        // Overlap: All is much less than the sum of individual savings.
        let sum_savings = (base_cost - xf_cost) + (base_cost - dv_cost);
        assert!(base_cost - all_cost < sum_savings, "XF and DV overlap");
    }

    #[test]
    fn batched_cost_amortizes_scheduling_and_transfers() {
        let spec = IpRouterSpec::standard(8);
        let g = read_config(&spec.config()).unwrap();
        let traffic = ip_traffic(&spec, 4);
        let p0 = Platform::p0();
        let scalar = router_cpu_cost(&g, &p0, &traffic).unwrap().forwarding_ns;
        let b1 = router_cpu_cost_batched(&g, &p0, &traffic, 1)
            .unwrap()
            .forwarding_ns;
        let b8 = router_cpu_cost_batched(&g, &p0, &traffic, 8)
            .unwrap()
            .forwarding_ns;
        let b64 = router_cpu_cost_batched(&g, &p0, &traffic, 64)
            .unwrap()
            .forwarding_ns;
        // Batch of one pays the loop bookkeeping on top of the scalar cost.
        assert!(b1 > scalar, "b1 {b1} vs scalar {scalar}");
        assert!(b1 - scalar < 0.02 * scalar, "bookkeeping is small");
        // Larger batches monotonically amortize and beat scalar clearly.
        assert!(b8 < scalar * 0.80, "b8 {b8} vs scalar {scalar}");
        assert!(b64 < b8);
        // Per-packet element work is irreducible: even huge batches keep
        // paying classification, lookup, and header-edit cycles.
        assert!(b64 > scalar * 0.40, "b64 {b64} floor");
    }

    #[test]
    fn parallel_model_scales_with_many_flows() {
        let spec = IpRouterSpec::standard(8);
        let g = read_config(&spec.config()).unwrap();
        let traffic = crate::parallel_traffic(&spec, 64);
        let p0 = Platform::p0();
        let one = router_cpu_cost_parallel(&g, &p0, &traffic, 16, 1).unwrap();
        let two = router_cpu_cost_parallel(&g, &p0, &traffic, 16, 2).unwrap();
        let four = router_cpu_cost_parallel(&g, &p0, &traffic, 16, 4).unwrap();
        // With one shard the pipeline is just the serial batched engine.
        assert!((one.ns_per_packet - one.serial_ns).abs() < 1e-9);
        assert!(one.speedup() <= 1.0 + 1e-9);
        // 64 flows spread well enough that 2 and 4 shards pay off.
        assert!(
            two.ns_per_packet < one.ns_per_packet / 1.5,
            "2 shards: {} vs {}",
            two.ns_per_packet,
            one.ns_per_packet
        );
        assert!(
            four.ns_per_packet < two.ns_per_packet,
            "4 shards keep helping"
        );
        assert!(four.imbalance >= 1.0 && four.imbalance < 2.0);
        // The steering stage eventually bounds the pipeline.
        let many = router_cpu_cost_parallel(&g, &p0, &traffic, 16, 1024).unwrap();
        assert!((many.ns_per_packet - many.steer_ns).abs() < 1e-9);
    }

    #[test]
    fn parallel_model_refuses_to_scale_single_flow() {
        let spec = IpRouterSpec::standard(8);
        let g = read_config(&spec.config()).unwrap();
        // One flow: every packet hashes to the same shard.
        let traffic = crate::parallel_traffic(&spec, 1);
        let p0 = Platform::p0();
        let four = router_cpu_cost_parallel(&g, &p0, &traffic, 16, 4).unwrap();
        assert!(
            (four.imbalance - 4.0).abs() < 1e-9,
            "one flow on 4 shards: imbalance {}",
            four.imbalance
        );
        assert!(
            four.speedup() < 1.05,
            "single flow must not speed up: {}",
            four.speedup()
        );
    }

    #[test]
    fn lpm_charge_tracks_stride_depth() {
        // Same path, one route of varying length: longer prefixes descend
        // more compressed strides and cost more.
        let mut frame = vec![0u8; 60];
        frame[30..34].copy_from_slice(&[10, 1, 2, 3]);
        let cost = |route: &str| {
            let g = read_config(&format!(
                "PollDevice(eth0) -> StaticIPLookup({route}) -> Queue -> ToDevice(eth1);"
            ))
            .unwrap();
            let mut m = PathModel::new(&g, CostParams::default()).unwrap();
            m.walk("eth0", &frame).unwrap().cycles
        };
        let short = cost("10.0.0.0/8 0");
        let mid = cost("10.1.2.0/24 0");
        let host = cost("10.1.2.3/32 0");
        assert!(short < mid && mid < host, "{short} vs {mid} vs {host}");
        // A /8 is answered from the direct-indexed root (0 strides); a
        // /32 walks all three stride levels.
        let p = CostParams::default();
        assert!((host - short - 3.0 * p.lpm_stride).abs() < 1e-9);
    }

    #[test]
    fn diagram_matcher_charged_by_depth_not_rule_count() {
        // 40 ethertype rules: the generic tree chains ~40 compares, but
        // the fastclassifier output lowers to a decision diagram whose
        // charge is bounded by the field count.
        let patterns: Vec<String> = (0..40)
            .map(|i| format!("12/{:04x}", 0x0800 + i))
            .chain(std::iter::once("-".to_string()))
            .collect();
        let mut src = format!(
            "PollDevice(eth0) -> c :: Classifier({});\nq :: Queue -> ToDevice(eth1);\n",
            patterns.join(", ")
        );
        for i in 0..patterns.len() {
            src += &format!("c [{i}] -> q;\n");
        }
        let g = read_config(&src).unwrap();
        let mut fc = g.clone();
        click_opt::fastclassifier::fastclassifier(&mut fc).unwrap();
        // Worst-case frame: the last ethertype in the chain.
        let mut frame = vec![0u8; 60];
        frame[12] = 0x08;
        frame[13] = 0x27;
        let walk = |g: &RouterGraph| {
            let mut m = PathModel::new(g, CostParams::default()).unwrap();
            m.walk("eth0", &frame).unwrap().cycles
        };
        let tree_cycles = walk(&g);
        let diag_cycles = walk(&fc);
        assert!(
            diag_cycles + 250.0 < tree_cycles,
            "diagram {diag_cycles} vs tree {tree_cycles}"
        );
    }

    #[test]
    fn walk_fails_on_dropped_packets() {
        let g = read_config(
            "PollDevice(eth0) -> c :: Classifier(12/0800); c [0] -> Queue -> ToDevice(eth1);",
        )
        .unwrap();
        let mut model = PathModel::new(&g, CostParams::default()).unwrap();
        // An ARP frame matches nothing.
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(model.walk("eth0", &arp).is_err());
    }

    #[test]
    fn unknown_device_is_an_error() {
        let g = read_config("PollDevice(eth0) -> Queue -> ToDevice(eth1);").unwrap();
        let mut model = PathModel::new(&g, CostParams::default()).unwrap();
        assert!(model.walk("eth9", &[0u8; 60]).is_err());
    }
}
