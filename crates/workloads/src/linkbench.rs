//! LinkBench: Facebook's social-graph benchmark (paper §4.1, Fig. 5/6,
//! Table 3), implemented directly against the `relstore` engine the way
//! LinkBench's MySQL driver exercises InnoDB.
//!
//! The schema is the standard three tables:
//!
//! * `node(id) -> payload` — graph objects,
//! * `link(id1, type, id2) -> payload` — edges,
//! * `count(id1, type) -> n` — edge counts (LinkBench maintains these
//!   transactionally with the links, which is what makes `ADD_LINK` and
//!   `DELETE_LINK` multi-write transactions).
//!
//! The operation mix is LinkBench's Facebook-default mix (≈69% reads / 31%
//! writes — the paper: "read intensive with just about 30% writes").
//! Per-operation latencies are captured per type, which is exactly the shape
//! of the paper's Table 3.

use crate::cpu::CpuModel;
use relstore::{Engine, TreeId};
use simkit::dist::Rng;
use simkit::dist::{rng, PowerLaw, ScrambledZipfian};
use simkit::stats::{LatencyStats, Summary};
use simkit::{clock, ClosedLoop, Nanos};
use storage::device::BlockDevice;

/// The ten LinkBench operation types (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Read a node.
    GetNode,
    /// Read a link count.
    CountLink,
    /// Range-read the links of a node.
    GetLinkList,
    /// Read several specific links.
    MultigetLink,
    /// Insert a node.
    AddNode,
    /// Delete a node.
    DeleteNode,
    /// Update a node payload.
    UpdateNode,
    /// Insert a link (updates the count too).
    AddLink,
    /// Delete a link (updates the count too).
    DeleteLink,
    /// Update a link payload.
    UpdateLink,
}

/// All operation types in Table 3 order.
pub const OP_TYPES: [OpType; 10] = [
    OpType::GetNode,
    OpType::CountLink,
    OpType::GetLinkList,
    OpType::MultigetLink,
    OpType::AddNode,
    OpType::DeleteNode,
    OpType::UpdateNode,
    OpType::AddLink,
    OpType::DeleteLink,
    OpType::UpdateLink,
];

impl OpType {
    /// Facebook-default mix weight (percent).
    pub fn weight(self) -> f64 {
        match self {
            OpType::GetNode => 12.9,
            OpType::CountLink => 4.9,
            OpType::GetLinkList => 50.7,
            OpType::MultigetLink => 0.5,
            OpType::AddNode => 2.6,
            OpType::DeleteNode => 1.0,
            OpType::UpdateNode => 7.4,
            OpType::AddLink => 9.0,
            OpType::DeleteLink => 3.0,
            OpType::UpdateLink => 8.0,
        }
    }

    /// Whether the operation writes.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            OpType::AddNode
                | OpType::DeleteNode
                | OpType::UpdateNode
                | OpType::AddLink
                | OpType::DeleteLink
                | OpType::UpdateLink
        )
    }

    /// Table 3 row label.
    pub fn label(self) -> &'static str {
        match self {
            OpType::GetNode => "Get Node",
            OpType::CountLink => "Count Link",
            OpType::GetLinkList => "Get Link List",
            OpType::MultigetLink => "Multiget Link",
            OpType::AddNode => "ADD Node",
            OpType::DeleteNode => "Delete Node",
            OpType::UpdateNode => "Update Node",
            OpType::AddLink => "Add Link",
            OpType::DeleteLink => "Delete Link",
            OpType::UpdateLink => "Update Link",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkBenchSpec {
    /// Initial graph size in nodes.
    pub nodes: u64,
    /// Link types (LinkBench default: 2).
    pub link_types: u32,
    /// Maximum initial links per node (power-law distributed).
    pub max_links: u64,
    /// Node payload bytes.
    pub node_payload: usize,
    /// Link payload bytes.
    pub link_payload: usize,
    /// Concurrent clients (paper: 128).
    pub clients: usize,
    /// Warm-up operations (discarded).
    pub warmup_ops: u64,
    /// Measured operations.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
    /// Host cores (paper: 32).
    pub cores: usize,
    /// Software (CPU/latch) cost per operation in ns — roughly a MySQL
    /// core-millisecond at the paper's scale.
    pub cpu_per_op: u64,
}

impl LinkBenchSpec {
    /// A scaled-down default proportional to the paper's setup.
    pub fn scaled(nodes: u64, ops: u64) -> Self {
        Self {
            nodes,
            link_types: 2,
            max_links: 32,
            node_payload: 120,
            link_payload: 96,
            clients: 128,
            warmup_ops: ops / 10,
            ops,
            seed: 0x11bb,
            cores: 32,
            cpu_per_op: 550_000,
        }
    }
}

/// The graph store handles.
pub struct Graph {
    /// Node tree id.
    pub nodes: TreeId,
    /// Link tree id.
    pub links: TreeId,
    /// Count tree id.
    pub counts: TreeId,
    /// Next node id to allocate.
    pub next_id: u64,
}

fn node_key(id: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(b'n');
    k.extend_from_slice(&id.to_be_bytes());
    k
}

fn link_key(id1: u64, typ: u32, id2: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(21);
    k.push(b'l');
    k.extend_from_slice(&id1.to_be_bytes());
    k.extend_from_slice(&typ.to_be_bytes());
    k.extend_from_slice(&id2.to_be_bytes());
    k
}

fn link_prefix(id1: u64, typ: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(13);
    k.push(b'l');
    k.extend_from_slice(&id1.to_be_bytes());
    k.extend_from_slice(&typ.to_be_bytes());
    k
}

fn count_key(id1: u64, typ: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(13);
    k.push(b'c');
    k.extend_from_slice(&id1.to_be_bytes());
    k.extend_from_slice(&typ.to_be_bytes());
    k
}

fn payload(size: usize, tag: u64) -> Vec<u8> {
    let mut p = vec![b'p'; size];
    p[..8].copy_from_slice(&tag.to_le_bytes());
    p
}

/// Load the initial graph; returns the handles and the completion time.
/// Finishes with a checkpoint so recovery tests and measurement start from
/// a clean slate.
pub fn load<D: BlockDevice, L: BlockDevice>(
    engine: &mut Engine<D, L>,
    spec: &LinkBenchSpec,
    now: Nanos,
) -> (Graph, Nanos) {
    let (nodes, t) = engine.create_tree(now).into_parts();
    let (links, t) = engine.create_tree(t).into_parts();
    let (counts, mut t) = engine.create_tree(t).into_parts();
    let mut r = rng(spec.seed);
    let fanout = PowerLaw::new(1, spec.max_links.max(2), 2.2);
    for id in 0..spec.nodes {
        t = engine.put(nodes, &node_key(id), &payload(spec.node_payload, id), t);
        let typ = r.gen_range(0..spec.link_types);
        let n = fanout.sample(&mut r).min(spec.nodes);
        for _ in 0..n {
            let id2 = r.gen_range(0..spec.nodes);
            t = engine.put(links, &link_key(id, typ, id2), &payload(spec.link_payload, id2), t);
        }
        t = engine.put(counts, &count_key(id, typ), &n.to_le_bytes(), t);
        if id % 256 == 255 {
            t = engine.commit(t);
            if engine.needs_checkpoint() {
                t = engine.checkpoint(t);
            }
        }
    }
    t = engine.commit(t);
    t = engine.checkpoint(t);
    (Graph { nodes, links, counts, next_id: spec.nodes }, t)
}

/// Result of a LinkBench run.
pub struct LinkBenchReport {
    /// Measured operations.
    pub ops: u64,
    /// Elapsed virtual time of the measured phase.
    pub elapsed: Nanos,
    /// Operations (transactions) per second — the paper's TPS.
    pub tps: f64,
    /// Per-type latency summaries (Table 3 rows), in [`OP_TYPES`] order.
    pub per_type: Vec<(OpType, Summary)>,
}

struct Mixer {
    cdf: Vec<(f64, OpType)>,
}

impl Mixer {
    fn new() -> Self {
        let total: f64 = OP_TYPES.iter().map(|o| o.weight()).sum();
        let mut acc = 0.0;
        let cdf = OP_TYPES
            .iter()
            .map(|&o| {
                acc += o.weight() / total;
                (acc, o)
            })
            .collect();
        Self { cdf }
    }

    fn pick<R: Rng>(&self, r: &mut R) -> OpType {
        let x: f64 = r.gen();
        for &(c, o) in &self.cdf {
            if x <= c {
                return o;
            }
        }
        OpType::GetLinkList
    }
}

/// Execute one operation; returns the completion time.
#[allow(clippy::too_many_arguments)]
fn run_op<D: BlockDevice, L: BlockDevice, R: Rng>(
    engine: &mut Engine<D, L>,
    g: &mut Graph,
    spec: &LinkBenchSpec,
    chooser: &ScrambledZipfian,
    r: &mut R,
    op: OpType,
    now: Nanos,
) -> Nanos {
    let id = chooser.sample(r);
    let typ = r.gen_range(0..spec.link_types);
    match op {
        OpType::GetNode => engine.get(g.nodes, &node_key(id), now).done,
        OpType::CountLink => engine.get(g.counts, &count_key(id, typ), now).done,
        OpType::GetLinkList => {
            // Range over this node's links of one type (LinkBench caps the
            // returned list; typical lists are short).
            let prefix = link_prefix(id, typ);
            // Rows beyond the prefix are read and discarded (scan is a
            // range, not a filter).
            let mut rows = 0;
            engine.scan_with(g.links, &prefix, now, |_, _| {
                rows += 1;
                rows < 20
            })
        }
        OpType::MultigetLink => {
            let mut t = now;
            for _ in 0..3 {
                let id2 = chooser.sample(r);
                t = engine.get(g.links, &link_key(id, typ, id2), t).done;
            }
            t
        }
        OpType::AddNode => {
            let new_id = g.next_id;
            g.next_id += 1;
            let t =
                engine.put(g.nodes, &node_key(new_id), &payload(spec.node_payload, new_id), now);
            engine.commit(t)
        }
        OpType::DeleteNode => {
            let (_, t) = engine.delete(g.nodes, &node_key(id), now).into_parts();
            engine.commit(t)
        }
        OpType::UpdateNode => {
            let t = engine.put(g.nodes, &node_key(id), &payload(spec.node_payload, id ^ 1), now);
            engine.commit(t)
        }
        OpType::AddLink => {
            let id2 = chooser.sample(r);
            let t =
                engine.put(g.links, &link_key(id, typ, id2), &payload(spec.link_payload, id2), now);
            // Transactionally bump the count.
            let (cur, t) = engine.get(g.counts, &count_key(id, typ), t).into_parts();
            let n =
                cur.map(|v| u64::from_le_bytes(v[..8].try_into().unwrap_or_default())).unwrap_or(0);
            let t = engine.put(g.counts, &count_key(id, typ), &(n + 1).to_le_bytes(), t);
            engine.commit(t)
        }
        OpType::DeleteLink => {
            let id2 = chooser.sample(r);
            let (existed, t) = engine.delete(g.links, &link_key(id, typ, id2), now).into_parts();
            let mut t = t;
            if existed {
                let (cur, t2) = engine.get(g.counts, &count_key(id, typ), t).into_parts();
                let n = cur
                    .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap_or_default()))
                    .unwrap_or(1);
                t = engine.put(g.counts, &count_key(id, typ), &(n - 1).to_le_bytes(), t2);
            }
            engine.commit(t)
        }
        OpType::UpdateLink => {
            let id2 = chooser.sample(r);
            let t = engine.put(
                g.links,
                &link_key(id, typ, id2),
                &payload(spec.link_payload, !id2),
                now,
            );
            engine.commit(t)
        }
    }
}

/// Run the benchmark (warm-up + measured phase).
pub fn run<D: BlockDevice, L: BlockDevice>(
    engine: &mut Engine<D, L>,
    g: &mut Graph,
    spec: &LinkBenchSpec,
    start: Nanos,
) -> LinkBenchReport {
    let chooser = ScrambledZipfian::new(spec.nodes);
    let mixer = Mixer::new();
    let mut rngs: Vec<_> =
        (0..spec.clients).map(|c| rng(spec.seed ^ 0x9E37 ^ ((c as u64) << 24))).collect();
    let mut cpu = CpuModel::new(spec.cores, spec.cpu_per_op);
    let mut driver = ClosedLoop::new(spec.clients, start);
    // Warm-up: fill the buffer pool (paper: 600s warm-up).
    driver.warmup(spec.warmup_ops, |client, now| {
        let op = mixer.pick(&mut rngs[client]);
        let t0 = cpu.charge(now);
        let t = run_op(engine, g, spec, &chooser, &mut rngs[client], op, t0);
        if engine.needs_checkpoint() {
            engine.checkpoint(t)
        } else {
            t
        }
    });
    engine.reset_pool_stats();
    let mut per_type: Vec<LatencyStats> =
        (0..OP_TYPES.len()).map(|_| LatencyStats::new()).collect();
    let rep = driver.run(spec.ops, |client, now| {
        let op = mixer.pick(&mut rngs[client]);
        let t0 = cpu.charge(now);
        let done = run_op(engine, g, spec, &chooser, &mut rngs[client], op, t0);
        let idx = OP_TYPES.iter().position(|&o| o == op).expect("known op");
        per_type[idx].record(done - now);
        if engine.needs_checkpoint() {
            engine.checkpoint(done)
        } else {
            done
        }
    });
    LinkBenchReport {
        ops: rep.ops,
        elapsed: rep.elapsed(),
        tps: clock::per_sec(rep.ops, rep.elapsed()),
        per_type: OP_TYPES
            .iter()
            .zip(per_type.iter_mut())
            .map(|(&o, s)| (o, s.summary()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::EngineConfig;
    use storage::testdev::MemDevice;

    fn engine() -> Engine<MemDevice, MemDevice> {
        let cfg = EngineConfig {
            full_page_writes: false,
            data_pages: 16 * 1024,
            buffer_pool_bytes: 256 * 4096,
            log_file_blocks: 2048,
            ..EngineConfig::mysql_like(4096)
        };
        Engine::create(MemDevice::new(64 * 1024), MemDevice::new(16 * 1024), cfg, 0).value
    }

    #[test]
    fn mix_weights_normalise() {
        let m = Mixer::new();
        assert!((m.cdf.last().unwrap().0 - 1.0).abs() < 1e-9);
        // Sampled frequencies roughly match weights.
        let mut r = rng(1);
        let mut gll = 0u32;
        for _ in 0..4000 {
            if m.pick(&mut r) == OpType::GetLinkList {
                gll += 1;
            }
        }
        let frac = gll as f64 / 4000.0;
        assert!((frac - 0.504).abs() < 0.05, "GetLinkList frac {frac}");
    }

    #[test]
    fn write_fraction_is_about_thirty_percent() {
        let total: f64 = OP_TYPES.iter().map(|o| o.weight()).sum();
        let writes: f64 = OP_TYPES.iter().filter(|o| o.is_write()).map(|o| o.weight()).sum();
        let frac = writes / total;
        assert!((frac - 0.31).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn load_and_run_small_graph() {
        let mut e = engine();
        let mut spec = LinkBenchSpec::scaled(300, 500);
        spec.clients = 8;
        spec.warmup_ops = 50;
        let (mut g, t) = load(&mut e, &spec, 0);
        assert_eq!(g.next_id, 300);
        let rep = run(&mut e, &mut g, &spec, t);
        assert_eq!(rep.ops, 500);
        assert!(rep.tps > 0.0);
        // All ten types appear in the report.
        assert_eq!(rep.per_type.len(), 10);
        let sampled: u64 = rep.per_type.iter().map(|(_, s)| s.count).sum();
        assert_eq!(sampled, 500);
        // Reads were served.
        let (v, _) = e.get(g.nodes, &node_key(5), rep.elapsed).into_parts();
        assert!(v.is_some());
    }

    #[test]
    fn add_link_maintains_count() {
        let mut e = engine();
        let spec = LinkBenchSpec::scaled(50, 10);
        let (mut g, t) = load(&mut e, &spec, 0);
        let chooser = ScrambledZipfian::new(spec.nodes);
        let mut r = rng(9);
        let mut t = t;
        for _ in 0..20 {
            t = run_op(&mut e, &mut g, &spec, &chooser, &mut r, OpType::AddLink, t);
        }
        // Counts exist and are consistent with at least one link each.
        let (rows, _) = e.scan(g.counts, b"c", 1000, t).into_parts();
        assert!(!rows.is_empty());
    }
}
