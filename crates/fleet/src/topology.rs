//! Fleet topologies: who can talk to whom, and how slowly.
//!
//! A [`Topology`] is a CSR adjacency structure with a per-link latency
//! in integer nanoseconds. Latencies are splitmix-seeded per *directed
//! edge* and always **at least one epoch** — the conservative-PDES
//! lookahead contract the engine's epoch barrier relies on: a message
//! sent inside epoch `k` can never be deliverable before epoch `k+1`,
//! so shards simulate an epoch completely independently and exchange
//! messages only at the barrier.

use emc_prng::SplitMix64;

use crate::event::Nanos;

/// The supported fleet shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A bidirectional ring: node `i` ↔ `i±1 (mod n)`.
    Ring,
    /// A 2-D grid (width `⌊√n⌋`) with 4-neighbour links; the ragged
    /// tail row simply has fewer neighbours.
    Grid,
    /// Star clusters of 32 nodes around a head, heads chained in a
    /// ring — the classic sensor-fleet aggregation shape.
    Clustered,
}

impl TopologyKind {
    /// Stable lower-case name (used in reports and the CLI).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Ring => "ring",
            TopologyKind::Grid => "grid",
            TopologyKind::Clustered => "clustered",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ring" => Some(TopologyKind::Ring),
            "grid" => Some(TopologyKind::Grid),
            "clustered" => Some(TopologyKind::Clustered),
            _ => None,
        }
    }
}

/// Nodes per cluster head in [`TopologyKind::Clustered`].
pub const CLUSTER_SIZE: u32 = 32;

/// A directed link to a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Destination node id.
    pub dst: u32,
    /// Propagation latency, a whole multiple of the epoch length in
    /// `[1, 4]` epochs.
    pub latency: Nanos,
}

/// CSR adjacency with per-link latencies. Construction is a pure
/// function of `(kind, nodes, epoch, seed)` — never of thread count.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    offsets: Vec<u32>,
    links: Vec<Link>,
    min_latency: Nanos,
}

impl Topology {
    /// Builds the adjacency for `nodes` nodes. Every link latency is a
    /// splitmix-seeded whole number of epochs in `[1, 4]`, which keeps
    /// the minimum latency ≥ `epoch` (the engine asserts this).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `epoch` is zero.
    pub fn build(kind: TopologyKind, nodes: u32, epoch: Nanos, seed: u64) -> Self {
        assert!(nodes > 0, "a fleet needs at least one node");
        assert!(epoch > 0, "epoch length must be positive");
        let mut offsets = Vec::with_capacity(nodes as usize + 1);
        let mut links = Vec::new();
        offsets.push(0u32);
        for node in 0..nodes {
            for dst in neighbours(kind, node, nodes) {
                // One latency per *directed* edge, derived from the edge
                // identity alone so it is stable under resharding.
                let edge_id = u64::from(node) << 32 | u64::from(dst);
                let epochs = 1 + SplitMix64::mix(seed ^ 0x70b0_10de, edge_id) % 4;
                links.push(Link {
                    dst,
                    latency: epochs * epoch,
                });
            }
            offsets.push(links.len() as u32);
        }
        let min_latency = links.iter().map(|l| l.latency).min().unwrap_or(epoch);
        Self {
            kind,
            offsets,
            links,
            min_latency,
        }
    }

    /// The shape this adjacency was built from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Total number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The outgoing links of `node`.
    pub fn links(&self, node: u32) -> &[Link] {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        &self.links[lo..hi]
    }

    /// The smallest link latency — the PDES lookahead. The engine
    /// asserts `min_latency() >= epoch`.
    pub fn min_latency(&self) -> Nanos {
        self.min_latency
    }
}

/// Deterministic neighbour list (ascending construction order).
fn neighbours(kind: TopologyKind, node: u32, nodes: u32) -> Vec<u32> {
    let mut out = Vec::new();
    match kind {
        TopologyKind::Ring => {
            if nodes > 1 {
                out.push((node + nodes - 1) % nodes);
                let fwd = (node + 1) % nodes;
                if fwd != out[0] {
                    out.push(fwd);
                }
            }
        }
        TopologyKind::Grid => {
            let w = (nodes as f64).sqrt().floor().max(1.0) as u32;
            let (r, c) = (node / w, node % w);
            if r > 0 {
                out.push(node - w);
            }
            if c > 0 {
                out.push(node - 1);
            }
            if c + 1 < w && node + 1 < nodes {
                out.push(node + 1);
            }
            if node + w < nodes {
                out.push(node + w);
            }
        }
        TopologyKind::Clustered => {
            let head = node - node % CLUSTER_SIZE;
            if node == head {
                // Heads: their members, then the head ring.
                for m in head + 1..(head + CLUSTER_SIZE).min(nodes) {
                    out.push(m);
                }
                // Heads sit at every multiple of CLUSTER_SIZE, so the
                // ring position is closed-form (no per-head scan).
                let heads = nodes.div_ceil(CLUSTER_SIZE);
                if heads > 1 {
                    let idx = head / CLUSTER_SIZE;
                    let prev = (idx + heads - 1) % heads * CLUSTER_SIZE;
                    out.push(prev);
                    let next = (idx + 1) % heads * CLUSTER_SIZE;
                    if next != prev {
                        out.push(next);
                    }
                }
            } else {
                // Members talk only to their head.
                out.push(head);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_links_are_symmetric_and_latency_bounded() {
        let epoch = 1_000_000;
        let t = Topology::build(TopologyKind::Ring, 64, epoch, 2011);
        assert_eq!(t.nodes(), 64);
        assert!(t.min_latency() >= epoch);
        for n in 0..64u32 {
            let dsts: Vec<u32> = t.links(n).iter().map(|l| l.dst).collect();
            assert_eq!(dsts.len(), 2);
            for l in t.links(n) {
                assert!(l.latency >= epoch && l.latency <= 4 * epoch);
                assert!(t.links(l.dst).iter().any(|b| b.dst == n), "asymmetric link");
            }
        }
    }

    #[test]
    fn grid_interior_has_four_neighbours() {
        let t = Topology::build(TopologyKind::Grid, 25, 1_000, 1);
        // Node 12 is the centre of the 5×5 grid.
        let dsts: Vec<u32> = t.links(12).iter().map(|l| l.dst).collect();
        assert_eq!(dsts, vec![7, 11, 13, 17]);
    }

    #[test]
    fn clustered_members_reach_only_their_head() {
        let t = Topology::build(TopologyKind::Clustered, 100, 1_000, 7);
        let member = t.links(33);
        assert_eq!(member.len(), 1);
        assert_eq!(member[0].dst, 32);
        // Head 32 sees its members plus the head ring.
        let head_dsts: Vec<u32> = t.links(32).iter().map(|l| l.dst).collect();
        assert!(head_dsts.contains(&33));
        assert!(head_dsts.contains(&0) && head_dsts.contains(&64));
        // The head ring wraps at both ends; the last cluster is short.
        let first: Vec<u32> = t.links(0).iter().map(|l| l.dst).collect();
        assert_eq!(first[31..], [96, 32]);
        let last: Vec<u32> = t.links(96).iter().map(|l| l.dst).collect();
        assert_eq!(last, [97, 98, 99, 64, 0]);
    }

    #[test]
    fn latencies_do_not_depend_on_build_order() {
        let a = Topology::build(TopologyKind::Ring, 16, 500, 9);
        let b = Topology::build(TopologyKind::Ring, 16, 500, 9);
        for n in 0..16u32 {
            assert_eq!(a.links(n), b.links(n));
        }
    }

    #[test]
    fn single_node_fleet_has_no_links() {
        let t = Topology::build(TopologyKind::Ring, 1, 1_000, 3);
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.min_latency(), 1_000);
    }
}
