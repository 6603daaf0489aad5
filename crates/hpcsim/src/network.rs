//! Two-level fat-tree fabric with FIFO resource occupancy and XmitWait
//! congestion accounting.
//!
//! Topology (matching the Bridges description in §6.2.1): every compute
//! node has one NIC connected to a leaf switch; leaf switches connect to a
//! set of core switches through `leaf_uplinks` parallel uplinks. A flow
//! between different leaves picks one uplink pair by hashing its flow key —
//! which is exactly why spreading traffic across *destinations* (the
//! dual-channel optimization writing to storage nodes) spreads it across
//! *paths* and relieves congestion.
//!
//! Every resource (NIC tx, NIC rx, uplink, downlink, intra-node memory
//! channel) is a FIFO modeled by a single `busy_until` horizon:
//! store-and-forward at message granularity. Fine-grain blocks therefore
//! interleave across competing flows where one burst of a whole-step slab
//! would monopolize each resource — the paper's "balanced network traffic"
//! effect (§4, observation 4).

use zipper_types::{NodeId, SimTime};

/// Per-flow credit window: messages at or below this size are absorbed by
/// link-level buffering and do not back-pressure the sender beyond its own
/// NIC.
pub const CREDIT_WINDOW_BYTES: u64 = 128 << 10;

/// Static description of the fabric.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of compute nodes (application ranks live here).
    pub compute_nodes: usize,
    /// Number of storage nodes (PFS I/O servers reached over the fabric).
    pub storage_nodes: usize,
    /// Nodes per leaf switch (Bridges OPA leaves have 42 ports; a few go
    /// to uplinks).
    pub nodes_per_leaf: usize,
    /// NIC bandwidth per direction, bytes/second (paper: 10.2 GB/s ports).
    pub nic_bw: f64,
    /// Uplink bandwidth per link, bytes/second (paper: 12.5 GB/s ports).
    pub uplink_bw: f64,
    /// Number of parallel uplinks per leaf switch.
    pub leaf_uplinks: usize,
    /// One-hop propagation latency.
    pub link_latency: SimTime,
    /// Intra-node (shared-memory) bandwidth, bytes/second.
    pub mem_bw: f64,
    /// Fixed per-message software overhead at the sender.
    pub per_msg_overhead: SimTime,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            compute_nodes: 16,
            storage_nodes: 4,
            nodes_per_leaf: 32,
            nic_bw: 10.2e9,
            uplink_bw: 12.5e9,
            leaf_uplinks: 8,
            link_latency: SimTime::from_micros(1),
            mem_bw: 40e9,
            per_msg_overhead: SimTime::from_micros(2),
        }
    }
}

impl NetworkConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_nodes == 0 {
            return Err("need at least one compute node".into());
        }
        if self.nodes_per_leaf == 0 {
            return Err("nodes_per_leaf must be positive".into());
        }
        if self.leaf_uplinks == 0 {
            return Err("need at least one uplink per leaf".into());
        }
        if self.nic_bw <= 0.0 || self.uplink_bw <= 0.0 || self.mem_bw <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        Ok(())
    }

    /// Total nodes (compute + storage).
    pub fn total_nodes(&self) -> usize {
        self.compute_nodes + self.storage_nodes
    }

    /// The storage node that hosts stripe-home `key` (hashed so structured
    /// keys spread evenly).
    pub fn storage_node_for(&self, key: u64) -> NodeId {
        assert!(self.storage_nodes > 0, "no storage nodes configured");
        let h = zipper_pfs::model::mix_key(key);
        NodeId((self.compute_nodes + (h % self.storage_nodes as u64) as usize) as u32)
    }
}

/// Outcome of a point-to-point transfer.
///
/// The fabric uses link-level credit flow control (as Omni-Path does): a
/// sender cannot inject faster than the slowest resource on the path
/// drains, so for inter-node messages `inject_done == delivered` — the
/// sending process is back-pressured by congestion anywhere along the
/// path. The time the message spent delayed beyond its pure wire time is
/// what the XmitWait counter accumulates ("any virtual lane had data but
/// was unable to transmit").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// When the sender becomes free (credits returned).
    pub inject_done: SimTime,
    /// When the last byte arrived at the destination.
    pub delivered: SimTime,
}

/// The dynamic fabric state.
pub struct Network {
    cfg: NetworkConfig,
    nic_tx: Vec<SimTime>,
    nic_rx: Vec<SimTime>,
    mem: Vec<SimTime>,
    /// `uplink[leaf * leaf_uplinks + k]` — egress horizon per uplink.
    uplink: Vec<SimTime>,
    /// Ingress horizon per (leaf, link).
    downlink: Vec<SimTime>,
    /// Per-node accumulated XmitWait, in nanoseconds of "had data but
    /// could not transmit".
    xmit_wait: Vec<u64>,
    /// Total messages and bytes, for reports.
    messages: u64,
    bytes: u64,
}

impl Network {
    pub fn new(cfg: NetworkConfig) -> Self {
        cfg.validate().expect("invalid network config");
        let nodes = cfg.total_nodes();
        let leaves = nodes.div_ceil(cfg.nodes_per_leaf);
        Network {
            nic_tx: vec![SimTime::ZERO; nodes],
            nic_rx: vec![SimTime::ZERO; nodes],
            mem: vec![SimTime::ZERO; nodes],
            uplink: vec![SimTime::ZERO; leaves * cfg.leaf_uplinks],
            downlink: vec![SimTime::ZERO; leaves * cfg.leaf_uplinks],
            xmit_wait: vec![0; nodes],
            messages: 0,
            bytes: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    #[inline]
    fn leaf_of(&self, node: NodeId) -> usize {
        node.idx() / self.cfg.nodes_per_leaf
    }

    /// Cheap integer hash for uplink selection.
    #[inline]
    fn pick_link(&self, leaf: usize, flow_key: u64) -> usize {
        let mut h = flow_key ^ (leaf as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        leaf * self.cfg.leaf_uplinks + (h % self.cfg.leaf_uplinks as u64) as usize
    }

    /// Occupy `res` for `bytes` at `bw` starting no earlier than `ready`.
    /// Returns the finish time.
    #[inline]
    fn occupy(res: &mut SimTime, ready: SimTime, bytes: u64, bw: f64) -> SimTime {
        let start = (*res).max(ready);
        let finish = start + SimTime::for_bytes(bytes, bw);
        *res = finish;
        finish
    }

    /// Simulate one message of `bytes` from `src` to `dst`, becoming ready
    /// to transmit at `now`. `flow_key` selects the uplink pair for
    /// inter-leaf paths (stable per flow, so one logical stream does not
    /// reorder across links).
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        flow_key: u64,
    ) -> Transfer {
        self.messages += 1;
        self.bytes += bytes;
        let ready = now + self.cfg.per_msg_overhead;

        if src == dst {
            // Intra-node: through the memory channel, no NIC, no XmitWait.
            let finish = Self::occupy(&mut self.mem[src.idx()], ready, bytes, self.cfg.mem_bw);
            return Transfer {
                inject_done: finish,
                delivered: finish,
            };
        }

        // Sender NIC injection.
        let inject_tx = Self::occupy(&mut self.nic_tx[src.idx()], ready, bytes, self.cfg.nic_bw);

        let (sl, dl) = (self.leaf_of(src), self.leaf_of(dst));
        let lat = self.cfg.link_latency;
        let at_switch = inject_tx + lat;

        let arrive_dst_leaf = if sl == dl {
            at_switch
        } else {
            let up = self.pick_link(sl, flow_key);
            let down = self.pick_link(dl, flow_key.rotate_left(17));
            let f_up = Self::occupy(&mut self.uplink[up], at_switch, bytes, self.cfg.uplink_bw);
            let f_down = Self::occupy(
                &mut self.downlink[down],
                f_up + lat,
                bytes,
                self.cfg.uplink_bw,
            );
            f_down + lat
        };

        let delivered = Self::occupy(
            &mut self.nic_rx[dst.idx()],
            arrive_dst_leaf,
            bytes,
            self.cfg.nic_bw,
        );

        // Credit back-pressure: the sender is released once the *path* has
        // accepted the message. On an idle path that is the moment its own
        // NIC finished transmitting; when anything downstream is congested
        // the release is delayed by exactly the queueing the message
        // experienced (delivered minus the idle-path downstream time), so
        // a flow's sustained rate equals its bottleneck resource's rate —
        // the behaviour of Omni-Path's credit loop.
        let pure_downstream = if sl == dl {
            lat + SimTime::for_bytes(bytes, self.cfg.nic_bw)
        } else {
            lat * 3
                + SimTime::for_bytes(bytes, self.cfg.uplink_bw) * 2
                + SimTime::for_bytes(bytes, self.cfg.nic_bw)
        };
        // Messages that fit in the credit window are fire-and-forget: the
        // sender only waits for its own NIC. Large transfers feel the
        // downstream queueing.
        let inject_done = if bytes <= CREDIT_WINDOW_BYTES {
            inject_tx
        } else {
            inject_tx.max(delivered.saturating_sub(pure_downstream))
        };

        // XmitWait: time the NIC had this message but could not transmit
        // (queueing at the NIC itself plus downstream credit stalls).
        let waited = inject_done.saturating_sub(ready + SimTime::for_bytes(bytes, self.cfg.nic_bw));
        self.xmit_wait[src.idx()] += waited.as_nanos();

        Transfer {
            inject_done,
            delivered,
        }
    }

    /// Charge externally-modeled flow-control stall (a scripted
    /// backpressure gate holding a wire in xmit-wait) to a node's
    /// XmitWait counter, so scripted congestion is visible through the
    /// same counter real congestion feeds.
    pub fn charge_xmit_wait(&mut self, node: NodeId, ns: u64) {
        self.xmit_wait[node.idx()] += ns;
    }

    /// Accumulated XmitWait (ns the NIC had data but could not transmit)
    /// for one node.
    pub fn xmit_wait(&self, node: NodeId) -> u64 {
        self.xmit_wait[node.idx()]
    }

    /// Sum of XmitWait over a node range.
    pub fn xmit_wait_sum(&self, nodes: std::ops::Range<usize>) -> u64 {
        self.xmit_wait[nodes].iter().sum()
    }

    /// Total messages carried.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes carried.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetworkConfig {
        NetworkConfig {
            compute_nodes: 8,
            storage_nodes: 2,
            nodes_per_leaf: 4,
            nic_bw: 1e9,
            uplink_bw: 2e9,
            leaf_uplinks: 2,
            link_latency: SimTime::from_micros(1),
            mem_bw: 10e9,
            per_msg_overhead: SimTime::ZERO,
        }
    }

    #[test]
    fn intra_node_uses_memory_channel() {
        let mut net = Network::new(cfg());
        let t = net.transfer(SimTime::ZERO, NodeId(0), NodeId(0), 10_000_000, 0);
        // 10 MB at 10 GB/s = 1 ms.
        assert_eq!(t.delivered, SimTime::from_millis(1));
        assert_eq!(net.xmit_wait(NodeId(0)), 0);
    }

    #[test]
    fn same_leaf_charges_both_nics_plus_latency() {
        let mut net = Network::new(cfg());
        let t = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        // 1 MB at 1 GB/s = 1 ms per NIC + 1 µs hop; on an idle path the
        // sender is released as soon as its own NIC finishes.
        assert_eq!(
            t.delivered,
            SimTime::from_millis(2) + SimTime::from_micros(1)
        );
        assert_eq!(t.inject_done, SimTime::from_millis(1));
        assert_eq!(net.xmit_wait(NodeId(0)), 0);
    }

    #[test]
    fn cross_leaf_path_adds_uplink_hops() {
        let mut net = Network::new(cfg());
        // Nodes 0 and 4 are on different leaves (4 per leaf).
        let t = net.transfer(SimTime::ZERO, NodeId(0), NodeId(4), 1_000_000, 0);
        // tx 1 ms, up 0.5 ms, down 0.5 ms, rx 1 ms, 3 hops of 1 µs.
        assert_eq!(
            t.delivered,
            SimTime::from_millis(3) + SimTime::from_micros(3)
        );
    }

    #[test]
    fn nic_contention_accumulates_xmit_wait() {
        let mut net = Network::new(cfg());
        let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
        assert_eq!(net.xmit_wait(NodeId(0)), 0, "idle path: no wait");
        // Second message ready at t=0 but the tx NIC is busy until 1 ms.
        let b = net.transfer(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000, 1);
        assert!(b.delivered > a.delivered);
        assert!(b.inject_done > a.inject_done);
        assert_eq!(
            net.xmit_wait(NodeId(0)),
            SimTime::from_millis(1).as_nanos(),
            "tx queueing adds to the congestion counter"
        );
        assert_eq!(net.messages(), 2);
        assert_eq!(net.bytes(), 2_000_000);
    }

    #[test]
    fn distinct_flows_can_use_distinct_uplinks() {
        let net = Network::new(cfg());
        // Find two flow keys that pick different uplinks from leaf 0.
        let l0 = net.pick_link(0, 0);
        let mut other = None;
        for k in 1..64 {
            if net.pick_link(0, k) != l0 {
                other = Some(k);
                break;
            }
        }
        assert!(other.is_some(), "hash should spread flows across uplinks");
    }

    #[test]
    fn rx_contention_serializes_fan_in() {
        let mut net = Network::new(cfg());
        // Two senders on the same leaf target one receiver: rx NIC serializes.
        let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000, 0);
        let b = net.transfer(SimTime::ZERO, NodeId(1), NodeId(2), 1_000_000, 1);
        let (first, second) = if a.delivered <= b.delivered {
            (a, b)
        } else {
            (b, a)
        };
        assert!(second.delivered >= first.delivered + SimTime::from_millis(1));
    }

    #[test]
    fn storage_node_mapping_covers_all_storage_nodes() {
        let c = cfg();
        let mut seen = std::collections::HashSet::new();
        for key in 0..64u64 {
            let n = c.storage_node_for(key);
            assert!(
                (8..10).contains(&n.idx()),
                "storage key must map to a storage node, got {n:?}"
            );
            seen.insert(n);
        }
        assert_eq!(seen.len(), 2, "hashing should use every storage node");
    }
}
