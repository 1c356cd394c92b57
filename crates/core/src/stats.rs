//! Measured index statistics: the quantities of the paper's Table 1
//! complexity analysis (ρ, f, M, D, α) plus storage footprints.

use crate::tree::{IpTree, NodeIdx};

/// Structural statistics of a built tree. The paper reports ρ (average
/// access doors per node) and f (average fanout) below 4 on all real data
/// sets, with maxima around 8; `experiments table1` prints these measured
/// values per dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    pub num_nodes: usize,
    /// M: number of leaf nodes.
    pub num_leaves: usize,
    /// Height (root level; leaves are level 1) — O(log_f M).
    pub height: u32,
    /// D: number of doors in the venue.
    pub num_doors: usize,
    /// ρ: average number of access doors per node.
    pub avg_access_doors: f64,
    pub max_access_doors: usize,
    /// f: average number of children per non-leaf node.
    pub avg_fanout: f64,
    /// α: average number of superior doors per partition.
    pub avg_superior_doors: f64,
    pub max_superior_doors: usize,
    /// Bytes held by the matrices alone: distance arena + next hops.
    pub matrix_bytes: usize,
    /// Full index footprint.
    pub total_bytes: usize,
}

impl TreeStats {
    pub fn compute(tree: &IpTree) -> TreeStats {
        let num_nodes = tree.num_nodes();
        let num_leaves = tree.num_leaves();
        let n_inner = num_nodes - num_leaves;
        // Every node but the root is exactly one child.
        let avg_fanout = if n_inner == 0 {
            0.0
        } else {
            (num_nodes - 1) as f64 / n_inner as f64
        };
        let ads = (0..num_nodes as NodeIdx).map(|n| tree.access_doors(n).len());
        let avg_access_doors = ads.clone().sum::<usize>() as f64 / num_nodes as f64;
        let max_access_doors = ads.max().unwrap_or(0);
        let n_parts = tree.superior.len();
        let sup = (0..n_parts).map(|p| tree.superior.get(p).len());
        let avg_superior_doors = sup.clone().sum::<usize>() as f64 / n_parts.max(1) as f64;
        let max_superior_doors = sup.max().unwrap_or(0);
        TreeStats {
            num_nodes,
            num_leaves,
            height: tree.height(),
            num_doors: tree.venue.num_doors(),
            avg_access_doors,
            max_access_doors,
            avg_fanout,
            avg_superior_doors,
            max_superior_doors,
            matrix_bytes: tree.slabs.matrix_bytes(),
            total_bytes: tree.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::VipTreeConfig;
    use crate::IpTree;
    use indoor_synth::presets;
    use std::sync::Arc;

    #[test]
    fn paper_scale_properties_hold_on_mc() {
        // The paper: ρ and f average < 4, max superior doors ~<= 8, even
        // for hallways with > 100 doors.
        let venue = Arc::new(presets::melbourne_central().build());
        let tree = IpTree::build(venue, &VipTreeConfig::default()).unwrap();
        let s = TreeStats::compute(&tree);
        assert!(s.num_leaves >= 2);
        assert!(
            s.avg_access_doors < 8.0,
            "avg access doors {}",
            s.avg_access_doors
        );
        assert!(
            s.avg_superior_doors < 8.0,
            "avg superior {}",
            s.avg_superior_doors
        );
        assert!(s.avg_fanout >= 2.0, "fanout {}", s.avg_fanout);
        assert!(s.height >= 2);
        assert!(s.total_bytes > s.matrix_bytes);
    }
}
