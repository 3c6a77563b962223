use serde::{Deserialize, Serialize};

use crate::WeightedGraph;

/// Sentinel group id for vertices excluded from grouping and handled
/// directly by the controller (Appendix B, "host exclusion in switch
/// grouping").
pub const CONTROLLER_GROUP: usize = usize::MAX;

/// An assignment of vertices to groups.
///
/// Group ids are dense `0..num_groups`, except for the special
/// [`CONTROLLER_GROUP`] marker. Produced by [`mlkp`](crate::mlkp) and
/// maintained incrementally by [`Sgi`](crate::Sgi).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    assignment: Vec<usize>,
    num_groups: usize,
}

impl Partition {
    /// Creates a partition from a raw assignment vector.
    ///
    /// `num_groups` must exceed every non-sentinel group id present.
    ///
    /// # Panics
    ///
    /// Panics if an assignment refers to a group `>= num_groups` (other than
    /// [`CONTROLLER_GROUP`]).
    pub(crate) fn from_assignment(assignment: Vec<usize>, num_groups: usize) -> Self {
        for (v, &g) in assignment.iter().enumerate() {
            assert!(
                g < num_groups || g == CONTROLLER_GROUP,
                "vertex {v} assigned to out-of-range group {g}"
            );
        }
        Partition {
            assignment,
            num_groups,
        }
    }

    /// Puts every vertex in one group.
    pub(crate) fn single_group(n: usize) -> Self {
        Partition {
            assignment: vec![0; n],
            num_groups: 1,
        }
    }

    /// The group of vertex `v`.
    pub fn group_of(&self, v: usize) -> usize {
        self.assignment[v]
    }

    /// Reassigns vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range group ids (other than [`CONTROLLER_GROUP`]).
    pub(crate) fn assign(&mut self, v: usize, group: usize) {
        assert!(
            group < self.num_groups || group == CONTROLLER_GROUP,
            "group {group} out of range"
        );
        self.assignment[v] = group;
    }

    /// Number of (dense) groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Raw assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Grows the group space by one and returns the new group id.
    pub(crate) fn add_group(&mut self) -> usize {
        self.num_groups += 1;
        self.num_groups - 1
    }

    /// Members of each group, in vertex order. Excluded vertices appear in
    /// no bucket.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_groups];
        for (v, &g) in self.assignment.iter().enumerate() {
            if g != CONTROLLER_GROUP {
                out[g].push(v);
            }
        }
        out
    }

    /// Members of one group.
    pub fn members(&self, group: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &g)| g == group)
            .map(|(v, _)| v)
            .collect()
    }

    /// Weighted size of each group under `graph`'s vertex weights.
    pub(crate) fn group_weights(&self, graph: &WeightedGraph) -> Vec<f64> {
        let mut w = vec![0.0; self.num_groups];
        for (v, &g) in self.assignment.iter().enumerate() {
            if g != CONTROLLER_GROUP {
                w[g] += graph.vertex_weight(v);
            }
        }
        w
    }

    /// True when every group's weighted size is at most `limit`.
    pub fn respects_limit(&self, graph: &WeightedGraph, limit: f64) -> bool {
        self.group_weights(graph).iter().all(|&w| w <= limit + 1e-9)
    }

    /// Drops empty groups and renumbers densely, preserving relative order.
    pub(crate) fn compact(&mut self) {
        let mut used = vec![false; self.num_groups];
        for &g in &self.assignment {
            if g != CONTROLLER_GROUP {
                used[g] = true;
            }
        }
        let mut remap = vec![usize::MAX; self.num_groups];
        let mut next = 0;
        for (g, &u) in used.iter().enumerate() {
            if u {
                remap[g] = next;
                next += 1;
            }
        }
        for a in &mut self.assignment {
            if *a != CONTROLLER_GROUP {
                *a = remap[*a];
            }
        }
        self.num_groups = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_queries() {
        let p = Partition::from_assignment(vec![0, 1, 0, 2, CONTROLLER_GROUP], 3);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.assignment().len(), 5);
        assert_eq!(p.group_of(2), 0);
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.members(CONTROLLER_GROUP), vec![4]);
        assert_eq!(p.groups(), vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "out-of-range group")]
    fn rejects_out_of_range() {
        let _ = Partition::from_assignment(vec![0, 5], 2);
    }

    #[test]
    fn weights_and_limits() {
        let mut g = WeightedGraph::new(4);
        g.set_vertex_weight(0, 2.0);
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(p.group_weights(&g), vec![3.0, 2.0]);
        assert!(p.respects_limit(&g, 3.0));
        assert!(!p.respects_limit(&g, 2.5));
    }

    #[test]
    fn compact_renumbers() {
        let mut p = Partition::from_assignment(vec![2, 2, 0, CONTROLLER_GROUP], 4);
        p.compact();
        assert_eq!(p.num_groups(), 2);
        // Relative order preserved: old 0 -> 0, old 2 -> 1.
        assert_eq!(p.group_of(2), 0);
        assert_eq!(p.group_of(0), 1);
        assert_eq!(p.group_of(3), CONTROLLER_GROUP);
    }

    #[test]
    fn add_group_extends_range() {
        let mut p = Partition::single_group(3);
        let g = p.add_group();
        assert_eq!(g, 1);
        p.assign(2, g);
        assert_eq!(p.members(1), vec![2]);
    }

    #[test]
    fn single_group_covers_all() {
        let p = Partition::single_group(5);
        assert_eq!(p.members(0).len(), 5);
        assert_eq!(p.num_groups(), 1);
    }
}
