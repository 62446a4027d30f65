//! Dependency-aware invalidation over an analysis dependency graph.
//!
//! Nodes are dense `u32` indices (the caller maps function ids or names
//! onto them); edges point from a unit to the units it *depends on*
//! (caller → callee for call-graph dependencies, pointer-user → pointee
//! allocator for points-to dependencies). Given the set of changed
//! units, [`DepGraph::affected`] computes the bidirectional closure, the
//! sound dirty set for whole-module analyses (unification propagates
//! both from callees to callers and from callers into callees).

/// A directed dependency graph over dense `u32` node indices.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Forward edges: `deps[n]` = nodes `n` depends on.
    deps: Vec<Vec<u32>>,
    /// Reverse edges: `rdeps[n]` = nodes depending on `n`.
    rdeps: Vec<Vec<u32>>,
}

impl DepGraph {
    /// An empty graph over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> DepGraph {
        DepGraph {
            deps: vec![Vec::new(); n],
            rdeps: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Records that `from` depends on `to` (e.g. caller → callee).
    /// Out-of-range indices are ignored; duplicate edges are fine.
    pub fn add_dep(&mut self, from: u32, to: u32) {
        if (from as usize) < self.deps.len() && (to as usize) < self.deps.len() {
            self.deps[from as usize].push(to);
            self.rdeps[to as usize].push(from);
        }
    }

    /// The bidirectional closure of `changed`, sorted — the sound dirty
    /// set for analyses that propagate information both ways along
    /// dependency edges (global unification). Out-of-range seeds are
    /// ignored; cycles terminate.
    #[must_use]
    pub fn affected(&self, changed: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; self.deps.len()];
        let mut work: Vec<u32> = Vec::new();
        for &s in changed {
            if (s as usize) < seen.len() && !seen[s as usize] {
                seen[s as usize] = true;
                work.push(s);
            }
        }
        let mut out = Vec::new();
        while let Some(n) = work.pop() {
            out.push(n);
            for &m in self.rdeps[n as usize].iter().chain(&self.deps[n as usize]) {
                if !seen[m as usize] {
                    seen[m as usize] = true;
                    work.push(m);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → b → c, d isolated (a depends on b, b on c).
    fn chain() -> DepGraph {
        let mut g = DepGraph::new(4);
        g.add_dep(0, 1);
        g.add_dep(1, 2);
        g
    }

    #[test]
    fn affected_is_bidirectional() {
        let g = chain();
        assert_eq!(g.affected(&[1]), vec![0, 1, 2]);
        assert_eq!(g.affected(&[3]), vec![3]);
    }

    #[test]
    fn cycles_terminate() {
        let mut g = DepGraph::new(3);
        g.add_dep(0, 1);
        g.add_dep(1, 0);
        g.add_dep(2, 2);
        assert_eq!(g.affected(&[0]), vec![0, 1]);
        assert_eq!(g.affected(&[2]), vec![2]);
    }
}
