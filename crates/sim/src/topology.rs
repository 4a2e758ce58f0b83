//! Communication topologies.
//!
//! The paper's model is a complete network — every process can send to every
//! process. The Figure 1 lower-bound construction, however, wires up a
//! larger "Frankenstein" system in which only some pairs communicate (each
//! pair that co-appears in one of the projected views). [`Topology`] lets
//! the engine express both.

use std::collections::BTreeSet;

use homonym_core::Pid;

/// Which ordered pairs of processes have a channel.
///
/// Self-channels always exist. The default, [`Topology::complete`], is the
/// paper's model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// `None` means complete; otherwise `adj[from]` is the set of receivers.
    adj: Option<Vec<BTreeSet<usize>>>,
}

impl Topology {
    /// The complete network on `n` processes (the paper's model).
    pub fn complete(n: usize) -> Self {
        Topology { n, adj: None }
    }

    /// A network with exactly the given undirected edges (plus all
    /// self-channels).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range.
    pub fn with_edges(n: usize, edges: impl IntoIterator<Item = (Pid, Pid)>) -> Self {
        let mut adj = vec![BTreeSet::new(); n];
        for (a, b) in edges {
            assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
            adj[a.index()].insert(b.index());
            adj[b.index()].insert(a.index());
        }
        Topology { n, adj: Some(adj) }
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `from` can deliver to `to`.
    // Inlinable across crates: the route pass asks once per (cast,
    // recipient) pair, n² times a tick.
    #[inline]
    pub fn connected(&self, from: Pid, to: Pid) -> bool {
        if from == to {
            return true;
        }
        match &self.adj {
            None => from.index() < self.n && to.index() < self.n,
            Some(adj) => adj
                .get(from.index())
                .is_some_and(|s| s.contains(&to.index())),
        }
    }

    /// The receivers reachable from `from`, in ascending order (including
    /// `from` itself).
    pub fn receivers(&self, from: Pid) -> Vec<Pid> {
        match &self.adj {
            None => Pid::all(self.n).collect(),
            Some(adj) => {
                let mut out: Vec<Pid> = adj[from.index()].iter().map(|&i| Pid::new(i)).collect();
                if !out.contains(&from) {
                    out.push(from);
                    out.sort();
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_connects_everything() {
        let t = Topology::complete(3);
        for a in Pid::all(3) {
            for b in Pid::all(3) {
                assert!(t.connected(a, b));
            }
        }
        assert_eq!(t.receivers(Pid::new(1)).len(), 3);
    }

    #[test]
    fn sparse_edges_are_symmetric() {
        let t = Topology::with_edges(4, [(Pid::new(0), Pid::new(1))]);
        assert!(t.connected(Pid::new(0), Pid::new(1)));
        assert!(t.connected(Pid::new(1), Pid::new(0)));
        assert!(!t.connected(Pid::new(0), Pid::new(2)));
    }

    #[test]
    fn self_channels_always_exist() {
        let t = Topology::with_edges(2, []);
        assert!(t.connected(Pid::new(0), Pid::new(0)));
        assert_eq!(t.receivers(Pid::new(0)), vec![Pid::new(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Topology::with_edges(2, [(Pid::new(0), Pid::new(5))]);
    }
}
