//! First-class workflow graphs.
//!
//! The paper evaluates three invocation shapes — sequential chains,
//! fan-out and fan-in (§6.1) — but real serverless workflows are
//! arbitrary DAGs: diamonds, scatter-gather, multi-stage pipelines.
//! [`WorkflowDag`] is the general form: named function nodes joined by
//! payload-carrying edges, with validation (cycle detection, duplicate
//! edges, connectivity) and a deterministic topological order the
//! executors in [`workflow`](crate::workflow) drive.

use std::collections::HashMap;

use crate::error::PlatformError;

/// A directed graph of function invocations.
///
/// Nodes are interned by name in insertion order (the `HashMap` guard
/// keeps lookup O(1), so building a graph of `e` edges is O(e)). Edges
/// keep per-source insertion order, which makes every traversal — and
/// therefore every execution — deterministic.
///
/// ```
/// # use roadrunner_platform::dag::WorkflowDag;
/// let mut dag = WorkflowDag::new();
/// dag.add_edge("a", "b").add_edge("a", "c").add_edge("b", "d").add_edge("c", "d");
/// assert_eq!(dag.node_count(), 4);
/// assert!(dag.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkflowDag {
    names: Vec<String>,
    index: HashMap<String, usize>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    edge_count: usize,
}

impl WorkflowDag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its node id (existing id if present).
    pub fn add_node(&mut self, name: impl AsRef<str>) -> usize {
        let name = name.as_ref();
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        i
    }

    /// Adds the edge `from → to`, interning both endpoints. Returns
    /// `&mut self` for chaining. Structural problems (self-loops, cycles,
    /// duplicates) are reported by [`validate`](Self::validate), not here.
    pub fn add_edge(&mut self, from: impl AsRef<str>, to: impl AsRef<str>) -> &mut Self {
        let u = self.add_node(from);
        let v = self.add_node(to);
        self.succ[u].push(v);
        self.pred[v].push(u);
        self.edge_count += 1;
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Node names in insertion order (each appears once).
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Name of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Successor ids of node `i` in edge-insertion order.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// All edges as `(from, to)` id pairs, grouped by source in node
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.pred.iter().map(Vec::len).collect()
    }

    /// Nodes with no incoming edges (the workflow's entry points).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.node_count()).filter(|&i| self.pred[i].is_empty()).collect()
    }

    /// Nodes with no outgoing edges (the workflow's results).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.node_count()).filter(|&i| self.succ[i].is_empty()).collect()
    }

    /// Checks structural validity: at least one edge, no duplicate edges,
    /// no cycles (Kahn's algorithm), and weak connectivity (no orphaned
    /// sub-workflows).
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] naming the first problem found.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.edge_count == 0 {
            return Err(PlatformError::InvalidWorkflow(
                "a workflow needs at least one edge".into(),
            ));
        }
        for (u, vs) in self.succ.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for &v in vs {
                if !seen.insert(v) {
                    return Err(PlatformError::InvalidWorkflow(format!(
                        "duplicate edge `{}` -> `{}`",
                        self.names[u], self.names[v]
                    )));
                }
            }
        }
        self.topo_order().map(|_| ())?;
        // Weak connectivity: one workflow, not several stapled together.
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in self.succ[u].iter().chain(&self.pred[u]) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(PlatformError::InvalidWorkflow(format!(
                "workflow graph is disconnected: `{}` is unreachable from `{}`",
                self.names[i], self.names[0]
            )));
        }
        Ok(())
    }

    /// Deterministic topological order (Kahn's algorithm, smallest ready
    /// node id first). The ready set is a min-heap, so the order costs
    /// O((V + E) log V) instead of the O(V²) repeated scans a plain
    /// ready-list would — same order, computed faster.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] if the graph contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, PlatformError> {
        use std::cmp::Reverse;
        let n = self.node_count();
        let mut in_deg = self.in_degrees();
        // Smallest id first keeps the order stable across runs.
        let mut ready: std::collections::BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| in_deg[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            for &v in &self.succ[u] {
                in_deg[v] -= 1;
                if in_deg[v] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        if order.len() < n {
            let stuck: Vec<&str> = (0..n)
                .filter(|&i| in_deg[i] > 0)
                .map(|i| self.names[i].as_str())
                .collect();
            return Err(PlatformError::InvalidWorkflow(format!(
                "workflow graph contains a cycle through {}",
                stuck.join(", ")
            )));
        }
        Ok(order)
    }

    /// Edges in execution order: sources in topological order, each
    /// source's out-edges in insertion order. For the legacy shapes this
    /// reproduces exactly the order the old pattern engine used.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] if the graph contains a cycle.
    pub fn topo_edges(&self) -> Result<Vec<(usize, usize)>, PlatformError> {
        let order = self.topo_order()?;
        let mut edges = Vec::with_capacity(self.edge_count);
        for u in order {
            for &v in &self.succ[u] {
                edges.push((u, v));
            }
        }
        Ok(edges)
    }

    /// Length of the longest path where each edge `(u, v)` weighs
    /// `weight(u, v)` — the DAG's critical path, the lower bound no
    /// concurrent schedule can beat.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] if the graph contains a cycle.
    pub fn critical_path_ns(
        &self,
        mut weight: impl FnMut(usize, usize) -> u64,
    ) -> Result<u64, PlatformError> {
        let order = self.topo_order()?;
        let mut dist = vec![0u64; self.node_count()];
        let mut longest = 0;
        for u in order {
            for &v in &self.succ[u] {
                let cand = dist[u] + weight(u, v);
                dist[v] = dist[v].max(cand);
                longest = longest.max(dist[v]);
            }
        }
        Ok(longest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WorkflowDag {
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("a", "c").add_edge("b", "d").add_edge("c", "d");
        dag
    }

    #[test]
    fn interning_is_idempotent() {
        let mut dag = WorkflowDag::new();
        assert_eq!(dag.add_node("a"), 0);
        assert_eq!(dag.add_node("b"), 1);
        assert_eq!(dag.add_node("a"), 0);
        assert_eq!(dag.node_count(), 2);
        assert_eq!(dag.nodes().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn diamond_validates_with_expected_shape() {
        let dag = diamond();
        assert!(dag.validate().is_ok());
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.leaves(), vec![3]);
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.in_degrees(), [0, 1, 1, 2]);
        assert_eq!(dag.edge_count(), 4);
    }

    #[test]
    fn empty_graph_rejected() {
        let dag = WorkflowDag::new();
        assert!(matches!(dag.validate(), Err(PlatformError::InvalidWorkflow(_))));
        let mut lone = WorkflowDag::new();
        lone.add_node("only");
        assert!(lone.validate().is_err());
    }

    #[test]
    fn cycles_rejected() {
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("b", "c").add_edge("c", "a");
        let err = dag.validate().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        let mut selfloop = WorkflowDag::new();
        selfloop.add_edge("x", "x");
        assert!(selfloop.validate().is_err());
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("a", "b");
        let err = dag.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn disconnected_graphs_rejected() {
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("x", "y");
        let err = dag.validate().unwrap_err();
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    #[test]
    fn topo_order_respects_edges_and_is_deterministic() {
        let dag = diamond();
        let order = dag.topo_order().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.node_count()];
            for (rank, &i) in order.iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for (u, v) in dag.edges() {
            assert!(pos[u] < pos[v], "edge {u}->{v} violates topo order");
        }
    }

    #[test]
    fn topo_edges_match_legacy_pattern_order() {
        // fan-out: source's edges in insertion order.
        let mut fanout = WorkflowDag::new();
        fanout.add_edge("s", "t0").add_edge("s", "t1").add_edge("s", "t2");
        assert_eq!(fanout.topo_edges().unwrap(), vec![(0, 1), (0, 2), (0, 3)]);
        // fan-in: one edge per source, sources in insertion order.
        let mut fanin = WorkflowDag::new();
        fanin.add_edge("s0", "sink").add_edge("s1", "sink");
        assert_eq!(fanin.topo_edges().unwrap(), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn critical_path_takes_the_longest_route() {
        let dag = diamond();
        // a->b->d weighs 10+1, a->c->d weighs 2+50.
        let weights = |u: usize, v: usize| match (u, v) {
            (0, 1) => 10,
            (1, 3) => 1,
            (0, 2) => 2,
            (2, 3) => 50,
            _ => unreachable!(),
        };
        assert_eq!(dag.critical_path_ns(weights).unwrap(), 52);
    }
}
