//! Per-node run-time instrumentation.
//!
//! The paper stresses that the high-level approach "provides the designer
//! with a number of knobs supporting optimisation and performance tuning".
//! Turning those knobs requires visibility: every spawned node records how
//! many items it consumed/produced and how long it spent busy vs. total, and
//! the pattern run() methods return the aggregate as a [`RunStats`].

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

/// Statistics for one node (thread) of a stream network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeStats {
    /// Node name, e.g. `"farm.worker.3"`.
    pub name: String,
    /// Items consumed from the input channel(s).
    pub items_in: u64,
    /// Items pushed to the output channel(s).
    pub items_out: u64,
    /// Time spent inside user `svc` code.
    pub busy: Duration,
    /// Wall time from node start to node end.
    pub wall: Duration,
}

impl NodeStats {
    /// Fraction of wall time spent in user code (0 when wall is zero).
    pub fn utilisation(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// Aggregate statistics returned by running a pattern.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    nodes: Vec<NodeStats>,
}

impl RunStats {
    /// Per-node statistics in spawn order.
    pub fn nodes(&self) -> &[NodeStats] {
        &self.nodes
    }

    /// Looks a node up by exact name.
    pub fn node(&self, name: &str) -> Option<&NodeStats> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Renders the per-node statistics as an aligned text table (the
    /// tuning view the paper's "knobs" need).
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("node                          in         out    busy(ms)    util\n");
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<28} {:>9} {:>10} {:>10.2} {:>6.1}%\n",
                n.name,
                n.items_in,
                n.items_out,
                n.busy.as_secs_f64() * 1e3,
                n.utilisation() * 100.0
            ));
        }
        out
    }
}

/// Shared collector the spawned threads report into.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsCollector {
    inner: Arc<Mutex<Vec<NodeStats>>>,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        StatsCollector::default()
    }

    pub(crate) fn record(&self, stats: NodeStats) {
        self.inner.lock().expect("stats lock poisoned").push(stats);
    }

    pub(crate) fn finish(self) -> RunStats {
        let nodes = match Arc::try_unwrap(self.inner) {
            Ok(m) => m.into_inner().expect("stats lock poisoned"),
            Err(arc) => arc.lock().expect("stats lock poisoned").clone(),
        };
        RunStats { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, items_in: u64, busy_ms: u64, wall_ms: u64) -> NodeStats {
        NodeStats {
            name: name.into(),
            items_in,
            items_out: items_in,
            busy: Duration::from_millis(busy_ms),
            wall: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn utilisation_is_busy_over_wall() {
        let s = stats("n", 10, 50, 100);
        assert!((s.utilisation() - 0.5).abs() < 1e-9);
        let idle = stats("n", 0, 0, 0);
        assert_eq!(idle.utilisation(), 0.0);
    }

    #[test]
    fn collector_gathers_across_clones() {
        let c = StatsCollector::new();
        let c2 = c.clone();
        c.record(stats("a", 1, 1, 1));
        c2.record(stats("b", 2, 2, 2));
        drop(c2);
        let run = c.finish();
        assert_eq!(run.nodes().len(), 2);
        assert!(run.node("a").is_some());
        assert_eq!(run.node("b").map(|n| n.items_in), Some(2));
    }

    #[test]
    fn to_table_renders_every_node() {
        let run = RunStats {
            nodes: vec![stats("source", 0, 5, 10), stats("farm.worker.0", 42, 7, 10)],
        };
        let table = run.to_table();
        assert!(table.contains("source"));
        assert!(table.contains("farm.worker.0"));
        assert!(table.contains("42"));
        assert_eq!(table.lines().count(), 3); // header + 2 nodes
    }
}
