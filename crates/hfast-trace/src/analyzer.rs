//! Congestion analysis over per-link hop spans.
//!
//! The simulator records one `hop` span per message per link (start = when
//! the link began serializing, duration = serialization time, `wait` field
//! = queueing delay before the link freed up). Folding those intervals per
//! link yields the congestion picture Jha et al. argue is the diagnosable
//! unit of interconnect behaviour: busy/wait totals, peak queue depth and
//! utilization, ranked into a hotspot table.
//!
//! Credit-mode runs additionally emit `stall` spans (a link's head
//! blocked, waiting for a credit on the downstream link named by the
//! span's `for` field). [`congestion_trees`] folds those into the tree
//! reports of arXiv 1907.05312 — root link, depth, member links, victim
//! counts — and [`utilization_spread`] condenses a hotspot ranking into
//! the two scalars ("how unequal is link load?") the congestion-lab
//! comparisons assert on.

use std::collections::{BTreeMap, BTreeSet};

use crate::span::{SpanRecord, Track};

/// Folded load for one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoad {
    /// Link id (the fabric's `LinkId`).
    pub link: usize,
    /// Total serialization time on the link.
    pub busy_ns: u64,
    /// Total queueing delay suffered by messages before this link.
    pub wait_ns: u64,
    /// Messages that crossed the link.
    pub messages: u64,
    /// Peak number of messages simultaneously queued or serializing.
    pub peak_queue: usize,
    /// `busy_ns` over the trace horizon (max span end across all links).
    pub utilization: f64,
}

/// True for the serialization spans the load statistics fold. The name
/// check matters since credit-mode runs put `stall` spans on the same
/// link tracks — stalled time is *not* busy time.
fn is_hop(s: &SpanRecord) -> bool {
    s.name == "hop" && s.dur_ns > 0
}

fn hop_intervals(spans: &[SpanRecord]) -> BTreeMap<usize, Vec<&SpanRecord>> {
    let mut by_link: BTreeMap<usize, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if let Track::Link(l) = s.track {
            if is_hop(s) {
                by_link.entry(l).or_default().push(s);
            }
        }
    }
    by_link
}

fn wait_of(s: &SpanRecord) -> u64 {
    s.fields
        .iter()
        .find(|(k, _)| *k == "wait")
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Folds hop spans into per-link loads, ranked by descending busy time
/// (link id breaks ties). Links with no hop spans do not appear.
pub fn rank_hotspots(spans: &[SpanRecord]) -> Vec<LinkLoad> {
    let by_link = hop_intervals(spans);
    let horizon = by_link
        .values()
        .flat_map(|v| v.iter().map(|s| s.t_ns + s.dur_ns))
        .max()
        .unwrap_or(0);

    let mut loads: Vec<LinkLoad> = by_link
        .into_iter()
        .map(|(link, hops)| {
            let busy_ns: u64 = hops.iter().map(|s| s.dur_ns).sum();
            let wait_ns: u64 = hops.iter().map(|s| wait_of(s)).sum();

            // Peak queue depth: sweep arrivals (+1) and departures (-1);
            // at equal times departures land first so a message arriving
            // exactly as another finishes does not count as overlap.
            let mut edges: Vec<(u64, i32)> = Vec::with_capacity(hops.len() * 2);
            for s in &hops {
                let arrival = s.t_ns.saturating_sub(wait_of(s));
                edges.push((arrival, 1));
                edges.push((s.t_ns + s.dur_ns, -1));
            }
            edges.sort_by_key(|&(t, d)| (t, d));
            let mut depth = 0i32;
            let mut peak = 0i32;
            for (_, d) in edges {
                depth += d;
                peak = peak.max(depth);
            }

            LinkLoad {
                link,
                busy_ns,
                wait_ns,
                messages: hops.len() as u64,
                peak_queue: peak.max(0) as usize,
                utilization: if horizon > 0 {
                    busy_ns as f64 / horizon as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    loads.sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then(a.link.cmp(&b.link)));
    loads
}

/// How unevenly busy time is distributed across the links that carried
/// traffic: the scalar form of "is congestion bounded?".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSpread {
    /// Links that carried at least one hop.
    pub links: usize,
    /// Busiest link's busy time over the mean busy time (1.0 = perfectly
    /// balanced; large = one link does all the work).
    pub max_over_mean: f64,
    /// Gini coefficient of per-link busy time in `[0, 1)`: 0 = equal
    /// load everywhere, →1 = all load on one link.
    pub gini: f64,
}

/// Condenses a [`rank_hotspots`] ranking into its inequality statistics.
/// Zeroed when no link carried traffic.
pub fn utilization_spread(loads: &[LinkLoad]) -> UtilizationSpread {
    let mut busy: Vec<u64> = loads.iter().map(|l| l.busy_ns).collect();
    busy.sort_unstable();
    let total: u64 = busy.iter().sum();
    let n = busy.len();
    if n == 0 || total == 0 {
        return UtilizationSpread {
            links: n,
            max_over_mean: 0.0,
            gini: 0.0,
        };
    }
    let mean = total as f64 / n as f64;
    let max = *busy.last().unwrap() as f64;
    // Gini over the sorted values: 2·Σ(i+1)·x_i / (n·Σx) − (n+1)/n.
    let weighted: f64 = busy
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    let gini = (2.0 * weighted / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64).max(0.0);
    UtilizationSpread {
        links: n,
        max_over_mean: max / mean,
        gini,
    }
}

/// One congestion tree folded out of credit-mode `stall` spans, in the
/// terminology of arXiv 1907.05312: the **root** is the saturated link
/// everything ultimately waits on; member links stalled waiting (directly
/// or transitively) for the root; **victims** are the distinct flows the
/// tree delayed, some of which never traverse the root at all.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionTree {
    /// The saturated link at the bottom of the wait chain (it caused
    /// stalls but never stalled itself).
    pub root: usize,
    /// Longest upstream wait chain, in links (1 = only direct stalls).
    pub depth: usize,
    /// All member links, root included, ascending.
    pub links: Vec<usize>,
    /// Total stalled time summed over the member links.
    pub stall_ns: u64,
    /// Distinct flows delayed by the tree: flows that stalled on a
    /// member link or queued (`wait > 0`) behind one.
    pub victim_flows: usize,
    /// Distinct flows that actually crossed the root link.
    pub root_flows: usize,
    /// Victims that never crossed the root — the tree's collateral
    /// damage, the paper's headline observation.
    pub off_root_victims: usize,
    /// `victim_flows / root_flows` (root flows floored at 1): how far
    /// past its own traffic the hot link's damage spread.
    pub spread_ratio: f64,
}

/// Extracts congestion trees from a snapshot containing credit-mode
/// `stall` spans, sorted by total stalled time descending (root id breaks
/// ties). Ideal-mode traces have no stall spans and yield no trees.
///
/// Wait *cycles* (A stalls for B while B stalls for A, at different
/// times) have no root and are not reported as trees.
pub fn congestion_trees(spans: &[SpanRecord]) -> Vec<CongestionTree> {
    // target link -> the links that stalled waiting for it.
    let mut upstream: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut stalled_links: BTreeSet<usize> = BTreeSet::new();
    let mut stall_ns_by_link: BTreeMap<usize, u64> = BTreeMap::new();
    let mut stall_flows_by_link: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let mut hop_flows_by_link: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let mut waited_flows_by_link: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let field =
        |s: &SpanRecord, key: &str| s.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    for s in spans {
        let Track::Link(l) = s.track else { continue };
        match s.name {
            "stall" => {
                let Some(wanted) = field(s, "for") else {
                    continue;
                };
                upstream.entry(wanted as usize).or_default().insert(l);
                stalled_links.insert(l);
                *stall_ns_by_link.entry(l).or_default() += s.dur_ns;
                if let Some(flow) = field(s, "flow") {
                    stall_flows_by_link.entry(l).or_default().insert(flow);
                }
            }
            "hop" => {
                if let Some(flow) = field(s, "flow") {
                    hop_flows_by_link.entry(l).or_default().insert(flow);
                    if field(s, "wait").is_some_and(|w| w > 0) {
                        waited_flows_by_link.entry(l).or_default().insert(flow);
                    }
                }
            }
            _ => {}
        }
    }

    let mut trees: Vec<CongestionTree> = upstream
        .keys()
        .filter(|root| !stalled_links.contains(root))
        .map(|&root| {
            // BFS upstream from the root through the stall edges.
            let mut members: BTreeSet<usize> = BTreeSet::from([root]);
            let mut frontier = vec![root];
            let mut depth = 0usize;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for l in frontier {
                    for &up in upstream.get(&l).into_iter().flatten() {
                        if members.insert(up) {
                            next.push(up);
                        }
                    }
                }
                if !next.is_empty() {
                    depth += 1;
                }
                frontier = next;
            }

            let stall_ns = members.iter().filter_map(|l| stall_ns_by_link.get(l)).sum();
            let mut victims: BTreeSet<u64> = BTreeSet::new();
            for l in &members {
                if let Some(fs) = stall_flows_by_link.get(l) {
                    victims.extend(fs);
                }
                if let Some(fs) = waited_flows_by_link.get(l) {
                    victims.extend(fs);
                }
            }
            let empty = BTreeSet::new();
            let root_flows = hop_flows_by_link.get(&root).unwrap_or(&empty);
            let off_root_victims = victims.iter().filter(|f| !root_flows.contains(f)).count();
            CongestionTree {
                root,
                depth,
                links: members.into_iter().collect(),
                stall_ns,
                victim_flows: victims.len(),
                root_flows: root_flows.len(),
                off_root_victims,
                spread_ratio: victims.len() as f64 / root_flows.len().max(1) as f64,
            }
        })
        .collect();
    trees.sort_by(|a, b| b.stall_ns.cmp(&a.stall_ns).then(a.root.cmp(&b.root)));
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(link: usize, t: u64, dur: u64, wait: u64) -> SpanRecord {
        SpanRecord {
            track: Track::Link(link),
            name: "hop",
            t_ns: t,
            dur_ns: dur,
            span_id: 0,
            parent_id: 0,
            fields: vec![("wait", wait)],
        }
    }

    #[test]
    fn ranks_by_busy_time() {
        let spans = vec![
            hop(1, 0, 10, 0),
            hop(2, 0, 30, 5),
            hop(2, 40, 30, 0),
            hop(3, 0, 50, 0),
        ];
        let loads = rank_hotspots(&spans);
        assert_eq!(loads[0].link, 2, "60 ns busy wins");
        assert_eq!(loads[0].busy_ns, 60);
        assert_eq!(loads[0].wait_ns, 5);
        assert_eq!(loads[0].messages, 2);
        assert_eq!(loads[1].link, 3);
        assert_eq!(loads[2].link, 1);
        // Horizon is 70 (link 2's last hop ends at 70).
        assert!((loads[1].utilization - 50.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn peak_queue_counts_overlap() {
        // Three messages contend: arrivals at 0, 0, 5; the link serializes
        // them back to back (10 ns each).
        let spans = vec![hop(4, 0, 10, 0), hop(4, 10, 10, 10), hop(4, 20, 10, 15)];
        let loads = rank_hotspots(&spans);
        assert_eq!(loads[0].peak_queue, 3);
        // Back-to-back without waits: no overlap.
        let serial = vec![hop(5, 0, 10, 0), hop(5, 10, 10, 0)];
        assert_eq!(rank_hotspots(&serial)[0].peak_queue, 1);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(rank_hotspots(&[]).is_empty());
        assert!(congestion_trees(&[]).is_empty());
        let spread = utilization_spread(&[]);
        assert_eq!(spread.links, 0);
        assert_eq!(spread.gini, 0.0);
    }

    fn flow_hop(link: usize, flow: u64, wait: u64) -> SpanRecord {
        SpanRecord {
            track: Track::Link(link),
            name: "hop",
            t_ns: 0,
            dur_ns: 10,
            span_id: 0,
            parent_id: 0,
            fields: vec![("wait", wait), ("flow", flow)],
        }
    }

    fn stall(link: usize, flow: u64, wanted: usize, dur: u64) -> SpanRecord {
        SpanRecord {
            track: Track::Link(link),
            name: "stall",
            t_ns: 0,
            dur_ns: dur,
            span_id: 0,
            parent_id: 0,
            fields: vec![("flow", flow), ("for", wanted as u64)],
        }
    }

    #[test]
    fn stall_spans_do_not_count_as_busy_time() {
        let spans = vec![hop(1, 0, 10, 0), stall(1, 7, 2, 100)];
        let loads = rank_hotspots(&spans);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].busy_ns, 10, "the 100 ns stall is not busy");
        assert_eq!(loads[0].messages, 1);
    }

    #[test]
    fn spread_separates_balanced_from_skewed() {
        let balanced: Vec<LinkLoad> = rank_hotspots(&[hop(1, 0, 50, 0), hop(2, 0, 50, 0)]);
        let s = utilization_spread(&balanced);
        assert_eq!(s.links, 2);
        assert!((s.max_over_mean - 1.0).abs() < 1e-12);
        assert!(s.gini < 1e-12);

        let skewed = rank_hotspots(&[hop(1, 0, 90, 0), hop(2, 0, 10, 0)]);
        let s = utilization_spread(&skewed);
        assert!((s.max_over_mean - 1.8).abs() < 1e-12);
        assert!((s.gini - 0.4).abs() < 1e-12, "gini {}", s.gini);
    }

    #[test]
    fn tree_extraction_finds_root_depth_and_victims() {
        // Chain: link 3 stalls for 2, link 2 stalls for 1 — root is 1.
        // Flow 10 crosses the root; flow 11 stalls on link 3 and never
        // touches the root; flow 12 queues behind link 2.
        let spans = vec![
            flow_hop(1, 10, 0),
            flow_hop(2, 12, 5),
            stall(2, 10, 1, 40),
            stall(3, 11, 2, 20),
        ];
        let trees = congestion_trees(&spans);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.root, 1);
        assert_eq!(t.depth, 2, "3 → 2 → 1");
        assert_eq!(t.links, vec![1, 2, 3]);
        assert_eq!(t.stall_ns, 60);
        assert_eq!(t.victim_flows, 3, "flows 10, 11, 12");
        assert_eq!(t.root_flows, 1, "only flow 10 crossed the root");
        assert_eq!(t.off_root_victims, 2, "flows 11 and 12 never did");
        assert!((t.spread_ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn independent_trees_sort_by_stall_time() {
        let spans = vec![stall(2, 1, 1, 10), stall(5, 2, 4, 99)];
        let trees = congestion_trees(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].root, 4, "heavier tree first");
        assert_eq!(trees[1].root, 1);
        assert_eq!(trees[0].depth, 1);
    }

    #[test]
    fn wait_cycles_yield_no_tree() {
        let spans = vec![stall(1, 1, 2, 10), stall(2, 2, 1, 10)];
        assert!(congestion_trees(&spans).is_empty(), "no stall-free root");
    }
}
