//! Adversarial traffic scenarios beyond the six paper applications.
//!
//! The paper's workloads (§4) are *measured* application exchanges —
//! structured, mostly bandwidth-balanced, and friendly to circuit
//! provisioning. Congestion studies need the opposite: patterns built to
//! saturate a link and watch the damage spread. This module generates
//! those patterns as ordinary [`Flow`] lists, so every scenario replays
//! through the same [`Simulation`](crate::Simulation) path (ideal or
//! credit mode), and as a [`CommGraph`] so HFAST provisioning sees the
//! scenario's heavy pairs exactly the way it sees an application's.
//!
//! Every generator is seeded through [`Rng64`] — one
//! `(kind, nodes, flows, bytes, seed)` tuple defines one reproducible
//! workload — and emits a **foreground** of heavy flows plus (where the
//! scenario calls for it) a **background** of small latency-bound flows.
//! The background is the measurement instrument: background flows never
//! cross the hot link's natural route, so any that slow down are
//! congestion-tree *victims* in the sense of arXiv 1907.05312, not direct
//! contenders.

use hfast_par::Rng64;
use hfast_topology::CommGraph;

use crate::engine::FlowRecord;
use crate::error::NetsimError;
use crate::fabric::Fabric;
use crate::traffic::{below, Flow};

/// Payload of one background (victim-probe) flow: small enough to stay
/// under every provisioning cutoff used in this repo, so circuits are
/// never provisioned *for* the probes — they ride whatever shared
/// capacity the fabric gives latency-bound traffic.
pub(crate) const BACKGROUND_BYTES: u64 = 1024;

/// The scenario families the generator knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioKind {
    /// N→1: every foreground flow targets one hot node (the classic
    /// congestion-tree root).
    Incast,
    /// A seeded rotation: node `i` sends to `(i + r) mod nodes` — full
    /// bisection load with no endpoint sharing.
    Permutation,
    /// Mixed load where a seeded fraction of flows pile onto one hot
    /// destination and the rest spread uniformly.
    HotSpot,
    /// Two tenants time-sharing the fabric: a heavy bulk tenant on even
    /// nodes and a light latency-sensitive tenant on odd nodes, with
    /// per-flow tenant attribution for slowdown reports.
    MultiTenant,
    /// A diurnal replay: waves of load separated by quiet gaps, peak
    /// waves carrying full-size payloads and off-peak waves small ones.
    Bursty,
}

impl ScenarioKind {
    /// Every scenario family, in wire/report order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Incast,
        ScenarioKind::Permutation,
        ScenarioKind::HotSpot,
        ScenarioKind::MultiTenant,
        ScenarioKind::Bursty,
    ];

    /// Stable lowercase name (wire format, report rows, stats keys).
    pub fn as_str(&self) -> &'static str {
        match self {
            ScenarioKind::Incast => "incast",
            ScenarioKind::Permutation => "permutation",
            ScenarioKind::HotSpot => "hotspot",
            ScenarioKind::MultiTenant => "multi_tenant",
            ScenarioKind::Bursty => "bursty",
        }
    }

    /// Per-kind salt folded into the user seed so two kinds never share a
    /// random stream even under the same seed.
    fn salt(self) -> u64 {
        0x5CEA_0000 + ScenarioKind::ALL.iter().position(|k| *k == self).unwrap() as u64
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One fully-specified synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Which traffic family to generate.
    pub kind: ScenarioKind,
    /// Endpoint universe: every generated flow has `src, dst < nodes`.
    pub nodes: usize,
    /// Foreground flow budget (generators may add an equal-sized
    /// background on top; see [`Scenario::generate`]).
    pub flows: usize,
    /// Foreground payload bytes per flow.
    pub bytes: u64,
    /// PRNG seed; same seed, same workload, everywhere.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with explicit knobs.
    ///
    /// # Panics
    /// If `nodes < 2`, `flows == 0`, or `bytes == 0` — a scenario that
    /// cannot generate a single valid flow is a caller bug, not a
    /// runtime condition.
    pub fn new(kind: ScenarioKind, nodes: usize, flows: usize, bytes: u64, seed: u64) -> Scenario {
        assert!(nodes >= 2, "scenarios need at least two nodes");
        assert!(flows > 0, "scenarios need at least one flow");
        assert!(bytes > 0, "scenarios need a positive payload");
        Scenario {
            kind,
            nodes,
            flows,
            bytes,
            seed,
        }
    }

    /// The tuned default for `kind` at a given node count — what
    /// `congestion_lab` sweeps and the serve `scenario` verb falls back
    /// to when the client leaves the knobs out.
    pub fn preset(kind: ScenarioKind, nodes: usize, seed: u64) -> Scenario {
        let flows = match kind {
            ScenarioKind::Incast => nodes.saturating_sub(1).max(1),
            ScenarioKind::Permutation => nodes,
            ScenarioKind::HotSpot | ScenarioKind::MultiTenant => 2 * nodes,
            ScenarioKind::Bursty => 3 * nodes,
        };
        Scenario::new(kind, nodes, flows, 64 << 10, seed)
    }

    /// Checks the endpoint universe against a fabric.
    ///
    /// # Errors
    /// [`NetsimError::NodeOutOfRange`] if the scenario names nodes the
    /// fabric does not have.
    pub fn validate_for(&self, fabric: &dyn Fabric) -> Result<(), NetsimError> {
        if self.nodes > fabric.nodes() {
            return Err(NetsimError::NodeOutOfRange {
                node: self.nodes - 1,
                nodes: fabric.nodes(),
            });
        }
        Ok(())
    }

    /// Generates the workload. Shorthand for
    /// [`flows_with_tenants`](Scenario::flows_with_tenants)`.0`.
    pub fn generate(&self) -> Vec<Flow> {
        self.flows_with_tenants().0
    }

    /// Generates the workload plus a parallel per-flow tenant vector
    /// (all zeros except for [`ScenarioKind::MultiTenant`], where tenant
    /// 1 is the light latency-sensitive workload).
    ///
    /// Determinism: a pure function of the scenario value. Background
    /// flows (payload `BACKGROUND_BYTES`) follow the foreground in the
    /// returned list, so `records[i]` in a detailed run lines up with
    /// flow `i` here.
    pub fn flows_with_tenants(&self) -> (Vec<Flow>, Vec<u8>) {
        let mut rng = Rng64::new(self.seed ^ self.kind.salt());
        let mut flows = Vec::new();
        let mut tenants = Vec::new();
        match self.kind {
            ScenarioKind::Incast => {
                let hot = below(&mut rng, self.nodes as u64) as usize;
                for _ in 0..self.flows {
                    let src = self.pick_not(&mut rng, hot);
                    flows.push(Flow {
                        src,
                        dst: hot,
                        bytes: self.bytes,
                        start_ns: below(&mut rng, 5_000),
                    });
                    tenants.push(0);
                }
                self.background(&mut rng, Some(hot), &mut flows, &mut tenants);
            }
            ScenarioKind::Permutation => {
                let rot = 1 + below(&mut rng, self.nodes as u64 - 1) as usize;
                for i in 0..self.flows {
                    let src = i % self.nodes;
                    flows.push(Flow {
                        src,
                        dst: (src + rot) % self.nodes,
                        bytes: self.bytes,
                        start_ns: below(&mut rng, 5_000),
                    });
                    tenants.push(0);
                }
            }
            ScenarioKind::HotSpot => {
                let hot = below(&mut rng, self.nodes as u64) as usize;
                for i in 0..self.flows {
                    // Every fourth flow piles onto the hot node; the rest
                    // spread uniformly (and double as victim probes).
                    let (src, dst, bytes) = if i % 4 == 0 {
                        (self.pick_not(&mut rng, hot), hot, self.bytes)
                    } else {
                        let (s, d) = self.pick_pair_avoiding(&mut rng, hot);
                        (s, d, BACKGROUND_BYTES)
                    };
                    flows.push(Flow {
                        src,
                        dst,
                        bytes,
                        start_ns: below(&mut rng, self.spread_ns()),
                    });
                    tenants.push(0);
                }
            }
            ScenarioKind::MultiTenant => {
                // Tenant 0 (bulk) owns the even nodes, tenant 1 (latency)
                // the odd — interleaved so both share every switch layer.
                let heavy = self.flows / 2;
                for _ in 0..heavy {
                    let (src, dst) = self.pick_tenant_pair(&mut rng, 0);
                    flows.push(Flow {
                        src,
                        dst,
                        bytes: self.bytes,
                        start_ns: below(&mut rng, 5_000),
                    });
                    tenants.push(0);
                }
                for _ in heavy..self.flows {
                    let (src, dst) = self.pick_tenant_pair(&mut rng, 1);
                    flows.push(Flow {
                        src,
                        dst,
                        bytes: BACKGROUND_BYTES,
                        start_ns: below(&mut rng, self.spread_ns()),
                    });
                    tenants.push(1);
                }
            }
            ScenarioKind::Bursty => {
                // Four waves on a diurnal axis: two peak waves at full
                // payload, two off-peak at probe size, quiet gaps between.
                const WAVES: usize = 4;
                let period = (self.bytes * self.flows as u64 / WAVES as u64).max(100_000);
                for i in 0..self.flows {
                    let wave = i % WAVES;
                    let peak = wave == 1 || wave == 2;
                    let (src, dst) = self.pick_pair(&mut rng);
                    flows.push(Flow {
                        src,
                        dst,
                        bytes: if peak { self.bytes } else { BACKGROUND_BYTES },
                        start_ns: wave as u64 * period + below(&mut rng, 50_000),
                    });
                    tenants.push(0);
                }
            }
        }
        debug_assert!(flows
            .iter()
            .all(|f| f.src < self.nodes && f.dst < self.nodes && f.src != f.dst));
        (flows, tenants)
    }

    /// Only the flows of one tenant, in the same relative order as in
    /// [`flows_with_tenants`](Scenario::flows_with_tenants) — the solo
    /// run input for [`tenant_slowdown`].
    pub fn tenant_flows(&self, tenant: u8) -> Vec<Flow> {
        let (flows, tenants) = self.flows_with_tenants();
        flows
            .into_iter()
            .zip(tenants)
            .filter(|&(_, t)| t == tenant)
            .map(|(f, _)| f)
            .collect()
    }

    /// The scenario's communication graph: one
    /// [`add_message`](CommGraph::add_message) per generated flow, so
    /// HFAST provisioning sees the scenario's heavy pairs the same way
    /// it sees a profiled application's.
    pub fn comm_graph(&self) -> CommGraph {
        let mut g = CommGraph::new(self.nodes);
        for f in self.generate() {
            g.add_message(f.src, f.dst, f.bytes);
        }
        g
    }

    /// Injection window for background/spread traffic: roughly the time
    /// the foreground needs to serialize at 1 B/ns, so probes overlap
    /// the congested phase instead of arriving after it drains.
    fn spread_ns(&self) -> u64 {
        (self.flows as u64 * self.bytes / 2).max(10_000)
    }

    /// Appends one background probe per foreground flow: small payloads
    /// between non-hot pairs, spread across the congested window.
    fn background(
        &self,
        rng: &mut Rng64,
        avoid: Option<usize>,
        flows: &mut Vec<Flow>,
        tenants: &mut Vec<u8>,
    ) {
        if self.nodes < 4 {
            return; // too few bystanders to probe with
        }
        for _ in 0..self.flows {
            let (src, dst) = match avoid {
                Some(hot) => self.pick_pair_avoiding(rng, hot),
                None => self.pick_pair(rng),
            };
            flows.push(Flow {
                src,
                dst,
                bytes: BACKGROUND_BYTES,
                start_ns: below(rng, self.spread_ns()),
            });
            tenants.push(0);
        }
    }

    fn pick_not(&self, rng: &mut Rng64, avoid: usize) -> usize {
        let v = below(rng, self.nodes as u64 - 1) as usize;
        if v >= avoid {
            v + 1
        } else {
            v
        }
    }

    fn pick_pair(&self, rng: &mut Rng64) -> (usize, usize) {
        let src = below(rng, self.nodes as u64) as usize;
        (src, self.pick_not(rng, src))
    }

    fn pick_pair_avoiding(&self, rng: &mut Rng64, hot: usize) -> (usize, usize) {
        loop {
            let (src, dst) = self.pick_pair(rng);
            if src != hot && dst != hot {
                return (src, dst);
            }
        }
    }

    /// A distinct same-tenant pair (tenant 0 = even nodes, 1 = odd).
    fn pick_tenant_pair(&self, rng: &mut Rng64, tenant: u8) -> (usize, usize) {
        let pool = (self.nodes + 1 - tenant as usize) / 2;
        assert!(pool >= 2, "tenant {tenant} needs two nodes");
        let a = below(rng, pool as u64) as usize;
        let mut b = below(rng, pool as u64 - 1) as usize;
        if b >= a {
            b += 1;
        }
        (2 * a + tenant as usize, 2 * b + tenant as usize)
    }
}

/// Per-tenant interference summary: how much slower a tenant's traffic
/// ran sharing the fabric versus running alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSlowdown {
    /// Tenant id (matches the attribution vector).
    pub tenant: u8,
    /// Flows attributed to this tenant.
    pub flows: usize,
    /// p95 latency of the tenant's delivered flows in the shared run.
    pub shared_p95_ns: u64,
    /// p95 latency in the tenant's solo run (same flows, empty fabric).
    pub solo_p95_ns: u64,
    /// `shared_p95 / solo_p95` (1.0 when the solo run has no signal).
    pub slowdown: f64,
}

/// Computes per-tenant slowdowns from a shared run and per-tenant solo
/// runs. `tenants` attributes `shared[i]` to a tenant; `solos[t]` holds
/// the records of tenant `t`'s flows replayed alone, in the tenant-
/// relative order [`Scenario::tenant_flows`] emits.
pub fn tenant_slowdown(
    tenants: &[u8],
    shared: &[FlowRecord],
    solos: &[Vec<FlowRecord>],
) -> Vec<TenantSlowdown> {
    assert_eq!(tenants.len(), shared.len(), "one tenant per shared record");
    let p95 = |lat: &mut Vec<u64>| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        lat[((lat.len() as f64 - 1.0) * 0.95).round() as usize]
    };
    (0..solos.len() as u8)
        .map(|t| {
            let mut shared_lat: Vec<u64> = shared
                .iter()
                .zip(tenants)
                .filter(|&(_, &tt)| tt == t)
                .filter_map(|(r, _)| r.end_ns.map(|e| e - r.start_ns))
                .collect();
            let flows = tenants.iter().filter(|&&tt| tt == t).count();
            let mut solo_lat: Vec<u64> = solos[t as usize]
                .iter()
                .filter_map(|r| r.end_ns.map(|e| e - r.start_ns))
                .collect();
            let shared_p95 = p95(&mut shared_lat);
            let solo_p95 = p95(&mut solo_lat);
            TenantSlowdown {
                tenant: t,
                flows,
                shared_p95_ns: shared_p95,
                solo_p95_ns: solo_p95,
                slowdown: if solo_p95 == 0 {
                    1.0
                } else {
                    shared_p95 as f64 / solo_p95 as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(kind.to_string(), kind.as_str());
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for kind in ScenarioKind::ALL {
            let s = Scenario::preset(kind, 32, 42);
            assert_eq!(s.flows_with_tenants(), s.flows_with_tenants());
            let other = Scenario::preset(kind, 32, 43);
            assert_ne!(
                s.generate(),
                other.generate(),
                "{kind}: different seeds must differ"
            );
        }
    }

    #[test]
    fn endpoints_stay_in_range() {
        for kind in ScenarioKind::ALL {
            for seed in 0..8 {
                let s = Scenario::new(kind, 17, 40, 8192, seed);
                let (flows, tenants) = s.flows_with_tenants();
                assert_eq!(flows.len(), tenants.len());
                assert!(!flows.is_empty());
                for f in &flows {
                    assert!(f.src < 17 && f.dst < 17 && f.src != f.dst, "{kind}: {f:?}");
                }
            }
        }
    }

    #[test]
    fn fabric_validation_catches_small_fabrics() {
        let torus = crate::TorusFabric::new((2, 2, 2)).unwrap();
        let fits = Scenario::preset(ScenarioKind::Incast, 8, 1);
        assert!(fits.validate_for(&torus).is_ok());
        let too_big = Scenario::preset(ScenarioKind::Incast, 9, 1);
        assert_eq!(
            too_big.validate_for(&torus),
            Err(NetsimError::NodeOutOfRange { node: 8, nodes: 8 })
        );
    }

    #[test]
    fn incast_converges_on_one_destination() {
        let s = Scenario::preset(ScenarioKind::Incast, 16, 9);
        let flows = s.generate();
        let heavy: Vec<_> = flows.iter().filter(|f| f.bytes == s.bytes).collect();
        assert_eq!(heavy.len(), 15);
        let hot = heavy[0].dst;
        assert!(heavy.iter().all(|f| f.dst == hot), "one hot destination");
        // Background probes avoid the hot node entirely.
        assert!(flows
            .iter()
            .filter(|f| f.bytes == BACKGROUND_BYTES)
            .all(|f| f.src != hot && f.dst != hot));
    }

    #[test]
    fn permutation_is_a_rotation() {
        let s = Scenario::preset(ScenarioKind::Permutation, 12, 5);
        let flows = s.generate();
        assert_eq!(flows.len(), 12);
        let rot = (flows[0].dst + 12 - flows[0].src) % 12;
        assert!(rot > 0);
        for f in &flows {
            assert_eq!((f.src + rot) % 12, f.dst, "constant rotation");
        }
    }

    #[test]
    fn multi_tenant_partitions_by_parity() {
        let s = Scenario::preset(ScenarioKind::MultiTenant, 16, 3);
        let (flows, tenants) = s.flows_with_tenants();
        for (f, &t) in flows.iter().zip(&tenants) {
            assert_eq!(f.src % 2, t as usize, "src stays in its tenant");
            assert_eq!(f.dst % 2, t as usize, "dst stays in its tenant");
        }
        assert!(tenants.contains(&0) && tenants.contains(&1));
        // Tenant-relative extraction matches the combined list's order.
        let light = s.tenant_flows(1);
        let from_combined: Vec<_> = flows
            .iter()
            .zip(&tenants)
            .filter(|&(_, &t)| t == 1)
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(light, from_combined);
    }

    #[test]
    fn bursty_has_waves_and_gaps() {
        let s = Scenario::preset(ScenarioKind::Bursty, 16, 7);
        let flows = s.generate();
        let starts: std::collections::BTreeSet<u64> =
            flows.iter().map(|f| f.start_ns / 100_000).collect();
        assert!(starts.len() >= 2, "waves occupy distinct windows");
        assert!(flows.iter().any(|f| f.bytes == s.bytes), "peak payloads");
        assert!(
            flows.iter().any(|f| f.bytes == BACKGROUND_BYTES),
            "off-peak payloads"
        );
    }

    #[test]
    fn slowdown_report_compares_shared_vs_solo() {
        let mk = |end: u64| FlowRecord {
            flow: 0,
            start_ns: 0,
            end_ns: Some(end),
            hops: 1,
            retries: 0,
            abandoned: false,
        };
        let tenants = vec![0, 0, 1, 1];
        let shared = vec![mk(100), mk(200), mk(400), mk(400)];
        let solos = vec![vec![mk(100), mk(200)], vec![mk(100), mk(100)]];
        let report = tenant_slowdown(&tenants, &shared, &solos);
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].slowdown, 1.0, "bulk tenant unharmed");
        assert_eq!(report[1].shared_p95_ns, 400);
        assert_eq!(report[1].solo_p95_ns, 100);
        assert_eq!(report[1].slowdown, 4.0, "light tenant 4x slower shared");
    }
}
