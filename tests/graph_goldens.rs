//! Pins ahead of the sparse-store rewrite of `CommGraph`: `content_hash`
//! keys the serve cache and the fabric registry, and every
//! `Provisioning::digest` depends on the order `neighbors` yields peers in.
//! These constants were recorded on the dense `n × n` store; the sorted-row
//! store must reproduce every one of them.
//!
//! The per-cell profile digests pin what the IPM profiler records (call
//! entries, overflow, both volume matrices) so that a change to the
//! profiler's table or to the runtime's message matching shows here before
//! it reaches a graph.
//!
//! The complete-512 digests and the `circuits_changed` counts pin the
//! provisioning layer's bookkeeping on its densest input: the structure
//! built and rebuilt, the order the crossbar reports its circuits in, and
//! the two places that count circuits moved between two crossbars.
//!
//! The route and path digests pin what the provisioning layer answers
//! rather than how it stores it: `route` for every ordered pair, the
//! `HfastFabric` link ids a replay resolves, and the paths left by an
//! incremental `adapt`. The `optimize_clusters` digests pin the annealer's
//! random stream.
//!
//! The torus-2048 and crowded-cluster pins reach what complete-512 cannot:
//! `PaperLinear`'s incremental path growing, shrinking and reusing chains,
//! and shared chains whose attachments crowd them, so that the
//! nearest-free-port tie rule and `patch_chain`'s fallback both decide
//! where ports land.

use hfast::apps::{all_apps, profile_app, STUDY_SIZES};
use hfast::core::{
    cluster_nodes, hfast_fault_impact, optimize_clusters, seeded_failures, Clustered, Endpoint,
    GraphDelta, PaperLinear, ProvisionConfig, Provisioner, Provisioning, Strategy,
};
use hfast::ipm::CommProfile;
use hfast::netsim::{AdaptiveReplay, Fabric, HfastFabric, Scenario, ScenarioKind};
use hfast::topology::generators::{
    balanced_dims3, complete_graph, hypercube_graph, mesh3d_graph, ring_graph, torus3d_graph,
};
use hfast::topology::{CommGraph, EdgeStat};
use hfast_par::Rng64;

/// Compares a computed `(label, value)` table with its golden, printing
/// the whole computed table on a mismatch so a deliberate change can be
/// re-recorded in one go.
fn check(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let same = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|((gl, gv), (l, v))| gl == l && gv == v);
    if !same {
        for (label, value) in got {
            eprintln!("    (\"{label}\", {value:#018x}),");
        }
        panic!("{what}: computed table (above) differs from the golden");
    }
}

/// `(app P=procs, comm_graph hash)` then `(app P=procs wire, wire_graph
/// hash)` for each app and study size.
const APP_HASHES: &[(&str, u64)] = &[
    ("Cactus P=64", 0xe9ec50c8a47ca405),
    ("Cactus P=64 wire", 0xb1834c6cdb41bb49),
    ("Cactus P=256", 0x86be894ba0e4c2ea),
    ("Cactus P=256 wire", 0xe862642fbe77bac6),
    ("LBMHD P=64", 0x100bfb56eb69eb45),
    ("LBMHD P=64 wire", 0xc67925492b8dd307),
    ("LBMHD P=256", 0xe428fff403fb2eaa),
    ("LBMHD P=256 wire", 0xac6f798540d0edb0),
    ("GTC P=64", 0x6d4075a2470f0105),
    ("GTC P=64 wire", 0x6e3a774144deff5d),
    ("GTC P=256", 0x37a0896d429c0b2a),
    ("GTC P=256 wire", 0x6f4969e1bc082a82),
    ("SuperLU P=64", 0x3e24fd3319b9d685),
    ("SuperLU P=64 wire", 0xf1d785276e271859),
    ("SuperLU P=256", 0xc44c14a1f1f0e0ea),
    ("SuperLU P=256 wire", 0x34f03996cbb601ca),
    ("PMEMD P=64", 0x40dc63a518fceab1),
    ("PMEMD P=64 wire", 0xaeedc63feeeef4c9),
    ("PMEMD P=256", 0x1cd8b963f9f00d99),
    ("PMEMD P=256 wire", 0x3e575d872bbfa549),
    ("PARATEC P=64", 0x59db484e32a72d45),
    ("PARATEC P=64 wire", 0xeb965717fb0aa58f),
    ("PARATEC P=256", 0x68e24481721da36a),
    ("PARATEC P=256 wire", 0x5226dd4f34732010),
];

/// `(app P=procs steady|merged, profile_digest)` for each app and study
/// size: what the profiler itself recorded, before any graph is built.
/// Only SuperLU has traffic outside its `"steady"` region.
const APP_PROFILE_DIGESTS: &[(&str, u64)] = &[
    ("Cactus P=64 steady", 0x1d13aae2354044fc),
    ("Cactus P=64 merged", 0x1d13aae2354044fc),
    ("Cactus P=256 steady", 0x38b45d14ab683077),
    ("Cactus P=256 merged", 0x38b45d14ab683077),
    ("LBMHD P=64 steady", 0x39550d96a1639b3e),
    ("LBMHD P=64 merged", 0x39550d96a1639b3e),
    ("LBMHD P=256 steady", 0x13146bbb44ed9362),
    ("LBMHD P=256 merged", 0x13146bbb44ed9362),
    ("GTC P=64 steady", 0x30dfe2161dbc63e3),
    ("GTC P=64 merged", 0x30dfe2161dbc63e3),
    ("GTC P=256 steady", 0xe8241ec39bf02a24),
    ("GTC P=256 merged", 0xe8241ec39bf02a24),
    ("SuperLU P=64 steady", 0xbf0f40c020a0c206),
    ("SuperLU P=64 merged", 0x9d909b635fae4832),
    ("SuperLU P=256 steady", 0xd1ff2d543f6c3903),
    ("SuperLU P=256 merged", 0xb5d192a0764cd745),
    ("PMEMD P=64 steady", 0xd6af4c9eb8a2744d),
    ("PMEMD P=64 merged", 0xd6af4c9eb8a2744d),
    ("PMEMD P=256 steady", 0x324fefb7ea9cbfac),
    ("PMEMD P=256 merged", 0x324fefb7ea9cbfac),
    ("PARATEC P=64 steady", 0xf67bd8bfb833fd02),
    ("PARATEC P=64 merged", 0xf67bd8bfb833fd02),
    ("PARATEC P=256 steady", 0xd34cdb8617d19edc),
    ("PARATEC P=256 merged", 0xd34cdb8617d19edc),
];

/// FNV-1a over the schedule-independent content of a profile: its size,
/// `overflow`, every entry's (kind, bytes, count) and every directed pair
/// of both volumes, hashed as the cells of a row-major `size × size`
/// matrix. The `*_ns` fields are wall-clock and left out.
fn profile_digest(p: &CommProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    put(p.size as u64);
    put(p.overflow);
    for e in &p.entries {
        for byte in e.kind.mpi_name().bytes() {
            put(u64::from(byte));
        }
        put(e.bytes);
        put(e.stats.count);
    }
    let n = p.size as u64;
    for volume in [&p.api_volume, &p.wire_volume] {
        // The words the row-major `size × size` matrices hashed.
        put(n * n);
        for &(src, dst, stat) in volume {
            put(src as u64 * n + dst as u64);
            put(stat.bytes);
            put(stat.count);
            put(stat.max_msg);
        }
    }
    h
}

#[test]
fn app_graph_content_hashes() {
    let mut got = Vec::new();
    let mut digests = Vec::new();
    for app in &all_apps() {
        for procs in STUDY_SIZES {
            let outcome = profile_app(app.as_ref(), procs).expect("profiles");
            let steady = &outcome.steady;
            let name = app.name();
            got.push((
                format!("{name} P={procs}"),
                steady.comm_graph().content_hash(),
            ));
            got.push((
                format!("{name} P={procs} wire"),
                steady.wire_graph().content_hash(),
            ));
            digests.push((format!("{name} P={procs} steady"), profile_digest(steady)));
            digests.push((
                format!("{name} P={procs} merged"),
                profile_digest(&outcome.merged),
            ));
        }
    }
    check("app content_hash", &got, APP_HASHES);
    check("app profile digest", &digests, APP_PROFILE_DIGESTS);
}

fn regular_graphs() -> Vec<(&'static str, CommGraph)> {
    vec![
        ("torus", torus3d_graph((4, 4, 4), 300 << 10)),
        ("mesh", mesh3d_graph((4, 4, 4), 300 << 10)),
        ("hypercube", hypercube_graph(64, 300 << 10)),
        ("complete", complete_graph(64, 300 << 10)),
    ]
}

const GENERATOR_HASHES: &[(&str, u64)] = &[
    ("torus", 0x6a8f02532af28885),
    ("mesh", 0x22f83b91bae118a5),
    ("hypercube", 0x5636d21cbb75e285),
    ("complete", 0x376e8e6f64021005),
    ("ring", 0xa2f3c6b11725058d),
    ("torus 2x3x5", 0x643a75f32140f1fb),
];

#[test]
fn generator_content_hashes() {
    let mut got: Vec<(String, u64)> = regular_graphs()
        .into_iter()
        .map(|(name, g)| (name.to_string(), g.content_hash()))
        .collect();
    // The ring wraps: its last message inserts peer 0 ahead of the tail.
    got.push(("ring".into(), ring_graph(64, 1000).content_hash()));
    got.push((
        "torus 2x3x5".into(),
        torus3d_graph((2, 3, 5), 77).content_hash(),
    ));
    check("generator content_hash", &got, GENERATOR_HASHES);
}

const SCENARIO_HASHES: &[(&str, u64)] = &[
    ("incast", 0xdc9270a87f340f75),
    ("permutation", 0x1c2346375e2646e5),
    ("hotspot", 0x87e6d50da21bd287),
    ("multi_tenant", 0xa207cbfee4990f3f),
    ("bursty", 0xb60c642e33b2bc40),
];

#[test]
fn scenario_content_hashes() {
    let got: Vec<(String, u64)> = ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let g = Scenario::preset(kind, 64, 4242).comm_graph();
            (kind.as_str().to_string(), g.content_hash())
        })
        .collect();
    check("scenario content_hash", &got, SCENARIO_HASHES);
}

fn stat(bytes: u64, count: u64, max_msg: u64) -> EdgeStat {
    EdgeStat {
        bytes,
        count,
        max_msg,
    }
}

/// Both orientations of a pair, a self edge, a duplicate, a `count == 0`
/// stat that still carries bytes, an all-zero stat, and peers out of order.
fn oddities() -> CommGraph {
    CommGraph::from_directed(
        8,
        vec![
            (5, 2, stat(100, 1, 100)),
            (2, 5, stat(300, 2, 200)),
            (3, 3, stat(64, 1, 64)),
            (7, 0, stat(4096, 1, 4096)),
            (7, 0, stat(4096, 1, 4096)),
            (1, 6, stat(999, 0, 999)),
            (4, 6, stat(0, 0, 0)),
            (7, 1, stat(10, 1, 10)),
            (0, 1, stat(20, 2, 10)),
        ],
    )
}

const ODDITIES_HASH: u64 = 0x5e18167e58ab29f0;

#[test]
fn from_directed_oddities() {
    let g = oddities();
    assert_eq!(
        g.content_hash(),
        ODDITIES_HASH,
        "{:#018x}",
        g.content_hash()
    );
    assert_eq!(*g.edge(2, 5), stat(400, 3, 200));
    assert_eq!(*g.edge(5, 2), stat(400, 3, 200));
    assert_eq!(*g.edge(3, 3), stat(64, 1, 64), "the self entry merges once");
    assert_eq!(*g.edge(0, 7), stat(8192, 2, 4096));
    // An inactive stat with bytes is stored and counted in the total, but
    // is no neighbour and no edge; an all-zero stat leaves no trace.
    assert_eq!(*g.edge(6, 1), stat(999, 0, 999));
    assert_eq!(*g.edge(4, 6), EdgeStat::default());
    assert_eq!(g.total_bytes(), 400 + 64 + 8192 + 999 + 10 + 20);
    assert_eq!(g.edge_count(), 4);
    assert_eq!(g.edge_count_thresholded(200), 2);
    let peers = |v| g.neighbors(v).map(|(u, _)| u).collect::<Vec<_>>();
    assert_eq!(peers(1), vec![0, 7]);
    assert_eq!(peers(6), Vec::<usize>::new());
    assert_eq!(peers(3), Vec::<usize>::new());
    assert_eq!(peers(7), vec![0, 1]);
    let mut with_zero = oddities();
    assert_eq!(with_zero, g);
    with_zero.add_message(4, 6, 0);
    assert_ne!(with_zero, g);
}

/// `Provisioning::digest` per (topology, strategy) at P = 64, default
/// config.
const DIGESTS: &[(&str, u64)] = &[
    ("torus paper_linear", 0x016fa76db298211d),
    ("torus bff_circuit", 0xe9ae38bf95df0d5d),
    ("torus demand_decomp", 0x36decb2dc4f8f17d),
    ("mesh paper_linear", 0x7c73906c2ec77bdd),
    ("mesh bff_circuit", 0xd586f38265df1c9d),
    ("mesh demand_decomp", 0x1b9f089a62ddd82d),
    ("hypercube paper_linear", 0x9a02117e3be16d9d),
    ("hypercube bff_circuit", 0xbf903deed74f78fd),
    ("hypercube demand_decomp", 0xa6315819d53e6dbd),
    ("complete paper_linear", 0x70d56ff85bbe06f6),
    ("complete bff_circuit", 0x776dba40c74d63a1),
    ("complete demand_decomp", 0xb4737f32b5535a35),
];

/// Complete-512 (130,816 circuits' worth of demand) per strategy: the
/// `provision` digest, an FNV-1a digest of its `circuit.circuits()`
/// sequence, and the digest after `reprovision` on [`grow_one_percent`].
const COMPLETE_512_DIGESTS: &[(&str, u64)] = &[
    ("complete-512 paper_linear", 0xaed4e7b99162de45),
    ("complete-512 paper_linear circuits", 0x694cc2177aef6625),
    ("complete-512 paper_linear reprovision", 0xaed4e7b99162de45),
    ("complete-512 bff_circuit", 0xafb07707d49bf388),
    ("complete-512 bff_circuit circuits", 0x21ae585cd2ba79b5),
    ("complete-512 bff_circuit reprovision", 0x4b52d978c9e489c4),
    ("complete-512 demand_decomp", 0xfbfc96f9b7ef9a30),
    ("complete-512 demand_decomp circuits", 0x023f9654f3886b2d),
    ("complete-512 demand_decomp reprovision", 0x888e73857aace120),
];

/// Adds one more 1 MiB message on `edge_count / 100` seeded pairs — on a
/// complete graph every pair already exists, so only weights move — and
/// notes each in the delta.
fn grow_one_percent(graph: &mut CommGraph, seed: u64) -> GraphDelta {
    let mut rng = Rng64::new(seed);
    let n = graph.n();
    let mut delta = GraphDelta::new();
    for _ in 0..graph.edge_count() / 100 {
        let (a, b) = (rng.range(0, n), rng.range(0, n));
        if a != b {
            graph.add_message(a, b, 1 << 20);
            delta.note(a, b, *graph.edge(a, b));
        }
    }
    delta
}

/// FNV-1a over the crossbar's circuits in the order `circuits()` yields
/// them: ascending lower end, nodes before block ports.
fn circuits_digest(prov: &Provisioning) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (a, b) in prov.circuit().circuits() {
        for e in [a, b] {
            match e {
                Endpoint::Node(v) => put(v as u64),
                Endpoint::BlockPort { block, port } => {
                    put(1 << 63 | block as u64);
                    put(port as u64);
                }
            }
        }
    }
    h
}

#[test]
fn provisioning_digests() {
    let mut got = Vec::new();
    for (name, g) in regular_graphs() {
        for strategy in Strategy::ALL {
            let prov = strategy
                .provisioner()
                .provision(&g, ProvisionConfig::default());
            prov.validate(&g).expect("valid");
            got.push((format!("{name} {strategy}"), prov.digest()));
        }
    }
    check("provisioning digest", &got, DIGESTS);

    let mut got = Vec::new();
    for strategy in Strategy::ALL {
        let mut g = complete_graph(512, 300 << 10);
        let provisioner = strategy.provisioner();
        let prov = provisioner.provision(&g, ProvisionConfig::default());
        prov.validate(&g).expect("valid");
        got.push((format!("complete-512 {strategy}"), prov.digest()));
        got.push((
            format!("complete-512 {strategy} circuits"),
            circuits_digest(&prov),
        ));
        let delta = grow_one_percent(&mut g, 0x5eed_0512);
        let grown = provisioner.reprovision(prov, &g, &delta).provisioning;
        grown.validate(&g).expect("valid after reprovision");
        got.push((
            format!("complete-512 {strategy} reprovision"),
            grown.digest(),
        ));
    }
    check("complete-512 digest", &got, COMPLETE_512_DIGESTS);
}

/// `circuits_changed` of a full-rebuild adaptation step and of a fault
/// re-provisioning: each is a symmetric difference of two crossbars.
const CIRCUITS_CHANGED: &[(&str, u64)] = &[
    ("bff_circuit mesh -> hypercube-64 step", 272),
    ("torus-64 four failures", 384),
];

#[test]
fn circuits_changed_counts() {
    let config = ProvisionConfig::default();
    let mut replay = AdaptiveReplay::builder(64, config)
        .strategy(Strategy::BffCircuit)
        .initial_graph(&mesh3d_graph(balanced_dims3(64), config.cutoff))
        .build();
    let step = replay.adapt(&hypercube_graph(64, 300 << 10));
    let fault = hfast_fault_impact(
        &torus3d_graph((4, 4, 4), 300 << 10),
        ProvisionConfig::default(),
        &seeded_failures(4, 64, 29),
    );
    let got = vec![
        (
            "bff_circuit mesh -> hypercube-64 step".to_string(),
            step.circuits_changed as u64,
        ),
        (
            "torus-64 four failures".to_string(),
            fault.circuits_changed as u64,
        ),
    ];
    check("circuits_changed", &got, CIRCUITS_CHANGED);
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `route(a, b)` over every ordered pair of `0..n`: `u64::MAX` for `None`,
/// else its circuit traversals and switch hops.
fn route_digest(prov: &Provisioning, n: usize) -> u64 {
    let mut words = Vec::new();
    for a in 0..n {
        for b in 0..n {
            match prov.route(a, b) {
                None => words.push(u64::MAX),
                Some(r) => words.extend([r.circuit_traversals as u64, r.switch_hops as u64]),
            }
        }
    }
    fnv(words)
}

/// `path(a, b)` over every ordered pair: `u64::MAX` for `None`, else its
/// length and link ids.
fn path_digest(fabric: &dyn Fabric) -> u64 {
    let n = fabric.nodes();
    let mut words = Vec::new();
    for a in 0..n {
        for b in 0..n {
            match fabric.path(a, b) {
                None => words.push(u64::MAX),
                Some(p) => {
                    words.push(p.len() as u64);
                    words.extend(p.iter().map(|&l| l as u64));
                }
            }
        }
    }
    fnv(words)
}

/// Route and `HfastFabric` path digests per (topology, strategy) at
/// P = 64; the route digest of complete-512 `paper_linear` after
/// [`grow_one_percent`]; and the paths of a ring-16 fabric after an
/// incremental `adapt` adds the chord 3–11.
const ROUTE_DIGESTS: &[(&str, u64)] = &[
    ("torus paper_linear routes", 0x342a438a85f28b25),
    ("torus paper_linear paths", 0x01695d865de6c135),
    ("torus bff_circuit routes", 0x763a64b3ff2eb525),
    ("torus bff_circuit paths", 0x1fed398e8706271d),
    ("torus demand_decomp routes", 0x7814c417d2a75125),
    ("torus demand_decomp paths", 0x3670cb686d12713d),
    ("mesh paper_linear routes", 0x6c0c3833b99e2725),
    ("mesh paper_linear paths", 0xd04a468b4164fba5),
    ("mesh bff_circuit routes", 0xd7c0778782c2bf25),
    ("mesh bff_circuit paths", 0x004a2f2f2f872e81),
    ("mesh demand_decomp routes", 0x0b5aeef97deb7725),
    ("mesh demand_decomp paths", 0xbfbe99bf1d1221fd),
    ("hypercube paper_linear routes", 0xf75da743475d1f25),
    ("hypercube paper_linear paths", 0xd69dce7ae7de6bfd),
    ("hypercube bff_circuit routes", 0xfe870d5d0bf8ad25),
    ("hypercube bff_circuit paths", 0x25f948f6a06a61f1),
    ("hypercube demand_decomp routes", 0xadbd31964f82d125),
    ("hypercube demand_decomp paths", 0x4a65321920023e9d),
    ("complete paper_linear routes", 0x818d44415617dbb5),
    ("complete paper_linear paths", 0x840e6f5e4094dc79),
    ("complete bff_circuit routes", 0xa886f7590a9516d5),
    ("complete bff_circuit paths", 0x86fceca07efafeb5),
    ("complete demand_decomp routes", 0xaba71355d44871e5),
    ("complete demand_decomp paths", 0x214848f8122f0125),
    (
        "complete-512 paper_linear reprovision routes",
        0x6fc19daf7626aab5,
    ),
    ("ring-16 adapt chord 3-11 paths", 0x530b6c56bca88b04),
];

#[test]
fn route_and_path_digests() {
    let config = ProvisionConfig::default();
    let mut got = Vec::new();
    for (name, g) in regular_graphs() {
        for strategy in Strategy::ALL {
            let prov = strategy.provisioner().provision(&g, config);
            got.push((
                format!("{name} {strategy} routes"),
                route_digest(&prov, g.n()),
            ));
            got.push((
                format!("{name} {strategy} paths"),
                path_digest(&HfastFabric::new(prov)),
            ));
        }
    }

    let mut g = complete_graph(512, 300 << 10);
    let prov = PaperLinear.provision(&g, config);
    let delta = grow_one_percent(&mut g, 0x5eed_0512);
    let grown = PaperLinear.reprovision(prov, &g, &delta).provisioning;
    got.push((
        "complete-512 paper_linear reprovision routes".into(),
        route_digest(&grown, 512),
    ));

    let before = ring_graph(16, 1 << 20);
    let mut after = before.clone();
    after.add_message(3, 11, 1 << 20);
    let mut fabric = HfastFabric::provisioned(&before, config, Strategy::PaperLinear);
    let delta = GraphDelta::diff(&before, &after);
    let out = PaperLinear.reprovision(fabric.provisioning().clone(), &after, &delta);
    assert!(!out.full_rebuild, "one chord stays incremental");
    fabric.adapt(&out);
    got.push((
        "ring-16 adapt chord 3-11 paths".into(),
        path_digest(&fabric),
    ));
    check("route and path digest", &got, ROUTE_DIGESTS);
}

/// `optimize_clusters` outcomes: initial and final blocks, accepted moves
/// and the refined clustering, for three seeds and starting points.
const ANNEAL_DIGESTS: &[(&str, u64)] = &[
    ("torus-32 singletons seed 1", 0x707dd9905289fb3d),
    ("hypercube-64 singletons seed 7", 0x3ed278f299383865),
    ("complete-16 greedy seed 3", 0x13a65a8c795df75f),
];

#[test]
fn anneal_digests() {
    let config = ProvisionConfig::default();
    let singletons = |n: usize| (0..n).map(|v| vec![v]).collect::<Vec<_>>();
    let complete = complete_graph(16, 1 << 20);
    let cases = [
        (
            "torus-32 singletons seed 1",
            torus3d_graph((4, 4, 2), 1 << 20),
            singletons(32),
            1,
        ),
        (
            "hypercube-64 singletons seed 7",
            hypercube_graph(64, 1 << 20),
            singletons(64),
            7,
        ),
        (
            "complete-16 greedy seed 3",
            complete.clone(),
            cluster_nodes(&complete, &config),
            3,
        ),
    ];
    let got: Vec<(String, u64)> = cases
        .into_iter()
        .map(|(name, g, initial, seed)| {
            let out = optimize_clusters(&g, &config, initial, 2000, seed);
            let mut words = vec![
                out.initial_blocks as u64,
                out.final_blocks as u64,
                out.accepted_moves as u64,
            ];
            for c in &out.clusters {
                words.push(c.len() as u64);
                words.extend(c.iter().map(|&v| v as u64));
            }
            (name.to_string(), fnv(words))
        })
        .collect();
    check("optimize_clusters digest", &got, ANNEAL_DIGESTS);
}

/// `PaperLinear`'s incremental `reprovision` on torus-2048 over three
/// deltas, each step's `(digest, circuits digest, edges touched, blocks,
/// routes)`: a 1 % random-pair delta that loads two hubs past one block,
/// a fresh window that drops those chords below the cutoff (the hub
/// chains shrink and park spare blocks), and a delta growing three other
/// hubs to three blocks (reusing the spares). The routes word is
/// [`route_digest`]'s fold over every touched pair and every pair from a
/// hub of the run.
const TORUS_2048_REPROVISION: &[(&str, u64)] = &[
    ("torus-2048 grow", 0x35e4813405d97b1b),
    ("torus-2048 grow circuits", 0xe24aedd0027d6a11),
    ("torus-2048 grow edges touched", 571),
    ("torus-2048 grow blocks", 2050),
    ("torus-2048 grow routes", 0xd2e703aa593f653d),
    ("torus-2048 drop", 0x38d4c1039628261a),
    ("torus-2048 drop circuits", 0x5892a1c1d6ee5f85),
    ("torus-2048 drop edges touched", 571),
    ("torus-2048 drop blocks", 2048),
    ("torus-2048 drop routes", 0x34208394e648778d),
    ("torus-2048 regrow", 0xb11d4a3dabde6bb9),
    ("torus-2048 regrow circuits", 0xed637bc2c4a390fe),
    ("torus-2048 regrow edges touched", 510),
    ("torus-2048 regrow blocks", 2054),
    ("torus-2048 regrow routes", 0x51811ae89cbc0d45),
];

#[test]
fn torus_2048_incremental_reprovision_steps() {
    const MSG: u64 = 300 << 10;
    let config = ProvisionConfig::default();
    let torus = torus3d_graph(balanced_dims3(2048), MSG);
    let n = torus.n();
    let mut rng = Rng64::new(0x2048_0035);
    let first_hubs = [rng.range(0, n), rng.range(0, n)];
    let other_hubs = [rng.range(0, n), rng.range(0, n), rng.range(0, n)];
    let hubs: Vec<usize> = first_hubs.iter().chain(&other_hubs).copied().collect();

    // Step 1: 1 % as many seeded pairs as there are edges, half of them
    // leaving one of the first two hubs.
    let mut grown = torus.clone();
    let mut delta = GraphDelta::new();
    let mut chords = Vec::new();
    for _ in 0..torus.edge_count() / 100 {
        let a = if rng.bool(0.5) {
            *rng.pick(&first_hubs)
        } else {
            rng.range(0, n)
        };
        let b = rng.range(0, n);
        if a != b {
            grown.add_message(a, b, 1 << 20);
            delta.note(a, b, *grown.edge(a, b));
            chords.push((a, b));
        }
    }
    // Step 2: a fresh window in which those chords carry only small
    // messages.
    let mut dropped = torus.clone();
    for &(a, b) in &chords {
        dropped.add_message(a, b, 64);
    }
    let drop_delta = GraphDelta::diff(&grown, &dropped);
    // Step 3: three other hubs take 25 new partners each.
    let mut regrown = dropped.clone();
    let mut regrow_delta = GraphDelta::new();
    for &hub in &other_hubs {
        for _ in 0..25 {
            let b = rng.range(0, n);
            if b != hub {
                regrown.add_message(hub, b, 1 << 20);
                regrow_delta.note(hub, b, *regrown.edge(hub, b));
            }
        }
    }

    let mut prov = PaperLinear.provision(&torus, config);
    let mut got = Vec::new();
    let steps = [
        ("grow", &grown, &delta),
        ("drop", &dropped, &drop_delta),
        ("regrow", &regrown, &regrow_delta),
    ];
    for (step, graph, delta) in steps {
        let out = PaperLinear.reprovision(prov, graph, delta);
        assert!(!out.full_rebuild, "{step} stays incremental");
        out.provisioning
            .validate(graph)
            .unwrap_or_else(|e| panic!("{step}: {e}"));
        let p = &out.provisioning;
        let mut words = Vec::new();
        let pairs = out
            .touched_pairs
            .iter()
            .copied()
            .chain(hubs.iter().flat_map(|&a| (0..n).map(move |b| (a, b))));
        for (a, b) in pairs {
            match p.route(a, b) {
                None => words.push(u64::MAX),
                Some(r) => words.extend([r.circuit_traversals as u64, r.switch_hops as u64]),
            }
        }
        got.push((format!("torus-2048 {step}"), p.digest()));
        got.push((format!("torus-2048 {step} circuits"), circuits_digest(p)));
        got.push((
            format!("torus-2048 {step} edges touched"),
            out.edges_touched as u64,
        ));
        got.push((format!("torus-2048 {step} blocks"), p.total_blocks() as u64));
        got.push((format!("torus-2048 {step} routes"), fnv(words)));
        prov = out.provisioning;
    }
    check("torus-2048 reprovision", &got, TORUS_2048_REPROVISION);
}

/// A seeded clustering of `0..n`: about a fifth of the nodes offline, the
/// rest in clusters of 3 to 8 members in shuffled order.
fn crowded_clustering(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng64::new(seed);
    let mut nodes: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut nodes);
    let mut rest = &nodes[..n - n / 5];
    let mut clusters = Vec::new();
    while !rest.is_empty() {
        let k = rng.range(3, 9).min(rest.len());
        clusters.push(rest[..k].to_vec());
        rest = &rest[k..];
    }
    clusters
}

/// 96 nodes, 400 seeded pairs of mixed message sizes: some pairs stay
/// below the cutoff, some repeat.
fn mixed_random_graph() -> CommGraph {
    let mut rng = Rng64::new(0x96_0035);
    let mut g = CommGraph::new(96);
    for _ in 0..400 {
        let (a, b) = (rng.range(0, 96), rng.range(0, 96));
        if a != b {
            g.add_message(a, b, *rng.pick(&[64, 4 << 10, 1 << 20]));
        }
    }
    g
}

/// `Clustered` provisionings whose attachments crowd their chains: the
/// `(digest, circuits digest, route digest)` per (graph, block ports,
/// clustering seed).
const CROWDED_CLUSTER_DIGESTS: &[(&str, u64)] = &[
    ("torus k=4 seed 1", 0xbf2b3bd73789b606),
    ("torus k=4 seed 1 circuits", 0x6e0384181acd47bf),
    ("torus k=4 seed 1 routes", 0x496527ba3f13eca5),
    ("torus k=4 seed 2", 0xb8ae48af6560a8e3),
    ("torus k=4 seed 2 circuits", 0xf3adcbcf33eda356),
    ("torus k=4 seed 2 routes", 0xa5c6aa9e5f2c4f15),
    ("torus k=16 seed 1", 0x7f43998a99e69d24),
    ("torus k=16 seed 1 circuits", 0x10220dd188179879),
    ("torus k=16 seed 1 routes", 0x4367bf603a70b595),
    ("torus k=16 seed 2", 0xfb05d53a0157dd68),
    ("torus k=16 seed 2 circuits", 0x62da3aa482114aa0),
    ("torus k=16 seed 2 routes", 0xaa07eed8403d3185),
    ("mesh k=4 seed 1", 0xadbe6eab381bb8d2),
    ("mesh k=4 seed 1 circuits", 0x03f1ac752e6bbb02),
    ("mesh k=4 seed 1 routes", 0x9dc58e87646c5455),
    ("mesh k=4 seed 2", 0x4f20abd4cb48526f),
    ("mesh k=4 seed 2 circuits", 0x457ff212313edb73),
    ("mesh k=4 seed 2 routes", 0xf34c6ec77e0632e5),
    ("mesh k=16 seed 1", 0xd1adcb5a5004e3c5),
    ("mesh k=16 seed 1 circuits", 0xfc4651bb0cb79409),
    ("mesh k=16 seed 1 routes", 0x9637d3fcb39a69e5),
    ("mesh k=16 seed 2", 0x99e8bbb12dc56d93),
    ("mesh k=16 seed 2 circuits", 0xcda190c580e015a9),
    ("mesh k=16 seed 2 routes", 0x7d953c8bb12685f5),
    ("hypercube k=4 seed 1", 0x9f07da52cdb244c7),
    ("hypercube k=4 seed 1 circuits", 0xb394fffb8d12aff0),
    ("hypercube k=4 seed 1 routes", 0x8f125585486319d5),
    ("hypercube k=4 seed 2", 0xfe690e25fb5e5b91),
    ("hypercube k=4 seed 2 circuits", 0x50377f65d7b99949),
    ("hypercube k=4 seed 2 routes", 0xab65ebdea2173715),
    ("hypercube k=16 seed 1", 0x827842d57bac2a24),
    ("hypercube k=16 seed 1 circuits", 0x1bd8f5bb30e4eca5),
    ("hypercube k=16 seed 1 routes", 0x549f727ebc9c8b85),
    ("hypercube k=16 seed 2", 0xa20b673b6a093cea),
    ("hypercube k=16 seed 2 circuits", 0x205faf8ca9adddf2),
    ("hypercube k=16 seed 2 routes", 0x375bffefb2609d05),
    ("complete k=4 seed 1", 0x0727448df269fb94),
    ("complete k=4 seed 1 circuits", 0x2fc4b15000a025b9),
    ("complete k=4 seed 1 routes", 0x1b1fa2ee0635e4b5),
    ("complete k=4 seed 2", 0x48c583b761d6bd3d),
    ("complete k=4 seed 2 circuits", 0x10d78a061daae902),
    ("complete k=4 seed 2 routes", 0xea73cf0cf61ce8a5),
    ("complete k=16 seed 1", 0x4d39a55693007b5d),
    ("complete k=16 seed 1 circuits", 0xf37cb93f2e0372a1),
    ("complete k=16 seed 1 routes", 0x791d24ebc14d9365),
    ("complete k=16 seed 2", 0x833e43647eb5822e),
    ("complete k=16 seed 2 circuits", 0xb3578071bf10ce5b),
    ("complete k=16 seed 2 routes", 0xaf81ab90cb78f4d5),
    ("mixed-96 k=4 seed 1", 0xdd2e98e8f9b3fd9e),
    ("mixed-96 k=4 seed 1 circuits", 0xf832e9ab9968df70),
    ("mixed-96 k=4 seed 1 routes", 0x40e7b700d6f9a7e5),
    ("mixed-96 k=4 seed 2", 0x5f106dba4ce6b578),
    ("mixed-96 k=4 seed 2 circuits", 0xc4fedceeb0cf9142),
    ("mixed-96 k=4 seed 2 routes", 0x9cce5e1e8b71ffd5),
    ("mixed-96 k=16 seed 1", 0x601c752313c15aad),
    ("mixed-96 k=16 seed 1 circuits", 0x692767206ae9bdd2),
    ("mixed-96 k=16 seed 1 routes", 0x36deb3fcd5a23b65),
    ("mixed-96 k=16 seed 2", 0x18e3e6a3d178436b),
    ("mixed-96 k=16 seed 2 circuits", 0xf5987a021a623ec4),
    ("mixed-96 k=16 seed 2 routes", 0x4d060af756a46d85),
];

#[test]
fn crowded_clustered_digests() {
    let mut graphs = regular_graphs();
    graphs.push(("mixed-96", mixed_random_graph()));
    let mut got = Vec::new();
    for (name, g) in &graphs {
        for block_ports in [4, 16] {
            for seed in [1, 2] {
                let config = ProvisionConfig {
                    block_ports,
                    ..ProvisionConfig::default()
                };
                let clusters = crowded_clustering(g.n(), seed);
                let prov = Clustered::new(clusters).provision(g, config);
                prov.validate(g)
                    .unwrap_or_else(|e| panic!("{name} k={block_ports} seed {seed}: {e}"));
                let label = format!("{name} k={block_ports} seed {seed}");
                got.push((label.clone(), prov.digest()));
                got.push((format!("{label} circuits"), circuits_digest(&prov)));
                got.push((format!("{label} routes"), route_digest(&prov, g.n())));
            }
        }
    }
    check("crowded clustered digest", &got, CROWDED_CLUSTER_DIGESTS);
}
