//! Byte pins of faulted `simulate` answers.
//!
//! A faulted run draws its failed links from the transit links of the
//! app's traffic, so a change to how that set is found (or to when the
//! fabric entry's routes are warmed) moves these bytes unless it keeps
//! the set exactly. Each pin is the FNV-1a of the v1-encoded `execute`
//! responses of one (app, fabric) cell over every [`FaultSpec`] below, in
//! order, all answered by one registry as a daemon would answer them: the
//! first request on a fabric entry warms its routes, the later ones reuse
//! them.

use hfast_serve::{encode_response, execute, AppSpec, FabricSpec, FaultSpec, Registry, Request};

const APPS: [&str; 6] = ["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"];
const PROCS: usize = 64;
const CUTOFF: u64 = 2048;

/// Fat tree with 4-port switches (several levels at 64 nodes, so transit
/// links exist), a 4×4×4 torus, and the app's provisioned HFAST fabric.
const FABRICS: [FabricSpec; 3] = [
    FabricSpec::FatTree { ports: 4 },
    FabricSpec::Torus { dims: (4, 4, 4) },
    FabricSpec::Hfast,
];

/// Outages that recover and outages that do not, at several counts.
const FAULTS: [FaultSpec; 3] = [
    FaultSpec {
        seed: 7,
        count: 2,
        window: (0, 20_000),
        downtime_ns: Some(10_000),
    },
    FaultSpec {
        seed: 0x5C05,
        count: 5,
        window: (0, 50_000),
        downtime_ns: None,
    },
    FaultSpec {
        seed: 44,
        count: 1,
        window: (1_000, 1_000),
        downtime_ns: Some(200_000),
    },
];

/// Per app, in [`APPS`] order: the digest of each fabric's answers, in
/// [`FABRICS`] order.
const PINS: [[u64; 3]; 6] = [
    [0xf4f8a530f550b14c, 0xfcc177cfbbe6d40c, 0x8ddfec053b97106e],
    [0x3136e78b87f46ff4, 0x8bb5fa0529d92917, 0x49800d6a21d780ca],
    [0x24e8bb63129939e8, 0x56ce795a48aeb260, 0xc375c18703326e03],
    [0x8be62ec2c0adf41e, 0xf4a04964a0d5a30a, 0xf373e6f336fbc16b],
    [0x3491ad788bae4ba8, 0xb30316a5ed1fb937, 0x6ca053e8df22de0d],
    [0x3009d4dbaf5d1c03, 0x904d229712a63620, 0xd58b91ffebdde390],
];

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn faulted_simulate_answers_are_pinned() {
    let reg = Registry::new();
    let mut misses = Vec::new();
    for (app, pins) in APPS.iter().zip(PINS) {
        for (fabric, pin) in FABRICS.into_iter().zip(pins) {
            let mut h = 0xcbf2_9ce4_8422_2325;
            let mut answers = Vec::new();
            for faults in FAULTS {
                let req = Request::Simulate {
                    app: AppSpec::Named {
                        name: app.to_string(),
                        procs: PROCS,
                    },
                    fabric,
                    cutoff: CUTOFF,
                    faults: Some(faults),
                    strategy: None,
                };
                let wire = encode_response(&execute(&req, &reg));
                assert!(
                    wire.contains("\"sim\""),
                    "{app} on {fabric:?} under {faults:?} did not simulate: {wire}"
                );
                h = fnv1a(h, wire.as_bytes());
                h = fnv1a(h, b"\n");
                answers.push(wire);
            }
            if h != pin {
                misses.push(format!(
                    "{app} on {fabric:?}: pinned {pin:#018x}, got {h:#018x}\n  {}",
                    answers.join("\n  ")
                ));
            }
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
