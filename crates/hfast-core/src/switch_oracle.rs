//! Differential test of [`CircuitSwitch`] against the tree-backed crossbar
//! it replaced.
//!
//! The reference below is the switch as it was before ports became slots:
//! one `BTreeMap<Endpoint, Endpoint>` holding both directions of every
//! circuit. Random sequences of connects, disconnects and peer lookups over
//! a small pool of endpoints (sparse node and block ids, so storage grows
//! in jumps, ids far past any storage, and few enough ports that
//! `SelfLoop`, `EndpointBusy` on either side and `NotConnected` all occur)
//! drive both. After every step the result, the `circuits()` sequence,
//! `circuit_count`, `ports_in_use` and `is_consistent` must agree.

use std::collections::{BTreeMap, BTreeSet};

use hfast_par::{forall, Rng64};

use crate::switch::{CircuitSwitch, Endpoint, SwitchError};

/// The reference: the crossbar as one ordered map.
#[derive(Debug, Clone, Default)]
struct TreeSwitch {
    /// Symmetric pairing of endpoints.
    circuits: BTreeMap<Endpoint, Endpoint>,
}

impl TreeSwitch {
    fn connect(&mut self, a: Endpoint, b: Endpoint) -> Result<(), SwitchError> {
        if a == b {
            return Err(SwitchError::SelfLoop(a));
        }
        if self.circuits.contains_key(&a) {
            return Err(SwitchError::EndpointBusy(a));
        }
        if self.circuits.contains_key(&b) {
            return Err(SwitchError::EndpointBusy(b));
        }
        self.circuits.insert(a, b);
        self.circuits.insert(b, a);
        Ok(())
    }

    fn disconnect(&mut self, a: Endpoint) -> Result<Endpoint, SwitchError> {
        let b = self
            .circuits
            .remove(&a)
            .ok_or(SwitchError::NotConnected(a))?;
        let back = self.circuits.remove(&b);
        debug_assert_eq!(back, Some(a), "pairing invariant");
        Ok(b)
    }

    fn peer(&self, a: Endpoint) -> Option<Endpoint> {
        self.circuits.get(&a).copied()
    }

    fn circuit_count(&self) -> usize {
        self.circuits.len() / 2
    }

    fn ports_in_use(&self) -> usize {
        self.circuits.len()
    }

    fn circuits(&self) -> impl Iterator<Item = (Endpoint, Endpoint)> + '_ {
        self.circuits
            .iter()
            .filter(|(a, b)| a < b)
            .map(|(&a, &b)| (a, b))
    }

    fn is_consistent(&self) -> bool {
        self.circuits
            .iter()
            .all(|(a, b)| self.circuits.get(b) == Some(a))
    }
}

/// Sparse ids: storage must grow past gaps, block ids need not arrive in
/// order, and a port above every earlier one re-lays the blocks out.
const NODES: [usize; 4] = [0, 1, 9, 300];
const BLOCKS: [usize; 4] = [0, 2, 57, 1024];
const PORTS: usize = 3;
/// Ids no storage reaches, for lookups and teardowns only: they must miss,
/// not alias a stored slot.
const FAR: [Endpoint; 3] = [
    Endpoint::Node(usize::MAX),
    Endpoint::BlockPort {
        block: usize::MAX >> 3,
        port: 0,
    },
    Endpoint::BlockPort {
        block: 0,
        port: 1 << 40,
    },
];

fn endpoint(rng: &mut Rng64) -> Endpoint {
    if rng.bool(0.4) {
        Endpoint::Node(*rng.pick(&NODES))
    } else {
        Endpoint::BlockPort {
            block: *rng.pick(&BLOCKS),
            port: rng.range(0, PORTS),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Connect(Endpoint, Endpoint),
    Disconnect(Endpoint),
    Peer(Endpoint),
}

fn step(rng: &mut Rng64) -> Step {
    let a = endpoint(rng);
    match rng.range(0, 12) {
        0 => Step::Connect(a, a),
        1..=5 => Step::Connect(a, endpoint(rng)),
        6..=8 => Step::Disconnect(a),
        9 => Step::Peer(a),
        10 => Step::Disconnect(*rng.pick(&FAR)),
        _ => Step::Peer(*rng.pick(&FAR)),
    }
}

/// Runs `steps` on a fresh pair, diffing after every step, and returns
/// both final states.
fn drive(steps: &[Step]) -> (TreeSwitch, CircuitSwitch) {
    let (mut reference, mut switch) = (TreeSwitch::default(), CircuitSwitch::new());
    for (i, &s) in steps.iter().enumerate() {
        let fail = |what: &str, expected: &dyn std::fmt::Debug, got: &dyn std::fmt::Debug| {
            panic!("step {i} {s:?}: {what}: expected {expected:?}, got {got:?}")
        };
        match s {
            Step::Connect(a, b) => {
                let (expected, got) = (reference.connect(a, b), switch.connect(a, b));
                if expected != got {
                    fail("connect", &expected, &got);
                }
            }
            Step::Disconnect(a) => {
                let (expected, got) = (reference.disconnect(a), switch.disconnect(a));
                if expected != got {
                    fail("disconnect", &expected, &got);
                }
            }
            Step::Peer(a) => {
                let (expected, got) = (reference.peer(a), switch.peer(a));
                if expected != got {
                    fail("peer", &expected, &got);
                }
            }
        }
        let expected: Vec<_> = reference.circuits().collect();
        let got: Vec<_> = switch.circuits().collect();
        if expected != got {
            fail("circuits()", &expected, &got);
        }
        let expected = (
            reference.circuit_count(),
            reference.ports_in_use(),
            reference.is_consistent(),
        );
        let got = (
            switch.circuit_count(),
            switch.ports_in_use(),
            switch.is_consistent(),
        );
        if expected != got {
            fail(
                "(circuit_count, ports_in_use, is_consistent)",
                &expected,
                &got,
            );
        }
    }
    (reference, switch)
}

fn steps(rng: &mut Rng64) -> Vec<Step> {
    (0..rng.range(1, 120)).map(|_| step(rng)).collect()
}

#[test]
fn circuit_switch_agrees_with_tree_reference() {
    forall("circuit_switch_agrees_with_tree_reference", 256, |rng| {
        drive(&steps(rng));
    });
}

#[test]
fn circuits_changed_is_the_symmetric_difference() {
    forall("circuits_changed_is_the_symmetric_difference", 256, |rng| {
        // Two independent crossbars, and one against its own later state
        // (the snapshot-then-rebuild case the adaptation step counts).
        let (ref_a, a) = drive(&steps(rng));
        let (ref_b, b) = drive(&steps(rng));
        let (mut ref_c, mut c) = (ref_a.clone(), a.clone());
        for s in steps(rng) {
            match s {
                Step::Connect(x, y) => {
                    let _ = (ref_c.connect(x, y), c.connect(x, y));
                }
                Step::Disconnect(x) => {
                    let _ = (ref_c.disconnect(x), c.disconnect(x));
                }
                Step::Peer(_) => {}
            }
        }
        let set = |t: &TreeSwitch| t.circuits().collect::<BTreeSet<_>>();
        for ((rx, x), (ry, y)) in [((&ref_a, &a), (&ref_b, &b)), ((&ref_a, &a), (&ref_c, &c))] {
            let expected = set(rx).symmetric_difference(&set(ry)).count();
            assert_eq!(x.circuits_changed(y), expected, "x vs y");
            assert_eq!(y.circuits_changed(x), expected, "y vs x");
        }
        assert_eq!(a.circuits_changed(&a), 0);
    });
}
