//! Thread-count determinism smoke for the event loop: every scenario
//! runs under `HFAST_THREADS=1` and `=8` semantics (via
//! `Simulation::with_threads`, the same resolution path the env variable
//! feeds), bare and with `EngineObs` + a fresh `TraceRecorder` attached.
//! The outputs must be byte-identical across thread counts, attaching
//! telemetry must not move them, and what the telemetry recorded — the
//! span stream and the per-event histograms — must be identical across
//! thread counts too. On any divergence it names the scenario, the
//! thread count, *which* stream broke (output / spans / histogram) and
//! the expected and observed digests, then exits non-zero.
//!
//! Scenarios cover every way the one driver runs: the 20k-flow static
//! suite the bench measures (where the conservative-parallel executor
//! actually engages), a bursty all-to-all on the fat tree
//! (same-timestamp event storms), a faulted torus with retries, credit
//! flow control, and credit + faults + mid-run repatching together (all
//! three sequential whatever the thread knob says).

use std::fmt::Debug;

use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FatTreeFabric, FaultPlan, Flow,
    HfastFabric, RetryPolicy, Scenario, ScenarioKind, SimOutput, Simulation, TorusFabric,
};
use hfast_trace::TraceRecorder;

/// FNV-1a over the `Debug` rendering of a stream's items, in order.
fn stream_digest<T: Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for item in items {
        for b in format!("{item:?};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Says what diverged and exits non-zero.
fn fail(scenario: &str, threads: usize, stream: &str, expected: u64, got: u64) -> ! {
    eprintln!(
        "eventloop smoke: FAILED {scenario} at threads={threads}: {stream} stream diverged \
         (expected {expected:#018x}, got {got:#018x})"
    );
    std::process::exit(1);
}

const STREAMS: [&str; 3] = ["output", "spans", "histogram"];

/// Digests of everything one instrumented run leaves behind, in
/// [`STREAMS`] order.
fn observe(scenario: &str, threads: usize, sim: Simulation<'_>, flows: &[Flow]) -> [u64; 3] {
    let obs = EngineObs::new();
    let rec = TraceRecorder::new();
    let out = sim.with_obs(&obs).with_trace(&rec).run(flows);
    let spans = rec.snapshot();
    if rec.len() != spans.len() {
        // `len()` is an exact count of what `snapshot()` returns.
        fail(
            scenario,
            threads,
            "spans",
            rec.len() as u64,
            spans.len() as u64,
        );
    }
    let hists = [&obs.queue_wait_ns, &obs.queue_occupancy];
    let histogram = stream_digest(hists.map(|h| (h.bucket_counts(), h.count(), h.sum())));
    [out.digest(), stream_digest(spans), histogram]
}

/// Runs `sim` over `flows` at both thread counts, bare and instrumented,
/// and returns the (one) output.
fn check<'a>(name: &str, flows: &[Flow], sim: impl Fn(usize) -> Simulation<'a>) -> SimOutput {
    let seq = sim(1).run(flows);
    let par = sim(8).run(flows);
    if seq != par {
        fail(name, 8, "output", seq.digest(), par.digest());
    }
    // Attaching telemetry never moves the output, and the streams at
    // eight threads are the streams at one.
    let one = observe(name, 1, sim(1), flows);
    let eight = observe(name, 8, sim(8), flows);
    let expected = [seq.digest(), one[1], one[2]];
    for (threads, got) in [(1, one), (8, eight)] {
        for ((stream, want), got) in STREAMS.iter().zip(expected).zip(got) {
            if want != got {
                fail(name, threads, stream, want, got);
            }
        }
    }
    let [output, spans, _] = expected;
    println!("{name}: threads 1 == 8, digest {output:#018x}, spans {spans:#018x}");
    seq
}

fn main() {
    let torus = TorusFabric::new((8, 8, 8)).unwrap();
    let many = traffic::uniform_random(512, 20_000, 4096, 1_000_000, 42);
    check("static/20k-flows-512-torus", &many, |threads| {
        Simulation::new(&torus).detailed().with_threads(threads)
    });

    let ft = FatTreeFabric::new(32, 8).unwrap();
    let burst = traffic::alltoall(32, 4096);
    check("static/alltoall-fat-tree", &burst, |threads| {
        Simulation::new(&ft).detailed().with_threads(threads)
    });

    let small = TorusFabric::new((4, 4, 1)).unwrap();
    let fs = traffic::uniform_random(16, 200, 4096, 400_000, 13);
    let eligible = transit_links(&small, &fs);
    let plan = FaultPlan::builder()
        .random_link_failures(0xFEED, 4, &eligible, (0, 400_000), Some(150_000))
        .build(&small)
        .unwrap();
    check("faulted/torus-retries", &fs, |threads| {
        Simulation::new(&small)
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .detailed()
            .with_threads(threads)
    });

    // Credit runs are sequential by construction, so the thread knob
    // must be fully inert on them — on a scenario built to congest.
    let scenario = Scenario::preset(ScenarioKind::Incast, 32, 5);
    let incast = scenario.generate();
    check("credit/incast-fat-tree", &incast, |threads| {
        Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .with_threads(threads)
    });

    // Everything at once: credit buffers, two circuits failing under
    // load, and the mid-run repatch that brings them back.
    let hfast = HfastFabric::provisioned(
        &scenario.comm_graph(),
        ProvisionConfig::default(),
        Strategy::PaperLinear,
    );
    let mut outage = FaultPlan::builder();
    for (i, l) in (0..hfast.link_count())
        .filter(|&l| hfast.reprovisionable(l))
        .take(2)
        .enumerate()
    {
        outage = outage.fail_link(10_000 * (i as u64 + 1), l);
    }
    let outage = outage.build(&hfast).unwrap();
    let out = check("credit/faults-reprovision-hfast", &incast, |threads| {
        Simulation::new(&hfast)
            .with_congestion(CreditConfig::credit(2))
            .with_faults(&outage)
            .with_reprovision(100_000)
            .detailed()
            .with_threads(threads)
    });
    assert!(
        !out.reprovisions.is_empty(),
        "credit/faults-reprovision-hfast: failed circuits are repatched"
    );
    assert_eq!(
        out.stats.completed,
        incast.len(),
        "credit/faults-reprovision-hfast: every flow lands"
    );

    // And `Ideal` must be byte-identical to a builder that never mentions
    // congestion at all (the golden tests pin the absolute digests; this
    // smoke pins the equivalence on the 20k-flow suite).
    let plain = Simulation::new(&torus).detailed().run(&many).digest();
    let ideal = Simulation::new(&torus)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&many)
        .digest();
    assert_eq!(
        plain, ideal,
        "ideal-mode digest diverged from the plain loop on the 20k suite"
    );
    println!("congestion/ideal-identity-20k: digest {plain:#018x}");

    println!("eventloop smoke: OK");
}
