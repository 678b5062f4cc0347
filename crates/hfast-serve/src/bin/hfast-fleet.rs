//! `hfast-fleet`: supervise N `hfast-serve` shards behind one router,
//! and drive the fleet's end-to-end checks.
//!
//! ```text
//! hfast-fleet --shards N [--addr A] [--journal-dir D]
//!     supervisor: reserve N ports, spawn this binary once per shard
//!     (`--shard`), start the consistent-hash router on A (default
//!     127.0.0.1:4712), serve until a client sends `shutdown`.
//!
//! hfast-fleet --shard ADDR [--journal PATH]
//!     one shard: bind ADDR (retrying through a restart window), print
//!     `READY ADDR`, serve until drained. Config comes from the
//!     `HFAST_SERVE_*` environment; spans go to `HFAST_TRACE` on drain.
//!
//! hfast-fleet --smoke
//! hfast-fleet --soak [--secs N] [--timeline PATH]
//!     one drill, two lengths (what verify.sh runs):
//!       1. single-node baseline — every pool response and job result;
//!       2. 2-shard journaled fleet behind a router — 12 pool cycles
//!          must answer the baseline bytes;
//!       3. durable jobs submitted until every shard owns one, then the
//!          soak monitor (`hfast_serve::soak`) loads the router while
//!          shard 0 is rolling-restarted halfway through: zero diverged,
//!          refused or lost-connection responses, rolling p99 under
//!          `HFAST_SOAK_P99_MS` (default 500), every job fetching its
//!          baseline bytes.
//!     `--smoke` soaks for 4 s; `--soak` for N s (default 20), and
//!     `--timeline` writes the poll-by-poll JSONL record. Exits non-zero
//!     on any violation.
//!
//! hfast-fleet --capture DIR
//!     live trace capture: two shards with per-process `HFAST_TRACE`
//!     sinks, the router in-process with its own recorder, a tracing
//!     `FleetClient` driving the pool through it; stitches client,
//!     router and shard spans into `DIR/fleet.json` and exits non-zero
//!     unless every request is ONE connected causal tree (one root, zero
//!     orphans).
//!
//! hfast-fleet --stitch OUT.json IN.jsonl [IN.jsonl ...]
//!     merge per-process JSONL span files into one validated Perfetto
//!     document, one process group per input (pass client, router,
//!     shard order for a stable layout).
//! ```
//!
//! Shard processes are re-executions of this binary (`current_exe`), so
//! one artifact deploys the whole fleet.

use std::io::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfast_serve::fleet::unwrap_job_id;
use hfast_serve::soak::{run_soak, SoakConfig};
use hfast_serve::{
    start, start_fleet, AppSpec, Client, FabricSpec, FleetClient, FleetHandle, JobState, Request,
    Response, ServerConfig,
};
use hfast_trace::{render_jsonl, stitch, trace_tree, TraceRecorder};

/// How long shard binds, readiness probes and job completion wait.
const STARTUP_WINDOW: Duration = Duration::from_secs(10);

/// Pool cycles the fleet must answer with the single node's bytes.
const DIGEST_REPS: usize = 12;

/// How long `--smoke` soaks across the rolling restart.
const SMOKE_SECS: u64 = 4;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run_shard(addr: &str, journal: Option<PathBuf>) -> Result<(), String> {
    // Queued debug_panic probes panic a job worker on purpose; keep the
    // log to one line per contained panic.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("hfast-fleet shard: handler panic contained ({info})");
    }));
    let mut config = ServerConfig::from_env();
    if journal.is_some() {
        config.journal = journal;
    }
    // Bind with retries so a restarted shard can reclaim its old address
    // while the previous incarnation's socket finishes closing.
    let deadline = Instant::now() + STARTUP_WINDOW;
    let server = loop {
        match start(addr, config.clone()) {
            Ok(server) => break server,
            Err(e) if Instant::now() < deadline => {
                eprintln!("hfast-fleet shard {addr}: bind retry ({e})");
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("bind {addr}: {e}")),
        }
    };
    println!("READY {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.join(); // exports spans to the HFAST_TRACE sink, if any
    eprintln!("hfast-fleet shard {addr}: drained");
    Ok(())
}

/// Reserves `n` distinct loopback ports by binding ephemerally and
/// noting the address. Racy by nature, tolerated by the shard's bind
/// retry loop.
fn reserve_ports(n: usize) -> Result<Vec<String>, String> {
    let mut addrs = Vec::new();
    let mut holds = Vec::new();
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}"))?;
        addrs.push(l.local_addr().map_err(|e| e.to_string())?.to_string());
        holds.push(l);
    }
    drop(holds);
    Ok(addrs)
}

/// Polls a shard's health endpoint until it answers.
fn await_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + STARTUP_WINDOW;
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.call(&Request::Health), Ok(Response::Health { .. })) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("shard {addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Shard processes of this binary. Shard `i` owns `DIR/shard-i.jsonl`:
/// its job journal, or — for a trace capture — its span sink, since
/// `HFAST_TRACE` is read once per process.
struct Shards {
    addrs: Vec<String>,
    files: Vec<PathBuf>,
    traced: bool,
    children: Vec<Child>,
}

impl Shards {
    /// Spawns `n` shards on reserved loopback ports and waits until each
    /// answers health.
    fn up(n: usize, dir: &Path, traced: bool) -> Result<Shards, String> {
        let mut shards = Shards {
            addrs: reserve_ports(n)?,
            files: (0..n)
                .map(|i| dir.join(format!("shard-{i}.jsonl")))
                .collect(),
            traced,
            children: Vec::new(),
        };
        for i in 0..n {
            let child = shards.spawn(i)?;
            shards.children.push(child);
        }
        for addr in &shards.addrs {
            await_ready(addr)?;
        }
        Ok(shards)
    }

    fn spawn(&self, i: usize) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--shard", &self.addrs[i]]);
        if self.traced {
            cmd.env("HFAST_TRACE", &self.files[i]);
        } else {
            cmd.arg("--journal").arg(&self.files[i]);
        }
        cmd.stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn shard {}: {e}", self.addrs[i]))
    }

    /// Drains shard `i` and starts it again on the same address and file.
    fn roll(&mut self, i: usize) -> Result<(), String> {
        let mut direct = Client::connect(&self.addrs[i]).map_err(|e| e.to_string())?;
        direct
            .call(&Request::Shutdown)
            .map_err(|e| format!("shard {i} drain: {e}"))?;
        let _ = self.children[i].wait();
        self.children[i] = self.spawn(i)?;
        await_ready(&self.addrs[i])
    }

    /// Waits for every shard to exit, as they do once a `shutdown` has
    /// fanned out to them; a failed exit is an error.
    fn wait(mut self) -> Result<(), String> {
        for mut child in std::mem::take(&mut self.children) {
            let status = child.wait().map_err(|e| format!("shard wait: {e}"))?;
            if !status.success() {
                return Err(format!("shard exited with {status}"));
            }
        }
        Ok(())
    }

    /// Drains the fleet through `router` and waits for every shard.
    fn down(self, router: FleetHandle) -> Result<(), String> {
        let mut c = Client::connect(router.local_addr()).map_err(|e| e.to_string())?;
        c.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        router.join();
        self.wait()
    }
}

impl Drop for Shards {
    /// A check that failed part-way leaves no shard process behind.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn run_supervisor(shards: usize, addr: &str, journal_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(journal_dir).map_err(|e| format!("journal dir: {e}"))?;
    let shards = Shards::up(shards, journal_dir, false)?;
    let router =
        start_fleet(addr, &shards.addrs, None).map_err(|e| format!("router bind {addr}: {e}"))?;
    println!("READY {}", router.local_addr());
    let _ = std::io::stdout().flush();
    router.join(); // a client's `shutdown` fans out to the shards first
    shards.wait()?;
    eprintln!("hfast-fleet: drained");
    Ok(())
}

// ---------------------------------------------------------------------
// Smoke and soak
// ---------------------------------------------------------------------

/// A ring of `n` ranks, each sending 64 KiB to its successor.
fn ring(n: usize) -> AppSpec {
    AppSpec::Inline {
        n,
        edges: (0..n)
            .map(|i| (i, (i + 1) % n, 64 * 1024, 16, 4096))
            .collect(),
    }
}

/// The closed-loop request pool: cacheable compute verbs only, so every
/// response is a pure function of the request and any two correct
/// serving topologies answer byte-identical text.
fn pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for n in [6usize, 8, 10, 12] {
        pool.push(Request::Provision {
            app: ring(n),
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        });
        pool.push(Request::Cost {
            app: ring(n),
            block_ports: 8,
            cutoff: 4096,
        });
        pool.push(Request::Tdc {
            app: ring(n),
            cutoffs: vec![0, 2048, 1 << 16],
        });
        pool.push(Request::Simulate {
            app: ring(n),
            fabric: FabricSpec::Hfast,
            cutoff: 2048,
            faults: None,
            strategy: None,
        });
    }
    pool
}

/// Distinct simulate payloads for the durable jobs: their request keys
/// spread over the hash ring, so submitting down the list covers every
/// shard — in particular the one the drill restarts.
fn job_candidates() -> Vec<Request> {
    let mut v = Vec::new();
    for n in [6usize, 8, 10, 12] {
        for cutoff in [2048, 4096] {
            v.push(Request::Simulate {
                app: ring(n),
                fabric: FabricSpec::Hfast,
                cutoff,
                faults: None,
                strategy: None,
            });
        }
    }
    v
}

/// What one daemon answers: the byte oracle for everything the fleet
/// serves.
struct Baseline {
    pool: Vec<Request>,
    answers: Vec<String>,
    jobs: Vec<(Request, String)>,
}

impl Baseline {
    fn record() -> Result<Baseline, String> {
        let single =
            start("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let mut c = Client::connect(single.local_addr()).map_err(|e| e.to_string())?;
        let mut answer = |req: &Request| match c.call_text(req) {
            Ok((Response::Busy | Response::Error { .. }, text)) => {
                Err(format!("baseline {} refused: {text}", req.endpoint()))
            }
            Ok((_, text)) => Ok(text),
            Err(e) => Err(format!("baseline call: {e}")),
        };
        let pool = pool();
        let answers = pool.iter().map(&mut answer).collect::<Result<_, _>>()?;
        let jobs = job_candidates()
            .into_iter()
            .map(|req| answer(&req).map(|text| (req, text)))
            .collect::<Result<_, _>>()?;
        c.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        single.join();
        Ok(Baseline {
            pool,
            answers,
            jobs,
        })
    }
}

/// Submits baseline jobs until at least four are in and every shard owns
/// one, so rolling shard 0 puts durable jobs at stake. Global job ids
/// name the owning shard, so coverage is checked, not assumed.
fn submit_on_every_shard<'a>(
    client: &mut Client,
    base: &'a Baseline,
    shards: usize,
) -> Result<Vec<(u64, &'a str)>, String> {
    let mut owned = vec![false; shards];
    let mut jobs = Vec::new();
    for (req, expect) in &base.jobs {
        if jobs.len() >= 4 && owned.iter().all(|&o| o) {
            break;
        }
        let submit = Request::Submit {
            job: Box::new(req.clone()),
        };
        match client.call(&submit).map_err(|e| format!("submit: {e}"))? {
            Response::JobAccepted { id } => {
                let (shard, _) = unwrap_job_id(id);
                *owned
                    .get_mut(shard)
                    .ok_or_else(|| format!("job {id} names shard {shard} of {shards}"))? = true;
                jobs.push((id, expect.as_str()));
            }
            other => return Err(format!("submit: unexpected {other:?}")),
        }
    }
    if owned.iter().all(|&o| o) {
        Ok(jobs)
    } else {
        Err(format!(
            "job keys covered only shards {owned:?}; widen job_candidates()"
        ))
    }
}

/// Every job completes and fetches its baseline bytes.
fn check_jobs(client: &mut Client, jobs: &[(u64, &str)]) -> Result<(), String> {
    let deadline = Instant::now() + STARTUP_WINDOW;
    for &(id, expect) in jobs {
        loop {
            match client.call(&Request::Poll { id }) {
                Ok(Response::JobStatus {
                    state: JobState::Done,
                    ..
                }) => break,
                Ok(Response::JobStatus {
                    state: JobState::Failed,
                    message,
                    ..
                }) => return Err(format!("job {id} failed: {message:?}")),
                Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                other => return Err(format!("job {id} never finished: {other:?}")),
            }
        }
        let (_, text) = client
            .call_text(&Request::Fetch { id })
            .map_err(|e| format!("fetch {id}: {e}"))?;
        if text != expect {
            return Err(format!("job {id} result differs from the baseline bytes"));
        }
    }
    Ok(())
}

/// Rolling p99 ceiling, milliseconds: `HFAST_SOAK_P99_MS` or a bound
/// generous enough for a loaded CI box.
fn soak_p99_ceiling_ns() -> u64 {
    std::env::var("HFAST_SOAK_P99_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(500)
        .saturating_mul(1_000_000)
}

/// `--smoke` and `--soak`: see the module docs.
fn drill(name: &str, secs: u64, timeline: Option<PathBuf>) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("hfast-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{name} dir: {e}"))?;
    let base = Baseline::record()?;

    let mut shards = Shards::up(2, &dir, false)?;
    let router =
        start_fleet("127.0.0.1:0", &shards.addrs, None).map_err(|e| format!("router: {e}"))?;
    let router_addr = router.local_addr().to_string();
    let mut client = Client::connect(&router_addr).map_err(|e| e.to_string())?;
    for _ in 0..DIGEST_REPS {
        for (req, want) in base.pool.iter().zip(&base.answers) {
            let (_, text) = client
                .call_text(req)
                .map_err(|e| format!("fleet call: {e}"))?;
            if &text != want {
                return Err(format!(
                    "fleet answered a {} request unlike the single node",
                    req.endpoint()
                ));
            }
        }
    }
    eprintln!(
        "{name}: 2-shard fleet answered the single node's bytes {} times",
        DIGEST_REPS * base.pool.len()
    );

    let jobs = submit_on_every_shard(&mut client, &base, shards.addrs.len())?;
    let config = SoakConfig {
        duration: Duration::from_secs(secs.max(1)),
        poll_interval: Duration::from_millis(250),
        connections: 2,
        p99_ceiling_ns: soak_p99_ceiling_ns(),
    };
    let started = Instant::now();
    let (report, rolled) = std::thread::scope(|s| {
        let roll = s.spawn(|| {
            std::thread::sleep(config.duration / 2);
            shards.roll(0)?;
            eprintln!(
                "{name}: shard 0 rolled, serving again at {:.1} s",
                started.elapsed().as_secs_f64()
            );
            Ok(Instant::now())
        });
        let report = run_soak(&router_addr, &base.pool, &config);
        let ended = Instant::now();
        let rolled = match roll.join() {
            Ok(Ok(back)) if back < ended => Ok(()),
            Ok(Ok(_)) => Err("the soak ended before shard 0 was back".to_string()),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("the roll thread panicked".to_string()),
        };
        (report, rolled)
    });
    rolled?;
    if !report.passed() {
        return Err(format!(
            "SLO violations: {}",
            report.slo_violations.join("; ")
        ));
    }
    let refused = report.busy + report.errors;
    if refused != 0 {
        return Err(format!(
            "rolling restart surfaced {refused} refused responses over {}",
            report.served
        ));
    }
    check_jobs(&mut client, &jobs)?;
    if let Some(path) = &timeline {
        let mut doc = report.timeline.join("\n");
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("{name}: telemetry timeline -> {}", path.display());
    }
    eprintln!(
        "{name}: {} responses, {} polls, worst p99 {:.3} ms, {} jobs intact across the restart",
        report.served,
        report.polls,
        report.worst_p99_ns as f64 / 1e6,
        jobs.len()
    );

    shards.down(router)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

// ---------------------------------------------------------------------
// Trace capture and stitching
// ---------------------------------------------------------------------

/// Reads each span file and merges them into one validated document.
fn stitch_files(out: &Path, inputs: &[String]) -> Result<(), String> {
    let mut docs = Vec::with_capacity(inputs.len());
    for path in inputs {
        docs.push(std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?);
    }
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let (doc, stats) = stitch(&refs)?;
    std::fs::write(out, &doc).map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!(
        "stitch: {} processes, {} spans, {} roots, {} orphans -> {}",
        stats.processes,
        stats.spans,
        stats.roots,
        stats.orphans,
        out.display()
    );
    Ok(())
}

fn capture(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("capture dir: {e}"))?;
    let shards = Shards::up(2, dir, true)?;
    let router_rec = Arc::new(TraceRecorder::new());
    let router = start_fleet("127.0.0.1:0", &shards.addrs, Some(Arc::clone(&router_rec)))
        .map_err(|e| format!("router: {e}"))?;

    // Tracing client: every call originates a root span and threads the
    // context through the router to whichever shard owns the key.
    let client_rec = Arc::new(TraceRecorder::new());
    let mut client = FleetClient::connect(&[router.local_addr().to_string()])
        .with_trace(Arc::clone(&client_rec));
    let pool = pool();
    for req in &pool {
        match client.call(req).map_err(|e| format!("traced call: {e}"))? {
            Response::Error { message } => return Err(format!("traced call errored: {message}")),
            Response::Busy => return Err("traced call shed".into()),
            _ => {}
        }
    }
    // The shards export their spans as they drain.
    shards.down(router)?;

    let client_path = dir.join("client.jsonl");
    let router_path = dir.join("router.jsonl");
    std::fs::write(&client_path, render_jsonl("client", &client_rec.snapshot()))
        .map_err(|e| format!("write client spans: {e}"))?;
    std::fs::write(&router_path, render_jsonl("router", &router_rec.snapshot()))
        .map_err(|e| format!("write router spans: {e}"))?;
    let mut inputs = vec![
        client_path.display().to_string(),
        router_path.display().to_string(),
    ];
    inputs.extend((0..2).map(|i| dir.join(format!("shard-{i}.jsonl")).display().to_string()));
    let out = dir.join("fleet.json");
    stitch_files(&out, &inputs)?;

    // Every traced request must render as one connected causal tree: a
    // single client root transitively parenting the router and shard
    // request spans.
    let doc = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    for trace_id in 1..=pool.len() as u64 {
        let tree = trace_tree(&doc, trace_id)?;
        if tree.spans < 3 {
            return Err(format!(
                "trace {trace_id}: only {} spans — expected client, router and shard coverage",
                tree.spans
            ));
        }
        if tree.roots != 1 || tree.orphans != 0 {
            return Err(format!(
                "trace {trace_id}: {} roots, {} orphans over {} spans — not one connected tree",
                tree.roots, tree.orphans, tree.spans
            ));
        }
    }
    eprintln!(
        "capture: {} traces each form one connected tree in {}",
        pool.len(),
        out.display()
    );
    Ok(())
}

const USAGE: &str = "usage: hfast-fleet --shards N [--addr A] [--journal-dir D] \
    | --shard ADDR [--journal P] | --smoke | --soak [--secs N] [--timeline P] \
    | --capture DIR | --stitch OUT.json IN.jsonl...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.iter().any(|a| a == "--smoke") {
        drill("smoke", SMOKE_SECS, None).map(|()| println!("hfast-fleet smoke: ok"))
    } else if args.iter().any(|a| a == "--soak") {
        let secs = parse_flag(&args, "--secs")
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(20);
        drill(
            "soak",
            secs,
            parse_flag(&args, "--timeline").map(PathBuf::from),
        )
        .map(|()| println!("hfast-fleet soak: ok"))
    } else if let Some(dir) = parse_flag(&args, "--capture") {
        capture(Path::new(&dir)).map(|()| println!("hfast-fleet capture: ok"))
    } else if let Some(i) = args.iter().position(|a| a == "--stitch") {
        match &args[i + 1..] {
            [out, inputs @ ..] if !inputs.is_empty() => stitch_files(Path::new(out), inputs),
            _ => Err(USAGE.into()),
        }
    } else if let Some(addr) = parse_flag(&args, "--shard") {
        run_shard(&addr, parse_flag(&args, "--journal").map(PathBuf::from))
    } else if let Some(shards) = parse_flag(&args, "--shards") {
        match shards.parse::<usize>() {
            Ok(n) if n > 0 => {
                let addr = parse_flag(&args, "--addr").unwrap_or("127.0.0.1:4712".into());
                let dir = parse_flag(&args, "--journal-dir")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| std::env::temp_dir().join("hfast-fleet-journals"));
                run_supervisor(n, &addr, &dir)
            }
            _ => Err("--shards wants a positive integer".into()),
        }
    } else {
        Err(USAGE.into())
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hfast-fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
