//! Fleet integration: in-process shard daemons addressed through
//! [`FleetClient`]'s consistent-hash routing and through the
//! `start_fleet` router. Shard count must be invisible in the bytes
//! (digests identical across 1, 2, and 4 shards, and between the router,
//! the client-side ring and a single node), pure verbs must fail over to
//! replicas when the owning shard is down, and journaled jobs must
//! survive a shard restart with zero loss.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hfast_serve::fleet::unwrap_job_id;
use hfast_serve::{
    read_frame, start, start_fleet, write_frame, AppSpec, Client, ClientError, FabricSpec,
    FleetClient, FleetHandle, JobState, Request, Response, ServerConfig, ServerHandle,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic all-cacheable pool over the paper apps, mirroring the
/// load generator's mix without depending on `hfast-bench` (which
/// depends on this crate).
fn pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for name in ["Cactus", "LBMHD", "GTC", "SuperLU"] {
        let app = AppSpec::Named {
            name: name.to_string(),
            procs: 8,
        };
        pool.push(Request::Provision {
            app: app.clone(),
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        });
        pool.push(Request::Cost {
            app: app.clone(),
            block_ports: 16,
            cutoff: 2048,
        });
        pool.push(Request::Tdc {
            app: app.clone(),
            cutoffs: vec![0, 2048],
        });
        pool.push(Request::Simulate {
            app,
            fabric: FabricSpec::FatTree { ports: 8 },
            cutoff: 2048,
            faults: None,
            strategy: None,
        });
    }
    pool
}

fn start_shards(n: usize, config: &ServerConfig) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| start("127.0.0.1:0", config.clone()).expect("bind shard"))
        .collect();
    let addrs = handles.iter().map(|h| h.local_addr().to_string()).collect();
    (handles, addrs)
}

fn drain_all(handles: Vec<ServerHandle>, addrs: &[String]) {
    for addr in addrs {
        let mut c = Client::connect(addr).expect("connect for drain");
        c.call(&Request::Shutdown).expect("drain");
    }
    for h in handles {
        h.join();
    }
}

/// A router fronting `addrs`, as the `hfast-fleet` supervisor runs it.
fn start_router(addrs: &[String]) -> FleetHandle {
    start_fleet("127.0.0.1:0", addrs, None).expect("bind router")
}

/// Drains the fleet through the router (its `shutdown` fans out to the
/// shards) and joins everything.
fn stop_router(router: FleetHandle, handles: Vec<ServerHandle>) {
    let mut c = Client::connect(router.local_addr()).expect("connect router for drain");
    c.call(&Request::Shutdown).expect("drain fleet");
    router.join();
    for h in handles {
        h.join();
    }
}

/// Sends the pool three times through `call` and folds an FNV digest over
/// every response's exact bytes.
fn pool_digest(mut call: impl FnMut(&Request) -> Result<(Response, String), ClientError>) -> u64 {
    let mut digest = FNV_OFFSET;
    for _ in 0..3 {
        for req in &pool() {
            let (resp, raw) = call(req).expect("pool call");
            assert!(
                !matches!(resp, Response::Busy | Response::Error { .. }),
                "pool request failed: {raw}"
            );
            digest = fnv_fold(digest, raw.as_bytes());
        }
    }
    digest
}

/// The pool digest through a `FleetClient` over `n` shards.
fn fleet_digest(n: usize) -> u64 {
    let (handles, addrs) = start_shards(n, &ServerConfig::default());
    let mut client = FleetClient::connect(&addrs);
    let digest = pool_digest(|req| client.call_text(req));
    drain_all(handles, &addrs);
    digest
}

#[test]
fn digest_is_identical_across_shard_counts() {
    let one = fleet_digest(1);
    let two = fleet_digest(2);
    let four = fleet_digest(4);
    assert_eq!(
        one, two,
        "2-shard fleet must serve byte-identical responses"
    );
    assert_eq!(
        one, four,
        "4-shard fleet must serve byte-identical responses"
    );
}

/// With one of two shards down, every pure (cacheable) request still
/// succeeds — the ring's replica takes over — and the bytes match what
/// the healthy fleet served.
#[test]
fn pure_verbs_fail_over_to_replicas() {
    let (handles, addrs) = start_shards(2, &ServerConfig::default());
    let mut client = FleetClient::connect(&addrs);
    let baseline: Vec<String> = pool()
        .iter()
        .map(|req| client.call_text(req).expect("healthy call").1)
        .collect();

    // Take shard 0 down for good.
    let mut handles = handles;
    let mut c = Client::connect(&addrs[0]).expect("connect shard 0");
    c.call(&Request::Shutdown).expect("drain shard 0");
    drop(c);
    handles.remove(0).join();

    // Half the keys now route to a dead owner; the client must land every
    // one of them on the survivor with identical bytes.
    let mut degraded = FleetClient::connect(&addrs);
    for (req, want) in pool().iter().zip(&baseline) {
        let (_, raw) = degraded.call_text(req).expect("degraded call");
        assert_eq!(&raw, want, "failover changed response bytes");
    }

    drain_all(handles, &addrs[1..]);
}

/// Journaled jobs survive their shard restarting: submit through the
/// fleet, restart the owning shard from its journal, and every result is
/// still fetchable, byte-identical to the synchronous answer.
#[test]
fn journaled_jobs_survive_a_shard_restart() {
    let dir = std::env::temp_dir().join(format!("hfast-fleet-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("journal dir");
    let config = |shard: usize| ServerConfig {
        journal: Some(dir.join(format!("shard-{shard}.jsonl"))),
        ..ServerConfig::default()
    };

    let shard0 = start("127.0.0.1:0", config(0)).expect("bind shard 0");
    let shard1 = start("127.0.0.1:0", config(1)).expect("bind shard 1");
    let addrs = vec![
        shard0.local_addr().to_string(),
        shard1.local_addr().to_string(),
    ];

    let job = Request::Simulate {
        app: AppSpec::Named {
            name: "GTC".into(),
            procs: 8,
        },
        fabric: FabricSpec::FatTree { ports: 8 },
        cutoff: 2048,
        faults: None,
        strategy: None,
    };
    let mut client = FleetClient::connect(&addrs);
    let (_, want) = client.call_text(&job).expect("synchronous baseline");

    let mut ids = Vec::new();
    for _ in 0..6 {
        match client
            .call_text(&Request::Submit {
                job: Box::new(job.clone()),
            })
            .expect("submit")
            .0
        {
            Response::JobAccepted { id } => ids.push(id),
            other => panic!("expected JobAccepted, got {other:?}"),
        }
    }

    // Wait for every job to finish, then restart shard 0 from its journal.
    let deadline = Instant::now() + Duration::from_secs(20);
    for &id in &ids {
        loop {
            match client.call_text(&Request::Poll { id }).expect("poll").0 {
                Response::JobStatus {
                    state: JobState::Done,
                    ..
                } => break,
                Response::JobStatus { state, .. } => {
                    assert!(!state.is_terminal(), "job {id} ended in {state:?}");
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected JobStatus, got {other:?}"),
            }
        }
    }

    let mut c = Client::connect(&addrs[0]).expect("connect shard 0");
    c.call(&Request::Shutdown).expect("drain shard 0");
    drop(c);
    shard0.join();
    // Rebind the same address so the fleet's view stays valid; the port
    // was just freed by the drain, but give the OS a few tries.
    let shard0 = {
        let mut last = None;
        let mut handle = None;
        for _ in 0..50 {
            match start(addrs[0].as_str(), config(0)) {
                Ok(h) => {
                    handle = Some(h);
                    break;
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        handle.unwrap_or_else(|| panic!("rebind shard 0: {last:?}"))
    };

    // Every job — including those that lived on the restarted shard —
    // must still fetch, and the replayed results must be byte-identical.
    let mut revived = FleetClient::connect(&addrs);
    for &id in &ids {
        let (_, raw) = revived
            .call_text(&Request::Fetch { id })
            .expect("fetch after restart");
        assert_eq!(raw, want, "job {id} result changed across the restart");
    }

    drain_all(vec![shard0, shard1], &addrs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The router, the client-side ring and one daemon answer the pool with
/// the same bytes.
#[test]
fn router_serves_the_single_node_and_fleet_client_bytes() {
    let (single, single_addr) = start_shards(1, &ServerConfig::default());
    let mut direct = Client::connect(&single_addr[0]).expect("connect single node");
    let want = pool_digest(|req| direct.call_text(req));
    drop(direct);
    drain_all(single, &single_addr);

    let (handles, addrs) = start_shards(2, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut routed = Client::connect(router.local_addr()).expect("connect router");
    assert_eq!(
        pool_digest(|req| routed.call_text(req)),
        want,
        "router bytes differ from a single node"
    );
    let mut ring = FleetClient::connect(&addrs);
    assert_eq!(
        pool_digest(|req| ring.call_text(req)),
        want,
        "FleetClient bytes differ from a single node"
    );
    stop_router(router, handles);
}

/// With one of two shards gone, every pure request through the router
/// still answers the healthy fleet's bytes. Two sightings per key stay
/// under the router's hot-key threshold, so every answer is a shard's.
#[test]
fn router_fails_pure_verbs_over_to_the_surviving_shard() {
    let (mut handles, addrs) = start_shards(2, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut routed = Client::connect(router.local_addr()).expect("connect router");
    let baseline: Vec<String> = pool()
        .iter()
        .map(|req| routed.call_text(req).expect("healthy call").1)
        .collect();

    let mut c = Client::connect(&addrs[0]).expect("connect shard 0");
    c.call(&Request::Shutdown).expect("drain shard 0");
    drop(c);
    handles.remove(0).join();

    for (req, want) in pool().iter().zip(&baseline) {
        let (_, raw) = routed.call_text(req).expect("degraded call");
        assert_eq!(&raw, want, "failover through the router changed bytes");
    }
    stop_router(router, handles);
}

/// Jobs submitted through the router come back with fleet-global ids —
/// the owning shard in the high bits — and fetch the synchronous bytes.
#[test]
fn router_jobs_carry_global_ids_and_synchronous_bytes() {
    let (handles, addrs) = start_shards(2, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut routed = Client::connect(router.local_addr()).expect("connect router");

    let mut owned = [false; 2];
    let mut jobs = Vec::new();
    let queueable = pool()
        .into_iter()
        .filter(|req| matches!(req, Request::Simulate { .. }));
    for req in queueable {
        if owned == [true, true] {
            break;
        }
        let (_, want) = routed.call_text(&req).expect("synchronous call");
        let id = match routed
            .call(&Request::Submit {
                job: Box::new(req.clone()),
            })
            .expect("submit")
        {
            Response::JobAccepted { id } => id,
            other => panic!("expected JobAccepted, got {other:?}"),
        };
        let (shard, _) = unwrap_job_id(id);
        assert!(shard < 2, "job {id} names shard {shard} in a 2-shard fleet");
        owned[shard] = true;
        jobs.push((id, want));
    }
    assert_eq!(
        owned,
        [true, true],
        "the pool's jobs must land on both shards"
    );

    let deadline = Instant::now() + Duration::from_secs(20);
    for (id, want) in &jobs {
        loop {
            match routed.call(&Request::Poll { id: *id }).expect("poll") {
                Response::JobStatus {
                    id: got,
                    state: JobState::Done,
                    ..
                } => {
                    assert_eq!(got, *id, "poll answered a shard-local id");
                    break;
                }
                Response::JobStatus { state, .. } => {
                    assert!(!state.is_terminal(), "job {id} ended in {state:?}");
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected JobStatus, got {other:?}"),
            }
        }
        let (_, raw) = routed
            .call_text(&Request::Fetch { id: *id })
            .expect("fetch");
        assert_eq!(&raw, want, "job {id} fetched other bytes than the call");
    }
    stop_router(router, handles);
}

/// A job id whose high bits name a shard the fleet does not have is a
/// structured error, not a hang or a dropped connection.
#[test]
fn router_refuses_a_job_id_naming_a_missing_shard() {
    let (handles, addrs) = start_shards(2, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut routed = Client::connect(router.local_addr()).expect("connect router");
    let id = (5u64 << 40) | 1;
    assert_eq!(unwrap_job_id(id), (5, 1));
    match routed.call(&Request::Poll { id }).expect("router answers") {
        Response::Error { message } => assert!(message.contains("fleet has 2"), "{message}"),
        other => panic!("expected a structured error, got {other:?}"),
    }
    stop_router(router, handles);
}

/// Six identical cacheable requests: the key turns hot on its fourth
/// sighting, so from the fifth on the router answers from its own cache.
#[test]
fn router_serves_hot_keys_from_its_own_cache() {
    let (handles, addrs) = start_shards(2, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut routed = Client::connect(router.local_addr()).expect("connect router");
    let req = &pool()[1];
    let (_, first) = routed.call_text(req).expect("first call");
    for _ in 1..6 {
        let (_, raw) = routed.call_text(req).expect("repeat call");
        assert_eq!(raw, first, "a router cache hit changed bytes");
    }

    // Each shard's total counts the `stats` request asking for it.
    let reached: u64 = addrs
        .iter()
        .map(|addr| {
            let mut c = Client::connect(addr).expect("connect shard");
            match c.call(&Request::Stats).expect("shard stats") {
                Response::Stats { requests, .. } => requests - 1,
                other => panic!("expected stats, got {other:?}"),
            }
        })
        .sum();
    assert!(
        reached <= 4,
        "{reached} of 6 identical requests reached a shard"
    );
    match routed.call(&Request::Metrics).expect("fleet metrics") {
        Response::Metrics { hot_keys, .. } => assert_eq!(hot_keys, 1),
        other => panic!("expected metrics, got {other:?}"),
    }
    stop_router(router, handles);
}

/// Runs `body` against the address of a fake shard that answers every
/// frame `busy`, as a shard does while it drains or its queue is full.
fn with_shedding_shard<T>(body: impl FnOnce(&str) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    listener.set_nonblocking(true).expect("nonblocking accept");
    let addr = listener.local_addr().expect("fake shard addr").to_string();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::scope(|conns| {
                while !done.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            stream.set_nonblocking(false).expect("blocking stream");
                            conns.spawn(move || {
                                while read_frame(&mut stream).is_ok() {
                                    if write_frame(&mut stream, r#"{"type":"busy"}"#).is_err() {
                                        return;
                                    }
                                }
                            });
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            });
        });
        // Stop accepting even when `body` fails, or the scope never ends.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&addr)));
        done.store(true, Ordering::Relaxed);
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// When at least one shard is reachable and every reachable shard sheds
/// a pure verb, the fleet's answer is `busy` — from `FleetClient` and
/// through the router alike, whichever of the two shards owns the key.
/// Only a fleet with no reachable shard is a transport error.
#[test]
fn a_fleet_whose_reachable_shards_all_shed_answers_busy() {
    // Nothing listens on port 1.
    let dead = "127.0.0.1:1".to_string();
    with_shedding_shard(|shedding| {
        let addrs = vec![shedding.to_string(), dead.clone()];
        let mut direct = FleetClient::connect(&addrs);
        for req in pool() {
            match direct.call(&req) {
                Ok(Response::Busy) => {}
                other => panic!(
                    "FleetClient {}: expected busy, got {other:?}",
                    req.endpoint()
                ),
            }
        }
        drop(direct);

        let router = start_router(&addrs);
        let mut routed = Client::connect(router.local_addr()).expect("connect router");
        for req in pool() {
            match routed.call(&req) {
                Ok(Response::Busy) => {}
                other => panic!("router {}: expected busy, got {other:?}", req.endpoint()),
            }
        }
        drop(routed);
        stop_router(router, Vec::new());
    });
    let mut nowhere = FleetClient::connect(&[dead]);
    match nowhere.call(&pool()[0]) {
        Err(e) if e.is_transport() => {}
        other => panic!("an unreachable fleet: expected a transport error, got {other:?}"),
    }
}

/// The router owes a connection caught mid-frame the same bounded drain
/// grace as a daemon: with one client stalled inside a frame, `join`
/// returns once another client sends `shutdown`.
#[test]
fn router_drain_gives_up_on_a_connection_stalled_mid_frame() {
    let (handles, addrs) = start_shards(1, &ServerConfig::default());
    let router = start_router(&addrs);
    let mut stalled = TcpStream::connect(router.local_addr()).expect("connect router");
    stalled.write_all(&100u32.to_be_bytes()).expect("prefix");
    stalled.write_all(b"a partial").expect("partial payload");
    // Let the router accept the connection and read into the frame.
    std::thread::sleep(Duration::from_millis(200));
    // Stop and join on a side thread, so that a hang fails the test.
    let (joined, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop_router(router, handles);
        let _ = joined.send(());
    });
    done.recv_timeout(Duration::from_secs(5))
        .expect("router join hung on a connection stalled mid-frame");
    drop(stalled);
}
