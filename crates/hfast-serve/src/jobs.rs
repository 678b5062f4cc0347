//! Durable job queue: `submit` / `poll` / `fetch` / `cancel` for
//! long-running verbs.
//!
//! Synchronous request/response caps how long a verb may run at the
//! connection deadline; a faulted ultra-scale replay does not fit. The
//! queue gives those verbs the asynchronous shape: `submit` returns a job
//! id immediately, `poll` reports progress, `fetch` returns the result
//! once done, `cancel` withdraws work that has not started.
//!
//! **Durability** is a JSON-lines journal (one line per state change)
//! replayed on restart:
//!
//! ```text
//! {"op":"submit","id":3,"job":"{\"type\":\"simulate\",...}"}
//! {"op":"done","id":3,"resp":"{\"type\":\"sim\",...}"}
//! {"op":"fail","id":4,"message":"panicked: ..."}
//! {"op":"cancel","id":5}
//! ```
//!
//! Payloads are embedded as JSON *strings* (escaped canonical v1
//! encodings) so the line grammar stays flat and replay restores the
//! response text byte-exactly. Replay tolerates a torn final line — the
//! crash case — truncating the fragment so the next record starts on a
//! fresh line, and re-enqueues every job with no terminal record: a
//! submitted job is never lost and never duplicated across a restart.
//! Terminal jobs are retained for `poll`/`fetch` up to
//! [`MAX_TERMINAL_JOBS`], then evicted oldest-first so a long-lived
//! daemon's memory stays bounded.
//!
//! **Retries** reuse the netsim [`RetryPolicy`] shape: a panicking
//! attempt re-enqueues with exponential backoff until the max-attempt cap
//! turns it into a terminal failure. Structured [`Response::Error`]s are
//! terminal immediately — they are deterministic verdicts, not transient
//! faults.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hfast_netsim::RetryPolicy;
use hfast_obs::JsonObj;
use hfast_trace::json;

use crate::handlers::execute;
use crate::protocol::{
    decode_request, encode_request, encode_response, JobState, JobTotals, Request, Response,
};
use crate::registry::Registry;

/// Upper bound on *live* (non-terminal) jobs before `submit` sheds;
/// keeps the backlog and the in-memory map proportionate. Terminal jobs
/// do not count — their retention is bounded by [`MAX_TERMINAL_JOBS`].
pub const MAX_RESIDENT_JOBS: usize = 4096;

/// How many terminal (done/failed/cancelled) jobs stay resident for
/// `poll`/`fetch` before the oldest is evicted. Without this bound a
/// long-running daemon's map would grow with *lifetime* submissions and
/// eventually answer `Busy` forever.
pub const MAX_TERMINAL_JOBS: usize = 4096;

/// How long a worker sleeps when every ready job is still backing off.
const BACKOFF_TICK: Duration = Duration::from_millis(20);

struct JobRecord {
    req: Request,
    state: JobState,
    attempts: u32,
    message: Option<String>,
    /// Canonical v1 response text, present once `state == Done`.
    response: Option<String>,
    /// Earliest instant the next attempt may start (backoff gate).
    not_before: Option<Instant>,
}

struct QueueState {
    jobs: HashMap<u64, JobRecord>,
    ready: VecDeque<u64>,
    /// Ids in terminal order, oldest first — the eviction queue.
    terminal: VecDeque<u64>,
    totals: JobTotals,
    draining: bool,
}

impl QueueState {
    /// Jobs still counting against [`MAX_RESIDENT_JOBS`].
    fn live(&self) -> usize {
        self.jobs.len() - self.terminal.len()
    }

    /// Records a terminal transition and evicts the oldest terminal jobs
    /// past the retention bound.
    fn note_terminal(&mut self, id: u64) {
        self.terminal.push_back(id);
        while self.terminal.len() > MAX_TERMINAL_JOBS {
            let evicted = self.terminal.pop_front().unwrap();
            self.jobs.remove(&evicted);
        }
    }
}

/// Outcome of [`JobQueue::fetch`]: either the stored canonical response
/// text (pass-through, byte-identical to a synchronous run) or a status.
pub enum Fetched {
    /// The job finished; this is its canonical v1 response text.
    Ready(String),
    /// The job is not done (or does not exist): a status response.
    Status(Response),
}

/// A durable, retrying job queue shared by the server's job workers.
pub struct JobQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    journal: Mutex<Option<File>>,
    next_id: AtomicU64,
    retry: RetryPolicy,
}

impl JobQueue {
    /// An in-memory queue (no journal — jobs do not survive a restart).
    pub fn new(retry: RetryPolicy) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: HashMap::new(),
                ready: VecDeque::new(),
                terminal: VecDeque::new(),
                totals: JobTotals::default(),
                draining: false,
            }),
            cond: Condvar::new(),
            journal: Mutex::new(None),
            next_id: AtomicU64::new(1),
            retry,
        }
    }

    /// A journaled queue: replays `path` if it exists (re-enqueueing every
    /// non-terminal job), then appends new records to it.
    pub fn with_journal(path: &Path, retry: RetryPolicy) -> io::Result<JobQueue> {
        let queue = JobQueue::new(retry);
        let mut text = String::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let (valid_len, unterminated) = queue.replay(&text);
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        // Drop the torn tail so the next record starts on a fresh line
        // instead of merging into the fragment; a final valid record the
        // crash cut at the newline gets its newline back instead.
        if (valid_len as usize) < text.len() {
            file.set_len(valid_len)?;
        }
        if unterminated {
            file.write_all(b"\n")?;
        }
        *queue.journal.lock().unwrap() = Some(file);
        Ok(queue)
    }

    /// Applies journal text to the (empty) queue. Stops at the first
    /// malformed line: a torn tail is the expected crash artifact, and
    /// anything after it is suspect. Returns how many leading bytes of
    /// `text` form valid records and whether the final valid record is
    /// missing its trailing newline, so the caller can repair the file
    /// before appending.
    fn replay(&self, text: &str) -> (u64, bool) {
        let mut st = self.state.lock().unwrap();
        let mut max_id = 0u64;
        let mut valid_len = 0usize;
        let mut unterminated = false;
        for segment in text.split_inclusive('\n') {
            let line = segment.strip_suffix('\n').unwrap_or(segment);
            let Ok(v) = json::parse(line) else { break };
            let (Some(op), Some(id)) = (
                v.get("op").and_then(|o| o.as_str()),
                v.get("id").and_then(|i| i.as_u64()),
            ) else {
                break;
            };
            let applied = match op {
                "submit" => match v
                    .get("job")
                    .and_then(|j| j.as_str())
                    .and_then(|s| decode_request(s).ok())
                {
                    Some(req) => {
                        st.jobs.insert(
                            id,
                            JobRecord {
                                req,
                                state: JobState::Queued,
                                attempts: 0,
                                message: None,
                                response: None,
                                not_before: None,
                            },
                        );
                        st.totals.submitted += 1;
                        true
                    }
                    None => false,
                },
                "done" => match v.get("resp").and_then(|r| r.as_str()) {
                    Some(resp) => {
                        let hit = match st.jobs.get_mut(&id) {
                            Some(rec) => {
                                rec.state = JobState::Done;
                                rec.response = Some(resp.to_string());
                                true
                            }
                            None => false,
                        };
                        if hit {
                            st.totals.completed += 1;
                            st.note_terminal(id);
                        }
                        true
                    }
                    None => false,
                },
                "fail" => {
                    let message = v.get("message").and_then(|m| m.as_str()).unwrap_or("");
                    let hit = match st.jobs.get_mut(&id) {
                        Some(rec) => {
                            rec.state = JobState::Failed;
                            rec.message = Some(message.to_string());
                            true
                        }
                        None => false,
                    };
                    if hit {
                        st.totals.failed += 1;
                        st.note_terminal(id);
                    }
                    true
                }
                "cancel" => {
                    let hit = match st.jobs.get_mut(&id) {
                        Some(rec) => {
                            rec.state = JobState::Cancelled;
                            true
                        }
                        None => false,
                    };
                    if hit {
                        st.totals.cancelled += 1;
                        st.note_terminal(id);
                    }
                    true
                }
                _ => false,
            };
            if !applied {
                break;
            }
            max_id = max_id.max(id);
            valid_len += segment.len();
            unterminated = !segment.ends_with('\n');
        }
        // Re-enqueue survivors in id order: deterministic restart order.
        let mut pending: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal())
            .map(|(&id, _)| id)
            .collect();
        pending.sort_unstable();
        for id in pending {
            st.jobs.get_mut(&id).unwrap().state = JobState::Queued;
            st.ready.push_back(id);
        }
        self.next_id.store(max_id + 1, Ordering::SeqCst);
        (valid_len as u64, unterminated)
    }

    fn journal_line(&self, line: &str) {
        let mut guard = self.journal.lock().unwrap();
        if let Some(f) = guard.as_mut() {
            // Single write of line + newline: a crash tears at most the
            // final line, which replay tolerates.
            let mut buf = String::with_capacity(line.len() + 1);
            buf.push_str(line);
            buf.push('\n');
            let _ = f.write_all(buf.as_bytes());
            let _ = f.flush();
        }
    }

    fn has_journal(&self) -> bool {
        self.journal.lock().unwrap().is_some()
    }

    /// Accepts a queueable request as a job, returning its id.
    ///
    /// Rejects non-queueable verbs, a full queue, and — unless a journal
    /// makes the job durable across the restart — a draining server.
    /// The `Err` carries the refusal response verbatim.
    #[allow(clippy::result_large_err)] // the Err *is* the wire response
    pub fn submit(&self, job: Request) -> Result<u64, Response> {
        if !job.spec().queueable {
            return Err(Response::Error {
                message: format!("verb {:?} is not queueable", job.endpoint()),
            });
        }
        let mut st = self.state.lock().unwrap();
        if st.draining && !self.has_journal() {
            return Err(Response::Busy);
        }
        if st.live() >= MAX_RESIDENT_JOBS {
            return Err(Response::Busy);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let line = JsonObj::new()
            .str("op", "submit")
            .u64("id", id)
            .str("job", &encode_request(&job))
            .finish();
        st.jobs.insert(
            id,
            JobRecord {
                req: job,
                state: JobState::Queued,
                attempts: 0,
                message: None,
                response: None,
                not_before: None,
            },
        );
        st.totals.submitted += 1;
        st.ready.push_back(id);
        // Journal while still holding the state lock: a worker can pick
        // the job up the instant the lock drops, and its terminal record
        // must never reach the journal before this submit record.
        self.journal_line(&line);
        drop(st);
        self.cond.notify_one();
        Ok(id)
    }

    fn status_of(id: u64, rec: &JobRecord) -> Response {
        Response::JobStatus {
            id,
            state: rec.state,
            attempts: rec.attempts,
            message: rec.message.clone(),
        }
    }

    /// Reports a job's status (idempotent). Terminal jobs evicted past
    /// [`MAX_TERMINAL_JOBS`] report "no such job".
    pub fn poll(&self, id: u64) -> Response {
        let st = self.state.lock().unwrap();
        match st.jobs.get(&id) {
            Some(rec) => Self::status_of(id, rec),
            None => Response::Error {
                message: format!("no such job {id}"),
            },
        }
    }

    /// Returns the stored response of a done job, or its status
    /// (idempotent — fetching twice returns the same bytes, until the
    /// job ages past the [`MAX_TERMINAL_JOBS`] retention bound).
    pub fn fetch(&self, id: u64) -> Fetched {
        let st = self.state.lock().unwrap();
        match st.jobs.get(&id) {
            Some(rec) => match &rec.response {
                Some(text) => Fetched::Ready(text.clone()),
                None => Fetched::Status(Self::status_of(id, rec)),
            },
            None => Fetched::Status(Response::Error {
                message: format!("no such job {id}"),
            }),
        }
    }

    /// Cancels a queued job. Running and terminal jobs are left untouched
    /// (their current status is returned), so cancel is idempotent.
    pub fn cancel(&self, id: u64) -> Response {
        let mut st = self.state.lock().unwrap();
        let Some(rec) = st.jobs.get_mut(&id) else {
            return Response::Error {
                message: format!("no such job {id}"),
            };
        };
        if rec.state == JobState::Queued {
            rec.state = JobState::Cancelled;
            let resp = Self::status_of(id, rec);
            st.totals.cancelled += 1;
            st.ready.retain(|&r| r != id);
            st.note_terminal(id);
            self.journal_line(&JsonObj::new().str("op", "cancel").u64("id", id).finish());
            resp
        } else {
            Self::status_of(id, rec)
        }
    }

    /// Lifetime job counters for the stats verb.
    pub fn totals(&self) -> JobTotals {
        self.state.lock().unwrap().totals
    }

    /// Jobs not yet in a terminal state (queued or running).
    pub fn pending(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.jobs.values().filter(|r| !r.state.is_terminal()).count()
    }

    /// Stops workers: in-flight attempts finish, queued jobs stay journaled
    /// for the next incarnation to replay.
    pub fn drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.cond.notify_all();
    }

    /// Pops the next runnable job id, waiting while the queue is empty or
    /// every entry is backing off. Returns `None` once draining.
    fn next_job(&self) -> Option<u64> {
        let mut st = self.state.lock().unwrap();
        loop {
            let now = Instant::now();
            if let Some(pos) = st.ready.iter().position(|id| {
                st.jobs
                    .get(id)
                    .is_some_and(|r| r.not_before.is_none_or(|t| t <= now))
            }) {
                let id = st.ready.remove(pos).unwrap();
                let rec = st.jobs.get_mut(&id).unwrap();
                rec.state = JobState::Running;
                rec.attempts += 1;
                rec.not_before = None;
                return Some(id);
            }
            if st.draining {
                return None;
            }
            // Deferred entries need a timed wait; an empty queue can block
            // until submit/drain notifies.
            st = if st.ready.is_empty() {
                self.cond.wait(st).unwrap()
            } else {
                self.cond.wait_timeout(st, BACKOFF_TICK).unwrap().0
            };
        }
    }

    /// Runs one job worker until drained. Panicking attempts retry with
    /// exponential backoff up to the policy's attempt cap; structured
    /// errors are terminal.
    pub fn run_worker(&self, reg: &Registry) {
        while let Some(id) = self.next_job() {
            let req = {
                let st = self.state.lock().unwrap();
                st.jobs.get(&id).map(|r| r.req.clone())
            };
            let Some(req) = req else { continue };
            let outcome = catch_unwind(AssertUnwindSafe(|| execute(&req, reg)));
            let mut st = self.state.lock().unwrap();
            let Some(rec) = st.jobs.get_mut(&id) else {
                continue;
            };
            match outcome {
                Ok(Response::Error { message }) => {
                    rec.state = JobState::Failed;
                    rec.message = Some(message.clone());
                    st.totals.failed += 1;
                    st.note_terminal(id);
                    drop(st);
                    self.journal_line(
                        &JsonObj::new()
                            .str("op", "fail")
                            .u64("id", id)
                            .str("message", &message)
                            .finish(),
                    );
                }
                Ok(resp) => {
                    let text = encode_response(&resp);
                    rec.state = JobState::Done;
                    rec.response = Some(text.clone());
                    st.totals.completed += 1;
                    st.note_terminal(id);
                    drop(st);
                    self.journal_line(
                        &JsonObj::new()
                            .str("op", "done")
                            .u64("id", id)
                            .str("resp", &text)
                            .finish(),
                    );
                }
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".to_string());
                    let message = format!("panicked: {what}");
                    if rec.attempts >= self.retry.attempts() {
                        rec.state = JobState::Failed;
                        rec.message = Some(message.clone());
                        st.totals.failed += 1;
                        st.note_terminal(id);
                        drop(st);
                        self.journal_line(
                            &JsonObj::new()
                                .str("op", "fail")
                                .u64("id", id)
                                .str("message", &message)
                                .finish(),
                        );
                    } else {
                        let backoff = Duration::from_nanos(self.retry.backoff_ns(rec.attempts));
                        rec.state = JobState::Queued;
                        rec.message = Some(message);
                        rec.not_before = Some(Instant::now() + backoff);
                        st.totals.retried += 1;
                        st.ready.push_back(id);
                        drop(st);
                        self.cond.notify_one();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AppSpec, FabricSpec};

    fn sim_request(procs: usize) -> Request {
        Request::Simulate {
            app: AppSpec::Inline {
                n: procs,
                edges: (0..procs)
                    .map(|i| (i, (i + 1) % procs, 64 * 1024, 16, 4096))
                    .collect(),
            },
            fabric: FabricSpec::Hfast,
            cutoff: 2048,
            faults: None,
            strategy: None,
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 1_000,
            max_backoff_ns: 10_000,
        }
    }

    #[test]
    fn submit_run_fetch_cycle() {
        let reg = Registry::new();
        let q = JobQueue::new(fast_retry());
        let id = q.submit(sim_request(8)).expect("queueable");
        // Drain after one pass so the worker loop terminates.
        let done = {
            std::thread::scope(|s| {
                let h = s.spawn(|| q.run_worker(&reg));
                loop {
                    if let Response::JobStatus { state, .. } = q.poll(id) {
                        if state.is_terminal() {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                q.drain();
                h.join().unwrap();
                q.poll(id)
            })
        };
        let Response::JobStatus {
            state, attempts, ..
        } = done
        else {
            panic!("expected status");
        };
        assert_eq!(state, JobState::Done);
        assert_eq!(attempts, 1);
        let Fetched::Ready(text) = q.fetch(id) else {
            panic!("expected stored response");
        };
        // Fetch is idempotent: same bytes again.
        let Fetched::Ready(text2) = q.fetch(id) else {
            panic!("expected stored response twice");
        };
        assert_eq!(text, text2);
        assert!(text.starts_with(r#"{"type":"sim""#), "{text}");
    }

    /// A submitted `simulate` whose inline graph is hostile fails once, as
    /// a structured error: no worker abort or panic, no retry, and a
    /// terminal journal record so a restart does not replay it.
    #[test]
    fn hostile_inline_graph_job_fails_without_retry() {
        let reg = Registry::new();
        let q = JobQueue::new(fast_retry());
        let mut ids = Vec::new();
        for (n, edges) in [
            (60_000_000, vec![]),
            (4, vec![(0usize, 7usize, 4096u64, 1u64, 4096u64)]),
        ] {
            let job = Request::Simulate {
                app: AppSpec::Inline { n, edges },
                fabric: FabricSpec::Hfast,
                cutoff: 2048,
                faults: None,
                strategy: None,
            };
            ids.push(q.submit(job).expect("queueable"));
        }
        std::thread::scope(|s| {
            let h = s.spawn(|| q.run_worker(&reg));
            while q.pending() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.drain();
            h.join().unwrap();
        });
        for id in ids {
            let Response::JobStatus {
                state,
                attempts,
                message,
                ..
            } = q.poll(id)
            else {
                panic!("expected status");
            };
            assert_eq!(state, JobState::Failed);
            assert_eq!(attempts, 1, "a structured error is terminal");
            assert!(message.unwrap().starts_with("inline "));
        }
        assert_eq!(q.totals().retried, 0);
    }

    #[test]
    fn panics_retry_to_the_cap_then_fail() {
        let reg = Registry::new();
        let q = JobQueue::new(fast_retry());
        let id = q.submit(Request::DebugPanic).expect("queueable");
        std::thread::scope(|s| {
            let h = s.spawn(|| q.run_worker(&reg));
            loop {
                if let Response::JobStatus { state, .. } = q.poll(id) {
                    if state.is_terminal() {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            q.drain();
            h.join().unwrap();
        });
        let Response::JobStatus {
            state,
            attempts,
            message,
            ..
        } = q.poll(id)
        else {
            panic!("expected status");
        };
        assert_eq!(state, JobState::Failed);
        assert_eq!(attempts, 3, "retried to the max-attempt cap");
        assert!(message.unwrap().contains("panicked"));
        assert_eq!(q.totals().retried, 2);
        assert_eq!(q.totals().failed, 1);
    }

    #[test]
    fn unqueueable_and_unknown_ids_are_structured() {
        let q = JobQueue::new(RetryPolicy::default());
        assert!(matches!(
            q.submit(Request::Health),
            Err(Response::Error { .. })
        ));
        assert!(matches!(q.poll(99), Response::Error { .. }));
        assert!(matches!(q.cancel(99), Response::Error { .. }));
        assert!(matches!(
            q.fetch(99),
            Fetched::Status(Response::Error { .. })
        ));
    }

    #[test]
    fn cancel_is_idempotent_and_only_hits_queued_jobs() {
        let q = JobQueue::new(RetryPolicy::default());
        let id = q.submit(sim_request(4)).expect("queueable");
        let Response::JobStatus { state, .. } = q.cancel(id) else {
            panic!("expected status");
        };
        assert_eq!(state, JobState::Cancelled);
        // Second cancel: same answer, no double count.
        let Response::JobStatus { state, .. } = q.cancel(id) else {
            panic!("expected status");
        };
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(q.totals().cancelled, 1);
    }

    #[test]
    fn journal_replay_restores_pending_and_done_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "hfast-jobs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let reg = Registry::new();

        // First incarnation: finish one job, leave one queued, then "crash"
        // (drop without draining the queue's backlog).
        let (done_id, pending_id, done_text) = {
            let q = JobQueue::with_journal(&path, fast_retry()).unwrap();
            let done_id = q.submit(sim_request(4)).unwrap();
            std::thread::scope(|s| {
                let h = s.spawn(|| q.run_worker(&reg));
                loop {
                    if let Response::JobStatus { state, .. } = q.poll(done_id) {
                        if state.is_terminal() {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                q.drain();
                h.join().unwrap();
            });
            let pending_id = q.submit(sim_request(6)).unwrap();
            let Fetched::Ready(text) = q.fetch(done_id) else {
                panic!("first incarnation finished the job");
            };
            (done_id, pending_id, text)
        };

        // Simulated torn tail from the crash: half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"op\":\"submit\",\"id\":9").unwrap();
        }

        // Second incarnation replays: done job still fetchable
        // byte-identically, pending job re-enqueued exactly once. It also
        // truncates the torn fragment, so its own appends start on a
        // fresh line.
        let new_id = {
            let q = JobQueue::with_journal(&path, fast_retry()).unwrap();
            let Fetched::Ready(text) = q.fetch(done_id) else {
                panic!("done job survived the restart");
            };
            assert_eq!(text, done_text, "stored response is byte-identical");
            let Response::JobStatus { state, .. } = q.poll(pending_id) else {
                panic!("pending job survived the restart");
            };
            assert_eq!(state, JobState::Queued);
            assert_eq!(q.pending(), 1, "no duplicate enqueue");
            // Fresh ids never collide with replayed ones.
            let new_id = q.submit(sim_request(4)).unwrap();
            assert!(new_id > pending_id);
            new_id
        };

        // Third incarnation: the post-crash submit must not have merged
        // into the torn fragment — every record is still replayable.
        let q = JobQueue::with_journal(&path, fast_retry()).unwrap();
        let Fetched::Ready(text) = q.fetch(done_id) else {
            panic!("done job survived two restarts");
        };
        assert_eq!(text, done_text);
        assert!(
            matches!(
                q.poll(new_id),
                Response::JobStatus {
                    state: JobState::Queued,
                    ..
                }
            ),
            "job submitted after the crash survived the next restart"
        );
        assert_eq!(q.pending(), 2, "both non-terminal jobs re-enqueued");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_tail_missing_only_its_newline_is_kept_and_repaired() {
        let dir = std::env::temp_dir().join(format!(
            "hfast-jobs-nl-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        // A crash can deliver the full final record but tear off its
        // newline: the record must replay, and the repair must keep the
        // next append from merging into it.
        {
            let line = JsonObj::new()
                .str("op", "submit")
                .u64("id", 1)
                .str("job", &encode_request(&sim_request(4)))
                .finish();
            let mut f = File::create(&path).unwrap();
            f.write_all(line.as_bytes()).unwrap();
        }
        let second_id = {
            let q = JobQueue::with_journal(&path, fast_retry()).unwrap();
            assert_eq!(q.pending(), 1, "newline-less record replayed");
            q.submit(sim_request(6)).unwrap()
        };
        let q = JobQueue::with_journal(&path, fast_retry()).unwrap();
        assert_eq!(q.pending(), 2, "repaired tail kept both records");
        assert!(matches!(
            q.poll(second_id),
            Response::JobStatus {
                state: JobState::Queued,
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn terminal_jobs_are_evicted_not_counted_against_the_cap() {
        let q = JobQueue::new(RetryPolicy::default());
        let first = q.submit(sim_request(4)).expect("queueable");
        q.cancel(first);
        // Push the oldest terminal job out of the retention window.
        for _ in 0..MAX_TERMINAL_JOBS {
            let id = q
                .submit(sim_request(4))
                .expect("terminal jobs must not brick submit");
            q.cancel(id);
        }
        assert!(
            matches!(q.poll(first), Response::Error { .. }),
            "oldest terminal job evicted"
        );
        // The map stayed bounded and submit still accepts live work.
        let fresh = q.submit(sim_request(4)).expect("cap counts live jobs only");
        assert!(matches!(
            q.poll(fresh),
            Response::JobStatus {
                state: JobState::Queued,
                ..
            }
        ));
        assert_eq!(q.totals().cancelled, (MAX_TERMINAL_JOBS as u64) + 1);
    }
}
