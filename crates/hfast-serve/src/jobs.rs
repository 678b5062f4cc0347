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
//! crash case, including a tear inside a multi-byte character, since
//! names and messages above U+007F are journaled unescaped — truncating
//! the fragment so the next record starts on a fresh line, and
//! re-enqueues every job with no terminal record: a
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
use std::io::{self, Write};
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
        // Bytes, not a `String`: a crash can cut the tail mid-character,
        // and that must read as a torn record, not an unreadable journal.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (valid_len, unterminated) = queue.replay(&bytes);
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        // Drop the torn tail so the next record starts on a fresh line
        // instead of merging into the fragment; a final valid record the
        // crash cut at the newline gets its newline back instead.
        if (valid_len as usize) < bytes.len() {
            file.set_len(valid_len)?;
        }
        if unterminated {
            file.write_all(b"\n")?;
        }
        *queue.journal.lock().unwrap() = Some(file);
        Ok(queue)
    }

    /// Applies journal bytes to the (empty) queue. Stops at the first
    /// malformed line (not UTF-8, not JSON, or not a record): a torn tail
    /// is the expected crash artifact, and anything after it is suspect.
    /// Returns how many leading bytes form valid records and whether the
    /// final valid record is missing its trailing newline, so the caller
    /// can repair the file before appending.
    fn replay(&self, bytes: &[u8]) -> (u64, bool) {
        let mut st = self.state.lock().unwrap();
        let mut max_id = 0u64;
        let mut valid_len = 0usize;
        let mut unterminated = false;
        for segment in bytes.split_inclusive(|&b| b == b'\n') {
            let line = segment.strip_suffix(b"\n").unwrap_or(segment);
            let text = std::str::from_utf8(line).ok();
            let Some(v) = text.and_then(|l| json::parse(l).ok()) else {
                break;
            };
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
            unterminated = !segment.ends_with(b"\n");
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

    /// Appends one record: `op`, `id`, and at most one string member.
    fn journal_line(&self, op: &str, id: u64, payload: Option<(&str, &str)>) {
        let mut guard = self.journal.lock().unwrap();
        if let Some(f) = guard.as_mut() {
            let mut record = JsonObj::new().str("op", op).u64("id", id);
            if let Some((key, text)) = payload {
                record = record.str(key, text);
            }
            // Single write of line + newline: a crash tears at most the
            // final line, which replay tolerates.
            let _ = f.write_all((record.finish() + "\n").as_bytes());
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
        let encoded = encode_request(&job);
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
        self.journal_line("submit", id, Some(("job", &encoded)));
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
            self.journal_line("cancel", id, None);
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
            // A structured error is a deterministic verdict, terminal at
            // once; a panic becomes one when the retry budget is spent.
            let failure = match outcome {
                Ok(Response::Error { message }) => message,
                Ok(resp) => {
                    let text = encode_response(&resp);
                    rec.state = JobState::Done;
                    rec.response = Some(text.clone());
                    st.totals.completed += 1;
                    st.note_terminal(id);
                    drop(st);
                    self.journal_line("done", id, Some(("resp", &text)));
                    continue;
                }
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".to_string());
                    let message = format!("panicked: {what}");
                    if rec.attempts < self.retry.attempts() {
                        let backoff = Duration::from_nanos(self.retry.backoff_ns(rec.attempts));
                        rec.state = JobState::Queued;
                        rec.message = Some(message);
                        rec.not_before = Some(Instant::now() + backoff);
                        st.totals.retried += 1;
                        st.ready.push_back(id);
                        drop(st);
                        self.cond.notify_one();
                        continue;
                    }
                    message
                }
            };
            rec.state = JobState::Failed;
            rec.message = Some(failure.clone());
            st.totals.failed += 1;
            st.note_terminal(id);
            drop(st);
            self.journal_line("fail", id, Some(("message", &failure)));
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

    /// A fresh directory and the journal path inside it.
    fn scratch_journal(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hfast-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        (dir, path)
    }

    #[test]
    fn journal_replay_restores_pending_and_done_jobs() {
        let (dir, path) = scratch_journal("replay");
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

    /// Asserts `q` holds exactly what replaying `ops` — `(op, id)` journal
    /// records, in order — must leave: every id in `ids` in its last
    /// recorded state (or unknown), survivors re-enqueued, totals equal to
    /// the record counts, and the `done` job's response text intact.
    fn assert_recovered(q: &JobQueue, ops: &[(&str, u64)], ids: &[u64], done: (u64, &str)) {
        let mut want: HashMap<u64, JobState> = HashMap::new();
        for &(op, id) in ops {
            let state = match op {
                "submit" => JobState::Queued,
                "done" => JobState::Done,
                "fail" => JobState::Failed,
                _ => JobState::Cancelled,
            };
            want.insert(id, state);
        }
        for id in ids {
            match (q.poll(*id), want.get(id)) {
                (Response::JobStatus { state, .. }, Some(want)) => assert_eq!(state, *want),
                (Response::Error { .. }, None) => {}
                (got, want) => panic!("job {id}: recovered {got:?}, journal says {want:?}"),
            }
        }
        let count = |op: &str| ops.iter().filter(|(o, _)| *o == op).count() as u64;
        let totals = q.totals();
        assert_eq!(
            (
                totals.submitted,
                totals.completed,
                totals.failed,
                totals.cancelled
            ),
            (
                count("submit"),
                count("done"),
                count("fail"),
                count("cancel")
            )
        );
        let queued = want.values().filter(|s| **s == JobState::Queued).count();
        assert_eq!(q.pending(), queued, "every survivor re-enqueued once");
        if want.get(&done.0) == Some(&JobState::Done) {
            assert!(matches!(q.fetch(done.0), Fetched::Ready(text) if text == done.1));
        }
    }

    /// ROADMAP 3(b), mechanically: record a journal holding every record
    /// kind and a client-supplied name above U+007F (journaled unescaped,
    /// in the submit record and in the failure message that quotes it),
    /// then open every prefix of it and every single-bit corruption of it.
    /// A tear at any byte — inside a record, between records, inside a
    /// character — must open, recover exactly the records the prefix
    /// wholly contains, and leave the file so that a record appended
    /// afterwards replays on the next open. A flipped bit must open too,
    /// and replay stops at the damaged line or (the flip left it a valid
    /// record) runs to the end.
    #[test]
    fn journal_opens_after_a_tear_or_bit_flip_at_every_offset() {
        let (dir, path) = scratch_journal("every-offset");
        let reg = Registry::new();
        let open = || JobQueue::with_journal(&path, fast_retry()).expect("damaged journal opens");
        let unknown_app = Request::Simulate {
            app: AppSpec::Named {
                name: "Gyrokinetic—Tørus".into(),
                procs: 4,
            },
            fabric: FabricSpec::Hfast,
            cutoff: 0,
            faults: None,
            strategy: None,
        };
        let (ops, done_text) = {
            let q = open();
            let a = q.submit(sim_request(4)).unwrap();
            let b = q.submit(unknown_app).unwrap();
            let c = q.submit(sim_request(5)).unwrap();
            q.cancel(c);
            std::thread::scope(|s| {
                let h = s.spawn(|| q.run_worker(&reg));
                while q.pending() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                q.drain();
                h.join().unwrap();
            });
            let d = q.submit(sim_request(6)).unwrap();
            let Fetched::Ready(done_text) = q.fetch(a) else {
                panic!("job a finished");
            };
            let ops = [
                ("submit", a),
                ("submit", b),
                ("submit", c),
                ("cancel", c),
                ("done", a),
                ("fail", b),
                ("submit", d),
            ];
            (ops, done_text)
        };
        let done = (ops[0].1, done_text.as_str());
        let journal = std::fs::read(&path).unwrap();
        let newlines: Vec<usize> = (0..journal.len())
            .filter(|&i| journal[i] == b'\n')
            .collect();
        assert_eq!(newlines.len(), ops.len(), "one line per record");
        assert!(!journal.is_ascii(), "the name is journaled unescaped");
        let ids: Vec<u64> = ops.iter().map(|&(_, id)| id).collect();

        for cut in 0..=journal.len() {
            std::fs::write(&path, &journal[..cut]).unwrap();
            // A record is whole once its closing brace is in; the newline
            // after it is repaired on open.
            let whole = newlines.iter().filter(|&&nl| nl <= cut).count();
            let q = open();
            assert_recovered(&q, &ops[..whole], &ids, done);
            let fresh = q.submit(sim_request(4)).unwrap();
            drop(q);
            let after = [&ops[..whole], &[("submit", fresh)]].concat();
            assert_recovered(&open(), &after, &[&ids[..], &[fresh]].concat(), done);
        }

        for at in 0..journal.len() {
            let mut damaged = journal.clone();
            damaged[at] ^= 1 << (at % 8);
            std::fs::write(&path, &damaged).unwrap();
            let q = open();
            let line = newlines.iter().filter(|&&nl| nl < at).count();
            let line_start = if line == 0 { 0 } else { newlines[line - 1] + 1 };
            let kept = std::fs::metadata(&path).unwrap().len() as usize;
            if kept == line_start {
                assert_recovered(&q, &ops[..line], &ids, done);
            } else {
                assert_eq!(kept, journal.len(), "byte {at}: stopped past the damage");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The parser's depth bound is what stands between a journal line and
    /// the stack: a `job` string of 100,000 open brackets is one more
    /// malformed record, where it used to abort `start()`.
    #[test]
    fn journal_job_string_nesting_bomb_is_a_torn_record() {
        let (dir, path) = scratch_journal("bomb");
        let record = |id: u64, job: &str| {
            let obj = JsonObj::new().str("op", "submit").u64("id", id);
            obj.str("job", job).finish() + "\n"
        };
        let good = record(1, &encode_request(&sim_request(4)));
        let text = good.clone() + &record(2, &"[".repeat(100_000)) + &good;
        std::fs::write(&path, text).unwrap();
        let q = JobQueue::with_journal(&path, fast_retry()).expect("opens");
        assert_eq!(q.pending(), 1, "replay stops at the bomb");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_tail_missing_only_its_newline_is_kept_and_repaired() {
        let (dir, path) = scratch_journal("newline");
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
