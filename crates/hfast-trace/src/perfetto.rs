//! Chrome trace-event (Perfetto-loadable) JSON export.
//!
//! One run becomes one browsable timeline: ranks are threads of process 1,
//! fabric links threads of process 2, and the simulator/reconfig control
//! tracks threads of process 3. Spans emit as `ph:"X"` complete events
//! (timestamps in microseconds, as the format requires), instants as
//! `ph:"i"`, and cross-track causality (send → recv, flow → hop) as
//! `ph:"s"`/`ph:"f"` flow arrows so Perfetto draws the message edges.
//!
//! [`validate`] re-parses an exported document with the in-repo JSON
//! parser and checks the structural contract the acceptance criteria
//! name: valid JSON, at least one track per rank and per used link, and
//! no recv span without its send parent.

use std::collections::{BTreeMap, BTreeSet};

use hfast_obs::JsonObj;

use crate::json::{self, JsonValue};
use crate::span::{SpanRecord, Track};

/// `(pid, tid)` coordinates of a track in the exported document.
pub(crate) fn track_coords(track: Track) -> (u64, u64) {
    match track {
        Track::Rank(r) => (1, r as u64),
        Track::Link(l) => (2, l as u64),
        Track::Engine => (3, 0),
        Track::Reconfig => (3, 1),
        Track::Server(c) => (4, c as u64),
    }
}

fn track_label(track: Track) -> String {
    match track {
        Track::Rank(r) => format!("rank {r}"),
        Track::Link(l) => format!("link {l}"),
        Track::Engine => "event loop".to_string(),
        Track::Reconfig => "reconfig".to_string(),
        Track::Server(c) => format!("conn {c}"),
    }
}

fn process_label(pid: u64) -> &'static str {
    match pid {
        1 => "ranks",
        2 => "links",
        4 => "server",
        _ => "engine",
    }
}

/// Microseconds with nanosecond precision, as trace-event `ts`/`dur`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders spans as a complete Chrome trace-event JSON document.
///
/// Deterministic: the caller should pass a [`TraceRecorder::snapshot`]
/// (already sorted); this function adds no ordering of its own beyond
/// sorted metadata.
///
/// [`TraceRecorder::snapshot`]: crate::span::TraceRecorder::snapshot
pub fn export(spans: &[SpanRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2 + 16);

    // Metadata: name every process and track that appears.
    let tracks: BTreeSet<Track> = spans.iter().map(|s| s.track).collect();
    let pids: BTreeSet<u64> = tracks.iter().map(|&t| track_coords(t).0).collect();
    for pid in &pids {
        events.push(
            JsonObj::new()
                .str("ph", "M")
                .str("name", "process_name")
                .u64("pid", *pid)
                .u64("tid", 0)
                .raw(
                    "args",
                    &JsonObj::new().str("name", process_label(*pid)).finish(),
                )
                .finish(),
        );
    }
    for track in &tracks {
        let (pid, tid) = track_coords(*track);
        events.push(
            JsonObj::new()
                .str("ph", "M")
                .str("name", "thread_name")
                .u64("pid", pid)
                .u64("tid", tid)
                .raw(
                    "args",
                    &JsonObj::new().str("name", &track_label(*track)).finish(),
                )
                .finish(),
        );
    }

    // Span/instant events.
    let mut span_sites: BTreeMap<u64, (Track, u64)> = BTreeMap::new();
    for s in spans {
        if s.span_id != 0 {
            span_sites.entry(s.span_id).or_insert((s.track, s.t_ns));
        }
    }
    for s in spans {
        let (pid, tid) = track_coords(s.track);
        let mut args = JsonObj::new();
        if s.span_id != 0 {
            args = args.u64("span", s.span_id);
        }
        if s.parent_id != 0 {
            args = args.u64("parent", s.parent_id);
        }
        for (k, v) in &s.fields {
            args = args.u64(k, *v);
        }
        let mut obj = JsonObj::new()
            .str("ph", if s.dur_ns > 0 { "X" } else { "i" })
            .str("name", s.name)
            .str("cat", "hfast")
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("ts", &us(s.t_ns));
        if s.dur_ns > 0 {
            obj = obj.raw("dur", &us(s.dur_ns));
        } else {
            obj = obj.str("s", "t");
        }
        events.push(obj.raw("args", &args.finish()).finish());

        // Causal arrow when the parent lives on another track.
        if s.parent_id != 0 && s.span_id != 0 {
            if let Some(&(ptrack, pts)) = span_sites.get(&s.parent_id) {
                if ptrack != s.track {
                    let (ppid, ptid) = track_coords(ptrack);
                    events.push(
                        JsonObj::new()
                            .str("ph", "s")
                            .str("name", "causal")
                            .str("cat", "causal")
                            .u64("id", s.span_id)
                            .u64("pid", ppid)
                            .u64("tid", ptid)
                            .raw("ts", &us(pts))
                            .finish(),
                    );
                    events.push(
                        JsonObj::new()
                            .str("ph", "f")
                            .str("bp", "e")
                            .str("name", "causal")
                            .str("cat", "causal")
                            .u64("id", s.span_id)
                            .u64("pid", pid)
                            .u64("tid", tid)
                            .raw("ts", &us(s.t_ns))
                            .finish(),
                    );
                }
            }
        }
    }

    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(ev);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Structural statistics of an exported document, from [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Distinct rank tracks (process 1 threads with events).
    pub rank_tracks: usize,
    /// Distinct link tracks (process 2 threads with events).
    pub link_tracks: usize,
    /// Non-metadata events.
    pub events: usize,
    /// `recv`-family spans whose `parent` arg is present in the document.
    pub linked_recvs: usize,
    /// `recv`-family spans with no parent or a dangling parent id.
    pub orphan_recvs: usize,
}

/// Parses an exported document and checks the trace-event contract.
///
/// Errors on malformed JSON or a missing `traceEvents` array. A recv
/// counts as *linked* when its `args.parent` names a span id defined by
/// some other event in the document.
pub fn validate(document: &str) -> Result<TraceStats, String> {
    let root = json::parse(document)?;
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut span_ids: BTreeSet<u64> = BTreeSet::new();
    for ev in events {
        if let Some(id) = ev
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(JsonValue::as_u64)
        {
            span_ids.insert(id);
        }
    }

    let mut rank_tracks = BTreeSet::new();
    let mut link_tracks = BTreeSet::new();
    let mut stats = TraceStats {
        rank_tracks: 0,
        link_tracks: 0,
        events: 0,
        linked_recvs: 0,
        orphan_recvs: 0,
    };
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "M" {
            continue;
        }
        stats.events += 1;
        let pid = ev.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        match pid {
            1 => {
                rank_tracks.insert(tid);
            }
            2 => {
                link_tracks.insert(tid);
            }
            _ => {}
        }
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if matches!(name, "recv" | "wait" | "sendrecv_recv") {
            let parent = ev
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(JsonValue::as_u64);
            match parent {
                Some(p) if span_ids.contains(&p) => stats.linked_recvs += 1,
                _ => stats.orphan_recvs += 1,
            }
        }
    }
    stats.rank_tracks = rank_tracks.len();
    stats.link_tracks = link_tracks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{rank_span_id, TraceRecorder};

    fn sample() -> Vec<SpanRecord> {
        let rec = TraceRecorder::new();
        let send = rank_span_id(0, 1);
        let recv = rank_span_id(1, 1);
        rec.record_span(
            Track::Rank(0),
            "send",
            100,
            50,
            send,
            0,
            vec![("bytes", 64)],
        );
        rec.record_span(
            Track::Rank(1),
            "recv",
            200,
            80,
            recv,
            send,
            vec![("bytes", 64)],
        );
        rec.record_span(Track::Link(7), "hop", 120, 30, 0, send, vec![("wait", 5)]);
        rec.record_span(Track::Engine, "fault", 150, 0, 0, 0, vec![("link", 7)]);
        rec.snapshot()
    }

    #[test]
    fn export_is_valid_and_complete() {
        let doc = export(&sample());
        let stats = validate(&doc).expect("valid trace JSON");
        assert_eq!(stats.rank_tracks, 2);
        assert_eq!(stats.link_tracks, 1);
        assert_eq!(stats.linked_recvs, 1);
        assert_eq!(stats.orphan_recvs, 0);
        assert!(stats.events >= 4);
        assert!(doc.contains(r#""ph":"s""#), "flow arrow start");
        assert!(doc.contains(r#""ph":"f""#), "flow arrow finish");
        assert!(doc.contains(r#""name":"rank 1""#), "thread metadata");
        assert!(doc.contains(r#""name":"links""#), "process metadata");
    }

    #[test]
    fn timestamps_are_microseconds() {
        let doc = export(&sample());
        // 100 ns → 0.100 µs.
        assert!(doc.contains(r#""ts":0.100"#), "ns→µs conversion: {doc}");
    }

    #[test]
    fn orphan_recv_is_counted() {
        let rec = TraceRecorder::new();
        rec.record_span(
            Track::Rank(0),
            "recv",
            10,
            5,
            rank_span_id(0, 1),
            999,
            vec![],
        );
        let stats = validate(&export(&rec.snapshot())).unwrap();
        assert_eq!(stats.orphan_recvs, 1);
        assert_eq!(stats.linked_recvs, 0);
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(export(&sample()), export(&sample()));
    }
}
