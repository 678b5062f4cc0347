//! The benchmark's own in-memory span recorder: one span around each call
//! into a layer, kept in a `Vec` and written to `benchmark/out/` when the
//! traced run ends. Spans inside the crates are a later issue; these are
//! taken from outside, at the public API boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `parent` is the index of the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The op (call) this span belongs to; spans of one op share it.
    pub op: u32,
}

/// Token returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A single-threaded span recorder. Switched off it costs one branch per
/// call, which is what the untraced passes run with.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Marks the start of the next op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Nanoseconds since this recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let now = if self.on { self.now_ns() } else { 0 };
        self.enter_at(name, now)
    }

    /// [`enter`](Spans::enter) with a timestamp the caller already took.
    pub fn enter_at(&mut self, name: &'static str, start_ns: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// # Panics
    /// If spans are closed out of order — a bug in the workload code.
    pub fn exit(&mut self, open: Open) {
        let now = if self.on { self.now_ns() } else { 0 };
        self.exit_at(open, now);
    }

    /// [`exit`](Spans::exit) with a timestamp the caller already took.
    pub fn exit_at(&mut self, open: Open, end_ns: u64) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, open.0, "spans must nest");
        self.spans[top as usize].end_ns = end_ns;
    }

    /// A leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear with open spans");
        self.spans.clear();
        self.op = 0;
    }
}

/// Self time and count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub count: u64,
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap here — the
/// recorder is single-threaded and strictly nested), summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.count += 1;
    }
    by_name
}

/// Total duration of the spans that have no parent.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes at most `cap` spans as JSON Lines (name, start, end, parent, op).
pub fn write_jsonl(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().take(cap).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        // root 0..100 { a 10..40 { c 20..30 }, b 50..90, a 90..95 }
        let tree = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("c", 20, 30, 1),
            span("b", 50, 90, 0),
            span("a", 90, 95, 0),
        ];
        let t = self_times(&tree);
        assert_eq!(t["root"].self_ns, 100 - 30 - 40 - 5);
        assert_eq!(
            t["a"],
            SelfTime {
                self_ns: 20 + 5,
                count: 2
            }
        );
        assert_eq!(t["c"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 40);
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total, root_ns(&tree));
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        let mut off = Spans::new(false);
        let o = off.enter("x");
        off.exit(o);
        assert!(off.spans().is_empty());

        let mut on = Spans::new(true);
        on.next_op();
        let outer = on.enter("outer");
        on.time("inner", || std::hint::black_box(1 + 1));
        on.exit(outer);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].op), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let total: u64 = self_times(s).values().map(|t| t.self_ns).sum();
        assert_eq!(total, root_ns(s));
    }
}
