//! Request-serving observability: the metric set a long-running daemon
//! needs to explain itself.
//!
//! [`ServeObs`] is endpoint-label generic — the daemon hands it the
//! endpoint names once at construction and records by index afterwards —
//! so this crate stays ignorant of any particular protocol. The fields
//! mirror what a production RPC server exports: request counts by
//! endpoint, an in-flight level gauge, load-shed and error counters, and
//! queue-wait / service-time histograms for tail-latency accounting.
//!
//! Like every other obs struct in the workspace, collection itself is
//! always cheap (relaxed atomics); the JSONL *export* on drain goes
//! through [`crate::Sink`] and only fires when `HFAST_OBS` asks for it.

use crate::counter::{Counter, Gauge};
use crate::hist::Histogram;
use crate::json::JsonObj;

/// Metrics for one serving daemon instance.
#[derive(Debug)]
pub struct ServeObs {
    endpoints: Vec<&'static str>,
    requests: Vec<Counter>,
    service_ns_by_endpoint: Vec<Histogram>,
    /// Requests admitted but not yet responded to.
    pub in_flight: Gauge,
    /// Highest in-flight level observed.
    pub in_flight_peak: Gauge,
    /// Requests refused a compute permit: `queue_cap` others already
    /// waiting, or the daemon draining.
    pub shed: Counter,
    /// Requests still waiting for a compute permit at their deadline.
    pub expired: Counter,
    /// Structured error responses returned (bad requests, handler
    /// failures); sheds and expiries are counted separately.
    pub errors: Counter,
    /// Handler panics converted into structured error responses.
    pub panics: Counter,
    /// Connections accepted over the daemon's lifetime.
    pub connections: Counter,
    /// Nanoseconds each compute request waited for a permit.
    pub queue_wait_ns: Histogram,
    /// Nanoseconds each compute request spent executing its handler.
    pub service_ns: Histogram,
}

impl ServeObs {
    /// A zeroed metric set labelled with `endpoints` (index order is the
    /// record order used by [`record_request`](Self::record_request)).
    pub fn new(endpoints: &[&'static str]) -> Self {
        ServeObs {
            endpoints: endpoints.to_vec(),
            requests: endpoints.iter().map(|_| Counter::new()).collect(),
            service_ns_by_endpoint: endpoints.iter().map(|_| Histogram::new()).collect(),
            in_flight: Gauge::new(),
            in_flight_peak: Gauge::new(),
            shed: Counter::new(),
            expired: Counter::new(),
            errors: Counter::new(),
            panics: Counter::new(),
            connections: Counter::new(),
            queue_wait_ns: Histogram::new(),
            service_ns: Histogram::new(),
        }
    }

    /// Counts one request against endpoint index `idx` (ignores an index
    /// outside the label set rather than panicking in the serve path).
    #[inline]
    pub fn record_request(&self, idx: usize) {
        if let Some(c) = self.requests.get(idx) {
            c.inc();
        }
    }

    /// Requests recorded against endpoint index `idx`.
    pub fn requests_for(&self, idx: usize) -> u64 {
        self.requests.get(idx).map_or(0, Counter::get)
    }

    /// Records one end-to-end serve latency against endpoint index `idx`
    /// (parse to response written, measured at the connection). The
    /// aggregate [`service_ns`](Self::service_ns) histogram keeps its
    /// handler-execute meaning and is recorded separately; out-of-range
    /// indices are ignored like [`record_request`](Self::record_request).
    #[inline]
    pub fn record_service(&self, idx: usize, ns: u64) {
        if let Some(h) = self.service_ns_by_endpoint.get(idx) {
            h.record(ns);
        }
    }

    /// Lifetime service-latency histogram of endpoint index `idx`; `None`
    /// out of range.
    pub fn service_for(&self, idx: usize) -> Option<&Histogram> {
        self.service_ns_by_endpoint.get(idx)
    }

    /// Requests recorded across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// Marks a request admitted (raises the in-flight level and its peak).
    #[inline]
    pub fn request_admitted(&self) {
        self.in_flight.inc();
        self.in_flight_peak.set_max(self.in_flight.get());
    }

    /// Marks a request responded to (lowers the in-flight level).
    #[inline]
    pub fn request_done(&self) {
        self.in_flight.dec();
    }

    /// The drain-time summary as JSON Lines: one `serve_endpoint` record
    /// per label plus one `serve_summary` record with the aggregate
    /// counters and latency quantiles.
    pub(crate) fn summary_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .endpoints
            .iter()
            .zip(&self.requests)
            .zip(&self.service_ns_by_endpoint)
            .map(|((name, count), service)| {
                JsonObj::new()
                    .str("event", "serve_endpoint")
                    .str("endpoint", name)
                    .u64("requests", count.get())
                    .u64("service_p50_ns", service.quantile(0.50))
                    .u64("service_p95_ns", service.quantile(0.95))
                    .u64("service_p99_ns", service.quantile(0.99))
                    .finish()
            })
            .collect();
        lines.push(
            JsonObj::new()
                .str("event", "serve_summary")
                .u64("requests", self.total_requests())
                .u64("connections", self.connections.get())
                .u64("in_flight", self.in_flight.get())
                .u64("in_flight_peak", self.in_flight_peak.get())
                .u64("shed", self.shed.get())
                .u64("expired", self.expired.get())
                .u64("errors", self.errors.get())
                .u64("panics", self.panics.get())
                .u64("queue_wait_p50_ns", self.queue_wait_ns.quantile(0.50))
                .u64("queue_wait_p95_ns", self.queue_wait_ns.quantile(0.95))
                .u64("queue_wait_p99_ns", self.queue_wait_ns.quantile(0.99))
                .u64("service_p50_ns", self.service_ns.quantile(0.50))
                .u64("service_p95_ns", self.service_ns.quantile(0.95))
                .u64("service_p99_ns", self.service_ns.quantile(0.99))
                .finish(),
        );
        lines
    }

    /// Appends `summary_lines` to the `HFAST_OBS` sink; a no-op when
    /// `HFAST_OBS` is off. Called once on daemon drain.
    pub fn export(&self) {
        if let Some(sink) = crate::sink("HFAST_OBS") {
            let mut text = String::new();
            for line in self.summary_lines() {
                text.push_str(&line);
                text.push('\n');
            }
            sink.write(&text, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_endpoint_index() {
        let obs = ServeObs::new(&["alpha", "beta"]);
        obs.record_request(0);
        obs.record_request(0);
        obs.record_request(1);
        obs.record_request(7); // out of range: ignored
        assert_eq!(obs.requests_for(0), 2);
        assert_eq!(obs.requests_for(1), 1);
        assert_eq!(obs.requests_for(7), 0);
        assert_eq!(obs.total_requests(), 3);
    }

    #[test]
    fn in_flight_level_and_peak() {
        let obs = ServeObs::new(&["a"]);
        obs.request_admitted();
        obs.request_admitted();
        obs.request_done();
        obs.request_admitted();
        assert_eq!(obs.in_flight.get(), 2);
        assert_eq!(obs.in_flight_peak.get(), 2);
    }

    #[test]
    fn summary_lines_parse_and_cover_endpoints() {
        let obs = ServeObs::new(&["tdc", "cost"]);
        obs.record_request(0);
        obs.shed.inc();
        obs.queue_wait_ns.record(1_000);
        obs.service_ns.record(50_000);
        let lines = obs.summary_lines();
        assert_eq!(lines.len(), 3, "one per endpoint plus the summary");
        assert!(lines[0].contains("\"endpoint\":\"tdc\""));
        assert!(lines[1].contains("\"endpoint\":\"cost\""));
        let summary = &lines[2];
        assert!(summary.contains("\"event\":\"serve_summary\""));
        assert!(summary.contains("\"shed\":1"));
        assert!(summary.contains("\"requests\":1"));
    }
}
