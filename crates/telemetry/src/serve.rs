//! A dependency-free scrape endpoint: a background thread serving the
//! sink's current (non-destructive) snapshot over HTTP on a
//! `std::net::TcpListener`, in Prometheus text exposition format
//! (`GET /metrics`) and as the existing JSON summary (`GET /json`).
//!
//! The server is deliberately minimal — blocking I/O, one connection at a
//! time, `Connection: close` — because its client is a scraper polling every
//! few seconds, not a traffic-bearing endpoint. Binding port 0 picks a free
//! port, so tests and examples can run in parallel.
//!
//! ```
//! use sc_telemetry::{serve::TelemetryServer, Counter, TelemetrySink};
//! use std::io::{Read, Write};
//!
//! let sink = TelemetrySink::new();
//! sink.add(Counter::JobsPulled, 3);
//! let server = TelemetryServer::start(sink, "127.0.0.1:0").unwrap();
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
//! let mut body = String::new();
//! conn.read_to_string(&mut body).unwrap();
//! assert!(body.contains("sc_jobs_pulled 3"));
//! // The server shuts down when dropped.
//! ```

use crate::{
    bucket_upper_bound, Counter, Gauge, Hist, HistSnapshot, Stage, TelemetryReport, TelemetrySink,
    HIST_BUCKETS,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A background scrape server over one [`TelemetrySink`]. Every request is
/// answered from a fresh [`TelemetrySink::snapshot`], so scraping never
/// consumes spans a concurrent drain or delta sampler expects to see.
/// Dropping the handle shuts the server down and joins its thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving scrapes of `sink` on a background thread named
    /// `sc-telemetry-serve`.
    pub fn start(sink: TelemetrySink, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("sc-telemetry-serve".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A malformed or interrupted request only affects
                        // that one connection; the server keeps accepting.
                        let _ = handle_connection(stream, &sink);
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address — with the ephemeral port resolved, when the server
    /// was started on port 0.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection so the thread
        // observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one HTTP request and writes the matching response. Only the request
/// line matters; headers are consumed and ignored.
fn handle_connection(stream: TcpStream, sink: &TelemetrySink) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut stream = reader.into_inner();

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The exposition-format version Prometheus scrapers expect.
                "text/plain; version=0.0.4; charset=utf-8",
                sink.snapshot().to_prometheus(),
            ),
            "/json" => (
                "200 OK",
                "application/json; charset=utf-8",
                sink.snapshot().to_json().to_string_pretty(),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "sc-telemetry scrape endpoint\n\n/metrics  Prometheus text exposition\n/json     JSON summary\n"
                    .to_string(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no route {path}\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

impl TelemetryReport {
    /// This report in Prometheus text exposition format: every counter,
    /// gauge (current and peak as separate series), and histogram (with
    /// cumulative `_bucket{le="..."}` series at the log2 bucket edges, plus
    /// `_sum`/`_count`), the per-stage span totals as labeled series, and
    /// the per-class attribution under a `class` label.
    /// All metric names carry the `sc_` prefix.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        out.push_str("# TYPE sc_elapsed_ns gauge\n");
        out.push_str(&format!("sc_elapsed_ns {}\n", self.elapsed_ns));
        out.push_str("# TYPE sc_dropped_spans counter\n");
        out.push_str(&format!("sc_dropped_spans {}\n", self.dropped_spans));

        for counter in Counter::ALL {
            out.push_str(&format!("# TYPE sc_{} counter\n", counter.name()));
            out.push_str(&format!(
                "sc_{} {}\n",
                counter.name(),
                self.counter(counter)
            ));
        }

        for gauge in Gauge::ALL {
            let (current, peak) = self.gauge(gauge);
            out.push_str(&format!("# TYPE sc_{} gauge\n", gauge.name()));
            out.push_str(&format!("sc_{} {current}\n", gauge.name()));
            out.push_str(&format!("# TYPE sc_{}_peak gauge\n", gauge.name()));
            out.push_str(&format!("sc_{}_peak {peak}\n", gauge.name()));
        }

        for hist in Hist::ALL {
            push_histogram(
                &mut out,
                &format!("sc_hist_{}", hist.name()),
                "",
                self.histogram(hist),
            );
        }

        out.push_str("# TYPE sc_stage_spans counter\n# TYPE sc_stage_ns counter\n");
        for stage in Stage::ALL {
            let (count, total_ns) = self.stage_totals(stage);
            if count == 0 {
                continue;
            }
            out.push_str(&format!(
                "sc_stage_spans{{stage=\"{0}\"}} {count}\nsc_stage_ns{{stage=\"{0}\"}} {total_ns}\n",
                stage.name(),
            ));
        }

        if !self.classes().is_empty() {
            out.push_str("# TYPE sc_class_jobs counter\n");
            for class in self.classes() {
                out.push_str(&format!(
                    "sc_class_jobs{{class=\"{}\"}} {}\n",
                    class.label(),
                    class.jobs,
                ));
            }
            for class in self.classes() {
                push_histogram(
                    &mut out,
                    "sc_class_latency_ns",
                    &format!("class=\"{}\"", class.label()),
                    &class.latency,
                );
            }
        }
        out
    }
}

/// Appends one histogram in exposition format: cumulative `_bucket` series
/// at the non-empty log2 bucket edges plus the mandatory `+Inf`, then
/// `_sum` and `_count`. `labels` is either empty or a rendered
/// `key="value"` list without braces.
fn push_histogram(out: &mut String, name: &str, labels: &str, hist: &HistSnapshot) {
    let type_line_name = name.to_string();
    // One TYPE line per metric name; labeled series of the same name share
    // it (the caller emits classes back to back, so dedupe on the fly).
    if !out.contains(&format!("# TYPE {type_line_name} histogram\n")) {
        out.push_str(&format!("# TYPE {type_line_name} histogram\n"));
    }
    let with_le = |le: &str| {
        if labels.is_empty() {
            format!("{name}_bucket{{le=\"{le}\"}}")
        } else {
            format!("{name}_bucket{{{labels},le=\"{le}\"}}")
        }
    };
    let suffix = |kind: &str| {
        if labels.is_empty() {
            format!("{name}_{kind}")
        } else {
            format!("{name}_{kind}{{{labels}}}")
        }
    };
    let mut cumulative = 0u64;
    for (b, &count) in hist.bucket_counts().iter().enumerate() {
        cumulative += count;
        if count == 0 {
            continue;
        }
        if b < HIST_BUCKETS - 1 {
            out.push_str(&format!(
                "{} {cumulative}\n",
                with_le(&bucket_upper_bound(b).to_string())
            ));
        }
    }
    out.push_str(&format!("{} {cumulative}\n", with_le("+Inf")));
    out.push_str(&format!("{} {}\n", suffix("sum"), hist.sum));
    out.push_str(&format!("{} {}\n", suffix("count"), hist.count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Json, TelemetrySink};
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_prometheus_and_json_until_dropped() {
        let sink = TelemetrySink::new();
        sink.add(Counter::Tiles, 11);
        sink.observe(Hist::JobLatencyNs, 750);
        sink.class_add_jobs(2, 5);
        let server = TelemetryServer::start(sink.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("sc_tiles 11"));
        assert!(body.contains("# TYPE sc_hist_job_latency_ns histogram"));
        assert!(body.contains("sc_class_jobs{class=\"2\"} 5"));
        assert!(!body.contains("lane"), "no lane series are exported");

        let (head, body) = get(addr, "/json");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("tiles"))
                .and_then(Json::as_u64),
            Some(11)
        );

        // Scraping consumed nothing.
        assert_eq!(sink.snapshot().counter(Counter::Tiles), 11);

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        drop(server);
        // The port is released once the server thread exits; a rebind on the
        // same address either succeeds or the connection is refused.
        assert!(TcpStream::connect(addr).is_err() || TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let sink = TelemetrySink::new();
        for v in [1u64, 3, 3, 1000] {
            sink.observe(Hist::WindowOccupancy, v);
        }
        let text = sink.snapshot().to_prometheus();
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("sc_hist_window_occupancy_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 4, "+Inf equals the count");
        assert!(text.contains("sc_hist_window_occupancy_count 4"));
        assert!(text.contains("sc_hist_window_occupancy_sum 1007"));
    }
}
