//! In-memory log of the benchmark's own spans in a traced run: the calls
//! it makes into each layer, each with its step index or session id,
//! written out once at the end as Chrome trace-event JSON (open it in
//! Perfetto). The program's own `beamdyn_obs` spans go to a separate file
//! through `obs::install_perfetto`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Name of the enclosing span, empty at the top level.
    pub parent: String,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Step index (simulation workloads) or session id (fleet workload).
    pub id: u64,
}

/// The span log. Spans are appended under a mutex; a traced run is the
/// only one that pays for it.
pub struct TraceLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl TraceLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Records a benchmark-side span that started at `start` and ends now.
    pub fn record(&self, name: &str, parent: &str, start: Instant, id: u64) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.lock().expect("trace log poisoned").push(Span {
            name: name.to_string(),
            parent: parent.to_string(),
            start_ns,
            dur_ns,
            id,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace log poisoned").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the log as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("trace log poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\",\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.parent,
                s.id,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
