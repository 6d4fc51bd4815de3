//! Span recording for the traced run. Spans are taken around the calls
//! this benchmark makes into each layer; each thread records into its
//! own [`SpanLog`], and the logs are merged into one
//! [`pvs_obs::span::TraceBuffer`] when the run ends. The root span of a
//! request carries its request id as a `#<id>` name suffix, so every
//! span of one request shares that id through the parent chain.

use std::time::Instant;

use pvs_obs::span::{SpanId, TraceBuffer};

struct Rec {
    name: String,
    parent: Option<usize>,
    begin_ns: u64,
    end_ns: Option<u64>,
}

/// One thread's spans, timed against a shared epoch.
pub struct SpanLog {
    epoch: Instant,
    recs: Vec<Rec>,
}

impl SpanLog {
    /// An empty log timed from `epoch` (share it across threads).
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle.
    pub fn enter(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let begin_ns = self.now_ns();
        self.recs.push(Rec {
            name: name.into(),
            parent,
            begin_ns,
            end_ns: None,
        });
        self.recs.len() - 1
    }

    /// Close a span opened by [`SpanLog::enter`].
    pub fn exit(&mut self, span: usize) {
        let end = self.now_ns();
        self.recs[span].end_ns.get_or_insert(end);
    }

    /// Rename an open span once its outcome is known.
    pub fn rename(&mut self, span: usize, name: impl Into<String>) {
        self.recs[span].name = name.into();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.enter(name, parent);
        let out = f();
        self.exit(span);
        out
    }
}

/// Run `f`, inside a span when a log is present.
pub fn maybe_time<T>(
    log: &mut Option<&mut SpanLog>,
    name: impl Into<String>,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.time(name, parent, f),
        None => f(),
    }
}

/// Merge per-thread logs into one trace buffer (ticks = ns since the
/// shared epoch), in log order.
pub fn merge(logs: Vec<SpanLog>) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    for log in logs {
        let mut ids: Vec<SpanId> = Vec::with_capacity(log.recs.len());
        for rec in &log.recs {
            let parent = rec.parent.map(|p| ids[p]);
            ids.push(buf.begin(&rec.name, parent, rec.begin_ns));
        }
        for (rec, id) in log.recs.iter().zip(ids) {
            if let Some(end) = rec.end_ns {
                buf.end(id, end);
            }
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_logs_keep_parents_and_order() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let root = a.enter("pipeline#1", None);
        a.time("proto.parse", Some(root), || ());
        a.exit(root);
        let mut b = SpanLog::new(epoch);
        b.time("request#2", None, || ());
        let buf = merge(vec![a, b]);
        let ev = buf.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[1].parent, Some(ev[0].id));
        assert_eq!(ev[2].parent, None);
        assert!(ev.iter().all(|e| e.end_ticks.is_some()));
        assert!(buf.to_jsonl().lines().count() == 3);
    }
}
