//! In-memory span recorder.
//!
//! A span is `(id, parent, name, start, end, point label)`. Spans are kept
//! in memory while the workload runs and written out once at the end, so
//! recording costs two clock reads and one short-held lock per span. The
//! parent travels explicitly in a [`Ctx`] rather than in a thread-local,
//! because the layers fan out onto fresh `par_map` worker threads and a
//! worker's first span must still name the span that spawned it.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    label: Arc<str>,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
// Ids only need to be unique; no other data is published through them.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).expect("a trace shorter than 584 years")
}

/// The span new spans are recorded under, plus the point label they carry.
#[derive(Clone)]
pub struct Ctx {
    id: u64,
    label: Arc<str>,
}

impl Ctx {
    /// The context above every recorded span (parent id 0).
    #[must_use]
    pub fn root(label: &str) -> Ctx {
        EPOCH.get_or_init(Instant::now);
        Ctx {
            id: 0,
            label: label.into(),
        }
    }

    /// Run `f` inside a span named `name`, under this context.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(&Ctx) -> R) -> R {
        self.record(name, Arc::clone(&self.label), f)
    }

    /// [`Ctx::span`] for a span that starts a new sweep point: it and its
    /// descendants carry `label`.
    pub fn point<R>(&self, name: &'static str, label: &str, f: impl FnOnce(&Ctx) -> R) -> R {
        self.record(name, label.into(), f)
    }

    fn record<R>(&self, name: &'static str, label: Arc<str>, f: impl FnOnce(&Ctx) -> R) -> R {
        let child = Ctx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            label,
        };
        let start_ns = now_ns();
        let out = f(&child);
        let end_ns = now_ns();
        SPANS.lock().expect("span buffer poisoned").push(Span {
            id: child.id,
            parent: self.id,
            name,
            start_ns,
            end_ns,
            label: child.label,
        });
        out
    }
}

/// Write every recorded span as one tab-separated `S` line:
/// `S id parent name start_ns end_ns label`.
///
/// # Errors
///
/// Any write error of `out`.
pub fn write_spans(out: &mut impl Write) -> io::Result<()> {
    let spans = SPANS.lock().expect("span buffer poisoned");
    for s in spans.iter() {
        writeln!(
            out,
            "S\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.label
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_across_threads() {
        let root = Ctx::root("t");
        let parent_id = root.span("outer", |cx| {
            std::thread::scope(|s| {
                s.spawn(|| cx.span("inner", |_| ()));
            });
            cx.id
        });
        let spans = SPANS.lock().expect("span buffer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, parent_id);
        assert_eq!(outer.id, parent_id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
