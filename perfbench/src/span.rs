//! In-memory spans around the calls into each layer.
//!
//! The traced run records one span per public call the hand-driven tick
//! makes (`hand.rs`): `{name, start_ns, end_ns, parent, req}`, `parent`
//! the enclosing `tick` or `recover` span and `req` the instance the call
//! belongs to. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its span minus the part of that interval
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const TICK: &str = "tick";
pub const RECOVER: &str = "recover";
pub const SEND: &str = "protocol.send";
pub const RECEIVE: &str = "protocol.receive";
pub const STATE_BITS: &str = "protocol.state_bits";
pub const FRAME_BITS: &str = "codec.frame_bits";
pub const ROUTE: &str = "fabric.route";
pub const INBOX: &str = "fabric.inbox";
pub const PLAN: &str = "sim.plan";
pub const J_STAGE: &str = "journal.stage";
pub const J_ENCODE: &str = "journal.encode";
pub const J_APPEND: &str = "journal.append";
pub const J_SYNC: &str = "journal.sync";
pub const J_SCAN: &str = "journal.scan";
pub const J_DECODE: &str = "journal.decode";
pub const J_REPLAY: &str = "journal.replay";

/// The `parent` of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Index into the tracer's request labels.
    pub req: u32,
}

/// Records spans when on; when off every call is a branch and nothing
/// else, so the same hand-driven code gives the spans-off wall time.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    reqs: Vec<String>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            reqs: vec![String::new()],
        }
    }

    /// Labels every span opened from now on with `req`.
    pub fn set_req(&mut self, req: impl FnOnce() -> String) {
        if self.on {
            self.reqs.push(req());
        }
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: (self.reqs.len() - 1) as u32,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Writes `{"names", "reqs", "spans"}`; each span is
    /// `[name, start_ns, end_ns, parent, req]` with `name` and `req`
    /// indices into the two tables and `parent` a span index or -1.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let quoted = |items: &mut dyn Iterator<Item = &str>| {
            items
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(
            out,
            "{{\"names\": [{}],",
            quoted(&mut names.iter().copied())
        )?;
        writeln!(
            out,
            "\"reqs\": [{}],",
            quoted(&mut self.reqs.iter().map(String::as_str))
        )?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "[{name},{},{},{parent},{}]{comma}",
                s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another or reach
/// outside the parent; the union of their intervals, clipped to the
/// parent's, is what counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = &spans[parent as usize];
        let (mut covered, mut reach) = (0u64, p.start_ns);
        while i < children.len() && children[i].0 == parent {
            let start = children[i].1.max(reach);
            let end = children[i].2.min(p.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        own[parent as usize] -= covered;
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(TICK, 0, 100, NO_PARENT),
            // Two overlapping children cover [10, 40): 30, not 20 + 20.
            span(SEND, 10, 30, 0),
            span(ROUTE, 20, 40, 0),
            // A nested grandchild takes from its parent only.
            span(FRAME_BITS, 22, 27, 2),
            // Disjoint child.
            span(RECEIVE, 50, 60, 0),
            // A child reaching past the parent's end is clipped: [90, 100).
            span(INBOX, 90, 130, 0),
            // A child wholly inside an earlier sibling adds nothing.
            span(J_SYNC, 12, 18, 0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 30 - 10 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 20 - 5);
        assert_eq!(own[3], 5);
        assert_eq!(own[5], 40);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.open(TICK, NO_PARENT);
        off.close(id);
        assert!(off.self_ns_by_name().is_empty());

        let mut on = Tracer::new(true);
        on.set_req(|| "L0.H0".into());
        let tick = on.open(TICK, NO_PARENT);
        let send = on.open(SEND, tick);
        on.close(send);
        on.close(tick);
        assert_eq!(on.spans[1].parent, tick);
        assert_eq!(on.reqs[on.spans[1].req as usize], "L0.H0");
        let by_name = on.self_ns_by_name();
        let total = on.spans[0].end_ns - on.spans[0].start_ns;
        assert_eq!(by_name[TICK] + by_name[SEND], total);
    }
}
