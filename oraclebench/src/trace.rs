//! Spans around the benchmark's calls into each layer's public API.
//!
//! A span has a name (its [`Layer`]), a start, an end, a parent span
//! and an operation id (the test or query it belongs to). Spans are
//! kept in memory and written once, when the run ends. A layer's *self*
//! time is its spans' duration minus the part covered by child spans.
//!
//! The hot layers are entered millions of times per run, so besides the
//! span list (capped at [`SPAN_CAP`] records) every layer keeps running
//! totals of calls, wall and self time; the totals cover every span,
//! stored or not.
//!
//! Code that is timed both ways is generic over [`Spans`]: [`NoTrace`]
//! compiles every span away, so the untraced build of a loop is the
//! plain sequence of API calls.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans only enter the totals.
pub const SPAN_CAP: usize = 200_000;

/// The span names: one per timed call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One sweep test: parse, build and search.
    SweepTest,
    /// `ppc_litmus::parse` / `Job::from_entry` / `Job::from_source`.
    Parse,
    /// `build_system` + `observations`.
    Build,
    /// The depth-first search loop of one test.
    Search,
    /// `SystemState::enumerate_transitions_into`.
    Enumerate,
    /// `SystemState::apply`.
    Apply,
    /// `SystemState::digest` of a successor.
    Digest,
    /// `StateStore::insert_visited`.
    Visited,
    /// `StateStore::spill_batch`.
    Spill,
    /// `StateStore::unspill`.
    Unspill,
    /// One sequential ISA test.
    SeqTest,
    /// `SeqMachine::step_instruction`.
    SeqStep,
    /// `SystemState::new` for a sequential test.
    SeqInit,
    /// `ppc_model::run_sequential`.
    RunSequential,
    /// The final register and memory compare.
    SeqCompare,
    /// `Query::from_harness(..).key()`.
    Key,
    /// `Oracle::query` answered from the store.
    QueryHit,
    /// `Oracle::query` that explored.
    QueryMiss,
    /// A client round trip answered from the store.
    RoundTripHit,
    /// A client round trip that explored.
    RoundTripMiss,
}

impl Layer {
    pub const ALL: [Layer; 20] = [
        Layer::SweepTest,
        Layer::Parse,
        Layer::Build,
        Layer::Search,
        Layer::Enumerate,
        Layer::Apply,
        Layer::Digest,
        Layer::Visited,
        Layer::Spill,
        Layer::Unspill,
        Layer::SeqTest,
        Layer::SeqStep,
        Layer::SeqInit,
        Layer::RunSequential,
        Layer::SeqCompare,
        Layer::Key,
        Layer::QueryHit,
        Layer::QueryMiss,
        Layer::RoundTripHit,
        Layer::RoundTripMiss,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::SweepTest => "sweep.test",
            Layer::Parse => "litmus.parse",
            Layer::Build => "litmus.build",
            Layer::Search => "oracle.search",
            Layer::Enumerate => "model.enumerate",
            Layer::Apply => "model.apply",
            Layer::Digest => "model.digest",
            Layer::Visited => "store.visited",
            Layer::Spill => "store.spill",
            Layer::Unspill => "store.unspill",
            Layer::SeqTest => "seq.test",
            Layer::SeqStep => "seqref.step",
            Layer::SeqInit => "model.seq_init",
            Layer::RunSequential => "model.run_sequential",
            Layer::SeqCompare => "seq.compare",
            Layer::Key => "service.key",
            Layer::QueryHit => "service.query_hit",
            Layer::QueryMiss => "service.query_miss",
            Layer::RoundTripHit => "client.round_trip_hit",
            Layer::RoundTripMiss => "client.round_trip_miss",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Span instrumentation, compiled away by [`NoTrace`].
pub trait Spans {
    /// Open a span (a child of the innermost open span).
    fn enter(&mut self, layer: Layer);
    /// Close the innermost open span, returning its duration in ns.
    fn exit(&mut self) -> u64;
    /// Set the operation id of the spans that follow.
    fn op(&mut self, id: u64);

    /// Run `f` inside a span.
    #[inline]
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }
}

/// Tracing off.
pub struct NoTrace;

impl Spans for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: Layer) {}
    #[inline(always)]
    fn exit(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn op(&mut self, _: u64) {}
}

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub id: u64,
    /// Parent span id, `None` at the top level.
    pub parent: Option<u64>,
    pub op: u64,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

/// Running totals of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    /// Summed span durations, ns.
    pub wall: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub own: u64,
}

struct Open {
    layer: Layer,
    id: u64,
    start: u64,
    child: u64,
}

/// Tracing on.
pub struct Tracer {
    t0: Instant,
    stack: Vec<Open>,
    next_id: u64,
    op: u64,
    spans: Vec<Span>,
    dropped: u64,
    totals: [Totals; Layer::ALL.len()],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// A tracer whose timestamps count from `t0` (tracers of concurrent
    /// threads share one origin, so their spans line up).
    #[must_use]
    pub fn starting_at(t0: Instant) -> Tracer {
        Tracer {
            t0,
            stack: Vec::new(),
            next_id: 0,
            op: 0,
            spans: Vec::new(),
            dropped: 0,
            totals: [Totals::default(); Layer::ALL.len()],
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The running totals of `layer`.
    #[must_use]
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    /// Self time of `layer` in seconds.
    #[must_use]
    pub fn own_secs(&self, layer: Layer) -> f64 {
        self.totals(layer).own as f64 / 1e9
    }

    /// Summed wall of `layer` in seconds.
    #[must_use]
    pub fn wall_secs(&self, layer: Layer) -> f64 {
        self.totals(layer).wall as f64 / 1e9
    }

    /// Fold another tracer's spans and totals into this one (span ids
    /// are renumbered so they stay unique).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next_id;
        for s in other.spans {
            if self.spans.len() < SPAN_CAP {
                self.spans.push(Span {
                    id: s.id + base,
                    parent: s.parent.map(|p| p + base),
                    ..s
                });
            } else {
                self.dropped += 1;
            }
        }
        self.dropped += other.dropped;
        self.next_id += other.next_id;
        for (t, o) in self.totals.iter_mut().zip(other.totals) {
            t.calls += o.calls;
            t.wall += o.wall;
            t.own += o.own;
        }
    }

    /// Spans recorded (stored or only totalled).
    #[must_use]
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// The stored spans as JSON lines, plus one final line of totals.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.layer.name(),
                sp.id,
                sp.parent.map_or("null".to_owned(), |p| p.to_string()),
                sp.op,
                sp.start,
                sp.end
            );
        }
        let totals: Vec<String> = Layer::ALL
            .iter()
            .filter(|l| self.totals(**l).calls > 0)
            .map(|l| {
                let t = self.totals(*l);
                format!(
                    "\"{}\":{{\"calls\":{},\"wall_ns\":{},\"self_ns\":{}}}",
                    l.name(),
                    t.calls,
                    t.wall,
                    t.own
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "{{\"totals\":{{{}}},\"spans_stored\":{},\"spans_dropped\":{}}}",
            totals.join(","),
            self.spans.len(),
            self.dropped
        );
        s
    }
}

impl Spans for Tracer {
    #[inline]
    fn enter(&mut self, layer: Layer) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.stack.push(Open {
            layer,
            id,
            start,
            child: 0,
        });
    }

    #[inline]
    fn exit(&mut self) -> u64 {
        let end = self.now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.saturating_sub(open.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        let t = &mut self.totals[open.layer.index()];
        t.calls += 1;
        t.wall += dur;
        t.own += dur.saturating_sub(open.child);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer: open.layer,
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                op: self.op,
                start: open.start,
                end,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    fn op(&mut self, id: u64) {
        self.op = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.op(7);
        t.enter(Layer::Search);
        t.time(Layer::Apply, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time(Layer::Digest, || ());
        let outer = t.exit();
        let search = t.totals(Layer::Search);
        let apply = t.totals(Layer::Apply);
        let digest = t.totals(Layer::Digest);
        assert_eq!(search.calls, 1);
        assert_eq!(search.wall, outer);
        assert!(apply.wall >= 2_000_000);
        assert_eq!(apply.own, apply.wall, "a leaf's self time is its wall");
        assert_eq!(search.own + apply.wall + digest.wall, search.wall);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        let parent = spans.iter().find(|s| s.layer == Layer::Search).unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.layer != Layer::Search)
            .all(|s| s.parent == Some(parent.id) && s.op == 7));
    }

    #[test]
    fn totals_continue_past_the_span_cap() {
        let mut t = Tracer::new();
        for _ in 0..SPAN_CAP + 5 {
            t.time(Layer::Key, || ());
        }
        assert_eq!(t.totals(Layer::Key).calls, (SPAN_CAP + 5) as u64);
        assert_eq!(t.span_count(), (SPAN_CAP + 5) as u64);
        assert_eq!(t.spans.len(), SPAN_CAP);
    }

    #[test]
    fn absorb_renumbers_and_adds() {
        let mut a = Tracer::new();
        a.time(Layer::Key, || ());
        let mut b = Tracer::starting_at(a.t0);
        b.enter(Layer::QueryHit);
        b.time(Layer::Key, || ());
        b.exit();
        a.absorb(b);
        assert_eq!(a.totals(Layer::Key).calls, 2);
        let ids: std::collections::BTreeSet<u64> = a.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "ids stay unique");
        let hit = a.spans.iter().find(|s| s.layer == Layer::QueryHit).unwrap();
        let inner = a.spans.iter().filter(|s| s.parent == Some(hit.id)).count();
        assert_eq!(inner, 1);
    }

    #[test]
    fn jsonl_ends_with_totals() {
        let mut t = Tracer::new();
        t.time(Layer::Apply, || ());
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"model.apply\",\"id\":0,\"parent\":null"));
        assert!(lines[1].contains("\"model.apply\":{\"calls\":1"));
    }
}
