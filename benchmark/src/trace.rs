//! The harness-side span recorder. Spans are taken around calls into the
//! engine's public functions, kept in memory, and written out once when the
//! traced run ends (spans *inside* the engine are a later change). A span's
//! name is `<layer>.<what>`, where the layer is the crate called.

use hive_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one statement share its id (0: not part of a statement).
    pub stmt: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, stmt: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, stmt);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event form (`chrome://tracing`, ui.perfetto.dev): one
    /// complete (`X`) event per span, microsecond timestamps, nesting by
    /// containment on a single track; `args` keeps the causal links.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Json::obj();
                args.push("id", Json::U64(id as u64));
                if let Some(p) = s.parent {
                    args.push("parent", Json::U64(p as u64));
                }
                args.push("stmt", Json::U64(s.stmt));
                let mut e = Json::obj();
                e.push("name", Json::Str(s.name.to_string()))
                    .push("cat", Json::Str(s.layer().to_string()))
                    .push("ph", Json::Str("X".to_string()))
                    .push("ts", Json::F64(s.start_ns as f64 / 1e3))
                    .push("dur", Json::F64(s.duration_ns() as f64 / 1e3))
                    .push("pid", Json::U64(1))
                    .push("tid", Json::U64(1))
                    .push("args", args);
                e
            })
            .collect();
        Json::Array(events)
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children may overlap or abut; covered time is the
/// union of their intervals clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed by layer, in ns.
pub fn layer_self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer()).or_insert(0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("core.statement", 0, 100, None),
            span("ql.parse", 10, 30, Some(0)),
            // Overlaps the previous child: 20..30 must not count twice.
            span("planner.plan", 20, 50, Some(0)),
            span("planner.translate", 25, 45, Some(2)),
            // Sticks out of its parent: only 90..100 is inside.
            span("mapreduce.run_dag", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 30]);
        let layers = layer_self_times_ns(&spans);
        assert_eq!(layers["core"], 50);
        assert_eq!(layers["planner"], 30);
        assert_eq!(layers["ql"], 20);
        assert_eq!(layers["mapreduce"], 30);
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut t = Tracer::new();
        let root = t.begin("core.statement", None, 7);
        let got = t.span("ql.parse", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_chrome_json();
        let events = json.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("ql"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("stmt").unwrap().as_u64(), Some(7));
    }
}
