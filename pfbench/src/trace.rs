//! Spans the benchmark records around its own calls into each layer,
//! kept in memory and written out at exit, and the self-time arithmetic
//! the per-layer metrics are computed from.

use pitchfork_service::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: a layer name, its interval in nanoseconds since the
/// run's origin, the span that caused it, and the operation (compile,
/// image run or request) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new() }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span and return its index, for children to name as
    /// their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.at(start), end_ns: self.at(end), parent, req };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append another tracer's spans (a client thread's), keeping their
    /// parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its children cover (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Int(s.start_ns.into())),
                    ("end_ns".into(), Json::Int(s.end_ns.into())),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i128))),
                    ("req".into(), Json::Int(s.req.into())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),
            // Overlaps `b`: the overlap is covered once.
            span("c", 50, 70, Some(0)),
            // Sticks out of the root: only the inside part counts.
            span("d", 90, 130, Some(0)),
            // A grandchild is charged to its own parent, not the root.
            span("e", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 20 - 40 - 10, 20 - 8, 30, 20, 40, 8]);
        let named = by_name(&spans);
        assert_eq!(named["root"], (30, 1));
        assert_eq!(named["a"], (12, 1));
    }

    #[test]
    fn contiguous_phases_leave_only_the_residue() {
        // A compile root cut at hook timestamps: the phases tile
        // [5, 95], so the root keeps the 10 ns outside them.
        let mut spans = vec![span("compile", 0, 100, None)];
        for (a, b) in [(5, 20), (20, 50), (50, 95)] {
            spans.push(span("phase", a, b, Some(0)));
        }
        let named = by_name(&spans);
        assert_eq!(named["compile"], (10, 1));
        assert_eq!(named["phase"], (90, 3));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("x", origin, origin, None, 1);
        let mut b = Tracer::new(origin);
        let p = b.record("root", origin, origin, None, 2);
        b.record("kid", origin, origin, Some(p), 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
