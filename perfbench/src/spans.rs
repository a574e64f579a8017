//! Bench-side spans: one record per call the benchmark makes into a
//! layer (name, start, end, parent, case id, worker), kept in memory and
//! written out when the run ends. Spans *inside* `Simulation::run` are a
//! later change; here the program is observed from outside only.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`build_sim`, `run`, `case.pdq`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Sweep case index, for spans of one case.
    pub case: Option<usize>,
    /// Index of the thread that ran it, in order of first appearance.
    pub worker: usize,
}

/// The in-memory span recorder (shared by sweep workers).
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    inner: Mutex<(Vec<Span>, Vec<ThreadId>)>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            inner: Mutex::new((Vec::new(), Vec::new())),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (the parent handle for children).
    pub fn open(&self, name: &'static str, parent: Option<usize>, case: Option<usize>) -> usize {
        let tid = std::thread::current().id();
        let mut g = self.inner.lock().expect("span recorder poisoned");
        let worker = match g.1.iter().position(|t| *t == tid) {
            Some(w) => w,
            None => {
                g.1.push(tid);
                g.1.len() - 1
            }
        };
        g.0.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            case,
            worker,
        });
        let id = g.0.len() - 1;
        // Stamp last, so time spent waiting for the lock is not the span's.
        g.0[id].start_ns = self.now_ns();
        id
    }

    /// Close span `id`.
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.inner.lock().expect("span recorder poisoned").0[id].end_ns = end;
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.lock().expect("span recorder poisoned").0.clone()
    }
}

/// Run `f` as a span (when recording) and return its result with its
/// wall time in seconds. `f` gets the span id to parent its children on.
pub fn timed<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: Option<usize>,
    case: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> (T, f64) {
    let id = spans.map(|s| s.open(name, parent, case));
    let t = Instant::now();
    let out = f(id);
    let secs = t.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans, id) {
        s.close(id);
    }
    (out, secs)
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut edge = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children on other threads may overlap each other,
/// so coverage is the union, not the sum).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Total duration in seconds of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .fold(0.0, |total, d| total + d)
}

/// Share of the root spans' wall time that no leaf span covers: the time
/// the trace cannot attribute to a call into a layer.
pub fn unaccounted_frac(spans: &[Span]) -> f64 {
    let has_child: Vec<bool> = {
        let mut v = vec![false; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                v[p] = true;
            }
        }
        v
    };
    let leaves: Vec<(u64, u64)> = spans
        .iter()
        .zip(&has_child)
        .filter(|(_, &parent)| !parent)
        .map(|(s, _)| (s.start_ns, s.end_ns))
        .collect();
    let (mut wall, mut cover) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        wall += s.end_ns - s.start_ns;
        cover += covered(leaves.clone(), s.start_ns, s.end_ns);
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - cover as f64 / wall as f64
    }
}

/// Render the spans (with self times) and `extra` top-level members as
/// the `<workload>.trace.json` document.
pub fn render(spans: &[Span], extra: &BTreeMap<&str, String>) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\n");
    for (k, v) in extra {
        out.push_str(&format!("  \"{k}\": {v},\n"));
    }
    out.push_str("  \"spans\": [\n");
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {own}, \"parent\": {}, \"case\": {}, \"worker\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.case),
            s.worker,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            case: None,
            worker: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (two workers) under one sweep span.
        let spans = [
            span("sweep", 0, 100, None),
            span("case", 10, 60, Some(0)),
            span("case", 40, 90, Some(0)),
            span("run", 15, 55, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 50, 40]);
        assert!((total_s(&spans, "case") - 100e-9).abs() < 1e-15);
        // Leaves are case#2 [40,90] and run [15,55]: union 75 of 100.
        assert!((unaccounted_frac(&spans) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn timed_records_only_when_recording() {
        let rec = Spans::default();
        let ((), secs) = timed(Some(&rec), "outer", None, Some(3), |id| {
            timed(Some(&rec), "inner", id, None, |_| ()).0
        });
        assert!(secs >= 0.0);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].case, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(timed(None, "off", None, None, |id| id).0, None);
    }
}
