//! The benchmark's own spans: name, start, end, parent, kept in memory and
//! written out when the run ends. They wrap the calls into the program
//! (build, run, harvest, each probe batch); spans inside the program are
//! the program's business (`son_obs::PerfRegistry`).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use son_obs::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while open.
    pub end_ns: Option<u64>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An append-only span log with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    log: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            log: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.log.len();
        self.log.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        self.log[id].end_ns = Some(end);
        (end - self.log[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f(self);
        (out, self.exit(id))
    }

    /// Total seconds of the closed spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.log
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some((s.end_ns? - s.start_ns) as f64 / 1e9))
            .sum()
    }

    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Writes one JSON line per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (null at the top level), all relative to the recorder's
    /// creation.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.log.iter().enumerate() {
            let row = Json::obj(vec![
                ("id", Json::U64(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", s.end_ns.map_or(Json::Null, Json::U64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
            ]);
            writeln!(out, "{}", row.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut s = Spans::new();
        let ((), outer) = s.time("outer", |s| {
            s.time("inner", |_| ());
            s.time("inner", |_| ());
        });
        assert_eq!(s.len(), 3);
        assert_eq!(s.log[1].parent, Some(0));
        assert_eq!(s.log[2].parent, Some(0));
        assert_eq!(s.log[0].parent, None);
        assert!(s.total_s("inner") <= outer);
        assert_eq!(s.total_s("absent"), 0.0);
    }
}
