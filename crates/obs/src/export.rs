//! Experiment export: the JSONL sink and the registry row schema.
//!
//! Experiments write one [`Json`] object per line (JSONL) so downstream
//! analysis can stream rows without a parser that holds the whole file.
//! [`registry_rows`] converts a [`Registry`] snapshot into export rows with a
//! stable schema (documented in `EXPERIMENTS.md`).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::hist::LatencyHistogram;
use crate::json::Json;
use crate::registry::{InstrumentDesc, Registry};

/// Environment variable overriding the export directory.
pub const OBS_DIR_ENV: &str = "SON_OBS_DIR";

/// The export directory: `$SON_OBS_DIR` if set, else `target/obs`.
/// The directory is created if missing.
///
/// # Errors
///
/// Propagates the I/O error if the directory cannot be created.
pub fn obs_dir() -> io::Result<PathBuf> {
    let dir =
        std::env::var_os(OBS_DIR_ENV).map_or_else(|| PathBuf::from("target/obs"), PathBuf::from);
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn create_buffered(path: &Path) -> io::Result<BufWriter<File>> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    Ok(BufWriter::new(File::create(path)?))
}

/// A buffered JSONL file sink: one JSON object per line.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    out: BufWriter<File>,
    rows: u64,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let out = create_buffered(&path)?;
        Ok(JsonlSink { path, out, rows: 0 })
    }

    /// Creates `<obs_dir>/<name>.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory or file cannot be created.
    pub fn for_experiment(name: &str) -> io::Result<Self> {
        JsonlSink::create(obs_dir()?.join(format!("{name}.jsonl")))
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the write fails.
    pub fn write(&mut self, row: &Json) -> io::Result<()> {
        let mut line = String::with_capacity(128);
        row.render(&mut line);
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The sink's path (for "wrote N rows to ..." banners).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes buffered rows to disk and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the flush fails.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

/// A registry snapshot as export rows.
///
/// Schema (`kind` discriminates):
/// - counters: `{"kind":"counter","name":..,"labels":{..},"value":N}`
/// - gauges: `{"kind":"gauge","name":..,"labels":{..},"value":X}`
/// - histograms: `{"kind":"hist","name":..,"labels":{..},"count":N,
///   "p50_ms":..,"p90_ms":..,"p99_ms":..,"max_ms":..,"mean_ms":..}`
///   (milliseconds, since instruments record nanoseconds)
#[must_use]
pub fn registry_rows(reg: &Registry) -> Vec<Json> {
    let head = |kind: &str, desc: &InstrumentDesc| {
        let labels = desc.labels().map(|(k, v)| (k.to_owned(), Json::str(v)));
        vec![
            ("kind", Json::str(kind)),
            ("name", Json::str(desc.name)),
            ("labels", Json::Obj(labels.collect())),
        ]
    };
    let mut rows = Vec::new();
    for (desc, v) in reg.counters() {
        let mut row = head("counter", &desc);
        row.push(("value", Json::U64(v)));
        rows.push(Json::obj(row));
    }
    for (desc, v) in reg.gauges() {
        let mut row = head("gauge", &desc);
        row.push(("value", Json::F64(v)));
        rows.push(Json::obj(row));
    }
    for (desc, h) in reg.histograms() {
        let mut row = head("hist", &desc);
        row.extend(hist_fields(h));
        rows.push(Json::obj(row));
    }
    rows
}

/// The standard histogram summary fields as JSON pairs (milliseconds).
#[must_use]
pub fn hist_fields(h: &LatencyHistogram) -> Vec<(&'static str, Json)> {
    vec![
        ("count", Json::U64(h.count())),
        ("p50_ms", Json::F64(h.p50() as f64 / 1e6)),
        ("p90_ms", Json::F64(h.p90() as f64 / 1e6)),
        ("p99_ms", Json::F64(h.p99() as f64 / 1e6)),
        ("max_ms", Json::F64(h.max() as f64 / 1e6)),
        ("mean_ms", Json::F64(h.mean() / 1e6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("son_obs_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let path = tmp("rows.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.write(&Json::obj(vec![("a", Json::U64(1))])).unwrap();
        sink.write(&Json::obj(vec![("b", Json::str("two"))]))
            .unwrap();
        assert_eq!(sink.rows(), 2);
        let written = sink.finish().unwrap();
        let content = fs::read_to_string(&written).unwrap();
        assert_eq!(content, "{\"a\":1}\n{\"b\":\"two\"}\n");
        fs::remove_file(written).unwrap();
    }

    #[test]
    fn registry_rows_cover_all_instruments() {
        let mut reg = Registry::new();
        let c = reg.counter("node.forwarded", &[("node", "1")]);
        reg.add(c, 9);
        let g = reg.gauge("link.window", &[]);
        reg.set(g, 4.0);
        let h = reg.histogram("e2e.latency_ns", &[("flow", "7")]);
        reg.observe(h, 2_000_000);
        let rows = registry_rows(&reg);
        assert_eq!(rows.len(), 3);
        let rendered: Vec<String> = rows.iter().map(Json::to_json).collect();
        assert!(rendered[0].contains("\"kind\":\"counter\""));
        assert!(rendered[0].contains("\"value\":9"));
        assert!(rendered[1].contains("\"kind\":\"gauge\""));
        assert!(rendered[2].contains("\"kind\":\"hist\""));
        assert!(rendered[2].contains("\"count\":1"));
        assert!(rendered[2].contains("\"p50_ms\":2"));
    }
}
