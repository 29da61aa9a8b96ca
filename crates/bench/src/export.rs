//! Shared JSONL-export plumbing for the experiment binaries.
//!
//! Every experiment writes the same way: open a sink per artifact under the
//! obs dir, tag each row with a `run` label so several runs share one file,
//! and finish with the "wrote N rows" banner; the committed `BENCH_*.json`
//! files have one writer, [`write_bench`]. Every JSONL artifact is one call
//! to [`export_rows`] with its own row source (`TraceEvent::row`,
//! `WatchEvent::row`, `TelemetrySnapshot::row`, `registry_rows`,
//! `perf_rows`) — the row-tagging loop lives here exactly once.

use son_obs::{Json, JsonlSink};

/// Tags `row` with `run` as its first key (no-op on non-object rows).
#[must_use]
pub fn tag_run(mut row: Json, run: &str) -> Json {
    if let Json::Obj(pairs) = &mut row {
        pairs.insert(0, ("run".to_owned(), Json::str(run)));
    }
    row
}

/// Writes each row of `rows` into `sink`, tagged with `run` so several runs
/// share one file. Row schemas are documented in `EXPERIMENTS.md`.
///
/// # Errors
///
/// Propagates the I/O error if a write fails.
pub fn export_rows(
    sink: &mut JsonlSink,
    run: &str,
    rows: impl IntoIterator<Item = Json>,
) -> std::io::Result<()> {
    for row in rows {
        sink.write(&tag_run(row, run))?;
    }
    Ok(())
}

/// The one writer of `BENCH_*.json`: replaces, in the file at `path`, the
/// rows `rows` supersedes — those with the same `bench`, `mode` and `n` as
/// one of them — and keeps every other line byte for byte, so the benches
/// sharing a file (and the history rows nobody regenerates) survive each
/// other's runs. Prints the standard banner.
pub fn write_bench(path: &str, rows: &[Json]) {
    match replace_bench_rows(path, rows) {
        Ok(()) => crate::say!("\nbench: wrote {} rows to {path}", rows.len()),
        Err(e) => eprintln!("bench: cannot write {path} ({e}); results print only"),
    }
}

/// [`write_bench`] without the banner, for a sweep that writes each row as
/// soon as it is measured.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn replace_bench_rows(path: &str, rows: &[Json]) -> std::io::Result<()> {
    // A row tagged as a before/after record (`tag`, or the older `rev`) is
    // replaced only by a row with the same tags, so a plain run keeps the
    // tagged history.
    let key = |row: &Json| {
        let field = |name| row.get(name).map(Json::to_json);
        let tags = (field("tag"), field("rev"));
        (field("bench"), field("mode"), field("n"), tags)
    };
    let superseded: Vec<_> = rows.iter().map(key).collect();
    let mut text = String::new();
    for line in std::fs::read_to_string(path).unwrap_or_default().lines() {
        let stale = Json::parse(line).is_ok_and(|row| superseded.contains(&key(&row)));
        if !stale && !line.trim().is_empty() {
            text.push_str(line);
            text.push('\n');
        }
    }
    for row in rows {
        row.render(&mut text);
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Creates the JSONL sink for `experiment` under the obs dir, or explains
/// why export is off (an unwritable directory disables export, it does not
/// fail the experiment).
#[must_use]
pub fn obs_sink(experiment: &str) -> Option<JsonlSink> {
    match JsonlSink::for_experiment(experiment) {
        Ok(sink) => Some(sink),
        Err(e) => {
            eprintln!("obs: export disabled ({e})");
            None
        }
    }
}

/// Flushes `sink` and prints the standard "wrote N rows" banner.
pub fn finish_export(sink: JsonlSink) {
    let rows = sink.rows();
    match sink.finish() {
        Ok(path) => crate::say!("obs: wrote {rows} rows to {}", path.display()),
        Err(e) => eprintln!("obs: export failed ({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_run_prepends_run_key() {
        let row = Json::obj(vec![("kind", Json::str("ts")), ("value", Json::U64(3))]);
        let tagged = tag_run(row, "warm");
        let text = tagged.to_json();
        assert!(
            text.starts_with("{\"run\":\"warm\""),
            "run key must lead: {text}"
        );
        assert_eq!(tagged.get("value").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn write_bench_keeps_every_other_bench_byte_for_byte() {
        let path = std::env::temp_dir().join(format!("son_bench_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let others = "{\"bench\":\"udp_parity\",\"mode\":\"udp\",\"udp_p50_ms\":74.082044}\n\
                      {\"bench\":\"route_recompute\",\"nodes\":64,\"speedup\":9.64106342057745}\n";
        let smoke = "{\"bench\":\"exp_throughput\",\"mode\":\"smoke\",\"forwarded\":8729}\n";
        let old = "{\"bench\":\"exp_throughput\",\"mode\":\"full\",\"forwarded\":1}\n";
        std::fs::write(path, format!("{others}{old}{smoke}")).unwrap();
        let fresh = Json::obj(vec![
            ("bench", Json::str("exp_throughput")),
            ("mode", Json::str("full")),
            ("forwarded", Json::U64(246_910)),
        ]);
        write_bench(path, std::slice::from_ref(&fresh));
        let after = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(after, format!("{others}{smoke}{}\n", fresh.to_json()));
    }

    #[test]
    fn an_untagged_write_keeps_tagged_rows_and_replaces_its_own() {
        let path = std::env::temp_dir().join(format!("son_bench_tag_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let tagged = "{\"bench\":\"exp_scale\",\"mode\":\"full\",\"n\":64,\"tag\":\"pr51-before\",\"kib\":4.7}\n\
                      {\"bench\":\"exp_scale\",\"mode\":\"full\",\"n\":64,\"tag\":\"pr51-after\",\"kib\":4.3}\n";
        let plain = "{\"bench\":\"exp_scale\",\"mode\":\"full\",\"n\":64,\"kib\":9.9}\n";
        std::fs::write(path, format!("{tagged}{plain}")).unwrap();
        let fresh = Json::obj(vec![
            ("bench", Json::str("exp_scale")),
            ("mode", Json::str("full")),
            ("n", Json::U64(64)),
            ("kib", Json::U64(4)),
        ]);
        replace_bench_rows(path, std::slice::from_ref(&fresh)).unwrap();
        let after = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(after, format!("{tagged}{}\n", fresh.to_json()));
    }

    #[test]
    fn tag_run_passes_non_objects_through() {
        let row = Json::U64(9);
        assert_eq!(tag_run(row, "x").as_u64(), Some(9));
    }
}
