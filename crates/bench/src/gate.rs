//! The one gate runner: a [`Gate`] is a list of `field OP bound` clauses
//! over one JSON row, and everything that passes or fails on a number goes
//! through it — `son-top --gate` over the cluster roll-up, and
//! `son-exp gate` ([`check`]) over the rows of a `BENCH_*.json` file, where
//! a bound may also be `k*field` of a baseline row.

use son_obs::Json;

/// The comparison operators, in the order a clause is searched for them.
const OPS: [&str; 5] = [">=", "<=", ">", "<", "="];

fn holds(op: &str, value: f64, bound: f64) -> bool {
    match op {
        ">=" => value >= bound,
        "<=" => value <= bound,
        ">" => value > bound,
        "<" => value < bound,
        _ => (value - bound).abs() < f64::EPSILON,
    }
}

/// One clause: a numeric field compared against a bound.
#[derive(Debug, Clone, PartialEq)]
pub struct GateClause {
    /// Field name (`delivery`, `stale`, `sim_pkts_per_wall_s`, ...).
    pub metric: String,
    /// Comparison: one of `>=`, `<=`, `>`, `<`, `=`.
    pub op: &'static str,
    /// Bound.
    pub bound: f64,
}

/// A parsed gate spec: all clauses must hold.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gate {
    /// The clauses, spec order.
    pub clauses: Vec<GateClause>,
}

fn numeric(row: &Json, field: &str) -> Option<f64> {
    row.get(field).and_then(|v| match v {
        Json::U64(u) => Some(*u as f64),
        Json::F64(f) => Some(*f),
        _ => None,
    })
}

impl Gate {
    /// Parses `metric OP value` clauses separated by commas, e.g.
    /// `delivery>=0.95,stale<=2`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed clause.
    pub fn parse(spec: &str) -> Result<Gate, String> {
        Gate::parse_against(spec, None)
    }

    /// [`Gate::parse`] where a bound may also be `k*field`: `k` times the
    /// numeric `field` of the `baseline` row.
    ///
    /// # Errors
    ///
    /// Describes the first malformed clause, or the baseline field a bound
    /// names that the baseline row does not have.
    pub fn parse_against(spec: &str, baseline: Option<&Json>) -> Result<Gate, String> {
        let mut clauses = Vec::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (op_at, op) = OPS
                .iter()
                .find_map(|op| clause.find(op).map(|at| (at, *op)))
                .ok_or_else(|| format!("gate clause {clause:?}: no operator (>=, <=, >, <, =)"))?;
            let (metric, bound) = (clause[..op_at].trim(), &clause[op_at + op.len()..]);
            if metric.is_empty() {
                return Err(format!("gate clause {clause:?}: empty metric name"));
            }
            let (scale, base) = match bound.split_once('*') {
                None => (bound, 1.0),
                Some((scale, field)) => {
                    let base = baseline.and_then(|row| numeric(row, field.trim()));
                    let missing = format!("gate clause {clause:?}: no baseline field {field:?}");
                    (scale, base.ok_or(missing)?)
                }
            };
            let scale: f64 = scale
                .trim()
                .parse()
                .map_err(|e| format!("gate clause {clause:?}: bad bound: {e}"))?;
            clauses.push(GateClause {
                metric: metric.to_owned(),
                op,
                bound: scale * base,
            });
        }
        Ok(Gate { clauses })
    }

    /// One `(line, held)` verdict per clause. An unknown or non-numeric
    /// metric does not hold — a typo must not silently pass a health check.
    fn verdicts<'a>(&'a self, row: &'a Json) -> impl Iterator<Item = (String, bool)> + 'a {
        self.clauses.iter().map(|c| match numeric(row, &c.metric) {
            None => (format!("{}: no such numeric field", c.metric), false),
            Some(v) => {
                let held = holds(c.op, v, c.bound);
                let verdict = if held { "" } else { " violates" };
                let line = format!("{} = {v}{verdict} {} {}", c.metric, c.op, c.bound);
                (line, held)
            }
        })
    }

    /// Evaluates every clause against a row; returns the breaches (empty =
    /// healthy).
    #[must_use]
    pub fn breaches(&self, row: &Json) -> Vec<String> {
        let failed = self.verdicts(row).filter(|(_, held)| !held);
        failed.map(|(line, _)| line).collect()
    }
}

/// The last row of the JSONL file at `path` matching `selector` (see
/// [`check`]).
fn select_row(path: &str, selector: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .rev()
        .filter_map(|line| Json::parse(line).ok())
        .find(|row| {
            selector.split(',').all(|term| {
                term.split_once('=').is_some_and(|(field, want)| {
                    row.get(field).is_some_and(|v| match v {
                        Json::Str(s) => s == want,
                        other => other.to_json() == want,
                    })
                })
            })
        })
        .ok_or_else(|| format!("{path}: no row matching {selector}"))
}

/// The arguments of `son-exp gate`.
pub const USAGE: &str = "gate FILE SELECTOR CLAUSES [BASELINE_FILE BASELINE_SELECTOR]";

/// `son-exp gate FILE SELECTOR CLAUSES [BASELINE_FILE BASELINE_SELECTOR]`:
/// evaluates `CLAUSES` on the last row of the JSONL `FILE` that `SELECTOR`
/// picks — `field=value` terms the row must match (`bench=exp_scale,n=256`)
/// — resolving `k*field` bounds
/// against the baseline row, picked the same way. Returns the line to
/// print.
///
/// # Errors
///
/// The failure, naming the file and the row: a missing file, row or field,
/// a malformed clause, or a breached bound.
pub fn check(args: &[String]) -> Result<String, String> {
    let (file, selector, clauses, baseline) = match args {
        [file, selector, clauses] => (file, selector, clauses, None),
        [file, selector, clauses, base_file, base_selector] => {
            (file, selector, clauses, Some((base_file, base_selector)))
        }
        _ => return Err(format!("usage: son-exp {USAGE}")),
    };
    let row = select_row(file, selector)?;
    let (base_row, against) = match baseline {
        Some((file, selector)) => (
            Some(select_row(file, selector)?),
            format!(" against {file} [{selector}]"),
        ),
        None => (None, String::new()),
    };
    let what = format!("{file} [{selector}]{against}");
    let gate =
        Gate::parse_against(clauses, base_row.as_ref()).map_err(|e| format!("{what}: {e}"))?;
    if gate.clauses.is_empty() {
        return Ok(format!("gate ok: {what} is present"));
    }
    let breaches = gate.breaches(&row);
    if breaches.is_empty() {
        let lines: Vec<String> = gate.verdicts(&row).map(|(line, _)| line).collect();
        Ok(format!("gate ok: {what}: {}", lines.join(", ")))
    } else {
        Err(format!("{what}: {}", breaches.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_grammar_round_trips_and_evaluates() {
        let gate = Gate::parse("delivery>=0.95, stale<=2,lost<10").unwrap();
        assert_eq!(gate.clauses.len(), 3);
        let healthy = Json::obj(vec![
            ("delivery", Json::F64(0.99)),
            ("stale", Json::U64(1)),
            ("lost", Json::U64(0)),
        ]);
        assert!(gate.breaches(&healthy).is_empty());
        let sick = Json::obj(vec![
            ("delivery", Json::F64(0.5)),
            ("stale", Json::U64(9)),
            ("lost", Json::U64(0)),
        ]);
        let breaches = gate.breaches(&sick);
        assert_eq!(breaches.len(), 2);
        assert!(breaches[0].contains("delivery"));
    }

    #[test]
    fn gate_rejects_garbage_and_unknown_metrics_breach() {
        assert!(Gate::parse("delivery").is_err());
        assert!(Gate::parse("delivery>=banana").is_err());
        assert!(Gate::parse(">=2").is_err());
        let gate = Gate::parse("no_such_metric>=1").unwrap();
        assert_eq!(gate.breaches(&Json::obj(vec![])).len(), 1);
    }

    #[test]
    fn a_bound_may_scale_a_baseline_field() {
        let base = Json::obj(vec![("pps", Json::F64(1000.0))]);
        let gate = Gate::parse_against("pps>=0.70*pps", Some(&base)).unwrap();
        assert_eq!(gate.clauses[0].bound, 700.0);
        assert!(Gate::parse("pps>=0.70*pps").is_err(), "no baseline row");
        let err = Gate::parse_against("pps>=0.70*rate", Some(&base)).unwrap_err();
        assert!(err.contains("\"rate\""), "names the missing field: {err}");
    }
}
