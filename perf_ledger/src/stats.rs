//! Sample summaries (median and quartiles), metric rows, and the
//! hand-written table / JSON emitters (the vendored `serde` has no JSON).

use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's one wall-clock read; every timing goes through here.
// The workspace lint bans wall-clock reads in DES-shared code; a
// benchmark harness is the sanctioned exception: it measures host time.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (the spread the
    /// benchmark contract gates on); 0 for a single sample.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them, so spreads printed
/// here match the ones the driver derives. One sample is its own median
/// and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarize an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    if n == 1 {
        return Summary {
            n,
            median: v[0],
            q1: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
    }
}

/// Which list of `BENCHMARK.json` a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// An `end_to_end` metric (tracing off).
    EndToEnd,
    /// A `per_layer` metric (traced run).
    PerLayer,
    /// Printed and kept in the ledger, but not part of the contract's
    /// result line (e.g. exact counts shown for the reader).
    Info,
}

impl Group {
    pub fn tag(self) -> &'static str {
        match self {
            Group::EndToEnd => "e2e",
            Group::PerLayer => "layer",
            Group::Info => "info",
        }
    }

    pub fn from_tag(s: &str) -> Option<Group> {
        match s {
            "e2e" => Some(Group::EndToEnd),
            "layer" => Some(Group::PerLayer),
            "info" => Some(Group::Info),
            _ => None,
        }
    }
}

/// One named metric of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub group: Group,
    pub summary: Summary,
    /// Free-form label: `exact` for counts that repeat, `not-exact` for
    /// timing-dependent counts, `n/a` for a layer off this workload's path.
    pub note: String,
}

impl Row {
    pub fn new(name: &str, unit: &str, group: Group, samples: &[f64]) -> Row {
        Row {
            name: name.to_string(),
            unit: unit.to_string(),
            group,
            summary: summarize(samples),
            note: String::new(),
        }
    }

    pub fn note(mut self, note: &str) -> Row {
        self.note = note.to_string();
        self
    }

    /// The value the contract's result line carries.
    pub fn value(&self) -> f64 {
        self.summary.median
    }

    /// Tab-separated form a child process hands its parent.
    pub fn to_wire(&self) -> String {
        let s = &self.summary;
        format!(
            "@row\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.name,
            self.unit,
            self.group.tag(),
            s.n,
            s.median,
            s.q1,
            s.q3,
            self.note
        )
    }

    /// Inverse of [`Row::to_wire`]; `None` for any other line.
    pub fn from_wire(line: &str) -> Option<Row> {
        let mut f = line.strip_prefix("@row\t")?.split('\t');
        let name = f.next()?.to_string();
        let unit = f.next()?.to_string();
        let group = Group::from_tag(f.next()?)?;
        let n = f.next()?.parse().ok()?;
        let median = f.next()?.parse().ok()?;
        let q1 = f.next()?.parse().ok()?;
        let q3 = f.next()?.parse().ok()?;
        let note = f.next().unwrap_or("").to_string();
        Some(Row {
            name,
            unit,
            group,
            summary: Summary { n, median, q1, q3 },
            note,
        })
    }
}

/// Render rows as an aligned text table.
pub fn table(rows: &[Row]) -> String {
    let w = rows.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<w$}  {:<7} {:<5} {:>5} {:>14} {:>14} {:>14} {:>7}  note",
        "metric", "unit", "group", "n", "median", "q1", "q3", "iqr/med"
    );
    for r in rows {
        let s = &r.summary;
        let _ = writeln!(
            out,
            "{:<w$}  {:<7} {:<5} {:>5} {:>14} {:>14} {:>14} {:>6.1}%  {}",
            r.name,
            r.unit,
            r.group.tag(),
            s.n,
            sig(s.median),
            sig(s.q1),
            sig(s.q3),
            s.spread() * 100.0,
            r.note
        );
    }
    out
}

/// Six significant digits for the human table (the JSON keeps every
/// digit); whole numbers in full.
fn sig(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        // Counts print in full: they are compared digit for digit.
        format!("{x:.0}")
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.5e}")
    } else {
        let digits = (5 - x.abs().log10().floor() as i32).max(0) as usize;
        format!("{x:.digits$}")
    }
}

/// A JSON number with all its digits. Non-finite values have no JSON
/// form and would mean a broken measurement, so they are a bug.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value is not finite: {x}");
    format!("{x}")
}

/// Escape a string into a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (the rows of `group`, each `{value, unit}`).
pub fn result_line(attempted: u64, failed: u64, rows: &[Row], group: Group) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let mut first = true;
    for r in rows.iter().filter(|r| r.group == group) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&r.name),
            json_num(r.value()),
            json_str(&r.unit)
        );
    }
    out.push_str("}}");
    out
}

/// One row as a ledger JSON object.
pub fn row_json(r: &Row) -> String {
    let s = &r.summary;
    format!(
        "{{\"name\": {}, \"unit\": {}, \"group\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"note\": {}}}",
        json_str(&r.name),
        json_str(&r.unit),
        json_str(r.group.tag()),
        s.n,
        json_num(s.median),
        json_num(s.q1),
        json_num(s.q3),
        json_str(&r.note)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::validate_json;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // statistics.quantiles([2, 4, 6, 8, 10], n=4) == [3.0, 6.0, 9.0]
        let s = summarize(&[2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_single_sample_is_its_own_quartiles() {
        let s = summarize(&[7.5]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.5, 7.5, 7.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn result_line_is_valid_json_with_exactly_the_contract_keys() {
        let rows = vec![
            Row::new("t2s_s", "s", Group::EndToEnd, &[0.5, 0.25, 1.0]),
            Row::new("weird \"name\"\t", "1/s", Group::EndToEnd, &[1e-9]),
            Row::new("layer.x", "ns", Group::PerLayer, &[3.0]),
        ];
        let line = result_line(10, 0, &rows, Group::EndToEnd);
        validate_json(&line).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"t2s_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("0.000000001"), "no exponent form: {line}");
        assert!(!line.contains("layer.x"));
        let bad = result_line(10, 2, &rows, Group::PerLayer);
        validate_json(&bad).unwrap();
        assert!(bad.contains("\"correct\": false") && bad.contains("layer.x"));
    }

    #[test]
    fn rows_round_trip_through_the_child_wire_and_the_ledger_json() {
        let r = Row::new(
            "zipper-core.wire.encode_gib_s.64k",
            "GiB/s",
            Group::PerLayer,
            &[1.25, 1.5, 1.75, 2.0],
        )
        .note("not-exact");
        let back = Row::from_wire(&r.to_wire()).unwrap();
        assert_eq!(back, r);
        assert!(Row::from_wire("metric  unit").is_none());
        validate_json(&row_json(&r)).unwrap();
        validate_json(&json_str("a\\b\"c\n\u{1}")).unwrap();
    }

    #[test]
    fn table_lists_every_row() {
        let rows = vec![
            Row::new("a", "s", Group::EndToEnd, &[1.0, 2.0]),
            Row::new("bbbbbbbbbb", "count", Group::Info, &[262144.0]).note("exact"),
        ];
        let t = table(&rows);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains(" 262144 ") && t.contains("exact"));
        assert!(
            table(&[Row::new("events", "count", Group::Info, &[10_187_666.0])])
                .contains("10187666")
        );
    }
}
