//! Trace export: Chrome-trace JSON (`chrome://tracing` / Perfetto) and
//! JSONL event logs.
//!
//! The workspace has no serialization dependency, so both formats are
//! emitted by hand through small string builders. The emitters are deterministic — lanes in interning order, spans through
//! [`TraceLog::sorted_spans`], samples in capture order, metrics in
//! dense-id order, and timestamps rendered as exact `ns/1000` microsecond
//! strings — so the export of a deterministic DES run is byte-stable and
//! can be golden-file tested.
//!
//! A minimal JSON well-formedness checker ([`validate_json`]) rides along
//! for the golden-file test and the `telemetry_check` CI binary; it
//! validates structure (not schema) without needing a JSON dependency.

use crate::causal::CausalLog;
use crate::log::TraceLog;
use crate::span::Span;
use crate::telemetry::{CounterId, GaugeId, SampleSeries};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Render nanoseconds as a decimal microsecond literal (`1234.567`),
/// exactly and without floating point, so output is byte-stable.
fn micros_into(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn span_event_into(out: &mut String, s: &Span) {
    out.push_str("{\"name\":\"");
    let _ = write!(out, "{}", s.kind);
    out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
    micros_into(out, s.t0.as_nanos());
    out.push_str(",\"dur\":");
    micros_into(out, s.duration().as_nanos());
    out.push_str(",\"pid\":0,\"tid\":");
    let _ = write!(out, "{}", s.lane.0);
    if s.step != Span::NO_STEP {
        let _ = write!(out, ",\"args\":{{\"step\":{}}}", s.step);
    }
    out.push('}');
}

/// Export a run as Chrome-trace JSON: one `M` (thread-name) event per
/// lane, one `X` (complete) event per span, and, when supplied:
///
/// * per causal edge, an `s` (flow start) at its source event and a
///   binding `f` (flow finish) at its destination, so Perfetto draws the
///   cross-entity arrows — wire ships, queue unblocks, steal announces,
///   gate opens — right on top of the span lanes (edges whose endpoint
///   lanes never recorded a span are skipped: a flow needs a track to
///   land on);
/// * per sample of a metric series, one `C` (counter) event per
///   gauge/counter, viewable as counter tracks alongside the lanes.
pub fn chrome_trace(
    log: &TraceLog,
    series: Option<&SampleSeries>,
    causal: Option<&CausalLog>,
) -> String {
    let mut out = String::with_capacity(4096 + log.spans().len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for lane in log.lanes() {
        sep(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        let _ = write!(out, "{}", lane.0);
        out.push_str(",\"args\":{\"name\":\"");
        escape_into(&mut out, log.lane_label(lane));
        out.push_str("\"}}");
    }
    for s in log.sorted_spans() {
        sep(&mut out);
        span_event_into(&mut out, &s);
    }
    if let Some(causal) = causal {
        for (id, e) in causal.edges().enumerate() {
            let (Some(src), Some(dst)) =
                (log.lane_by_label(e.src_lane), log.lane_by_label(e.dst_lane))
            else {
                continue;
            };
            for (ph, lane, t) in [("s", src, e.src_t), ("f\",\"bp\":\"e", dst, e.dst_t)] {
                sep(&mut out);
                out.push_str("{\"name\":\"");
                out.push_str(e.kind.name());
                let _ = write!(
                    out,
                    "\",\"cat\":\"causal\",\"ph\":\"{ph}\",\"id\":{id},\"ts\":"
                );
                micros_into(&mut out, t.as_nanos());
                let _ = write!(out, ",\"pid\":0,\"tid\":{}}}", lane.0);
            }
        }
    }
    if let Some(series) = series {
        for p in &series.points {
            for g in GaugeId::ALL {
                sep(&mut out);
                out.push_str("{\"name\":\"");
                out.push_str(g.name());
                out.push_str("\",\"ph\":\"C\",\"ts\":");
                micros_into(&mut out, p.t.as_nanos());
                let _ = write!(out, ",\"pid\":0,\"args\":{{\"value\":{}}}}}", p.gauge(g));
            }
            for c in CounterId::ALL {
                sep(&mut out);
                out.push_str("{\"name\":\"");
                out.push_str(c.name());
                out.push_str("\",\"ph\":\"C\",\"ts\":");
                micros_into(&mut out, p.t.as_nanos());
                let _ = write!(out, ",\"pid\":0,\"args\":{{\"value\":{}}}}}", p.counter(c));
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Export a run as JSON Lines: a `meta` record, then one `span` record
/// per span (time order), one `flow` record per causal edge (kind, both
/// endpoints, join token; recording order) and one `sample` record per
/// series point, each a self-contained JSON object — greppable and
/// streamable.
pub fn jsonl(log: &TraceLog, series: Option<&SampleSeries>, causal: Option<&CausalLog>) -> String {
    let mut out = String::with_capacity(4096 + log.spans().len() * 112);
    out.push_str("{\"type\":\"meta\",\"lanes\":[");
    for (i, lane) in log.lanes().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, log.lane_label(lane));
        out.push('"');
    }
    let _ = writeln!(
        out,
        "],\"horizon_ns\":{},\"spans\":{}}}",
        log.horizon().as_nanos(),
        log.spans().len()
    );
    for s in log.sorted_spans() {
        out.push_str("{\"type\":\"span\",\"lane\":\"");
        escape_into(&mut out, log.lane_label(s.lane));
        let _ = write!(
            out,
            "\",\"kind\":\"{}\",\"t0_ns\":{},\"t1_ns\":{}",
            s.kind,
            s.t0.as_nanos(),
            s.t1.as_nanos()
        );
        if s.step != Span::NO_STEP {
            let _ = write!(out, ",\"step\":{}", s.step);
        }
        out.push_str("}\n");
    }
    if let Some(causal) = causal {
        for e in causal.edges() {
            out.push_str("{\"type\":\"flow\",\"kind\":\"");
            out.push_str(e.kind.name());
            out.push_str("\",\"src_lane\":\"");
            escape_into(&mut out, e.src_lane);
            let _ = write!(
                out,
                "\",\"src_t_ns\":{},\"dst_lane\":\"",
                e.src_t.as_nanos()
            );
            escape_into(&mut out, e.dst_lane);
            let _ = writeln!(
                out,
                "\",\"dst_t_ns\":{},\"token\":{}}}",
                e.dst_t.as_nanos(),
                e.token
            );
        }
    }
    if let Some(series) = series {
        for p in &series.points {
            let _ = write!(
                out,
                "{{\"type\":\"sample\",\"t_ns\":{},\"counters\":{{",
                p.t.as_nanos()
            );
            for (i, c) in CounterId::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", c.name(), p.counter(*c));
            }
            out.push_str("},\"gauges\":{");
            for (i, g) in GaugeId::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", g.name(), p.gauge(*g));
            }
            out.push_str("}}\n");
        }
    }
    out
}

/// Validate that `s` is one well-formed JSON value (structure only, no
/// schema). Returns the byte offset and a reason on failure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(())
}

/// Validate a JSONL document: every non-empty line must be valid JSON.
pub fn validate_jsonl(s: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        n += 1;
    }
    Ok(n)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.i)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !matches!(
                                    self.b.get(self.i),
                                    Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
                                ) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.i;
            while matches!(p.b.get(p.i), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind};
    use crate::telemetry::{CounterId, Probe, Telemetry};
    use zipper_types::SimTime;

    fn tiny_log() -> TraceLog {
        let mut log = TraceLog::new();
        let a = log.lane("sim/r0/comp");
        let b = log.lane("ana/q0/ana");
        log.record(
            Span::new(
                a,
                SpanKind::Compute,
                SimTime::ZERO,
                SimTime::from_micros(1500),
            )
            .with_step(0),
        );
        log.record_interval(
            b,
            SpanKind::Analysis,
            SimTime::from_micros(1500),
            SimTime::from_micros(2750),
        );
        log
    }

    fn tiny_series() -> SampleSeries {
        let t = Telemetry::on();
        let mut probe = Probe::new(SimTime::from_millis(1));
        t.add(CounterId::NetBytes, 4096);
        probe.poll(SimTime::from_millis(2), &t);
        probe.finish(SimTime::from_millis(2), &t)
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let json = chrome_trace(&tiny_log(), Some(&tiny_series()), None);
        validate_json(&json).unwrap();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"sim/r0/comp\""));
        // 1500 µs span starting at 0.
        assert!(json.contains("\"ts\":0.000,\"dur\":1500.000"), "{json}");
        assert!(json.contains("\"net.bytes\""));
        assert!(json.contains("\"step\":0"));
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let text = jsonl(&tiny_log(), Some(&tiny_series()), None);
        // meta + 2 spans + 3 samples.
        assert_eq!(validate_jsonl(&text).unwrap(), 6);
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"kind\":\"analysis\""));
        assert!(text.contains("\"type\":\"sample\""));
    }

    #[test]
    fn export_is_deterministic() {
        let log = tiny_log();
        let series = tiny_series();
        assert_eq!(
            chrome_trace(&log, Some(&series), None),
            chrome_trace(&log, Some(&series), None)
        );
        assert_eq!(
            jsonl(&log, Some(&series), None),
            jsonl(&log, Some(&series), None)
        );
    }

    #[test]
    fn escaping_keeps_hostile_labels_valid() {
        let mut log = TraceLog::new();
        let l = log.lane("weird\"lane\\with\nnewline");
        log.record_interval(l, SpanKind::Idle, SimTime::ZERO, SimTime::from_nanos(1));
        validate_json(&chrome_trace(&log, None, None)).unwrap();
        validate_jsonl(&jsonl(&log, None, None)).unwrap();
    }

    #[test]
    fn flow_events_ride_on_span_lanes() {
        use crate::causal::{CausalLog, EdgeKind};
        let log = tiny_log();
        let mut causal = CausalLog::new();
        causal.edge_at(
            EdgeKind::Wire,
            "sim/r0/comp",
            SimTime::from_micros(1500),
            "ana/q0/ana",
            SimTime::from_micros(1500),
            7,
        );
        // An edge on a lane the span log never saw is skipped, not broken.
        causal.edge_at(
            EdgeKind::Pfs,
            "ghost",
            SimTime::ZERO,
            "ghost",
            SimTime::from_micros(1),
            8,
        );
        let json = chrome_trace(&log, None, Some(&causal));
        validate_json(&json).unwrap();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "{json}");
        assert_eq!(json.matches("\"cat\":\"causal\"").count(), 2, "{json}");
        let lines = jsonl(&log, None, Some(&causal));
        validate_jsonl(&lines).unwrap();
        // JSONL keeps every edge (it names lanes inline).
        assert_eq!(lines.matches("\"type\":\"flow\"").count(), 2, "{lines}");
        assert!(lines.contains("\"kind\":\"wire\""), "{lines}");
        assert!(lines.contains("\"token\":7"), "{lines}");
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("12.").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("").is_err());
        assert!(validate_json("[true,false,null,-1.5e3]").is_ok());
    }
}
