//! Trace exporters.
//!
//! Two renderings of a [`TraceSnapshot`]:
//!
//! * [`chrome_trace`] — the Chrome `trace_event` JSON array format, which
//!   loads directly into Perfetto / `chrome://tracing`. Spans become `"X"`
//!   (complete) events, instants become `"i"` events. All timestamps are
//!   integer microseconds of *simulated* time, so two identical runs export
//!   byte-identical files.
//! * [`text_timeline`] — a plain-text, indented timeline for terminals and
//!   golden tests.
//!
//! A tiny structural JSON checker ([`validate_json`]) rides along so smoke
//! tests and CI can verify an exported file parses without pulling in a
//! JSON dependency.

use std::fmt::Write as _;
use std::io;

use crate::tracer::{micros_of, AttrValue, RecordKind, TraceRecord, TraceSnapshot};

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn attr_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::I64(v) => v.to_string(),
        AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
        AttrValue::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn record_json(rec: &TraceRecord) -> String {
    let ts = micros_of(rec.start);
    let mut args = String::new();
    if !rec.parent.is_none() {
        let _ = write!(args, "\"parent\":{}", rec.parent.raw());
    }
    for (key, value) in &rec.attrs {
        if !args.is_empty() {
            args.push(',');
        }
        let _ = write!(args, "\"{}\":{}", json_escape(key), attr_json(value));
    }
    // pid 1 = the simulated process; tid = session id + 2 so session-less
    // records (tid 1) and per-session tracks render as separate rows.
    let tid = rec.session.map(|s| s + 2).unwrap_or(1);
    match rec.kind {
        RecordKind::Span => {
            let end = rec.end.map(micros_of).unwrap_or(ts);
            let dur = (end - ts).max(0);
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"id\":{},\"args\":{{{}}}}}",
                json_escape(rec.name),
                rec.cat.as_str(),
                ts,
                dur,
                tid,
                rec.id,
                args
            )
        }
        RecordKind::Instant => format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"id\":{},\"args\":{{{}}}}}",
            json_escape(rec.name),
            rec.cat.as_str(),
            ts,
            tid,
            rec.id,
            args
        ),
    }
}

/// Renders `snapshot` as a Chrome `trace_event` JSON array.
///
/// Records appear in span-id order (creation order), timestamps are integer
/// microseconds of simulated time, and no floating point is emitted — the
/// output is byte-stable across identical runs.
pub fn chrome_trace(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("[\n");
    for (i, rec) in snapshot.records.iter().enumerate() {
        out.push_str(&record_json(rec));
        if i + 1 < snapshot.records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Writes [`chrome_trace`] output to `w`.
pub fn chrome_trace_to_writer(snapshot: &TraceSnapshot, w: &mut dyn io::Write) -> io::Result<()> {
    w.write_all(chrome_trace(snapshot).as_bytes())
}

/// Renders `snapshot` as an indented plain-text timeline, one record per
/// line, ordered by span id. Child records indent under their parent.
pub fn text_timeline(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    if snapshot.dropped > 0 {
        let _ = writeln!(
            out,
            "(ring full: {} oldest records dropped)",
            snapshot.dropped
        );
    }
    // Depth by chasing parent links; ids are sequential so a parent always
    // precedes its children and the map stays one pass.
    let mut depth = std::collections::BTreeMap::new();
    for rec in &snapshot.records {
        let d = if rec.parent.is_none() {
            0usize
        } else {
            depth.get(&rec.parent.raw()).map(|d| d + 1).unwrap_or(0)
        };
        depth.insert(rec.id, d);
        let indent = "  ".repeat(d);
        let start = micros_of(rec.start);
        match rec.kind {
            RecordKind::Span => {
                let end = rec.end.map(micros_of).unwrap_or(start);
                let _ = write!(
                    out,
                    "{indent}[{start:>10}us +{:>8}us] {}/{}",
                    (end - start).max(0),
                    rec.cat,
                    rec.name
                );
            }
            RecordKind::Instant => {
                let _ = write!(
                    out,
                    "{indent}[{start:>10}us          ] {}/{}",
                    rec.cat, rec.name
                );
            }
        }
        if let Some(session) = rec.session {
            let _ = write!(out, " session={session}");
        }
        for (key, value) in &rec.attrs {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
    }
    out
}

/// Checks that `input` is one well-formed JSON value (objects, arrays,
/// strings, numbers, booleans, null). Returns the byte offset of the first
/// error. Structural only — good enough to catch a truncated or mangled
/// export in CI without a JSON dependency.
pub fn validate_json(input: &str) -> Result<(), usize> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_lit(bytes, pos, b"true"),
        Some(b'f') => parse_lit(bytes, pos, b"false"),
        Some(b'n') => parse_lit(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(*pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(start);
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(start);
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(start);
        }
    }
    Ok(())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !matches!(
                                bytes.get(*pos),
                                Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
                            ) {
                                return Err(*pos);
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(*pos),
                }
            }
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
                skip_ws(bytes, pos);
            }
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(*pos);
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Category, SpanId, Tracer};
    use tbm_time::{TimeDelta, TimePoint};

    fn tp(ms: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_millis(ms)
    }

    fn sample() -> TraceSnapshot {
        let tracer = Tracer::new();
        let root = tracer.begin_span("session", Category::Session, tp(0), SpanId::NONE, Some(3));
        let child = tracer.begin_span_with("serve", Category::Serve, tp(10), root, Some(3), |a| {
            a.put("lateness_us", 250u64);
            a.put("cause", "retry-storm");
        });
        tracer.event(
            "fault.transient",
            Category::Fault,
            tp(12),
            child,
            Some(3),
            vec![("attempt", 1u64.into())],
        );
        tracer.end_span(child, tp(15));
        tracer.end_span(root, tp(20));
        tracer.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = chrome_trace(&sample());
        validate_json(&json).expect("export must be well-formed JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":10000"));
        assert!(json.contains("\"dur\":5000"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"cause\":\"retry-storm\""));
        // Session 3 renders on tid 5; a session-less record would be tid 1.
        assert!(json.contains("\"tid\":5"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let a = chrome_trace(&sample());
        let b = chrome_trace(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn text_timeline_indents_children() {
        let text = text_timeline(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('['), "root unindented: {}", lines[0]);
        assert!(lines[1].starts_with("  ["), "child indented: {}", lines[1]);
        assert!(
            lines[2].starts_with("    ["),
            "event doubly indented: {}",
            lines[2]
        );
        assert!(text.contains("lateness_us=250"));
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        assert!(validate_json("[]").is_ok());
        assert!(validate_json("{\"a\":[1,2.5,-3e2,\"x\",true,null]}").is_ok());
        assert!(validate_json("  [ {} , {\"k\":\"v\"} ]  ").is_ok());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1] trailing").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_ok()); // lenient: digits are digits
    }
}
