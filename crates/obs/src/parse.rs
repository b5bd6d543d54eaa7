//! chrome://tracing (Trace Event Format) importer — the inverse of
//! [`crate::chrome::render`], so a trace written with `--trace` can be
//! read back for `--verify-trace` cross-validation. Hand-rolled like the
//! exporter (offline-shims policy: no serde); accepts the JSON-array
//! flavor the exporter emits and is tolerant of reordering, whitespace
//! and unknown keys, since traces may be touched by external tools.

use std::collections::HashMap;

use crate::{Body, CommKind, Trace, TraceEvent};

/// A parsed JSON value (just enough of JSON for trace files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// An integer literal, kept exact (trace fields are `u64`).
    Int(i128),
    /// A number with a fraction or an exponent.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
    fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("trace JSON: {} at byte {}", what, self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{}'", text)))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        let exact = !text.contains(['.', 'e', 'E']);
        let parsed = if exact {
            text.parse::<i128>().ok().map(Json::Int)
        } else {
            text.parse::<f64>().ok().map(Json::Num)
        };
        parsed.ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            // Surrogate pairs never occur in our escapes;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .src
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = HashMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn comm_kind(name: &str) -> Option<CommKind> {
    Some(match name {
        "Send" => CommKind::Send,
        "Recv" => CommKind::Recv,
        "SendVec" => CommKind::SendVec,
        "RecvVec" => CommKind::RecvVec,
        "Reduce" => CommKind::Reduce,
        "Broadcast" => CommKind::Broadcast,
        _ => return None,
    })
}

/// Convert one trace object back into a [`TraceEvent`]. `Ok(None)` means
/// a valid but non-event record (process metadata, unknown categories).
fn event_of(obj: &Json) -> Result<Option<TraceEvent>, String> {
    let ph = obj.get("ph").and_then(Json::as_str).unwrap_or("");
    if ph == "M" {
        return Ok(None);
    }
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or("trace JSON: event without a name")?;
    let pid = obj
        .get("pid")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("trace JSON: event '{}' without a pid", name))?;
    let rank = if pid == 0 { None } else { Some(pid - 1) };
    let t_us = obj.get("ts").and_then(Json::as_u64).unwrap_or(0);
    let body = match ph {
        "B" => Body::Begin { name: name.to_string() },
        "E" => Body::End { name: name.to_string() },
        "i" => {
            if let Some(fault) = name.strip_prefix("fault:") {
                Body::Fault {
                    name: fault.to_string(),
                    detail: obj
                        .get("args")
                        .and_then(|a| a.get("detail"))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    peer: obj
                        .get("args")
                        .and_then(|a| a.get("peer"))
                        .and_then(Json::as_usize),
                    last_seq: obj
                        .get("args")
                        .and_then(|a| a.get("last_seq"))
                        .and_then(Json::as_u64),
                }
            } else {
                // "Kind" or "Kind opN".
                let (kind_name, op) = match name.split_once(" op") {
                    Some((k, n)) => (
                        k,
                        Some(n.parse::<usize>().map_err(|_| {
                            format!("trace JSON: malformed op index in '{}'", name)
                        })?),
                    ),
                    None => (name, None),
                };
                let kind = comm_kind(kind_name)
                    .ok_or_else(|| format!("trace JSON: unknown comm kind '{}'", kind_name))?;
                let args = obj
                    .get("args")
                    .ok_or_else(|| format!("trace JSON: comm event '{}' without args", name))?;
                let req_num = |key: &str| {
                    args.get(key).and_then(Json::as_usize).ok_or_else(|| {
                        format!("trace JSON: comm event '{}' missing '{}'", name, key)
                    })
                };
                Body::Comm {
                    kind,
                    from: req_num("from")?,
                    to: req_num("to")?,
                    op,
                    pattern: args
                        .get("pattern")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    level: req_num("level")?,
                    stmt_level: req_num("stmt_level")?,
                    place: args
                        .get("place")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    elems: args.get("elems").and_then(Json::as_u64).unwrap_or(0),
                    seq: args.get("seq").and_then(Json::as_u64),
                }
            }
        }
        other => return Err(format!("trace JSON: unknown event phase '{}'", other)),
    };
    Ok(Some(TraceEvent { t_us, rank, body }))
}

/// Parse a chrome://tracing JSON array (as written by
/// [`crate::Trace::to_chrome_json`]) back into a [`Trace`]. Events keep
/// file order, which for exporter-written files is the canonical merge
/// order (pipeline stream first, then ranks ascending).
pub fn parse_chrome_json(src: &str) -> Result<Trace, String> {
    let mut p = Parser::new(src);
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing garbage after the trace array"));
    }
    let Json::Arr(items) = root else {
        return Err("trace JSON: top level is not an array".to_string());
    };
    let mut events = Vec::new();
    for item in &items {
        if let Some(ev) = event_of(item)? {
            events.push(ev);
        }
    }
    Ok(Trace { events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufTracer, Tracer};

    fn sample() -> Trace {
        let mut p = BufTracer::pipeline();
        p.begin("parse");
        p.end("parse");
        let mut r0 = BufTracer::for_rank(0);
        r0.record(Body::Comm {
            kind: CommKind::SendVec,
            from: 0,
            to: 1,
            op: Some(3),
            pattern: "shift".into(),
            level: 1,
            stmt_level: 2,
            place: "hoisted L2->L1".into(),
            elems: 8,
            seq: Some(5),
        });
        let mut r1 = BufTracer::for_rank(1);
        r1.record(Body::Comm {
            kind: CommKind::RecvVec,
            from: 0,
            to: 1,
            op: Some(3),
            pattern: "shift".into(),
            level: 1,
            stmt_level: 2,
            place: "hoisted L2->L1".into(),
            elems: 8,
            seq: None,
        });
        r1.record(Body::Fault {
            name: "seq-gap".into(),
            detail: "a \"quoted\"\n\tdetail".into(),
            peer: Some(0),
            last_seq: Some(4),
        });
        Trace::merge(
            p.into_events(),
            vec![(0, r0.into_events()), (1, r1.into_events())],
        )
    }

    #[test]
    fn roundtrips_the_exporter_exactly() {
        let t = sample();
        let parsed = parse_chrome_json(&t.to_chrome_json()).expect("parses");
        assert_eq!(parsed, t);
        // And the parse is stable under a second roundtrip.
        assert_eq!(
            parse_chrome_json(&parsed.to_chrome_json()).unwrap(),
            parsed
        );
    }

    /// Integer fields above 2^53 come back exactly, not rounded to the
    /// nearest `f64`.
    #[test]
    fn roundtrips_integers_above_f64_precision() {
        let big = (1u64 << 53) + 1;
        let mut r0 = BufTracer::for_rank(0);
        r0.record(Body::Comm {
            kind: CommKind::Send,
            from: 0,
            to: 1,
            op: None,
            pattern: "element".into(),
            level: 0,
            stmt_level: 0,
            place: "inner".into(),
            elems: big,
            seq: Some(big),
        });
        let mut t = Trace::from_ranks(vec![(0, r0.into_events())]);
        t.events[0].t_us = big;
        let parsed = parse_chrome_json(&t.to_chrome_json()).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.events[0].t_us, big);
    }

    #[test]
    fn tolerates_whitespace_and_unknown_keys() {
        let src = r#"[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pipeline"}},
            { "name" : "Send" , "cat" : "comm" , "ph" : "i" , "s":"t", "ts" : 12 ,
              "pid" : 2 , "tid" : 0 , "extra" : [1, {"a": null}, true] ,
              "args" : { "from" : 1 , "to" : 0 , "pattern" : "element" ,
                         "level" : 0 , "stmt_level" : 1 , "place" : "inner" ,
                         "elems" : 1 } }
        ]"#;
        let t = parse_chrome_json(src).expect("parses");
        assert_eq!(t.events.len(), 1);
        let e = &t.events[0];
        assert_eq!(e.rank, Some(1));
        assert_eq!(e.t_us, 12);
        assert!(matches!(
            &e.body,
            Body::Comm {
                kind: CommKind::Send,
                from: 1,
                to: 0,
                op: None,
                seq: None,
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_chrome_json("{}").is_err());
        assert!(parse_chrome_json("[{\"name\":\"Send\"}]").is_err());
        assert!(parse_chrome_json("[").is_err());
        assert!(parse_chrome_json("[]extra").is_err());
        assert!(
            parse_chrome_json("[{\"name\":\"Warp\",\"ph\":\"i\",\"pid\":1,\"args\":{}}]")
                .is_err(),
            "unknown comm kinds are an error, not silently dropped"
        );
    }
}
