//! Hand-rolled JSON: the shim set has no serde, and the benchmark
//! writes exactly two shapes — the one-line result object and the
//! Chrome-trace event list — so a value tree and a writer are enough.
//! The reader exists for the self-tests (`BENCHMARK.json`, round trips).

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers print with every digit Rust's shortest round-trip form
/// gives; JSON has no NaN or infinity, so those become `null` and the
/// caller is expected to have rejected them already.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

pub mod read {
    //! Minimal recursive-descent reader, enough for `BENCHMARK.json` and
    //! the benchmark's own output. Only the tests read JSON.
    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn items(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                _ => &[],
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.i..].starts_with(lit.as_bytes());
            if hit {
                self.i += lit.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i).copied() {
                Some(b'{') => {
                    self.i += 1;
                    let mut pairs = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("}") {
                            break;
                        }
                        if !pairs.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                        self.ws();
                        let Json::Str(k) = self.string()? else { unreachable!() };
                        self.ws();
                        if !self.eat(":") {
                            return Err(format!("expected ':' at byte {}", self.i));
                        }
                        pairs.push((k, self.value()?));
                    }
                    Ok(Json::Obj(pairs))
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("]") {
                            break;
                        }
                        if !items.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                        items.push(self.value()?);
                    }
                    Ok(Json::Arr(items))
                }
                Some(b'"') => self.string(),
                Some(_) if self.eat("true") => Ok(Json::Bool(true)),
                Some(_) if self.eat("false") => Ok(Json::Bool(false)),
                Some(_) if self.eat("null") => Ok(Json::Null),
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number at byte {start}"))
                }
                None => Err("unexpected end of input".into()),
            }
        }

        fn string(&mut self) -> Result<Json, String> {
            if !self.eat("\"") {
                return Err(format!("expected string at byte {}", self.i));
            }
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                self.i += c.len_utf8();
                match c {
                    '"' => return Ok(Json::Str(out)),
                    '\\' => {
                        let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                self.i += 4;
                            }
                            other => out.push(other as char),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::read::parse;
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Num(1.2034567891234).render(), "1.2034567891234");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(2.5e-7).render().parse::<f64>().unwrap(), 2.5e-7);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::Str("a\"b\\c\n\u{1}".into()).render(), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn result_shape_round_trips_through_the_reader() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([(
                    "latency_p1_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::Str("ms".into()))]),
                )]),
            ),
        ]);
        let line = v.render();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"latency_p1_ms":{"value":1.2034,"unit":"ms"}}}"#
        );
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
    }
}
