//! The result line: a one-line JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `value` (the shortest text that reads
/// back as the same `f64`).  JSON has no NaN or infinity; those become 0,
/// and the caller reports the run as not correct.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A JSON value, as far as the result line needs.
    #[derive(Debug, Clone, PartialEq)]
    enum Value {
        Bool(bool),
        Number(f64),
        Str(String),
        Object(BTreeMap<String, Value>),
    }

    struct Parser<'a> {
        text: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) {
            self.skip_ws();
            assert_eq!(self.text[self.at], byte, "at byte {}", self.at);
            self.at += 1;
        }

        fn value(&mut self) -> Value {
            self.skip_ws();
            match self.text[self.at] {
                b'{' => {
                    self.eat(b'{');
                    let mut map = BTreeMap::new();
                    self.skip_ws();
                    if self.text[self.at] == b'}' {
                        self.at += 1;
                        return Value::Object(map);
                    }
                    loop {
                        let Value::Str(key) = self.value() else {
                            panic!("object key is not a string");
                        };
                        self.eat(b':');
                        assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                        self.skip_ws();
                        self.at += 1;
                        match self.text[self.at - 1] {
                            b',' => continue,
                            b'}' => return Value::Object(map),
                            other => panic!("unexpected {}", other as char),
                        }
                    }
                }
                b'"' => {
                    self.at += 1;
                    let start = self.at;
                    while self.text[self.at] != b'"' {
                        assert_ne!(self.text[self.at], b'\\', "escapes are not expected");
                        self.at += 1;
                    }
                    self.at += 1;
                    Value::Str(String::from_utf8(self.text[start..self.at - 1].to_vec()).unwrap())
                }
                b't' | b'f' => {
                    let word = if self.text[self.at] == b't' {
                        "true"
                    } else {
                        "false"
                    };
                    assert!(self.text[self.at..].starts_with(word.as_bytes()));
                    self.at += word.len();
                    Value::Bool(word == "true")
                }
                _ => {
                    let start = self.at;
                    while self.at < self.text.len()
                        && matches!(
                            self.text[self.at],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.at += 1;
                    }
                    let text = std::str::from_utf8(&self.text[start..self.at]).unwrap();
                    Value::Number(text.parse().expect("a JSON number"))
                }
            }
        }
    }

    fn parse(text: &str) -> Value {
        let mut p = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.skip_ws();
        assert_eq!(p.at, text.len(), "trailing text");
        v
    }

    #[test]
    fn result_line_parses_back_with_every_digit() {
        let metrics = [
            Metric {
                name: "latency_ms",
                value: 1.203_456_789_012_345,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 8.127e-5,
                unit: "s",
            },
            Metric {
                name: "peak_heap_mb",
                value: 42.0,
                unit: "MiB",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let Value::Object(top) = parse(&line) else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(top["correct"], Value::Bool(true));
        assert_eq!(top["attempted"], Value::Number(1000.0));
        assert_eq!(top["failed"], Value::Number(0.0));
        let Value::Object(m) = &top["metrics"] else {
            panic!("metrics is not an object")
        };
        for metric in &metrics {
            let Value::Object(entry) = &m[metric.name] else {
                panic!("{} missing", metric.name)
            };
            assert_eq!(entry["value"], Value::Number(metric.value));
            assert_eq!(entry["unit"], Value::Str(metric.unit.to_string()));
        }
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(number(f64::NAN), "0.0");
        assert_eq!(number(f64::INFINITY), "0.0");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
