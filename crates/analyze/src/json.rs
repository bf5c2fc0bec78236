//! Just enough JSON to read cargo's `--message-format=json` stream, which
//! the `dead-pub` rule consumes. No dependencies, same offline discipline
//! as the lexer.

/// A parsed JSON value. Numbers keep their source text: the rule only
/// reads line numbers, and those are plain integers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; `None` on any syntax error or
    /// trailing input.
    pub(crate) fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn u32(&self) -> Option<u32> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements of an array; empty for anything else.
    pub(crate) fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        self.s[self.i..].starts_with(word.as_bytes()).then(|| {
            self.i += word.len();
            v
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Some(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return None;
                    }
                    members.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Some(Json::Obj(members));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Some(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                (self.i > start)
                    .then(|| Json::Num(String::from_utf8_lossy(&self.s[start..self.i]).into()))
            }
        }
    }

    /// A string literal starting at the current `"`.
    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    let esc = *self.s.get(self.i + 1)?;
                    self.i += 2;
                    let c = match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        // cargo writes non-ASCII text raw, so a `\u` escape
                        // is a control character, never half a surrogate pair.
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16);
                            char::from_u32(code.ok()?).unwrap_or('\u{FFFD}')
                        }
                        other => char::from(other),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_cargo_message_shape() {
        let v = Json::parse(
            r#"{"reason":"compiler-message","message":{"code":{"code":"E0624"},
               "spans":[{"line_start":11,"is_primary":false,"label":"a \"q\" é"}],
               "children":[]},"ok":true,"none":null,"n":-1.5e3}"#,
        )
        .expect("valid JSON");
        assert_eq!(
            v.get("reason").and_then(Json::str),
            Some("compiler-message")
        );
        let msg = v.get("message").expect("message");
        let span = &msg.get("spans").expect("spans").items()[0];
        assert_eq!(span.get("line_start").and_then(Json::u32), Some(11));
        assert_eq!(span.get("label").and_then(Json::str), Some("a \"q\" é"));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert!(msg.get("children").expect("children").items().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "nul"] {
            assert_eq!(Json::parse(bad), None, "{bad}");
        }
    }
}
