//! N-Quads (with RDF-star quoted triples) serialization and parsing.
//!
//! The LiDS graph is published on the Web per the paper; this module gives
//! the store a standard interchange format and powers the round-trip
//! property tests.

use crate::term::{xsd, GraphName, Literal, Quad, Term, Triple};

/// Serialize one quad as an N-Quads line (without trailing newline).
pub fn write_quad(quad: &Quad) -> String {
    quad.to_string()
}

/// Serialize an iterator of quads as an N-Quads document.
pub fn write_document<'a>(quads: impl Iterator<Item = &'a Quad>) -> String {
    let mut out = String::new();
    for q in quads {
        out.push_str(&q.to_string());
        out.push('\n');
    }
    out
}

/// Deepest quoted-triple nesting a term may have: `<< << … >> … >>` past
/// this many levels is refused as a [`ParseError`]. The parser recurses
/// once per level, so a deeper line would otherwise overflow the stack of
/// the thread that parses it.
const MAX_NESTING: usize = 64;

/// Error produced when parsing N-Quads input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse an N-Quads document (comments with `#`, blank lines allowed).
pub fn parse_document(input: &str) -> Result<Vec<Quad>, ParseError> {
    let mut quads = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        quads.push(parse_line(trimmed, line_no)?);
    }
    Ok(quads)
}

fn parse_line(line: &str, line_no: usize) -> Result<Quad, ParseError> {
    let mut p = Cursor { input: line.as_bytes(), pos: 0, line: line_no, depth: 0 };
    let subject = p.parse_term()?;
    p.skip_ws();
    let predicate = p.parse_term()?;
    p.skip_ws();
    let object = p.parse_term()?;
    p.skip_ws();
    let graph = if p.peek() == Some(b'<') {
        let g = p.parse_term()?;
        match g {
            Term::Iri(iri) => GraphName::Named(iri),
            other => return Err(p.err(format!("graph label must be an IRI, got {other}"))),
        }
    } else {
        GraphName::Default
    };
    p.skip_ws();
    if p.peek() != Some(b'.') {
        return Err(p.err("expected terminating '.'".into()));
    }
    p.pos += 1;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing content after '.'".into()));
    }
    Ok(Quad { subject, predicate, object, graph })
}

struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
    /// Quoted triples open around the current position.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: String) -> ParseError {
        ParseError { line: self.line, message }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => {
                if self.input.get(self.pos + 1) == Some(&b'<') {
                    self.parse_quoted_triple()
                } else {
                    self.parse_iri().map(Term::Iri)
                }
            }
            Some(b'_') => self.parse_bnode(),
            Some(b'"') => self.parse_literal(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of line".into())),
        }
    }

    fn parse_iri(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'>' {
                let iri = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in IRI".into()))?
                    .to_string();
                self.pos += 1;
                return Ok(iri);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated IRI".into()))
    }

    fn parse_bnode(&mut self) -> Result<Term, ParseError> {
        if self.input.get(self.pos + 1) != Some(&b':') {
            return Err(self.err("expected '_:' blank node prefix".into()));
        }
        self.pos += 2;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("empty blank node label".into()));
        }
        let label = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in blank node label".into()))?;
        Ok(Term::BNode(label.to_string()))
    }

    fn parse_literal(&mut self) -> Result<Term, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut lexical = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| self.err("dangling escape".into()))?;
                    lexical.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        c => return Err(self.err(format!("unknown escape \\{}", c as char))),
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = std::str::from_utf8(&self.input[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in literal".into()))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated literal".into()))?;
                    lexical.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated literal".into())),
            }
        }
        // optional datatype or language tag
        match self.peek() {
            Some(b'^') => {
                if self.input.get(self.pos + 1) != Some(&b'^') {
                    return Err(self.err("expected '^^'".into()));
                }
                self.pos += 2;
                if self.peek() != Some(b'<') {
                    return Err(self.err("expected datatype IRI".into()));
                }
                let datatype = self.parse_iri()?;
                Ok(Term::Literal(Literal { lexical, datatype, language: None }))
            }
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("empty language tag".into()));
                }
                let lang = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in language tag".into()))?;
                Ok(Term::Literal(Literal {
                    lexical,
                    datatype: xsd::STRING.to_string(),
                    language: Some(lang.to_string()),
                }))
            }
            _ => Ok(Term::Literal(Literal {
                lexical,
                datatype: xsd::STRING.to_string(),
                language: None,
            })),
        }
    }

    fn parse_quoted_triple(&mut self) -> Result<Term, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("quoted triples nest deeper than {MAX_NESTING} levels")));
        }
        // consumes "<<"
        self.pos += 2;
        self.depth += 1;
        let subject = self.parse_term()?;
        let predicate = self.parse_term()?;
        let object = self.parse_term()?;
        self.depth -= 1;
        self.skip_ws();
        if self.peek() != Some(b'>') || self.input.get(self.pos + 1) != Some(&b'>') {
            return Err(self.err("expected '>>' closing quoted triple".into()));
        }
        self.pos += 2;
        Ok(Term::Quoted(Box::new(Triple { subject, predicate, object })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(q: &Quad) -> Quad {
        let text = write_quad(q);
        let parsed = parse_document(&text).expect("parses");
        assert_eq!(parsed.len(), 1);
        parsed.into_iter().next().unwrap()
    }

    #[test]
    fn simple_roundtrip() {
        let q = Quad::new(Term::iri("http://s"), Term::iri("http://p"), Term::string("v"));
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn named_graph_roundtrip() {
        let q = Quad::in_graph(
            Term::iri("s"),
            Term::iri("p"),
            Term::integer(-5),
            GraphName::named("http://g"),
        );
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn quoted_triple_roundtrip() {
        let q = Quad::new(
            Term::quoted(Term::iri("a"), Term::iri("sim"), Term::iri("b")),
            Term::iri("score"),
            Term::double(0.87),
        );
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn literal_escapes_roundtrip() {
        let q = Quad::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::string("line1\nline2\t\"quoted\" back\\slash"),
        );
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn language_tag_roundtrip() {
        let q = Quad::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::Literal(Literal {
                lexical: "bonjour".into(),
                datatype: xsd::STRING.into(),
                language: Some("fr".into()),
            }),
        );
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn document_with_comments_and_blanks() {
        let doc = "# header\n\n<s> <p> <o> .\n<s> <p> _:b1 .\n";
        let quads = parse_document(doc).unwrap();
        assert_eq!(quads.len(), 2);
        assert_eq!(quads[1].object, Term::BNode("b1".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "<s> <p> <o> .\n<s> <p> .\n";
        let err = parse_document(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// A line whose subject is `levels` quoted triples, one inside the next.
    fn nested_line(levels: usize) -> String {
        let (open, close) = ("<< ".repeat(levels), " <urn:p> <urn:o> >>".repeat(levels));
        format!("{open}<urn:a>{close} <urn:p> <urn:o> .")
    }

    /// At the budget a quoted triple parses, writes back and drops on a
    /// 2 MiB thread — the default stack of a spawned thread — in an
    /// unoptimised build.
    #[test]
    fn nesting_at_the_budget_round_trips_on_a_default_stack() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let line = nested_line(MAX_NESTING);
                let quads = parse_document(&line).unwrap();
                assert_eq!(write_quad(&quads[0]), line);
                assert_eq!(roundtrip(&quads[0]), quads[0]);
            })
            .unwrap();
        run.join().unwrap();
    }

    /// One level past the budget is a parse error on its line, and so is a
    /// line nested 100,000 deep, on the same 2 MiB thread.
    #[test]
    fn nesting_past_the_budget_is_a_parse_error() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for levels in [MAX_NESTING + 1, 100_000] {
                    let doc = format!("<s> <p> <o> .\n{}\n", nested_line(levels));
                    let err = parse_document(&doc).unwrap_err();
                    assert_eq!(err.line, 2, "{err}");
                    assert!(err.message.contains("nest deeper"), "{err}");
                }
            })
            .unwrap();
        run.join().unwrap();
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_document("<s> <p> <o> . extra\n").is_err());
    }

    proptest! {
        #[test]
        fn prop_string_literal_roundtrip(s in "\\PC{0,40}") {
            // printable chars incl. unicode; escapes handled by writer/parser
            let q = Quad::new(Term::iri("s"), Term::iri("p"), Term::string(s));
            prop_assert_eq!(roundtrip(&q), q);
        }

        #[test]
        fn prop_numeric_roundtrip(v in proptest::num::f64::NORMAL) {
            let q = Quad::new(Term::iri("s"), Term::iri("p"), Term::double(v));
            let back = roundtrip(&q);
            let got = back.object.as_literal().unwrap().as_f64().unwrap();
            prop_assert_eq!(got, v);
        }
    }
}
