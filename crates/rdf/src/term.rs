//! RDF-star term model: IRIs, literals, blank nodes, and quoted triples.

use std::fmt;

/// XSD datatype IRIs used throughout the LiDS graph.
pub mod xsd {
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    pub const DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
}

/// An RDF literal: lexical form plus datatype (or language tag).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form, e.g. `"3.14"`.
    pub lexical: String,
    /// Datatype IRI. Plain literals carry `xsd:string`.
    pub datatype: String,
    /// Optional BCP-47 language tag (mutually exclusive with a non-string
    /// datatype in RDF 1.1; we keep both fields for simplicity).
    pub language: Option<String>,
}

impl Literal {
    /// A plain `xsd:string` literal.
    pub fn string(value: impl Into<String>) -> Self {
        Literal {
            lexical: value.into(),
            datatype: xsd::STRING.to_string(),
            language: None,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal {
            lexical: value.to_string(),
            datatype: xsd::INTEGER.to_string(),
            language: None,
        }
    }

    /// An `xsd:double` literal. Uses enough precision to round-trip.
    pub fn double(value: f64) -> Self {
        Literal {
            lexical: format_f64(value),
            datatype: xsd::DOUBLE.to_string(),
            language: None,
        }
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal {
            lexical: value.to_string(),
            datatype: xsd::BOOLEAN.to_string(),
            language: None,
        }
    }

    /// Parse the lexical form as `f64` when the datatype is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        if self.datatype == xsd::DOUBLE || self.datatype == xsd::INTEGER {
            self.lexical.parse().ok()
        } else {
            None
        }
    }

    /// Parse the lexical form as `i64` when the datatype is `xsd:integer`.
    pub fn as_i64(&self) -> Option<i64> {
        if self.datatype == xsd::INTEGER {
            self.lexical.parse().ok()
        } else {
            None
        }
    }

    /// Parse the lexical form as `bool` when the datatype is `xsd:boolean`.
    pub fn as_bool(&self) -> Option<bool> {
        if self.datatype == xsd::BOOLEAN {
            self.lexical.parse().ok()
        } else {
            None
        }
    }
}

/// Render an f64 so that `parse` round-trips and integers stay readable.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// An RDF-star term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI node, stored without angle brackets.
    Iri(String),
    /// A blank node with a local label.
    BNode(String),
    /// A literal value.
    Literal(Literal),
    /// An RDF-star quoted triple (`<< s p o >>`), usable as subject/object.
    Quoted(Box<Triple>),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Construct a plain string literal term.
    pub fn string(value: impl Into<String>) -> Self {
        Term::Literal(Literal::string(value))
    }

    /// Construct an `xsd:double` literal term.
    pub fn double(value: f64) -> Self {
        Term::Literal(Literal::double(value))
    }

    /// Construct an `xsd:integer` literal term.
    pub fn integer(value: i64) -> Self {
        Term::Literal(Literal::integer(value))
    }

    /// Construct an `xsd:boolean` literal term.
    pub fn boolean(value: bool) -> Self {
        Term::Literal(Literal::boolean(value))
    }

    /// Construct a quoted-triple term.
    pub fn quoted(subject: Term, predicate: Term, object: Term) -> Self {
        Term::Quoted(Box::new(Triple { subject, predicate, object }))
    }

    /// The IRI string when this is an IRI term.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal when this is a literal term.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }
}

/// An RDF-star triple (subject may itself be a quoted triple).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Triple {
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple { subject, predicate, object }
    }
}

/// The graph component of a quad.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum GraphName {
    /// The default (unnamed) graph.
    #[default]
    Default,
    /// A named graph, identified by an IRI. The paper stores each abstracted
    /// pipeline in its own named graph.
    Named(String),
}

impl GraphName {
    pub fn named(iri: impl Into<String>) -> Self {
        GraphName::Named(iri.into())
    }
}

/// A triple placed in a graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Quad {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
    pub graph: GraphName,
}

impl Quad {
    /// A quad in the default graph.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Quad { subject, predicate, object, graph: GraphName::Default }
    }

    /// A quad in a named graph.
    pub fn in_graph(subject: Term, predicate: Term, object: Term, graph: GraphName) -> Self {
        Quad { subject, predicate, object, graph }
    }

    /// Project out the triple component.
    pub fn triple(&self) -> Triple {
        Triple {
            subject: self.subject.clone(),
            predicate: self.predicate.clone(),
            object: self.object.clone(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::BNode(label) => write!(f, "_:{label}"),
            Term::Literal(l) => {
                write!(f, "\"{}\"", escape_literal(&l.lexical))?;
                if let Some(lang) = &l.language {
                    write!(f, "@{lang}")
                } else if l.datatype != xsd::STRING {
                    write!(f, "^^<{}>", l.datatype)
                } else {
                    Ok(())
                }
            }
            Term::Quoted(t) => write!(f, "<< {} {} {} >>", t.subject, t.predicate, t.object),
        }
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.predicate, self.object)?;
        if let GraphName::Named(g) = &self.graph {
            write!(f, " <{g}>")?;
        }
        write!(f, " .")
    }
}

/// Escape a literal lexical form for N-Quads output.
pub(crate) fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors_and_accessors() {
        assert_eq!(Literal::integer(42).as_i64(), Some(42));
        assert_eq!(Literal::double(2.5).as_f64(), Some(2.5));
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(Literal::string("x").as_f64(), None);
        // integers parse as f64 too
        assert_eq!(Literal::integer(3).as_f64(), Some(3.0));
    }

    #[test]
    fn double_formatting_roundtrips() {
        for v in [0.0, 1.0, -2.5, 0.871, 1e-9, 123456.789] {
            let l = Literal::double(v);
            assert_eq!(l.as_f64(), Some(v), "lexical {:?}", l.lexical);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
        assert_eq!(Term::string("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::boolean(true).to_string(),
            "\"true\"^^<http://www.w3.org/2001/XMLSchema#boolean>"
        );
        let quoted = Term::quoted(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        assert_eq!(quoted.to_string(), "<< <s> <p> <o> >>");
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_literal("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn quad_display_includes_graph() {
        let q = Quad::in_graph(
            Term::iri("s"),
            Term::iri("p"),
            Term::iri("o"),
            GraphName::named("g"),
        );
        assert_eq!(q.to_string(), "<s> <p> <o> <g> .");
    }
}
