//! Recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;

use lids_rdf::term::xsd;
use lids_rdf::{Literal, Term};

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::results::SparqlError;

/// RDF namespace for the `a` keyword.
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Deepest nesting the parser descends into: group patterns, expression
/// levels (a parenthesis, a function call, a `!` or a unary `-`) and
/// quoted triples, counted together. The parser recurses once per level,
/// so a deeper text is refused as a parse error instead of overflowing
/// the stack of the thread that parses it.
const MAX_NESTING: usize = 64;

/// Parse a query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
        variables: Vec::new(),
        depth: 0,
    };
    parser.parse()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    variables: Vec<String>,
    /// Levels of [`Self::nested`] currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> SparqlError {
        SparqlError::Parse {
            offset: self.tokens[self.pos].offset,
            message: message.into(),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        if self.peek().is_keyword(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), SparqlError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    /// Run `parse` one nesting level deeper, refusing a level past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SparqlError>,
    ) -> Result<T, SparqlError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn var(&mut self, name: &str) -> VarId {
        if let Some(i) = self.variables.iter().position(|v| v == name) {
            VarId(i as u16)
        } else {
            self.variables.push(name.to_string());
            VarId((self.variables.len() - 1) as u16)
        }
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<String, SparqlError> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => Err(self.err(format!("unknown prefix '{prefix}:'"))),
        }
    }

    fn parse(&mut self) -> Result<Query, SparqlError> {
        // Prologue
        while self.peek().is_keyword("PREFIX") {
            self.advance();
            let (prefix, local) = match self.advance() {
                TokenKind::PName(p, l) => (p, l),
                other => return Err(self.err(format!("expected prefix name, found {other:?}"))),
            };
            if !local.is_empty() {
                return Err(self.err("prefix declaration must end with ':'"));
            }
            let iri = match self.advance() {
                TokenKind::Iri(i) => i,
                other => return Err(self.err(format!("expected IRI, found {other:?}"))),
            };
            self.prefixes.insert(prefix, iri);
        }

        let form = if self.peek().is_keyword("SELECT") {
            self.advance();
            QueryForm::Select(self.parse_select()?)
        } else if self.peek().is_keyword("ASK") {
            self.advance();
            self.eat_keyword("WHERE");
            QueryForm::Ask(self.parse_group()?)
        } else {
            return Err(self.err("expected SELECT or ASK"));
        };

        if *self.peek() != TokenKind::Eof {
            return Err(self.err(format!("unexpected trailing token {:?}", self.peek())));
        }

        Ok(Query {
            variables: std::mem::take(&mut self.variables),
            form,
        })
    }

    fn parse_select(&mut self) -> Result<SelectQuery, SparqlError> {
        let distinct = self.eat_keyword("DISTINCT");
        let projection = if *self.peek() == TokenKind::Star {
            self.advance();
            Projection::Star
        } else {
            let mut items = Vec::new();
            loop {
                match self.peek().clone() {
                    TokenKind::Var(name) => {
                        self.advance();
                        let v = self.var(&name);
                        items.push(SelectItem::Var(v));
                    }
                    TokenKind::LParen => {
                        self.advance();
                        let agg = self.parse_aggregate()?;
                        self.expect_keyword("AS")?;
                        let alias = match self.advance() {
                            TokenKind::Var(n) => self.var(&n),
                            other => {
                                return Err(self.err(format!("expected variable, got {other:?}")))
                            }
                        };
                        self.expect(TokenKind::RParen)?;
                        items.push(SelectItem::Aggregate { agg, alias });
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return Err(self.err("empty projection"));
            }
            Projection::Items(items)
        };

        self.eat_keyword("WHERE");
        let pattern = self.parse_group()?;

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let TokenKind::Var(name) = self.peek().clone() {
                self.advance();
                let v = self.var(&name);
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(self.err("GROUP BY requires at least one variable"));
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek().clone() {
                    TokenKind::Var(name) => {
                        self.advance();
                        let v = self.var(&name);
                        order_by.push(OrderKey { expr: Expr::Var(v), descending: false });
                    }
                    TokenKind::Word(w)
                        if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                    {
                        let descending = w.eq_ignore_ascii_case("DESC");
                        self.advance();
                        self.expect(TokenKind::LParen)?;
                        let expr = self.parse_expr()?;
                        self.expect(TokenKind::RParen)?;
                        order_by.push(OrderKey { expr, descending });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.err("ORDER BY requires at least one key"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if self.eat_keyword("OFFSET") {
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }

        Ok(SelectQuery {
            distinct,
            projection,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_usize(&mut self) -> Result<usize, SparqlError> {
        match self.advance() {
            TokenKind::Number(n) => n
                .parse()
                .map_err(|_| self.err(format!("invalid non-negative integer {n}"))),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn parse_aggregate(&mut self) -> Result<Aggregate, SparqlError> {
        let name = match self.advance() {
            TokenKind::Word(w) => w.to_ascii_uppercase(),
            other => return Err(self.err(format!("expected aggregate name, got {other:?}"))),
        };
        self.expect(TokenKind::LParen)?;
        let agg = match name.as_str() {
            "COUNT" => {
                if *self.peek() == TokenKind::Star {
                    self.advance();
                    Aggregate::Count { distinct: false, var: None }
                } else {
                    let distinct = self.eat_keyword("DISTINCT");
                    let var = match self.advance() {
                        TokenKind::Var(n) => self.var(&n),
                        other => return Err(self.err(format!("expected variable, got {other:?}"))),
                    };
                    Aggregate::Count { distinct, var: Some(var) }
                }
            }
            "SUM" | "AVG" | "MIN" | "MAX" => {
                let var = match self.advance() {
                    TokenKind::Var(n) => self.var(&n),
                    other => return Err(self.err(format!("expected variable, got {other:?}"))),
                };
                match name.as_str() {
                    "SUM" => Aggregate::Sum(var),
                    "AVG" => Aggregate::Avg(var),
                    "MIN" => Aggregate::Min(var),
                    _ => Aggregate::Max(var),
                }
            }
            other => return Err(self.err(format!("unsupported aggregate {other}"))),
        };
        self.expect(TokenKind::RParen)?;
        Ok(agg)
    }

    fn parse_group(&mut self) -> Result<GroupPattern, SparqlError> {
        self.nested(Self::parse_group_body)
    }

    fn parse_group_body(&mut self) -> Result<GroupPattern, SparqlError> {
        self.expect(TokenKind::LBrace)?;
        let mut elements: Vec<PatternElement> = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                TokenKind::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.advance();
                    self.expect(TokenKind::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect(TokenKind::RParen)?;
                    elements.push(PatternElement::Filter(expr));
                }
                TokenKind::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.advance();
                    let inner = self.parse_group()?;
                    elements.push(PatternElement::Optional(inner));
                }
                TokenKind::Word(w) if w.eq_ignore_ascii_case("GRAPH") => {
                    self.advance();
                    let node = self.parse_node()?;
                    let inner = self.parse_group()?;
                    elements.push(PatternElement::Graph(node, inner));
                }
                TokenKind::LBrace => {
                    // sub-group, possibly a UNION chain
                    let first = self.parse_group()?;
                    if self.peek().is_keyword("UNION") {
                        let mut branches = vec![first];
                        while self.eat_keyword("UNION") {
                            branches.push(self.parse_group()?);
                        }
                        elements.push(PatternElement::Union(branches));
                    } else {
                        // plain group: splice
                        elements.extend(first.elements);
                    }
                }
                TokenKind::Dot => {
                    self.advance();
                }
                _ => {
                    let triples = self.parse_triples_block()?;
                    elements.push(PatternElement::Triples(triples));
                }
            }
        }
        Ok(GroupPattern { elements })
    }

    fn parse_triples_block(&mut self) -> Result<Vec<TriplePattern>, SparqlError> {
        let mut triples = Vec::new();
        loop {
            let subject = self.parse_node()?;
            // predicate-object list
            loop {
                let predicate = self.parse_predicate()?;
                loop {
                    let object = self.parse_node()?;
                    triples.push(TriplePattern {
                        subject: subject.clone(),
                        predicate: predicate.clone(),
                        object,
                    });
                    if *self.peek() == TokenKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                if *self.peek() == TokenKind::Semicolon {
                    self.advance();
                    // allow trailing ';' before '.' or '}'
                    if matches!(self.peek(), TokenKind::Dot | TokenKind::RBrace) {
                        break;
                    }
                } else {
                    break;
                }
            }
            if *self.peek() == TokenKind::Dot {
                self.advance();
                // end of block?
                if matches!(
                    self.peek(),
                    TokenKind::RBrace | TokenKind::Eof
                ) || self.peek().is_keyword("FILTER")
                    || self.peek().is_keyword("OPTIONAL")
                    || self.peek().is_keyword("GRAPH")
                    || *self.peek() == TokenKind::LBrace
                {
                    break;
                }
                // otherwise, next subject
            } else {
                break;
            }
        }
        Ok(triples)
    }

    fn parse_predicate(&mut self) -> Result<NodePattern, SparqlError> {
        if let TokenKind::Word(w) = self.peek() {
            if w == "a" {
                self.advance();
                return Ok(NodePattern::Term(Term::iri(RDF_TYPE)));
            }
        }
        self.parse_node()
    }

    fn parse_node(&mut self) -> Result<NodePattern, SparqlError> {
        match self.advance() {
            TokenKind::Iri(i) => Ok(NodePattern::Term(Term::Iri(i))),
            TokenKind::PName(p, l) => {
                let iri = self.resolve_pname(&p, &l)?;
                Ok(NodePattern::Term(Term::Iri(iri)))
            }
            TokenKind::Var(name) => Ok(NodePattern::Var(self.var(&name))),
            TokenKind::BNode(label) => Ok(NodePattern::Term(Term::BNode(label))),
            TokenKind::String(s) => Ok(NodePattern::Term(self.finish_literal(s)?)),
            TokenKind::Number(n) => Ok(NodePattern::Term(number_term(&n))),
            TokenKind::Word(w) if w.eq_ignore_ascii_case("true") => {
                Ok(NodePattern::Term(Term::boolean(true)))
            }
            TokenKind::Word(w) if w.eq_ignore_ascii_case("false") => {
                Ok(NodePattern::Term(Term::boolean(false)))
            }
            TokenKind::LQuote => {
                let tp = self.nested(|parser| {
                    let subject = parser.parse_node()?;
                    let predicate = parser.parse_node()?;
                    let object = parser.parse_node()?;
                    parser.expect(TokenKind::RQuote)?;
                    Ok(TriplePattern { subject, predicate, object })
                })?;
                // fully ground quoted patterns collapse to a term
                if tp.subject.is_ground() && tp.predicate.is_ground() && tp.object.is_ground() {
                    Ok(NodePattern::Term(quoted_to_term(&tp)))
                } else {
                    Ok(NodePattern::Quoted(Box::new(tp)))
                }
            }
            other => Err(self.err(format!("expected RDF term, found {other:?}"))),
        }
    }

    fn finish_literal(&mut self, lexical: String) -> Result<Term, SparqlError> {
        match self.peek().clone() {
            TokenKind::DTypeSep => {
                self.advance();
                let datatype = match self.advance() {
                    TokenKind::Iri(i) => i,
                    TokenKind::PName(p, l) => self.resolve_pname(&p, &l)?,
                    other => return Err(self.err(format!("expected datatype IRI, got {other:?}"))),
                };
                Ok(Term::Literal(Literal { lexical, datatype, language: None }))
            }
            TokenKind::LangTag(lang) => {
                self.advance();
                Ok(Term::Literal(Literal {
                    lexical,
                    datatype: xsd::STRING.to_string(),
                    language: Some(lang),
                }))
            }
            _ => Ok(Term::string(lexical)),
        }
    }

    // ---- expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> Result<Expr, SparqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_and()?;
        while *self.peek() == TokenKind::OrOr {
            self.advance();
            let right = self.parse_and()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_rel()?;
        while *self.peek() == TokenKind::AndAnd {
            self.advance();
            let right = self.parse_rel()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_rel(&mut self) -> Result<Expr, SparqlError> {
        let left = self.parse_add()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_add()?;
        Ok(Expr::Binary(op, Box::new(left), Box::new(right)))
    }

    fn parse_add(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_mul()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr, SparqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// One expression level: every parenthesis, function argument, `!`
    /// and unary `-` passes through here, so it is where expression
    /// nesting is counted.
    fn parse_unary(&mut self) -> Result<Expr, SparqlError> {
        self.nested(Self::parse_unary_body)
    }

    fn parse_unary_body(&mut self) -> Result<Expr, SparqlError> {
        match self.peek() {
            TokenKind::Bang => {
                self.advance();
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            TokenKind::Minus => {
                self.advance();
                Ok(Expr::Neg(Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlError> {
        match self.peek().clone() {
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Var(name) => {
                self.advance();
                let v = self.var(&name);
                Ok(Expr::Var(v))
            }
            TokenKind::String(s) => {
                self.advance();
                Ok(Expr::Const(self.finish_literal(s)?))
            }
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Const(number_term(&n)))
            }
            TokenKind::Iri(i) => {
                self.advance();
                Ok(Expr::Const(Term::Iri(i)))
            }
            TokenKind::PName(p, l) => {
                self.advance();
                let iri = self.resolve_pname(&p, &l)?;
                Ok(Expr::Const(Term::Iri(iri)))
            }
            TokenKind::Word(w) => {
                let upper = w.to_ascii_uppercase();
                if upper == "TRUE" {
                    self.advance();
                    return Ok(Expr::Const(Term::boolean(true)));
                }
                if upper == "FALSE" {
                    self.advance();
                    return Ok(Expr::Const(Term::boolean(false)));
                }
                let func = match upper.as_str() {
                    "REGEX" => Func::Regex,
                    "CONTAINS" => Func::Contains,
                    "STRSTARTS" => Func::StrStarts,
                    "STR" => Func::Str,
                    "BOUND" => Func::Bound,
                    "LCASE" => Func::LCase,
                    "UCASE" => Func::UCase,
                    other => return Err(self.err(format!("unknown function {other}"))),
                };
                self.advance();
                self.expect(TokenKind::LParen)?;
                let mut args = Vec::new();
                if *self.peek() != TokenKind::RParen {
                    loop {
                        args.push(self.parse_expr()?);
                        if *self.peek() == TokenKind::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Call(func, args))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

fn number_term(lexical: &str) -> Term {
    if lexical.contains('.') || lexical.contains('e') || lexical.contains('E') {
        Term::Literal(Literal {
            lexical: lexical.to_string(),
            datatype: xsd::DOUBLE.to_string(),
            language: None,
        })
    } else {
        Term::Literal(Literal {
            lexical: lexical.to_string(),
            datatype: xsd::INTEGER.to_string(),
            language: None,
        })
    }
}

fn quoted_to_term(tp: &TriplePattern) -> Term {
    fn node_term(n: &NodePattern) -> Term {
        match n {
            NodePattern::Term(t) => t.clone(),
            NodePattern::Quoted(q) => quoted_to_term(q),
            NodePattern::Var(_) => unreachable!("caller checked groundness"),
        }
    }
    Term::quoted(
        node_term(&tp.subject),
        node_term(&tp.predicate),
        node_term(&tp.object),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://C> . }").unwrap();
        assert_eq!(q.variables, vec!["x"]);
        let QueryForm::Select(s) = &q.form else { panic!() };
        assert!(!s.distinct);
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].predicate, NodePattern::Term(Term::iri(RDF_TYPE)));
    }

    #[test]
    fn prefixes_resolve() {
        let q = parse_query(
            "PREFIX k: <http://kglids.org/ontology/> SELECT ?t WHERE { ?t a k:Table . }",
        )
        .unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        assert_eq!(
            t[0].object,
            NodePattern::Term(Term::iri("http://kglids.org/ontology/Table"))
        );
    }

    #[test]
    fn unknown_prefix_is_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x a k:Table . }").is_err());
    }

    #[test]
    fn semicolon_and_comma_abbreviations() {
        let q = parse_query("SELECT ?s WHERE { ?s <p> <o1>, <o2> ; <q> <o3> . }").unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].subject, t[2].subject);
    }

    #[test]
    fn filter_optional_graph_union() {
        let q = parse_query(
            r#"SELECT ?x ?y WHERE {
                ?x <p> ?y .
                FILTER(?y > 3 && CONTAINS(STR(?x), "col"))
                OPTIONAL { ?x <label> ?l . }
                GRAPH ?g { ?x <inpipe> ?st . }
                { ?x <k1> ?v . } UNION { ?x <k2> ?v . }
            }"#,
        )
        .unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        assert_eq!(s.pattern.elements.len(), 5);
        assert!(matches!(s.pattern.elements[1], PatternElement::Filter(_)));
        assert!(matches!(s.pattern.elements[2], PatternElement::Optional(_)));
        assert!(matches!(s.pattern.elements[3], PatternElement::Graph(_, _)));
        assert!(matches!(&s.pattern.elements[4], PatternElement::Union(b) if b.len() == 2));
    }

    #[test]
    fn aggregates_group_order_limit() {
        let q = parse_query(
            "SELECT ?lib (COUNT(DISTINCT ?p) AS ?n) WHERE { ?p <calls> ?lib . } \
             GROUP BY ?lib ORDER BY DESC(?n) LIMIT 10 OFFSET 5",
        )
        .unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].descending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
        let Projection::Items(items) = &s.projection else { panic!() };
        assert!(matches!(
            items[1],
            SelectItem::Aggregate { agg: Aggregate::Count { distinct: true, var: Some(_) }, .. }
        ));
    }

    #[test]
    fn quoted_triple_patterns() {
        let q = parse_query(
            "SELECT ?a ?b ?score WHERE { << ?a <sim> ?b >> <score> ?score . }",
        )
        .unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        assert!(matches!(t[0].subject, NodePattern::Quoted(_)));
    }

    #[test]
    fn ground_quoted_collapses_to_term() {
        let q = parse_query("SELECT ?s WHERE { << <a> <p> <b> >> <score> ?s . }").unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        assert!(matches!(&t[0].subject, NodePattern::Term(Term::Quoted(_))));
    }

    #[test]
    fn ask_form() {
        let q = parse_query("ASK { <a> <p> <b> . }").unwrap();
        assert!(matches!(q.form, QueryForm::Ask(_)));
    }

    #[test]
    fn typed_and_lang_literals() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <p> "0.5"^^<http://www.w3.org/2001/XMLSchema#double> ; <q> "hi"@en . }"#,
        )
        .unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        let NodePattern::Term(Term::Literal(l)) = &t[0].object else { panic!() };
        assert_eq!(l.as_f64(), Some(0.5));
        let NodePattern::Term(Term::Literal(l2)) = &t[1].object else { panic!() };
        assert_eq!(l2.language.as_deref(), Some("en"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_query("SELECT ?x WHERE { ?x <p> <o> . } garbage").is_err());
    }

    #[test]
    fn numeric_literals_in_patterns() {
        let q = parse_query("SELECT ?x WHERE { ?x <p> 42 ; <q> 3.5 . }").unwrap();
        let QueryForm::Select(s) = &q.form else { panic!() };
        let PatternElement::Triples(t) = &s.pattern.elements[0] else { panic!() };
        let NodePattern::Term(Term::Literal(l)) = &t[0].object else { panic!() };
        assert_eq!(l.as_i64(), Some(42));
    }

    /// `levels` nesting levels of each kind the budget counts: group
    /// patterns; expression levels (the group, the FILTER's expression and
    /// the `!` are three of them); quoted triples (the group is one).
    fn nested_texts(levels: usize) -> [String; 3] {
        let (parens, quoted) = (levels - 3, levels - 1);
        [
            format!("SELECT ?x WHERE {}?x <urn:p> ?y {}", "{ ".repeat(levels), "}".repeat(levels)),
            format!(
                "SELECT ?x WHERE {{ ?x <urn:p> ?y FILTER({}!?y{}) }}",
                "(".repeat(parens),
                ")".repeat(parens)
            ),
            format!(
                "SELECT ?x WHERE {{ {}?s{} <urn:p> ?x }}",
                "<< ".repeat(quoted),
                " <urn:p> ?o >>".repeat(quoted)
            ),
        ]
    }

    /// At the budget every kind of nesting parses and runs on a 2 MiB
    /// thread — the default stack of a spawned thread, and so of a test or
    /// a request worker — in an unoptimised build.
    #[test]
    fn nesting_at_the_budget_parses_and_runs_on_a_default_stack() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut store = lids_rdf::QuadStore::default();
                store.insert(&lids_rdf::Quad::new(
                    Term::iri("urn:s"),
                    Term::iri("urn:p"),
                    Term::iri("urn:o"),
                ));
                for text in nested_texts(MAX_NESTING) {
                    parse_query(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                    crate::query(&store, &text).unwrap_or_else(|e| panic!("{e}: {text}"));
                }
            })
            .unwrap();
        run.join().unwrap();
    }

    #[test]
    fn nesting_past_the_budget_is_a_parse_error() {
        for text in nested_texts(MAX_NESTING + 1) {
            match parse_query(&text) {
                Err(SparqlError::Parse { offset, message }) => {
                    assert!(offset > 0 && message.contains("nesting"), "{message}: {text}")
                }
                other => panic!("{other:?}: {text}"),
            }
        }
        // far past it, the parser still refuses rather than recursing on
        let bomb = format!("SELECT ?x WHERE {{ FILTER({}1{}) }}", "(".repeat(1000), ")".repeat(1000));
        assert!(matches!(parse_query(&bomb), Err(SparqlError::Parse { .. })));
    }
}
