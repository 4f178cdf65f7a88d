//! Recursive-descent parser for the Python subset.

use crate::ast::{Expr, Module, Stmt};
use crate::lexer::{tokenize, Tok, TokKind};

/// Parse error with source line.
#[derive(Debug, Clone, PartialEq)]
pub struct PyParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for PyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PyParseError {}

impl From<PyParseError> for lids_exec::LidsError {
    fn from(e: PyParseError) -> Self {
        lids_exec::LidsError::new(lids_exec::ErrorKind::PyParseError, e.to_string())
    }
}

/// Parse a Python script into a [`Module`].
pub fn parse_module(source: &str) -> Result<Module, PyParseError> {
    let tokens = tokenize(source).map_err(|e| PyParseError { line: e.line, message: e.message })?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let body = p.parse_block_until_eof()?;
    Ok(Module { body })
}

/// Maximum expression/suite nesting depth (prevents stack overflow on
/// pathological input; real pipelines nest a handful of levels). One
/// budget counts suites, expressions and unary operators together.
const MAX_DEPTH: usize = 64;

/// Positional arguments plus keyword arguments of one call.
type CallArgs = (Vec<Expr>, Vec<(String, Expr)>);

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> TokKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> PyParseError {
        PyParseError { line: self.line(), message: message.into() }
    }

    fn expect(&mut self, kind: TokKind) -> Result<(), PyParseError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, kind: TokKind) -> bool {
        if *self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn is_name(&self, kw: &str) -> bool {
        matches!(self.peek(), TokKind::Name(n) if n == kw)
    }

    fn eat_name(&mut self, kw: &str) -> bool {
        if self.is_name(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_name(&mut self) -> Result<String, PyParseError> {
        match self.advance() {
            TokKind::Name(n) => Ok(n),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, PyParseError> {
        let mut body = Vec::new();
        loop {
            match self.peek() {
                TokKind::Eof => break,
                TokKind::Newline | TokKind::Semicolon => {
                    self.advance();
                }
                TokKind::Dedent | TokKind::Indent => {
                    return Err(self.err("unexpected indentation at top level"));
                }
                _ => body.push(self.parse_statement()?),
            }
        }
        Ok(body)
    }

    /// Parse an indented suite following a `:`, one nesting level deeper.
    fn parse_suite(&mut self) -> Result<Vec<Stmt>, PyParseError> {
        self.nested(Self::parse_suite_body)
    }

    fn parse_suite_body(&mut self) -> Result<Vec<Stmt>, PyParseError> {
        self.expect(TokKind::Colon)?;
        // inline suite: `if x: y = 1`
        if *self.peek() != TokKind::Newline {
            let stmt = self.parse_simple_statement()?;
            self.eat(TokKind::Newline);
            return Ok(vec![stmt]);
        }
        self.expect(TokKind::Newline)?;
        self.expect(TokKind::Indent)?;
        let mut body = Vec::new();
        loop {
            match self.peek() {
                TokKind::Dedent => {
                    self.advance();
                    break;
                }
                TokKind::Eof => break,
                TokKind::Newline | TokKind::Semicolon => {
                    self.advance();
                }
                _ => body.push(self.parse_statement()?),
            }
        }
        Ok(body)
    }

    fn parse_statement(&mut self) -> Result<Stmt, PyParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokKind::Name(kw) => match kw.as_str() {
                "import" => self.parse_import(line),
                "from" => self.parse_from_import(line),
                "if" => self.parse_if(line),
                "for" => self.parse_for(line),
                "while" => {
                    self.advance();
                    let test = self.parse_expr()?;
                    let body = self.parse_suite()?;
                    Ok(Stmt::While { line, test, body })
                }
                "def" => self.parse_def(line),
                "class" => self.parse_class(line),
                "with" => self.parse_with(line),
                "return" => {
                    self.advance();
                    let value = if matches!(self.peek(), TokKind::Newline | TokKind::Eof) {
                        None
                    } else {
                        Some(self.parse_expr_tuple()?)
                    };
                    self.eat(TokKind::Newline);
                    Ok(Stmt::Return { line, value })
                }
                "pass" => {
                    self.advance();
                    self.eat(TokKind::Newline);
                    Ok(Stmt::Pass { line })
                }
                "break" => {
                    self.advance();
                    self.eat(TokKind::Newline);
                    Ok(Stmt::Break { line })
                }
                "continue" => {
                    self.advance();
                    self.eat(TokKind::Newline);
                    Ok(Stmt::Continue { line })
                }
                _ => {
                    let s = self.parse_simple_statement()?;
                    self.eat(TokKind::Newline);
                    Ok(s)
                }
            },
            TokKind::At => {
                // decorator: skip the decorator expression, keep the function
                self.advance();
                let _ = self.parse_expr()?;
                self.eat(TokKind::Newline);
                self.parse_statement()
            }
            _ => {
                let s = self.parse_simple_statement()?;
                self.eat(TokKind::Newline);
                Ok(s)
            }
        }
    }

    /// Assignment / aug-assignment / bare expression.
    fn parse_simple_statement(&mut self) -> Result<Stmt, PyParseError> {
        let line = self.line();
        let first = self.parse_expr_tuple()?;
        match self.peek().clone() {
            TokKind::Assign => {
                self.advance();
                let mut targets = flatten_tuple(first);
                let mut value = self.parse_expr_tuple()?;
                // chained assignment a = b = expr
                while self.eat(TokKind::Assign) {
                    targets.extend(flatten_tuple(value));
                    value = self.parse_expr_tuple()?;
                }
                Ok(Stmt::Assign { line, targets, value })
            }
            TokKind::AugAssign(op) => {
                self.advance();
                let value = self.parse_expr_tuple()?;
                Ok(Stmt::AugAssign { line, target: first, op, value })
            }
            _ => Ok(Stmt::Expr { line, value: first }),
        }
    }

    fn parse_import(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // import
        let mut items = Vec::new();
        loop {
            let mut module = self.expect_name()?;
            while self.eat(TokKind::Dot) {
                module.push('.');
                module.push_str(&self.expect_name()?);
            }
            let alias = if self.eat_name("as") {
                Some(self.expect_name()?)
            } else {
                None
            };
            items.push((module, alias));
            if !self.eat(TokKind::Comma) {
                break;
            }
        }
        self.eat(TokKind::Newline);
        Ok(Stmt::Import { line, items })
    }

    fn parse_from_import(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // from
        let mut module = self.expect_name()?;
        while self.eat(TokKind::Dot) {
            module.push('.');
            module.push_str(&self.expect_name()?);
        }
        if !self.eat_name("import") {
            return Err(self.err("expected 'import' in from-import"));
        }
        let mut items = Vec::new();
        let parenthesised = self.eat(TokKind::LParen);
        loop {
            if self.eat(TokKind::Star) {
                items.push(("*".to_string(), None));
            } else {
                let name = self.expect_name()?;
                let alias = if self.eat_name("as") {
                    Some(self.expect_name()?)
                } else {
                    None
                };
                items.push((name, alias));
            }
            if !self.eat(TokKind::Comma) {
                break;
            }
        }
        if parenthesised {
            self.expect(TokKind::RParen)?;
        }
        self.eat(TokKind::Newline);
        Ok(Stmt::FromImport { line, module, items })
    }

    fn parse_if(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // if / elif
        let test = self.parse_expr()?;
        let body = self.parse_suite()?;
        let mut orelse = Vec::new();
        if self.is_name("elif") {
            let elif_line = self.line();
            orelse.push(self.parse_if(elif_line)?);
        } else if self.eat_name("else") {
            orelse = self.parse_suite()?;
        }
        Ok(Stmt::If { line, test, body, orelse })
    }

    fn parse_for(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // for
        // Targets are plain names/tuples — parse with postfix only so the
        // `in` keyword is not swallowed as a comparison operator.
        let mut targets = vec![self.parse_postfix()?];
        while self.eat(TokKind::Comma) {
            if self.is_name("in") {
                break;
            }
            targets.push(self.parse_postfix()?);
        }
        let target = if targets.len() == 1 {
            targets.remove(0)
        } else {
            Expr::Tuple(targets)
        };
        if !self.eat_name("in") {
            return Err(self.err("expected 'in' in for loop"));
        }
        let iter = self.parse_expr_tuple()?;
        let body = self.parse_suite()?;
        Ok(Stmt::For { line, target, iter, body })
    }

    fn parse_def(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // def
        let name = self.expect_name()?;
        self.expect(TokKind::LParen)?;
        let mut params = Vec::new();
        while *self.peek() != TokKind::RParen {
            // tolerate *args / **kwargs markers
            self.eat(TokKind::Star);
            self.eat(TokKind::DoubleStar);
            let p = self.expect_name()?;
            params.push(p);
            // default value
            if self.eat(TokKind::Assign) {
                let _ = self.parse_expr()?;
            }
            // annotation
            if self.eat(TokKind::Colon) {
                let _ = self.parse_expr()?;
            }
            if !self.eat(TokKind::Comma) {
                break;
            }
        }
        self.expect(TokKind::RParen)?;
        // return annotation
        if self.eat(TokKind::Arrow) {
            let _ = self.parse_expr()?;
        }
        let body = self.parse_suite()?;
        Ok(Stmt::FunctionDef { line, name, params, body })
    }

    fn parse_class(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // class
        let name = self.expect_name()?;
        if self.eat(TokKind::LParen) {
            while *self.peek() != TokKind::RParen {
                let _ = self.parse_expr()?;
                if !self.eat(TokKind::Comma) {
                    break;
                }
            }
            self.expect(TokKind::RParen)?;
        }
        let body = self.parse_suite()?;
        Ok(Stmt::ClassDef { line, name, body })
    }

    fn parse_with(&mut self, line: usize) -> Result<Stmt, PyParseError> {
        self.advance(); // with
        let mut items = Vec::new();
        loop {
            let ctx = self.parse_expr()?;
            let alias = if self.eat_name("as") {
                Some(self.expect_name()?)
            } else {
                None
            };
            items.push((ctx, alias));
            if !self.eat(TokKind::Comma) {
                break;
            }
        }
        let body = self.parse_suite()?;
        Ok(Stmt::With { line, items, body })
    }

    // ---- expressions ----

    /// Run `f` one nesting level deeper. Every recursion that follows the
    /// input's nesting (a suite, an expression, a unary operator) goes
    /// through here, so the parser's stack depth is bounded by
    /// [`MAX_DEPTH`] and a deeper script is a typed error.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, PyParseError>,
    ) -> Result<T, PyParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Expression possibly followed by `, expr, ...` (a bare tuple).
    fn parse_expr_tuple(&mut self) -> Result<Expr, PyParseError> {
        let first = self.parse_expr()?;
        if *self.peek() == TokKind::Comma {
            let mut items = vec![first];
            while self.eat(TokKind::Comma) {
                if matches!(
                    self.peek(),
                    TokKind::Newline | TokKind::Eof | TokKind::Assign | TokKind::RParen
                ) {
                    break;
                }
                items.push(self.parse_expr()?);
            }
            Ok(Expr::Tuple(items))
        } else {
            Ok(first)
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, PyParseError> {
        self.nested(Self::parse_ternary)
    }

    fn parse_ternary(&mut self) -> Result<Expr, PyParseError> {
        let body = self.parse_or()?;
        if self.eat_name("if") {
            let test = self.parse_or()?;
            if !self.eat_name("else") {
                return Err(self.err("expected 'else' in conditional expression"));
            }
            let orelse = self.parse_expr()?;
            // model as nested binop to stay simple
            return Ok(Expr::BinOp {
                op: "if-else".into(),
                left: Box::new(Expr::BinOp {
                    op: "if".into(),
                    left: Box::new(body),
                    right: Box::new(test),
                }),
                right: Box::new(orelse),
            });
        }
        Ok(body)
    }

    fn parse_or(&mut self) -> Result<Expr, PyParseError> {
        let mut left = self.parse_and()?;
        while self.eat_name("or") {
            let right = self.parse_and()?;
            left = Expr::BinOp { op: "or".into(), left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, PyParseError> {
        let mut left = self.parse_not()?;
        while self.eat_name("and") {
            let right = self.parse_not()?;
            left = Expr::BinOp { op: "and".into(), left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, PyParseError> {
        if self.eat_name("not") {
            let operand = self.nested(Self::parse_not)?;
            return Ok(Expr::UnaryOp { op: "not".into(), operand: Box::new(operand) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, PyParseError> {
        let mut left = self.parse_arith()?;
        loop {
            let op = match self.peek() {
                TokKind::Eq => "==",
                TokKind::Ne => "!=",
                TokKind::Lt => "<",
                TokKind::Le => "<=",
                TokKind::Gt => ">",
                TokKind::Ge => ">=",
                TokKind::Name(n) if n == "in" => "in",
                TokKind::Name(n) if n == "is" => "is",
                TokKind::Name(n)
                    if n == "not"
                        && matches!(self.peek2(), TokKind::Name(m) if m == "in") =>
                {
                    "not in"
                }
                _ => break,
            };
            self.advance();
            if op == "not in" {
                self.advance(); // consume the `in`
            }
            // `is not`
            if op == "is" {
                self.eat_name("not");
            }
            let right = self.parse_arith()?;
            left = Expr::BinOp { op: op.into(), left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_arith(&mut self) -> Result<Expr, PyParseError> {
        let mut left = self.parse_term()?;
        loop {
            let op = match self.peek() {
                TokKind::Plus => "+",
                TokKind::Minus => "-",
                _ => break,
            };
            self.advance();
            let right = self.parse_term()?;
            left = Expr::BinOp { op: op.into(), left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Expr, PyParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokKind::Star => "*",
                TokKind::Slash => "/",
                TokKind::DoubleSlash => "//",
                TokKind::Percent => "%",
                TokKind::DoubleStar => "**",
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::BinOp { op: op.into(), left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, PyParseError> {
        match self.peek() {
            TokKind::Minus => {
                self.advance();
                let operand = self.nested(Self::parse_unary)?;
                Ok(Expr::UnaryOp { op: "-".into(), operand: Box::new(operand) })
            }
            TokKind::Plus => {
                self.advance();
                self.nested(Self::parse_unary)
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, PyParseError> {
        let mut base = self.parse_atom()?;
        loop {
            match self.peek() {
                TokKind::Dot => {
                    self.advance();
                    let attr = self.expect_name()?;
                    base = Expr::Attribute { base: Box::new(base), attr };
                }
                TokKind::LParen => {
                    self.advance();
                    let (args, kwargs) = self.parse_call_args()?;
                    base = Expr::Call { func: Box::new(base), args, kwargs };
                }
                TokKind::LBracket => {
                    self.advance();
                    let index = self.parse_subscript_index()?;
                    self.expect(TokKind::RBracket)?;
                    base = Expr::Subscript { base: Box::new(base), index: Box::new(index) };
                }
                _ => break,
            }
        }
        Ok(base)
    }

    fn parse_subscript_index(&mut self) -> Result<Expr, PyParseError> {
        // slice with empty lower: `[:5]`
        if *self.peek() == TokKind::Colon {
            self.advance();
            let upper = if *self.peek() == TokKind::RBracket {
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            };
            return Ok(Expr::Slice { lower: None, upper });
        }
        let first = self.parse_expr_tuple()?;
        if self.eat(TokKind::Colon) {
            let upper = if *self.peek() == TokKind::RBracket {
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            };
            return Ok(Expr::Slice { lower: Some(Box::new(first)), upper });
        }
        Ok(first)
    }

    fn parse_call_args(&mut self) -> Result<CallArgs, PyParseError> {
        let mut args = Vec::new();
        let mut kwargs = Vec::new();
        while *self.peek() != TokKind::RParen {
            // *args / **kwargs splat: skip marker, treat value positionally
            self.eat(TokKind::Star);
            self.eat(TokKind::DoubleStar);
            // keyword arg: NAME '=' expr (lookahead)
            if let TokKind::Name(n) = self.peek().clone() {
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokKind::Assign) {
                    self.advance();
                    self.advance();
                    let v = self.parse_expr()?;
                    kwargs.push((n, v));
                    if !self.eat(TokKind::Comma) {
                        break;
                    }
                    continue;
                }
            }
            args.push(self.parse_expr()?);
            if !self.eat(TokKind::Comma) {
                break;
            }
        }
        self.expect(TokKind::RParen)?;
        Ok((args, kwargs))
    }

    fn parse_atom(&mut self) -> Result<Expr, PyParseError> {
        match self.advance() {
            TokKind::Name(n) => match n.as_str() {
                "True" => Ok(Expr::Bool(true)),
                "False" => Ok(Expr::Bool(false)),
                "None" => Ok(Expr::NoneLit),
                "lambda" => {
                    let mut params = Vec::new();
                    while !matches!(self.peek(), TokKind::Colon) {
                        params.push(self.expect_name()?);
                        if !self.eat(TokKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokKind::Colon)?;
                    let body = self.parse_expr()?;
                    Ok(Expr::Lambda { params, body: Box::new(body) })
                }
                _ => Ok(Expr::Name(n)),
            },
            TokKind::Int(i) => Ok(Expr::Int(i)),
            TokKind::Float(f) => Ok(Expr::Float(f)),
            TokKind::Str(s) => Ok(Expr::Str(s)),
            TokKind::LParen => {
                if self.eat(TokKind::RParen) {
                    return Ok(Expr::Tuple(vec![]));
                }
                let inner = self.parse_expr_tuple()?;
                self.expect(TokKind::RParen)?;
                Ok(inner)
            }
            TokKind::LBracket => {
                let mut items = Vec::new();
                while *self.peek() != TokKind::RBracket {
                    items.push(self.parse_expr()?);
                    // list comprehension: treat `for ... in ...` tail as opaque
                    if self.is_name("for") {
                        while !matches!(self.peek(), TokKind::RBracket | TokKind::Eof) {
                            self.advance();
                        }
                        break;
                    }
                    if !self.eat(TokKind::Comma) {
                        break;
                    }
                }
                self.expect(TokKind::RBracket)?;
                Ok(Expr::List(items))
            }
            TokKind::LBrace => {
                let mut items = Vec::new();
                while *self.peek() != TokKind::RBrace {
                    let k = self.parse_expr()?;
                    if self.eat(TokKind::Colon) {
                        let v = self.parse_expr()?;
                        items.push((k, v));
                    } else {
                        // set literal: value-only entry
                        items.push((k, Expr::NoneLit));
                    }
                    if !self.eat(TokKind::Comma) {
                        break;
                    }
                }
                self.expect(TokKind::RBrace)?;
                Ok(Expr::Dict(items))
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

fn flatten_tuple(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Tuple(items) => items,
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `depth` nested `if` suites around a `pass`, one space of indent
    /// per level.
    fn nested_suites(depth: usize) -> String {
        let mut src = String::new();
        for level in 0..depth {
            src.push_str(&" ".repeat(level));
            src.push_str("if x:\n");
        }
        src.push_str(&" ".repeat(depth));
        src.push_str("pass\n");
        src
    }

    /// Parse on a thread with the 2 MiB stack of a spawned worker.
    fn parse_on_worker(src: String) -> Result<Module, PyParseError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_module(&src))
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn suite_nesting_is_bounded_by_the_depth_budget() {
        assert!(parse_on_worker(nested_suites(MAX_DEPTH)).is_ok());
        let err = parse_on_worker(nested_suites(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
        // the depth that overflowed a worker's stack: a typed error now
        let err = parse_on_worker(nested_suites(1_500)).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn unary_chains_share_the_depth_budget() {
        for op in ["not ", "-", "+"] {
            let ok = format!("y = {}x\n", op.repeat(MAX_DEPTH - 1));
            assert!(parse_on_worker(ok).is_ok(), "{op}");
            let deep = format!("y = {}x\n", op.repeat(100_000));
            assert!(parse_on_worker(deep).is_err(), "{op}");
        }
    }

    #[test]
    fn parses_figure3_pipeline() {
        let src = r#"
import pandas as pd
from sklearn.impute import SimpleImputer
from sklearn.preprocessing import LabelEncoder, StandardScaler
from sklearn.ensemble import RandomForestClassifier
from sklearn.metrics import accuracy_score

df = pd.read_csv('titanic/train.csv')
X, y = df.drop('Survived', axis=1), df['Survived']
imputer = SimpleImputer(strategy='most_frequent')
X['Sex'] = LabelEncoder().fit_transform(X['Sex'])
X = imputer.fit_transform(X)
scaler = StandardScaler()
X['NormalizedAge'] = scaler.fit_transform(X['Age'])
X_train, y_train, X_test, y_test = train_test_split(X, y, 0.2)
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X_train, y_train)
print(accuracy_score(y_test, clf.predict(X_test)))
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.body.len(), 16);
        // X, y tuple assignment flattened into two targets
        let Stmt::Assign { targets, .. } = &m.body[6] else { panic!("{:?}", m.body[6]) };
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn import_forms() {
        let m = parse_module("import numpy as np, os\nfrom sklearn.metrics import f1_score as f1\n").unwrap();
        let Stmt::Import { items, .. } = &m.body[0] else { panic!() };
        assert_eq!(items[0], ("numpy".to_string(), Some("np".to_string())));
        assert_eq!(items[1], ("os".to_string(), None));
        let Stmt::FromImport { module, items, .. } = &m.body[1] else { panic!() };
        assert_eq!(module, "sklearn.metrics");
        assert_eq!(items[0], ("f1_score".to_string(), Some("f1".to_string())));
    }

    #[test]
    fn control_flow_blocks() {
        let src = "\
for i in range(10):
    if i > 5:
        x = i
    else:
        x = 0
while x > 0:
    x -= 1
def helper(a, b=2):
    return a + b
";
        let m = parse_module(src).unwrap();
        assert_eq!(m.body.len(), 3);
        let Stmt::For { body, .. } = &m.body[0] else { panic!() };
        let Stmt::If { orelse, .. } = &body[0] else { panic!() };
        assert_eq!(orelse.len(), 1);
        let Stmt::FunctionDef { name, params, .. } = &m.body[2] else { panic!() };
        assert_eq!(name, "helper");
        assert_eq!(params, &vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn subscripts_and_slices() {
        let m = parse_module("a = df['col']\nb = xs[0:5]\nc = xs[:3]\n").unwrap();
        let Stmt::Assign { value, .. } = &m.body[0] else { panic!() };
        let Expr::Subscript { index, .. } = value else { panic!() };
        assert_eq!(index.as_str(), Some("col"));
        let Stmt::Assign { value, .. } = &m.body[1] else { panic!() };
        assert!(matches!(**{
            let Expr::Subscript { index, .. } = value else { panic!() };
            index
        }, Expr::Slice { .. }));
    }

    #[test]
    fn call_args_and_kwargs() {
        let m = parse_module("clf = RandomForestClassifier(50, max_depth=10, n_jobs=-1)\n").unwrap();
        let Stmt::Assign { value, .. } = &m.body[0] else { panic!() };
        let Expr::Call { args, kwargs, .. } = value else { panic!() };
        assert_eq!(args.len(), 1);
        assert_eq!(kwargs.len(), 2);
        assert_eq!(kwargs[0].0, "max_depth");
    }

    #[test]
    fn multiline_call() {
        let m = parse_module("x = f(\n    1,\n    2,\n)\n").unwrap();
        let Stmt::Assign { value, .. } = &m.body[0] else { panic!() };
        let Expr::Call { args, .. } = value else { panic!() };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn with_statement() {
        let m = parse_module("with open('f.csv') as fh:\n    data = fh.read()\n").unwrap();
        let Stmt::With { items, body, .. } = &m.body[0] else { panic!() };
        assert_eq!(items[0].1.as_deref(), Some("fh"));
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn elif_chain() {
        let m = parse_module("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n").unwrap();
        let Stmt::If { orelse, .. } = &m.body[0] else { panic!() };
        let Stmt::If { orelse: inner, .. } = &orelse[0] else { panic!() };
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn list_dict_literals() {
        let m = parse_module("cfg = {'a': 1, 'b': [1, 2, 3]}\n").unwrap();
        let Stmt::Assign { value, .. } = &m.body[0] else { panic!() };
        let Expr::Dict(items) = value else { panic!() };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn comparison_and_bool_ops() {
        let m = parse_module("ok = a > 1 and b not in xs or not c\n").unwrap();
        let Stmt::Assign { value, .. } = &m.body[0] else { panic!() };
        let Expr::BinOp { op, .. } = value else { panic!() };
        assert_eq!(op, "or");
    }

    #[test]
    fn decorated_function_is_kept() {
        let m = parse_module("@cache\ndef f():\n    return 1\n").unwrap();
        assert!(matches!(&m.body[0], Stmt::FunctionDef { name, .. } if name == "f"));
    }

    #[test]
    fn inline_suite() {
        let m = parse_module("if x: y = 1\n").unwrap();
        let Stmt::If { body, .. } = &m.body[0] else { panic!() };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_module("x = 1\ny = ][\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn lambda_and_ternary() {
        let m = parse_module("f = lambda a, b: a + b\ng = 1 if ok else 2\n").unwrap();
        assert!(matches!(&m.body[0], Stmt::Assign { value: Expr::Lambda { .. }, .. }));
        assert!(matches!(&m.body[1], Stmt::Assign { .. }));
    }

    #[test]
    fn list_comprehension_is_tolerated() {
        let m = parse_module("xs = [i * 2 for i in range(10)]\n").unwrap();
        assert!(matches!(&m.body[0], Stmt::Assign { .. }));
    }
}
