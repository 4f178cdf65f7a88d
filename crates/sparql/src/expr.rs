//! Term-level expression evaluation, shared by both evaluators.
//!
//! Expressions always operate on decoded [`Term`]s — FILTER needs lexical
//! values and numeric coercions that ids cannot answer. The executor
//! therefore hands this module a *resolver* closure that looks a variable's
//! term up in the dictionary on demand and lends it out: a variable or
//! constant operand is never cloned, only computed values (and quoted
//! triples, which the dictionary builds from their constituents' ids) are
//! owned.
//!
//! `Err(())` models SPARQL's expression errors (unbound variables, type
//! mismatches), which FILTER treats as false.

use std::borrow::Cow;
use std::cmp::Ordering;

use lids_rdf::Term;

use crate::ast::{BinOp, Expr, Func, VarId};
use crate::results::term_str;

/// An expression's value: lent by the resolver or the expression itself,
/// or computed.
type Value<'t> = Result<Cow<'t, Term>, ()>;

fn computed<'t>(term: Term) -> Value<'t> {
    Ok(Cow::Owned(term))
}

/// Evaluate an expression, resolving variables through `resolver`.
pub(crate) fn eval_expr<'t, R>(resolver: &R, expr: &'t Expr) -> Value<'t>
where
    R: Fn(VarId) -> Option<Cow<'t, Term>>,
{
    match expr {
        Expr::Var(v) => resolver(*v).ok_or(()),
        Expr::Const(t) => Ok(Cow::Borrowed(t)),
        Expr::Not(e) => {
            let b = effective_bool(Some(eval_expr(resolver, e)?.as_ref())).ok_or(())?;
            computed(Term::boolean(!b))
        }
        Expr::Neg(e) => {
            let v = numeric(eval_expr(resolver, e)?.as_ref()).ok_or(())?;
            computed(Term::double(-v))
        }
        Expr::Binary(op, l, r) => eval_binary(resolver, *op, l, r),
        Expr::Call(func, args) => eval_call(resolver, *func, args),
    }
}

/// True when the expression evaluates to an effective boolean true; errors
/// count as false (the FILTER rule).
pub fn filter_passes<'t, R>(resolver: &R, expr: &'t Expr) -> bool
where
    R: Fn(VarId) -> Option<Cow<'t, Term>>,
{
    effective_bool(eval_expr(resolver, expr).ok().as_deref()).unwrap_or(false)
}

fn eval_binary<'t, R>(resolver: &R, op: BinOp, l: &'t Expr, r: &'t Expr) -> Value<'t>
where
    R: Fn(VarId) -> Option<Cow<'t, Term>>,
{
    let truth = |e: &'t Expr| effective_bool(eval_expr(resolver, e).ok().as_deref());
    match op {
        BinOp::And => {
            if !truth(l).ok_or(())? {
                return computed(Term::boolean(false));
            }
            computed(Term::boolean(truth(r).ok_or(())?))
        }
        BinOp::Or => {
            let lv = truth(l);
            if lv == Some(true) {
                return computed(Term::boolean(true));
            }
            match (lv, truth(r)) {
                (_, Some(true)) => computed(Term::boolean(true)),
                (Some(false), Some(false)) => computed(Term::boolean(false)),
                _ => Err(()),
            }
        }
        _ => {
            let lv = eval_expr(resolver, l)?;
            let rv = eval_expr(resolver, r)?;
            combine_binary(op, &lv, &rv).map(Cow::Owned)
        }
    }
}

fn combine_binary(op: BinOp, lv: &Term, rv: &Term) -> Result<Term, ()> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let a = numeric(lv).ok_or(())?;
            let b = numeric(rv).ok_or(())?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(());
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Term::double(out))
        }
        BinOp::Eq => Ok(Term::boolean(terms_equal(lv, rv))),
        BinOp::Ne => Ok(Term::boolean(!terms_equal(lv, rv))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = compare_terms(Some(lv), Some(rv));
            Ok(Term::boolean(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => unreachable!("handled by eval_binary"),
    }
}

fn eval_call<'t, R>(resolver: &R, func: Func, args: &'t [Expr]) -> Value<'t>
where
    R: Fn(VarId) -> Option<Cow<'t, Term>>,
{
    match func {
        Func::Bound => match args.first() {
            Some(Expr::Var(v)) => computed(Term::boolean(resolver(*v).is_some())),
            _ => Err(()),
        },
        Func::Str => {
            let t = eval_expr(resolver, args.first().ok_or(())?)?;
            computed(Term::string(term_str(&t)))
        }
        Func::LCase | Func::UCase => {
            let t = eval_expr(resolver, args.first().ok_or(())?)?;
            let s = string_of(&t).ok_or(())?;
            computed(Term::string(if func == Func::LCase {
                s.to_lowercase()
            } else {
                s.to_uppercase()
            }))
        }
        Func::Contains | Func::StrStarts | Func::Regex => {
            let [hay, needle] = args else {
                return Err(());
            };
            let hay = eval_expr(resolver, hay)?;
            let needle = eval_expr(resolver, needle)?;
            let (hay, needle) = (string_of(&hay).ok_or(())?, string_of(&needle).ok_or(())?);
            computed(Term::boolean(match func {
                Func::Contains => hay.contains(needle),
                Func::StrStarts => hay.starts_with(needle),
                _ => simple_regex(hay, needle),
            }))
        }
    }
}

fn string_of(t: &Term) -> Option<&str> {
    match t {
        Term::Literal(l) => Some(&l.lexical),
        Term::Iri(i) => Some(i),
        _ => None,
    }
}

pub(crate) fn numeric(t: &Term) -> Option<f64> {
    t.as_literal().and_then(|l| l.as_f64())
}

fn terms_equal(a: &Term, b: &Term) -> bool {
    if let (Some(x), Some(y)) = (numeric(a), numeric(b)) {
        return x == y;
    }
    a == b
}

/// SPARQL-ish ordering: unbound < numbers < strings < IRIs < other. Text is
/// compared where the terms hold it; only blank nodes and quoted triples
/// have theirs built.
pub(crate) fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    fn rank(t: Option<&Term>) -> u8 {
        match t {
            None => 0,
            Some(t) => match t {
                Term::Literal(l) if l.as_f64().is_some() => 1,
                Term::Literal(_) => 2,
                Term::Iri(_) => 3,
                _ => 4,
            },
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Some(x), Some(y)) => {
            if let (Some(nx), Some(ny)) = (numeric(x), numeric(y)) {
                nx.partial_cmp(&ny).unwrap_or(Ordering::Equal)
            } else {
                term_str(x).cmp(&term_str(y))
            }
        }
        _ => Ordering::Equal,
    }
}

/// SPARQL effective boolean value.
fn effective_bool(t: Option<&Term>) -> Option<bool> {
    match t? {
        Term::Literal(l) => {
            if let Some(b) = l.as_bool() {
                Some(b)
            } else if let Some(n) = l.as_f64() {
                Some(n != 0.0)
            } else {
                Some(!l.lexical.is_empty())
            }
        }
        _ => None,
    }
}

/// Tiny regex: supports `.`, `*`, `+`, `?` (postfix on single atoms), `^`,
/// `$`, and `\`-escaped literals. Enough for the label filters the KGLiDS
/// interfaces issue; unanchored by default.
pub fn simple_regex(text: &str, pattern: &str) -> bool {
    let pat: Vec<char> = pattern.chars().collect();
    let txt: Vec<char> = text.chars().collect();
    let anchored_start = pat.first() == Some(&'^');
    let p = if anchored_start { &pat[1..] } else { &pat[..] };
    if anchored_start {
        return match_here(p, &txt);
    }
    for start in 0..=txt.len() {
        if match_here(p, &txt[start..]) {
            return true;
        }
    }
    false
}

fn match_here(pat: &[char], txt: &[char]) -> bool {
    if pat.is_empty() {
        return true;
    }
    if pat == ['$'] {
        return txt.is_empty();
    }
    // atom (+ optional escape)
    let (atom, alen): (Option<char>, usize) = if pat[0] == '\\' && pat.len() > 1 {
        (Some(pat[1]), 2)
    } else if pat[0] == '.' {
        (None, 1)
    } else {
        (Some(pat[0]), 1)
    };
    let quant = pat.get(alen).copied();
    let matches_atom = |c: char| atom.is_none_or(|a| a == c);
    match quant {
        Some('*') => {
            let rest = &pat[alen + 1..];
            let mut i = 0;
            loop {
                if match_here(rest, &txt[i..]) {
                    return true;
                }
                if i < txt.len() && matches_atom(txt[i]) {
                    i += 1;
                } else {
                    return false;
                }
            }
        }
        Some('+') => {
            let rest = &pat[alen + 1..];
            if txt.is_empty() || !matches_atom(txt[0]) {
                return false;
            }
            let mut i = 1;
            loop {
                if match_here(rest, &txt[i..]) {
                    return true;
                }
                if i < txt.len() && matches_atom(txt[i]) {
                    i += 1;
                } else {
                    return false;
                }
            }
        }
        Some('?') => {
            let rest = &pat[alen + 1..];
            if !txt.is_empty() && matches_atom(txt[0]) && match_here(rest, &txt[1..]) {
                return true;
            }
            match_here(rest, txt)
        }
        _ => {
            if !txt.is_empty() && matches_atom(txt[0]) {
                match_here(&pat[alen..], &txt[1..])
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_regex_features() {
        assert!(simple_regex("hello", "ell"));
        assert!(simple_regex("hello", "^hel"));
        assert!(simple_regex("hello", "o$"));
        assert!(!simple_regex("hello", "^ello"));
        assert!(simple_regex("aaab", "a+b"));
        assert!(simple_regex("ab", "a.*b"));
        assert!(simple_regex("ab", "ax?b"));
        assert!(simple_regex("a.b", "a\\.b"));
        assert!(!simple_regex("axb", "a\\.b"));
    }
}
