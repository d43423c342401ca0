//! Recursive-descent parser for the query language.
//!
//! The parser produces a [`QueryTemplate`]: the AST of a (possibly
//! parameterized) statement. Plain execution goes through [`parse()`],
//! which requires every slot to be literal; prepared statements go
//! through [`parse_template()`], which additionally reports every
//! placeholder occurrence so `session::Prepared` can build a typed
//! signature.

use crate::ast::{
    JoinMethod, NumArg, ParamOccurrence, ParamRef, ParamType, Query, QueryTemplate, Strategy,
    TemplateSource, TemplateStatsWindow,
};
use crate::error::QueryError;
use crate::token::{tokenize, Spanned, Token};
use simq_series::transform::SeriesTransform;

/// A parsed statement template together with its placeholder occurrences
/// (in lexical order).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTemplate {
    /// The template AST.
    pub template: QueryTemplate,
    /// Every placeholder appearance, in lexical order.
    pub params: Vec<ParamOccurrence>,
}

/// Parses one query. Placeholders (`?` / `$name`) are rejected — they are
/// only meaningful in prepared statements ([`parse_template`]).
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] with byte offsets.
pub fn parse(input: &str) -> Result<Query, QueryError> {
    let parsed = parse_template(input)?;
    if let Some(first) = parsed.params.first() {
        return Err(QueryError::Parse {
            offset: Some(first.offset),
            message: format!(
                "placeholder {} ({}) is only allowed in a prepared statement; \
                 use Session::prepare",
                first.reference, first.context
            ),
        });
    }
    // No placeholder is left, so the lookup is never reached.
    crate::session::instantiate(&parsed.template, &mut |r, _, _| {
        Err(QueryError::Bind(format!("unbound parameter {r}")))
    })
}

/// Parses one statement template, allowing `?` and `$name` placeholders
/// in the query-source, `EPSILON`, `k`, `ROW <id>` and `MEAN`/`STD
/// WITHIN` slots. Relation names, transformations, strategies and join
/// methods are always literal.
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] with byte offsets.
pub fn parse_template(input: &str) -> Result<ParsedTemplate, QueryError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        positional: 0,
        params: Vec::new(),
    };
    let template = p.query()?;
    if let Some(extra) = p.peek() {
        return Err(QueryError::Parse {
            offset: Some(extra.offset),
            message: format!("unexpected trailing input starting at {:?}", extra.token),
        });
    }
    Ok(ParsedTemplate {
        template,
        params: p.params,
    })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Positional placeholders seen so far (assigns `?` ordinals).
    positional: usize,
    /// Every placeholder occurrence, in lexical order.
    params: Vec<ParamOccurrence>,
}

/// Which side(s) of the query a USING clause targets.
enum UsingTarget {
    /// Stored data only (default).
    Data,
    /// Data and the query series (`ON BOTH`).
    Both,
    /// One side of a pair join (`ON ONE`).
    One,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            offset: self.peek().map(|s| s.offset),
            message: message.into(),
        }
    }

    /// Records a placeholder occurrence and returns its reference.
    fn param(
        &mut self,
        token: Token,
        ty: ParamType,
        context: &'static str,
        offset: usize,
    ) -> ParamRef {
        let reference = match token {
            Token::Positional => {
                let i = self.positional;
                self.positional += 1;
                ParamRef::Positional(i)
            }
            Token::Named(name) => ParamRef::Named(name),
            other => unreachable!("not a placeholder token: {other:?}"),
        };
        self.params.push(ParamOccurrence {
            reference: reference.clone(),
            ty,
            context,
            offset,
        });
        reference
    }

    /// Consumes a keyword (case-insensitive) or fails.
    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::Word(w),
                ..
            }) if w.eq_ignore_ascii_case(kw) => Ok(()),
            Some(other) => Err(QueryError::Parse {
                offset: Some(other.offset),
                message: format!("expected {kw}, found {:?}", other.token.to_string()),
            }),
            None => Err(QueryError::Parse {
                offset: None,
                message: format!("expected {kw}"),
            }),
        }
    }

    /// Consumes a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Spanned {
            token: Token::Word(w),
            ..
        }) = self.peek()
        {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn number(&mut self) -> Result<f64, QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::Number(n),
                ..
            }) => Ok(n),
            Some(other) => Err(QueryError::Parse {
                offset: Some(other.offset),
                message: format!("expected a number, found {:?}", other.token.to_string()),
            }),
            None => Err(QueryError::Parse {
                offset: None,
                message: "expected a number".into(),
            }),
        }
    }

    fn integer(&mut self, what: &str) -> Result<usize, QueryError> {
        let offset = self.peek().map(|s| s.offset);
        let n = self.number()?;
        if n.fract() != 0.0 || n < 0.0 || n > usize::MAX as f64 {
            return Err(QueryError::Parse {
                offset,
                message: format!("{what} must be a non-negative integer, got {n}"),
            });
        }
        Ok(n as usize)
    }

    /// A numeric slot that may be a placeholder.
    fn num_arg(&mut self, context: &'static str) -> Result<NumArg, QueryError> {
        match self.peek().map(|s| (s.token.clone(), s.offset)) {
            Some((t @ (Token::Positional | Token::Named(_)), offset)) => {
                self.pos += 1;
                Ok(NumArg::Param(self.param(
                    t,
                    ParamType::Number,
                    context,
                    offset,
                )))
            }
            _ => Ok(NumArg::Lit(self.number()?)),
        }
    }

    /// An integer slot that may be a placeholder (literal values are
    /// validated here; bound values are validated at bind time).
    fn int_arg(&mut self, context: &'static str) -> Result<NumArg, QueryError> {
        match self.peek().map(|s| (s.token.clone(), s.offset)) {
            Some((t @ (Token::Positional | Token::Named(_)), offset)) => {
                self.pos += 1;
                Ok(NumArg::Param(self.param(
                    t,
                    ParamType::Integer,
                    context,
                    offset,
                )))
            }
            _ => Ok(NumArg::Lit(self.integer(context)? as f64)),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::Word(w),
                ..
            }) => Ok(w),
            Some(other) => Err(QueryError::Parse {
                offset: Some(other.offset),
                message: format!("expected {what}, found {:?}", other.token.to_string()),
            }),
            None => Err(QueryError::Parse {
                offset: None,
                message: format!("expected {what}"),
            }),
        }
    }

    fn query(&mut self) -> Result<QueryTemplate, QueryError> {
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                return Ok(QueryTemplate::ExplainAnalyze(Box::new(self.query()?)));
            }
            return Ok(QueryTemplate::Explain(Box::new(self.query()?)));
        }
        self.expect_kw("FIND")?;

        if self.eat_kw("PAIRS") {
            return self.pairs_query();
        }
        if self.eat_kw("SIMILAR") {
            self.expect_kw("TO")?;
            return self.range_query();
        }
        // FIND <k> NEAREST TO …
        let k = self.int_arg("k")?;
        self.expect_kw("NEAREST")?;
        self.expect_kw("TO")?;
        self.knn_query(k)
    }

    fn range_query(&mut self) -> Result<QueryTemplate, QueryError> {
        let source = self.source()?;
        self.expect_kw("IN")?;
        let relation = self.ident("a relation name")?;
        let (transform, on_both) = self.using_clause()?;
        let mut eps = None;
        let mut strategy = Strategy::Auto;
        let mut stats_window = TemplateStatsWindow::default();
        loop {
            if self.eat_kw("EPSILON") {
                eps = Some(self.num_arg("EPSILON")?);
            } else if self.eat_kw("FORCE") {
                strategy = self.strategy()?;
            } else if self.eat_kw("MEAN") {
                self.expect_kw("WITHIN")?;
                let tol = self.num_arg("MEAN WITHIN")?;
                if let NumArg::Lit(v) = tol {
                    if v < 0.0 {
                        return Err(self.error("MEAN WITHIN tolerance must be non-negative"));
                    }
                }
                stats_window.mean = Some(tol);
            } else if self.eat_kw("STD") {
                self.expect_kw("WITHIN")?;
                let tol = self.num_arg("STD WITHIN")?;
                if let NumArg::Lit(v) = tol {
                    if v < 0.0 {
                        return Err(self.error("STD WITHIN tolerance must be non-negative"));
                    }
                }
                stats_window.std_dev = Some(tol);
            } else {
                break;
            }
        }
        let eps = eps.ok_or_else(|| self.error("range queries require an EPSILON clause"))?;
        if let NumArg::Lit(v) = eps {
            if v < 0.0 {
                return Err(self.error("EPSILON must be non-negative"));
            }
        }
        Ok(QueryTemplate::Range {
            source,
            relation,
            transform,
            on_both,
            eps,
            stats_window,
            strategy,
        })
    }

    fn knn_query(&mut self, k: NumArg) -> Result<QueryTemplate, QueryError> {
        let source = self.source()?;
        self.expect_kw("IN")?;
        let relation = self.ident("a relation name")?;
        let (transform, on_both) = self.using_clause()?;
        let strategy = if self.eat_kw("FORCE") {
            self.strategy()?
        } else {
            Strategy::Auto
        };
        Ok(QueryTemplate::Knn {
            k,
            source,
            relation,
            transform,
            on_both,
            strategy,
        })
    }

    fn pairs_query(&mut self) -> Result<QueryTemplate, QueryError> {
        self.expect_kw("IN")?;
        let relation = self.ident("a relation name")?;
        let (left, right) =
            if self.eat_kw("MATCHING") {
                let l = self.transform_chain()?;
                self.expect_kw("AGAINST")?;
                let r = self.transform_chain()?;
                (l, r)
            } else {
                let (transform, target) = self.using_clause_target()?;
                match target {
                    UsingTarget::One => (SeriesTransform::Identity, transform),
                    UsingTarget::Data => (transform.clone(), transform),
                    UsingTarget::Both => return Err(self.error(
                        "ON BOTH is implicit for FIND PAIRS; use ON ONE or MATCHING … AGAINST …",
                    )),
                }
            };
        let mut eps = None;
        let mut method = JoinMethod::default();
        loop {
            if self.eat_kw("EPSILON") {
                eps = Some(self.num_arg("EPSILON")?);
            } else if self.eat_kw("METHOD") {
                let m = self.ident("a join method (a, b, c or d)")?;
                method = match m.to_ascii_lowercase().as_str() {
                    "a" => JoinMethod::A,
                    "b" => JoinMethod::B,
                    "c" => JoinMethod::C,
                    "d" => JoinMethod::D,
                    other => {
                        return Err(self.error(format!(
                            "unknown join method {other:?} (expected a, b, c or d)"
                        )))
                    }
                };
            } else {
                break;
            }
        }
        let eps = eps.ok_or_else(|| self.error("FIND PAIRS requires an EPSILON clause"))?;
        if let NumArg::Lit(v) = eps {
            if v < 0.0 {
                return Err(self.error("EPSILON must be non-negative"));
            }
        }
        Ok(QueryTemplate::AllPairs {
            relation,
            left,
            right,
            eps,
            method,
        })
    }

    /// `texpr (THEN texpr)*`.
    fn transform_chain(&mut self) -> Result<SeriesTransform, QueryError> {
        let mut chain = vec![self.transform_expr()?];
        while self.eat_kw("THEN") {
            chain.push(self.transform_expr()?);
        }
        Ok(if chain.len() == 1 {
            chain.pop().expect("one element")
        } else {
            SeriesTransform::Chain(chain)
        })
    }

    fn strategy(&mut self) -> Result<Strategy, QueryError> {
        if self.eat_kw("SCAN") {
            Ok(Strategy::ForceScan)
        } else if self.eat_kw("INDEX") {
            Ok(Strategy::ForceIndex)
        } else {
            Err(self.error("expected SCAN or INDEX after FORCE"))
        }
    }

    fn source(&mut self) -> Result<TemplateSource, QueryError> {
        if self.eat_kw("ROW") {
            return Ok(TemplateSource::RowId(self.int_arg("ROW id")?));
        }
        if self.eat_kw("NAME") {
            return Ok(TemplateSource::RowName(self.ident("a row name")?));
        }
        match self.next() {
            Some(Spanned {
                token: t @ (Token::Positional | Token::Named(_)),
                offset,
            }) => Ok(TemplateSource::Series(self.param(
                t,
                ParamType::Series,
                "query series",
                offset,
            ))),
            Some(Spanned {
                token: Token::LBracket,
                ..
            }) => {
                let mut values = Vec::new();
                if !matches!(self.peek().map(|s| &s.token), Some(Token::RBracket)) {
                    loop {
                        values.push(self.number()?);
                        match self.next() {
                            Some(Spanned {
                                token: Token::Comma,
                                ..
                            }) => continue,
                            Some(Spanned {
                                token: Token::RBracket,
                                ..
                            }) => break,
                            Some(other) => {
                                return Err(QueryError::Parse {
                                    offset: Some(other.offset),
                                    message: "expected , or ] in series literal".into(),
                                })
                            }
                            None => {
                                return Err(QueryError::Parse {
                                    offset: None,
                                    message: "unterminated series literal".into(),
                                })
                            }
                        }
                    }
                } else {
                    self.next(); // consume ]
                }
                Ok(TemplateSource::Literal(values))
            }
            Some(other) => Err(QueryError::Parse {
                offset: Some(other.offset),
                message: "expected a series literal [..], ROW <id>, NAME <name> or a placeholder"
                    .into(),
            }),
            None => Err(QueryError::Parse {
                offset: None,
                message: "expected a query source".into(),
            }),
        }
    }

    /// `USING texpr (THEN texpr)* [ON BOTH]`, defaulting to identity.
    fn using_clause(&mut self) -> Result<(SeriesTransform, bool), QueryError> {
        let (t, target) = self.using_clause_target()?;
        match target {
            UsingTarget::Data => Ok((t, false)),
            UsingTarget::Both => Ok((t, true)),
            UsingTarget::One => Err(self.error("ON ONE only applies to FIND PAIRS")),
        }
    }

    /// `USING texpr (THEN texpr)* [ON BOTH | ON ONE]`.
    fn using_clause_target(&mut self) -> Result<(SeriesTransform, UsingTarget), QueryError> {
        if !self.eat_kw("USING") {
            return Ok((SeriesTransform::Identity, UsingTarget::Data));
        }
        let t = self.transform_chain()?;
        let target = if self.eat_kw("ON") {
            if self.eat_kw("BOTH") {
                UsingTarget::Both
            } else if self.eat_kw("ONE") {
                UsingTarget::One
            } else {
                return Err(self.error("expected BOTH or ONE after ON"));
            }
        } else {
            UsingTarget::Data
        };
        Ok((t, target))
    }

    fn transform_expr(&mut self) -> Result<SeriesTransform, QueryError> {
        let name = self.ident("a transformation")?;
        match name.to_ascii_lowercase().as_str() {
            "identity" => Ok(SeriesTransform::Identity),
            "reverse" => Ok(SeriesTransform::Reverse),
            "mavg" => {
                self.paren_open()?;
                let w = self.integer("window")?;
                self.paren_close()?;
                Ok(SeriesTransform::MovingAverage { window: w })
            }
            "wmavg" => {
                self.paren_open()?;
                let mut weights = vec![self.number()?];
                while matches!(self.peek().map(|s| &s.token), Some(Token::Comma)) {
                    self.next();
                    weights.push(self.number()?);
                }
                self.paren_close()?;
                Ok(SeriesTransform::WeightedMovingAverage { weights })
            }
            "shift" => {
                self.paren_open()?;
                let c = self.number()?;
                self.paren_close()?;
                Ok(SeriesTransform::Shift(c))
            }
            "scale" => {
                self.paren_open()?;
                let k = self.number()?;
                self.paren_close()?;
                Ok(SeriesTransform::Scale(k))
            }
            "warp" => {
                self.paren_open()?;
                let m = self.integer("warp factor")?;
                self.paren_close()?;
                Ok(SeriesTransform::Warp { m })
            }
            other => Err(self.error(format!(
                "unknown transformation {other:?} (expected identity, mavg, wmavg, \
                 reverse, shift, scale or warp)"
            ))),
        }
    }

    fn paren_open(&mut self) -> Result<(), QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::LParen,
                ..
            }) => Ok(()),
            other => Err(QueryError::Parse {
                offset: other.map(|s| s.offset),
                message: "expected (".into(),
            }),
        }
    }

    fn paren_close(&mut self) -> Result<(), QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::RParen,
                ..
            }) => Ok(()),
            other => Err(QueryError::Parse {
                offset: other.map(|s| s.offset),
                message: "expected )".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QuerySource;

    #[test]
    fn parses_range_query() {
        let q = parse("FIND SIMILAR TO [1, 2, 3] IN stocks USING mavg(3) EPSILON 0.5").unwrap();
        match q {
            Query::Range {
                source,
                relation,
                transform,
                on_both,
                eps,
                strategy,
                ..
            } => {
                assert_eq!(source, QuerySource::Literal(vec![1.0, 2.0, 3.0]));
                assert_eq!(relation, "stocks");
                assert_eq!(transform, SeriesTransform::MovingAverage { window: 3 });
                assert!(!on_both);
                assert_eq!(eps, 0.5);
                assert_eq!(strategy, Strategy::Auto);
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn parses_chained_transform_on_both() {
        let q =
            parse("find similar to row 7 in stocks using reverse then mavg(20) on both epsilon 3")
                .unwrap();
        match q {
            Query::Range {
                source,
                transform,
                on_both,
                ..
            } => {
                assert_eq!(source, QuerySource::RowId(7));
                assert!(on_both);
                assert_eq!(
                    transform,
                    SeriesTransform::Chain(vec![
                        SeriesTransform::Reverse,
                        SeriesTransform::MovingAverage { window: 20 },
                    ])
                );
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn parses_knn() {
        let q = parse("FIND 5 NEAREST TO NAME S0042 IN stocks").unwrap();
        match q {
            Query::Knn { k, source, .. } => {
                assert_eq!(k, 5);
                assert_eq!(source, QuerySource::RowName("S0042".into()));
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn parses_pairs_with_method() {
        let q = parse("FIND PAIRS IN stocks USING mavg(20) EPSILON 2.5 METHOD b").unwrap();
        match q {
            Query::AllPairs { method, eps, .. } => {
                assert_eq!(method, JoinMethod::B);
                assert_eq!(eps, 2.5);
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn parses_explain_and_force() {
        let q = parse("EXPLAIN FIND SIMILAR TO ROW 0 IN r EPSILON 1 FORCE SCAN").unwrap();
        match q {
            Query::Explain(inner) => match *inner {
                Query::Range { strategy, .. } => assert_eq!(strategy, Strategy::ForceScan),
                other => panic!("wrong inner {other:?}"),
            },
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn parses_all_transforms() {
        for (text, expect) in [
            ("identity", SeriesTransform::Identity),
            ("reverse", SeriesTransform::Reverse),
            ("shift(2.5)", SeriesTransform::Shift(2.5)),
            ("scale(-1)", SeriesTransform::Scale(-1.0)),
            ("warp(2)", SeriesTransform::Warp { m: 2 }),
            (
                "wmavg(0.5, 0.3, 0.2)",
                SeriesTransform::WeightedMovingAverage {
                    weights: vec![0.5, 0.3, 0.2],
                },
            ),
        ] {
            let q = parse(&format!(
                "FIND SIMILAR TO ROW 0 IN r USING {text} EPSILON 1"
            ))
            .unwrap();
            match q {
                Query::Range { transform, .. } => assert_eq!(transform, expect, "{text}"),
                other => panic!("wrong query {other:?}"),
            }
        }
    }

    #[test]
    fn error_messages_carry_offsets() {
        let err = parse("FIND SIMILAR TO ROW 0 IN r EPSILON").unwrap_err();
        assert!(matches!(err, QueryError::Parse { offset: None, .. }));
        let err = parse("FIND SIMILAR XX ROW").unwrap_err();
        match err {
            QueryError::Parse {
                offset: Some(o), ..
            } => assert_eq!(o, 13),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("FIND PAIRS IN r EPSILON 1 METHOD a extra").is_err());
    }

    #[test]
    fn rejects_missing_epsilon() {
        assert!(parse("FIND SIMILAR TO ROW 0 IN r").is_err());
        assert!(parse("FIND PAIRS IN r").is_err());
    }

    #[test]
    fn rejects_negative_epsilon_and_bad_k() {
        assert!(parse("FIND SIMILAR TO ROW 0 IN r EPSILON -1").is_err());
        assert!(parse("FIND 2.5 NEAREST TO ROW 0 IN r").is_err());
    }

    #[test]
    fn empty_literal_parses() {
        let q = parse("FIND SIMILAR TO [] IN r EPSILON 1").unwrap();
        match q {
            Query::Range { source, .. } => assert_eq!(source, QuerySource::Literal(vec![])),
            other => panic!("wrong query {other:?}"),
        }
    }
}

#[cfg(test)]
mod template_tests {
    use super::*;

    #[test]
    fn positional_placeholders_number_in_lexical_order() {
        let parsed = parse_template("FIND SIMILAR TO ? IN stocks MEAN WITHIN ? EPSILON ?").unwrap();
        let refs: Vec<_> = parsed.params.iter().map(|p| p.reference.clone()).collect();
        assert_eq!(
            refs,
            vec![
                ParamRef::Positional(0),
                ParamRef::Positional(1),
                ParamRef::Positional(2),
            ]
        );
        let tys: Vec<_> = parsed.params.iter().map(|p| p.ty).collect();
        assert_eq!(
            tys,
            vec![ParamType::Series, ParamType::Number, ParamType::Number]
        );
        // MEAN WITHIN appears lexically before EPSILON, so the template
        // must carry ?1 in the window and ?2 in eps.
        match parsed.template {
            QueryTemplate::Range {
                eps, stats_window, ..
            } => {
                assert_eq!(eps, NumArg::Param(ParamRef::Positional(2)));
                assert_eq!(
                    stats_window.mean,
                    Some(NumArg::Param(ParamRef::Positional(1)))
                );
            }
            other => panic!("wrong template {other:?}"),
        }
    }

    #[test]
    fn named_placeholders_parse() {
        let parsed = parse_template("FIND $k NEAREST TO ROW $row IN stocks USING mavg(5)").unwrap();
        assert_eq!(parsed.params.len(), 2);
        assert_eq!(parsed.params[0].reference, ParamRef::Named("k".into()));
        assert_eq!(parsed.params[0].ty, ParamType::Integer);
        assert_eq!(parsed.params[1].reference, ParamRef::Named("row".into()));
        assert_eq!(parsed.params[1].ty, ParamType::Integer);
    }

    #[test]
    fn plain_parse_rejects_placeholders() {
        let err = parse("FIND SIMILAR TO ROW 0 IN r EPSILON ?").unwrap_err();
        match err {
            QueryError::Parse { message, .. } => {
                assert!(message.contains("prepared statement"), "{message}")
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn placeholders_rejected_in_transform_arguments() {
        assert!(parse_template("FIND SIMILAR TO ROW 0 IN r USING mavg(?) EPSILON 1").is_err());
        assert!(parse_template("FIND SIMILAR TO ROW 0 IN r USING shift($c) EPSILON 1").is_err());
    }

    #[test]
    fn fully_literal_template_parses_to_its_query() {
        let parsed = parse_template("FIND SIMILAR TO ROW 3 IN r EPSILON 1.5").unwrap();
        assert!(parsed.params.is_empty());
        let Query::Range { source, eps, .. } =
            parse("FIND SIMILAR TO ROW 3 IN r EPSILON 1.5").unwrap()
        else {
            panic!("a range query");
        };
        assert_eq!((source, eps), (crate::ast::QuerySource::RowId(3), 1.5));
    }

    #[test]
    fn explain_template_carries_placeholders() {
        let parsed = parse_template("EXPLAIN FIND SIMILAR TO ROW ? IN r EPSILON ?").unwrap();
        assert_eq!(parsed.params.len(), 2);
        assert!(matches!(parsed.template, QueryTemplate::Explain(_)));
    }
}

#[cfg(test)]
mod matching_tests {
    use super::*;

    #[test]
    fn parses_matching_against_join() {
        let q = parse(
            "FIND PAIRS IN market MATCHING mavg(20) AGAINST reverse THEN mavg(20) EPSILON 1.2",
        )
        .unwrap();
        match q {
            Query::AllPairs { left, right, .. } => {
                assert_eq!(left, SeriesTransform::MovingAverage { window: 20 });
                assert_eq!(
                    right,
                    SeriesTransform::Chain(vec![
                        SeriesTransform::Reverse,
                        SeriesTransform::MovingAverage { window: 20 },
                    ])
                );
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn using_on_one_sets_identity_left() {
        let q = parse("FIND PAIRS IN r USING reverse ON ONE EPSILON 1").unwrap();
        match q {
            Query::AllPairs { left, right, .. } => {
                assert_eq!(left, SeriesTransform::Identity);
                assert_eq!(right, SeriesTransform::Reverse);
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn using_sets_both_sides() {
        let q = parse("FIND PAIRS IN r USING mavg(5) EPSILON 1").unwrap();
        match q {
            Query::AllPairs { left, right, .. } => {
                assert_eq!(left, right);
                assert_eq!(left, SeriesTransform::MovingAverage { window: 5 });
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn on_one_rejected_outside_pairs() {
        assert!(parse("FIND SIMILAR TO ROW 0 IN r USING reverse ON ONE EPSILON 1").is_err());
    }
}

#[cfg(test)]
mod stats_window_tests {
    use super::*;

    #[test]
    fn parses_mean_and_std_windows() {
        let q =
            parse("FIND SIMILAR TO ROW 1 IN r EPSILON 2 MEAN WITHIN 0.5 STD WITHIN 0.1").unwrap();
        match q {
            Query::Range { stats_window, .. } => {
                assert_eq!(stats_window.mean, Some(0.5));
                assert_eq!(stats_window.std_dev, Some(0.1));
            }
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn windows_default_to_unbounded() {
        let q = parse("FIND SIMILAR TO ROW 1 IN r EPSILON 2").unwrap();
        match q {
            Query::Range { stats_window, .. } => assert!(stats_window.is_empty()),
            other => panic!("wrong query {other:?}"),
        }
    }

    #[test]
    fn negative_window_rejected() {
        assert!(parse("FIND SIMILAR TO ROW 1 IN r EPSILON 2 MEAN WITHIN -1").is_err());
    }
}
