//! Recursive-descent parser for the query language.
//!
//! The parser produces one [`Query`] AST for every statement. A
//! placeholder (`?` / `$name`) writes a dummy constant into the field it
//! stands for — number 0, integer 0, the empty series — and records a
//! [`ParamOccurrence`] naming that field. Plain execution goes through
//! [`parse()`], which refuses any placeholder; prepared statements go
//! through [`parse_template()`], whose occurrences `session::Prepared`
//! turns into a typed signature and later fills with bound values.

use crate::ast::{
    JoinMethod, ParamOccurrence, ParamRef, Query, QuerySource, SlotField, StatsWindow, Strategy,
    INTEGER_LIMIT,
};
use crate::error::QueryError;
use crate::token::{tokenize, Spanned, Token};
use simq_series::transform::SeriesTransform;

/// A parsed statement together with its placeholder occurrences (in
/// lexical order).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTemplate {
    /// The statement; each placeholder's field holds a dummy constant.
    pub query: Query,
    /// Every placeholder appearance, in lexical order.
    pub params: Vec<ParamOccurrence>,
}

/// Parses one query. Placeholders (`?` / `$name`) are rejected — they are
/// only meaningful in prepared statements ([`parse_template`]).
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] with byte offsets.
pub fn parse(input: &str) -> Result<Query, QueryError> {
    let ParsedTemplate { query, params } = parse_template(input)?;
    match params.first() {
        None => Ok(query),
        Some(first) => Err(QueryError::Parse {
            offset: Some(first.offset),
            message: format!(
                "placeholder {} ({}) is only allowed in a prepared statement; \
                 use Session::prepare",
                first.reference, first.field
            ),
        }),
    }
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
    let query = p.query()?;
    if let Some(extra) = p.peek() {
        return Err(QueryError::Parse {
            offset: Some(extra.offset),
            message: format!("unexpected trailing input starting at {:?}", extra.token),
        });
    }
    Ok(ParsedTemplate {
        query,
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

/// The error for finding `got` (`None`: the end of input) where `what`
/// was expected.
fn expected(what: &str, got: Option<Spanned>) -> QueryError {
    QueryError::Parse {
        offset: got.as_ref().map(|s| s.offset),
        message: match got {
            Some(s) => format!("expected {what}, found {:?}", s.token.to_string()),
            None => format!("expected {what}"),
        },
    }
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

    /// Consumes a placeholder if one comes next, recording that it fills
    /// `field`; the caller then writes the field's dummy constant.
    fn placeholder(&mut self, field: SlotField) -> bool {
        let Some(Spanned { token, offset }) = self.tokens.get(self.pos) else {
            return false;
        };
        let reference = match token {
            Token::Positional => {
                self.positional += 1;
                ParamRef::Positional(self.positional - 1)
            }
            Token::Named(name) => ParamRef::Named(name.clone()),
            _ => return false,
        };
        self.params.push(ParamOccurrence {
            reference,
            field,
            offset: *offset,
        });
        self.pos += 1;
        true
    }

    /// Consumes a keyword (case-insensitive) or fails.
    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::Word(w),
                ..
            }) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(expected(kw, other)),
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
            other => Err(expected("a number", other)),
        }
    }

    fn integer(&mut self, what: impl std::fmt::Display) -> Result<usize, QueryError> {
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

    /// A non-negative number slot (`EPSILON`, `MEAN`/`STD WITHIN`): a
    /// placeholder (dummy 0) or a literal, checked at its own offset.
    fn number_slot(&mut self, field: SlotField) -> Result<f64, QueryError> {
        if self.placeholder(field) {
            return Ok(0.0);
        }
        let offset = self.peek().map(|s| s.offset);
        let v = self.number()?;
        if v < 0.0 {
            return Err(QueryError::Parse {
                offset,
                message: format!("{field} must be non-negative, got {v}"),
            });
        }
        Ok(v)
    }

    /// An integer slot (`k`, `ROW <id>`): a placeholder (dummy 0) or a
    /// whole literal below [`INTEGER_LIMIT`], the rule bound values meet.
    fn integer_slot(&mut self, field: SlotField) -> Result<u64, QueryError> {
        if self.placeholder(field) {
            return Ok(0);
        }
        let offset = self.peek().map(|s| s.offset);
        let n = self.integer(field)? as f64;
        if n >= INTEGER_LIMIT {
            return Err(QueryError::Parse {
                offset,
                message: format!("{field} must be below 2^53 to be represented exactly, got {n}"),
            });
        }
        Ok(n as u64)
    }

    fn ident(&mut self, what: &str) -> Result<String, QueryError> {
        match self.next() {
            Some(Spanned {
                token: Token::Word(w),
                ..
            }) => Ok(w),
            other => Err(expected(what, other)),
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                return Ok(Query::ExplainAnalyze(Box::new(self.query()?)));
            }
            return Ok(Query::Explain(Box::new(self.query()?)));
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
        let k = self.integer_slot(SlotField::K)? as usize;
        self.expect_kw("NEAREST")?;
        self.expect_kw("TO")?;
        self.knn_query(k)
    }

    fn range_query(&mut self) -> Result<Query, QueryError> {
        let source = self.source()?;
        self.expect_kw("IN")?;
        let relation = self.ident("a relation name")?;
        let (transform, on_both) = self.using_clause()?;
        let mut eps = None;
        let mut strategy = Strategy::Auto;
        let mut stats_window = StatsWindow::default();
        loop {
            if self.eat_kw("EPSILON") {
                eps = Some(self.number_slot(SlotField::Epsilon)?);
            } else if self.eat_kw("FORCE") {
                strategy = self.strategy()?;
            } else if self.eat_kw("MEAN") {
                self.expect_kw("WITHIN")?;
                stats_window.mean = Some(self.number_slot(SlotField::MeanWithin)?);
            } else if self.eat_kw("STD") {
                self.expect_kw("WITHIN")?;
                stats_window.std_dev = Some(self.number_slot(SlotField::StdWithin)?);
            } else {
                break;
            }
        }
        let eps = eps.ok_or_else(|| self.error("range queries require an EPSILON clause"))?;
        Ok(Query::Range {
            source,
            relation,
            transform,
            on_both,
            eps,
            stats_window,
            strategy,
        })
    }

    fn knn_query(&mut self, k: usize) -> Result<Query, QueryError> {
        let source = self.source()?;
        self.expect_kw("IN")?;
        let relation = self.ident("a relation name")?;
        let (transform, on_both) = self.using_clause()?;
        let strategy = if self.eat_kw("FORCE") {
            self.strategy()?
        } else {
            Strategy::Auto
        };
        Ok(Query::Knn {
            k,
            source,
            relation,
            transform,
            on_both,
            strategy,
        })
    }

    fn pairs_query(&mut self) -> Result<Query, QueryError> {
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
                eps = Some(self.number_slot(SlotField::Epsilon)?);
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
        Ok(Query::AllPairs {
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

    fn source(&mut self) -> Result<QuerySource, QueryError> {
        if self.eat_kw("ROW") {
            return Ok(QuerySource::RowId(self.integer_slot(SlotField::RowId)?));
        }
        if self.eat_kw("NAME") {
            return Ok(QuerySource::RowName(self.ident("a row name")?));
        }
        if self.placeholder(SlotField::Series) {
            return Ok(QuerySource::Literal(Vec::new()));
        }
        match self.next() {
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
                Ok(QuerySource::Literal(values))
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
        // A bad literal is reported at the literal, wherever its clause
        // sits and whatever follows it.
        for (text, at) in [
            ("FIND SIMILAR XX ROW", 13),
            ("FIND SIMILAR TO ROW 0 IN r EPSILON -1", 35),
            ("FIND SIMILAR TO ROW 0 IN r EPSILON -1 FORCE SCAN", 35),
            ("FIND SIMILAR TO ROW 0 IN r EPSILON 1 MEAN WITHIN -2", 49),
            ("FIND SIMILAR TO ROW 0 IN r STD WITHIN -0.5 EPSILON 1", 38),
            ("FIND PAIRS IN r EPSILON -3 METHOD a", 24),
            ("FIND 1 NEAREST TO ROW 9007199254740992 IN r", 22),
        ] {
            match parse(text).unwrap_err() {
                QueryError::Parse { offset, .. } => assert_eq!(offset, Some(at), "{text}"),
                other => panic!("wrong error {other:?} for {text}"),
            }
        }
    }

    #[test]
    fn integer_literals_stay_below_2_pow_53() {
        // From 2⁵³ on f64 merges neighbouring integers: 2⁵³ + 1 lexes to
        // 2⁵³, so both must be refused rather than name row 2⁵³.
        for n in ["9007199254740992", "9007199254740993", "1e300"] {
            assert!(
                parse(&format!("FIND 1 NEAREST TO ROW {n} IN r")).is_err(),
                "{n}"
            );
            assert!(
                parse(&format!("FIND {n} NEAREST TO ROW 0 IN r")).is_err(),
                "{n}"
            );
        }
        let q = parse("FIND 1 NEAREST TO ROW 9007199254740991 IN r").unwrap();
        let Query::Knn { source, .. } = q else {
            panic!("a kNN query")
        };
        assert_eq!(source, QuerySource::RowId((1 << 53) - 1));
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
        // MEAN WITHIN appears lexically before EPSILON, so ?2 fills the
        // window and ?3 fills eps.
        let fields: Vec<_> = parsed.params.iter().map(|p| p.field).collect();
        assert_eq!(
            fields,
            vec![SlotField::Series, SlotField::MeanWithin, SlotField::Epsilon]
        );
        // Every placeholder's field holds its dummy constant.
        assert_eq!(
            parsed.query,
            parse("FIND SIMILAR TO [] IN stocks MEAN WITHIN 0 EPSILON 0").unwrap()
        );
    }

    #[test]
    fn named_placeholders_parse() {
        let parsed = parse_template("FIND $k NEAREST TO ROW $row IN stocks USING mavg(5)").unwrap();
        assert_eq!(parsed.params.len(), 2);
        assert_eq!(parsed.params[0].reference, ParamRef::Named("k".into()));
        assert_eq!(parsed.params[0].field, SlotField::K);
        assert_eq!(parsed.params[1].reference, ParamRef::Named("row".into()));
        assert_eq!(parsed.params[1].field, SlotField::RowId);
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
        let text = "FIND SIMILAR TO ROW 3 IN r EPSILON 1.5";
        let parsed = parse_template(text).unwrap();
        assert!(parsed.params.is_empty());
        assert_eq!(parsed.query, parse(text).unwrap());
    }

    #[test]
    fn explain_template_carries_placeholders() {
        let parsed = parse_template("EXPLAIN FIND SIMILAR TO ROW ? IN r EPSILON ?").unwrap();
        assert_eq!(parsed.params.len(), 2);
        assert!(matches!(parsed.query, Query::Explain(_)));
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
