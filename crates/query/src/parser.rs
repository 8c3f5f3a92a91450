//! Recursive-descent parser for the paper's query language (Definition 6):
//!
//! ```text
//! RETURN    patient, MIN(M.rate), MAX(M.rate)
//! PATTERN   Measurement M+
//! SEMANTICS contiguous
//! WHERE     [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
//! GROUP-BY  patient
//! WITHIN    10 minutes SLIDE 30 seconds
//! ```
//!
//! Keywords are case-insensitive. Bare identifiers in predicate value
//! position are string constants (`M.activity = passive`). Durations accept
//! `ticks`/`seconds`/`minutes`/`hours` units with one tick = one second.

use crate::ast::{
    AggCall, AttrRef, CmpOp, Leaf, Literal, PatternExpr, PredicateExpr, Query, ReturnItem,
    Semantics,
};
use crate::error::{QueryError, QueryResult};
use crate::lexer::{lex, Tok, Token};
use cogra_events::WindowSpec;

/// How deep a pattern may nest. A level is an opening `(`, `SEQ(`, `OR(`
/// or `NOT`, or a postfix `+`, `*` or `?`, counted along the deepest path.
/// A pattern nested deeper is a [`QueryError::Parse`] at the token that
/// opens the first level past the limit. The parser itself does not
/// recurse; the passes after it (rewrite, compile, `Display`) do, once per
/// level, and at this depth they fit a 256 KiB thread stack in a release
/// build and a default 2 MiB one in a debug build. Fixed, not
/// configurable: the deepest query of the paper's workloads nests four
/// levels.
pub const MAX_NESTING: usize = 256;

/// Parse a query text into its surface AST.
///
/// ```
/// use cogra_query::{parse, Semantics};
/// let q = parse(
///     "RETURN driver, COUNT(*) \
///      PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish) \
///      SEMANTICS skip-till-next-match \
///      WHERE [driver] GROUP-BY driver \
///      WITHIN 10 minutes SLIDE 30 seconds",
/// ).unwrap();
/// assert_eq!(q.semantics, Semantics::Next);
/// assert_eq!(q.window.within, 600);
/// ```
pub fn parse(src: &str) -> QueryResult<Query> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if let Some(t) = p.peek() {
        return Err(p.err_at(t.offset, format!("unexpected trailing {}", t.tok)));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// A level of a pattern the parser is inside.
enum Open {
    /// `SEQ(` or `OR(`: the parts so far, and the most levels any of them
    /// adds below its place.
    List {
        seq: bool,
        parts: Vec<PatternExpr>,
        levels: usize,
    },
    /// `NOT`, with parentheses of its own or directly before a primary.
    Not { paren: bool },
    /// `(`.
    Paren,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map_or_else(
            || self.tokens.last().map_or(0, |t| t.offset + 1),
            |t| t.offset,
        )
    }

    fn err_at(&self, offset: usize, message: String) -> QueryError {
        QueryError::Parse { offset, message }
    }

    fn err(&self, message: impl Into<String>) -> QueryError {
        self.err_at(self.offset(), message.into())
    }

    /// Consume a keyword (case-insensitive) or fail.
    fn expect_kw(&mut self, kw: &str) -> QueryResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token {
            tok: Tok::Ident(s), ..
        }) = self.peek()
        {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek().map(|t| &t.tok) == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> QueryResult<()> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}")))
        }
    }

    fn ident(&mut self, what: &str) -> QueryResult<String> {
        match self.next() {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => Ok(s),
            Some(t) => Err(self.err_at(t.offset, format!("expected {what}, found {}", t.tok))),
            None => Err(self.err(format!("expected {what}"))),
        }
    }

    // ---- query ----------------------------------------------------------

    fn query(&mut self) -> QueryResult<Query> {
        self.expect_kw("RETURN")?;
        let ret = self.return_items()?;
        self.expect_kw("PATTERN")?;
        let pattern = self.pattern()?;
        let semantics = if self.eat_kw("SEMANTICS") {
            self.semantics()?
        } else {
            Semantics::Any
        };
        let predicates = if self.eat_kw("WHERE") {
            self.predicates()?
        } else {
            Vec::new()
        };
        let group_by = if self.eat_kw("GROUP-BY") {
            self.attr_list()?
        } else {
            Vec::new()
        };
        self.expect_kw("WITHIN")?;
        let within = self.duration()?;
        self.expect_kw("SLIDE")?;
        let slide = self.duration()?;
        if within == 0 || slide == 0 {
            return Err(self.err("WITHIN and SLIDE must be positive"));
        }
        if slide > within {
            return Err(self.err("SLIDE must not exceed WITHIN (gaps would drop events)"));
        }
        Ok(Query {
            ret,
            pattern,
            semantics,
            predicates,
            group_by,
            window: WindowSpec::new(within, slide),
        })
    }

    fn return_items(&mut self) -> QueryResult<Vec<ReturnItem>> {
        let mut items = vec![self.return_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.return_item()?);
        }
        Ok(items)
    }

    fn return_item(&mut self) -> QueryResult<ReturnItem> {
        for (kw, ctor) in [
            ("COUNT", None),
            ("MIN", Some(AggCall::Min as fn(String, String) -> AggCall)),
            ("MAX", Some(AggCall::Max as fn(String, String) -> AggCall)),
            ("SUM", Some(AggCall::Sum as fn(String, String) -> AggCall)),
            ("AVG", Some(AggCall::Avg as fn(String, String) -> AggCall)),
        ] {
            if self.peek_kw(kw) && self.peek2().map(|t| &t.tok) == Some(&Tok::LParen) {
                self.pos += 2; // keyword + '('
                let call = match ctor {
                    None => {
                        if self.eat(&Tok::Star) {
                            AggCall::CountStar
                        } else {
                            AggCall::CountVar(self.ident("variable")?)
                        }
                    }
                    Some(make) => {
                        let var = self.ident("variable")?;
                        self.expect(Tok::Dot)?;
                        let attr = self.ident("attribute")?;
                        make(var, attr)
                    }
                };
                self.expect(Tok::RParen)?;
                return Ok(ReturnItem::Agg(call));
            }
        }
        // plain (possibly dotted) grouping attribute
        let first = self.ident("RETURN item")?;
        if self.eat(&Tok::Dot) {
            let attr = self.ident("attribute")?;
            Ok(ReturnItem::Attr(format!("{first}.{attr}")))
        } else {
            Ok(ReturnItem::Attr(first))
        }
    }

    fn semantics(&mut self) -> QueryResult<Semantics> {
        let s = self.ident("semantics")?;
        match s.to_ascii_lowercase().as_str() {
            "skip-till-any-match" | "any" => Ok(Semantics::Any),
            "skip-till-next-match" | "next" => Ok(Semantics::Next),
            "contiguous" | "cont" => Ok(Semantics::Cont),
            other => Err(self.err(format!(
                "unknown semantics `{other}` (expected contiguous, skip-till-next-match or skip-till-any-match)"
            ))),
        }
    }

    // ---- pattern --------------------------------------------------------

    /// A pattern, parsed without recursion: the levels it is inside are an
    /// explicit stack, so however deep the text nests, the parser's own
    /// stack stays flat, and a level past [`MAX_NESTING`] is refused at
    /// the token that opens it.
    fn pattern(&mut self) -> QueryResult<PatternExpr> {
        let mut open: Vec<Open> = Vec::new();
        loop {
            // Descend: open every level in front of the next leaf.
            let (offset, seq) = (self.offset(), self.peek_kw("SEQ"));
            let level = if seq || self.peek_kw("OR") {
                let parts = Vec::new();
                Open::List {
                    seq,
                    parts,
                    levels: 0,
                }
            } else if self.peek_kw("NOT") {
                Open::Not { paren: false }
            } else if self.peek().map(|t| &t.tok) == Some(&Tok::LParen) {
                Open::Paren
            } else {
                let leaf = self.leaf()?;
                match self.ascend(&mut open, leaf)? {
                    Some(pattern) => return Ok(pattern),
                    None => continue,
                }
            };
            if open.len() == MAX_NESTING {
                return Err(self.too_deep(offset));
            }
            self.pos += 1;
            open.push(match level {
                Open::List { .. } => {
                    self.expect(Tok::LParen)?;
                    level
                }
                Open::Not { .. } => Open::Not {
                    paren: self.eat(&Tok::LParen),
                },
                Open::Paren => level,
            });
        }
    }

    /// Close every level the primary `p` completes, innermost first,
    /// applying postfix operators where the grammar puts them: `Some` when
    /// that completes the whole pattern, `None` when a list awaits its next
    /// part. `levels` counts what `p` adds below its place: one per level
    /// closed and per postfix operator.
    fn ascend(
        &mut self,
        open: &mut Vec<Open>,
        mut p: PatternExpr,
    ) -> QueryResult<Option<PatternExpr>> {
        let mut levels = 0;
        loop {
            // A `NOT` without parentheses takes the primary, not its
            // postfix operators.
            while let Some(Open::Not { paren: false }) = open.last() {
                open.pop();
                p = p.not();
                levels += 1;
            }
            loop {
                let offset = self.offset();
                let wrap = if self.eat(&Tok::Plus) {
                    PatternExpr::plus
                } else if self.eat(&Tok::Star) {
                    PatternExpr::star
                } else if self.eat(&Tok::Question) {
                    PatternExpr::opt
                } else {
                    break;
                };
                levels += 1;
                if open.len() + levels > MAX_NESTING {
                    return Err(self.too_deep(offset));
                }
                p = wrap(p);
            }
            match open.pop() {
                None => return Ok(Some(p)),
                Some(Open::List {
                    seq,
                    mut parts,
                    levels: most,
                }) => {
                    parts.push(p);
                    let most = most.max(levels);
                    if self.eat(&Tok::Comma) {
                        open.push(Open::List {
                            seq,
                            parts,
                            levels: most,
                        });
                        return Ok(None);
                    }
                    self.expect(Tok::RParen)?;
                    p = if seq {
                        PatternExpr::Seq(parts)
                    } else {
                        PatternExpr::Or(parts)
                    };
                    levels = most + 1;
                }
                Some(Open::Not { paren }) => {
                    debug_assert!(paren, "a bare NOT closes with its primary");
                    self.expect(Tok::RParen)?;
                    p = p.not();
                    levels += 1;
                }
                Some(Open::Paren) => {
                    self.expect(Tok::RParen)?;
                    levels += 1;
                }
            }
        }
    }

    fn too_deep(&self, offset: usize) -> QueryError {
        let message = format!("pattern nested more than {MAX_NESTING} levels deep");
        self.err_at(offset, message)
    }

    /// Leaf: `TypeName [Variable]`
    fn leaf(&mut self) -> QueryResult<PatternExpr> {
        let type_name = self.ident("event type")?;
        if let Some(Token {
            tok: Tok::Ident(v), ..
        }) = self.peek()
        {
            // A following identifier is a variable alias unless it is a
            // clause keyword.
            const CLAUSE_KWS: [&str; 6] = [
                "SEMANTICS",
                "WHERE",
                "GROUP-BY",
                "WITHIN",
                "SLIDE",
                "PATTERN",
            ];
            if !CLAUSE_KWS.iter().any(|k| v.eq_ignore_ascii_case(k)) {
                let var = v.clone();
                self.pos += 1;
                return Ok(PatternExpr::Leaf(Leaf::aliased(&type_name, &var)));
            }
        }
        Ok(PatternExpr::leaf(&type_name))
    }

    // ---- predicates -----------------------------------------------------

    fn predicates(&mut self) -> QueryResult<Vec<PredicateExpr>> {
        let mut preds = vec![self.predicate()?];
        while self.eat_kw("AND") {
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }

    fn predicate(&mut self) -> QueryResult<PredicateExpr> {
        if self.eat(&Tok::LBracket) {
            let first = self.ident("attribute")?;
            let attr = if self.eat(&Tok::Dot) {
                self.ident("attribute")?
            } else {
                first
            };
            self.expect(Tok::RBracket)?;
            return Ok(PredicateExpr::Equivalence { attr });
        }
        let lhs = self.operand()?;
        let op = self.cmp_op()?;
        let rhs = self.operand()?;
        match (lhs, rhs) {
            (Operand::Attr(l), Operand::Attr(r)) => {
                Ok(PredicateExpr::Adjacent { lhs: l, op, rhs: r })
            }
            (Operand::Attr(l), Operand::Lit(v)) => Ok(PredicateExpr::Local { lhs: l, op, rhs: v }),
            (Operand::Lit(v), Operand::Attr(r)) => Ok(PredicateExpr::Local {
                lhs: r,
                op: op.flipped(),
                rhs: v,
            }),
            (Operand::Lit(_), Operand::Lit(_)) => {
                Err(self.err("predicate must reference at least one attribute"))
            }
        }
    }

    fn cmp_op(&mut self) -> QueryResult<CmpOp> {
        let t = self.next().ok_or_else(|| self.err("expected comparison"))?;
        match t.tok {
            Tok::Lt => Ok(CmpOp::Lt),
            Tok::Le => Ok(CmpOp::Le),
            Tok::Gt => Ok(CmpOp::Gt),
            Tok::Ge => Ok(CmpOp::Ge),
            Tok::Eq => Ok(CmpOp::Eq),
            Tok::Ne => Ok(CmpOp::Ne),
            other => Err(self.err_at(t.offset, format!("expected comparison, found {other}"))),
        }
    }

    fn operand(&mut self) -> QueryResult<Operand> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Operand::Lit(Literal::Int(v)))
            }
            Some(Tok::Float(v)) => {
                self.pos += 1;
                Ok(Operand::Lit(Literal::Float(v)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Operand::Lit(Literal::Str(s)))
            }
            Some(Tok::Ident(s)) => {
                if s.eq_ignore_ascii_case("NEXT")
                    && self.peek2().map(|t| &t.tok) == Some(&Tok::LParen)
                {
                    self.pos += 2;
                    let var = self.ident("variable")?;
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Dot)?;
                    let attr = self.ident("attribute")?;
                    return Ok(Operand::Attr(AttrRef {
                        var,
                        attr,
                        next: true,
                    }));
                }
                if s.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok(Operand::Lit(Literal::Bool(true)));
                }
                if s.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok(Operand::Lit(Literal::Bool(false)));
                }
                self.pos += 1;
                if self.eat(&Tok::Dot) {
                    let attr = self.ident("attribute")?;
                    Ok(Operand::Attr(AttrRef {
                        var: s,
                        attr,
                        next: false,
                    }))
                } else {
                    // Bare identifier in value position is a string
                    // constant: `M.activity = passive` (q1).
                    Ok(Operand::Lit(Literal::Str(s)))
                }
            }
            _ => Err(self.err("expected operand")),
        }
    }

    fn attr_list(&mut self) -> QueryResult<Vec<String>> {
        let mut out = Vec::new();
        loop {
            let first = self.ident("attribute")?;
            let name = if self.eat(&Tok::Dot) {
                format!("{first}.{}", self.ident("attribute")?)
            } else {
                first
            };
            out.push(name);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn duration(&mut self) -> QueryResult<u64> {
        let t = self.next().ok_or_else(|| self.err("expected duration"))?;
        let Tok::Int(n) = t.tok else {
            return Err(self.err_at(t.offset, "expected integer duration".into()));
        };
        if n < 0 {
            return Err(self.err_at(t.offset, "duration must be non-negative".into()));
        }
        let n = n as u64;
        let factor = if let Some(Token {
            tok: Tok::Ident(unit),
            ..
        }) = self.peek()
        {
            let f = match unit.to_ascii_lowercase().as_str() {
                "tick" | "ticks" => Some(1),
                "s" | "sec" | "secs" | "second" | "seconds" => Some(1),
                "min" | "mins" | "minute" | "minutes" => Some(60),
                "h" | "hour" | "hours" => Some(3600),
                "ms" | "millisecond" | "milliseconds" => None, // sub-tick: invalid
                _ => Some(0), // not a unit; leave token for the caller
            };
            match f {
                Some(0) => 1,
                Some(f) => {
                    self.pos += 1;
                    f
                }
                None => {
                    return Err(self.err(
                        "sub-second units are not supported; the tick resolution is one second",
                    ))
                }
            }
        } else {
            1
        };
        n.checked_mul(factor)
            .ok_or_else(|| self.err_at(t.offset, "duration overflows the tick counter".into()))
    }
}

enum Operand {
    Attr(AttrRef),
    Lit(Literal),
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1: &str = "RETURN patient, MIN(M.rate), MAX(M.rate) \
                      PATTERN Measurement M+ \
                      SEMANTICS contiguous \
                      WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive \
                      GROUP-BY patient \
                      WITHIN 10 minutes SLIDE 30 seconds";

    const Q2: &str = "RETURN driver, COUNT(*) \
                      PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish) \
                      SEMANTICS skip-till-next-match \
                      WHERE [driver] GROUP-BY driver \
                      WITHIN 10 minutes SLIDE 30 seconds";

    const Q3: &str = "RETURN sector, COUNT(*), AVG(B.price) \
                      PATTERN SEQ(Stock A+, Stock B+) \
                      SEMANTICS skip-till-any-match \
                      WHERE [company] AND A.price > NEXT(A).price \
                      GROUP-BY sector, company \
                      WITHIN 10 minutes SLIDE 10 seconds";

    #[test]
    fn parse_q1() {
        let q = parse(Q1).unwrap();
        assert_eq!(q.semantics, Semantics::Cont);
        assert_eq!(q.window, WindowSpec::new(600, 30));
        assert_eq!(q.ret.len(), 3);
        assert_eq!(q.predicates.len(), 3);
        assert!(
            matches!(&q.predicates[0], PredicateExpr::Equivalence { attr } if attr == "patient")
        );
        assert!(matches!(&q.predicates[1], PredicateExpr::Adjacent { rhs, .. } if rhs.next));
        assert!(
            matches!(&q.predicates[2], PredicateExpr::Local { rhs: Literal::Str(s), .. } if s == "passive")
        );
        assert_eq!(q.pattern.to_string(), "(Measurement M)+");
    }

    #[test]
    fn parse_q2() {
        let q = parse(Q2).unwrap();
        assert_eq!(q.semantics, Semantics::Next);
        assert_eq!(
            q.pattern.to_string(),
            "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)"
        );
        assert_eq!(q.group_by, vec!["driver"]);
        assert_eq!(q.aggregates().count(), 1);
    }

    #[test]
    fn parse_q3() {
        let q = parse(Q3).unwrap();
        assert_eq!(q.semantics, Semantics::Any);
        assert_eq!(q.window, WindowSpec::new(600, 10));
        assert_eq!(q.pattern.to_string(), "SEQ((Stock A)+, (Stock B)+)");
        match &q.predicates[1] {
            PredicateExpr::Adjacent { lhs, op, rhs } => {
                assert_eq!(lhs.var, "A");
                assert!(!lhs.next);
                assert_eq!(*op, CmpOp::Gt);
                assert!(rhs.next);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn semantics_defaults_to_any() {
        let q = parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10").unwrap();
        assert_eq!(q.semantics, Semantics::Any);
        assert_eq!(q.window, WindowSpec::new(10, 10));
    }

    #[test]
    fn semantics_aliases() {
        for (text, want) in [
            ("ANY", Semantics::Any),
            ("next", Semantics::Next),
            ("CONT", Semantics::Cont),
        ] {
            let q = parse(&format!(
                "RETURN COUNT(*) PATTERN A+ SEMANTICS {text} WITHIN 10 SLIDE 5"
            ))
            .unwrap();
            assert_eq!(q.semantics, want, "{text}");
        }
    }

    #[test]
    fn pattern_postfix_operators() {
        let q = parse("RETURN COUNT(*) PATTERN SEQ(A*, B?, C+) WITHIN 10 SLIDE 10").unwrap();
        assert_eq!(q.pattern.to_string(), "SEQ((A)*, (B)?, (C)+)");
    }

    #[test]
    fn pattern_negation() {
        let q = parse("RETURN COUNT(*) PATTERN SEQ(A, NOT C, B) WITHIN 10 SLIDE 10").unwrap();
        assert_eq!(q.pattern.to_string(), "SEQ(A, NOT C, B)");
    }

    #[test]
    fn pattern_disjunction() {
        let q = parse("RETURN COUNT(*) PATTERN OR(A+, SEQ(B, C)) WITHIN 10 SLIDE 10").unwrap();
        assert_eq!(q.pattern.to_string(), "OR((A)+, SEQ(B, C))");
    }

    #[test]
    fn literal_on_left_flips_local() {
        let q = parse("RETURN COUNT(*) PATTERN A+ WHERE 5 < A.v WITHIN 10 SLIDE 10").unwrap();
        match &q.predicates[0] {
            PredicateExpr::Local { lhs, op, rhs } => {
                assert_eq!(lhs.var, "A");
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(*rhs, Literal::Int(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quoted_string_literal() {
        let q = parse("RETURN COUNT(*) PATTERN A+ WHERE A.label = 'hot tea' WITHIN 10 SLIDE 2")
            .unwrap();
        assert!(
            matches!(&q.predicates[0], PredicateExpr::Local { rhs: Literal::Str(s), .. } if s == "hot tea")
        );
    }

    #[test]
    fn durations() {
        let q = parse("RETURN COUNT(*) PATTERN A+ WITHIN 2 hours SLIDE 90 minutes").unwrap();
        assert_eq!(q.window, WindowSpec::new(7200, 5400));
    }

    #[test]
    fn slide_exceeding_within_rejected() {
        assert!(parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 20").is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10 garbage").is_err());
    }

    #[test]
    fn missing_pattern_rejected() {
        let err = parse("RETURN COUNT(*) WITHIN 10 SLIDE 10").unwrap_err();
        assert!(err.to_string().contains("PATTERN"));
    }

    #[test]
    fn dotted_group_by() {
        let q = parse(
            "RETURN sector, COUNT(*) PATTERN SEQ(Stock A+, Stock B+) \
             GROUP-BY sector, A.company, B.company WITHIN 10 SLIDE 10",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["sector", "A.company", "B.company"]);
    }

    #[test]
    fn display_reparse_round_trip() {
        for src in [Q1, Q2, Q3] {
            let q = parse(src).unwrap();
            let printed = q.to_string();
            let q2 = parse(&printed).unwrap_or_else(|e| panic!("reparse of `{printed}`: {e}"));
            assert_eq!(q, q2);
        }
    }

    /// A query whose pattern is `A` inside `levels` copies of `open` (each
    /// closed by one `)`), and the byte offset of the last opening.
    fn nested(open: &str, levels: usize) -> (String, usize) {
        let head = "RETURN COUNT(*) PATTERN ";
        let pattern = format!("{}A{}", open.repeat(levels), ")".repeat(levels));
        let last = head.len() + open.len() * levels.saturating_sub(1);
        (format!("{head}{pattern} WITHIN 10 SLIDE 5"), last)
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error_at_its_opening_token() {
        for open in ["(", "SEQ("] {
            let (at_limit, _) = nested(open, MAX_NESTING);
            assert!(parse(&at_limit).is_ok(), "{open} at the limit");
            let (past, offset) = nested(open, MAX_NESTING + 1);
            match parse(&past) {
                Err(QueryError::Parse {
                    offset: at,
                    message,
                }) => {
                    assert_eq!(at, offset, "{open}: {message}");
                    assert!(message.contains("nested"), "{message}");
                }
                other => panic!("{open} past the limit: {other:?}"),
            }
        }
        // Postfix operators nest too: `A` under the limit's worth of `+`.
        let plus = |n: usize| {
            format!(
                "RETURN COUNT(*) PATTERN A{} WITHIN 10 SLIDE 5",
                "+".repeat(n)
            )
        };
        assert!(parse(&plus(MAX_NESTING)).is_ok());
        assert!(matches!(
            parse(&plus(MAX_NESTING + 1)),
            Err(QueryError::Parse { .. })
        ));
        // Parsing at the limit, and refusing past it, fit a small stack.
        let small = std::thread::Builder::new().stack_size(256 << 10);
        let parsed = small
            .spawn(|| {
                let (at_limit, _) = nested("SEQ(", MAX_NESTING);
                let (past, _) = nested("(", MAX_NESTING + 1);
                (parse(&at_limit).is_ok(), parse(&past).is_err())
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(parsed, (true, true));
    }
}
