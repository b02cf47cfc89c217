//! An RDQL-subset parser.
//!
//! The paper cites RDQL \[8\] as its query language. This module parses
//! the subset GridVine demonstrates — single and conjunctive triple
//! pattern queries:
//!
//! ```text
//! SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")
//! SELECT ?x, ?len
//! WHERE (?x, <EMBL#Organism>, "%Aspergillus%"),
//!       (?x, <EMBL#SequenceLength>, ?len)
//! ```
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query    := "SELECT" varlist "WHERE" pattern ("," pattern)*
//! varlist  := var ("," var)*
//! var      := "?" ident
//! pattern  := "(" slot "," slot "," slot ")"
//! slot     := var | "<" uri ">" | "\"" literal "\""
//! ```

use crate::query::{ConjunctiveQuery, QueryError, TriplePatternQuery};
use crate::term::Term;
use crate::triple::{PatternTerm, TriplePattern};
use std::fmt;

/// A parse failure with a human-readable description and position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> ParseError {
        ParseError {
            message: e.to_string(),
            offset: 0,
        }
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        self.skip_ws();
        // `get`, not a slice: `kw.len()` bytes in may fall inside a
        // multi-byte character of the input.
        let head = self.rest().get(..kw.len());
        if head.is_some_and(|h| h.eq_ignore_ascii_case(kw)) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}")))
        }
    }

    fn eat_char(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat_ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected identifier".to_string()));
        }
        let ident = &rest[..end];
        self.pos += end;
        Ok(ident)
    }

    fn eat_until(&mut self, close: char) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        match rest.find(close) {
            Some(i) => {
                let content = &rest[..i];
                self.pos += i + close.len_utf8();
                Ok(content)
            }
            None => Err(self.err(format!("unterminated, expected {close:?}"))),
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.pos,
        }
    }
}

fn parse_var(c: &mut Cursor<'_>) -> Result<String, ParseError> {
    c.eat_char('?')?;
    Ok(c.eat_ident()?.to_string())
}

fn parse_slot(c: &mut Cursor<'_>) -> Result<PatternTerm, ParseError> {
    match c.peek_char() {
        Some('?') => Ok(PatternTerm::Var(parse_var(c)?)),
        Some('<') => {
            c.eat_char('<')?;
            let uri = c.eat_until('>')?;
            if uri.is_empty() {
                return Err(c.err("empty URI".to_string()));
            }
            Ok(PatternTerm::constant(Term::uri(uri)))
        }
        Some('"') => {
            c.eat_char('"')?;
            let lit = c.eat_until('"')?;
            Ok(PatternTerm::constant(Term::literal(lit)))
        }
        _ => Err(c.err("expected ?var, <uri> or \"literal\"".to_string())),
    }
}

fn parse_pattern(c: &mut Cursor<'_>) -> Result<TriplePattern, ParseError> {
    c.eat_char('(')?;
    let s = parse_slot(c)?;
    c.eat_char(',')?;
    let p = parse_slot(c)?;
    c.eat_char(',')?;
    let o = parse_slot(c)?;
    c.eat_char(')')?;
    Ok(TriplePattern::new(s, p, o))
}

/// Parse a conjunctive RDQL-subset query.
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut c = Cursor::new(src);
    c.eat_keyword("SELECT")?;
    let mut vars = vec![parse_var(&mut c)?];
    while c.peek_char() == Some(',') {
        c.eat_char(',')?;
        vars.push(parse_var(&mut c)?);
    }
    c.eat_keyword("WHERE")?;
    let mut patterns = vec![parse_pattern(&mut c)?];
    loop {
        match c.peek_char() {
            Some(',') => {
                c.eat_char(',')?;
                patterns.push(parse_pattern(&mut c)?);
            }
            Some('(') => patterns.push(parse_pattern(&mut c)?),
            None => break,
            Some(other) => return Err(c.err(format!("unexpected {other:?}"))),
        }
    }
    Ok(ConjunctiveQuery::new(vars, patterns)?)
}

/// Parse a single-pattern query into the `SearchFor` form; errors if the
/// query has more than one pattern or distinguished variable.
pub fn parse_single(src: &str) -> Result<TriplePatternQuery, ParseError> {
    let q = parse_query(src)?;
    if q.patterns.len() != 1 || q.distinguished.len() != 1 {
        return Err(ParseError {
            message: "expected exactly one pattern and one variable".to_string(),
            offset: 0,
        });
    }
    Ok(TriplePatternQuery::new(
        q.distinguished.into_iter().next().expect("one var"),
        q.patterns.into_iter().next().expect("one pattern"),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let q = parse_single(r#"SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")"#)
            .expect("parses");
        assert_eq!(q.distinguished, "x");
        assert_eq!(
            q.pattern.predicate.as_const().map(|t| t.lexical()),
            Some("EMBL#Organism")
        );
        assert_eq!(
            q.pattern.object.as_const().map(|t| t.lexical()),
            Some("%Aspergillus%")
        );
        assert!(matches!(q.pattern.subject, PatternTerm::Var(_)));
    }

    #[test]
    fn parses_conjunction_comma_and_juxtaposed() {
        let with_comma = parse_query(
            r#"SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "%A%"), (?x, <EMBL#Len>, ?len)"#,
        )
        .expect("parses");
        assert_eq!(with_comma.patterns.len(), 2);
        assert_eq!(with_comma.distinguished, vec!["x", "len"]);

        let juxtaposed =
            parse_query(r#"SELECT ?x WHERE (?x, <EMBL#Organism>, "%A%") (?x, <EMBL#Len>, ?len)"#)
                .expect("parses");
        assert_eq!(juxtaposed.patterns.len(), 2);
    }

    #[test]
    fn case_insensitive_keywords_and_whitespace() {
        let q = parse_query("select   ?x\nwhere\t(?x, <p>, ?o)").expect("parses");
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_query("SELECT ?x WHERE (?x <p>, ?o)").unwrap_err();
        assert!(e.message.contains("','"), "{e}");
        assert!(e.offset > 0);
    }

    #[test]
    fn rejects_missing_select() {
        assert!(parse_query("WHERE (?x, <p>, ?o)").is_err());
    }

    #[test]
    fn multi_byte_input_at_a_keyword_is_an_error_not_a_panic() {
        // Both put a multi-byte character across the byte offset where
        // the expected keyword would end.
        assert!(parse_query("aééé").is_err());
        assert!(parse_query("SELECT ?x WHERé (?x, <p>, ?o)").is_err());
    }

    #[test]
    fn rejects_unterminated_uri_and_literal() {
        assert!(parse_query("SELECT ?x WHERE (?x, <p, ?o)").is_err());
        assert!(parse_query(r#"SELECT ?x WHERE (?x, <p>, "unterminated)"#).is_err());
    }

    #[test]
    fn rejects_unbound_distinguished() {
        let e = parse_query("SELECT ?zz WHERE (?x, <p>, ?o)").unwrap_err();
        assert!(e.message.contains("zz"), "{e}");
    }

    #[test]
    fn single_rejects_multi_pattern() {
        assert!(parse_single("SELECT ?x WHERE (?x, <p>, ?o), (?x, <q>, ?r)").is_err());
    }

    #[test]
    fn round_trips_through_display() {
        let src = r#"SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")"#;
        let q = parse_single(src).expect("parses");
        // Display uses the paper's SearchFor notation; re-parse the
        // pattern positions instead of exact text.
        let again = parse_single(src).expect("parses");
        assert_eq!(q, again);
    }

    #[test]
    fn empty_uri_rejected() {
        assert!(parse_query("SELECT ?x WHERE (?x, <>, ?o)").is_err());
    }

    #[test]
    fn literal_subject_allowed_by_grammar() {
        // RDQL forbids literal subjects but the parser is permissive;
        // pattern matching simply never matches them against URIs.
        let q = parse_query(r#"SELECT ?o WHERE ("lit", <p>, ?o)"#).expect("parses");
        assert_eq!(q.patterns.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any generated well-formed query parses, and the parsed
        /// structure mirrors the inputs.
        #[test]
        fn well_formed_queries_parse(
            var in "[a-z]{1,8}",
            pred in "[A-Za-z]{1,8}#[A-Za-z]{1,8}",
            lit in "[A-Za-z%. ]{0,16}",
        ) {
            let src = format!(r#"SELECT ?{var} WHERE (?{var}, <{pred}>, "{lit}")"#);
            let q = parse_single(&src).expect("well-formed query parses");
            prop_assert_eq!(q.distinguished, var);
            prop_assert_eq!(q.pattern.predicate.as_const().map(|t| t.lexical().to_string()),
                            Some(pred));
            prop_assert_eq!(q.pattern.object.as_const().map(|t| t.lexical().to_string()),
                            Some(lit));
        }

        /// No input panics the parser: strings mixing the grammar's
        /// tokens with multi-byte characters parse or fail cleanly.
        #[test]
        fn arbitrary_input_never_panics(src in "[SELCTWHRselctwhr ?<>(),\"é→a-z]{0,40}") {
            let _ = parse_query(&src);
        }
    }
}
