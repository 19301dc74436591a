//! A small textual query language over object names.
//!
//! The paper's users write conditions like `Energy > 2.0 AND 100 < x <
//! 200 AND -90 < y < 0 AND 0 < z < 66`; this module parses exactly that
//! notation into a [`PdcQuery`], resolving names through the metadata
//! service and typing each constant to the target object's element type.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! expr   := and ( "OR" and )*
//! and    := term ( "AND" term )*
//! term   := "(" expr ")" | range | comparison
//! range  := number relop ident relop number     e.g.  100 < x <= 200
//! comparison := ident relop number | number relop ident
//! relop  := "<" | "<=" | ">" | ">=" | "=" | "=="
//! ```

use crate::ast::PdcQuery;
use pdc_odms::Odms;
use pdc_types::{ObjectId, PdcError, PdcResult, PdcType, PdcValue, QueryOp};

/// Deepest parenthesis nesting the parser accepts. The parser recurses
/// once per level, so without a bound a hostile expression overflows the
/// stack; real queries nest a few levels at most.
const MAX_NESTING: usize = 128;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Op(QueryOp),
    And,
    Or,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> PdcResult<Vec<Token>> {
    let err = |w: String| PdcError::InvalidQuery(w);
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Op(QueryOp::Lte));
                    i += 2;
                } else {
                    out.push(Token::Op(QueryOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Op(QueryOp::Gte));
                    i += 2;
                } else {
                    out.push(Token::Op(QueryOp::Gt));
                    i += 1;
                }
            }
            '=' => {
                i += if chars.get(i + 1) == Some(&'=') { 2 } else { 1 };
                out.push(Token::Op(QueryOp::Eq));
            }
            '&' if chars.get(i + 1) == Some(&'&') => {
                out.push(Token::And);
                i += 2;
            }
            '|' if chars.get(i + 1) == Some(&'|') => {
                out.push(Token::Or);
                i += 2;
            }
            c if c.is_ascii_digit()
                || c == '.'
                || (c == '-'
                    && chars
                        .get(i + 1)
                        .map(|n| n.is_ascii_digit() || *n == '.')
                        .unwrap_or(false)) =>
            {
                let start = i;
                i += 1; // consume sign or first digit
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && matches!(chars[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let v: f64 =
                    text.parse().map_err(|_| err(format!("bad number '{text}'")))?;
                out.push(Token::Number(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                match word.to_ascii_uppercase().as_str() {
                    "AND" => out.push(Token::And),
                    "OR" => out.push(Token::Or),
                    _ => out.push(Token::Ident(word)),
                }
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses open at the current position.
    depth: usize,
    odms: &'a Odms,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, what: &str) -> PdcError {
        PdcError::InvalidQuery(format!("{what} at token {}", self.pos))
    }

    fn resolve(&self, name: &str) -> PdcResult<(ObjectId, PdcType)> {
        let meta = self.odms.meta().lookup_name(name)?;
        Ok((meta.id, meta.pdc_type))
    }

    fn typed(&self, ty: PdcType, v: f64) -> PdcValue {
        match ty {
            PdcType::Float => PdcValue::Float(v as f32),
            PdcType::Double => PdcValue::Double(v),
            PdcType::Int32 => PdcValue::Int32(v as i32),
            PdcType::UInt32 => PdcValue::UInt32(v as u32),
            PdcType::Int64 => PdcValue::Int64(v as i64),
            PdcType::UInt64 => PdcValue::UInt64(v as u64),
        }
    }

    fn expr(&mut self) -> PdcResult<PdcQuery> {
        let mut left = self.and_expr()?;
        while matches!(self.peek(), Some(Token::Or)) {
            self.next();
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> PdcResult<PdcQuery> {
        let mut left = self.term()?;
        while matches!(self.peek(), Some(Token::And)) {
            self.next();
            let right = self.term()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn term(&mut self) -> PdcResult<PdcQuery> {
        match self.next() {
            Some(Token::LParen) => {
                if self.depth == MAX_NESTING {
                    let what = format!("parentheses nested deeper than {MAX_NESTING}");
                    return Err(self.err(&what));
                }
                self.depth += 1;
                let inner = self.expr()?;
                self.depth -= 1;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(self.err("expected ')'")),
                }
            }
            // ident OP number
            Some(Token::Ident(name)) => {
                let (obj, ty) = self.resolve(&name)?;
                let Some(Token::Op(op)) = self.next() else {
                    return Err(self.err("expected comparison operator"));
                };
                let Some(Token::Number(v)) = self.next() else {
                    return Err(self.err("expected number"));
                };
                Ok(PdcQuery::create(obj, op, self.typed(ty, v)))
            }
            // number OP ident [OP number]  — the range form
            Some(Token::Number(lo)) => {
                let Some(Token::Op(op1)) = self.next() else {
                    return Err(self.err("expected comparison operator"));
                };
                let Some(Token::Ident(name)) = self.next() else {
                    return Err(self.err("expected object name"));
                };
                let (obj, ty) = self.resolve(&name)?;
                // `lo OP ident` mirrors to `ident OP' lo`.
                let first = PdcQuery::create(obj, op1.mirrored(), self.typed(ty, lo));
                if let Some(Token::Op(op2)) = self.peek().cloned() {
                    if matches!(op2, QueryOp::Lt | QueryOp::Lte) {
                        self.next();
                        let Some(Token::Number(hi)) = self.next() else {
                            return Err(self.err("expected upper bound"));
                        };
                        return Ok(first.and(PdcQuery::create(obj, op2, self.typed(ty, hi))));
                    }
                }
                Ok(first)
            }
            _ => Err(self.err("expected '(', object name, or number")),
        }
    }
}

/// Parse a textual query against the metadata service (object names must
/// already exist). Returns the same tree the builder API would produce.
pub fn parse_query(input: &str, odms: &Odms) -> PdcResult<PdcQuery> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(PdcError::InvalidQuery("empty query".into()));
    }
    let mut p = Parser { tokens, pos: 0, depth: 0, odms };
    let q = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_types::TypedVec;

    fn world() -> (Odms, ObjectId, ObjectId) {
        let odms = Odms::new(2);
        let c = odms.create_container("parse");
        let opts = ImportOptions::default();
        let e = odms
            .import_array(c, "Energy", TypedVec::Float(vec![0.0; 64]), &opts)
            .unwrap()
            .object;
        let x = odms
            .import_array(c, "x", TypedVec::Float(vec![0.0; 64]), &opts)
            .unwrap()
            .object;
        (odms, e, x)
    }

    #[test]
    fn simple_comparison() {
        let (odms, e, _) = world();
        let q = parse_query("Energy > 2.0", &odms).unwrap();
        assert_eq!(q, PdcQuery::create(e, QueryOp::Gt, 2.0f32));
    }

    #[test]
    fn range_form_matches_builder() {
        let (odms, e, _) = world();
        let q = parse_query("2.1 < Energy < 2.2", &odms).unwrap();
        assert_eq!(q, PdcQuery::range_open(e, 2.1f32, 2.2f32));
        let q = parse_query("2.1 <= Energy <= 2.2", &odms).unwrap();
        assert_eq!(
            q,
            PdcQuery::create(e, QueryOp::Gte, 2.1f32)
                .and(PdcQuery::create(e, QueryOp::Lte, 2.2f32))
        );
    }

    #[test]
    fn the_papers_multi_object_query_parses() {
        let (odms, e, x) = world();
        let q = parse_query("Energy > 2.0 AND 100 < x < 200", &odms).unwrap();
        let expect = PdcQuery::create(e, QueryOp::Gt, 2.0f32)
            .and(PdcQuery::range_open(x, 100.0f32, 200.0f32));
        assert_eq!(q, expect);
    }

    #[test]
    fn or_parentheses_and_precedence() {
        let (odms, e, x) = world();
        // AND binds tighter than OR.
        let q = parse_query("Energy > 3 OR Energy < 1 AND x > 5", &odms).unwrap();
        let expect = PdcQuery::create(e, QueryOp::Gt, 3.0f32).or(PdcQuery::create(
            e,
            QueryOp::Lt,
            1.0f32,
        )
        .and(PdcQuery::create(x, QueryOp::Gt, 5.0f32)));
        assert_eq!(q, expect);
        // parentheses override
        let q = parse_query("(Energy > 3 OR Energy < 1) AND x > 5", &odms).unwrap();
        let expect = (PdcQuery::create(e, QueryOp::Gt, 3.0f32)
            .or(PdcQuery::create(e, QueryOp::Lt, 1.0f32)))
        .and(PdcQuery::create(x, QueryOp::Gt, 5.0f32));
        assert_eq!(q, expect);
    }

    #[test]
    fn symbols_and_case_insensitive_keywords() {
        let (odms, _e, _x) = world();
        let a = parse_query("Energy >= 2 && x = 5", &odms).unwrap();
        let b = parse_query("Energy >= 2 and x == 5", &odms).unwrap();
        assert_eq!(a, b);
        let c = parse_query("Energy > 1 || x > 2", &odms).unwrap();
        let d = parse_query("Energy > 1 or x > 2", &odms).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let (odms, _, x) = world();
        let q = parse_query("-90 < x < 0", &odms).unwrap();
        assert_eq!(q, PdcQuery::range_open(x, -90.0f32, 0.0f32));
        let q = parse_query("x < 1.5e2", &odms).unwrap();
        assert_eq!(q, PdcQuery::create(x, QueryOp::Lt, 150.0f32));
    }

    #[test]
    fn errors_are_informative() {
        let (odms, _, _) = world();
        assert!(parse_query("", &odms).is_err());
        assert!(parse_query("Energy >", &odms).is_err());
        assert!(parse_query("nosuch > 1", &odms).is_err());
        assert!(parse_query("Energy > 1 AND", &odms).is_err());
        assert!(parse_query("(Energy > 1", &odms).is_err());
        assert!(parse_query("Energy > 1 garbage", &odms).is_err());
        assert!(parse_query("Energy # 1", &odms).is_err());
    }

    #[test]
    fn values_typed_to_object_type() {
        let odms = Odms::new(2);
        let c = odms.create_container("t");
        let i = odms
            .import_array(c, "ids", TypedVec::Int32(vec![0; 8]), &ImportOptions::default())
            .unwrap()
            .object;
        let q = parse_query("ids = 7", &odms).unwrap();
        assert_eq!(q, PdcQuery::create(i, QueryOp::Eq, 7i32));
    }

    fn nested(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_typed_error() {
        let (odms, e, _) = world();
        let q = parse_query(&nested(MAX_NESTING, "Energy > 1"), &odms).unwrap();
        assert_eq!(q, PdcQuery::create(e, QueryOp::Gt, 1.0f32));
        for depth in [MAX_NESTING + 1, 10_000] {
            match parse_query(&nested(depth, "Energy > 1"), &odms) {
                Err(PdcError::InvalidQuery(msg)) => assert!(msg.contains("nested"), "{msg}"),
                other => panic!("depth {depth}: {other:?}"),
            }
        }
    }

    proptest::proptest! {
        /// Random token soup, optionally wrapped in deep nesting, parses
        /// or fails with a typed error; it never panics or overflows.
        #[test]
        fn hostile_input_parses_or_errors(
            words in proptest::collection::vec(
                proptest::sample::select(vec![
                    "(", ")", "Energy", "x", "nosuch", "<", "<=", ">", ">=", "=", "==",
                    "AND", "or", "&&", "||", "&", "2.0", "-1e3", "1e999", "-", ".", "e5",
                    "#", "\u{e9}",
                ]),
                0..16,
            ),
            depth in 0usize..400,
        ) {
            let (odms, _, _) = world();
            let text = nested(depth, &words.join(" "));
            match parse_query(&text, &odms) {
                Ok(_) => proptest::prop_assert!(depth <= MAX_NESTING),
                Err(PdcError::InvalidQuery(_)) | Err(PdcError::NotFound(_)) => {}
                Err(other) => panic!("{text}: unexpected error {other:?}"),
            }
        }
    }
}
