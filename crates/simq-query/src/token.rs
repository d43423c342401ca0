//! Lexer for the similarity query language.
//!
//! Keywords are case-insensitive; identifiers, numbers and punctuation are
//! tokenized with byte offsets so parse errors can point at their source.

use crate::error::QueryError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A bare word: keyword or identifier (keywords are resolved by the
    /// parser, case-insensitively).
    Word(String),
    /// A numeric literal.
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `?` — a positional parameter placeholder (prepared statements).
    Positional,
    /// `$name` — a named parameter placeholder (prepared statements).
    Named(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Positional => write!(f, "?"),
            Token::Named(n) => write!(f, "${n}"),
        }
    }
}

/// A token with its byte offset in the input.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset where it starts.
    pub offset: usize,
}

/// Tokenizes a query string.
///
/// # Errors
/// [`QueryError::Lex`] on unexpected characters or malformed numbers.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, QueryError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            '[' => {
                out.push(Spanned {
                    token: Token::LBracket,
                    offset: i,
                });
                i += 1;
            }
            ']' => {
                out.push(Spanned {
                    token: Token::RBracket,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            '?' => {
                out.push(Spanned {
                    token: Token::Positional,
                    offset: i,
                });
                i += 1;
            }
            '$' => {
                let start = i;
                i += 1;
                let name_start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                if i == name_start {
                    return Err(QueryError::Lex {
                        offset: start,
                        message: "expected a parameter name after `$`".into(),
                    });
                }
                // `$1` reads as SQL positional syntax but would become a
                // named parameter called "1" — reject the trap outright.
                if bytes[name_start].is_ascii_digit() {
                    return Err(QueryError::Lex {
                        offset: start,
                        message: format!(
                            "named parameter ${} must not start with a digit; \
                             use ? for positional parameters",
                            &input[name_start..i]
                        ),
                    });
                }
                out.push(Spanned {
                    token: Token::Named(input[name_start..i].to_string()),
                    offset: start,
                });
            }
            '-' | '+' | '.' | '0'..='9' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    let exponent_sign =
                        (d == '-' || d == '+') && matches!(bytes[i - 1] as char, 'e' | 'E');
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' || exponent_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[start..i];
                let value: f64 = text.parse().map_err(|_| QueryError::Lex {
                    offset: start,
                    message: format!("malformed number {text:?}"),
                })?;
                // `1e400` parses — to infinity. No slot of the language
                // takes a non-finite constant (a bound `?` rejects one
                // too), so it stops here rather than in a kernel.
                if !value.is_finite() {
                    return Err(QueryError::Lex {
                        offset: start,
                        message: format!("number out of range {text:?}"),
                    });
                }
                out.push(Spanned {
                    token: Token::Number(value),
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    token: Token::Word(input[start..i].to_string()),
                    offset: start,
                });
            }
            other => {
                return Err(QueryError::Lex {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn tokenizes_a_query() {
        let toks = words("FIND SIMILAR TO [1, 2.5, -3] IN stocks EPSILON 0.5");
        assert_eq!(toks[0], Token::Word("FIND".into()));
        assert_eq!(toks[3], Token::LBracket);
        assert_eq!(toks[4], Token::Number(1.0));
        assert_eq!(toks[6], Token::Number(2.5));
        assert_eq!(toks[8], Token::Number(-3.0));
        assert_eq!(*toks.last().unwrap(), Token::Number(0.5));
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(words("1e3"), vec![Token::Number(1000.0)]);
        assert_eq!(words("-2.5E-2"), vec![Token::Number(-0.025)]);
    }

    #[test]
    fn numbers_that_overflow_to_infinity_are_out_of_range() {
        for text in ["EPSILON 1e400", "shift(-1e400)", "[1, 1e309]"] {
            match tokenize(text).unwrap_err() {
                QueryError::Lex { message, .. } => {
                    assert!(message.contains("number out of range"), "{message}")
                }
                other => panic!("wrong error {other:?}"),
            }
        }
        assert_eq!(words("1e308"), vec![Token::Number(1e308)]);
    }

    #[test]
    fn parens_and_commas() {
        assert_eq!(
            words("mavg(20)"),
            vec![
                Token::Word("mavg".into()),
                Token::LParen,
                Token::Number(20.0),
                Token::RParen
            ]
        );
    }

    #[test]
    fn offsets_track_positions() {
        let toks = tokenize("ab  cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("find @").is_err());
        assert!(tokenize("1.2.3.4e").is_err());
    }

    #[test]
    fn placeholders_tokenize() {
        assert_eq!(
            words("EPSILON ?"),
            vec![Token::Word("EPSILON".into()), Token::Positional,]
        );
        assert_eq!(
            words("$eps $k2"),
            vec![Token::Named("eps".into()), Token::Named("k2".into()),]
        );
        let toks = tokenize("ROW ?").unwrap();
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn dollar_without_name_is_a_lex_error() {
        assert!(tokenize("$").is_err());
        assert!(tokenize("EPSILON $ 2").is_err());
    }

    #[test]
    fn digit_leading_named_parameter_rejected() {
        let err = tokenize("EPSILON $1").unwrap_err();
        match err {
            QueryError::Lex { message, .. } => {
                assert!(message.contains("use ? for positional"), "{message}")
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(tokenize("$2x").is_err());
        // Digits are fine after a letter.
        assert!(tokenize("$k2").is_ok());
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
    }
}
