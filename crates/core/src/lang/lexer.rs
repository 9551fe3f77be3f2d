//! Tokenizer for the Click configuration language.

use crate::error::{Error, Result, SourcePos};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier: element name, class name, or keyword. May contain
    /// `@` (anonymous names) and interior `/` (flattened compound names).
    Ident(String),
    /// A `$name` compound-element formal parameter.
    Variable(String),
    /// An unsigned integer (port numbers).
    Number(usize),
    /// `->`
    Arrow,
    /// `::`
    ColonColon,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `|`
    Bar,
    /// A parenthesized configuration string, with the outer parentheses
    /// stripped and surrounding whitespace trimmed.
    Config(String),
    /// End of input.
    Eof,
}

impl Tok {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier {s:?}"),
            Tok::Variable(s) => format!("variable ${s}"),
            Tok::Number(n) => format!("number {n}"),
            Tok::Arrow => "`->`".into(),
            Tok::ColonColon => "`::`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Bar => "`|`".into(),
            Tok::Config(_) => "configuration string".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: SourcePos,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> SourcePos {
        SourcePos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Lex {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(Error::Lex {
                                    pos: start,
                                    message: "unterminated block comment".into(),
                                })
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn is_ident_start(c: u8) -> bool {
        c.is_ascii_alphabetic() || c == b'_' || c == b'@'
    }

    fn is_ident_continue(c: u8) -> bool {
        c.is_ascii_alphanumeric() || c == b'_' || c == b'@' || c == b'.'
    }

    fn lex_ident(&mut self) -> String {
        let start = self.i;
        while let Some(c) = self.peek() {
            if Self::is_ident_continue(c) {
                self.bump();
            } else if c == b'/' {
                // `/` continues an identifier (flattened compound names) only
                // when followed by another identifier character; `//` starts
                // a comment.
                match self.peek2() {
                    Some(n) if Self::is_ident_start(n) || n.is_ascii_digit() => {
                        self.bump();
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.src[start..self.i].to_owned()
    }

    fn lex_config(&mut self) -> Result<String> {
        // Called after consuming `(`. Capture raw text until the matching `)`.
        let start_pos = self.pos();
        let start = self.i;
        let mut depth = 1usize;
        loop {
            match self.peek() {
                None => {
                    return Err(Error::Lex {
                        pos: start_pos,
                        message: "unterminated configuration string".into(),
                    })
                }
                Some(b'"') => {
                    self.bump();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(Error::Lex {
                                    pos: start_pos,
                                    message: "unterminated string in configuration".into(),
                                })
                            }
                            Some(b'\\') => {
                                self.bump();
                            }
                            Some(b'"') => break,
                            Some(_) => {}
                        }
                    }
                }
                Some(b'(') => {
                    depth += 1;
                    self.bump();
                }
                Some(b')') => {
                    depth -= 1;
                    if depth == 0 {
                        let text = self.src[start..self.i].trim().to_owned();
                        self.bump(); // consume `)`
                        return Ok(text);
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                    // Step over the bytes that follow up to the next one
                    // that nests, quotes or ends a line, at once.
                    let rest = &self.bytes[self.i..];
                    let special = |b: &u8| matches!(b, b'"' | b'(' | b')' | b'\n');
                    let run = rest.iter().position(special).unwrap_or(rest.len());
                    self.i += run;
                    self.col += run as u32;
                }
            }
        }
    }

    fn next_token(&mut self) -> Result<SpannedTok> {
        self.skip_trivia()?;
        let pos = self.pos();
        let tok = match self.peek() {
            None => Tok::Eof,
            Some(b'-') if self.peek2() == Some(b'>') => {
                self.bump();
                self.bump();
                Tok::Arrow
            }
            Some(b':') if self.peek2() == Some(b':') => {
                self.bump();
                self.bump();
                Tok::ColonColon
            }
            Some(b'[') => {
                self.bump();
                Tok::LBracket
            }
            Some(b']') => {
                self.bump();
                Tok::RBracket
            }
            Some(b'{') => {
                self.bump();
                Tok::LBrace
            }
            Some(b'}') => {
                self.bump();
                Tok::RBrace
            }
            Some(b';') => {
                self.bump();
                Tok::Semi
            }
            Some(b',') => {
                self.bump();
                Tok::Comma
            }
            Some(b'|') => {
                self.bump();
                Tok::Bar
            }
            Some(b'(') => {
                self.bump();
                Tok::Config(self.lex_config()?)
            }
            Some(b'$') => {
                self.bump();
                let name = self.lex_ident();
                if name.is_empty() {
                    return Err(self.err("expected variable name after `$`"));
                }
                Tok::Variable(name)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.i;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
                let text = &self.src[start..self.i];
                let n = text
                    .parse::<usize>()
                    .map_err(|_| self.err(format!("number {text:?} out of range")))?;
                Tok::Number(n)
            }
            Some(c) if Self::is_ident_start(c) => Tok::Ident(self.lex_ident()),
            Some(c) => return Err(self.err(format!("unexpected character {:?}", c as char))),
        };
        Ok(SpannedTok { tok, pos })
    }
}

/// Tokenizes a complete Click source file.
///
/// The returned vector always ends with [`Tok::Eof`].
///
/// # Errors
///
/// Returns [`Error::Lex`] on unterminated comments, strings, or
/// configuration parentheses, or unexpected characters.
pub fn tokenize(src: &str) -> Result<Vec<SpannedTok>> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_token()?;
        let done = t.tok == Tok::Eof;
        toks.push(t);
        if done {
            return Ok(toks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_declaration() {
        assert_eq!(
            toks("c :: Classifier(12/0800, -);"),
            vec![
                Tok::Ident("c".into()),
                Tok::ColonColon,
                Tok::Ident("Classifier".into()),
                Tok::Config("12/0800, -".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn arrows_and_ports() {
        assert_eq!(
            toks("a [1] -> [0] b;"),
            vec![
                Tok::Ident("a".into()),
                Tok::LBracket,
                Tok::Number(1),
                Tok::RBracket,
                Tok::Arrow,
                Tok::LBracket,
                Tok::Number(0),
                Tok::RBracket,
                Tok::Ident("b".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment -> b\n-> /* block ; */ c;"),
            vec![
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("c".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn config_preserves_nesting_and_strings() {
        assert_eq!(
            toks(r#"X(a(b), ")" , c)"#),
            vec![
                Tok::Ident("X".into()),
                Tok::Config(r#"a(b), ")" , c"#.into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn config_text_is_raw_even_with_comment_markers() {
        // Comment markers inside a configuration string are data, so the
        // unparser can round-trip any config the tools produce.
        assert_eq!(
            toks("X(a // b)"),
            vec![
                Tok::Ident("X".into()),
                Tok::Config("a // b".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("X(/* not a comment)"),
            vec![
                Tok::Ident("X".into()),
                Tok::Config("/* not a comment".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn slash_in_identifier_vs_comment() {
        assert_eq!(
            toks("router/q1 -> b"),
            vec![
                Tok::Ident("router/q1".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("a//x\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn anonymous_name_characters() {
        assert_eq!(toks("Idle@3"), vec![Tok::Ident("Idle@3".into()), Tok::Eof]);
        assert_eq!(toks("@x"), vec![Tok::Ident("@x".into()), Tok::Eof]);
    }

    #[test]
    fn variables() {
        assert_eq!(
            toks("$cap | input"),
            vec![
                Tok::Variable("cap".into()),
                Tok::Bar,
                Tok::Ident("input".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn errors_have_positions() {
        let err = tokenize("a -> %").unwrap_err();
        match err {
            Error::Lex { pos, .. } => assert_eq!(pos, SourcePos::new(1, 6)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_config_errors() {
        assert!(tokenize("X(a, b").is_err());
        assert!(tokenize("X(\"unclosed)").is_err());
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn braces_and_bars_for_compounds() {
        assert_eq!(
            toks("elementclass F { input -> output }"),
            vec![
                Tok::Ident("elementclass".into()),
                Tok::Ident("F".into()),
                Tok::LBrace,
                Tok::Ident("input".into()),
                Tok::Arrow,
                Tok::Ident("output".into()),
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }
}
