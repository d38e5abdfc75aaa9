//! Recursive-descent / Pratt parser for the GreenWeb scripting language.

use crate::ast::{BinaryOp, Expr, Program, Stmt, Target, UnaryOp};
use crate::lexer::{lex, Keyword, Token, TokenKind};
use std::fmt;
use std::rc::Rc;

/// Error produced by [`parse_program`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    message: String,
    /// 1-based source line.
    pub line: u32,
}

impl ParseError {
    fn new(message: impl Into<String>, line: u32) -> Self {
        ParseError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete program.
///
/// # Errors
///
/// Returns [`ParseError`] (or a lex error converted into one) on invalid
/// syntax.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError::new(e.to_string(), e.line))?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut body = Vec::new();
    while !parser.at_eof() {
        body.push(parser.statement()?);
    }
    Ok(Program { body })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected `{p}`, found `{}`", self.peek()),
                self.line(),
            ))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            TokenKind::Ident(name) => Ok(name),
            other => Err(ParseError::new(
                format!("expected identifier, found `{other}`"),
                self.line(),
            )),
        }
    }

    /// A property name after `.` or as an object-literal key: an
    /// identifier or, as in JS, a reserved word (`o.if`, `{ if: 1 }`).
    /// Any other token comes back as the error, for the message.
    fn property_name(token: TokenKind) -> Result<String, TokenKind> {
        match token {
            TokenKind::Ident(name) => Ok(name),
            TokenKind::Keyword(kw) => Ok(kw.to_string()),
            other => Err(other),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Var) | TokenKind::Keyword(Keyword::Let) => {
                self.advance();
                let name = self.expect_ident()?;
                let init = if self.eat_punct("=") {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                Ok(Stmt::VarDecl { name, init, line })
            }
            TokenKind::Keyword(Keyword::Function) => {
                self.advance();
                let name = self.expect_ident()?;
                let params = self.param_list()?;
                let body = self.block()?;
                Ok(Stmt::FunctionDecl {
                    name,
                    params,
                    body: Rc::new(body),
                    line,
                })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let then_branch = self.block_or_single()?;
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    if matches!(self.peek(), TokenKind::Keyword(Keyword::If)) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.advance();
                self.expect_punct("(")?;
                let init = if self.eat_punct(";") {
                    None
                } else {
                    // The init is a var declaration or expression statement;
                    // both consume their trailing `;`.
                    Some(Box::new(self.statement()?))
                };
                let cond = if matches!(self.peek(), TokenKind::Punct(";")) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(";")?;
                let update = if matches!(self.peek(), TokenKind::Punct(")")) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(")")?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.advance();
                let value = if matches!(self.peek(), TokenKind::Punct(";")) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(";")?;
                Ok(Stmt::Return(value))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.advance();
                self.expect_punct(";")?;
                Ok(Stmt::Break)
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.advance();
                self.expect_punct(";")?;
                Ok(Stmt::Continue)
            }
            TokenKind::Punct("{") => Ok(Stmt::Block(self.block()?)),
            _ => {
                let expr = self.expression()?;
                self.expect_punct(";")?;
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn param_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.expect_ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(params)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(ParseError::new("unterminated block", self.line()));
            }
            body.push(self.statement()?);
        }
        Ok(body)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if matches!(self.peek(), TokenKind::Punct("{")) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.conditional()?;
        let compound = match self.peek() {
            TokenKind::Punct("=") => None,
            TokenKind::Punct("+=") => Some(BinaryOp::Add),
            TokenKind::Punct("-=") => Some(BinaryOp::Sub),
            TokenKind::Punct("*=") => Some(BinaryOp::Mul),
            TokenKind::Punct("/=") => Some(BinaryOp::Div),
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.advance();
        let rhs = self.assignment()?;
        let target = expr_to_target(&lhs)
            .ok_or_else(|| ParseError::new("invalid assignment target", line))?;
        let value = match compound {
            None => rhs,
            Some(op) => Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
        };
        Ok(Expr::Assign {
            target,
            value: Box::new(value),
        })
    }

    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then_value = self.assignment()?;
            self.expect_punct(":")?;
            let else_value = self.assignment()?;
            Ok(Expr::Conditional {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            })
        } else {
            Ok(cond)
        }
    }

    /// Pratt loop over binary operators at or above `min_prec`.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct("||") => (BinaryOp::Or, 1),
                TokenKind::Punct("&&") => (BinaryOp::And, 2),
                TokenKind::Punct("==") | TokenKind::Punct("===") => (BinaryOp::Eq, 3),
                TokenKind::Punct("!=") | TokenKind::Punct("!==") => (BinaryOp::Ne, 3),
                TokenKind::Punct("<") => (BinaryOp::Lt, 4),
                TokenKind::Punct("<=") => (BinaryOp::Le, 4),
                TokenKind::Punct(">") => (BinaryOp::Gt, 4),
                TokenKind::Punct(">=") => (BinaryOp::Ge, 4),
                TokenKind::Punct("+") => (BinaryOp::Add, 5),
                TokenKind::Punct("-") => (BinaryOp::Sub, 5),
                TokenKind::Punct("*") => (BinaryOp::Mul, 6),
                TokenKind::Punct("/") => (BinaryOp::Div, 6),
                TokenKind::Punct("%") => (BinaryOp::Rem, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.advance();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(self.unary()?),
            });
        }
        if self.eat_punct("!") {
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(self.unary()?),
            });
        }
        // Prefix ++/-- desugar to compound assignment.
        if self.eat_punct("++") {
            let operand = self.unary()?;
            return self.desugar_incdec(operand, BinaryOp::Add);
        }
        if self.eat_punct("--") {
            let operand = self.unary()?;
            return self.desugar_incdec(operand, BinaryOp::Sub);
        }
        self.postfix()
    }

    fn desugar_incdec(&mut self, operand: Expr, op: BinaryOp) -> Result<Expr, ParseError> {
        let target = expr_to_target(&operand)
            .ok_or_else(|| ParseError::new("invalid increment target", self.line()))?;
        Ok(Expr::Assign {
            target,
            value: Box::new(Expr::Binary {
                op,
                lhs: Box::new(operand),
                rhs: Box::new(Expr::Number(1.0)),
            }),
        })
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.primary()?;
        loop {
            if self.eat_punct("(") {
                let line = self.line();
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.assignment()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args,
                    line,
                };
            } else if self.eat_punct(".") {
                let property = Self::property_name(self.advance()).map_err(|other| {
                    ParseError::new(
                        format!("expected property name, found `{other}`"),
                        self.line(),
                    )
                })?;
                expr = Expr::Member {
                    object: Box::new(expr),
                    property,
                };
            } else if self.eat_punct("[") {
                let index = self.expression()?;
                self.expect_punct("]")?;
                expr = Expr::Index {
                    object: Box::new(expr),
                    index: Box::new(index),
                };
            } else if matches!(self.peek(), TokenKind::Punct("++")) {
                // Postfix increment: value semantics are not needed by the
                // workloads, so treat like prefix.
                self.advance();
                return self.desugar_incdec(expr, BinaryOp::Add);
            } else if matches!(self.peek(), TokenKind::Punct("--")) {
                self.advance();
                return self.desugar_incdec(expr, BinaryOp::Sub);
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.advance() {
            TokenKind::Number(n) => Ok(Expr::Number(n)),
            TokenKind::Str(s) => Ok(Expr::Str(s)),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::Bool(true)),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::Bool(false)),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Null),
            TokenKind::Ident(name) => Ok(Expr::Var(name)),
            TokenKind::Keyword(Keyword::Function) => {
                let params = self.param_list()?;
                let body = self.block()?;
                Ok(Expr::Function {
                    params,
                    body: Rc::new(body),
                })
            }
            TokenKind::Punct("(") => {
                let expr = self.expression()?;
                self.expect_punct(")")?;
                Ok(expr)
            }
            TokenKind::Punct("[") => {
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        items.push(self.assignment()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Array(items))
            }
            TokenKind::Punct("{") => {
                let mut entries = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        let key = match self.advance() {
                            TokenKind::Str(s) => s,
                            other => Self::property_name(other).map_err(|other| {
                                ParseError::new(
                                    format!("expected object key, found `{other}`"),
                                    line,
                                )
                            })?,
                        };
                        self.expect_punct(":")?;
                        entries.push((key, self.assignment()?));
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Object(entries))
            }
            other => Err(ParseError::new(format!("unexpected token `{other}`"), line)),
        }
    }
}

fn expr_to_target(expr: &Expr) -> Option<Target> {
    match expr {
        Expr::Var(name) => Some(Target::Var(name.clone())),
        Expr::Member { object, property } => Some(Target::Member(object.clone(), property.clone())),
        Expr::Index { object, index } => Some(Target::Index(object.clone(), index.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_var_and_function() {
        let program = parse_program("var x = 1; function f(a, b) { return a + b; }").unwrap();
        assert_eq!(program.body.len(), 2);
        assert!(matches!(&program.body[0], Stmt::VarDecl { name, .. } if name == "x"));
        assert!(
            matches!(&program.body[1], Stmt::FunctionDecl { name, params, .. }
                if name == "f" && params == &["a", "b"])
        );
    }

    #[test]
    fn precedence_mul_over_add() {
        let program = parse_program("var y = 1 + 2 * 3;").unwrap();
        let Stmt::VarDecl {
            init: Some(init), ..
        } = &program.body[0]
        else {
            panic!("expected var decl");
        };
        let Expr::Binary {
            op: BinaryOp::Add,
            rhs,
            ..
        } = init
        else {
            panic!("expected top-level add, got {init:?}");
        };
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_if_else_chain() {
        let src = "if (a) { f(); } else if (b) { g(); } else { h(); }";
        let program = parse_program(src).unwrap();
        let Stmt::If { else_branch, .. } = &program.body[0] else {
            panic!("expected if");
        };
        assert!(matches!(&else_branch[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_for_loop() {
        let src = "for (var i = 0; i < 10; i = i + 1) { f(i); }";
        let program = parse_program(src).unwrap();
        let Stmt::For {
            init, cond, update, ..
        } = &program.body[0]
        else {
            panic!("expected for");
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(update.is_some());
    }

    #[test]
    fn parses_for_with_increment_operator() {
        assert!(parse_program("for (var i = 0; i < 3; i++) { f(); }").is_ok());
    }

    #[test]
    fn compound_assignment_desugars() {
        let program = parse_program("x += 2;").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = &program.body[0] else {
            panic!("expected assignment");
        };
        assert!(matches!(
            **value,
            Expr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn parses_member_index_call_chain() {
        let program = parse_program("a.b[0](1, 2);").unwrap();
        let Stmt::Expr(Expr::Call { callee, args, .. }) = &program.body[0] else {
            panic!("expected call");
        };
        assert_eq!(args.len(), 2);
        assert!(matches!(**callee, Expr::Index { .. }));
    }

    #[test]
    fn parses_function_expression_argument() {
        let src = "requestAnimationFrame(function(ts) { step(ts); });";
        let program = parse_program(src).unwrap();
        let Stmt::Expr(Expr::Call { args, .. }) = &program.body[0] else {
            panic!("expected call");
        };
        assert!(matches!(&args[0], Expr::Function { params, .. } if params == &["ts"]));
    }

    #[test]
    fn parses_object_and_array_literals() {
        let program = parse_program("var o = { a: 1, 'b c': [1, 2, 3] };").unwrap();
        let Stmt::VarDecl {
            init: Some(Expr::Object(entries)),
            ..
        } = &program.body[0]
        else {
            panic!("expected object literal");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].0, "b c");
    }

    #[test]
    fn parses_ternary() {
        let program = parse_program("var x = a ? 1 : 2;").unwrap();
        let Stmt::VarDecl {
            init: Some(init), ..
        } = &program.body[0]
        else {
            panic!()
        };
        assert!(matches!(init, Expr::Conditional { .. }));
    }

    #[test]
    fn error_on_bad_assignment_target() {
        let err = parse_program("1 = 2;").unwrap_err();
        assert!(err.to_string().contains("assignment target"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse_program("var x = 1").is_err());
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("var x = 1;\nvar y = ;").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unterminated_block_errors() {
        assert!(parse_program("function f() { var x = 1;").is_err());
    }

    #[test]
    fn logical_operators_lowest_precedence() {
        let program = parse_program("var x = a + 1 > 2 && b < 3;").unwrap();
        let Stmt::VarDecl {
            init: Some(Expr::Binary { op, .. }),
            ..
        } = &program.body[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::And);
    }
}
