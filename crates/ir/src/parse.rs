//! Parser for the mini-HPF text DSL.
//!
//! The accepted language is the subset of Fortran-77/HPF exercised by the
//! paper: declarations, `DO`/`END DO`, block and logical `IF`, `GOTO`,
//! labelled `CONTINUE`, assignments, and the HPF directives `PROCESSORS`,
//! `DISTRIBUTE`, `ALIGN`, `INDEPENDENT [, NEW(...)]` plus a `NO_VALUE_DEPS`
//! extension directive. Keywords are case-insensitive; identifiers are
//! normalized to lower case (Fortran is case-insensitive).
//!
//! ```
//! let src = r#"
//! !HPF$ PROCESSORS P(4)
//! !HPF$ DISTRIBUTE (BLOCK) :: A
//! REAL A(16)
//! INTEGER i
//! DO i = 2, 15
//!   A(i) = A(i-1) + 1.0
//! END DO
//! "#;
//! let p = hpf_ir::parse_program(src).unwrap();
//! assert!(p.validate().is_empty());
//! ```

use crate::directives::{
    AlignDim, AlignDirective, DistFormat, DistributeDirective, ProcGridDecl,
};
use crate::expr::{ArrayRef, BinOp, Expr, Intrinsic, UnOp};
use crate::program::{Program, VarId};
use crate::stmt::{LValue, Label, Stmt, StmtId};
use crate::types::{ArrayShape, ScalarTy, VarInfo};

/// A parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Real(f64),
    Sym(&'static str),
    /// `.AND.` / `.OR.` / `.NOT.` / `.TRUE.` / `.FALSE.` / `.EQ.` ...
    Dot(String),
}

fn lex_line(line: &str, lineno: usize) -> Result<Vec<Tok>, ParseError> {
    let b = line.as_bytes();
    let mut i = 0;
    let mut toks = Vec::new();
    let err = |msg: String| ParseError { line: lineno, msg };
    while i < b.len() {
        let c = b[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '!' {
            break; // comment to end of line (directives handled earlier)
        }
        if c.is_ascii_digit()
            || (c == '.' && i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit())
        {
            let start = i;
            let mut is_real = false;
            while i < b.len() && (b[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i < b.len() && b[i] == b'.' {
                // Don't swallow `.AND.` after an integer: require a digit or
                // non-letter after the dot.
                if i + 1 >= b.len() || !(b[i + 1] as char).is_ascii_alphabetic() {
                    is_real = true;
                    i += 1;
                    while i < b.len() && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            if i < b.len() && matches!(b[i] as char, 'e' | 'E' | 'd' | 'D') {
                let save = i;
                let mut j = i + 1;
                if j < b.len() && matches!(b[j] as char, '+' | '-') {
                    j += 1;
                }
                if j < b.len() && (b[j] as char).is_ascii_digit() {
                    is_real = true;
                    i = j;
                    while i < b.len() && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                } else {
                    i = save;
                }
            }
            let s: String = line[start..i].replace(['d', 'D'], "e");
            if is_real {
                toks.push(Tok::Real(
                    s.parse::<f64>()
                        .map_err(|e| err(format!("bad real literal {}: {}", s, e)))?,
                ));
            } else {
                toks.push(Tok::Int(
                    s.parse::<i64>()
                        .map_err(|e| err(format!("bad int literal {}: {}", s, e)))?,
                ));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok::Ident(line[start..i].to_ascii_lowercase()));
            continue;
        }
        if c == '.' {
            // dotted keyword
            let start = i + 1;
            let mut j = start;
            while j < b.len() && (b[j] as char).is_ascii_alphabetic() {
                j += 1;
            }
            if j < b.len() && b[j] == b'.' {
                toks.push(Tok::Dot(line[start..j].to_ascii_uppercase()));
                i = j + 1;
                continue;
            }
            return Err(err(format!("stray '.' at column {}", i + 1)));
        }
        // multi-char symbols first
        let rest = &line[i..];
        let two: Option<&'static str> = ["::", "**", "==", "/=", "<=", ">="]
            .iter()
            .find(|s| rest.starts_with(**s))
            .copied();
        if let Some(s) = two {
            toks.push(Tok::Sym(s));
            i += 2;
            continue;
        }
        let one: Option<&'static str> = match c {
            '(' => Some("("),
            ')' => Some(")"),
            ',' => Some(","),
            '=' => Some("="),
            '+' => Some("+"),
            '-' => Some("-"),
            '*' => Some("*"),
            '/' => Some("/"),
            '<' => Some("<"),
            '>' => Some(">"),
            ':' => Some(":"),
            _ => None,
        };
        match one {
            Some(s) => {
                toks.push(Tok::Sym(s));
                i += 1;
            }
            None => return Err(err(format!("unexpected character '{}'", c))),
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser --

/// (alignee, dummies, target, target subscript token lists, line).
type DeferredAlign = (String, Vec<String>, String, Vec<Vec<Tok>>, usize);

struct Parser {
    program: Program,
    /// Pending INDEPENDENT info for the next DO statement.
    pending_independent: Option<(bool, Vec<String>, bool)>,
    /// Deferred align directives (alignee may be declared after the
    /// directive in HPF source order): (alignee, dummies, target, target
    /// subscript texts).
    deferred_aligns: Vec<DeferredAlign>,
    deferred_distributes: Vec<(Vec<DistFormat>, Vec<String>, usize)>,
}

struct LineParser<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
}

impl<'a> LineParser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            self.err(format!("expected '{}', found {:?}", s, self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(x)) if x == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {:?}", other)),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            other => self.err(format!("expected integer, found {:?}", other)),
        }
    }

    /// An integer with an optional leading sign (array bound declarations).
    fn expect_signed_int(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat_sym("-");
        if !neg {
            let _ = self.eat_sym("+");
        }
        let v = self.expect_int()?;
        Ok(if neg { -v } else { v })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.at_end() {
            Ok(())
        } else {
            self.err(format!("trailing tokens: {:?}", &self.toks[self.pos..]))
        }
    }

    // Expression grammar (precedence climbing).
    fn expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        self.or_expr(vars)
    }

    fn or_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr(vars)?;
        while matches!(self.peek(), Some(Tok::Dot(d)) if d == "OR") {
            self.pos += 1;
            let rhs = self.and_expr(vars)?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr(vars)?;
        while matches!(self.peek(), Some(Tok::Dot(d)) if d == "AND") {
            self.pos += 1;
            let rhs = self.not_expr(vars)?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Some(Tok::Dot(d)) if d == "NOT") {
            self.pos += 1;
            let e = self.not_expr(vars)?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(e)));
        }
        self.rel_expr(vars)
    }

    fn rel_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let lhs = self.add_expr(vars)?;
        let op = match self.peek() {
            Some(Tok::Sym("==")) => Some(BinOp::Eq),
            Some(Tok::Sym("/=")) => Some(BinOp::Ne),
            Some(Tok::Sym("<")) => Some(BinOp::Lt),
            Some(Tok::Sym("<=")) => Some(BinOp::Le),
            Some(Tok::Sym(">")) => Some(BinOp::Gt),
            Some(Tok::Sym(">=")) => Some(BinOp::Ge),
            Some(Tok::Dot(d)) => match d.as_str() {
                "EQ" => Some(BinOp::Eq),
                "NE" => Some(BinOp::Ne),
                "LT" => Some(BinOp::Lt),
                "LE" => Some(BinOp::Le),
                "GT" => Some(BinOp::Gt),
                "GE" => Some(BinOp::Ge),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr(vars)?;
            return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr(vars)?;
        loop {
            if self.eat_sym("+") {
                let rhs = self.mul_expr(vars)?;
                lhs = lhs.add(rhs);
            } else if self.eat_sym("-") {
                let rhs = self.mul_expr(vars)?;
                lhs = lhs.sub(rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr(vars)?;
        loop {
            if self.eat_sym("*") {
                let rhs = self.unary_expr(vars)?;
                lhs = lhs.mul(rhs);
            } else if self.eat_sym("/") {
                let rhs = self.unary_expr(vars)?;
                lhs = lhs.div(rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            let e = self.unary_expr(vars)?;
            return Ok(e.neg());
        }
        if self.eat_sym("+") {
            return self.unary_expr(vars);
        }
        self.pow_expr(vars)
    }

    fn pow_expr(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        let base = self.primary(vars)?;
        if self.eat_sym("**") {
            // right-associative
            let exp = self.unary_expr(vars)?;
            return Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn primary(&mut self, vars: &Program) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::IntLit(v)),
            Some(Tok::Real(v)) => Ok(Expr::RealLit(v)),
            Some(Tok::Dot(d)) if d == "TRUE" => Ok(Expr::BoolLit(true)),
            Some(Tok::Dot(d)) if d == "FALSE" => Ok(Expr::BoolLit(false)),
            Some(Tok::Sym("(")) => {
                let e = self.expr(vars)?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if matches!(self.peek(), Some(Tok::Sym("("))) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr(vars)?);
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    if let Some(v) = vars.vars.lookup(&name) {
                        if vars.vars.info(v).is_array() {
                            return Ok(Expr::Array(ArrayRef::new(v, args)));
                        }
                        return self.err(format!("scalar {} used with subscripts", name));
                    }
                    if let Some(i) = Intrinsic::from_name(&name) {
                        if args.len() != i.arity() {
                            return self.err(format!(
                                "{} takes {} argument(s), got {}",
                                i.name(),
                                i.arity(),
                                args.len()
                            ));
                        }
                        return Ok(Expr::Intrinsic(i, args));
                    }
                    self.err(format!("unknown array or intrinsic '{}'", name))
                } else {
                    match vars.vars.lookup(&name) {
                        Some(v) => Ok(Expr::Scalar(v)),
                        None => self.err(format!("undeclared variable '{}'", name)),
                    }
                }
            }
            other => self.err(format!("unexpected token {:?} in expression", other)),
        }
    }
}

impl Parser {
    fn new() -> Self {
        Parser {
            program: Program::new(),
            pending_independent: None,
            deferred_aligns: Vec::new(),
            deferred_distributes: Vec::new(),
        }
    }

    fn lookup(&self, name: &str, line: usize) -> Result<VarId, ParseError> {
        self.program.vars.lookup(name).ok_or_else(|| ParseError {
            line,
            msg: format!("undeclared variable '{}'", name),
        })
    }

    fn parse_directive(&mut self, text: &str, lineno: usize) -> Result<(), ParseError> {
        let toks = lex_line(text, lineno)?;
        let mut lp = LineParser {
            toks: &toks,
            pos: 0,
            line: lineno,
        };
        if lp.eat_kw("processors") {
            let name = lp.expect_ident()?;
            lp.expect_sym("(")?;
            let mut dims = Vec::new();
            loop {
                let extent = lp.expect_int()?;
                if extent < 1 {
                    return lp.err(format!(
                        "PROCESSORS {}: dimension {} has extent {}, must be at least 1",
                        name,
                        dims.len() + 1,
                        extent
                    ));
                }
                dims.push(extent as usize);
                if lp.eat_sym(")") {
                    break;
                }
                lp.expect_sym(",")?;
            }
            self.program.directives.grid = Some(ProcGridDecl::new(name, dims));
            return lp.expect_end();
        }
        if lp.eat_kw("distribute") {
            lp.expect_sym("(")?;
            let mut fmts = Vec::new();
            loop {
                if lp.eat_sym("*") {
                    fmts.push(DistFormat::Collapsed);
                } else if lp.eat_kw("block") {
                    fmts.push(DistFormat::Block);
                } else if lp.eat_kw("cyclic") {
                    if lp.eat_sym("(") {
                        let k = lp.expect_int()?;
                        if k < 1 {
                            return lp.err(format!("CYCLIC({}): block size must be at least 1", k));
                        }
                        lp.expect_sym(")")?;
                        fmts.push(DistFormat::BlockCyclic(k as usize));
                    } else {
                        fmts.push(DistFormat::Cyclic);
                    }
                } else {
                    return lp.err("expected BLOCK, CYCLIC or *");
                }
                if lp.eat_sym(")") {
                    break;
                }
                lp.expect_sym(",")?;
            }
            // optional ONTO grid
            if lp.eat_kw("onto") {
                let _ = lp.expect_ident()?;
            }
            lp.expect_sym("::")?;
            let mut names = Vec::new();
            loop {
                names.push(lp.expect_ident()?);
                if lp.at_end() {
                    break;
                }
                lp.expect_sym(",")?;
            }
            self.deferred_distributes.push((fmts, names, lineno));
            return Ok(());
        }
        if lp.eat_kw("align") {
            // Two forms:
            //   ALIGN B(i)     WITH A(i,*)
            //   ALIGN (i)      WITH A(i) :: B, C      (alignee list)
            let mut alignees: Vec<String> = Vec::new();
            let mut dummies: Vec<String> = Vec::new();
            if matches!(lp.peek(), Some(Tok::Sym("("))) {
                lp.pos += 1;
                loop {
                    if lp.eat_sym(":") {
                        dummies.push(format!("_colon{}", dummies.len()));
                    } else {
                        dummies.push(lp.expect_ident()?);
                    }
                    if lp.eat_sym(")") {
                        break;
                    }
                    lp.expect_sym(",")?;
                }
            } else {
                let a = lp.expect_ident()?;
                alignees.push(a);
                if lp.eat_sym("(") {
                    loop {
                        if lp.eat_sym(":") {
                            // `ALIGN B(:) WITH A(:)` — positional colon form.
                            dummies.push(format!("_colon{}", dummies.len()));
                        } else {
                            dummies.push(lp.expect_ident()?);
                        }
                        if lp.eat_sym(")") {
                            break;
                        }
                        lp.expect_sym(",")?;
                    }
                }
            }
            if !lp.eat_kw("with") {
                return lp.err("expected WITH in ALIGN");
            }
            let target = lp.expect_ident()?;
            lp.expect_sym("(")?;
            // Collect target subscript token groups (resolved at finish).
            let mut groups: Vec<Vec<Tok>> = vec![Vec::new()];
            let mut depth = 0usize;
            loop {
                match lp.next() {
                    None => return lp.err("unterminated ALIGN target"),
                    Some(Tok::Sym("(")) => {
                        depth += 1;
                        groups.last_mut().unwrap().push(Tok::Sym("("));
                    }
                    Some(Tok::Sym(")")) => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                        groups.last_mut().unwrap().push(Tok::Sym(")"));
                    }
                    Some(Tok::Sym(",")) if depth == 0 => groups.push(Vec::new()),
                    Some(t) => groups.last_mut().unwrap().push(t),
                }
            }
            if lp.eat_sym("::") {
                loop {
                    alignees.push(lp.expect_ident()?);
                    if lp.at_end() {
                        break;
                    }
                    lp.expect_sym(",")?;
                }
            }
            if alignees.is_empty() {
                return lp.err("ALIGN with no alignee");
            }
            for a in alignees {
                self.deferred_aligns.push((
                    a,
                    dummies.clone(),
                    target.clone(),
                    groups.clone(),
                    lineno,
                ));
            }
            return lp.expect_end();
        }
        if lp.eat_kw("independent") || lp.eat_kw("no_value_deps") {
            unreachable!("INDEPENDENT/NO_VALUE_DEPS are routed through markers");
        }
        lp.err("unknown HPF directive")
    }

    /// Parse a deferred `INDEPENDENT` / `NO_VALUE_DEPS` marker.
    fn parse_directive_toks(&mut self, toks: &[Tok], lineno: usize) -> Result<(), ParseError> {
        let mut lp = LineParser {
            toks,
            pos: 0,
            line: lineno,
        };
        if lp.eat_kw("independent") {
            let mut new_vars = Vec::new();
            if lp.eat_sym(",") {
                if !lp.eat_kw("new") {
                    return lp.err("expected NEW after INDEPENDENT,");
                }
                lp.expect_sym("(")?;
                loop {
                    new_vars.push(lp.expect_ident()?);
                    if lp.eat_sym(")") {
                        break;
                    }
                    lp.expect_sym(",")?;
                }
            }
            let entry = self
                .pending_independent
                .get_or_insert((false, Vec::new(), false));
            entry.0 = true;
            entry.1.extend(new_vars);
            return lp.expect_end();
        }
        if lp.eat_kw("no_value_deps") {
            let entry = self
                .pending_independent
                .get_or_insert((false, Vec::new(), false));
            entry.2 = true;
            return lp.expect_end();
        }
        lp.err("unknown HPF directive")
    }

    fn parse_decl(
        &mut self,
        ty: ScalarTy,
        lp: &mut LineParser<'_>,
    ) -> Result<(), ParseError> {
        loop {
            let name = lp.expect_ident()?;
            if lp.eat_sym("(") {
                let mut dims = Vec::new();
                loop {
                    let first = lp.expect_signed_int()?;
                    if lp.eat_sym(":") {
                        let hi = lp.expect_signed_int()?;
                        dims.push((first, hi));
                    } else {
                        dims.push((1, first));
                    }
                    if lp.eat_sym(")") {
                        break;
                    }
                    lp.expect_sym(",")?;
                }
                self.program
                    .vars
                    .declare(VarInfo::array(name, ty, ArrayShape { dims }));
            } else {
                self.program.vars.declare(VarInfo::scalar(name, ty));
            }
            if lp.at_end() {
                return Ok(());
            }
            lp.expect_sym(",")?;
        }
    }

    /// Parse statements until one of the given terminators is reached (at
    /// statement level). Returns (statements, terminator keyword seen).
    fn parse_block(
        &mut self,
        lines: &[(usize, Vec<Tok>)],
        idx: &mut usize,
        terminators: &[&str],
    ) -> Result<(Vec<StmtId>, Option<String>), ParseError> {
        let mut stmts = Vec::new();
        while *idx < lines.len() {
            let (lineno, toks) = &lines[*idx];
            // Deferred INDEPENDENT / NO_VALUE_DEPS directive marker.
            if matches!(toks.first(), Some(Tok::Ident(w)) if w == "__hpf_directive__") {
                self.parse_directive_toks(&toks[1..], *lineno)?;
                *idx += 1;
                continue;
            }
            let mut lp = LineParser {
                toks,
                pos: 0,
                line: *lineno,
            };
            // Optional numeric label.
            let label = if let Some(Tok::Int(v)) = lp.peek() {
                let v = *v;
                // A label must be followed by a statement keyword/ident.
                if toks.len() > 1 {
                    lp.pos += 1;
                    Some(Label(v as u32))
                } else {
                    None
                }
            } else {
                None
            };
            // Terminator check (END DO / END IF / ELSE).
            if let Some(Tok::Ident(w)) = lp.peek() {
                let w2 = if w == "end" {
                    let nxt = match lp.toks.get(lp.pos + 1) {
                        Some(Tok::Ident(x)) => format!("end {}", x),
                        _ => "end".to_string(),
                    };
                    nxt
                } else {
                    w.clone()
                };
                if terminators.contains(&w2.as_str()) {
                    *idx += 1;
                    return Ok((stmts, Some(w2)));
                }
            }
            *idx += 1;
            let sid = self.parse_stmt(&mut lp, lines, idx)?;
            if let Some(l) = label {
                self.program.set_label(sid, l);
            }
            stmts.push(sid);
        }
        Ok((stmts, None))
    }

    fn parse_stmt(
        &mut self,
        lp: &mut LineParser<'_>,
        lines: &[(usize, Vec<Tok>)],
        idx: &mut usize,
    ) -> Result<StmtId, ParseError> {
        let line = lp.line;
        // DO statement
        if matches!(lp.peek(), Some(Tok::Ident(w)) if w == "do") {
            lp.pos += 1;
            let var_name = lp.expect_ident()?;
            let var = self.lookup(&var_name, line)?;
            lp.expect_sym("=")?;
            let lo = lp.expr(&self.program)?;
            lp.expect_sym(",")?;
            let hi = lp.expr(&self.program)?;
            let step = if lp.eat_sym(",") {
                lp.expr(&self.program)?
            } else {
                Expr::int(1)
            };
            lp.expect_end()?;
            let pend = self.pending_independent.take();
            let (body, term) = self.parse_block(lines, idx, &["end do"])?;
            if term.as_deref() != Some("end do") {
                return Err(ParseError {
                    line,
                    msg: "DO without END DO".into(),
                });
            }
            let sid = self.program.add_stmt(Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            });
            if let Some((indep, news, nvd)) = pend {
                let mut new_ids = Vec::new();
                for n in news {
                    new_ids.push(self.lookup(&n, line)?);
                }
                let info = self
                    .program
                    .directives
                    .independents
                    .entry(sid)
                    .or_default();
                info.independent = indep;
                info.new_vars = new_ids;
                info.no_value_deps = nvd;
            }
            return Ok(sid);
        }
        // IF statement
        if matches!(lp.peek(), Some(Tok::Ident(w)) if w == "if") {
            lp.pos += 1;
            lp.expect_sym("(")?;
            let cond = lp.expr(&self.program)?;
            lp.expect_sym(")")?;
            if lp.eat_kw("then") {
                lp.expect_end()?;
                let (then_body, term) = self.parse_block(lines, idx, &["else", "end if"])?;
                let (else_body, term2) = if term.as_deref() == Some("else") {
                    let (eb, t2) = self.parse_block(lines, idx, &["end if"])?;
                    (eb, t2)
                } else {
                    (Vec::new(), term)
                };
                if term2.as_deref() != Some("end if") {
                    return Err(ParseError {
                        line,
                        msg: "IF without END IF".into(),
                    });
                }
                return Ok(self.program.add_stmt(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                }));
            }
            // Logical IF: single statement on the same line.
            let inner = self.parse_simple_stmt(lp)?;
            return Ok(self.program.add_stmt(Stmt::If {
                cond,
                then_body: vec![inner],
                else_body: vec![],
            }));
        }
        let sid = self.parse_simple_stmt(lp)?;
        Ok(sid)
    }

    /// GOTO / CONTINUE / assignment (no block structure).
    fn parse_simple_stmt(&mut self, lp: &mut LineParser<'_>) -> Result<StmtId, ParseError> {
        let line = lp.line;
        if matches!(lp.peek(), Some(Tok::Ident(w)) if w == "goto") {
            lp.pos += 1;
            let l = lp.expect_int()?;
            lp.expect_end()?;
            return Ok(self.program.add_stmt(Stmt::Goto(Label(l as u32))));
        }
        if matches!(lp.peek(), Some(Tok::Ident(w)) if w == "go") {
            lp.pos += 1;
            if !lp.eat_kw("to") {
                return lp.err("expected TO after GO");
            }
            let l = lp.expect_int()?;
            lp.expect_end()?;
            return Ok(self.program.add_stmt(Stmt::Goto(Label(l as u32))));
        }
        if matches!(lp.peek(), Some(Tok::Ident(w)) if w == "continue") {
            lp.pos += 1;
            lp.expect_end()?;
            return Ok(self.program.add_stmt(Stmt::Continue));
        }
        // Assignment.
        let name = lp.expect_ident()?;
        let var = self.lookup(&name, line)?;
        let lhs = if lp.eat_sym("(") {
            let mut subs = Vec::new();
            loop {
                subs.push(lp.expr(&self.program)?);
                if lp.eat_sym(")") {
                    break;
                }
                lp.expect_sym(",")?;
            }
            LValue::Array(ArrayRef::new(var, subs))
        } else {
            LValue::Scalar(var)
        };
        lp.expect_sym("=")?;
        let rhs = lp.expr(&self.program)?;
        lp.expect_end()?;
        Ok(self.program.add_stmt(Stmt::Assign { lhs, rhs }))
    }

    fn finish(mut self) -> Result<Program, ParseError> {
        // Resolve deferred DISTRIBUTE directives.
        for (fmts, names, line) in std::mem::take(&mut self.deferred_distributes) {
            for name in names {
                let v = self.lookup(&name, line)?;
                let rank = self.program.vars.info(v).rank();
                if rank != fmts.len() {
                    return Err(ParseError {
                        line,
                        msg: format!(
                            "DISTRIBUTE rank mismatch for {}: {} formats vs rank {}",
                            name,
                            fmts.len(),
                            rank
                        ),
                    });
                }
                self.program.directives.distributes.push(DistributeDirective {
                    array: v,
                    formats: fmts.clone(),
                });
            }
        }
        // Resolve deferred ALIGN directives.
        for (alignee, dummies, target, groups, line) in std::mem::take(&mut self.deferred_aligns)
        {
            let alignee_id = self.lookup(&alignee, line)?;
            let target_id = self.lookup(&target, line)?;
            let mut dims = Vec::with_capacity(groups.len());
            for (gi, g) in groups.iter().enumerate() {
                dims.push(parse_align_dim(g, gi, &dummies, line)?);
            }
            self.program.directives.aligns.push(AlignDirective {
                alignee: alignee_id,
                target: target_id,
                dims,
            });
        }
        self.program.rebuild_topology();
        let errs = self.program.validate();
        if let Some(e) = errs.first() {
            return Err(ParseError {
                line: 0,
                msg: e.clone(),
            });
        }
        Ok(self.program)
    }
}

/// Parse one ALIGN target subscript group: `*`, a constant, `dummy`,
/// `k*dummy + c`, `:` (positional match).
fn parse_align_dim(
    toks: &[Tok],
    group_index: usize,
    dummies: &[String],
    line: usize,
) -> Result<AlignDim, ParseError> {
    let err = |msg: String| ParseError { line, msg };
    if toks.len() == 1 {
        match &toks[0] {
            Tok::Sym("*") => return Ok(AlignDim::Replicate),
            Tok::Int(c) => return Ok(AlignDim::Const(*c)),
            Tok::Sym(":") => {
                // Positional colon: match the alignee dimension at the same
                // position.
                return Ok(AlignDim::Match {
                    alignee_dim: group_index,
                    stride: 1,
                    offset: 0,
                });
            }
            Tok::Ident(d) => {
                if let Some(pos) = dummies.iter().position(|x| x == d) {
                    return Ok(AlignDim::Match {
                        alignee_dim: pos,
                        stride: 1,
                        offset: 0,
                    });
                }
                return Err(err(format!("unknown align dummy '{}'", d)));
            }
            _ => {}
        }
    }
    // General linear form: [k *] dummy [± c]
    let mut stride = 1i64;
    let mut offset = 0i64;
    let dummy: Option<usize>;
    let mut i = 0;
    if let (Some(Tok::Int(k)), Some(Tok::Sym("*"))) = (toks.first(), toks.get(1)) {
        stride = *k;
        i = 2;
    }
    match toks.get(i) {
        Some(Tok::Ident(d)) => {
            dummy = dummies.iter().position(|x| x == d);
            if dummy.is_none() {
                return Err(err(format!("unknown align dummy '{}'", d)));
            }
            i += 1;
        }
        _ => return Err(err("expected align dummy".into())),
    }
    if let Some(Tok::Sym(s)) = toks.get(i) {
        let sign = match *s {
            "+" => 1,
            "-" => -1,
            _ => return Err(err("expected + or - in align subscript".into())),
        };
        match toks.get(i + 1) {
            Some(Tok::Int(c)) => offset = sign * c,
            _ => return Err(err("expected constant after +/- in align".into())),
        }
        i += 2;
    }
    if i != toks.len() {
        return Err(err("trailing tokens in align subscript".into()));
    }
    Ok(AlignDim::Match {
        alignee_dim: dummy.unwrap(),
        stride,
        offset,
    })
}

/// Parse a mini-HPF source text into a [`Program`].
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new();
    // Phase 1: split into logical lines; route directives and declarations.
    let mut stmt_lines: Vec<(usize, Vec<Tok>)> = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if let Some(rest) = upper
            .strip_prefix("!HPF$")
            .or_else(|| upper.strip_prefix("CHPF$"))
        {
            // INDEPENDENT and NO_VALUE_DEPS attach to the *next* DO in
            // source order: route them through a marker line so they are
            // applied during statement parsing, not in this pre-pass.
            let trimmed = rest.trim_start().to_ascii_uppercase();
            if trimmed.starts_with("INDEPENDENT") || trimmed.starts_with("NO_VALUE_DEPS") {
                let mut toks = vec![Tok::Ident("__hpf_directive__".into())];
                toks.extend(lex_line(rest, lineno)?);
                stmt_lines.push((lineno, toks));
            } else {
                parser.parse_directive(rest, lineno)?;
            }
            continue;
        }
        if line.starts_with('!') {
            continue; // comment
        }
        let toks = lex_line(line, lineno)?;
        if toks.is_empty() {
            continue;
        }
        // Declaration?
        if let Some(Tok::Ident(w)) = toks.first() {
            let ty = match w.as_str() {
                "integer" => Some(ScalarTy::Int),
                "real" | "double" => Some(ScalarTy::Real),
                "logical" => Some(ScalarTy::Bool),
                _ => None,
            };
            if let Some(ty) = ty {
                let mut lp = LineParser {
                    toks: &toks,
                    pos: 1,
                    line: lineno,
                };
                // `DOUBLE PRECISION`
                if *w == *"double" && !lp.eat_kw("precision") {
                    return Err(ParseError {
                        line: lineno,
                        msg: "expected PRECISION after DOUBLE".into(),
                    });
                }
                parser.parse_decl(ty, &mut lp)?;
                continue;
            }
        }
        stmt_lines.push((lineno, toks));
    }
    // Phase 2: parse statements.
    let mut idx = 0;
    let (body, term) = parser.parse_block(&stmt_lines, &mut idx, &[])?;
    if let Some(t) = term {
        return Err(ParseError {
            line: 0,
            msg: format!("unexpected '{}'", t),
        });
    }
    parser.program.body = body;
    parser.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_program, Value};

    #[test]
    fn parse_figure1_style_program() {
        // The paper's Figure 1 example.
        let src = r#"
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20), D(20), E(20), F(20)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;
        let p = parse_program(src).unwrap();
        assert!(p.validate().is_empty());
        assert_eq!(p.directives.aligns.len(), 5);
        let a = p.vars.lookup("a").unwrap();
        assert!(p.directives.distribute_of(a).is_some());
        let e = p.vars.lookup("e").unwrap();
        let al = p.directives.align_of(e).unwrap();
        assert_eq!(al.dims, vec![AlignDim::Replicate]);
    }

    #[test]
    fn parse_and_run() {
        let src = r#"
REAL A(8)
INTEGER i
DO i = 2, 8
  A(i) = A(i-1) + 1.0
END DO
"#;
        let p = parse_program(src).unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        let a = p.vars.lookup("a").unwrap();
        assert_eq!(mem.real_slice(a), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn parse_independent_new() {
        let src = r#"
!HPF$ DISTRIBUTE (*, BLOCK) :: R
REAL C(4,4), R(4,4)
INTEGER i, k
!HPF$ INDEPENDENT, NEW(c)
DO k = 1, 4
  DO i = 1, 4
    C(i,1) = 1.0
    R(i,k) = C(i,1)
  END DO
END DO
"#;
        let p = parse_program(src).unwrap();
        let c = p.vars.lookup("c").unwrap();
        // The INDEPENDENT is attached to the k loop.
        let kloop = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop() && p.nesting_level(s) == 0)
            .unwrap();
        let info = p.directives.independent_of(kloop).unwrap();
        assert!(info.independent);
        assert_eq!(info.new_vars, vec![c]);
    }

    #[test]
    fn parse_if_goto_continue() {
        let src = r#"
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(8), B(8), C(8)
INTEGER i
DO i = 1, 8
  IF (B(i) /= 0.0) THEN
    A(i) = A(i) / B(i)
    IF (B(i) < 0.0) GOTO 100
  ELSE
    A(i) = C(i)
    C(i) = C(i) * C(i)
  END IF
100 CONTINUE
END DO
"#;
        let p = parse_program(src).unwrap();
        assert!(p.validate().is_empty());
        // Both IFs present: one block IF, one logical IF.
        let n_ifs = p
            .preorder()
            .into_iter()
            .filter(|&s| matches!(p.stmt(s), Stmt::If { .. }))
            .count();
        assert_eq!(n_ifs, 2);
        // Runs without error.
        let (_, _) = run_program(&p, |m| {
            let b = p.vars.lookup("b").unwrap();
            m.fill_real(b, &[1., -1., 0., 2., 0., 3., -2., 0.]);
        })
        .unwrap();
    }

    #[test]
    fn parse_cyclic_and_2d() {
        let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: H
REAL A(8,8), H(8,8)
"#;
        let p = parse_program(src).unwrap();
        let a = p.vars.lookup("a").unwrap();
        let d = p.directives.distribute_of(a).unwrap();
        assert_eq!(d.formats, vec![DistFormat::Collapsed, DistFormat::Cyclic]);
        assert_eq!(p.directives.grid.as_ref().unwrap().dims, vec![2, 2]);
    }

    #[test]
    fn parse_real_literals() {
        let src = r#"
REAL x, y
x = 1.5e2
y = 2.5d0
"#;
        let p = parse_program(src).unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("x").unwrap()), Value::Real(150.0));
        assert_eq!(mem.scalar(p.vars.lookup("y").unwrap()), Value::Real(2.5));
    }

    #[test]
    fn parse_dotted_relops() {
        let src = r#"
INTEGER i
LOGICAL q
i = 3
q = i .GE. 2 .AND. .NOT. (i .EQ. 5)
"#;
        let p = parse_program(src).unwrap();
        let (mem, _) = run_program(&p, |_| {}).unwrap();
        assert_eq!(mem.scalar(p.vars.lookup("q").unwrap()), Value::Bool(true));
    }

    #[test]
    fn error_on_undeclared() {
        let src = "x = 1.0\n";
        let e = parse_program(src).unwrap_err();
        assert!(e.msg.contains("undeclared"));
    }

    #[test]
    fn error_on_unbalanced_do() {
        let src = "INTEGER i\nDO i = 1, 3\n";
        let e = parse_program(src).unwrap_err();
        assert!(e.msg.contains("END DO"), "{}", e);
    }

    #[test]
    fn pretty_print_parses_back() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16)
INTEGER i
REAL s
s = 0.0
DO i = 1, 16
  s = s + A(i) * B(i)
END DO
"#;
        let p1 = parse_program(src).unwrap();
        let text = crate::pretty::print_program(&p1);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p1.vars.len(), p2.vars.len());
        assert_eq!(p1.num_stmts(), p2.num_stmts());
        // Same sequential semantics.
        let a = p1.vars.lookup("a").unwrap();
        let b = p1.vars.lookup("b").unwrap();
        let data: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let (m1, _) = run_program(&p1, |m| {
            m.fill_real(a, &data);
            m.fill_real(b, &data);
        })
        .unwrap();
        let (m2, _) = run_program(&p2, |m| {
            m.fill_real(p2.vars.lookup("a").unwrap(), &data);
            m.fill_real(p2.vars.lookup("b").unwrap(), &data);
        })
        .unwrap();
        let s1 = p1.vars.lookup("s").unwrap();
        let s2 = p2.vars.lookup("s").unwrap();
        assert_eq!(m1.scalar(s1), m2.scalar(s2));
    }
}
