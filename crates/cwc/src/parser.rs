//! The text format for CWC models: the one way a model is read.
//!
//! A small line-oriented language so models can live in files next to the
//! simulator (the paper's GUI "makes it possible to design the biological
//! model"; this parser is the headless equivalent). It is also how a model
//! reaches a shard worker: [`render_model`] prints any model, and
//! [`parse_model`] reads the text back field for field. Example:
//!
//! ```text
//! model birth-death
//! # atoms: A, R; one compartment type: cell
//! term: A*100 (cell: R | A*3)
//! rule birth @ 0.5 : A => A A
//! rule death @ 0.1 : A =>
//! rule feed @ 2.0 hill-repress(A, 50.0, 2.0) : => A
//! rule uptake @ 1.0 : A (cell: R |) => [1: | A]
//! rule lysis @ 0.01 : (cell: | A) => !1
//! rule divide @ 0.02 in cell : A A => A (cell: | A)
//! observe total_A = A
//! observe cell_A = A in cell
//! observe free_A = A at top
//! ```
//!
//! ## Grammar
//!
//! One directive per line; `#` starts a comment and blank lines are
//! skipped. A later `model` or `term:` line replaces an earlier one.
//!
//! ```text
//! model NAME                  the model's name: the rest of the line
//! species ID ID ...           interns species in this order
//! labels ID ID ...            interns compartment labels in this order
//! term: TERM                  the initial term
//! rule RNAME @ RATE [LAW] [in ID] : PATTERN => PRODUCTION
//! observe ONAME = ID [in ID | at top]
//!
//! TERM       ::= { ATOM | (ID: ATOM* | TERM) }
//! PATTERN    ::= { ATOM | (ID: ATOM* | ATOM*) }
//! PRODUCTION ::= { ATOM | (ID: ATOM* | ATOM*) | [I: ATOM* | ATOM*] | !I }
//! ATOM       ::= ID | ID*COUNT
//! LAW        ::= hill-repress(ID, K, N) | hill-activate(ID, K, N)
//!              | saturating(ID, KM)
//! ```
//!
//! - A term's compartment is `(label: wrap | content)`, contents nest. In a
//!   pattern the content holds atoms only.
//! - In a production `[i: wrap-adds | content-adds]` keeps LHS compartment
//!   `i` (1-based), `!i` dissolves it and `(label: wrap | atoms)` creates a
//!   new one; matched compartments no production names are destroyed.
//! - A rule applies at the top level unless `in LABEL` names its site. The
//!   law (default mass action) reads its species' count at that site:
//!   `hill-repress` multiplies the mass-action propensity by
//!   `Kᴺ/(Kᴺ + cᴺ)`, `hill-activate` by `cᴺ/(Kᴺ + cᴺ)`, and `saturating`
//!   replaces it with `RATE · c/(KM + c)` (see [`RateLaw`]).
//! - An observable counts its species everywhere, in the contents of every
//!   compartment labelled `ID`, or at the top level only.
//! - RATE, K, N and KM are Rust `f64` literals; [`render_model`] writes
//!   them in Rust's shortest round-trip form, so they read back bit for
//!   bit. COUNT is a `u64`, and an atom list whose counts of one species
//!   sum past `u64::MAX` is an error.
//!
//! **Interning.** Names intern on first use, in reading order. The
//! `species` and `labels` lines exist to fix that order up front, so a
//! rendered model reads back with the same raw handles — and with them the
//! same slot order and the same trajectories.
//!
//! **Names.** `ID` is an identifier: ASCII letters, digits, `_` and `'`,
//! not starting with a digit (`top` names the top level, never a label).
//! RNAME is non-empty, without whitespace, `:` or `#`. ONAME has no `=`,
//! `#` or line break and no blanks at either end (it may be empty); NAME
//! follows the same rule and is non-empty. [`Model::validate`] refuses a
//! model holding any other name, so every valid model can be written.
//!
//! **Depth.** Compartments nest at most [`MAX_NESTING`] levels deep. A
//! deeper term is a parse error (and fails [`Model::validate`]), so no
//! file or job frame can exhaust the parser's stack.

use std::fmt::Write;
use std::iter::{from_fn, once, Peekable};

use crate::model::{Model, ModelError, Observable, ObservableSite};
use crate::multiset::Multiset;
use crate::rule::{CompPattern, CompProduction, Pattern, Production, RateLaw, Rule};
use crate::species::{Alphabet, Label, Species};
use crate::term::{Compartment, Term};

/// The deepest compartment nesting the format reads (every model in the
/// tree nests at most 3 deep).
pub const MAX_NESTING: usize = 64;

/// Error produced while parsing a model file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a model from its textual representation.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on any syntax or
/// validation problem.
pub fn parse_model(source: &str) -> Result<Model, ParseError> {
    let mut model = Model::new("unnamed");
    for (idx, raw_line) in source.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if !line.is_empty() {
            parse_line(line, &mut model).map_err(|message| ParseError {
                line: idx + 1,
                message,
            })?;
        }
    }
    Ok(model)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_line(line: &str, model: &mut Model) -> Result<(), String> {
    if let Some(rest) = line.strip_prefix("model ") {
        model.name = rest.trim().to_owned();
    } else if let Some(rest) = line.strip_prefix("species ") {
        for name in rest.split_whitespace() {
            model.species(identifier(name)?);
        }
    } else if let Some(rest) = line.strip_prefix("labels ") {
        for name in rest.split_whitespace() {
            model.label(identifier(name)?);
        }
    } else if let Some(rest) = line.strip_prefix("term:") {
        let tokens = tokenize(rest)?;
        let mut tokens = tokens.iter().peekable();
        let term = parse_term(&mut tokens, model, 0)?;
        if tokens.peek().is_some() {
            return Err("unexpected trailing input in term".to_owned());
        }
        model.initial = term;
    } else if let Some(rest) = line.strip_prefix("rule ") {
        parse_rule_line(rest, model)?;
    } else if let Some(rest) = line.strip_prefix("observe ") {
        parse_observe_line(rest, model)?;
    } else {
        return Err(format!("unrecognised directive: `{line}`"));
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Pipe,
    Bang,
    Ident(String),
    /// `NAME*COUNT` collapsed by the tokenizer.
    Counted(String, u64),
    Number(f64),
}

fn tokenize(input: &str) -> Result<Vec<Token>, String> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        tokens.push(match c {
            ' ' | '\t' => continue,
            '(' => Token::LParen,
            ')' => Token::RParen,
            '[' => Token::LBracket,
            ']' => Token::RBracket,
            ':' => Token::Colon,
            '|' => Token::Pipe,
            '!' => Token::Bang,
            c if c.is_ascii_digit() || c == '.' => {
                let mut num = String::from(c);
                while let Some(d) = chars.next_if(|&d| {
                    d.is_ascii_digit()
                        || matches!(d, '.' | 'e' | 'E')
                        || matches!(d, '-' | '+') && num.ends_with(['e', 'E'])
                }) {
                    num.push(d);
                }
                Token::Number(num.parse().map_err(|_| format!("invalid number `{num}`"))?)
            }
            c if is_ident_char(c) => {
                let name: String = once(c)
                    .chain(from_fn(|| chars.next_if(|&d| is_ident_char(d))))
                    .collect();
                if chars.next_if_eq(&'*').is_some() {
                    let count: String = from_fn(|| chars.next_if(char::is_ascii_digit)).collect();
                    let count = count
                        .parse()
                        .map_err(|_| format!("invalid count after `{name}*`"))?;
                    Token::Counted(name, count)
                } else {
                    Token::Ident(name)
                }
            }
            other => return Err(format!("unexpected character `{other}`")),
        });
    }
    Ok(tokens)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '\''
}

/// A species or label name the format can write.
fn is_identifier(name: &str) -> bool {
    name.starts_with(|c: char| !c.is_ascii_digit()) && name.chars().all(is_ident_char)
}

fn identifier(name: &str) -> Result<&str, String> {
    if is_identifier(name) {
        Ok(name)
    } else {
        Err(format!("`{name}` is not a species or label name"))
    }
}

/// Text a directive carries to the end of its line: no comment, no line
/// break, no blanks at either end.
fn is_line_text(name: &str) -> bool {
    !name.contains(['#', '\n']) && name.trim() == name
}

/// Refuses the names the format cannot write (see the module docs);
/// part of [`Model::validate`].
pub(crate) fn check_names(model: &Model) -> Result<(), ModelError> {
    fn all<'a>(
        kind: &'static str,
        names: impl IntoIterator<Item = &'a String>,
        writable: impl Fn(&str) -> bool,
    ) -> Result<(), ModelError> {
        match names.into_iter().find(|n| !writable(n)) {
            Some(name) => Err(ModelError::BadName {
                kind,
                name: name.clone(),
            }),
            None => Ok(()),
        }
    }
    let ab = &model.alphabet;
    all("model", [&model.name], |n| !n.is_empty() && is_line_text(n))?;
    all("species", ab.species_names(), is_identifier)?;
    all("label", ab.label_names(), is_identifier)?;
    all("rule", model.rules.iter().map(|r| &r.name), |n| {
        !n.is_empty() && !n.contains(|c: char| c.is_whitespace() || matches!(c, ':' | '#'))
    })?;
    all(
        "observable",
        model.observables.iter().map(|o| &o.name),
        |n| !n.contains('=') && is_line_text(n),
    )
}

type Tokens<'a> = Peekable<std::slice::Iter<'a, Token>>;

fn expect(tokens: &mut Tokens<'_>, token: &Token, what: &str) -> Result<(), String> {
    match tokens.next() {
        Some(t) if t == token => Ok(()),
        other => Err(format!("expected {what}, found {other:?}")),
    }
}

/// Adds atoms (Ident/Counted tokens) to `into` until a structural token.
fn parse_atoms(
    tokens: &mut Tokens<'_>,
    model: &mut Model,
    into: &mut Multiset,
) -> Result<(), String> {
    loop {
        let (name, n) = match tokens.peek() {
            Some(Token::Ident(name)) => (name, 1),
            Some(Token::Counted(name, n)) => (name, *n),
            _ => return Ok(()),
        };
        tokens.next();
        let s = model.species(name);
        if into.count(s).checked_add(n).is_none() {
            return Err(format!("the count of `{name}` overflows u64"));
        }
        into.insert(s, n);
    }
}

fn atoms(tokens: &mut Tokens<'_>, model: &mut Model) -> Result<Multiset, String> {
    let mut atoms = Multiset::new();
    parse_atoms(tokens, model, &mut atoms)?;
    Ok(atoms)
}

/// `head: wrap | content` then `close`, after the opening bracket.
fn parse_comp<H, C>(
    tokens: &mut Tokens<'_>,
    model: &mut Model,
    head: impl FnOnce(&mut Tokens<'_>, &mut Model) -> Result<H, String>,
    content: impl FnOnce(&mut Tokens<'_>, &mut Model) -> Result<C, String>,
    close: &Token,
) -> Result<(H, Multiset, C), String> {
    let head = head(tokens, model)?;
    expect(
        tokens,
        &Token::Colon,
        "`:` after the compartment's label or index",
    )?;
    let wrap = atoms(tokens, model)?;
    expect(tokens, &Token::Pipe, "`|` between wrap and content")?;
    let content = content(tokens, model)?;
    expect(tokens, close, "the compartment's closing bracket")?;
    Ok((head, wrap, content))
}

fn label(tokens: &mut Tokens<'_>, model: &mut Model) -> Result<Label, String> {
    match tokens.next() {
        Some(Token::Ident(name)) => Ok(model.label(name)),
        other => Err(format!("expected label, found {other:?}")),
    }
}

/// A 1-based compartment reference, converted to 0-based.
fn comp_index(tokens: &mut Tokens<'_>, _: &mut Model) -> Result<usize, String> {
    match tokens.next() {
        Some(Token::Number(n)) if *n >= 1.0 && n.fract() == 0.0 => Ok((*n as usize) - 1),
        other => Err(format!(
            "expected 1-based compartment index, found {other:?}"
        )),
    }
}

/// A term nested `depth` compartments deep: atoms and
/// `(label: wrap | content)`.
fn parse_term(tokens: &mut Tokens<'_>, model: &mut Model, depth: usize) -> Result<Term, String> {
    let mut term = Term::new();
    parse_atoms(tokens, model, &mut term.atoms)?;
    while tokens.next_if_eq(&&Token::LParen).is_some() {
        if depth == MAX_NESTING {
            return Err(format!(
                "compartments nest deeper than {MAX_NESTING} levels"
            ));
        }
        let (label, wrap, content) = parse_comp(
            tokens,
            model,
            label,
            |tokens, model| parse_term(tokens, model, depth + 1),
            &Token::RParen,
        )?;
        term.add_compartment(Compartment::new(label, wrap, content));
        parse_atoms(tokens, model, &mut term.atoms)?;
    }
    Ok(term)
}

/// The first whitespace-separated word of `s`, and the rest after it.
fn word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()))
}

/// `NAME @ RATE [LAW] [in LABEL] : LHS => RHS` (the `rule ` prefix is
/// stripped).
fn parse_rule_line(rest: &str, model: &mut Model) -> Result<(), String> {
    let (head, body) = rest
        .split_once(':')
        .ok_or("rule needs `:` separating header and body")?;
    let (name, head) = word(head);
    if name.is_empty() {
        return Err("rule needs a name".to_owned());
    }
    let (at, head) = word(head);
    if at != "@" {
        return Err(format!("expected `@` after rule name, found `{at}`"));
    }
    let (rate, mut head) = word(head);
    let rate: f64 = rate.parse().map_err(|_| format!("invalid rate `{rate}`"))?;
    let law = match head.split_once('(') {
        None => RateLaw::MassAction,
        Some((kind, tail)) => {
            let (args, tail) = tail.split_once(')').ok_or("rate law needs a closing `)`")?;
            head = tail;
            parse_law(kind.trim(), args, model)?
        }
    };
    let site = match word(head) {
        ("", _) => Label::TOP,
        ("in", tail) => {
            let (label, tail) = word(tail);
            if !tail.trim().is_empty() {
                return Err("trailing tokens in rule header".to_owned());
            }
            model.label(identifier(label)?)
        }
        (other, _) => return Err(format!("unexpected token `{other}` in rule header")),
    };
    let (lhs, rhs) = body.split_once("=>").ok_or("rule body needs `=>`")?;
    let rule = Rule {
        name: name.to_owned(),
        site,
        lhs: parse_pattern(lhs, model)?,
        rhs: parse_side(rhs, model)?,
        rate,
        law,
    };
    model.push_rule(rule).map_err(|e| e.to_string())
}

/// `KIND(ID, params...)` after a rule's rate.
fn parse_law(kind: &str, args: &str, model: &mut Model) -> Result<RateLaw, String> {
    let args: Vec<&str> = args.split(',').map(str::trim).collect();
    let num = |s: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("invalid law parameter `{s}`"))
    };
    Ok(match (kind, &args[..]) {
        ("hill-repress", [s, k, n]) => RateLaw::HillRepression {
            inhibitor: model.species(identifier(s)?),
            k: num(k)?,
            n: num(n)?,
        },
        ("hill-activate", [s, k, n]) => RateLaw::HillActivation {
            activator: model.species(identifier(s)?),
            k: num(k)?,
            n: num(n)?,
        },
        ("saturating", [s, km]) => RateLaw::Saturating {
            substrate: model.species(identifier(s)?),
            km: num(km)?,
        },
        _ => {
            return Err(format!(
                "unknown rate law `{kind}` with {} arguments",
                args.len()
            ))
        }
    })
}

/// One side of a rule: atoms, `(label: wrap | atoms)` and, on the
/// right, `[i: wrap | atoms]` and `!i`.
fn parse_side(src: &str, model: &mut Model) -> Result<Production, String> {
    let tokens = tokenize(src)?;
    let mut tokens = tokens.iter().peekable();
    let mut side = Production::default();
    parse_atoms(&mut tokens, model, &mut side.atoms)?;
    while let Some(token) = tokens.next() {
        side.comps.push(match token {
            Token::LParen => {
                let (label, wrap, atoms) =
                    parse_comp(&mut tokens, model, label, atoms, &Token::RParen)?;
                CompProduction::New { label, wrap, atoms }
            }
            Token::LBracket => {
                let (index, add_wrap, add_atoms) =
                    parse_comp(&mut tokens, model, comp_index, atoms, &Token::RBracket)?;
                CompProduction::Keep {
                    index,
                    add_wrap,
                    add_atoms,
                }
            }
            Token::Bang => CompProduction::Dissolve {
                index: comp_index(&mut tokens, model)?,
            },
            other => return Err(format!("unexpected token {other:?}")),
        });
        parse_atoms(&mut tokens, model, &mut side.atoms)?;
    }
    Ok(side)
}

/// A rule's left side: a [`parse_side`] whose compartments are all
/// `(label: wrap | atoms)`.
fn parse_pattern(src: &str, model: &mut Model) -> Result<Pattern, String> {
    let side = parse_side(src, model)?;
    let comps = side.comps.into_iter().map(|comp| match comp {
        CompProduction::New { label, wrap, atoms } => Ok(CompPattern { label, wrap, atoms }),
        _ => Err("a pattern matches compartments as `(label: wrap | atoms)` only".to_owned()),
    });
    Ok(Pattern {
        atoms: side.atoms,
        comps: comps.collect::<Result<_, _>>()?,
    })
}

/// `NAME = SPECIES [in LABEL | at top]` (the `observe ` prefix is stripped).
fn parse_observe_line(rest: &str, model: &mut Model) -> Result<(), String> {
    let (name, spec) = rest.split_once('=').ok_or("observe needs `=`")?;
    let words: Vec<&str> = spec.split_whitespace().collect();
    let (species, site) = match words[..] {
        [species] => (species, ObservableSite::Everywhere),
        [species, "at", "top"] => (species, ObservableSite::TopOnly),
        [species, "in", label] => (
            species,
            ObservableSite::AtLabel(model.label(identifier(label)?)),
        ),
        _ => return Err(format!("bad observable `{}`", spec.trim())),
    };
    let species = model.species(identifier(species)?);
    model.observables.push(Observable {
        name: name.trim().to_owned(),
        species,
        site,
    });
    Ok(())
}

/// Prints `model` in the text format.
///
/// Total: it never fails. Every model that passes [`Model::validate`]
/// reads back through [`parse_model`] field for field — name, the species
/// and label names in interning order, rules (rates and law parameters
/// bit for bit), initial term and observables. A handle the alphabet does
/// not hold prints as `?`, which no parse accepts.
pub fn render_model(model: &Model) -> String {
    let ab = &model.alphabet;
    let mut out = format!("model {}\n", model.name);
    for (directive, names) in [
        ("species", ab.species_names()),
        ("labels", ab.label_names()),
    ] {
        if !names.is_empty() {
            out.push_str(directive);
            for name in names {
                out.push(' ');
                out.push_str(name);
            }
            out.push('\n');
        }
    }
    out.push_str("term:");
    write_term(&mut out, ab, &model.initial);
    out.push('\n');
    // `fmt::Write` for `String` never fails.
    for rule in &model.rules {
        let law = match rule.law {
            RateLaw::MassAction => String::new(),
            RateLaw::HillRepression { inhibitor, k, n } => {
                format!(
                    " hill-repress({}, {k:?}, {n:?})",
                    species_name(ab, inhibitor)
                )
            }
            RateLaw::HillActivation { activator, k, n } => {
                format!(
                    " hill-activate({}, {k:?}, {n:?})",
                    species_name(ab, activator)
                )
            }
            RateLaw::Saturating { substrate, km } => {
                format!(" saturating({}, {km:?})", species_name(ab, substrate))
            }
        };
        let _ = write!(out, "rule {} @ {:?}{law}", rule.name, rule.rate);
        if !rule.site.is_top() {
            let _ = write!(out, " in {}", label_name(ab, rule.site));
        }
        out.push_str(" :");
        write_atoms(&mut out, ab, &rule.lhs.atoms);
        for c in &rule.lhs.comps {
            let head = label_name(ab, c.label);
            write_comp(&mut out, ab, ['(', ')'], head, &c.wrap, |out| {
                write_atoms(out, ab, &c.atoms)
            });
        }
        out.push_str(" =>");
        write_atoms(&mut out, ab, &rule.rhs.atoms);
        for c in &rule.rhs.comps {
            let (brackets, head, wrap, atoms) = match c {
                CompProduction::Keep {
                    index,
                    add_wrap,
                    add_atoms,
                } => (
                    ['[', ']'],
                    (*index as u128 + 1).to_string(),
                    add_wrap,
                    add_atoms,
                ),
                CompProduction::New { label, wrap, atoms } => {
                    (['(', ')'], label_name(ab, *label).to_owned(), wrap, atoms)
                }
                CompProduction::Dissolve { index } => {
                    let _ = write!(out, " !{}", *index as u128 + 1);
                    continue;
                }
            };
            write_comp(&mut out, ab, brackets, &head, wrap, |out| {
                write_atoms(out, ab, atoms)
            });
        }
        out.push('\n');
    }
    for obs in &model.observables {
        let site = match obs.site {
            ObservableSite::Everywhere => String::new(),
            ObservableSite::TopOnly => " at top".to_owned(),
            ObservableSite::AtLabel(label) => format!(" in {}", label_name(ab, label)),
        };
        let species = species_name(ab, obs.species);
        let _ = writeln!(out, "observe {} = {species}{site}", obs.name);
    }
    out
}

fn species_name(ab: &Alphabet, s: Species) -> &str {
    ab.species_names()
        .get(s.raw() as usize)
        .map_or("?", String::as_str)
}

fn label_name(ab: &Alphabet, l: Label) -> &str {
    if l.is_top() {
        "top"
    } else {
        ab.label_names()
            .get(l.raw() as usize)
            .map_or("?", String::as_str)
    }
}

/// ` NAME` or ` NAME*COUNT` per species.
fn write_atoms(out: &mut String, ab: &Alphabet, atoms: &Multiset) {
    for (s, n) in atoms.iter() {
        out.push(' ');
        out.push_str(species_name(ab, s));
        if n != 1 {
            let _ = write!(out, "*{n}");
        }
    }
}

/// ` (head: wrap | content)`, in the given brackets.
fn write_comp(
    out: &mut String,
    ab: &Alphabet,
    [open, close]: [char; 2],
    head: &str,
    wrap: &Multiset,
    content: impl FnOnce(&mut String),
) {
    let _ = write!(out, " {open}{head}:");
    write_atoms(out, ab, wrap);
    out.push_str(" |");
    content(out);
    out.push(close);
}

/// Every atom and compartment of `term`, each after one space.
pub(crate) fn write_term(out: &mut String, ab: &Alphabet, term: &Term) {
    write_atoms(out, ab, &term.atoms);
    for c in &term.comps {
        let head = label_name(ab, c.label);
        write_comp(out, ab, ['(', ')'], head, &c.wrap, |out| {
            write_term(out, ab, &c.content)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r"
model birth-death
species A R
term: A*100 (cell: R | A*3)
rule birth @ 0.5 : A => A A
rule death @ 0.1 : A =>
rule uptake @ 1.0 : A (cell: R |) => [1: | A]
rule lysis @ 0.01 : (cell: | A) => !1
rule divide @ 0.02 in cell : A A => A (cell: | A)
observe total_A = A
observe cell_A = A in cell
observe free_A = A at top
";

    #[test]
    fn full_example_parses() {
        let m = parse_model(EXAMPLE).unwrap();
        assert_eq!(m.name, "birth-death");
        assert_eq!(m.rules.len(), 5);
        assert_eq!(m.observables.len(), 3);
        m.validate().unwrap();

        let a = m.alphabet.find_species("A").unwrap();
        assert_eq!(m.initial.atoms.count(a), 100);
        assert_eq!(m.initial.comps.len(), 1);
        assert_eq!(m.initial.comps[0].content.atoms.count(a), 3);
    }

    #[test]
    fn nested_term_parses() {
        let m = parse_model("term: (cell: M | A (nucleus: | B*2))").unwrap();
        assert_eq!(m.initial.total_compartments(), 2);
        assert_eq!(m.initial.depth(), 2);
        let b = m.alphabet.find_species("B").unwrap();
        assert_eq!(m.initial.total_count(b), 2);
    }

    #[test]
    fn rule_site_defaults_to_top() {
        let m = parse_model("rule r @ 1.0 : A => B").unwrap();
        assert!(m.rules[0].site.is_top());
        assert_eq!(m.rules[0].rate, 1.0);
    }

    #[test]
    fn rule_in_label_sets_site() {
        let m = parse_model("rule r @ 2.5 in cell : A => B").unwrap();
        let cell = m.alphabet.find_label("cell").unwrap();
        assert_eq!(m.rules[0].site, cell);
    }

    #[test]
    fn keep_production_round_trips_index() {
        let m = parse_model("rule r @ 1.0 : (cell: |) => [1: X | Y]").unwrap();
        match &m.rules[0].rhs.comps[0] {
            CompProduction::Keep {
                index,
                add_wrap,
                add_atoms,
            } => {
                assert_eq!(*index, 0);
                assert_eq!(add_wrap.len(), 1);
                assert_eq!(add_atoms.len(), 1);
            }
            other => panic!("expected Keep, got {other:?}"),
        }
    }

    #[test]
    fn dissolve_production_parses() {
        let m = parse_model("rule r @ 1.0 : (cell: |) => !1").unwrap();
        assert_eq!(
            m.rules[0].rhs.comps[0],
            CompProduction::Dissolve { index: 0 }
        );
    }

    #[test]
    fn empty_rhs_is_degradation() {
        let m = parse_model("rule del @ 0.1 : A =>").unwrap();
        assert!(m.rules[0].rhs.atoms.is_empty());
        assert!(m.rules[0].rhs.comps.is_empty());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let m = parse_model("# a comment\n\nrule r @ 1.0 : A => B # trailing\n").unwrap();
        assert_eq!(m.rules.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_model("rule r @ 1.0 : A => B\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unrecognised"));
    }

    #[test]
    fn bad_rate_is_rejected() {
        let err = parse_model("rule r @ fast : A => B").unwrap_err();
        assert!(err.message.contains("invalid rate") || err.message.contains("expected"));
    }

    #[test]
    fn bad_keep_index_is_rejected() {
        let err = parse_model("rule r @ 1.0 : A => [1: |]").unwrap_err();
        assert!(err.message.contains("compartment"), "{}", err.message);
    }

    #[test]
    fn scientific_notation_rates_parse() {
        let m = parse_model("rule r @ 1.5e-3 : A => B").unwrap();
        assert!((m.rules[0].rate - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn laws_parse_after_the_rate() {
        let m = parse_model(
            "rule a @ 2 hill-repress(R, 5.5, 4) : => M\n\
             rule b @ 1 hill-activate(R,1e2,2.5) in cell : => M\n\
             rule c @ 0.5 saturating( M , 3 ) : M =>",
        )
        .unwrap();
        let r = m.alphabet.find_species("R").unwrap();
        let mrna = m.alphabet.find_species("M").unwrap();
        assert_eq!(
            m.rules[0].law,
            RateLaw::HillRepression {
                inhibitor: r,
                k: 5.5,
                n: 4.0
            }
        );
        assert_eq!(
            m.rules[1].law,
            RateLaw::HillActivation {
                activator: r,
                k: 100.0,
                n: 2.5
            }
        );
        assert_eq!(m.rules[1].site, m.alphabet.find_label("cell").unwrap());
        assert_eq!(
            m.rules[2].law,
            RateLaw::Saturating {
                substrate: mrna,
                km: 3.0
            }
        );
        for bad in [
            "rule r @ 1 hill(R, 1, 1) : =>",
            "rule r @ 1 saturating(R) : =>",
            "rule r @ 1 saturating(R, x) : =>",
            "rule r @ 1 saturating(R, 1 : =>",
            "rule r @ 1 saturating(R, -1) : =>",
            "rule r @ 1 in cell saturating(R, 1) : =>",
        ] {
            assert!(parse_model(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn species_and_labels_lines_fix_interning_order() {
        let m = parse_model("species B A\nlabels outer inner\nterm: A (inner: | B)").unwrap();
        assert_eq!(m.alphabet.species_names(), ["B", "A"]);
        assert_eq!(m.alphabet.label_names(), ["outer", "inner"]);
        for bad in ["species 1A", "labels a(b", "species A*2"] {
            assert!(parse_model(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rendering_reads_back_field_for_field() {
        let src = "model  every feature: A->B  \n\
            species Z A R\n\
            labels cell nucleus\n\
            term: A*18446744073709551615 (cell: R | A*3 (nucleus: | Z)) (cell: |)\n\
            rule a->b @ 0.30000000000000004 hill-repress(A, 1e-300, 4) : A (cell: R | A) => [1: Z | A*2]\n\
            rule lysis @ -0 saturating(A, 2.5) in cell : (cell: | A) (nucleus: |) => !2 (cell: R | A)\n\
            rule up @ 1e300 hill-activate(Z, 7, 0.5) in top : =>\n\
            observe count Z = Z\n\
            observe = A at top\n\
            observe in_cell = A in cell\n";
        let m = parse_model(src).unwrap();
        m.validate().unwrap();
        let text = render_model(&m);
        let back = parse_model(&text).unwrap();
        assert_eq!(back.name, "every feature: A->B");
        assert_eq!(back.name, m.name);
        assert_eq!(back.alphabet.species_names(), m.alphabet.species_names());
        assert_eq!(back.alphabet.label_names(), m.alphabet.label_names());
        assert_eq!(back.initial, m.initial);
        assert_eq!(back.observables, m.observables);
        // `Debug` prints every f64 in its shortest round-trip form, so
        // equal strings are equal bits (`-0.0` included).
        assert_eq!(format!("{:?}", back.rules), format!("{:?}", m.rules));
        assert_eq!(m.rules[1].rate.to_bits(), (-0.0f64).to_bits());
        assert_eq!(render_model(&back), text);
    }

    #[test]
    fn an_atom_count_past_u64_max_is_an_error() {
        for src in [
            "species A\nterm: A*18446744073709551615 A",
            "term: A*18446744073709551615 (c: |) A",
            "term: (c: A*18446744073709551615 A |)",
            "rule r @ 1 : A*9223372036854775808 A*9223372036854775808 =>",
            "rule r @ 1 : (c: | A A*18446744073709551615) =>",
            "rule r @ 1 : => A*18446744073709551615 A",
            "rule r @ 1 : (c: |) => [1: A A*18446744073709551615 |]",
        ] {
            let err = parse_model(src).unwrap_err();
            assert!(err.message.contains("overflows"), "{src}: {err}");
        }
        // One short of overflowing is fine.
        let m = parse_model("term: A*18446744073709551614 A").unwrap();
        assert_eq!(m.initial.atoms.len(), u64::MAX);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let nested = |depth: usize| format!("term: {}{}", "(c: |".repeat(depth), ")".repeat(depth));
        assert_eq!(
            parse_model(&nested(MAX_NESTING)).unwrap().initial.depth(),
            MAX_NESTING
        );
        // Far past the cap too: the parser stops at the cap, so a depth
        // that would overflow a thread's stack is just an error.
        for depth in [MAX_NESTING + 1, 100_000] {
            let err = parse_model(&nested(depth)).unwrap_err();
            assert!(err.message.contains("nest deeper"), "{err}");
        }
    }

    #[test]
    fn counted_atoms_in_rules() {
        let m = parse_model("rule dimer @ 1.0 : A*2 => D").unwrap();
        let a = m.alphabet.find_species("A").unwrap();
        assert_eq!(m.rules[0].lhs.atoms.count(a), 2);
    }
}
