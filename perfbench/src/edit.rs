//! Seeded, type-preserving edits to a synthesized project, as an editor
//! session would make them.
//!
//! Two kinds of edit, both on generated `sfN` functions with multi-line
//! bodies:
//! * a body edit sets an unused `let bench_edit = K;` first statement
//!   (inserting it once, then changing `K`), which changes that one
//!   function's fingerprint;
//! * a rename edit renames the function's first parameter throughout its
//!   definition, which changes its signature and therefore the
//!   fingerprint of every caller too.

use crate::stats::Rng;

const EDIT_PREFIX: &str = "  let bench_edit = ";

/// A project source kept as lines, with the editable functions indexed.
#[derive(Clone, Debug)]
pub struct Project {
    lines: Vec<String>,
    editable: Vec<String>,
    edits: u64,
}

/// Which kind of edit [`Project::edit`] applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// A body-only edit of one function.
    Body,
    /// A signature edit (parameter rename) seen by the callers.
    Rename,
}

impl Project {
    /// Indexes `text`; every `def sfN(...) ... {` line that opens a
    /// multi-line body is editable.
    pub fn new(text: &str) -> Project {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let editable = lines
            .iter()
            .filter(|l| l.starts_with("def sf") && l.ends_with('{'))
            .filter_map(|l| Some(l["def ".len()..l.find('(')?].to_string()))
            .collect();
        Project {
            lines,
            editable,
            edits: 0,
        }
    }

    /// The current source text.
    pub fn text(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }

    /// Number of `def`s in the project.
    pub fn functions(&self) -> usize {
        self.lines.iter().filter(|l| l.starts_with("def ")).count()
    }

    /// Applies one seeded edit: a rename with probability
    /// `rename_percent`%, otherwise a body edit.
    pub fn edit(&mut self, rng: &mut Rng, rename_percent: u64) -> EditKind {
        assert!(
            !self.editable.is_empty(),
            "project has no editable function"
        );
        self.edits += 1;
        let name = &self.editable[rng.range(0, self.editable.len() as u64 - 1) as usize];
        let header = format!("def {name}(");
        let start = self
            .lines
            .iter()
            .position(|l| l.starts_with(&header))
            .expect("editable functions stay in the project");
        if rng.chance(rename_percent) {
            self.rename_first_param(start);
            EditKind::Rename
        } else {
            let line = format!("{EDIT_PREFIX}{};", self.edits);
            if self.lines[start + 1].starts_with(EDIT_PREFIX) {
                self.lines[start + 1] = line;
            } else {
                self.lines.insert(start + 1, line);
            }
            EditKind::Body
        }
    }

    /// Renames the first parameter of the function starting at line
    /// `start`, in every line up to its closing `}`.
    fn rename_first_param(&mut self, start: usize) {
        let def = &self.lines[start];
        let open = def.find('(').expect("def line has a parameter list");
        let param = def[open + 1..]
            .split([':', ')'])
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        if param.is_empty() {
            return;
        }
        let base = param.split("_r").next().unwrap_or(&param);
        let renamed = format!("{base}_r{}", self.edits);
        let end = (start..self.lines.len())
            .find(|&i| self.lines[i] == "}")
            .unwrap_or(self.lines.len() - 1);
        for line in &mut self.lines[start..=end] {
            *line = replace_ident(line, &param, &renamed);
        }
    }
}

/// Replaces whole-identifier occurrences of `from` in `line` with `to`
/// (not field accesses such as `x.from`).
fn replace_ident(line: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(line.len() + 8);
    let mut rest = line;
    let mut prev: Option<char> = None;
    while let Some(at) = rest.find(from) {
        let before = rest[..at].chars().next_back().or(prev);
        let after = rest[at + from.len()..].chars().next();
        let boundary =
            !before.is_some_and(|c| is_ident(c) || c == '.') && !after.is_some_and(is_ident);
        out.push_str(&rest[..at]);
        out.push_str(if boundary { to } else { from });
        prev = from.chars().next_back();
        rest = &rest[at + from.len()..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_are_replaced_whole() {
        assert_eq!(
            replace_ident("let acc = k % 6; kk(k, x.k)", "k", "k_r1"),
            "let acc = k_r1 % 6; kk(k_r1, x.k)"
        );
    }

    #[test]
    fn edits_keep_the_program_well_typed() {
        let text = fearless_synth::synthesize(&fearless_synth::SynthOptions {
            seed: 5,
            functions: 60,
            ..Default::default()
        });
        let mut project = Project::new(&text);
        let mut rng = Rng::new(5, 0);
        let mut kinds = Vec::new();
        for _ in 0..40 {
            kinds.push(project.edit(&mut rng, 30));
        }
        assert!(kinds.contains(&EditKind::Body) && kinds.contains(&EditKind::Rename));
        let edited = project.text();
        assert_ne!(edited, text);
        fearless_core::check_source(&edited, &fearless_core::CheckerOptions::default())
            .unwrap_or_else(|e| panic!("edited project no longer checks: {e}"));
    }
}
