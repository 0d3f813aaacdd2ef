//! FA002 `over-strong-annotation`: annotations the program checks without.
//!
//! Each candidate annotation — a `pinned` parameter, a `before` region
//! relation, a `consumes` clause, or an `iso` field declaration — is
//! removed (or weakened) in a clone of the program, and the *whole* program
//! is re-checked under the original options. Re-checking everything, not
//! just the annotated function, means callers are validated too: a reported
//! annotation can really be deleted. `after` relations are skipped — they
//! are promises to callers outside this program, so weakening them is not
//! locally justifiable.
//!
//! A probe needs only a yes/no verdict, and the checker is
//! signature-modular (§4.4): a function's verdict depends only on what
//! its [`Fingerprint`] covers. So probes run through a fingerprint →
//! verdict memo seeded with `true` for every function of the original
//! program, and each probe only re-derives the functions its deletion
//! actually invalidates (the mutated function plus, for signature/field
//! edits, its transitive dependents); every untouched function is a hit.
//! The verdicts are identical to full re-checks — memo correctness rests
//! on fingerprint soundness.

use std::collections::HashMap;

use fearless_core::{check, fn_fingerprint, CheckedProgram, CheckerOptions, Fingerprint, Globals};
use fearless_syntax::{Program, Severity, Span};

use crate::{AnalysisReport, Lint, LintCode};

/// Per-function check verdicts keyed by fingerprint, with lookup counts.
#[derive(Default)]
struct VerdictMemo {
    verdicts: HashMap<Fingerprint, bool>,
    hits: u64,
    misses: u64,
}

impl VerdictMemo {
    /// A memo that already knows every function of `checked` checks.
    fn seeded(checked: &CheckedProgram) -> VerdictMemo {
        let mut memo = VerdictMemo::default();
        // A Globals failure would mean the CheckedProgram is corrupt; the
        // memo then starts empty (probes still work, just cold).
        if let Ok(globals) = Globals::build(&checked.program, checked.options.mode) {
            for f in &checked.program.funcs {
                let fp = fn_fingerprint(&globals, &checked.options, f);
                memo.verdicts.insert(fp, true);
            }
        }
        memo
    }

    /// Whether `program` checks, with the same verdict as
    /// [`fearless_core::check_program`]: functions are queried in
    /// definition order and the first failure ends the query.
    fn checks(&mut self, program: &Program, options: &CheckerOptions) -> bool {
        let Ok(globals) = Globals::build(program, options.mode) else {
            return false;
        };
        program.funcs.iter().all(|f| {
            let fp = fn_fingerprint(&globals, options, f);
            if let Some(&ok) = self.verdicts.get(&fp) {
                self.hits += 1;
                return ok;
            }
            self.misses += 1;
            let ok = check::check_fn(&globals, options, f).is_ok();
            self.verdicts.insert(fp, ok);
            ok
        })
    }
}

pub(crate) fn run(checked: &CheckedProgram, report: &mut AnalysisReport) {
    let options = checked.options;
    let mut memo = VerdictMemo::seeded(checked);
    let still_checks = |report: &mut AnalysisReport, memo: &mut VerdictMemo, p: &Program| {
        report.stats.recheck_experiments += 1;
        memo.checks(p, &options)
    };

    for (fi, f) in checked.program.funcs.iter().enumerate() {
        let param_span = |name: &fearless_syntax::Symbol| -> Span {
            f.params
                .iter()
                .find(|p| p.name == *name)
                .map_or(f.span, |p| p.span)
        };

        for (i, name) in f.annotations.pinned.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.pinned.remove(i);
            if still_checks(report, &mut memo, &p) {
                report.lints.push(lint(
                    f.name.as_str(),
                    param_span(name),
                    format!("`pinned {name}` is unnecessary: the program checks without it"),
                ));
            }
        }

        for (i, rel) in f.annotations.before.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.before.remove(i);
            if still_checks(report, &mut memo, &p) {
                report.lints.push(lint(
                    f.name.as_str(),
                    rel.span,
                    "this `before` relation is unnecessary: the program checks without it"
                        .to_string(),
                ));
            }
        }

        for (i, name) in f.annotations.consumes.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.consumes.remove(i);
            if still_checks(report, &mut memo, &p) {
                report.lints.push(lint(
                    f.name.as_str(),
                    param_span(name),
                    format!(
                        "`consumes {name}` is over-strong: the program checks \
                         without consuming it"
                    ),
                ));
            }
        }
    }

    for (si, s) in checked.program.structs.iter().enumerate() {
        for (fi, field) in s.fields.iter().enumerate() {
            if !field.iso {
                continue;
            }
            let mut p = checked.program.clone();
            p.structs[si].fields[fi].iso = false;
            if still_checks(report, &mut memo, &p) {
                report.lints.push(Lint {
                    code: LintCode::OverStrongAnnotation,
                    severity: Severity::Warning,
                    func: None,
                    span: field.span,
                    message: format!(
                        "field `{}.{}` is declared `iso` but the program checks \
                         with a plain field",
                        s.name, field.name
                    ),
                });
            }
        }
    }

    report.stats.recheck_cache_hits = memo.hits;
    report.stats.recheck_cache_misses = memo.misses;
}

fn lint(func: &str, span: Span, message: String) -> Lint {
    Lint {
        code: LintCode::OverStrongAnnotation,
        severity: Severity::Warning,
        func: Some(func.to_string()),
        span,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_program, check_source};
    use fearless_syntax::parse_program;

    const SRC: &str = "
        struct data { value: int }
        def make(v: int) : data { new data(v) }
        def get(d: data) : int { d.value }
        def both(v: int) : int { get(make(v)) }
    ";

    #[test]
    fn warm_rerun_is_all_hits_and_identical() {
        let program = parse_program(SRC).unwrap();
        let opts = CheckerOptions::default();
        let mut memo = VerdictMemo::default();
        assert!(memo.checks(&program, &opts));
        assert_eq!((memo.hits, memo.misses), (0, 3));
        assert!(memo.checks(&program, &opts));
        assert_eq!((memo.hits, memo.misses), (3, 3));
        assert!(check_program(&program, &opts).is_ok());
    }

    #[test]
    fn seeded_cache_rechecks_only_the_mutated_function() {
        let checked = check_source(SRC, &CheckerOptions::default()).unwrap();
        let mut memo = VerdictMemo::seeded(&checked);
        assert_eq!(memo.verdicts.len(), 3);

        // Renaming `get`'s parameter changes `get` and, because parameter
        // names appear in elaborated signatures (consumes/pinned refer to
        // them), its caller `both`. `make` keeps its fingerprint.
        let src2 = SRC.replace(
            "get(d: data) : int { d.value }",
            "get(x: data) : int { x.value }",
        );
        let mutated = parse_program(&src2).unwrap();
        assert!(memo.checks(&mutated, &CheckerOptions::default()));
        assert_eq!((memo.hits, memo.misses), (1, 2));
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        // `bad` fails, so the query stops there and never reaches `last`.
        let program = parse_program(
            "def first(x: int) : int { x }
             def bad(x: int) : bool { x }
             def last(x: int) : int { x + 1 }",
        )
        .unwrap();
        let opts = CheckerOptions::default();
        let mut memo = VerdictMemo::default();
        assert!(!memo.checks(&program, &opts));
        assert_eq!((memo.hits, memo.misses), (0, 2));
        assert!(!memo.checks(&program, &opts));
        assert_eq!((memo.hits, memo.misses), (2, 2));
        assert!(check_program(&program, &opts).is_err());
    }

    fn analyze(src: &str) -> AnalysisReport {
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &mut report);
        report
    }

    #[test]
    fn unnecessary_pinned_is_reported() {
        let report = analyze(
            "struct data { value: int }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.lints.len(), 1);
        assert!(
            report.lints[0].message.contains("pinned d"),
            "{:?}",
            report.lints
        );
        assert!(report.stats.recheck_experiments >= 1);
    }

    #[test]
    fn probes_hit_the_seeded_cache() {
        // Three functions, one probed annotation: each probe re-checks the
        // mutated function (and nothing else), so the untouched functions
        // are all answered from the seed.
        let report = analyze(
            "struct data { value: int }
             def make(v: int) : data { new data(v) }
             def get(d: data) : int { d.value }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.stats.recheck_experiments, 1);
        // The probe deletes `pinned d` from `peek`: `make` and `get` keep
        // their fingerprints (hits); only `peek` re-derives.
        assert_eq!(report.stats.recheck_cache_hits, 2);
        assert_eq!(report.stats.recheck_cache_misses, 1);
    }

    #[test]
    fn load_bearing_consumes_is_kept() {
        // `send` requires the sent region to be consumed from the caller,
        // so `consumes d` cannot be dropped.
        let report = analyze(
            "struct data { value: int }
             def ship(d: data) : unit consumes d { send(d); unit }",
        );
        assert!(
            !report
                .lints
                .iter()
                .any(|l| l.message.contains("consumes d")),
            "{:?}",
            report.lints
        );
    }

    #[test]
    fn unused_iso_field_is_reported() {
        // The iso-ness of `payload` is never exploited: no take, no
        // explore, no send of the payload alone.
        let report = analyze(
            "struct data { value: int }
             struct holder { iso payload : data }
             def peek(h: holder) : int { h.payload.value }",
        );
        assert!(
            report
                .lints
                .iter()
                .any(|l| l.func.is_none() && l.message.contains("holder.payload")),
            "{:?}",
            report.lints
        );
    }
}
