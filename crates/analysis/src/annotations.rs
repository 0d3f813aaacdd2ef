//! FA002 `over-strong-annotation`: annotations the program checks without.
//!
//! Each candidate annotation — a `pinned` parameter, a `before` region
//! relation, a `consumes` clause, or an `iso` field declaration — is
//! removed (or weakened) and the *whole* program is re-checked under the
//! original options. Re-checking everything, not just the annotated
//! function, means callers are validated too: a reported annotation can
//! really be deleted. `after` relations are skipped — they are promises
//! to callers outside this program, so weakening them is not locally
//! justifiable.
//!
//! A probe needs only a yes/no verdict, and the checker is
//! signature-modular (§4.4): a function's verdict depends only on what
//! its [`Fingerprint`] covers. So probes run through a fingerprint →
//! verdict memo seeded with `true` for every function of the original
//! program, and each probe re-fingerprints only its *dependency cone*:
//! the functions whose [`FnDeps`](fearless_core::FnDeps) name what the
//! probe changes. Deleting an annotation of `f` changes `f`'s definition
//! and signature, so the cone is `f` plus its direct callers (a
//! fingerprint covers direct callee signatures only); flipping `iso` on
//! struct `S` changes one declaration, so the cone is every function that
//! reaches `S`. Every function outside the cone keeps its seeded
//! fingerprint and counts as a memo hit without being hashed. The program
//! is cloned once; each probe edits that copy in place and restores it
//! afterwards.
//!
//! Queries still run in definition order and stop at the first failure,
//! so the verdicts and the hit/miss counts are identical to a full
//! re-check of every function — memo correctness rests on fingerprint
//! soundness, cone correctness on [`fn_deps`] being the set
//! [`fn_fingerprint`] hashes.

use std::collections::HashMap;

use fearless_core::{
    check, fn_deps, fn_fingerprint, CheckedProgram, CheckerOptions, Fingerprint, Globals,
};
use fearless_syntax::{FnDef, Program, Severity, Span, Symbol};

use crate::{AnalysisReport, Lint, LintCode};

/// Per-function check verdicts keyed by fingerprint, with lookup counts.
#[derive(Default)]
struct VerdictMemo {
    verdicts: HashMap<Fingerprint, bool>,
    hits: u64,
    misses: u64,
}

impl VerdictMemo {
    /// A memo that already knows every function of `program` checks.
    fn seeded(globals: &Globals, options: &CheckerOptions, program: &Program) -> VerdictMemo {
        let mut memo = VerdictMemo::default();
        for f in &program.funcs {
            memo.verdicts
                .insert(fn_fingerprint(globals, options, f), true);
        }
        memo
    }

    /// Whether `program` checks, with the same verdict as
    /// [`fearless_core::check_program`]: functions are queried in
    /// definition order and the first failure ends the query.
    ///
    /// Only the functions in `cone` (ascending indices) are hashed. Every
    /// other function must still have the fingerprint the memo was
    /// seeded with, so it is counted as a hit that checks — exactly what
    /// hashing it would have found.
    fn checks(&mut self, program: &Program, options: &CheckerOptions, cone: &[usize]) -> bool {
        let Ok(globals) = Globals::build(program, options.mode) else {
            return false;
        };
        let mut answered = 0;
        for &i in cone {
            self.hits += (i - answered) as u64;
            answered = i + 1;
            if !self.verdict(&globals, options, &program.funcs[i]) {
                return false;
            }
        }
        self.hits += (program.funcs.len() - answered) as u64;
        true
    }

    /// One function's verdict, from the memo or by checking it.
    fn verdict(&mut self, globals: &Globals, options: &CheckerOptions, f: &FnDef) -> bool {
        let fp = fn_fingerprint(globals, options, f);
        if let Some(&ok) = self.verdicts.get(&fp) {
            self.hits += 1;
            return ok;
        }
        self.misses += 1;
        let ok = check::check_fn(globals, options, f).is_ok();
        self.verdicts.insert(fp, ok);
        ok
    }
}

/// One candidate deletion, as indices into the program.
#[derive(Clone, Copy, Debug)]
enum Probe {
    /// Function, entry of its `pinned` list.
    Pinned(usize, usize),
    /// Function, entry of its `before` list.
    Before(usize, usize),
    /// Function, entry of its `consumes` list.
    Consumes(usize, usize),
    /// Struct, field declared `iso`.
    Iso(usize, usize),
}

impl Probe {
    /// Every probe of `program`: per function in definition order its
    /// `pinned`, `before` and `consumes` entries, then every `iso` field.
    fn all(program: &Program) -> Vec<Probe> {
        let mut probes = Vec::new();
        for (fi, f) in program.funcs.iter().enumerate() {
            let a = &f.annotations;
            probes.extend((0..a.pinned.len()).map(|i| Probe::Pinned(fi, i)));
            probes.extend((0..a.before.len()).map(|i| Probe::Before(fi, i)));
            probes.extend((0..a.consumes.len()).map(|i| Probe::Consumes(fi, i)));
        }
        for (si, s) in program.structs.iter().enumerate() {
            let iso = s.fields.iter().enumerate().filter(|(_, field)| field.iso);
            probes.extend(iso.map(|(fi, _)| Probe::Iso(si, fi)));
        }
        probes
    }

    /// Runs `query` on `program` with this deletion applied, then undoes
    /// the deletion.
    fn with_applied<R>(self, program: &mut Program, query: impl FnOnce(&Program) -> R) -> R {
        match self {
            Probe::Pinned(fi, i) => {
                let removed = program.funcs[fi].annotations.pinned.remove(i);
                let r = query(program);
                program.funcs[fi].annotations.pinned.insert(i, removed);
                r
            }
            Probe::Before(fi, i) => {
                let removed = program.funcs[fi].annotations.before.remove(i);
                let r = query(program);
                program.funcs[fi].annotations.before.insert(i, removed);
                r
            }
            Probe::Consumes(fi, i) => {
                let removed = program.funcs[fi].annotations.consumes.remove(i);
                let r = query(program);
                program.funcs[fi].annotations.consumes.insert(i, removed);
                r
            }
            Probe::Iso(si, fi) => {
                program.structs[si].fields[fi].iso = false;
                let r = query(program);
                program.structs[si].fields[fi].iso = true;
                r
            }
        }
    }

    /// The finding reported when `program` still checks without this
    /// annotation.
    fn lint(self, program: &Program) -> Lint {
        let in_fn = |fi: usize, span: Span, message: String| Lint {
            code: LintCode::OverStrongAnnotation,
            severity: Severity::Warning,
            func: Some(program.funcs[fi].name.as_str().to_string()),
            span,
            message,
        };
        let param_span = |fi: usize, name: &Symbol| -> Span {
            let f = &program.funcs[fi];
            f.params
                .iter()
                .find(|p| p.name == *name)
                .map_or(f.span, |p| p.span)
        };
        match self {
            Probe::Pinned(fi, i) => {
                let name = &program.funcs[fi].annotations.pinned[i];
                in_fn(
                    fi,
                    param_span(fi, name),
                    format!("`pinned {name}` is unnecessary: the program checks without it"),
                )
            }
            Probe::Before(fi, i) => in_fn(
                fi,
                program.funcs[fi].annotations.before[i].span,
                "this `before` relation is unnecessary: the program checks without it".to_string(),
            ),
            Probe::Consumes(fi, i) => {
                let name = &program.funcs[fi].annotations.consumes[i];
                in_fn(
                    fi,
                    param_span(fi, name),
                    format!(
                        "`consumes {name}` is over-strong: the program checks \
                         without consuming it"
                    ),
                )
            }
            Probe::Iso(si, fi) => {
                let s = &program.structs[si];
                let field = &s.fields[fi];
                Lint {
                    code: LintCode::OverStrongAnnotation,
                    severity: Severity::Warning,
                    func: None,
                    span: field.span,
                    message: format!(
                        "field `{}.{}` is declared `iso` but the program checks \
                         with a plain field",
                        s.name, field.name
                    ),
                }
            }
        }
    }
}

/// Which functions each probe can re-key: every function's [`fn_deps`],
/// inverted. Each list is in definition order.
struct Cones {
    /// Signature name → the functions whose fingerprint hashes it (the
    /// function itself and its direct callers).
    by_sig: HashMap<Symbol, Vec<usize>>,
    /// Struct name → the functions that reach it.
    by_struct: HashMap<Symbol, Vec<usize>>,
}

impl Cones {
    fn new(globals: &Globals, program: &Program) -> Cones {
        let mut cones = Cones {
            by_sig: HashMap::new(),
            by_struct: HashMap::new(),
        };
        for (i, f) in program.funcs.iter().enumerate() {
            let deps = fn_deps(globals, f);
            for name in deps.sigs {
                cones.by_sig.entry(name).or_default().push(i);
            }
            for name in deps.structs {
                cones.by_struct.entry(name).or_default().push(i);
            }
        }
        cones
    }

    /// The functions whose fingerprint `probe` can change, ascending.
    fn of(&self, program: &Program, probe: Probe) -> &[usize] {
        let users = match probe {
            Probe::Pinned(fi, _) | Probe::Before(fi, _) | Probe::Consumes(fi, _) => {
                self.by_sig.get(&program.funcs[fi].name)
            }
            Probe::Iso(si, _) => self.by_struct.get(&program.structs[si].name),
        };
        users.map_or(&[], Vec::as_slice)
    }
}

pub(crate) fn run(checked: &CheckedProgram, globals: &Globals, report: &mut AnalysisReport) {
    let options = checked.options;
    let original = &checked.program;
    let mut memo = VerdictMemo::seeded(globals, &options, original);
    let cones = Cones::new(globals, original);
    let mut program = original.clone();
    for probe in Probe::all(original) {
        report.stats.recheck_experiments += 1;
        let cone = cones.of(original, probe);
        if probe.with_applied(&mut program, |p| memo.checks(p, &options, cone)) {
            report.lints.push(probe.lint(original));
        }
    }
    report.stats.recheck_cache_hits = memo.hits;
    report.stats.recheck_cache_misses = memo.misses;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_program, check_source, globals_of};
    use fearless_syntax::parse_program;

    /// Every function index of `program`: the cone of a full re-check.
    fn every(program: &Program) -> Vec<usize> {
        (0..program.funcs.len()).collect()
    }

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
        let all = every(&program);
        let mut memo = VerdictMemo::default();
        assert!(memo.checks(&program, &opts, &all));
        assert_eq!((memo.hits, memo.misses), (0, 3));
        assert!(memo.checks(&program, &opts, &all));
        assert_eq!((memo.hits, memo.misses), (3, 3));
        assert!(check_program(&program, &opts).is_ok());
    }

    #[test]
    fn seeded_cache_rechecks_only_the_mutated_function() {
        let opts = CheckerOptions::default();
        let checked = check_source(SRC, &opts).unwrap();
        let globals = globals_of(&checked).unwrap();
        let mut memo = VerdictMemo::seeded(&globals, &opts, &checked.program);
        assert_eq!(memo.verdicts.len(), 3);

        // Renaming `get`'s parameter changes `get` and, because parameter
        // names appear in elaborated signatures (consumes/pinned refer to
        // them), its caller `both`. `make` keeps its fingerprint.
        let src2 = SRC.replace(
            "get(d: data) : int { d.value }",
            "get(x: data) : int { x.value }",
        );
        let mutated = parse_program(&src2).unwrap();
        assert!(memo.checks(&mutated, &opts, &every(&mutated)));
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
        let all = every(&program);
        let mut memo = VerdictMemo::default();
        assert!(!memo.checks(&program, &opts, &all));
        assert_eq!((memo.hits, memo.misses), (0, 2));
        assert!(!memo.checks(&program, &opts, &all));
        assert_eq!((memo.hits, memo.misses), (2, 2));
        assert!(check_program(&program, &opts).is_err());
    }

    fn analyze(src: &str) -> AnalysisReport {
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let globals = globals_of(&checked).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &globals, &mut report);
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

    /// Runs every probe of `checked` twice — through its cone and as a
    /// full scan — and checks the cone is sound: a function outside it
    /// keeps its seeded fingerprint under the probe, and the cone run
    /// reports exactly the full scan's experiments, hits, misses and
    /// findings.
    fn assert_cones_sound(checked: &CheckedProgram) {
        let options = checked.options;
        let original = &checked.program;
        let globals = globals_of(checked).unwrap();
        let seeded: Vec<Fingerprint> = original
            .funcs
            .iter()
            .map(|f| fn_fingerprint(&globals, &options, f))
            .collect();
        let cones = Cones::new(&globals, original);
        let all = every(original);
        let mut full = VerdictMemo::seeded(&globals, &options, original);
        let (mut experiments, mut findings) = (0, 0);
        let mut program = original.clone();
        for probe in Probe::all(original) {
            let cone = cones.of(original, probe);
            experiments += 1;
            let still_checks = probe.with_applied(&mut program, |p| {
                if let Ok(g) = Globals::build(p, options.mode) {
                    for (i, f) in p.funcs.iter().enumerate() {
                        if cone.binary_search(&i).is_err() {
                            assert_eq!(
                                fn_fingerprint(&g, &options, f),
                                seeded[i],
                                "{probe:?} re-keys `{}` outside its cone {cone:?}",
                                f.name
                            );
                        }
                    }
                }
                full.checks(p, &options, &all)
            });
            findings += usize::from(still_checks);
        }
        assert_eq!(&program, original, "every probe must restore the program");

        let mut report = AnalysisReport::default();
        run(checked, &globals, &mut report);
        assert_eq!(report.stats.recheck_experiments, experiments);
        assert_eq!(
            (
                report.stats.recheck_cache_hits,
                report.stats.recheck_cache_misses
            ),
            (full.hits, full.misses)
        );
        assert_eq!(report.lints.len(), findings);
    }

    #[test]
    fn cones_are_sound_on_every_corpus_program() {
        for entry in fearless_corpus::accepted_entries() {
            let checked = entry
                .check(&CheckerOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e:?}", entry.name));
            assert_cones_sound(&checked);
        }
    }

    #[test]
    fn cones_are_sound_on_synth_seed_42() {
        let program = fearless_synth::synthesize_program(&fearless_synth::SynthOptions {
            seed: 42,
            functions: 60,
            ..fearless_synth::SynthOptions::default()
        });
        let checked = check_program(&program, &CheckerOptions::default()).unwrap();
        assert!(!Probe::all(&checked.program).is_empty());
        assert_cones_sound(&checked);
    }

    const CONE_SRC: &str = "
        struct data { value: int }
        struct holder { iso payload : data }
        def peek(d: data) : int pinned d { d.value }
        def twice(d: data) : int { peek(d) + peek(d) }
        def outer(d: data) : int { twice(d) }
        def lone(a: int) : int { a }
        def unwrap(h: holder) : int { h.payload.value }
        def fresh(v: int) : holder { new holder(new data(v)) }
        def roundtrip(v: int) : int { unwrap(fresh(v)) }
    ";

    /// The probes of [`CONE_SRC`] with their cones, as function names.
    fn cone_names() -> Vec<(Probe, Vec<String>)> {
        let checked = check_source(CONE_SRC, &CheckerOptions::default()).unwrap();
        let globals = globals_of(&checked).unwrap();
        let cones = Cones::new(&globals, &checked.program);
        assert_cones_sound(&checked);
        Probe::all(&checked.program)
            .into_iter()
            .map(|probe| {
                let names = cones.of(&checked.program, probe).iter();
                let names = names.map(|&i| checked.program.funcs[i].name.to_string());
                (probe, names.collect())
            })
            .collect()
    }

    #[test]
    fn a_signature_probe_reaches_only_the_function_and_its_direct_callers() {
        // `outer` calls `twice`, not `peek`: `peek`'s signature is not
        // part of its fingerprint, so deleting `pinned d` cannot re-key it.
        let probes = cone_names();
        assert!(matches!(probes[0].0, Probe::Pinned(0, 0)), "{probes:?}");
        assert_eq!(probes[0].1, ["peek", "twice"]);
    }

    #[test]
    fn an_iso_probe_reaches_every_function_that_reaches_the_struct() {
        // `unwrap` names `holder` in its type, `fresh` in its body and
        // result, `roundtrip` only through its callees' signatures.
        let probes = cone_names();
        assert_eq!(probes.len(), 2, "{probes:?}");
        assert!(matches!(probes[1].0, Probe::Iso(1, 0)), "{probes:?}");
        assert_eq!(probes[1].1, ["unwrap", "fresh", "roundtrip"]);
    }
}
