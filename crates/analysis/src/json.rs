//! Hand-rolled JSON rendering for analysis reports.
//!
//! The repository is dependency-free by design, and the output shape is
//! small and fixed, so the report is serialized by hand. Everything is
//! emitted from sorted containers, making the bytes deterministic — the
//! golden-file tests compare them verbatim.

use fearless_syntax::span::SourceMap;
use fearless_trace::json::escape;

use crate::AnalysisReport;

pub(crate) fn report_to_json(report: &AnalysisReport, src: &str) -> String {
    let map = SourceMap::new(src);
    let mut out = String::from("{\n  \"lints\": [");
    for (i, lint) in report.lints.iter().enumerate() {
        let pos = map.span_start(lint.span);
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"code\": \"{}\", ", lint.code.code()));
        out.push_str(&format!("\"name\": \"{}\", ", lint.code.name()));
        out.push_str(&format!("\"severity\": \"{}\", ", lint.severity));
        match &lint.func {
            Some(f) => out.push_str(&format!("\"func\": \"{}\", ", escape(f))),
            None => out.push_str("\"func\": null, "),
        }
        out.push_str(&format!("\"line\": {}, \"col\": {}, ", pos.line, pos.col));
        out.push_str(&format!("\"message\": \"{}\"", escape(&lint.message)));
        out.push('}');
    }
    if report.lints.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    let s = &report.stats;
    out.push_str("  \"stats\": {\n");
    out.push_str(&format!("    \"functions\": {},\n", s.functions));
    out.push_str(&format!("    \"vir_steps\": {},\n", s.vir_steps));
    out.push_str(&format!(
        "    \"recheck_experiments\": {},\n",
        s.recheck_experiments
    ));
    out.push_str("    \"vir_kinds\": {");
    for (i, (kind, total)) in s.vir_totals.iter().enumerate() {
        let redundant = s.vir_redundant.get(kind).copied().unwrap_or(0);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      \"{kind}\": {{\"total\": {total}, \"redundant\": {redundant}}}"
        ));
    }
    if s.vir_totals.is_empty() {
        out.push_str("}\n");
    } else {
        out.push_str("\n    }\n");
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let json = report_to_json(&AnalysisReport::default(), "");
        assert!(json.contains("\"lints\": []"));
        assert!(json.contains("\"vir_kinds\": {}"));
    }
}
