//! Field-by-field JSON comparison with numeric tolerances — the engine
//! behind `evaluate diff`, the regression gate that replaced CI's
//! generate-and-forget treatment of `BENCH_evaluate.json`.
//!
//! Two documents are walked structurally in parallel: objects by key
//! union (missing or extra keys are differences), arrays by index,
//! numbers by *relative* difference against a tolerance, and every
//! other scalar exactly. The output is a deterministic list of
//! human-readable difference lines, so the gate's failure mode is a
//! diagnosis, not a boolean.

use greenweb_trace::json::JsonValue;

/// Parses both documents and returns every field-level difference
/// beyond `tolerance`, in document order. An empty list means the
/// documents agree. `tolerance` is the maximum allowed relative
/// difference between two numbers, `|a − b| / max(|a|, |b|)`; two zeros
/// always compare equal.
///
/// # Errors
///
/// Returns a parse-error description when either document is not the
/// JSON subset the workspace reader ([`JsonValue`]) understands.
pub fn diff_json(old: &str, new: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let old = JsonValue::parse(old.trim()).map_err(|e| format!("old document: {e}"))?;
    let new = JsonValue::parse(new.trim()).map_err(|e| format!("new document: {e}"))?;
    let mut differences = Vec::new();
    walk("$", &old, &new, tolerance, &mut differences);
    Ok(differences)
}

fn type_name(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "bool",
        JsonValue::Num(_) => "number",
        JsonValue::Str(_) => "string",
        JsonValue::Arr(_) => "array",
        JsonValue::Obj(_) => "object",
    }
}

fn render_scalar(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Str(s) => format!("{s:?}"),
        other => type_name(other).to_string(),
    }
}

fn walk(path: &str, old: &JsonValue, new: &JsonValue, tolerance: f64, out: &mut Vec<String>) {
    match (old, new) {
        (JsonValue::Num(a), JsonValue::Num(b)) => {
            let scale = a.abs().max(b.abs());
            if scale > 0.0 && ((a - b).abs() / scale) > tolerance {
                let relative = (a - b).abs() / scale;
                out.push(format!(
                    "{path}: {a} -> {b} (relative change {:.1}% > tolerance {:.1}%)",
                    relative * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
        (JsonValue::Obj(a), JsonValue::Obj(b)) => {
            // Old-document key order first, then keys only the new one
            // has — deterministic and reads like the committed file.
            for (key, old_value) in a {
                let child = format!("{path}.{key}");
                match b.iter().find(|(k, _)| k == key) {
                    Some((_, new_value)) => walk(&child, old_value, new_value, tolerance, out),
                    None => out.push(format!("{child}: missing from new document")),
                }
            }
            for (key, _) in b {
                if !a.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: only in new document"));
                }
            }
        }
        (JsonValue::Arr(a), JsonValue::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: array length {} -> {}", a.len(), b.len()));
            }
            for (index, (old_value, new_value)) in a.iter().zip(b).enumerate() {
                walk(
                    &format!("{path}[{index}]"),
                    old_value,
                    new_value,
                    tolerance,
                    out,
                );
            }
        }
        (a, b) if std::mem::discriminant(a) != std::mem::discriminant(b) => {
            out.push(format!(
                "{path}: type changed {} -> {}",
                type_name(a),
                type_name(b)
            ));
        }
        (a, b) => {
            // Same-type non-numeric scalars: exact comparison.
            if a != b {
                out.push(format!(
                    "{path}: {} -> {}",
                    render_scalar(a),
                    render_scalar(b)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(old: &str, new: &str, tolerance: f64) -> Vec<String> {
        diff_json(old, new, tolerance).unwrap()
    }

    #[test]
    fn identical_documents_have_no_differences() {
        let doc = r#"{"a":1.0,"b":{"c":[1,2,3],"d":"x"},"e":true}"#;
        assert!(diff(doc, doc, 0.0).is_empty());
    }

    #[test]
    fn numbers_compare_relatively() {
        // 4% drift passes a 5% tolerance, fails a 1% one.
        assert!(diff(r#"{"v":100.0}"#, r#"{"v":104.0}"#, 0.05).is_empty());
        let strict = diff(r#"{"v":100.0}"#, r#"{"v":104.0}"#, 0.01);
        assert_eq!(strict.len(), 1);
        assert!(strict[0].starts_with("$.v:"), "{strict:?}");
        // Both zero is equal at any tolerance.
        assert!(diff(r#"{"v":0}"#, r#"{"v":0}"#, 0.0).is_empty());
        // Zero to non-zero is a 100% relative change.
        assert_eq!(diff(r#"{"v":0}"#, r#"{"v":1}"#, 0.5).len(), 1);
    }

    #[test]
    fn structural_changes_are_reported() {
        let diffs = diff(
            r#"{"a":1,"gone":2,"arr":[1,2],"t":"x"}"#,
            r#"{"a":1,"arr":[1,2,3],"t":5,"extra":0}"#,
            0.5,
        );
        assert!(diffs.iter().any(|d| d.contains("$.gone: missing")));
        assert!(diffs.iter().any(|d| d.contains("$.extra: only in new")));
        assert!(diffs
            .iter()
            .any(|d| d.contains("$.arr: array length 2 -> 3")));
        assert!(diffs
            .iter()
            .any(|d| d.contains("$.t: type changed string -> number")));
    }

    #[test]
    fn strings_and_bools_compare_exactly() {
        let diffs = diff(r#"{"s":"ok","b":true}"#, r#"{"s":"bad","b":false}"#, 1.0);
        assert_eq!(diffs.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        assert!(diff_json("{", "{}", 0.05).is_err());
        assert!(diff_json("{}", "nope", 0.05).is_err());
    }
}
