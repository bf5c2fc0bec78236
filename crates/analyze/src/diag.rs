//! Diagnostics: rule identifiers, the finding record, and the human /
//! machine renderings.

/// R2 — no `unwrap`/`expect`/panic macros/indexing inside annotated
/// hot-path regions.
pub const R2_HOT_PATH_PANIC: &str = "hot-path-panic";
/// R3 — obs registrations use the dotted `plane.subsystem.name` convention
/// and each name is registered exactly once.
pub const R3_OBS_NAMING: &str = "obs-naming";
/// R4 — ARCHITECTURE.md audit-channel and obs-span tables match the code.
pub const R4_DOCS_SYNC: &str = "docs-sync";
/// R5 — no nested lock scopes (static approximation; the dynamic
/// `lock_order_check` cfg covers ordering across threads).
pub const R5_LOCK_DISCIPLINE: &str = "lock-discipline";
/// R6 — every `pub fn` in engine source is reached by non-test code, as
/// the compiler judges it.
pub const R6_DEAD_PUB: &str = "dead-pub";
/// Hygiene for the tool's own control comments: malformed `analyze:`
/// directives and unclosed hot-path regions.
pub const RD_DIRECTIVE: &str = "directive";

/// Every rule id, in report order.
pub const ALL_RULES: &[&str] = &[
    R2_HOT_PATH_PANIC,
    R3_OBS_NAMING,
    R4_DOCS_SYNC,
    R5_LOCK_DISCIPLINE,
    R6_DEAD_PUB,
    RD_DIRECTIVE,
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of the constants above).
    pub rule: &'static str,
    /// What is wrong.
    pub msg: String,
    /// How to fix it.
    pub hint: String,
}

impl Diag {
    /// `file:line: [rule] message (hint: …)` — the CI-log form.
    pub fn human(&self) -> String {
        let mut s = format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg);
        if !self.hint.is_empty() {
            s.push_str(&format!("\n    hint: {}", self.hint));
        }
        s
    }

    fn json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"msg\":\"{}\",\"hint\":\"{}\"}}",
            esc(&self.file),
            self.line,
            self.rule,
            esc(&self.msg),
            esc(&self.hint)
        )
    }
}

/// Render all findings as a JSON array (machine-readable mode).
pub fn render_json(diags: &[Diag]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&d.json());
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_and_json_render() {
        let d = Diag {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: R5_LOCK_DISCIPLINE,
            msg: "nested lock scope".into(),
            hint: "drop the first guard".into(),
        };
        assert_eq!(
            d.human(),
            "crates/x/src/a.rs:7: [lock-discipline] nested lock scope\n    hint: drop the first guard"
        );
        let j = render_json(std::slice::from_ref(&d));
        assert!(j.starts_with('['));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\"rule\":\"lock-discipline\""));
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diag {
            file: "f".into(),
            line: 1,
            rule: RD_DIRECTIVE,
            msg: "quote \" backslash \\ newline \n".into(),
            hint: String::new(),
        };
        let j = render_json(&[d]);
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n"));
    }
}
