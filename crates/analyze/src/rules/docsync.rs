//! R4 `docs-sync`: the load-bearing tables in ARCHITECTURE.md must
//! match the code, in both directions.
//!
//! - The **audit-channel table** mirrors `enum Channel` in
//!   `crates/core/src/audit/channels.rs`. A variant added without a doc
//!   row loses its paper cross-reference; a doc row whose variant was
//!   renamed documents a channel that no longer exists.
//! - The **obs span table** mirrors the workspace's `Recorder::span`
//!   registrations. Spans are the phase vocabulary every perf
//!   investigation starts from, so a missing or stale row misdirects
//!   whoever reads the table first.
//! - The **SLO table** mirrors the workspace's `SloPlane::slo`
//!   registrations. An undocumented objective pages with no runbook; a
//!   documented objective that was deleted promises alerting that will
//!   never fire.
//! - The **fault taxonomy table** mirrors `enum Fault` in
//!   `crates/chaos/src/fault.rs`. A fault the chaos plane can inject but
//!   the docs don't list is a failure mode nobody plans drills for; a
//!   documented fault with no variant promises coverage that isn't there.

use crate::diag::{Diag, R4_DOCS_SYNC as RULE};
use crate::lexer::{lex, TokKind};
use crate::rules::obsnames::Registration;
use std::collections::BTreeMap;

/// Cross-check all four tables. `arch` is the ARCHITECTURE.md text,
/// `channels` the source of `crates/core/src/audit/channels.rs`, `faults`
/// the source of `crates/chaos/src/fault.rs`, `spans` the registrations
/// collected by R3 (spans and SLOs are filtered out of it here).
#[allow(clippy::too_many_arguments)] // one (source, path) pair per mirrored table
pub fn check(
    arch: &str,
    arch_path: &str,
    channels: &str,
    channels_path: &str,
    faults: &str,
    faults_path: &str,
    spans: &[Registration],
    out: &mut Vec<Diag>,
) {
    // --- audit channels ---
    let code_channels = enum_variants(channels, "Channel");
    let (audit_header, audit_rows) = table_rows(arch, "channel");
    if code_channels.is_empty() {
        out.push(Diag {
            file: channels_path.to_string(),
            line: 1,
            rule: RULE,
            msg: "could not find `enum Channel` variants to cross-check".into(),
            hint: "keep the audit channel enum in crates/core/src/audit/channels.rs".into(),
        });
    }
    if audit_rows.is_empty() {
        out.push(Diag {
            file: arch_path.to_string(),
            line: 1,
            rule: RULE,
            msg: "ARCHITECTURE.md has no audit-channel table (header cell `channel`)".into(),
            hint: "restore the `| channel | … |` table".into(),
        });
    }
    for (variant, _line) in &code_channels {
        if !audit_rows.contains_key(variant) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: audit_header.unwrap_or(1),
                rule: RULE,
                msg: format!(
                    "audit channel `{variant}` ({channels_path}) has no row in the \
                     ARCHITECTURE.md audit table"
                ),
                hint: "add a row documenting the paper section and llsc/closed-by status".into(),
            });
        }
    }
    for (name, line) in &audit_rows {
        if !code_channels.iter().any(|(v, _)| v == name) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: *line,
                rule: RULE,
                msg: format!(
                    "ARCHITECTURE.md documents audit channel `{name}` which does not exist \
                     in {channels_path}"
                ),
                hint: "remove the row or rename it to the current Channel variant".into(),
            });
        }
    }

    // --- obs spans ---
    let (span_header, span_rows) = table_rows(arch, "span");
    if span_rows.is_empty() {
        out.push(Diag {
            file: arch_path.to_string(),
            line: 1,
            rule: RULE,
            msg: "ARCHITECTURE.md has no obs span table (header cell `span`)".into(),
            hint: "restore the `| span | covers |` table".into(),
        });
    }
    let registered: BTreeMap<&str, &Registration> = spans
        .iter()
        .filter(|r| r.kind == "span")
        .map(|r| (r.name.as_str(), r))
        .collect();
    for (name, reg) in &registered {
        if !span_rows.contains_key(*name) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: span_header.unwrap_or(1),
                rule: RULE,
                msg: format!(
                    "obs span `{name}` (registered at {}:{}) has no row in the \
                     ARCHITECTURE.md span table",
                    reg.file, reg.line
                ),
                hint: "add a row describing what the span covers".into(),
            });
        }
    }
    for (name, line) in &span_rows {
        if !registered.contains_key(name.as_str()) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: *line,
                rule: RULE,
                msg: format!(
                    "ARCHITECTURE.md documents obs span `{name}` which is not registered \
                     anywhere in the workspace"
                ),
                hint: "remove the row or restore the rec.span(\"…\") registration".into(),
            });
        }
    }

    // --- SLOs ---
    let (slo_header, slo_rows) = table_rows(arch, "slo");
    let slo_regs: BTreeMap<&str, &Registration> = spans
        .iter()
        .filter(|r| r.kind == "slo")
        .map(|r| (r.name.as_str(), r))
        .collect();
    if slo_rows.is_empty() && !slo_regs.is_empty() {
        out.push(Diag {
            file: arch_path.to_string(),
            line: 1,
            rule: RULE,
            msg: "ARCHITECTURE.md has no SLO table (header cell `slo`)".into(),
            hint: "restore the `| slo | target | windows |` table".into(),
        });
    }
    for (name, reg) in &slo_regs {
        if !slo_rows.contains_key(*name) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: slo_header.unwrap_or(1),
                rule: RULE,
                msg: format!(
                    "SLO `{name}` (registered at {}:{}) has no row in the \
                     ARCHITECTURE.md SLO table",
                    reg.file, reg.line
                ),
                hint: "add a row with the target, aggregation and burn-rate windows".into(),
            });
        }
    }
    for (name, line) in &slo_rows {
        if !slo_regs.contains_key(name.as_str()) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: *line,
                rule: RULE,
                msg: format!(
                    "ARCHITECTURE.md documents SLO `{name}` which is not registered \
                     anywhere in the workspace"
                ),
                hint: "remove the row or restore the slo.slo(\"…\", …) registration".into(),
            });
        }
    }

    // --- fault taxonomy ---
    let code_faults = enum_variants(faults, "Fault");
    let (fault_header, fault_rows) = table_rows(arch, "fault");
    if fault_rows.is_empty() && !code_faults.is_empty() {
        out.push(Diag {
            file: arch_path.to_string(),
            line: 1,
            rule: RULE,
            msg: "ARCHITECTURE.md has no fault taxonomy table (header cell `fault`)".into(),
            hint: "restore the `| fault | … |` table in the fault-injection section".into(),
        });
    }
    for (variant, _line) in &code_faults {
        if !fault_rows.contains_key(variant) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: fault_header.unwrap_or(1),
                rule: RULE,
                msg: format!(
                    "chaos fault `{variant}` ({faults_path}) has no row in the \
                     ARCHITECTURE.md fault taxonomy table"
                ),
                hint: "add a row with the fault's label, plane hook and heal ownership".into(),
            });
        }
    }
    for (name, line) in &fault_rows {
        if !code_faults.iter().any(|(v, _)| v == name) {
            out.push(Diag {
                file: arch_path.to_string(),
                line: *line,
                rule: RULE,
                msg: format!(
                    "ARCHITECTURE.md documents chaos fault `{name}` which does not exist \
                     in {faults_path}"
                ),
                hint: "remove the row or rename it to the current Fault variant".into(),
            });
        }
    }
}

/// Parse the variants of `pub enum <name> { … }` with their lines.
/// Handles fieldless, tuple, and struct variants: a variant is any ident
/// at brace depth 1 directly followed by `,`, `}`, `{`, or `(` (field
/// idents sit at depth 2 or inside parens and never match).
fn enum_variants(src: &str, name: &str) -> Vec<(String, u32)> {
    let toks = lex(src).toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks.get(i + 1).is_some_and(|t| t.text == name)
        {
            let mut depth = 0i32;
            let mut parens = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return out;
                            }
                        }
                        "(" => parens += 1,
                        ")" => parens -= 1,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident && depth == 1 && parens == 0 {
                    let next_is_sep = toks.get(j + 1).is_some_and(|n| {
                        n.kind == TokKind::Punct && matches!(n.text.as_str(), "," | "}" | "{" | "(")
                    });
                    if next_is_sep {
                        out.push((t.text.clone(), t.line));
                    }
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Extract `first-cell -> line` for the markdown table whose header's
/// first cell is `header_cell`. Rows run until the first non-`|` line;
/// the `|---|` separator is skipped; cells are stripped of backticks.
fn table_rows(md: &str, header_cell: &str) -> (Option<u32>, BTreeMap<String, u32>) {
    let mut rows = BTreeMap::new();
    let mut header_line = None;
    let mut in_table = false;
    for (idx, raw) in md.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if !line.starts_with('|') {
            if in_table {
                break;
            }
            continue;
        }
        let first = line
            .trim_start_matches('|')
            .split('|')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('`')
            .to_string();
        if !in_table {
            if first == header_cell {
                in_table = true;
                header_line = Some(line_no);
            }
            continue;
        }
        if first.chars().all(|c| c == '-' || c == ':') {
            continue; // separator row
        }
        if !first.is_empty() {
            rows.insert(first, line_no);
        }
    }
    (header_line, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHANNELS: &str = "pub enum Channel {\n    ProcList,\n    NetTcp,\n}\n";
    const FAULTS: &str =
        "pub enum Fault {\n    NodeCrash { node: NodeId },\n    IdpOutage { heal_after: SimDuration },\n}\n";
    const ARCH: &str = "# arch\n\n| channel | sect |\n|---|---|\n| `ProcList` | 1 |\n| `NetTcp` | 2 |\n\n| span | covers |\n|---|---|\n| `sched.cycle.select` | x |\n\n| slo | target |\n|---|---|\n| `cred.validate.latency` | 10ms |\n\n| fault | label |\n|---|---|\n| `NodeCrash` | node.crash |\n| `IdpOutage` | idp.outage |\n";

    fn reg(name: &str, kind: &str) -> Registration {
        Registration {
            name: name.into(),
            kind: kind.into(),
            file: "crates/sched/src/obs.rs".into(),
            line: 10,
        }
    }

    fn span_reg(name: &str) -> Registration {
        reg(name, "span")
    }

    #[test]
    fn in_sync_is_clean() {
        let mut out = Vec::new();
        check(
            ARCH,
            "ARCHITECTURE.md",
            CHANNELS,
            "channels.rs",
            FAULTS,
            "fault.rs",
            &[
                span_reg("sched.cycle.select"),
                reg("cred.validate.latency", "slo"),
            ],
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn drift_is_caught_both_directions() {
        let mut out = Vec::new();
        // Code has a channel the docs lack, docs have a span and an SLO the
        // code lacks.
        check(
            ARCH,
            "ARCHITECTURE.md",
            "pub enum Channel { ProcList, NetTcp, GpuRemanence }",
            "channels.rs",
            FAULTS,
            "fault.rs",
            &[],
            &mut out,
        );
        assert!(out.iter().any(|d| d.msg.contains("GpuRemanence")));
        assert!(out.iter().any(|d| d.msg.contains("sched.cycle.select")));
        assert!(out.iter().any(|d| d.msg.contains("cred.validate.latency")));
    }

    #[test]
    fn unregistered_slo_and_undocumented_slo_both_flagged() {
        let mut out = Vec::new();
        // Registration with no doc row.
        check(
            ARCH,
            "ARCHITECTURE.md",
            CHANNELS,
            "channels.rs",
            FAULTS,
            "fault.rs",
            &[
                span_reg("sched.cycle.select"),
                reg("cred.validate.latency", "slo"),
                reg("revsync.replica.lag", "slo"),
            ],
            &mut out,
        );
        assert!(out
            .iter()
            .any(|d| d.msg.contains("revsync.replica.lag") && d.msg.contains("no row")));
    }

    #[test]
    fn fault_table_drift_is_caught_both_directions() {
        let mut out = Vec::new();
        // Code grows a fault the docs lack; docs list one the code lost.
        check(
            ARCH,
            "ARCHITECTURE.md",
            CHANNELS,
            "channels.rs",
            "pub enum Fault {\n    NodeCrash { node: NodeId },\n    FeedStall { realm: RealmId },\n}\n",
            "fault.rs",
            &[
                span_reg("sched.cycle.select"),
                reg("cred.validate.latency", "slo"),
            ],
            &mut out,
        );
        assert!(
            out.iter()
                .any(|d| d.msg.contains("FeedStall") && d.msg.contains("no row")),
            "{out:?}"
        );
        assert!(
            out.iter()
                .any(|d| d.msg.contains("IdpOutage") && d.msg.contains("does not exist")),
            "{out:?}"
        );
    }

    #[test]
    fn struct_and_tuple_variants_parse() {
        let vs = enum_variants(
            "pub enum Fault { A, B(u32), C { x: Y, z: SimDuration }, D }",
            "Fault",
        );
        let names: Vec<&str> = vs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C", "D"]);
    }
}
