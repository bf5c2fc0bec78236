//! R1 `sim-determinism`: engine crates must be replay-deterministic.
//!
//! The simulation has exactly one legal wall-clock site — the obs span
//! path (`Recorder::span_start` and the per-plane `obs.rs` shared-stats
//! timers), whose readings feed metrics, never decisions. Everything else
//! in `crates/*` must run on `SimTime`. Four pattern families are banned:
//!
//! 1. wall-clock reads: `Instant::now`, any `SystemTime` use;
//! 2. real sleeps: `thread::sleep` (a sim actor waits by advancing the
//!    virtual clock, never the host's);
//! 3. iteration over `HashMap`/`HashSet` bindings (and the keyed-hasher
//!    aliases `KeyedMap`/`KeyedSet`/`SerialSet`) — hash iteration order
//!    depends on the table's key, so any decision derived from it diverges
//!    between keys. Keyed point lookups (`get`/`insert`/`remove`) stay
//!    legal;
//! 4. a `HashMap`/`HashSet` on the default hasher (`RandomState`: a type
//!    with no hasher parameter, or a `new`/`with_capacity`/`from`
//!    constructor) — its key is drawn at random per process, so layout
//!    and timing never replay, and SipHash is the slow hash on tables the
//!    hot paths probe per event. Tables use `eus_simcore`'s keyed hasher.

use crate::diag::{Diag, R1_SIM_DETERMINISM as RULE};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Is this file allowed to read the wall clock? Only the obs crate itself
/// and the per-plane `obs.rs` modules (span timing / shared-stats `begin`/
/// `finish` paths).
fn wall_clock_allowed(file: &SourceFile) -> bool {
    file.rel.starts_with("crates/obs/")
        || file
            .rel
            .rsplit('/')
            .next()
            .is_some_and(|base| base == "obs.rs")
}

/// Run R1 over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diag>) {
    if !super::engine_scope(file) {
        return;
    }
    let clock_ok = wall_clock_allowed(file);
    default_hasher_tables(file, out);
    let hashed = hashed_bindings(file);
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let line = t.line;
        match t.text.as_str() {
            // Only the read itself is banned; `use std::time::Instant`
            // without a `::now` call is inert.
            "Instant"
                if !clock_ok
                    && file.punct(i + 1, ':')
                    && file.punct(i + 2, ':')
                    && file.ident(i + 3, "now") =>
            {
                out.push(diag(
                    file, line,
                    "wall-clock read: Instant::now() in an engine crate".into(),
                    "schedule on SimTime; wall-clock timing belongs to the obs span path (obs.rs modules)",
                ));
            }
            "SystemTime" if !clock_ok => {
                out.push(diag(
                    file,
                    line,
                    "wall-clock type: SystemTime in an engine crate".into(),
                    "derive timestamps from SimTime so replays are bit-identical",
                ));
            }
            "thread"
                if file.punct(i + 1, ':')
                    && file.punct(i + 2, ':')
                    && file.ident(i + 3, "sleep") =>
            {
                out.push(diag(
                    file,
                    line,
                    "real sleep: thread::sleep in an engine crate".into(),
                    "advance the virtual clock instead; sim actors never block the host thread",
                ));
            }
            "in" => {
                // `for x in name` / `for x in &name` / `&mut name`.
                let mut j = i + 1;
                while file.punct(j, '&') || file.ident(j, "mut") {
                    j += 1;
                }
                if let Some(n) = toks.get(j) {
                    if n.kind == TokKind::Ident
                        && hashed.contains(n.text.as_str())
                        && !file.punct(j + 1, '.')
                    {
                        out.push(hash_iter_diag(file, n.line, &n.text));
                    }
                }
            }
            // `name.iter()`, `name.keys()`, … — only when `name` is
            // known to be a HashMap/HashSet binding in this file.
            name if hashed.contains(name)
                && file.punct(i + 1, '.')
                && toks.get(i + 2).is_some_and(|m| {
                    m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
                })
                && file.punct(i + 3, '(') =>
            {
                out.push(hash_iter_diag(file, line, name));
            }
            _ => {}
        }
    }
}

/// Names bound to `HashMap`/`HashSet` in this file, from field/binding
/// type ascriptions (`name: HashMap<…>`) and constructor assignments
/// (`let name = HashMap::new()`).
fn hashed_bindings(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.toks;
    let mut names = BTreeSet::new();
    let is_hash = |i: usize| {
        toks.get(i).is_some_and(|t| {
            t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "HashMap" | "HashSet" | "KeyedMap" | "KeyedSet" | "SerialSet"
                )
        })
    };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name: HashMap<…>` — type ascription on a field, binding, or
        // struct-literal init. Accept only reference/path prefixes between
        // the colon and the type.
        if file.punct(i + 1, ':') && !file.punct(i + 2, ':') {
            let mut j = i + 2;
            let limit = (j + 8).min(toks.len());
            while j < limit {
                if is_hash(j) {
                    names.insert(toks[i].text.clone());
                    break;
                }
                let Some(t) = toks.get(j) else { break };
                let path_part = (t.kind == TokKind::Punct && (t.text == ":" || t.text == "&"))
                    || t.kind == TokKind::Lifetime
                    || (t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "std" | "collections" | "mut"));
                if !path_part {
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = [path ::]* HashMap ::`
        if toks[i].text == "let" {
            let mut j = i + 1;
            if file.ident(j, "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) && file.punct(j + 1, '=') {
                let name = toks[j].text.clone();
                let mut k = j + 2;
                let limit = k + 6;
                while k < limit {
                    if is_hash(k) {
                        names.insert(name);
                        break;
                    }
                    let Some(t) = toks.get(k) else { break };
                    if !(t.kind == TokKind::Ident || (t.kind == TokKind::Punct && t.text == ":")) {
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names
}

/// Pattern family 4: `HashMap<K, V>` / `HashSet<T>` written without a
/// hasher parameter, and the constructors that exist only for the default
/// hasher (`HashMap::new()`, `HashSet::with_capacity(n)`, `HashMap::from(..)`,
/// turbofish included).
fn default_hasher_tables(file: &SourceFile, out: &mut Vec<Diag>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        // Type arguments a hasher-carrying table has beyond its key (and value).
        let params = match t.text.as_str() {
            "HashMap" => 3,
            "HashSet" => 2,
            _ => continue,
        };
        let mut j = i + 1;
        let turbofish = file.punct(j, ':') && file.punct(j + 1, ':') && file.punct(j + 2, '<');
        if turbofish {
            j += 2;
        }
        let default = if file.punct(j, '<') {
            let (args, end) = type_args(file, j);
            j = end;
            args < params
        } else {
            true
        };
        // A bare name (a `use` list, a path segment) is no table; a
        // generic type or a default-hasher constructor is.
        let ctor = file.punct(j, ':')
            && file.punct(j + 1, ':')
            && toks.get(j + 2).is_some_and(|m| {
                m.kind == TokKind::Ident
                    && matches!(m.text.as_str(), "new" | "with_capacity" | "from")
            });
        if default && (ctor || (file.punct(i + 1, '<') && !turbofish)) {
            out.push(diag(
                file,
                t.line,
                format!("`{}` on the default hasher (RandomState)", t.text),
                "key the table with eus_simcore's keyed hasher (KeyedMap / KeyedSet under a \
                 HashKey from secret material), or use a BTreeMap/BTreeSet",
            ));
        }
    }
}

/// Count the top-level arguments of the generic list opening at `open`
/// (a `<`); returns the count and the index just past the closing `>`.
fn type_args(file: &SourceFile, open: usize) -> (usize, usize) {
    let toks = &file.toks;
    let (mut depth, mut args, mut k) = (0i32, 1, open);
    while let Some(t) = toks.get(k) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                // `->` inside a fn-pointer argument closes nothing.
                ">" if !file.punct(k.wrapping_sub(1), '-') => depth -= 1,
                ")" | "]" => depth -= 1,
                "," if depth == 1 => args += 1,
                _ => {}
            }
            if depth == 0 {
                return (args, k + 1);
            }
        }
        k += 1;
    }
    (args, k)
}

fn hash_iter_diag(file: &SourceFile, line: u32, name: &str) -> Diag {
    diag(
        file,
        line,
        format!("iteration over hash-ordered collection `{name}`"),
        "hash iteration order is nondeterministic across runs; use a BTreeMap/BTreeSet or an \
         explicit ordered index when order can reach a decision",
    )
}

fn diag(file: &SourceFile, line: u32, msg: String, hint: &str) -> Diag {
    Diag {
        file: file.rel.clone(),
        line,
        rule: RULE,
        msg,
        hint: hint.to_string(),
    }
}
