//! ARCHITECTURE.md's load-bearing tables, checked against the running
//! program rather than its source text: the span and SLO tables against
//! the names each plane's obs struct registers, the audit table against
//! `Channel`, and the fault table against `Fault`. Variant lists come from
//! a line scan of the enum declarations: `cargo fmt --check` keeps each
//! variant on its own line at one indent.

use eus_chaos::{FaultPlan, PlanShape};
use eus_fedauth::{RealmId, ValidateStats};
use eus_revsync::MeshObs;
use eus_sched::SchedObs;
use eus_simos::NodeId;
use hpc_user_separation::obs::{ObsConfig, Recorder};
use hpc_user_separation::portal::PortalObs;
use hpc_user_separation::{expected_residuals, Channel, CoreObs, Mechanism};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

const ARCH: &str = include_str!("../ARCHITECTURE.md");
const CHANNELS_RS: &str = include_str!("../crates/core/src/audit/channels.rs");
const CONFIG_RS: &str = include_str!("../crates/core/src/config.rs");
const FAULT_RS: &str = include_str!("../crates/chaos/src/fault.rs");

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    s.split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap_or_default()
}

/// Variant names of `pub enum <name>` in `src`, in declaration order.
fn variants(src: &str, name: &str) -> Vec<String> {
    let head = format!("pub enum {name} {{");
    let vs: Vec<String> = src
        .lines()
        .skip_while(|l| *l != head)
        .skip(1)
        .take_while(|l| *l != "}")
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| ident(l).into())
        .collect();
    assert!(!vs.is_empty(), "no `{head}` block found");
    vs
}

/// The body rows of the ARCHITECTURE.md table whose first header cell is
/// `header`: cells trimmed, backticks stripped, the `|---|` rule skipped.
fn table(header: &str) -> Vec<Vec<&'static str>> {
    let cells = |l: &'static str| -> Vec<&'static str> {
        let inner = l.trim().trim_start_matches('|').trim_end_matches('|');
        inner
            .split('|')
            .map(|c| c.trim().trim_matches('`'))
            .collect()
    };
    let rows: Vec<Vec<&str>> = ARCH
        .lines()
        .skip_while(|l| !l.starts_with('|') || cells(l)[0] != header)
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(cells)
        .collect();
    assert!(
        !rows.is_empty(),
        "ARCHITECTURE.md has no `| {header} |` table"
    );
    rows
}

/// Every `(kind, name)` a recorder registered.
fn recorder_names(rec: &Recorder) -> Vec<(&'static str, &'static str)> {
    let s = rec.snapshot();
    let counters = s.counters.iter().map(|&(n, _)| ("counter", n));
    let gauges = s.gauges.iter().map(|&(n, _)| ("gauge", n));
    let spans = s.spans.iter().map(|r| ("span", r.name));
    counters.chain(gauges).chain(spans).collect()
}

/// One plane's obs type: its name, its handle fields (each `…Id(n)` in its
/// `Debug` rendering) and every `(kind, name)` it registers.
type Plane = (&'static str, usize, Vec<(&'static str, &'static str)>);

fn plane(ty: &'static str, obs: &dyn Debug, names: Vec<(&'static str, &'static str)>) -> Plane {
    let debug = format!("{obs:?}");
    let ids = ["CounterId(", "GaugeId(", "SpanId(", "SharedId(", "SloId("];
    let handles = ids.iter().map(|id| debug.matches(id).count()).sum();
    (ty, handles, names)
}

fn planes() -> Vec<Plane> {
    let cfg = ObsConfig::enabled();
    let core = CoreObs::new(&cfg);
    let mut core_names = recorder_names(&core.rec);
    core_names.extend(core.slo.names().iter().map(|&n| ("slo", n)));
    let mesh = MeshObs::new(&cfg);
    let mut mesh_names = recorder_names(&mesh.rec);
    mesh_names.extend(mesh.validate_snapshot().iter().map(|&(n, _)| ("slot", n)));
    let (sched, portal) = (SchedObs::new(&cfg), PortalObs::new(&cfg));
    let validate = ValidateStats::new();
    let validate_names = validate
        .snapshot()
        .iter()
        .map(|&(n, _)| ("slot", n))
        .collect();
    vec![
        plane("CoreObs", &core, core_names),
        plane("SchedObs", &sched, recorder_names(&sched.rec)),
        plane("PortalObs", &portal, recorder_names(&portal.rec)),
        plane("MeshObs", &mesh, mesh_names),
        plane("ValidateStats", &validate, validate_names),
    ]
}

/// The registered names of one kind, across every plane.
fn registered(kind: &str) -> BTreeSet<&'static str> {
    let all = planes().into_iter().flat_map(|(_, _, names)| names);
    all.filter(|&(k, _)| k == kind).map(|(_, n)| n).collect()
}

/// `plane.subsystem.name`: at least three non-empty `[a-z0-9_]` segments.
fn dotted(name: &str) -> bool {
    name.split('.').count() >= 3
        && name.split('.').all(|s| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

fn same_set(what: &str, rows: BTreeSet<&str>, code: BTreeSet<&str>) {
    let stale: Vec<_> = rows.difference(&code).collect();
    let missing: Vec<_> = code.difference(&rows).collect();
    assert!(
        stale.is_empty() && missing.is_empty(),
        "ARCHITECTURE.md {what} table: rows naming nothing registered {stale:?}; \
         registered names without a row {missing:?}"
    );
}

#[test]
fn every_obs_name_is_dotted_and_registered_by_one_plane() {
    let mut owner: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    for (plane, handles, names) in planes() {
        // Registering a name twice in one registry returns the first handle.
        let why = "two handle fields registered one name";
        assert_eq!(handles, names.len(), "{plane}: handles vs names ({why})");
        for (kind, name) in names {
            assert!(
                dotted(name),
                "{plane} {kind} `{name}` is not plane.subsystem.name"
            );
            if let Some((p, k)) = owner.insert(name, (plane, kind)) {
                panic!("`{name}` is registered twice: {p} {k} and {plane} {kind}");
            }
        }
    }
}

#[test]
fn span_and_slo_tables_match_the_registered_names() {
    let first_cells = |h| table(h).into_iter().map(|r| r[0]).collect();
    same_set("span", first_cells("span"), registered("span"));
    same_set("slo", first_cells("slo"), registered("slo"));
}

#[test]
fn channel_and_mechanism_all_list_every_variant_in_order() {
    let channels: Vec<String> = Channel::all().iter().map(|c| format!("{c:?}")).collect();
    let mechanisms: Vec<String> = Mechanism::all().iter().map(|m| format!("{m:?}")).collect();
    assert_eq!(channels, variants(CHANNELS_RS, "Channel"), "Channel::all()");
    assert_eq!(
        mechanisms,
        variants(CONFIG_RS, "Mechanism"),
        "Mechanism::all()"
    );
}

#[test]
fn architecture_audit_table_names_each_channels_closer() {
    // | channel | sect | baseline | llsc | closed by (ablation that re-opens it) |
    let rows = table("channel");
    let row_names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(row_names, variants(CHANNELS_RS, "Channel"), "audit rows");
    let residual_rows: Vec<&str> = rows
        .iter()
        .filter(|r| r[3] == "**residual**")
        .map(|r| r[0])
        .collect();
    let residuals: Vec<String> = expected_residuals().iter().map(|c| c.to_string()).collect();
    assert_eq!(residual_rows, residuals, "residual rows");
    for ch in Channel::all() {
        let row = rows.iter().find(|r| r[0] == ch.to_string()).expect("a row");
        assert_eq!(row[1], ch.section(), "{ch}: paper section");
        // The trailing `(-label)` of the closed-by cell, if there is one.
        let label = row[4]
            .strip_suffix(')')
            .and_then(|c| c.rsplit_once('('))
            .map(|(_, l)| l)
            .filter(|l| l.starts_with('-'));
        let closer = ch.closed_by().map(Mechanism::label);
        assert_eq!(label, closer, "{ch}: closed-by cell {:?}", row[4]);
    }
}

#[test]
fn fault_table_matches_fault() {
    // One fault of every variant, drawn by the chaos plane's own generator.
    let shape = PlanShape {
        faults: 200,
        realms: vec![RealmId(2)],
        nodes: vec![NodeId(1)],
        ..PlanShape::default()
    };
    let plan = FaultPlan::random(1, &shape);
    let kinds: BTreeMap<String, &str> = plan
        .events()
        .iter()
        .map(|e| (ident(&format!("{:?}", e.fault)).into(), e.fault.kind()))
        .collect();
    // | fault | label | plane hook | what it models |
    let rows = table("fault");
    let row_names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    let decl = variants(FAULT_RS, "Fault");
    assert_eq!(row_names, decl, "fault rows");
    let drawn: BTreeSet<_> = kinds.keys().collect();
    assert_eq!(
        drawn,
        decl.iter().collect(),
        "variants FaultPlan::random draws"
    );
    for row in rows {
        assert_eq!(row[1], kinds[row[0]], "{}: label vs Fault::kind()", row[0]);
    }
}
