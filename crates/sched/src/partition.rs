//! Slurm-style partitions: named subsets of nodes that jobs can be routed
//! to. The paper's environment distinguishes batch partitions, interactive/
//! debug partitions (multi-user by nature — one reason `hidepid` stays
//! necessary under whole-node scheduling), and notes that the LLSC portal
//! can reach apps "on any compute node in any partition" (Sec. IV-E).
//!
//! # Role in the scheduler
//!
//! Partitions feed the engine at three points:
//!
//! * **submit-time validation** — a job naming an unknown partition is
//!   rejected (`Cancelled`) before it ever queues, mirroring Slurm;
//! * **placement eligibility** — [`PartitionTable::eligible_nodes`] returns
//!   the node set a job may use (`None` = unpartitioned cluster, all
//!   nodes), which the placement index and the EASY-shadow/reservation
//!   machinery filter against;
//! * **the policy plane** — with `SchedConfig::fair_share` on, the engine
//!   indexes its per-partition queues and the decayed usage ledger by the
//!   dense [`ClassId`] that [`PartitionTable::resolve_class`] interns each
//!   partition to, so one partition's backlog cannot head-of-line-block
//!   another partition's dispatch or backfill budget — and no partition
//!   name is compared inside a cycle. The per-partition capacity mirrors
//!   that give partitioned shadow builds their flat-copy path are indexed
//!   the same way.
//!
//! The table is expected to be configured once, before jobs run (like
//! `SchedConfig::policy`); `Scheduler::partitions_mut` invalidates every
//! derived structure (memoized placements, shadows, capacity mirrors) to
//! keep mid-run edits safe, at the cost of a rebuild.

use eus_simos::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Dense id of a scheduling class: [`ClassId::GLOBAL`] is the whole,
/// unpartitioned cluster (the resolved name `""`); every partition gets
/// the next id when it is [`add`](PartitionTable::add)ed and keeps it for
/// good. The engine indexes its per-class state, the usage ledger its
/// cells, by this — a partition *name* is compared once, at resolve time,
/// never inside a scheduling cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(u16);

impl ClassId {
    /// The whole cluster: the class of every job while the table is
    /// empty, and the single class of a run without `fair_share`.
    pub const GLOBAL: ClassId = ClassId(0);

    /// Position in a `Vec` indexed by class.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The class at `index`, while ids last.
    pub(crate) fn from_index(index: usize) -> Option<ClassId> {
        u16::try_from(index).ok().map(ClassId)
    }
}

/// A named partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Partition name (`"batch"`, `"interactive"`, `"gpu"`, …).
    pub name: String,
    /// Member nodes.
    pub nodes: BTreeSet<NodeId>,
    /// Default partition for jobs that name none.
    pub is_default: bool,
}

/// Partition registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Duplicate name.
    Duplicate(String),
    /// Unknown partition referenced by a job.
    Unknown(String),
    /// No default partition configured.
    NoDefault,
    /// The table already holds as many partitions as a [`ClassId`] can
    /// number.
    Full,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Duplicate(n) => write!(f, "partition already exists: {n}"),
            PartitionError::Unknown(n) => write!(f, "no such partition: {n}"),
            PartitionError::NoDefault => f.write_str("no default partition configured"),
            PartitionError::Full => f.write_str("partition table is full"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The partition table. When empty, every node is schedulable by every job
/// (the configuration used by most of the test suite).
#[derive(Debug, Clone, Default)]
pub struct PartitionTable {
    /// Partitions in the order they were added: class `c` is
    /// `parts[c.index() − 1]`.
    parts: Vec<Partition>,
    /// Name → class; iterates in name order, the order the engine visits
    /// classes in.
    by_name: BTreeMap<String, ClassId>,
    /// The default partition (lexicographically smallest when several are
    /// flagged, matching the scan order the lookups used before the
    /// cache). `resolve_class(None)` runs on every unpartitioned enqueue,
    /// so the default lookup must be O(1), not a table scan.
    default: Option<ClassId>,
}

impl PartitionTable {
    /// An empty table (partitioning disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a partition.
    pub fn add(
        &mut self,
        name: &str,
        nodes: impl IntoIterator<Item = NodeId>,
        is_default: bool,
    ) -> Result<(), PartitionError> {
        if self.by_name.contains_key(name) {
            return Err(PartitionError::Duplicate(name.to_string()));
        }
        let class = ClassId::from_index(self.parts.len() + 1).ok_or(PartitionError::Full)?;
        if is_default && self.default.is_none_or(|cur| name < self.class_name(cur)) {
            self.default = Some(class);
        }
        self.by_name.insert(name.to_string(), class);
        self.parts.push(Partition {
            name: name.to_string(),
            nodes: nodes.into_iter().collect(),
            is_default,
        });
        Ok(())
    }

    /// The partition behind a class (`None` for [`ClassId::GLOBAL`]).
    pub fn class(&self, class: ClassId) -> Option<&Partition> {
        self.parts.get(class.index().checked_sub(1)?)
    }

    /// A class's resolved name: the partition's, `""` for the whole
    /// cluster — the name [`crate::accounting::FairShareLedger`]'s `&str`
    /// readers take.
    pub fn class_name(&self, class: ClassId) -> &str {
        self.class(class).map_or("", |p| p.name.as_str())
    }

    /// A class's member nodes; `None` = every node (the whole cluster).
    pub fn class_nodes(&self, class: ClassId) -> Option<&BTreeSet<NodeId>> {
        self.class(class).map(|p| &p.nodes)
    }

    /// Every class in the order of its resolved name: the whole cluster
    /// (`""`) first, then the partitions by name.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        std::iter::once(ClassId::GLOBAL).chain(self.by_name.values().copied())
    }

    /// Resolve a job's requested partition to the class it will actually
    /// run in: `None` in, the default partition out (or an error if none
    /// is marked default). With an empty table every request resolves to
    /// [`ClassId::GLOBAL`] — the whole, unpartitioned cluster. This is the
    /// one place a partition name is looked up; the policy plane's queues,
    /// usage ledger and capacity mirrors are all indexed by the result.
    pub fn resolve_class(&self, partition: Option<&str>) -> Result<ClassId, PartitionError> {
        if self.parts.is_empty() {
            return Ok(ClassId::GLOBAL);
        }
        match partition {
            Some(name) => self
                .by_name
                .get(name)
                .copied()
                .ok_or_else(|| PartitionError::Unknown(name.to_string())),
            None => self.default.ok_or(PartitionError::NoDefault),
        }
    }

    /// The set of nodes a job naming `partition` may use. `None` in, default
    /// partition out (or error if none is marked default). With an empty
    /// table, returns `None` meaning "all nodes".
    pub fn eligible_nodes(
        &self,
        partition: Option<&str>,
    ) -> Result<Option<&BTreeSet<NodeId>>, PartitionError> {
        Ok(self.class_nodes(self.resolve_class(partition)?))
    }

    /// [`resolve_class`](Self::resolve_class) by name: `None` = the whole,
    /// unpartitioned cluster.
    #[cfg(test)]
    pub(crate) fn resolve(&self, partition: Option<&str>) -> Result<Option<&str>, PartitionError> {
        Ok(self
            .class(self.resolve_class(partition)?)
            .map(|p| p.name.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_means_all_nodes() {
        let t = PartitionTable::new();
        assert!(t.eligible_nodes(None).unwrap().is_none());
        assert!(t.eligible_nodes(Some("anything")).unwrap().is_none());
    }

    #[test]
    fn default_and_named_routing() {
        let mut t = PartitionTable::new();
        t.add("batch", [NodeId(1), NodeId(2)], true).unwrap();
        t.add("gpu", [NodeId(3)], false).unwrap();
        assert_eq!(
            t.eligible_nodes(None).unwrap().unwrap(),
            &BTreeSet::from([NodeId(1), NodeId(2)])
        );
        assert_eq!(
            t.eligible_nodes(Some("gpu")).unwrap().unwrap(),
            &BTreeSet::from([NodeId(3)])
        );
        assert!(matches!(
            t.eligible_nodes(Some("debug")),
            Err(PartitionError::Unknown(_))
        ));
        assert_eq!(t.parts.len(), 2);
    }

    #[test]
    fn resolve_names_match_eligible_sets() {
        let mut t = PartitionTable::new();
        assert_eq!(t.resolve(None).unwrap(), None, "empty table = all nodes");
        assert_eq!(t.resolve(Some("x")).unwrap(), None);
        t.add("batch", [NodeId(1)], true).unwrap();
        t.add("gpu", [NodeId(2)], false).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("batch"));
        assert_eq!(t.resolve(Some("gpu")).unwrap(), Some("gpu"));
        assert!(matches!(
            t.resolve(Some("nope")),
            Err(PartitionError::Unknown(_))
        ));
    }

    #[test]
    fn classes_are_dense_stable_and_visited_in_name_order() {
        let mut t = PartitionTable::new();
        assert_eq!(t.resolve_class(Some("x")).unwrap(), ClassId::GLOBAL);
        assert_eq!(t.classes().collect::<Vec<_>>(), vec![ClassId::GLOBAL]);
        t.add("zeta", [NodeId(1)], false).unwrap();
        let zeta = t.resolve_class(Some("zeta")).unwrap();
        t.add("alpha", [NodeId(2)], true).unwrap();
        let alpha = t.resolve_class(None).unwrap();
        // Ids follow insertion and never move; visits follow the names.
        assert_eq!((zeta.index(), alpha.index()), (1, 2));
        assert_eq!(t.resolve_class(Some("zeta")).unwrap(), zeta);
        assert_eq!(
            t.classes().collect::<Vec<_>>(),
            vec![ClassId::GLOBAL, alpha, zeta]
        );
        let names: Vec<&str> = t
            .classes()
            .filter_map(|c| t.class(c))
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(t.class_name(ClassId::GLOBAL), "");
        assert_eq!(t.class_name(zeta), "zeta");
        assert!(t.class_nodes(ClassId::GLOBAL).is_none(), "every node");
        assert_eq!(t.class_nodes(alpha).unwrap(), &BTreeSet::from([NodeId(2)]));
    }

    #[test]
    fn cached_default_matches_the_scan_order_it_replaced() {
        // Several partitions flagged default: the cache must answer what
        // the old `values().find(is_default)` scan answered — the
        // lexicographically smallest — regardless of insertion order.
        let mut t = PartitionTable::new();
        t.add("zeta", [NodeId(1)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("zeta"));
        t.add("alpha", [NodeId(2)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("alpha"));
        t.add("mid", [NodeId(3)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("alpha"));
        assert_eq!(
            t.eligible_nodes(None).unwrap().unwrap(),
            &BTreeSet::from([NodeId(2)])
        );
    }

    #[test]
    fn duplicates_and_missing_default() {
        let mut t = PartitionTable::new();
        t.add("batch", [NodeId(1)], false).unwrap();
        assert!(matches!(
            t.add("batch", [NodeId(2)], false),
            Err(PartitionError::Duplicate(_))
        ));
        assert!(matches!(
            t.eligible_nodes(None),
            Err(PartitionError::NoDefault)
        ));
    }
}
