//! Scheduler domains and CPU groups.

use crate::ids::{CoreId, CpuId, NodeId, PackageId};
use ebs_units::SimDuration;
use std::sync::Arc;

/// The level of a domain in the hierarchy, bottom-up.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DomainLevel {
    /// SMT siblings sharing one core's pipeline.
    Smt,
    /// Cores sharing one physical package (die + heat sink) — the
    /// extra hierarchy layer of the paper's Section 7 CMP extension.
    Core,
    /// Physical processors sharing one NUMA node.
    Node,
    /// All NUMA nodes of the system.
    Top,
}

impl DomainLevel {
    /// A human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            DomainLevel::Smt => "smt",
            DomainLevel::Core => "core",
            DomainLevel::Node => "node",
            DomainLevel::Top => "top",
        }
    }
}

/// Behavioural flags of a domain, mirroring Linux's `SD_*` flags where
/// relevant to the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DomainFlags {
    /// The domain's CPUs are hardware threads of one physical processor
    /// and share its power budget. The paper marks these domains so the
    /// scheduler *skips the energy balancing step* for them (Section
    /// 4.7) — moving heat between siblings cannot cool the package.
    pub share_cpu_power: bool,
    /// Balancing across this domain crosses a NUMA node boundary and
    /// breaks node affinity (Section 4.1).
    pub crosses_node: bool,
}

/// The topological unit a [`CpuGroup`] coincides with. Every group the
/// generated hierarchies produce *is* exactly one hardware unit — a
/// single logical CPU (SMT level), a core (core level), a package
/// (node level), or a NUMA node (top level) — so consumers maintaining
/// per-unit aggregate tables (the scheduler's incremental load/power
/// sums) can map a group to its table slot in O(1) instead of scanning
/// the group's CPUs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GroupUnit {
    /// The group is a single logical CPU.
    Cpu(CpuId),
    /// The group spans one core's hardware threads.
    Core(CoreId),
    /// The group spans one physical package.
    Package(PackageId),
    /// The group spans one NUMA node.
    Node(NodeId),
}

/// A set of CPUs forming one balancing unit inside a domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CpuGroup {
    cpus: Vec<CpuId>,
    unit: Option<GroupUnit>,
}

impl CpuGroup {
    /// Creates a group over the given CPUs, with no unit tag (aggregate
    /// consumers fall back to scanning such groups).
    ///
    /// # Panics
    ///
    /// Panics if the group is empty.
    pub fn new(cpus: Vec<CpuId>) -> Self {
        assert!(!cpus.is_empty(), "CPU group must not be empty");
        CpuGroup { cpus, unit: None }
    }

    /// Creates a group tagged with the hardware unit it spans. The
    /// caller guarantees the CPU list is exactly that unit's CPUs (the
    /// generated hierarchies construct groups from the unit listings,
    /// so this holds by construction).
    pub fn with_unit(cpus: Vec<CpuId>, unit: GroupUnit) -> Self {
        let mut g = CpuGroup::new(cpus);
        g.unit = Some(unit);
        g
    }

    /// The hardware unit this group coincides with, if tagged.
    pub fn unit(&self) -> Option<GroupUnit> {
        self.unit
    }

    /// The group's CPUs.
    pub fn cpus(&self) -> &[CpuId] {
        &self.cpus
    }

    /// Whether the group contains `cpu`.
    pub fn contains(&self, cpu: CpuId) -> bool {
        self.cpus.contains(&cpu)
    }

    /// Number of CPUs in the group.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Whether the group is empty (never true for constructed groups).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }
}

/// One scheduler domain: a span of CPUs partitioned into groups. A
/// clone shares the group list, so every CPU whose stack holds the same
/// unit's domain holds one list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchedDomain {
    level: DomainLevel,
    flags: DomainFlags,
    groups: Arc<[CpuGroup]>,
}

impl SchedDomain {
    /// Creates a domain from its groups.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups or a CPU appears in two groups.
    pub fn new(level: DomainLevel, flags: DomainFlags, groups: Vec<CpuGroup>) -> Self {
        assert!(!groups.is_empty(), "domain must have at least one group");
        // One bit per CPU id keeps the check linear in the span.
        let words = groups
            .iter()
            .flat_map(|g| g.cpus())
            .map(|c| c.0 / 64 + 1)
            .max()
            .unwrap_or(0);
        let mut seen = vec![0u64; words];
        for g in &groups {
            for &c in g.cpus() {
                let (word, bit) = (c.0 / 64, 1u64 << (c.0 % 64));
                assert!(seen[word] & bit == 0, "{c} appears in two groups");
                seen[word] |= bit;
            }
        }
        SchedDomain {
            level,
            flags,
            groups: groups.into(),
        }
    }

    /// The domain's level.
    pub fn level(&self) -> DomainLevel {
        self.level
    }

    /// The domain's flags.
    pub fn flags(&self) -> DomainFlags {
        self.flags
    }

    /// The domain's groups.
    pub fn groups(&self) -> &[CpuGroup] {
        &self.groups
    }

    /// All CPUs spanned by the domain, in group order.
    pub fn span(&self) -> impl Iterator<Item = CpuId> + '_ {
        self.groups.iter().flat_map(|g| g.cpus().iter().copied())
    }

    /// Whether the domain's span contains `cpu`.
    pub fn contains(&self, cpu: CpuId) -> bool {
        self.groups.iter().any(|g| g.contains(cpu))
    }

    /// Index of the group containing `cpu`, if any — the *local group*
    /// from that CPU's perspective.
    pub fn local_group_index(&self, cpu: CpuId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(cpu))
    }

    /// The balancing interval for this domain level: higher levels
    /// balance less often because their migrations are costlier
    /// (Linux scales the interval with the level; we follow suit).
    pub fn balance_interval(&self) -> SimDuration {
        match self.level {
            DomainLevel::Smt => SimDuration::from_millis(64),
            DomainLevel::Core => SimDuration::from_millis(96),
            DomainLevel::Node => SimDuration::from_millis(128),
            DomainLevel::Top => SimDuration::from_millis(256),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus(ids: &[usize]) -> Vec<CpuId> {
        ids.iter().map(|&i| CpuId(i)).collect()
    }

    #[test]
    fn group_membership() {
        let g = CpuGroup::new(cpus(&[0, 8]));
        assert!(g.contains(CpuId(0)));
        assert!(g.contains(CpuId(8)));
        assert!(!g.contains(CpuId(1)));
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        let _ = CpuGroup::new(vec![]);
    }

    #[test]
    fn unit_tags_round_trip() {
        use crate::ids::PackageId;
        assert_eq!(CpuGroup::new(cpus(&[0, 1])).unit(), None);
        let g = CpuGroup::with_unit(cpus(&[0, 1]), GroupUnit::Package(PackageId(3)));
        assert_eq!(g.unit(), Some(GroupUnit::Package(PackageId(3))));
        assert_eq!(g.cpus(), cpus(&[0, 1]).as_slice());
    }

    #[test]
    fn domain_span_and_local_group() {
        let d = SchedDomain::new(
            DomainLevel::Node,
            DomainFlags::default(),
            vec![CpuGroup::new(cpus(&[0, 8])), CpuGroup::new(cpus(&[1, 9]))],
        );
        assert_eq!(d.span().collect::<Vec<_>>(), cpus(&[0, 8, 1, 9]));
        assert_eq!(d.local_group_index(CpuId(9)), Some(1));
        assert_eq!(d.local_group_index(CpuId(2)), None);
        assert!(d.contains(CpuId(8)));
        assert!(!d.contains(CpuId(4)));
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn overlapping_groups_rejected() {
        let _ = SchedDomain::new(
            DomainLevel::Top,
            DomainFlags::default(),
            vec![CpuGroup::new(cpus(&[0, 1])), CpuGroup::new(cpus(&[1, 2]))],
        );
    }

    #[test]
    fn balance_interval_grows_with_level() {
        let mk = |level| {
            SchedDomain::new(
                level,
                DomainFlags::default(),
                vec![CpuGroup::new(cpus(&[0]))],
            )
        };
        assert!(mk(DomainLevel::Smt).balance_interval() < mk(DomainLevel::Core).balance_interval());
        assert!(
            mk(DomainLevel::Core).balance_interval() < mk(DomainLevel::Node).balance_interval()
        );
        assert!(mk(DomainLevel::Node).balance_interval() < mk(DomainLevel::Top).balance_interval());
    }

    #[test]
    fn level_names() {
        assert_eq!(DomainLevel::Smt.name(), "smt");
        assert_eq!(DomainLevel::Core.name(), "core");
        assert_eq!(DomainLevel::Node.name(), "node");
        assert_eq!(DomainLevel::Top.name(), "top");
    }
}
