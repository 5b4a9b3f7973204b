//! Machine topology: nodes, packages, cores, logical CPUs, and the
//! per-CPU domain hierarchy built from them.

use crate::domain::{CpuGroup, DomainFlags, DomainLevel, GroupUnit, SchedDomain};
use crate::ids::{ClassId, CoreId, CpuId, NodeId, PackageId};
use std::sync::Arc;

/// Static description of one logical CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CpuInfo {
    core: CoreId,
    package: PackageId,
    node: NodeId,
    /// Hardware-thread index within the core.
    thread: usize,
    /// Core class (0 = performance / the only class). A per-core
    /// property: SMT siblings always share it.
    class: ClassId,
}

/// A machine's CPU topology and scheduler-domain hierarchy.
///
/// Logical CPU numbering follows the paper's testbed: thread `t` of
/// global core `g` is CPU `g + t * n_cores`, so SMT siblings "differ
/// in the most significant bit". On the paper's machine every package
/// has exactly one core, so cores and packages coincide; the CMP
/// builder ([`Topology::build_cmp`]) adds the extra *core* layer the
/// paper's Section 7 describes ("extending energy-aware scheduling for
/// use on a CMP is a matter of adding an additional layer to the
/// domain hierarchy").
#[derive(Clone, Debug)]
pub struct Topology {
    n_nodes: usize,
    packages_per_node: usize,
    cores_per_package: usize,
    threads_per_core: usize,
    /// Leading cores of each package assigned to class 0; 0 means the
    /// whole machine is a single class.
    perf_cores_per_package: usize,
    cpus: Vec<CpuInfo>,
    /// Per-CPU domain stacks, bottom-up. SMT siblings share one
    /// stack: every level of it depends only on the core.
    domains: Vec<Arc<[SchedDomain]>>,
}

impl Topology {
    /// Builds a single-core-per-package topology (the paper's machine
    /// shape).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn build(n_nodes: usize, packages_per_node: usize, threads_per_package: usize) -> Self {
        Topology::build_cmp(n_nodes, packages_per_node, 1, threads_per_package)
    }

    /// Builds a chip-multiprocessor topology: each package holds
    /// `cores_per_package` cores of `threads_per_core` hardware
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn build_cmp(
        n_nodes: usize,
        packages_per_node: usize,
        cores_per_package: usize,
        threads_per_core: usize,
    ) -> Self {
        Topology::build_hybrid(
            n_nodes,
            packages_per_node,
            cores_per_package,
            threads_per_core,
            0,
        )
    }

    /// Builds a (possibly hybrid) CMP topology. The leading
    /// `perf_cores_per_package` cores of every package belong to class
    /// 0 (performance) and the remainder to class 1 (efficiency);
    /// `perf_cores_per_package == 0` builds a homogeneous single-class
    /// machine. The class layout is uniform across packages so a
    /// per-package shard of the machine sees the same shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if
    /// `perf_cores_per_package >= cores_per_package` would leave no
    /// efficiency cores (a hybrid shape needs both classes).
    pub fn build_hybrid(
        n_nodes: usize,
        packages_per_node: usize,
        cores_per_package: usize,
        threads_per_core: usize,
        perf_cores_per_package: usize,
    ) -> Self {
        assert!(n_nodes > 0, "need at least one node");
        assert!(packages_per_node > 0, "need at least one package per node");
        assert!(cores_per_package > 0, "need at least one core per package");
        assert!(threads_per_core > 0, "need at least one thread per core");
        assert!(
            perf_cores_per_package < cores_per_package,
            "a hybrid package needs at least one efficiency core"
        );
        let n_packages = n_nodes * packages_per_node;
        let n_cores = n_packages * cores_per_package;
        let n_cpus = n_cores * threads_per_core;

        let mut cpus = vec![
            CpuInfo {
                core: CoreId(0),
                package: PackageId(0),
                node: NodeId(0),
                thread: 0,
                class: ClassId(0),
            };
            n_cpus
        ];
        for core in 0..n_cores {
            let pkg = core / cores_per_package;
            let in_pkg = core % cores_per_package;
            let class = if perf_cores_per_package == 0 || in_pkg < perf_cores_per_package {
                ClassId(0)
            } else {
                ClassId(1)
            };
            for thread in 0..threads_per_core {
                let cpu = core + thread * n_cores;
                cpus[cpu] = CpuInfo {
                    core: CoreId(core),
                    package: PackageId(pkg),
                    node: NodeId(pkg / packages_per_node),
                    thread,
                    class,
                };
            }
        }

        let mut topo = Topology {
            n_nodes,
            packages_per_node,
            cores_per_package,
            threads_per_core,
            perf_cores_per_package,
            cpus,
            domains: Vec::new(),
        };
        // Every group is tagged with the hardware unit it spans, so the
        // incremental aggregate tree can map groups to per-unit sums in
        // O(1) (see `GroupUnit`). A level above SMT depends only on the
        // unit it spans, so it is built once per package (core level),
        // node (node level) or machine (top level), and every stack
        // above that unit clones it; a clone shares the group list.
        let core_level: Vec<SchedDomain> = if cores_per_package > 1 {
            (0..n_packages)
                .map(|p| topo.core_domain(PackageId(p)))
                .collect()
        } else {
            Vec::new()
        };
        let node_level: Vec<SchedDomain> = if packages_per_node > 1 {
            (0..n_nodes).map(|n| topo.node_domain(NodeId(n))).collect()
        } else {
            Vec::new()
        };
        let top_level = (n_nodes > 1).then(|| topo.top_domain());
        // Thread 0 of core `g` is CPU `g`.
        let stacks: Vec<Arc<[SchedDomain]>> = (0..n_cores)
            .map(|g| {
                let cpu = CpuId(g);
                let mut stack = Vec::new();
                if threads_per_core > 1 {
                    stack.push(topo.smt_domain(CoreId(g)));
                }
                stack.extend(core_level.get(topo.package_of(cpu).0).cloned());
                stack.extend(node_level.get(topo.node_of(cpu).0).cloned());
                stack.extend(top_level.clone());
                // A single-CPU machine still needs one domain so the
                // balancer has something to walk.
                if stack.is_empty() {
                    stack.push(SchedDomain::new(
                        DomainLevel::Top,
                        DomainFlags::default(),
                        vec![CpuGroup::with_unit(vec![cpu], GroupUnit::Cpu(cpu))],
                    ));
                }
                stack.into()
            })
            .collect();
        topo.domains = topo
            .cpus
            .iter()
            .map(|info| Arc::clone(&stacks[info.core.0]))
            .collect();
        topo
    }

    /// The paper's testbed: an IBM xSeries 445 with two NUMA nodes of
    /// four two-way multithreaded Pentium 4 Xeon processors. With
    /// `smt == false` the hyperthreads are disabled, leaving 8 CPUs.
    /// Equivalent to [`crate::TopologyPreset::XSeries445`].
    pub fn xseries445(smt: bool) -> Self {
        Topology::build(2, 4, if smt { 2 } else { 1 })
    }

    /// Starts a [`crate::TopologyBuilder`] for an arbitrary shape.
    pub fn builder() -> crate::TopologyBuilder {
        crate::TopologyBuilder::new()
    }

    /// Number of logical CPUs.
    pub fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Number of physical packages.
    pub fn n_packages(&self) -> usize {
        self.n_nodes * self.packages_per_node
    }

    /// Number of cores across the machine.
    pub fn n_cores(&self) -> usize {
        self.n_packages() * self.cores_per_package
    }

    /// Number of NUMA nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Cores per package (1 = the paper's machine).
    pub fn cores_per_package(&self) -> usize {
        self.cores_per_package
    }

    /// Hardware threads per core (1 = SMT disabled).
    pub fn threads_per_core(&self) -> usize {
        self.threads_per_core
    }

    /// Hardware threads per package.
    pub fn threads_per_package(&self) -> usize {
        self.cores_per_package * self.threads_per_core
    }

    /// Whether SMT is enabled.
    pub fn smt_enabled(&self) -> bool {
        self.threads_per_core > 1
    }

    /// Number of distinct core classes (1 = homogeneous).
    pub fn n_classes(&self) -> usize {
        if self.perf_cores_per_package == 0 {
            1
        } else {
            2
        }
    }

    /// Whether the machine mixes core classes.
    pub fn is_hybrid(&self) -> bool {
        self.n_classes() > 1
    }

    /// Performance (class 0) cores leading each package; 0 on
    /// homogeneous machines.
    pub fn perf_cores_per_package(&self) -> usize {
        self.perf_cores_per_package
    }

    /// The core class of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn class_of(&self, cpu: CpuId) -> ClassId {
        self.cpus[cpu.0].class
    }

    /// The core class of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn class_of_core(&self, core: CoreId) -> ClassId {
        let in_pkg = core.0 % self.cores_per_package;
        if self.perf_cores_per_package == 0 || in_pkg < self.perf_cores_per_package {
            ClassId(0)
        } else {
            ClassId(1)
        }
    }

    /// Whether two CPUs run on cores of the same class.
    pub fn same_class(&self, a: CpuId, b: CpuId) -> bool {
        self.class_of(a) == self.class_of(b)
    }

    /// All logical CPU ids.
    pub fn cpu_ids(&self) -> impl Iterator<Item = CpuId> {
        (0..self.n_cpus()).map(CpuId)
    }

    /// The core of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn core_of(&self, cpu: CpuId) -> CoreId {
        self.cpus[cpu.0].core
    }

    /// The physical package of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn package_of(&self, cpu: CpuId) -> PackageId {
        self.cpus[cpu.0].package
    }

    /// The NUMA node of a logical CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        self.cpus[cpu.0].node
    }

    /// The logical CPUs of a core, in thread order. Like the other
    /// `*_of_*` listings that walk the fixed numbering, it yields an
    /// iterator, so per-step callers (hot-task migration sums a core's
    /// thermal power for every candidate CPU) walk it without
    /// allocating; callers that keep the list collect it.
    pub fn cpus_of_core(&self, core: CoreId) -> impl Iterator<Item = CpuId> {
        let n_cores = self.n_cores();
        (0..self.threads_per_core).map(move |t| CpuId(core.0 + t * n_cores))
    }

    /// The cores of a package, ascending (an iterator, like
    /// [`Topology::cpus_of_core`]).
    pub fn cores_of_package(&self, pkg: PackageId) -> impl Iterator<Item = CoreId> {
        let first = pkg.0 * self.cores_per_package;
        (first..first + self.cores_per_package).map(CoreId)
    }

    /// The logical CPUs of a package, core-major order: cores
    /// ascending, then each core's threads (an iterator, like
    /// [`Topology::cpus_of_core`]; the hot-task trigger sums the
    /// package's thermal power over it on every check). On SMT shapes
    /// that is not ascending: dual2's package 0 is `[0, 4, 1, 5]`.
    /// A list that holds the same CPUs ascending, such as a per-package
    /// frequency domain's, can sum the same per-CPU values to a
    /// different last bit.
    pub fn cpus_of_package(&self, pkg: PackageId) -> impl Iterator<Item = CpuId> + '_ {
        self.cores_of_package(pkg)
            .flat_map(move |c| self.cpus_of_core(c))
    }

    /// The logical CPUs of a node.
    pub fn cpus_of_node(&self, node: NodeId) -> Vec<CpuId> {
        self.cpu_ids()
            .filter(|&c| self.node_of(c) == node)
            .collect()
    }

    /// The SMT sibling threads of `cpu` (same core, excluding `cpu`).
    pub fn siblings(&self, cpu: CpuId) -> Vec<CpuId> {
        self.cpus_of_core(self.core_of(cpu))
            .filter(|&c| c != cpu)
            .collect()
    }

    /// Whether two CPUs are hardware threads of the same core.
    pub fn same_core(&self, a: CpuId, b: CpuId) -> bool {
        self.core_of(a) == self.core_of(b)
    }

    /// Whether two CPUs share one physical package.
    pub fn same_package(&self, a: CpuId, b: CpuId) -> bool {
        self.package_of(a) == self.package_of(b)
    }

    /// Whether two CPUs reside on the same NUMA node.
    pub fn same_node(&self, a: CpuId, b: CpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The domain stack of `cpu`, bottom-up (cheapest balancing first).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn domains(&self, cpu: CpuId) -> &[SchedDomain] {
        &self.domains[cpu.0]
    }

    /// SMT level of `core`: groups are its hardware threads.
    fn smt_domain(&self, core: CoreId) -> SchedDomain {
        let groups = self
            .cpus_of_core(core)
            .map(|c| CpuGroup::with_unit(vec![c], GroupUnit::Cpu(c)))
            .collect();
        SchedDomain::new(
            DomainLevel::Smt,
            DomainFlags {
                share_cpu_power: true,
                crosses_node: false,
            },
            groups,
        )
    }

    /// Core level of `pkg`: groups are its cores. Cores have their own
    /// pipelines and (transiently) their own temperatures, so energy
    /// balancing *does* run here (Section 7).
    fn core_domain(&self, pkg: PackageId) -> SchedDomain {
        let groups = self
            .cores_of_package(pkg)
            .map(|c| CpuGroup::with_unit(self.cpus_of_core(c).collect(), GroupUnit::Core(c)))
            .collect();
        SchedDomain::new(DomainLevel::Core, DomainFlags::default(), groups)
    }

    /// Node level of `node`: groups are its packages.
    fn node_domain(&self, node: NodeId) -> SchedDomain {
        let groups = (0..self.packages_per_node)
            .map(|i| {
                let pkg = PackageId(node.0 * self.packages_per_node + i);
                CpuGroup::with_unit(self.cpus_of_package(pkg).collect(), GroupUnit::Package(pkg))
            })
            .collect();
        SchedDomain::new(DomainLevel::Node, DomainFlags::default(), groups)
    }

    /// Top level: groups are the nodes.
    fn top_domain(&self) -> SchedDomain {
        let groups = (0..self.n_nodes)
            .map(|n| CpuGroup::with_unit(self.cpus_of_node(NodeId(n)), GroupUnit::Node(NodeId(n))))
            .collect();
        SchedDomain::new(
            DomainLevel::Top,
            DomainFlags {
                share_cpu_power: false,
                crosses_node: true,
            },
            groups,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xseries_smt_shape() {
        let t = Topology::xseries445(true);
        assert_eq!(t.n_cpus(), 16);
        assert_eq!(t.n_packages(), 8);
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.n_nodes(), 2);
        assert!(t.smt_enabled());
    }

    #[test]
    fn xseries_no_smt_shape() {
        let t = Topology::xseries445(false);
        assert_eq!(t.n_cpus(), 8);
        assert_eq!(t.n_packages(), 8);
        assert!(!t.smt_enabled());
        // No SMT level in the hierarchy.
        let levels: Vec<_> = t.domains(CpuId(0)).iter().map(|d| d.level()).collect();
        assert_eq!(levels, vec![DomainLevel::Node, DomainLevel::Top]);
    }

    #[test]
    fn paper_sibling_numbering() {
        // "CPU 0 is the sibling of CPU 8, CPU 1 is the sibling of CPU 9,
        // and so forth."
        let t = Topology::xseries445(true);
        for i in 0..8 {
            assert_eq!(t.siblings(CpuId(i)), vec![CpuId(i + 8)]);
            assert_eq!(t.siblings(CpuId(i + 8)), vec![CpuId(i)]);
            assert!(t.same_package(CpuId(i), CpuId(i + 8)));
            assert!(t.same_core(CpuId(i), CpuId(i + 8)));
        }
        assert!(!t.same_package(CpuId(0), CpuId(1)));
    }

    #[test]
    fn paper_node_assignment() {
        // "CPUs 0 to 3 (with their siblings 8 to 11) reside on node 0,
        // whereas CPUs 4 to 7 (with their siblings 12 to 15) reside on
        // node 1."
        let t = Topology::xseries445(true);
        for i in 0..4 {
            assert_eq!(t.node_of(CpuId(i)), NodeId(0));
            assert_eq!(t.node_of(CpuId(i + 8)), NodeId(0));
        }
        for i in 4..8 {
            assert_eq!(t.node_of(CpuId(i)), NodeId(1));
            assert_eq!(t.node_of(CpuId(i + 8)), NodeId(1));
        }
    }

    #[test]
    fn three_level_hierarchy_with_smt() {
        let t = Topology::xseries445(true);
        let stack = t.domains(CpuId(0));
        let levels: Vec<_> = stack.iter().map(|d| d.level()).collect();
        assert_eq!(
            levels,
            vec![DomainLevel::Smt, DomainLevel::Node, DomainLevel::Top]
        );
        // The SMT domain spans exactly the two siblings and carries the
        // share-cpu-power flag the energy balancer checks.
        assert_eq!(
            stack[0].span().collect::<Vec<_>>(),
            vec![CpuId(0), CpuId(8)]
        );
        assert!(stack[0].flags().share_cpu_power);
        assert!(!stack[1].flags().share_cpu_power);
        assert!(stack[2].flags().crosses_node);
        // Node domain: 4 groups (packages), spanning 8 logical CPUs.
        assert_eq!(stack[1].groups().len(), 4);
        assert_eq!(stack[1].span().count(), 8);
        // Top domain: 2 groups (nodes), spanning all 16.
        assert_eq!(stack[2].groups().len(), 2);
        assert_eq!(stack[2].span().count(), 16);
    }

    #[test]
    fn cmp_adds_a_core_level() {
        // Section 7: a dual-core version of the testbed gets a fourth
        // hierarchy layer.
        let t = Topology::build_cmp(2, 4, 2, 2);
        assert_eq!(t.n_cpus(), 32);
        assert_eq!(t.n_cores(), 16);
        assert_eq!(t.n_packages(), 8);
        let stack = t.domains(CpuId(0));
        let levels: Vec<_> = stack.iter().map(|d| d.level()).collect();
        assert_eq!(
            levels,
            vec![
                DomainLevel::Smt,
                DomainLevel::Core,
                DomainLevel::Node,
                DomainLevel::Top
            ]
        );
        // The core level spans the package's 4 hardware threads,
        // grouped per core, and energy balancing is allowed there.
        assert_eq!(stack[1].span().count(), 4);
        assert_eq!(stack[1].groups().len(), 2);
        assert!(!stack[1].flags().share_cpu_power);
        // The SMT level still shares chip power.
        assert!(stack[0].flags().share_cpu_power);
    }

    #[test]
    fn cmp_core_and_package_relations() {
        let t = Topology::build_cmp(1, 2, 2, 2);
        // 8 CPUs: cores 0..4, packages 0..2. CPU = core + thread*4.
        assert_eq!(t.core_of(CpuId(0)), CoreId(0));
        assert_eq!(t.core_of(CpuId(4)), CoreId(0)); // Thread 1 of core 0.
        assert_eq!(t.core_of(CpuId(1)), CoreId(1));
        assert!(t.same_core(CpuId(0), CpuId(4)));
        assert!(!t.same_core(CpuId(0), CpuId(1)));
        // Cores 0 and 1 share package 0.
        assert!(t.same_package(CpuId(0), CpuId(1)));
        assert!(!t.same_package(CpuId(0), CpuId(2)));
        assert_eq!(
            t.cores_of_package(PackageId(1)).collect::<Vec<_>>(),
            vec![CoreId(2), CoreId(3)]
        );
        assert_eq!(
            t.cpus_of_package(PackageId(0)).collect::<Vec<_>>(),
            vec![CpuId(0), CpuId(4), CpuId(1), CpuId(5)]
        );
        assert_eq!(t.siblings(CpuId(1)), vec![CpuId(5)]);
    }

    #[test]
    fn every_domain_contains_its_cpu() {
        for topo in [
            Topology::xseries445(false),
            Topology::xseries445(true),
            Topology::build_cmp(2, 2, 2, 2),
        ] {
            for cpu in topo.cpu_ids() {
                for d in topo.domains(cpu) {
                    assert!(d.contains(cpu), "{cpu} missing from {:?}", d.level());
                    assert!(d.local_group_index(cpu).is_some());
                }
            }
        }
    }

    #[test]
    fn domain_spans_nest_upward() {
        for topo in [Topology::xseries445(true), Topology::build_cmp(2, 2, 4, 2)] {
            for cpu in topo.cpu_ids() {
                let stack = topo.domains(cpu);
                for pair in stack.windows(2) {
                    let lower: Vec<_> = pair[0].span().collect();
                    let upper: Vec<_> = pair[1].span().collect();
                    for c in &lower {
                        assert!(upper.contains(c), "span of lower level not nested");
                    }
                    assert!(lower.len() < upper.len());
                }
            }
        }
    }

    #[test]
    fn groups_partition_span() {
        for topo in [
            Topology::xseries445(false),
            Topology::xseries445(true),
            Topology::build_cmp(1, 2, 4, 2),
        ] {
            for cpu in topo.cpu_ids() {
                for d in topo.domains(cpu) {
                    let total: usize = d.groups().iter().map(|g| g.len()).sum();
                    assert_eq!(total, d.span().count());
                }
            }
        }
    }

    #[test]
    fn package_cpu_listing() {
        let t = Topology::xseries445(true);
        assert_eq!(
            t.cpus_of_package(PackageId(2)).collect::<Vec<_>>(),
            vec![CpuId(2), CpuId(10)]
        );
        assert_eq!(
            t.cpus_of_node(NodeId(1)),
            vec![
                CpuId(4),
                CpuId(5),
                CpuId(6),
                CpuId(7),
                CpuId(12),
                CpuId(13),
                CpuId(14),
                CpuId(15)
            ]
        );
    }

    #[test]
    fn generated_groups_are_unit_tagged() {
        // Every group of a generated hierarchy names the hardware unit
        // it spans, and the tag's CPU listing is exactly the group's.
        // A node's reference listing filters every CPU.
        let presets = crate::TopologyPreset::all()
            .into_iter()
            .chain(crate::TopologyPreset::hybrids())
            .chain([crate::TopologyPreset::XSeries445 { smt: true }])
            .map(crate::TopologyPreset::build);
        for topo in presets.chain([Topology::build_cmp(2, 2, 2, 2), Topology::build(1, 1, 1)]) {
            for cpu in topo.cpu_ids() {
                for d in topo.domains(cpu) {
                    for g in d.groups() {
                        let unit = g.unit().expect("generated groups are tagged");
                        let cpus = match unit {
                            GroupUnit::Cpu(c) => vec![c],
                            GroupUnit::Core(c) => topo.cpus_of_core(c).collect(),
                            GroupUnit::Package(p) => topo.cpus_of_package(p).collect(),
                            GroupUnit::Node(n) => {
                                topo.cpu_ids().filter(|&c| topo.node_of(c) == n).collect()
                            }
                        };
                        assert_eq!(g.cpus(), cpus.as_slice(), "{:?} mistagged", d.level());
                    }
                }
            }
        }
    }

    #[test]
    fn every_stack_matches_its_definition() {
        // Each CPU's stack, written out level by level from the
        // hierarchy's definition: the levels the shape has, bottom-up,
        // each listing its units in ascending order with their tags
        // and flags. A node's listing filters every CPU.
        let presets = crate::TopologyPreset::all()
            .into_iter()
            .chain(crate::TopologyPreset::hybrids())
            .chain([crate::TopologyPreset::XSeries445 { smt: true }])
            .map(crate::TopologyPreset::build);
        for topo in presets.chain([Topology::build_cmp(2, 2, 2, 2), Topology::build(1, 1, 1)]) {
            for cpu in topo.cpu_ids() {
                let mut expected = Vec::new();
                if topo.threads_per_core() > 1 {
                    let groups = topo
                        .cpus_of_core(topo.core_of(cpu))
                        .map(|c| CpuGroup::with_unit(vec![c], GroupUnit::Cpu(c)))
                        .collect();
                    let flags = DomainFlags {
                        share_cpu_power: true,
                        crosses_node: false,
                    };
                    expected.push(SchedDomain::new(DomainLevel::Smt, flags, groups));
                }
                if topo.cores_per_package() > 1 {
                    let groups = topo
                        .cores_of_package(topo.package_of(cpu))
                        .map(|c| {
                            CpuGroup::with_unit(topo.cpus_of_core(c).collect(), GroupUnit::Core(c))
                        })
                        .collect();
                    let flags = DomainFlags::default();
                    expected.push(SchedDomain::new(DomainLevel::Core, flags, groups));
                }
                let packages = topo.n_packages() / topo.n_nodes();
                if packages > 1 {
                    let node = topo.node_of(cpu);
                    let groups = (0..packages)
                        .map(|i| PackageId(node.0 * packages + i))
                        .map(|p| {
                            CpuGroup::with_unit(
                                topo.cpus_of_package(p).collect(),
                                GroupUnit::Package(p),
                            )
                        })
                        .collect();
                    let flags = DomainFlags::default();
                    expected.push(SchedDomain::new(DomainLevel::Node, flags, groups));
                }
                if topo.n_nodes() > 1 {
                    let groups = (0..topo.n_nodes())
                        .map(NodeId)
                        .map(|n| {
                            let cpus = topo.cpu_ids().filter(|&c| topo.node_of(c) == n);
                            CpuGroup::with_unit(cpus.collect(), GroupUnit::Node(n))
                        })
                        .collect();
                    let flags = DomainFlags {
                        share_cpu_power: false,
                        crosses_node: true,
                    };
                    expected.push(SchedDomain::new(DomainLevel::Top, flags, groups));
                }
                if expected.is_empty() {
                    let group = CpuGroup::with_unit(vec![cpu], GroupUnit::Cpu(cpu));
                    let flags = DomainFlags::default();
                    expected.push(SchedDomain::new(DomainLevel::Top, flags, vec![group]));
                }
                assert_eq!(topo.domains(cpu), expected.as_slice(), "{cpu}");
            }
        }
    }

    #[test]
    fn single_cpu_machine_gets_degenerate_domain() {
        let t = Topology::build(1, 1, 1);
        assert_eq!(t.n_cpus(), 1);
        let stack = t.domains(CpuId(0));
        assert_eq!(stack.len(), 1);
        assert_eq!(stack[0].span().collect::<Vec<_>>(), vec![CpuId(0)]);
    }

    #[test]
    fn uma_smp_has_single_level() {
        // A 1-node 4-package machine without SMT: only the node level.
        let t = Topology::build(1, 4, 1);
        let stack = t.domains(CpuId(2));
        assert_eq!(stack.len(), 1);
        assert_eq!(stack[0].level(), DomainLevel::Node);
        assert_eq!(stack[0].groups().len(), 4);
    }

    #[test]
    fn single_package_cmp_has_core_level_only_plus_smt() {
        // One package with 4 dual-threaded cores: SMT + Core levels.
        let t = Topology::build_cmp(1, 1, 4, 2);
        let stack = t.domains(CpuId(0));
        let levels: Vec<_> = stack.iter().map(|d| d.level()).collect();
        assert_eq!(levels, vec![DomainLevel::Smt, DomainLevel::Core]);
        assert_eq!(stack[1].groups().len(), 4);
    }

    #[test]
    fn homogeneous_machines_are_single_class() {
        for topo in [
            Topology::xseries445(true),
            Topology::build_cmp(2, 2, 4, 2),
            Topology::build(1, 1, 1),
        ] {
            assert_eq!(topo.n_classes(), 1);
            assert!(!topo.is_hybrid());
            for cpu in topo.cpu_ids() {
                assert_eq!(topo.class_of(cpu), ClassId(0));
            }
        }
    }

    #[test]
    fn hybrid_class_layout_is_per_package_uniform() {
        // 2 packages x 8 cores, 4 performance + 4 efficiency, SMT on
        // the whole machine.
        let t = Topology::build_hybrid(1, 2, 8, 2, 4);
        assert_eq!(t.n_classes(), 2);
        assert!(t.is_hybrid());
        assert_eq!(t.perf_cores_per_package(), 4);
        for core in 0..t.n_cores() {
            let expect = if core % 8 < 4 { ClassId(0) } else { ClassId(1) };
            assert_eq!(t.class_of_core(CoreId(core)), expect, "core {core}");
            for cpu in t.cpus_of_core(CoreId(core)) {
                assert_eq!(t.class_of(cpu), expect, "{cpu}");
            }
        }
        // SMT siblings share a class by construction.
        for cpu in t.cpu_ids() {
            for sib in t.siblings(cpu) {
                assert!(t.same_class(cpu, sib));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one efficiency core")]
    fn all_perf_hybrid_rejected() {
        let _ = Topology::build_hybrid(1, 1, 4, 1, 4);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Topology::build(0, 4, 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Topology::build_cmp(1, 1, 0, 1);
    }
}
