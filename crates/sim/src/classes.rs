//! Core classes and the frequency-domain map.
//!
//! A heterogeneous ("hybrid") machine mixes *core classes* — think
//! modern P/E x86 parts or big.LITTLE ladders. Each class runs its own
//! P-state table, retires a different number of instructions per cycle
//! ([`CoreClass::ipc_factor`]), burns energy by its own counter-rate
//! ground truth, and sinks heat through its own thermal coefficient.
//! [`ClassCatalog`] resolves a [`SimConfig`](crate::SimConfig) into
//! the per-class parameter set, and [`DomainMap`] lays the machine's
//! frequency domains out at the configured
//! [`DomainScope`](ebs_dvfs::DomainScope) granularity.
//!
//! On homogeneous configs the catalog has exactly one class whose
//! parameters reproduce the legacy construction bit-for-bit, and the
//! per-package domain map is index-identical to the per-package arrays
//! the engine always kept — which is what keeps single-class runs
//! byte-identical through the refactor.

use crate::config::SimConfig;
use ebs_counters::GroundTruth;
use ebs_dvfs::{DomainScope, PStateTable};
use ebs_topology::{ClassId, CpuId, Topology};
use ebs_units::{Hertz, Volts};

/// The full parameter set of one core class.
#[derive(Clone, Debug)]
pub struct CoreClass {
    /// A short name for tables and CSV rows.
    pub name: &'static str,
    /// The class's counter-rate/power ground truth (per-event
    /// energies, halt power, leakage, nominal clock).
    pub truth: GroundTruth,
    /// The class's P-state ladder. Execution speed follows the
    /// table's *absolute* frequencies, so classes with different
    /// nominal clocks run at genuinely different speeds.
    pub table: PStateTable,
    /// Instructions retired per cycle relative to class 0 at equal
    /// clock (narrower pipelines retire less per cycle).
    pub ipc_factor: f64,
    /// Thermal-resistance multiplier of the class's cores (<1 = the
    /// class is easier to cool per unit of die area).
    pub thermal_factor: f64,
}

/// The machine's classes, class 0 first.
#[derive(Clone, Debug)]
pub struct ClassCatalog {
    classes: Vec<CoreClass>,
    /// Per-class capacity normalized so class 0 is exactly 1.0.
    capacities: Vec<f64>,
}

impl ClassCatalog {
    /// Resolves a config into its class catalog. Class 0 always
    /// reproduces the legacy homogeneous construction (the paper's
    /// Xeon truth, the configured DVFS table or a pinned nominal
    /// state); hybrid configs add the efficiency class.
    pub fn for_config(cfg: &SimConfig) -> Self {
        let truth = GroundTruth::p4_xeon_2200();
        let table = match &cfg.dvfs {
            Some(spec) => spec.table.clone(),
            None => PStateTable::nominal_only(Hertz(truth.freq_hz), Volts(1.5)),
        };
        let mut classes = vec![CoreClass {
            name: "perf",
            truth,
            table,
            ipc_factor: 1.0,
            thermal_factor: 1.0,
        }];
        if cfg.is_hybrid() {
            let truth = GroundTruth::efficiency_core();
            let table = match &cfg.dvfs {
                Some(_) => PStateTable::efficiency_core(),
                None => PStateTable::nominal_only(Hertz(truth.freq_hz), Volts(1.10)),
            };
            classes.push(CoreClass {
                name: "eff",
                truth,
                table,
                ipc_factor: 0.75,
                thermal_factor: 0.8,
            });
        }
        let base = classes[0].ipc_factor * classes[0].table.nominal().frequency.0;
        let capacities = classes
            .iter()
            .map(|c| c.ipc_factor * c.table.nominal().frequency.0 / base)
            .collect();
        ClassCatalog {
            classes,
            capacities,
        }
    }

    /// Number of classes (1 = homogeneous).
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class's parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn get(&self, class: ClassId) -> &CoreClass {
        &self.classes[class.0]
    }

    /// Iterates the classes, class 0 first.
    pub fn iter(&self) -> impl Iterator<Item = &CoreClass> {
        self.classes.iter()
    }

    /// Compute capacity of a class: nominal instruction throughput
    /// relative to class 0 (exactly 1.0 for class 0).
    pub fn capacity(&self, class: ClassId) -> f64 {
        self.capacities[class.0]
    }

    /// Per-logical-CPU capacities for a topology built from the same
    /// config.
    pub fn cpu_capacities(&self, topo: &Topology) -> Vec<f64> {
        topo.cpu_ids()
            .map(|c| self.capacity(topo.class_of(c)))
            .collect()
    }
}

/// The machine's frequency domains at a given scope: which CPUs share
/// each clock/voltage plane, and which package and class each plane
/// belongs to.
///
/// Under [`DomainScope::PerPackage`] domain `i` covers exactly package
/// `i` (CPU lists in ascending CPU order — index-identical to the
/// engine's historical per-package arrays); under
/// [`DomainScope::PerCore`] domain `i` covers exactly core `i` (thread
/// order).
#[derive(Clone, Debug)]
pub struct DomainMap {
    scope: DomainScope,
    dom_cpus: Vec<Vec<CpuId>>,
    cpu_dom: Vec<usize>,
    dom_pkg: Vec<usize>,
    dom_class: Vec<ClassId>,
    pkg_doms: Vec<Vec<usize>>,
}

impl DomainMap {
    /// Lays out the domains of `topo` at `scope`.
    pub fn new(topo: &Topology, scope: DomainScope) -> Self {
        let n_domains = match scope {
            DomainScope::PerPackage => topo.n_packages(),
            DomainScope::PerCore => topo.n_cores(),
        };
        let mut dom_cpus = vec![Vec::new(); n_domains];
        let mut cpu_dom = vec![0usize; topo.n_cpus()];
        for cpu in topo.cpu_ids() {
            let dom = match scope {
                DomainScope::PerPackage => topo.package_of(cpu).0,
                DomainScope::PerCore => topo.core_of(cpu).0,
            };
            dom_cpus[dom].push(cpu);
            cpu_dom[cpu.0] = dom;
        }
        let (dom_pkg, dom_class): (Vec<usize>, Vec<ClassId>) = (0..n_domains)
            .map(|d| match scope {
                DomainScope::PerPackage => {
                    let first = dom_cpus[d][0];
                    (d, topo.class_of(first))
                }
                DomainScope::PerCore => (
                    topo.package_of(dom_cpus[d][0]).0,
                    topo.class_of_core(ebs_topology::CoreId(d)),
                ),
            })
            .unzip();
        let mut pkg_doms = vec![Vec::new(); topo.n_packages()];
        for (d, &pkg) in dom_pkg.iter().enumerate() {
            pkg_doms[pkg].push(d);
        }
        DomainMap {
            scope,
            dom_cpus,
            cpu_dom,
            dom_pkg,
            dom_class,
            pkg_doms,
        }
    }

    /// The scope the map was laid out at.
    pub fn scope(&self) -> DomainScope {
        self.scope
    }

    /// Number of frequency domains.
    pub fn n_domains(&self) -> usize {
        self.dom_cpus.len()
    }

    /// The logical CPUs sharing domain `dom`, ascending. A package's
    /// own list ([`ebs_topology::Topology::cpus_of_package`]) is
    /// core-major instead, so on SMT shapes a per-package domain and its
    /// package list the same CPUs in different orders (dual2's package 0
    /// is `[0, 4, 1, 5]`, its domain `[0, 1, 4, 5]`), and their sums of
    /// the same per-CPU values can differ in the last bit.
    pub fn cpus(&self, dom: usize) -> &[CpuId] {
        &self.dom_cpus[dom]
    }

    /// The domain of a logical CPU.
    pub fn domain_of(&self, cpu: CpuId) -> usize {
        self.cpu_dom[cpu.0]
    }

    /// The package a domain belongs to.
    pub fn package_of(&self, dom: usize) -> usize {
        self.dom_pkg[dom]
    }

    /// The core class of a domain.
    pub fn class_of(&self, dom: usize) -> ClassId {
        self.dom_class[dom]
    }

    /// The domains of one package, ascending.
    pub fn domains_of_package(&self, pkg: usize) -> &[usize] {
        &self.pkg_doms[pkg]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_topology::TopologyPreset;

    #[test]
    fn homogeneous_catalog_is_single_legacy_class() {
        let cfg = SimConfig::xseries445();
        let cat = ClassCatalog::for_config(&cfg);
        assert_eq!(cat.n_classes(), 1);
        let c = cat.get(ClassId(0));
        assert_eq!(c.truth, GroundTruth::p4_xeon_2200());
        assert_eq!(c.table.len(), 1);
        assert_eq!(c.table.nominal().frequency, Hertz(2.2e9));
        assert_eq!(cat.capacity(ClassId(0)), 1.0);
        // DVFS pulls in the configured ladder.
        let cat = ClassCatalog::for_config(&cfg.dvfs(crate::DvfsSpec::default()));
        assert_eq!(cat.get(ClassId(0)).table.len(), 6);
    }

    #[test]
    fn hybrid_catalog_adds_the_efficiency_class() {
        let cfg = SimConfig::preset(TopologyPreset::Hybrid8);
        let cat = ClassCatalog::for_config(&cfg);
        assert_eq!(cat.n_classes(), 2);
        let e = cat.get(ClassId(1));
        assert_eq!(e.name, "eff");
        assert!(e.ipc_factor < 1.0);
        assert!(e.thermal_factor < 1.0);
        assert!(e.truth.halt_power < cat.get(ClassId(0)).truth.halt_power);
        // Without DVFS the efficiency ladder degenerates to a pinned
        // nominal state, like the legacy class.
        assert_eq!(e.table.len(), 1);
        let cap = cat.capacity(ClassId(1));
        assert!(cap > 0.0 && cap < 1.0, "{cap}");
        // With DVFS it runs its own multi-state ladder.
        let cat = ClassCatalog::for_config(&cfg.dvfs(crate::DvfsSpec::default()));
        assert_eq!(cat.get(ClassId(1)).table.len(), 5);
        assert_eq!(cat.get(ClassId(0)).table.len(), 6);
    }

    #[test]
    fn per_package_map_is_index_identical_to_packages() {
        let topo = TopologyPreset::XSeries445 { smt: true }.build();
        let map = DomainMap::new(&topo, DomainScope::PerPackage);
        assert_eq!(map.n_domains(), topo.n_packages());
        for d in 0..map.n_domains() {
            assert_eq!(map.package_of(d), d);
            assert_eq!(map.class_of(d), ClassId(0));
            // Ascending CPU order, exactly the package membership.
            let cpus = map.cpus(d);
            assert!(cpus.windows(2).all(|w| w[0] < w[1]));
            for &c in cpus {
                assert_eq!(topo.package_of(c).0, d);
                assert_eq!(map.domain_of(c), d);
            }
            assert_eq!(map.domains_of_package(d), &[d]);
        }
    }

    #[test]
    fn package_lists_are_core_major_and_domain_lists_ascending() {
        let topo = TopologyPreset::Dual.build();
        let map = DomainMap::new(&topo, DomainScope::PerPackage);
        let ids = |cpus: Vec<CpuId>| cpus.into_iter().map(|c| c.0).collect::<Vec<_>>();
        let package = |p| ids(topo.cpus_of_package(ebs_topology::PackageId(p)).collect());
        assert_eq!(package(0), [0, 4, 1, 5]);
        assert_eq!(ids(map.cpus(0).to_vec()), [0, 1, 4, 5]);
        assert_eq!(package(1), [2, 6, 3, 7]);
        assert_eq!(ids(map.cpus(1).to_vec()), [2, 3, 6, 7]);
    }

    #[test]
    fn per_core_map_tracks_cores_and_classes() {
        let topo = TopologyPreset::BigLittle16.build();
        let map = DomainMap::new(&topo, DomainScope::PerCore);
        assert_eq!(map.n_domains(), topo.n_cores());
        for d in 0..map.n_domains() {
            let core = ebs_topology::CoreId(d);
            assert_eq!(map.cpus(d), topo.cpus_of_core(core).collect::<Vec<_>>());
            assert_eq!(map.class_of(d), topo.class_of_core(core));
        }
        // Each package owns its 8 core domains.
        assert_eq!(map.domains_of_package(0).len(), 8);
        assert_eq!(map.domains_of_package(1), &[8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn cpu_capacities_follow_classes() {
        let cfg = SimConfig::preset(TopologyPreset::Hybrid8);
        let topo = cfg.topology_builder().build();
        let cat = ClassCatalog::for_config(&cfg);
        let caps = cat.cpu_capacities(&topo);
        assert_eq!(caps.len(), 8);
        for cpu in topo.cpu_ids() {
            let expect = cat.capacity(topo.class_of(cpu));
            assert_eq!(caps[cpu.0], expect);
        }
        assert_eq!(caps[0], 1.0);
        assert!(caps[7] < 1.0);
    }
}
