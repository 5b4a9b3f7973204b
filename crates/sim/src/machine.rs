//! The physical machine: ground-truth power, per-package thermal
//! nodes, throttle controllers and frequency domains.

use crate::classes::{ClassCatalog, DomainMap};
use crate::config::{MaxPowerSpec, SimConfig};
use ebs_counters::GroundTruth;
use ebs_dvfs::FrequencyDomain;
use ebs_thermal::{RcThermalModel, ThermalNode, ThrottleController};
use ebs_topology::{ClassId, CpuId, PackageId, Topology};
use ebs_units::{Celsius, Hertz, Watts};

/// The hardware-side state of the simulated machine.
#[derive(Clone, Debug)]
pub struct PhysicalMachine {
    /// The core classes of the machine (class 0 alone on homogeneous
    /// shapes).
    catalog: ClassCatalog,
    /// The frequency-domain layout (per package or per core).
    domain_map: DomainMap,
    /// Per-package thermal state.
    pub thermals: Vec<ThermalNode>,
    /// Per-*package* throttle controllers: only physical processors
    /// overheat, so `hlt` enforcement compares the package's thermal
    /// power sum against the package budget and halts all its hardware
    /// threads together (the paper's "this processor would have to be
    /// throttled 33 % of the time to enforce the 40 W limit").
    pub throttles: Vec<ThrottleController>,
    /// Frequency domains, one per [`DomainMap`] entry: one per package
    /// on the paper's testbed (SMT siblings share one clock and one
    /// voltage plane, just as they share one thermal budget), one per
    /// core on modern hybrid shapes. Without DVFS every domain has a
    /// single nominal P-state.
    pub freq_domains: Vec<FrequencyDomain>,
    max_power_per_logical: Vec<Watts>,
    /// Per-logical-CPU halt-power shares (class halt power split over
    /// the package's threads).
    halt_shares: Vec<Watts>,
    /// Per-package leakage: the mean of the package's per-core class
    /// slopes (leakage is a package-level die property here, like the
    /// thermal node it feeds).
    pkg_leakage: Vec<ebs_counters::LeakageModel>,
    threads_per_package: usize,
}

impl PhysicalMachine {
    /// Builds the machine for a configuration and topology.
    ///
    /// # Panics
    ///
    /// Panics if `cooling_factors` is non-empty but does not match the
    /// package count.
    pub fn new(cfg: &SimConfig, topo: &Topology) -> Self {
        let catalog = ClassCatalog::for_config(cfg);
        let domain_map = DomainMap::new(topo, cfg.effective_domain_scope());
        let n_packages = topo.n_packages();
        let n_cpus = topo.n_cpus();
        let threads = topo.threads_per_package();

        let mut factors: Vec<f64> = if cfg.cooling_factors.is_empty() {
            vec![1.0; n_packages]
        } else {
            assert_eq!(
                cfg.cooling_factors.len(),
                n_packages,
                "need one cooling factor per package"
            );
            cfg.cooling_factors.clone()
        };
        // A package's thermal resistance blends its cores' class
        // thermal coefficients (efficiency cores sink heat more easily
        // per unit of die area). A single-class package blends to
        // exactly 1.0: the coefficients are 1.0, and so is their mean.
        let cores_per_package = topo.cores_per_package() as f64;
        for (p, f) in factors.iter_mut().enumerate() {
            let blend: f64 = topo
                .cores_of_package(PackageId(p))
                .map(|c| catalog.get(topo.class_of_core(c)).thermal_factor)
                .sum::<f64>()
                / cores_per_package;
            *f *= blend;
        }
        let models: Vec<RcThermalModel> = factors
            .iter()
            .map(|&f| RcThermalModel::reference().with_cooling_factor(f))
            .collect();

        // Derive the per-logical budgets.
        let max_power_per_logical: Vec<Watts> = (0..n_cpus)
            .map(|c| {
                let pkg = topo.package_of(CpuId(c));
                match &cfg.max_power {
                    MaxPowerSpec::PerLogical(w) => *w,
                    MaxPowerSpec::PerPackage(w) => *w / threads as f64,
                    MaxPowerSpec::FromThermalLimit(limit) => {
                        models[pkg.0].max_power_for_limit(*limit) / threads as f64
                    }
                }
            })
            .collect();

        // Package budget = sum of its logical budgets.
        let throttles = (0..n_packages)
            .map(|p| {
                let budget: Watts = (0..n_cpus)
                    .filter(|&c| topo.package_of(CpuId(c)) == PackageId(p))
                    .map(|c| max_power_per_logical[c])
                    .sum();
                ThrottleController::new(budget)
            })
            .collect();
        // One scaling ladder per frequency domain, each with its
        // class's table; a machine without DVFS support carries
        // single-state ladders pinned at each class's nominal clock.
        let freq_domains = (0..domain_map.n_domains())
            .map(|d| FrequencyDomain::new(catalog.get(domain_map.class_of(d)).table.clone()))
            .collect();
        // Class halt power split over the package's hardware threads.
        let halt_shares = (0..n_cpus)
            .map(|c| catalog.get(topo.class_of(CpuId(c))).truth.halt_power / threads as f64)
            .collect();
        // Package leakage: the mean of the package's per-core class
        // slopes. The mean of equal slopes is the slope itself (exact
        // for the class-0 slope up to 9 cores per package).
        let pkg_leakage = (0..n_packages)
            .map(|p| {
                let slope: f64 = topo
                    .cores_of_package(PackageId(p))
                    .map(|c| {
                        catalog
                            .get(topo.class_of_core(c))
                            .truth
                            .leakage
                            .watts_per_kelvin
                    })
                    .sum::<f64>()
                    / cores_per_package;
                ebs_counters::LeakageModel {
                    watts_per_kelvin: slope,
                    reference: catalog.get(ClassId(0)).truth.leakage.reference,
                }
            })
            .collect();
        PhysicalMachine {
            catalog,
            domain_map,
            thermals: models.into_iter().map(ThermalNode::new).collect(),
            throttles,
            freq_domains,
            max_power_per_logical,
            halt_shares,
            pkg_leakage,
            threads_per_package: threads,
        }
    }

    /// The ground-truth power model of class 0 (the only class on
    /// homogeneous machines).
    pub fn truth(&self) -> &GroundTruth {
        &self.catalog.get(ClassId(0)).truth
    }

    /// The ground-truth power model of a class.
    pub fn class_truth(&self, class: ClassId) -> &GroundTruth {
        &self.catalog.get(class).truth
    }

    /// The machine's class catalog.
    pub fn catalog(&self) -> &ClassCatalog {
        &self.catalog
    }

    /// The machine's frequency-domain layout.
    pub fn domain_map(&self) -> &DomainMap {
        &self.domain_map
    }

    /// The budget of one logical CPU.
    pub fn max_power(&self, cpu: CpuId) -> Watts {
        self.max_power_per_logical[cpu.0]
    }

    /// All per-logical budgets.
    pub fn max_powers(&self) -> &[Watts] {
        &self.max_power_per_logical
    }

    /// Package halt power attributed to one logical CPU of class 0
    /// (the legacy scalar; per-CPU shares via
    /// [`PhysicalMachine::halt_power_share_of`]).
    pub fn halt_power_share(&self) -> Watts {
        self.truth().halt_power / self.threads_per_package as f64
    }

    /// Halt power attributed to one specific logical CPU (its class's
    /// halt power split over the package's threads).
    pub fn halt_power_share_of(&self, cpu: CpuId) -> Watts {
        self.halt_shares[cpu.0]
    }

    /// The summed halt shares of a CPU list: the thermal-power sample
    /// it feeds its averages while halted, and the floor an idle list's
    /// averages decay toward.
    pub(crate) fn halt_floor(&self, cpus: &[CpuId]) -> f64 {
        cpus.iter().map(|&c| self.halt_shares[c.0].0).sum()
    }

    /// Die temperature of a package.
    pub fn package_temp(&self, pkg: PackageId) -> Celsius {
        self.thermals[pkg.0].temperature()
    }

    /// The leakage model of one package's die (the mean of its cores'
    /// class slopes).
    pub fn package_leakage(&self, pkg: usize) -> &ebs_counters::LeakageModel {
        &self.pkg_leakage[pkg]
    }

    /// The first frequency domain of a package — *the* domain under
    /// [`ebs_dvfs::DomainScope::PerPackage`] (every homogeneous
    /// preset), the class-0 core-0 domain under per-core scope.
    pub fn freq_domain(&self, pkg: PackageId) -> &FrequencyDomain {
        &self.freq_domains[self.domain_map.domains_of_package(pkg.0)[0]]
    }

    /// Current effective clock of a package's first domain.
    pub fn package_frequency(&self, pkg: PackageId) -> Hertz {
        self.freq_domain(pkg).frequency()
    }

    /// Current effective clock of the domain covering `cpu`.
    pub fn cpu_frequency(&self, cpu: CpuId) -> Hertz {
        self.freq_domains[self.domain_map.domain_of(cpu)].frequency()
    }
}

impl ebs_store::Snapshot for PhysicalMachine {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.key("machine");
        w.seq(&self.thermals, |w, t| t.save(w));
        w.seq(&self.throttles, |w, t| t.save(w));
        w.seq(&self.freq_domains, |w, d| d.save(w));
    }

    /// Restores into a machine freshly built from the same config and
    /// topology; the ground-truth model and budget tables are
    /// config-derived and stay as constructed.
    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.key("machine")?;
        r.table("thermal nodes", &mut self.thermals, |r, t| t.restore(r))?;
        r.table("throttle controllers", &mut self.throttles, |r, t| {
            t.restore(r)
        })?;
        r.table("frequency domains", &mut self.freq_domains, |r, d| {
            d.restore(r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_units::SimDuration;

    fn topo(smt: bool) -> Topology {
        Topology::xseries445(smt)
    }

    #[test]
    fn per_logical_budget_is_uniform() {
        let cfg = SimConfig::xseries445().max_power(MaxPowerSpec::PerLogical(Watts(60.0)));
        let m = PhysicalMachine::new(&cfg, &topo(true));
        assert!(m.max_powers().iter().all(|&w| w == Watts(60.0)));
    }

    #[test]
    fn per_package_budget_splits_between_siblings() {
        let cfg = SimConfig::xseries445().max_power(MaxPowerSpec::PerPackage(Watts(40.0)));
        let m = PhysicalMachine::new(&cfg, &topo(true));
        assert!(m.max_powers().iter().all(|&w| w == Watts(20.0)));
        // Without SMT the full package budget goes to the one thread.
        let cfg = SimConfig::xseries445()
            .smt(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)));
        let m = PhysicalMachine::new(&cfg, &topo(false));
        assert!(m.max_powers().iter().all(|&w| w == Watts(40.0)));
    }

    #[test]
    fn thermal_limit_budget_reflects_cooling() {
        let mut factors = vec![1.0; 8];
        factors[3] = 1.3; // Poorly cooled package 3.
        let cfg = SimConfig::xseries445()
            .smt(false)
            .cooling_factors(factors)
            .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)));
        let m = PhysicalMachine::new(&cfg, &topo(false));
        assert!(
            m.max_power(CpuId(3)) < m.max_power(CpuId(0)),
            "poor cooling must shrink the budget"
        );
        // Steady state at the budget hits the limit exactly.
        let model = RcThermalModel::reference().with_cooling_factor(1.3);
        let t = model.steady_state(m.max_power(CpuId(3)));
        assert!((t.0 - 38.0).abs() < 1e-9);
    }

    #[test]
    fn halt_power_share_splits_by_threads() {
        let m = PhysicalMachine::new(&SimConfig::xseries445(), &topo(true));
        assert!((m.halt_power_share().0 - 6.8).abs() < 1e-12);
        let m = PhysicalMachine::new(&SimConfig::xseries445().smt(false), &topo(false));
        assert!((m.halt_power_share().0 - 13.6).abs() < 1e-12);
    }

    #[test]
    fn packages_start_at_ambient() {
        let m = PhysicalMachine::new(&SimConfig::xseries445(), &topo(true));
        for p in 0..8 {
            assert_eq!(m.package_temp(PackageId(p)), Celsius::AMBIENT);
        }
    }

    #[test]
    fn throttle_limits_are_package_budgets() {
        let cfg = SimConfig::xseries445().max_power(MaxPowerSpec::PerPackage(Watts(40.0)));
        let m = PhysicalMachine::new(&cfg, &topo(true));
        assert_eq!(m.throttles.len(), 8);
        for p in 0..8 {
            // Two 20 W logical budgets sum back to the 40 W package.
            assert_eq!(m.throttles[p].limit(), Watts(40.0));
        }
    }

    #[test]
    #[should_panic(expected = "one cooling factor per package")]
    fn wrong_factor_count_rejected() {
        let cfg = SimConfig::xseries445().cooling_factors(vec![1.0; 3]);
        let _ = PhysicalMachine::new(&cfg, &topo(true));
    }

    #[test]
    fn without_dvfs_domains_are_pinned_at_nominal() {
        let m = PhysicalMachine::new(&SimConfig::xseries445(), &topo(true));
        assert_eq!(m.freq_domains.len(), 8);
        for p in 0..8 {
            let dom = m.freq_domain(PackageId(p));
            assert_eq!(dom.table().len(), 1);
            assert_eq!(m.package_frequency(PackageId(p)), Hertz::from_ghz(2.2));
            assert_eq!(dom.speed_factor(), 1.0);
        }
    }

    #[test]
    fn with_dvfs_domains_carry_the_configured_table() {
        let cfg = SimConfig::xseries445().dvfs(crate::DvfsSpec::default());
        let m = PhysicalMachine::new(&cfg, &topo(true));
        for p in 0..8 {
            assert_eq!(m.freq_domain(PackageId(p)).table().len(), 6);
            // Domains start at the nominal state.
            assert_eq!(m.package_frequency(PackageId(p)), Hertz::from_ghz(2.2));
        }
    }

    #[test]
    fn hybrid_machine_runs_per_core_class_domains() {
        use ebs_topology::TopologyPreset;
        let cfg = SimConfig::preset(TopologyPreset::BigLittle16).dvfs(crate::DvfsSpec::default());
        let topo = cfg.topology_builder().build();
        let m = PhysicalMachine::new(&cfg, &topo);
        // One domain per core, each carrying its class's ladder.
        assert_eq!(m.freq_domains.len(), 16);
        for core in 0..16 {
            let dom = &m.freq_domains[core];
            if core % 8 < 4 {
                assert_eq!(dom.table().len(), 6);
                assert_eq!(dom.frequency(), Hertz::from_ghz(2.2));
            } else {
                assert_eq!(dom.table().len(), 5);
                assert_eq!(dom.frequency(), Hertz::from_ghz(1.6));
            }
        }
        // Per-CPU clocks and halt shares follow the class.
        assert_eq!(m.cpu_frequency(CpuId(0)), Hertz::from_ghz(2.2));
        assert_eq!(m.cpu_frequency(CpuId(7)), Hertz::from_ghz(1.6));
        assert!(m.halt_power_share_of(CpuId(7)) < m.halt_power_share_of(CpuId(0)));
        // Hybrid packages blend the class thermal coefficients: they
        // cool better than a pure class-0 package.
        let homog = PhysicalMachine::new(
            &SimConfig::xseries445().max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0))),
            &Topology::xseries445(true),
        );
        let hybrid = PhysicalMachine::new(
            &SimConfig::preset(TopologyPreset::BigLittle16)
                .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0))),
            &topo,
        );
        // Better cooling -> larger package budget at the same limit.
        assert!(hybrid.throttles[0].limit() > homog.throttles[0].limit());
    }

    #[test]
    fn homogeneous_machines_keep_per_package_domains() {
        let m = PhysicalMachine::new(&SimConfig::xseries445(), &topo(true));
        assert_eq!(m.freq_domains.len(), 8);
        assert_eq!(m.catalog().n_classes(), 1);
        assert_eq!(m.domain_map().n_domains(), 8);
        for cpu in 0..16 {
            assert_eq!(m.halt_power_share_of(CpuId(cpu)), m.halt_power_share());
        }
    }

    #[test]
    fn thermal_nodes_heat_independently() {
        let mut m = PhysicalMachine::new(&SimConfig::xseries445(), &topo(true));
        m.thermals[0].step(Watts(68.0), SimDuration::from_secs(30));
        assert!(m.package_temp(PackageId(0)).0 > 35.0);
        assert_eq!(m.package_temp(PackageId(1)), Celsius::AMBIENT);
    }
}
