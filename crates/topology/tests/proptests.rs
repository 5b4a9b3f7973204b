//! Property-based tests: structural invariants of arbitrary machine
//! shapes.

use ebs_topology::{ClassId, CpuId, Topology, TopologyBuilder, TopologyPreset};
use proptest::prelude::*;

proptest! {
    /// Builder-generated machines are well-formed: the dimensions
    /// round-trip, and at every domain level of every CPU's stack the
    /// groups partition the span with the CPU in *exactly one* group.
    #[test]
    fn builder_domains_are_well_formed(
        nodes in 1usize..4,
        packages in 1usize..5,
        cores in 1usize..4,
        threads in 1usize..4,
    ) {
        let builder = TopologyBuilder::new()
            .nodes(nodes)
            .packages_per_node(packages)
            .cores_per_package(cores)
            .threads_per_core(threads);
        prop_assert_eq!(builder.n_cpus(), nodes * packages * cores * threads);
        let topo = builder.build();
        prop_assert_eq!(topo.n_cpus(), builder.n_cpus());
        prop_assert_eq!(topo.n_packages(), builder.n_packages());
        for cpu in topo.cpu_ids() {
            for d in topo.domains(cpu) {
                // Exactly one group holds the CPU...
                let holding = d.groups().iter().filter(|g| g.contains(cpu)).count();
                prop_assert_eq!(holding, 1, "cpu in {} groups", holding);
                prop_assert!(d.local_group_index(cpu).is_some());
                // ...no group is empty, and the groups partition the
                // span (sizes sum up and no CPU repeats).
                let mut span: Vec<CpuId> = Vec::new();
                for g in d.groups() {
                    prop_assert!(!g.is_empty());
                    span.extend_from_slice(g.cpus());
                }
                let len = span.len();
                span.sort_unstable();
                span.dedup();
                prop_assert_eq!(span.len(), len, "a CPU repeats across groups");
                prop_assert_eq!(len, d.span().count());
            }
        }
    }

    /// Every preset builds a well-formed machine whose top level spans
    /// every CPU (sampled alongside random shapes so the ladder stays
    /// covered as presets change).
    #[test]
    fn presets_are_well_formed(idx in 0usize..5) {
        let preset = TopologyPreset::all()[idx];
        let topo = preset.build();
        prop_assert_eq!(topo.n_cpus(), preset.builder().n_cpus());
        for cpu in topo.cpu_ids() {
            let stack = topo.domains(cpu);
            prop_assert!(!stack.is_empty());
            prop_assert!(stack.iter().all(|d| d.local_group_index(cpu).is_some()));
            if topo.n_cpus() > 1 {
                prop_assert_eq!(stack.last().unwrap().span().count(), topo.n_cpus());
            }
        }
    }

    /// For any machine shape: groups partition spans, spans nest
    /// strictly upward, and the top level spans the whole machine.
    #[test]
    fn domain_structure_invariants(
        nodes in 1usize..4,
        packages in 1usize..5,
        cores in 1usize..4,
        threads in 1usize..3,
    ) {
        let topo = Topology::build_cmp(nodes, packages, cores, threads);
        prop_assert_eq!(topo.n_cpus(), nodes * packages * cores * threads);
        for cpu in topo.cpu_ids() {
            let stack = topo.domains(cpu);
            prop_assert!(!stack.is_empty());
            for d in stack {
                prop_assert!(d.contains(cpu));
                let total: usize = d.groups().iter().map(|g| g.len()).sum();
                prop_assert_eq!(total, d.span().count());
                // No CPU appears twice in a span.
                let mut seen: Vec<CpuId> = d.span().collect();
                seen.sort_unstable();
                let len = seen.len();
                seen.dedup();
                prop_assert_eq!(seen.len(), len);
            }
            for pair in stack.windows(2) {
                let lower: Vec<CpuId> = pair[0].span().collect();
                let upper: Vec<CpuId> = pair[1].span().collect();
                prop_assert!(lower.len() < upper.len());
                prop_assert!(lower.iter().all(|c| upper.contains(c)));
            }
            let top: Vec<CpuId> = stack.last().unwrap().span().collect();
            // The top level spans everything (or the machine is a
            // single CPU with its degenerate domain).
            if topo.n_cpus() > 1 {
                prop_assert_eq!(top.len(), topo.n_cpus());
            }
        }
    }

    /// Sibling relations are symmetric and consistent with packages.
    #[test]
    fn sibling_symmetry(
        nodes in 1usize..4,
        packages in 1usize..5,
        cores in 1usize..3,
        threads in 1usize..4,
    ) {
        let topo = Topology::build_cmp(nodes, packages, cores, threads);
        for cpu in topo.cpu_ids() {
            for sib in topo.siblings(cpu) {
                prop_assert_ne!(sib, cpu);
                prop_assert!(topo.same_core(cpu, sib));
                prop_assert!(topo.same_package(cpu, sib));
                prop_assert!(topo.siblings(sib).contains(&cpu));
            }
            prop_assert_eq!(topo.siblings(cpu).len(), threads - 1);
        }
    }

    /// Every CPU belongs to exactly one package and node, and the
    /// package listing round-trips.
    #[test]
    fn package_membership_round_trips(
        nodes in 1usize..4,
        packages in 1usize..5,
        cores in 1usize..3,
        threads in 1usize..4,
    ) {
        let topo = Topology::build_cmp(nodes, packages, cores, threads);
        for cpu in topo.cpu_ids() {
            let core = topo.core_of(cpu);
            prop_assert!(topo.cpus_of_core(core).any(|c| c == cpu));
            let pkg = topo.package_of(cpu);
            prop_assert!(topo.cores_of_package(pkg).any(|c| c == core));
            prop_assert!(topo.cpus_of_package(pkg).any(|c| c == cpu));
            let node = topo.node_of(cpu);
            prop_assert!(topo.cpus_of_node(node).contains(&cpu));
        }
        // Packages partition the CPU set.
        let mut all: Vec<CpuId> = (0..topo.n_packages())
            .flat_map(|p| topo.cpus_of_package(ebs_topology::PackageId(p)))
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, topo.cpu_ids().collect::<Vec<_>>());
    }

    /// Hybrid shapes are well-formed: every core has exactly one
    /// class, SMT siblings share their core's class, the per-package
    /// class split matches the builder's perf-core count, and the
    /// domain stacks carry the same structural invariants as the
    /// homogeneous shapes.
    #[test]
    fn hybrid_shapes_are_well_formed(
        nodes in 1usize..4,
        packages in 1usize..4,
        cores in 2usize..6,
        threads in 1usize..3,
        perf_frac in 1usize..5,
    ) {
        let perf = perf_frac.min(cores - 1); // At least one E core.
        let builder = TopologyBuilder::new()
            .nodes(nodes)
            .packages_per_node(packages)
            .cores_per_package(cores)
            .threads_per_core(threads)
            .perf_cores_per_package(perf);
        prop_assert!(builder.is_hybrid());
        let topo = builder.build();
        prop_assert_eq!(topo.n_classes(), 2);
        prop_assert_eq!(topo.perf_cores_per_package(), perf);
        // Every core has exactly one class, uniform per package.
        for core in 0..topo.n_cores() {
            let core = ebs_topology::CoreId(core);
            let class = topo.class_of_core(core);
            let expect = if core.0 % cores < perf { ClassId(0) } else { ClassId(1) };
            prop_assert_eq!(class, expect);
            for cpu in topo.cpus_of_core(core) {
                prop_assert_eq!(topo.class_of(cpu), class);
            }
        }
        // SMT siblings share a class.
        for cpu in topo.cpu_ids() {
            for sib in topo.siblings(cpu) {
                prop_assert!(topo.same_class(cpu, sib));
            }
        }
        // Per-package class census matches the split.
        for p in 0..topo.n_packages() {
            let pkg = ebs_topology::PackageId(p);
            let perf_cores = topo
                .cores_of_package(pkg)
                .filter(|&c| topo.class_of_core(c) == ClassId(0))
                .count();
            prop_assert_eq!(perf_cores, perf);
        }
        // Domain stacks keep the homogeneous invariants.
        for cpu in topo.cpu_ids() {
            for d in topo.domains(cpu) {
                let holding = d.groups().iter().filter(|g| g.contains(cpu)).count();
                prop_assert_eq!(holding, 1);
                let total: usize = d.groups().iter().map(|g| g.len()).sum();
                prop_assert_eq!(total, d.span().count());
            }
        }
    }

    /// The hybrid presets build two-class machines whose builder
    /// dimensions round-trip.
    #[test]
    fn hybrid_presets_are_well_formed(idx in 0usize..3) {
        let preset = TopologyPreset::hybrids()[idx];
        let topo = preset.build();
        prop_assert_eq!(topo.n_cpus(), preset.builder().n_cpus());
        prop_assert_eq!(topo.n_classes(), 2);
        prop_assert!(topo.is_hybrid());
        let mut seen = [false; 2];
        for cpu in topo.cpu_ids() {
            seen[topo.class_of(cpu).0] = true;
            prop_assert!(!topo.domains(cpu).is_empty());
        }
        prop_assert!(seen[0] && seen[1], "both classes populated");
    }

    /// SMT domains carry the share-cpu-power flag; higher levels never
    /// do, and only the top level crosses nodes.
    #[test]
    fn domain_flags_match_levels(
        nodes in 1usize..3,
        packages in 2usize..5,
        smt in any::<bool>(),
    ) {
        let topo = Topology::build(nodes, packages, if smt { 2 } else { 1 });
        for cpu in topo.cpu_ids() {
            for d in topo.domains(cpu) {
                match d.level() {
                    ebs_topology::DomainLevel::Smt => {
                        prop_assert!(d.flags().share_cpu_power);
                        prop_assert!(!d.flags().crosses_node);
                    }
                    ebs_topology::DomainLevel::Core | ebs_topology::DomainLevel::Node => {
                        prop_assert!(!d.flags().share_cpu_power);
                        prop_assert!(!d.flags().crosses_node);
                    }
                    ebs_topology::DomainLevel::Top => {
                        prop_assert!(!d.flags().share_cpu_power);
                    }
                }
            }
        }
    }
}
