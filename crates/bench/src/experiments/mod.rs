//! One module per reproduced table or figure.

pub mod ablation;
pub mod dvfs;
pub mod engine_bench;
pub mod fig10;
pub mod fig3;
pub mod fig67;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod hybrid;
pub mod migrations;
pub mod scaling;
pub mod scaling_gate;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trace_diff;

use ebs_units::Watts;
use ebs_workloads::Program;

/// A variant of `program` sized so one task finishes in roughly half a
/// second of solo execution — the paper's "workload of short running
/// tasks with execution times of less than a second" (Section 6.2).
pub fn short_task(program: &Program) -> Program {
    let work = (0.5 * program.main_phase().ipc * 2.2e9) as u64;
    program.clone().with_total_work(work)
}

/// Mean of a slice of floats (0 for empty).
pub fn mean_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Successive-change statistics over a power series: the maximum and
/// average of `|p[i+1] - p[i]| / p[i]` (Table 1's metric).
pub fn successive_change_stats(powers: &[Watts]) -> (f64, f64) {
    if powers.len() < 2 {
        return (0.0, 0.0);
    }
    let mut max = 0.0_f64;
    let mut sum = 0.0;
    let mut n = 0usize;
    for w in powers.windows(2) {
        if w[0].0 <= 0.0 {
            continue;
        }
        let change = (w[1].0 - w[0].0).abs() / w[0].0;
        max = max.max(change);
        sum += change;
        n += 1;
    }
    (max, if n == 0 { 0.0 } else { sum / n as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workloads::catalog;

    #[test]
    fn change_stats() {
        let series = vec![Watts(50.0), Watts(55.0), Watts(55.0), Watts(44.0)];
        let (max, avg) = successive_change_stats(&series);
        assert!((max - 0.2).abs() < 1e-12);
        assert!((avg - (0.1 + 0.0 + 0.2) / 3.0).abs() < 1e-12);
        assert_eq!(successive_change_stats(&[]), (0.0, 0.0));
        assert_eq!(successive_change_stats(&[Watts(1.0)]), (0.0, 0.0));
    }

    #[test]
    fn short_task_is_sub_second() {
        let p = short_task(&catalog::bitcnts());
        let work = p.total_work.unwrap();
        let solo_seconds = work as f64 / (p.main_phase().ipc * 2.2e9);
        assert!(solo_seconds < 1.0);
        assert!(solo_seconds > 0.2);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean_f64(&[]), 0.0);
        assert_eq!(mean_f64(&[2.0, 4.0]), 3.0);
    }
}
