//! The multicore simulator of the paper's Fig. 3 is the one-host
//! deployment of [`crate::cluster`] (`ClusterParams::single_host`); these
//! tests pin that case. The goldens are the makespans of the Fig. 3 and
//! Fig. 5 figures' model before it became the one-host case, so a change
//! to the model that moves a single-host figure shows here bit for bit.

#[cfg(test)]
mod tests {
    use crate::cloud::single_vm;
    use crate::cluster::{simulate_cluster, ClusterParams};
    use crate::platform::HostProfile;
    use crate::workload::{CostModel, WorkloadTrace};

    fn trace() -> WorkloadTrace {
        WorkloadTrace::synthetic(64, 20, 200.0)
    }

    fn params(workers: usize, stats: usize) -> ClusterParams {
        ClusterParams::single_host(HostProfile::nehalem32(), workers, stats)
    }

    /// 1024 trajectories over 10 quanta with 200 samples each: the
    /// analysis stream carries weight.
    fn wide_trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::synthetic(1024, 10, 30.0);
        t.samples_per_instance = 200;
        t
    }

    /// Fig. 5's quick workload: 50 quanta, 320 samples per quantum.
    fn dense_trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::synthetic(256, 50, 150.0);
        t.samples_per_instance = 16_001;
        t
    }

    #[test]
    fn single_host_reproduces_the_pipeline_goldens_bit_for_bit() {
        // makespan_s.to_bits() per trace, for workers {1, 4, 24} × stat
        // engines {1, 4}.
        let goldens: [(WorkloadTrace, [u64; 6]); 3] = [
            (
                trace(),
                [
                    0x3fda2dce0404717c,
                    0x3fda2dce0404717c,
                    0x3fba399e873f2403,
                    0x3fba399e873f2403,
                    0x3f946a8c65d4702e,
                    0x3f946a8c65d4702e,
                ],
            ),
            (
                wide_trace(),
                [
                    0x3fdf6e3b46fdea80,
                    0x3fdf487b99d45130,
                    0x3fc003e63e8dda34,
                    0x3fbf70cdc8754f0a,
                    0x3fa0d045fe11127b,
                    0x3f95c9a34ca0c014,
                ],
            ),
            (
                dense_trace(),
                [
                    0x4009344c37e6f780,
                    0x4009216c61522a60,
                    0x3fe9976577531d8b,
                    0x3fe9367e414e7edc,
                    0x3fe3f0da5daf04b4,
                    0x3fdab9933424c42d,
                ],
            ),
        ];
        for (t, bits) in &goldens {
            let grid = [1usize, 4, 24]
                .into_iter()
                .flat_map(|w| [1usize, 4].map(|s| (w, s)));
            for ((w, s), &golden) in grid.zip(bits) {
                let makespan = simulate_cluster(t, &params(w, s)).makespan_s;
                assert_eq!(
                    makespan.to_bits(),
                    golden,
                    "{}×{} trace, {w} workers, {s} stat engines: {makespan} vs {}",
                    t.instances,
                    t.quanta,
                    f64::from_bits(golden)
                );
            }
        }
        // Fig. 5: one quad-core VM at 1–4 cores, every stage on one pool.
        let vm = [
            0x4008e868f2c15425,
            0x3ff9024290b60d61,
            0x3ff1d75771edc8e9,
            0x3ff09a4cf3bbee13,
        ];
        let t = dense_trace();
        for (cores, &golden) in (1..=4).zip(&vm) {
            let makespan = single_vm(&t, cores, CostModel::nominal()).makespan_s;
            assert_eq!(makespan.to_bits(), golden, "{cores}-core VM: {makespan}");
        }
    }

    #[test]
    fn all_cuts_are_analysed() {
        let t = trace();
        let out = simulate_cluster(&t, &params(4, 1));
        assert_eq!(out.cuts, t.samples_per_instance);
    }

    #[test]
    fn more_workers_is_faster_up_to_saturation() {
        let t = trace();
        let t1 = simulate_cluster(&t, &params(1, 4)).makespan_s;
        let t4 = simulate_cluster(&t, &params(4, 4)).makespan_s;
        let t16 = simulate_cluster(&t, &params(16, 4)).makespan_s;
        assert!(t4 < t1 * 0.35, "t1 {t1} t4 {t4}");
        assert!(t16 < t4, "t4 {t4} t16 {t16}");
    }

    #[test]
    fn speedup_is_close_to_ideal_for_few_workers() {
        let t = trace();
        let out = simulate_cluster(&t, &params(4, 4));
        let s = out.speedup();
        assert!(s > 3.2 && s <= 4.2, "speedup {s}");
    }

    #[test]
    fn single_stat_engine_caps_large_ensembles() {
        // With many trajectories, analysis per cut ∝ instances; one stat
        // engine becomes the bottleneck while 4 push the knee out — the
        // Fig. 3 effect. A realistic sample density (Q/τ = 20) is needed
        // for the analysis stream to carry weight.
        let t = wide_trace();
        let one = simulate_cluster(&t, &params(24, 1));
        let four = simulate_cluster(&t, &params(24, 4));
        assert!(
            four.makespan_s < one.makespan_s * 0.85,
            "one {} four {}",
            one.makespan_s,
            four.makespan_s
        );
        assert!(four.speedup() > one.speedup());
    }

    #[test]
    fn sequential_time_dominates_any_parallel_makespan() {
        let t = trace();
        let out = simulate_cluster(&t, &params(8, 2));
        assert!(out.sequential_time_s() > out.makespan_s);
        assert!(out.speedup() > 1.0);
        // Speedup cannot exceed the used core count (sim + align + stat).
        assert!(out.speedup() <= (8 + 1 + 2) as f64 + 1e-9);
    }

    #[test]
    fn makespan_at_least_critical_path_of_one_instance() {
        let t = trace();
        let p = params(64, 8);
        let out = simulate_cluster(&t, &p);
        // The longest single instance cannot be split across cores.
        let longest: u64 = (0..t.instances as usize)
            .map(|i| t.events.iter().map(|row| row[i]).sum::<u64>())
            .max()
            .expect("non-empty");
        let floor = longest as f64 * p.costs.sec_per_event / p.hosts[0].core_rate();
        assert!(out.makespan_s >= floor * 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one simulation worker")]
    fn zero_workers_panics() {
        let t = trace();
        simulate_cluster(&t, &params(0, 1));
    }
}
