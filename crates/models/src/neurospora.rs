//! The Neurospora circadian clock model.
//!
//! "The CWC Simulator has been tested with a model for circadian
//! oscillations based on transcriptional regulation of the frequency gene
//! in the fungus Neurospora. The model relies on the feedback exerted on
//! the expression of the frequency gene by its protein product" — the
//! Leloup–Gonze–Goldbeter model (J. Biol. Rhythms, 1999), the paper's
//! reference \[20\].
//!
//! Molecular species: `M` (frq mRNA), `Fc` (cytosolic FRQ protein), `Fn`
//! (nuclear FRQ protein). FRQ represses its own transcription (Hill n = 4),
//! closing the negative feedback loop; mRNA and protein degrade with
//! Michaelis–Menten saturation. Deterministic period ≈ 21.5 h.
//!
//! Concentrations (nM) are converted to molecule counts through the system
//! size Ω (molecules per nM); Ω = 100 reproduces the robust stochastic
//! oscillations of Gonze–Halloy–Goldbeter (PNAS 2002).

use cwc::model::Model;

/// Kinetic parameters of the Leloup–Gonze–Goldbeter Neurospora model.
///
/// Defaults are the published values (units: nM and hours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeurosporaParams {
    /// Maximum transcription rate (nM/h).
    pub vs: f64,
    /// Maximum mRNA degradation rate (nM/h).
    pub vm: f64,
    /// mRNA degradation Michaelis constant (nM).
    pub km: f64,
    /// Translation rate (1/h).
    pub ks: f64,
    /// Maximum FRQ degradation rate (nM/h).
    pub vd: f64,
    /// FRQ degradation Michaelis constant (nM).
    pub kd: f64,
    /// Nuclear import rate (1/h).
    pub k1: f64,
    /// Nuclear export rate (1/h).
    pub k2: f64,
    /// Repression threshold (nM).
    pub ki: f64,
    /// Hill coefficient of the repression.
    pub n: f64,
    /// System size Ω (molecules per nM).
    pub omega: f64,
}

impl Default for NeurosporaParams {
    fn default() -> Self {
        NeurosporaParams {
            vs: 1.6,
            vm: 0.505,
            km: 0.5,
            ks: 0.5,
            vd: 1.4,
            kd: 0.13,
            k1: 0.5,
            k2: 0.6,
            ki: 1.0,
            n: 4.0,
            omega: 100.0,
        }
    }
}

impl NeurosporaParams {
    /// Deterministic oscillation period of the published parameter set.
    pub const REFERENCE_PERIOD_H: f64 = 21.5;
}

/// Builds the *flat* Neurospora model (all species at the top level).
///
/// This is the variant the performance experiments run: the simulation
/// work is in propensity evaluation and sampling, not tree rewriting.
///
/// # Examples
///
/// ```
/// use biomodels::neurospora::{neurospora_flat, NeurosporaParams};
///
/// let model = neurospora_flat(NeurosporaParams::default());
/// assert_eq!(model.rules.len(), 6);
/// assert_eq!(model.observable_names(), vec!["frq_mRNA", "FRQ_c", "FRQ_n"]);
/// ```
pub fn neurospora_flat(p: NeurosporaParams) -> Model {
    let mut m = Model::new("neurospora");
    let mrna = m.species("M");
    let fc = m.species("Fc");
    let fn_ = m.species("Fn");

    // Transcription repressed by nuclear FRQ: a = vsΩ · KIⁿ/(KIⁿ + Fnⁿ)
    // with the threshold expressed in molecules (KI·Ω).
    m.rule("transcription")
        .produces("M", 1)
        .rate(p.vs * p.omega)
        .repressed_by("Fn", p.ki * p.omega, p.n)
        .build()
        .expect("valid rule");
    // Saturated mRNA degradation: a = vmΩ · M/(KmΩ + M).
    m.rule("mrna_degradation")
        .consumes("M", 1)
        .rate(p.vm * p.omega)
        .saturating_on("M", p.km * p.omega)
        .build()
        .expect("valid rule");
    // Translation: a = ks · M (mRNA survives).
    m.rule("translation")
        .consumes("M", 1)
        .produces("M", 1)
        .produces("Fc", 1)
        .rate(p.ks)
        .build()
        .expect("valid rule");
    // Saturated FRQ degradation: a = vdΩ · Fc/(KdΩ + Fc).
    m.rule("frq_degradation")
        .consumes("Fc", 1)
        .rate(p.vd * p.omega)
        .saturating_on("Fc", p.kd * p.omega)
        .build()
        .expect("valid rule");
    // Nuclear transport.
    m.rule("nuclear_import")
        .consumes("Fc", 1)
        .produces("Fn", 1)
        .rate(p.k1)
        .build()
        .expect("valid rule");
    m.rule("nuclear_export")
        .consumes("Fn", 1)
        .produces("Fc", 1)
        .rate(p.k2)
        .build()
        .expect("valid rule");

    // Initial conditions: 0.1 nM each (Leloup et al.).
    let init = (0.1 * p.omega).round() as u64;
    m.initial.add_atoms(mrna, init);
    m.initial.add_atoms(fc, init);
    m.initial.add_atoms(fn_, init);

    m.observe("frq_mRNA", mrna);
    m.observe("FRQ_c", fc);
    m.observe("FRQ_n", fn_);
    m
}

/// Builds the *compartmentalised* Neurospora model: a `cell` compartment
/// containing a `nucleus` compartment, with FRQ shuttling across the
/// nuclear membrane as CWC compartment rewrites.
///
/// Dynamically equivalent to [`neurospora_flat`] (same rates), but every
/// event exercises the tree-matching machinery — the configuration the
/// paper highlights as "significantly more complex than a plain Gillespie
/// algorithm".
pub fn neurospora_compartments(p: NeurosporaParams) -> Model {
    let mut m = Model::new("neurospora-compartments");
    let mrna = m.species("M");
    let fc = m.species("Fc");
    let fn_ = m.species("Fn");
    let membrane = m.species("membrane");
    let cell = m.label("cell");
    let nucleus = m.label("nucleus");

    // Transcription happens inside the nucleus, where the repression law
    // reads the nuclear FRQ count at its own site; nascent mRNA (`Mn`) is
    // then exported through the nuclear membrane by a cell-level
    // compartment rewrite.
    m.rule("transcription")
        .at("nucleus")
        .produces("Mn", 1)
        .rate(p.vs * p.omega)
        .repressed_by("Fn", p.ki * p.omega, p.n)
        .build()
        .expect("valid rule");
    // Export of nascent mRNA through the nuclear membrane (fast).
    m.rule("mrna_export")
        .at("cell")
        .matches_comp("nucleus", &[], &[("Mn", 1)])
        .keeps(0, &[], &[])
        .produces("M", 1)
        .rate(50.0)
        .build()
        .expect("valid rule");
    m.rule("mrna_degradation")
        .at("cell")
        .consumes("M", 1)
        .rate(p.vm * p.omega)
        .saturating_on("M", p.km * p.omega)
        .build()
        .expect("valid rule");
    m.rule("translation")
        .at("cell")
        .consumes("M", 1)
        .produces("M", 1)
        .produces("Fc", 1)
        .rate(p.ks)
        .build()
        .expect("valid rule");
    m.rule("frq_degradation")
        .at("cell")
        .consumes("Fc", 1)
        .rate(p.vd * p.omega)
        .saturating_on("Fc", p.kd * p.omega)
        .build()
        .expect("valid rule");
    // Nuclear import: cytosolic FRQ crosses into the nucleus compartment.
    m.rule("nuclear_import")
        .at("cell")
        .consumes("Fc", 1)
        .matches_comp("nucleus", &[], &[])
        .keeps(0, &[], &[("Fn", 1)])
        .rate(p.k1)
        .build()
        .expect("valid rule");
    // Nuclear export: nuclear FRQ crosses back out.
    m.rule("nuclear_export")
        .at("cell")
        .matches_comp("nucleus", &[], &[("Fn", 1)])
        .keeps(0, &[], &[])
        .produces("Fc", 1)
        .rate(p.k2)
        .build()
        .expect("valid rule");

    // Assemble (cell: membrane | M Fc (nucleus: | Fn)).
    let init = (0.1 * p.omega).round() as u64;
    let mut cell_content = cwc::term::Term::new();
    cell_content.add_atoms(mrna, init);
    cell_content.add_atoms(fc, init);
    let mut nucleus_content = cwc::term::Term::new();
    nucleus_content.add_atoms(fn_, init);
    cell_content.add_compartment(cwc::term::Compartment::new(
        nucleus,
        cwc::multiset::Multiset::new(),
        nucleus_content,
    ));
    m.initial.add_compartment(cwc::term::Compartment::new(
        cell,
        cwc::multiset::Multiset::from([(membrane, 1)]),
        cell_content,
    ));

    m.observe("frq_mRNA", mrna);
    m.observe("FRQ_c", fc);
    m.observe("FRQ_n", fn_);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillespie::engine::EngineKind;
    use gillespie::ssa::SampleClock;
    use std::sync::Arc;
    use streamstat::period::analyse_period;

    #[test]
    fn flat_model_validates() {
        let m = neurospora_flat(NeurosporaParams::default());
        m.validate().unwrap();
        assert_eq!(m.rules.len(), 6);
        assert_eq!(m.initial.total_atoms(), 30);
    }

    #[test]
    fn compartment_model_validates() {
        let m = neurospora_compartments(NeurosporaParams::default());
        m.validate().unwrap();
        assert_eq!(m.initial.total_compartments(), 2);
        assert_eq!(m.initial.depth(), 2);
    }

    #[test]
    fn flat_model_oscillates_with_circadian_period() {
        let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
        let mut engine = EngineKind::Ssa.build(model, 2024, 0).unwrap();
        let mut clock = SampleClock::new(0.0, 0.5);
        let mut times = Vec::new();
        let mut mrna = Vec::new();
        engine.run_sampled(240.0, &mut clock, |t, v| {
            times.push(t);
            mrna.push(v[0] as f64);
        });
        // Skip the 48 h transient, then ask for the oscillation period.
        let start = times.iter().position(|&t| t >= 48.0).unwrap();
        let analysis = analyse_period(&times[start..], &mrna[start..], 8, 0.3, 20);
        let period = analysis.mean_period().expect("the clock should oscillate");
        assert!(
            (10.0..40.0).contains(&period),
            "period {period} h is not circadian-ish"
        );
        assert!(
            analysis.peaks.len() >= 4,
            "too few peaks: {}",
            analysis.peaks.len()
        );
    }

    #[test]
    fn compiled_repression_takes_the_exact_power_path_over_the_whole_orbit() {
        // The guard against a silent fallback to libm `pow`: n = 4 compiles
        // to the exact integer power, and nuclear FRQ never leaves its
        // guarded range on a long trajectory.
        let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
        let cwc::rule::CompiledLaw::HillRepression { pow, kn, .. } = model.rules[0].law.compile()
        else {
            panic!("transcription is Hill-repressed");
        };
        assert_eq!(kn, 1e8, "kⁿ = (KI·Ω)⁴ precomputed");
        assert!(pow.exact_below() > 0, "n = 4 must take the exact path");
        let mut engine = EngineKind::Ssa.build(model, 11, 0).unwrap();
        let mut clock = SampleClock::new(0.0, 0.5);
        let mut peak = 0;
        engine.run_sampled(240.0, &mut clock, |_, v| peak = peak.max(v[2]));
        assert!(peak > 100, "FRQ_n peak {peak} too small to mean anything");
        assert!(
            peak < pow.exact_below() / 4,
            "FRQ_n peak {peak} near the guard"
        );
    }

    #[test]
    fn mrna_amplitude_is_macroscopic() {
        let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
        let mut engine = EngineKind::Ssa.build(model, 7, 1).unwrap();
        let mut clock = SampleClock::new(0.0, 1.0);
        let mut lo = u64::MAX;
        let mut hi = 0;
        engine.run_sampled(150.0, &mut clock, |_, v| {
            lo = lo.min(v[0]);
            hi = hi.max(v[0]);
        });
        // With Ω=100 the deterministic M swings roughly 0.2–2 nM.
        assert!(hi > 100, "mRNA peak {hi} too small");
        assert!(lo < 60, "mRNA trough {lo} too high");
    }

    #[test]
    fn compartment_model_total_frq_is_conserved_by_transport() {
        let p = NeurosporaParams::default();
        let model = Arc::new(neurospora_compartments(p));
        let mut engine = EngineKind::Ssa.build(Arc::clone(&model), 5, 0).unwrap();
        engine.run_until(2.0);
        // Fn lives only inside the nucleus; Fc only in the cytosol.
        let term = engine.term().unwrap();
        let fn_species = model.alphabet.find_species("Fn").unwrap();
        let fc_species = model.alphabet.find_species("Fc").unwrap();
        let nucleus_term = term
            .site(&cwc::term::Path(vec![0, 0]))
            .expect("nucleus survives");
        assert_eq!(
            term.total_count(fn_species),
            nucleus_term.atoms.count(fn_species),
            "all Fn must be nuclear"
        );
        let cell_term = term.site(&cwc::term::Path(vec![0])).expect("cell");
        assert_eq!(
            term.total_count(fc_species),
            cell_term.atoms.count(fc_species),
            "all Fc must be cytosolic"
        );
    }

    #[test]
    fn omega_scales_molecule_counts() {
        let p = NeurosporaParams {
            omega: 500.0,
            ..Default::default()
        };
        let m = neurospora_flat(p);
        assert_eq!(m.initial.total_atoms(), 150); // 3 × 0.1 × 500
    }
}
