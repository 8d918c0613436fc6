//! Adaptive tau-leaping: Cao–Gillespie–Petzold step-size selection with
//! critical-reaction partitioning and an exact-SSA fallback.
//!
//! Fixed-step leaping ([`crate::tau_leap`]) makes the user pick τ; pick it
//! too large and the approximation degrades (or the leap thrashes in
//! negativity halving), too small and every leap fires less than one
//! reaction and the method is slower than exact SSA. This engine picks τ
//! from the *state* instead, the design StochKit popularised (Cao,
//! Gillespie & Petzold, "Efficient step size selection for the tau-leaping
//! simulation method", J. Chem. Phys. 124, 2006):
//!
//! 1. **Critical reactions.** A reaction within [`N_CRITICAL`] firings of
//!    exhausting one of its reactants is *critical*: it never leaps.
//!    Critical reactions fire one at a time, exactly, via an exponential
//!    clock over their summed propensity — so near-exhausted species are
//!    handled at SSA resolution while the abundant bulk still leaps.
//! 2. **The CGP bound.** Over the non-critical reactions, τ is the largest
//!    step for which the expected relative change of every propensity
//!    stays within the `epsilon` knob (per-species mean/variance bounds
//!    from the compiled [`ModelDeps`] stoichiometry
//!    — the `cgp_tau` bound of [`crate::flat`]).
//! 3. **SSA fallback.** When the bound collapses below
//!    [`SSA_FALLBACK_MULT`] expected firings' worth of time (τ < mult/a0),
//!    leaping cannot beat exact stepping, so the engine takes one exact
//!    direct-method step on the species-count vector instead.
//!
//! ## Quantum-exact execution
//!
//! Identical contract to the fixed-step engine: every transition (leap,
//! critical firing or fallback step) is drawn from the committed state
//! only, held *pending* when it ends beyond the quantum horizon, and
//! committed in a later quantum — never re-drawn or truncated. The RNG
//! draw discipline per transition is documented in [`crate::rng`].

use std::sync::Arc;

use cwc::model::Model;
use cwc::species::Species;
use rand::Rng;

use crate::batch::kernels::{self, Kernel, KernelDispatch, RuleMask};
use crate::deps::ModelDeps;
use crate::flat::{mass_action_flat, poisson, CgpScratch, FlatModel, FlatModelError};
use crate::rng::{sim_rng, SimRng};
use crate::ssa::SampleClock;

/// Default relative-propensity-change bound ε (Cao et al. recommend
/// 0.03–0.05).
pub const DEFAULT_EPSILON: f64 = 0.03;

/// A reaction within this many firings of exhausting a reactant is
/// *critical* and fires exactly, never inside a Poisson leap.
pub const N_CRITICAL: u64 = 10;

/// When the CGP bound drops below `SSA_FALLBACK_MULT / a0` — fewer than
/// this many expected firings per leap — the engine takes an exact step
/// instead of leaping.
pub const SSA_FALLBACK_MULT: f64 = 10.0;

/// Two-sided relative slack around the incremental `a0` estimate used to
/// screen the SSA-fallback guard without folding the full row. The
/// estimate's true drift from the exact fold bits is bounded by roughly
/// `(updates since resync + rules) × 2⁻⁵³` relative — capped below
/// ~5 × 10⁻¹⁰ by [`A0_EST_MAX_UPDATES`] — so this margin is ≥ 20×
/// conservative; comparisons that stay inconclusive inside it fall back
/// to the exact fold.
const A0_EST_REL: f64 = 1e-8;

/// Forced-refold cap: after this many incremental `a0` updates without
/// an exact resync the screen stands down (returns inconclusive) until
/// the next fold re-anchors the estimate.
const A0_EST_MAX_UPDATES: u64 = 1 << 22;

/// A drawn-but-not-yet-committed transition: one leap, one critical
/// firing riding on a truncated leap, or one exact fallback step.
#[derive(Debug, Clone)]
struct PendingTransition {
    /// Sparse candidate state: `(species index, new value)`, deduped.
    /// Committing applies exactly these writes and refreshes exactly the
    /// rules incident to these species, making the per-transition work
    /// O(affected) instead of O(all rules) / O(all species).
    updates: Vec<(usize, i64)>,
    /// Absolute time at which the transition commits.
    end: f64,
    /// Firings the transition applies when committed.
    firings: u64,
    /// True when this transition was an exact (fallback or critical)
    /// single firing rather than a Poisson leap.
    exact: bool,
}

/// Kernel-routed incremental per-draw state for the adaptive hot path
/// (the `!full_recompute` side). Everything here describes the last
/// *committed* state and is maintained at commit time in O(affected):
/// `props`, the enabled/critical masks and their counts by walking
/// `FlatModel::incidence` over the changed species; the two prefix rows
/// lazily, refolded from a dirty watermark through the width-1 row
/// kernels of [`crate::batch::kernels`] (honouring the engine's
/// [`KernelDispatch`]). Every value is bit-identical to what the
/// full-recompute replica scans up from scratch on each draw.
#[derive(Debug, Clone, Default)]
struct HotState {
    /// Cached per-rule propensities of the committed state.
    props: Vec<f64>,
    /// `enabled[r]` ⟺ `props[r] > 0.0`.
    enabled: RuleMask,
    /// `crit[r]` ⟺ enabled and within [`N_CRITICAL`] firings of
    /// exhausting a reactant — the criticality partition, re-classified
    /// only for rules whose reactant species changed since last commit.
    crit: RuleMask,
    /// Number of enabled rules. `active == 0` ⟺ the legacy `a0 <= 0.0`
    /// absorbing check (an adds-only fold of no positive entries).
    active: usize,
    /// Number of enabled critical rules (`a0_crit > 0.0` ⟺ `n_crit > 0`).
    n_crit: usize,
    /// Adds-only prefix fold over all rules — the exact-fallback
    /// selection row; slots below `main_dirty` hold committed bits.
    main_prefix: Vec<f64>,
    /// First rule whose `main_prefix` slot may be stale (`len` = clean).
    main_dirty: usize,
    /// Fold total (the legacy `a0` bits) once `main_dirty == len`.
    main_total: f64,
    /// Critical-only masked prefix fold — the critical selection row.
    crit_prefix: Vec<f64>,
    /// First rule whose `crit_prefix` slot may be stale (`len` = clean).
    crit_dirty: usize,
    /// Masked fold total (the legacy `a0_crit` bits) once clean.
    crit_total: f64,
    /// Incrementally-maintained estimate of the main fold total,
    /// re-anchored to the exact bits at every `refold_main`. Only ever
    /// used through [`HotState::screen_fallback`]'s conservative
    /// interval — never as `a0` itself.
    a0_est: f64,
    /// Incremental updates applied to `a0_est` since its last exact
    /// resync (drives the [`A0_EST_MAX_UPDATES`] stand-down).
    est_updates: u64,
}

impl HotState {
    /// Full rescan: recompute every propensity, classification and
    /// count from `state`. Runs once per cache (in)validation, not per
    /// draw.
    fn rebuild(&mut self, flat: &FlatModel, state: &[i64]) {
        flat.propensities_into(state, &mut self.props);
        let n = self.props.len();
        self.enabled = RuleMask::new(n);
        self.crit = RuleMask::new(n);
        self.active = 0;
        self.n_crit = 0;
        for r in 0..n {
            if self.props[r] > 0.0 {
                self.enabled.assign(r, true);
                self.active += 1;
                if rule_is_critical(flat, state, r) {
                    self.crit.assign(r, true);
                    self.n_crit += 1;
                }
            }
        }
        self.main_prefix.clear();
        self.main_prefix.resize(n, 0.0);
        self.main_dirty = 0;
        self.main_total = -0.0;
        self.crit_prefix.clear();
        self.crit_prefix.resize(n, 0.0);
        self.crit_dirty = 0;
        self.crit_total = -0.0;
        // Any evaluation within a few ulps of the fold works as the
        // anchor; the screen's slack absorbs the difference.
        self.a0_est = self.props.iter().sum();
        self.est_updates = 0;
    }

    /// The full-row fold total (the legacy `a0 = Σ props` bits),
    /// refolding the stale prefix tail first. Lazy: the pure-critical
    /// regime never calls this, so dead rules are never scanned.
    fn refold_main(&mut self, kernel: Kernel) -> f64 {
        if self.main_dirty < self.props.len() {
            self.main_total =
                kernels::row_fold_from(kernel, &self.props, &mut self.main_prefix, self.main_dirty);
            self.main_dirty = self.props.len();
            // Exact bits in hand: re-anchor the screening estimate.
            self.a0_est = self.main_total;
            self.est_updates = 0;
        }
        self.main_total
    }

    /// The critical-row masked fold total (the legacy `a0_crit` bits),
    /// refolding the stale tail first.
    fn refold_crit(&mut self, kernel: Kernel) -> f64 {
        if self.crit_dirty < self.props.len() {
            self.crit_total = kernels::row_fold_masked_from(
                kernel,
                &self.props,
                &self.crit,
                &mut self.crit_prefix,
                self.crit_dirty,
            );
            self.crit_dirty = self.props.len();
        }
        self.crit_total
    }

    /// Conservative screen of the replica's fallback guard
    /// `tau1 < SSA_FALLBACK_MULT / a0` (for finite `tau1`) that avoids
    /// folding the full row when the comparison cannot be close.
    ///
    /// Soundness: the exact fold total `S` lies within `a0_est ±
    /// a0_est·A0_EST_REL` (the estimate's drift bound is ≥ 20× smaller —
    /// see [`A0_EST_REL`]), and FP division is monotone, so
    /// `SSA_FALLBACK_MULT / S` is bracketed by the quotients at the
    /// interval's edges. A `tau1` beyond the far edge decides the exact
    /// comparison; anything inside returns `None` and the caller folds
    /// the row and compares exactly.
    fn screen_fallback(&self, tau1: f64) -> Option<bool> {
        if self.main_dirty >= self.props.len() {
            // Row already clean: the exact total is cached anyway.
            return Some(tau1 < SSA_FALLBACK_MULT / self.main_total);
        }
        if self.est_updates > A0_EST_MAX_UPDATES || !self.a0_est.is_finite() {
            return None;
        }
        let slack = self.a0_est * A0_EST_REL;
        let lo = self.a0_est - slack;
        let hi = self.a0_est + slack;
        if lo <= 0.0 {
            return None;
        }
        if tau1 < SSA_FALLBACK_MULT / hi {
            Some(true)
        } else if tau1 >= SSA_FALLBACK_MULT / lo {
            Some(false)
        } else {
            None
        }
    }

    /// Commit-time refresh of one rule: new propensity + classification.
    /// Idempotent, so a rule incident to two changed species may be
    /// visited twice without drifting the counts or watermarks.
    fn update_rule(&mut self, r: usize, a: f64, critical: bool) {
        let value_changed = self.props[r].to_bits() != a.to_bits();
        if value_changed {
            self.a0_est += a - self.props[r];
            self.est_updates += 1;
            self.props[r] = a;
            if self.main_dirty > r {
                self.main_dirty = r;
            }
        }
        let enabled = a > 0.0;
        if self.enabled.assign(r, enabled) != enabled {
            if enabled {
                self.active += 1;
            } else {
                self.active -= 1;
            }
        }
        if self.crit.assign(r, critical) != critical {
            if critical {
                self.n_crit += 1;
            } else {
                self.n_crit -= 1;
            }
            if self.crit_dirty > r {
                self.crit_dirty = r;
            }
        } else if critical && value_changed && self.crit_dirty > r {
            self.crit_dirty = r;
        }
    }
}

/// True when firing rule `r` could exhaust a reactant within
/// [`N_CRITICAL`] firings from `state`. A free function so commit-time
/// maintenance can classify rules while the engine is partially
/// borrowed.
fn rule_is_critical(flat: &FlatModel, state: &[i64], r: usize) -> bool {
    flat.delta[r].iter().any(|&(i, d)| {
        if d >= 0 {
            return false;
        }
        (state[i] / -d) < N_CRITICAL as i64
    })
}

/// Flat-model approximate simulator with adaptive (CGP) step-size
/// selection.
#[derive(Debug, Clone)]
pub struct AdaptiveTauEngine {
    model: Arc<Model>,
    /// The model's shared flat form.
    flat: Arc<FlatModel>,
    /// `state[i]` = copies of species index `i` (last *committed* state).
    state: Vec<i64>,
    /// Time of the last committed transition boundary.
    committed: f64,
    /// Reported simulation clock (advances to quantum horizons; always
    /// ≥ `committed`).
    time: f64,
    /// The CGP relative-change bound ε.
    epsilon: f64,
    /// Transition drawn past a quantum horizon, held until the horizon
    /// passes its end.
    pending: Option<PendingTransition>,
    rng: SimRng,
    instance: u64,
    /// Committed Poisson leaps.
    leaps: u64,
    /// Committed exact transitions (critical firings + SSA fallbacks).
    exact_steps: u64,
    firings: u64,
    /// Reusable per-draw buffers of the full-recompute replica path.
    props_buf: Vec<f64>,
    crit_buf: Vec<bool>,
    cgp_scratch: CgpScratch,
    /// Incremental kernel-routed state of the hot path; valid only when
    /// `cache_ready` and maintained across commits in O(affected).
    hot: HotState,
    /// True once `hot` describes the committed state.
    cache_ready: bool,
    /// Replica knob: recompute every propensity, criticality flag and
    /// fold on every draw with plain scalar scans (the pre-kernel
    /// behaviour). Bit-identical results; exists so tests and the
    /// `adaptive_tau` bench can pin/measure what the incremental hot
    /// path buys.
    full_recompute: bool,
    /// Per-species "already marked changed" bitmap, un-marked after each
    /// draw so steady state does no O(species) clearing.
    seen_buf: Vec<bool>,
    /// Sparse candidate values for species marked in `seen_buf` (the
    /// hot path's replacement for cloning the whole state per draw).
    cand_buf: Vec<i64>,
    /// Reusable changed-species index list for the hot path.
    changed_buf: Vec<usize>,
    /// Recycled `updates` allocation: commits return the spent vector
    /// here, the next draw reuses it (zero steady-state allocation).
    updates_pool: Vec<(usize, i64)>,
    /// Requested kernel dispatch policy and its resolution.
    dispatch: KernelDispatch,
    kernel: Kernel,
}

impl AdaptiveTauEngine {
    /// Builds an adaptive leaping engine from a flat model, compiling its
    /// stoichiometry locally.
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when any rule uses compartments, applies
    /// below the top level or has a non-mass-action law.
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Result<Self, FlatModelError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, instance)
    }

    /// Like [`AdaptiveTauEngine::new`], reusing an already-compiled
    /// [`ModelDeps`] (one compilation per run, shared across instances).
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when the model is not flat mass-action.
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Self, FlatModelError> {
        let flat = mass_action_flat(&model, &deps, "adaptive tau-leaping")?;
        let state = flat.initial_state();
        let species_len = flat.species_len();
        Ok(AdaptiveTauEngine {
            model,
            flat,
            state,
            committed: 0.0,
            time: 0.0,
            epsilon: DEFAULT_EPSILON,
            pending: None,
            rng: sim_rng(base_seed, instance),
            instance,
            leaps: 0,
            exact_steps: 0,
            firings: 0,
            props_buf: Vec::new(),
            crit_buf: Vec::new(),
            cgp_scratch: CgpScratch::default(),
            hot: HotState::default(),
            cache_ready: false,
            full_recompute: false,
            seen_buf: vec![false; species_len],
            cand_buf: vec![0; species_len],
            changed_buf: Vec::new(),
            updates_pool: Vec::new(),
            dispatch: KernelDispatch::Auto,
            kernel: KernelDispatch::Auto.resolve(),
        })
    }

    /// Sets the kernel dispatch policy for the hot path's row folds,
    /// selection scans and masked sweeps (default [`KernelDispatch::Auto`]).
    /// Every dispatch produces bit-identical trajectories; the knob exists
    /// for benchmarking and for pinning the scalar reference in tests.
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        self.kernel = dispatch.resolve();
        self
    }

    /// The configured kernel dispatch policy.
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        self.dispatch
    }

    /// Diagnostic replica: disables the incidence-list propensity cache,
    /// so every draw recomputes all propensities from the state vector.
    /// Trajectories are bit-identical either way (the cache wins or ties
    /// at every measured rule count, so it is what every engine starts
    /// on); tests and the `adaptive_tau` bench use this side as the
    /// reference the cache is compared against.
    pub fn with_full_recompute(mut self) -> Self {
        self.full_recompute = true;
        self.cache_ready = false;
        self.cgp_scratch = CgpScratch::default();
        self
    }

    /// True for the diagnostic replica built by
    /// [`AdaptiveTauEngine::with_full_recompute`]; false when commits
    /// refresh the incidence-list cache (the default).
    pub fn full_recompute(&self) -> bool {
        self.full_recompute
    }

    /// Sets the CGP relative-change bound ε.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1)"
        );
        self.epsilon = epsilon;
        self
    }

    /// The CGP relative-change bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// Committed Poisson leaps so far.
    pub fn leaps(&self) -> u64 {
        self.leaps
    }

    /// Committed exact transitions so far (critical firings and SSA
    /// fallback steps) — the partitioning diagnostic.
    pub fn exact_steps(&self) -> u64 {
        self.exact_steps
    }

    /// Total reaction firings applied.
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Current copy number of `species`.
    pub fn count(&self, species: Species) -> u64 {
        self.state
            .get(species.raw() as usize)
            .map_or(0, |&c| c as u64)
    }

    /// The committed per-species state vector (ascending interned
    /// species order), for invariant tests.
    pub fn counts(&self) -> &[i64] {
        &self.state
    }

    /// Evaluates the model's observables on the committed state.
    pub fn observe(&self) -> Vec<u64> {
        let mut values = Vec::new();
        self.flat
            .observe_into(|i| self.state[i] as u64, &mut values);
        values
    }

    /// True when firing rule `r` could exhaust a reactant within
    /// [`N_CRITICAL`] firings from `state`.
    fn is_critical(&self, r: usize) -> bool {
        rule_is_critical(&self.flat, &self.state, r)
    }

    /// One exact direct-method step on the count vector (the SSA
    /// fallback), full-scan replica flavour. Draw discipline: one
    /// waiting-time uniform, one selection uniform in `[0, a0)` (always
    /// consumed, even single-channel — see [`crate::rng`]).
    fn draw_exact_step(&mut self, props: &[f64], a0: f64) -> PendingTransition {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let dt = -u1.ln() / a0;
        let target = self.rng.gen_range(0.0..a0);
        let mut acc = 0.0;
        let mut chosen = props.len() - 1;
        for (r, &a) in props.iter().enumerate() {
            acc += a;
            if target < acc {
                chosen = r;
                break;
            }
        }
        self.exact_transition(chosen, dt)
    }

    /// Packages one exact firing of `chosen` as a sparse transition.
    fn exact_transition(&mut self, chosen: usize, dt: f64) -> PendingTransition {
        let mut updates = std::mem::take(&mut self.updates_pool);
        updates.clear();
        updates.extend(
            self.flat.delta[chosen]
                .iter()
                .map(|&(i, d)| (i, self.state[i] + d)),
        );
        PendingTransition {
            updates,
            end: self.committed + dt,
            firings: 1,
            exact: true,
        }
    }

    /// Draws one transition from the committed state without committing
    /// it. Returns `None` when the state is absorbing. (Thin shell that
    /// loans out the reusable buffers / hot state.)
    fn draw_transition(&mut self) -> Option<PendingTransition> {
        if self.full_recompute {
            let mut props = std::mem::take(&mut self.props_buf);
            let mut critical = std::mem::take(&mut self.crit_buf);
            let out = self.draw_full(&mut props, &mut critical);
            self.props_buf = props;
            self.crit_buf = critical;
            out
        } else {
            self.draw_incremental()
        }
    }

    /// The full-recompute replica draw: every propensity, criticality
    /// flag, fold and sweep rescans all rules with plain scalar loops.
    /// This is the reference the incremental hot path is pinned against
    /// (bit-for-bit, by the golden suite and the hot-path proptests).
    fn draw_full(
        &mut self,
        props: &mut Vec<f64>,
        critical: &mut Vec<bool>,
    ) -> Option<PendingTransition> {
        self.flat.propensities_into(&self.state, props);
        let a0: f64 = props.iter().sum();
        if a0 <= 0.0 {
            return None;
        }
        // Partition: critical reactions fire exactly, the rest leap.
        critical.clear();
        for (r, &a) in props.iter().enumerate() {
            let c = a > 0.0 && self.is_critical(r);
            critical.push(c);
        }
        let a0_crit: f64 = props
            .iter()
            .enumerate()
            .filter(|&(r, _)| critical[r])
            .map(|(_, &a)| a)
            .sum();
        let mut tau1 = self.flat.cgp_tau_with(
            &mut self.cgp_scratch,
            &self.state,
            props,
            self.epsilon,
            |r| !critical[r],
        );
        loop {
            // Leaping cannot pay for itself below the fallback bound; and
            // when *nothing* bounds the leap with no critical clock to cap
            // it (every enabled reaction has net-zero stoichiometry, e.g.
            // a catalytic no-op), leaping is meaningless — both cases take
            // one exact step.
            if tau1 < SSA_FALLBACK_MULT / a0 || (!tau1.is_finite() && a0_crit <= 0.0) {
                return Some(self.draw_exact_step(props, a0));
            }
            // Exponential clock of the critical block (∞ when none
            // enabled; tau1 is then finite, per the guard above).
            let tau2 = if a0_crit > 0.0 {
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / a0_crit
            } else {
                f64::INFINITY
            };
            let (leap_len, fire_critical) = if tau2 <= tau1 {
                (tau2, true)
            } else {
                (tau1, false)
            };
            let mut candidate = self.state.clone();
            let mut firings = 0u64;
            let mut changed: Vec<usize> = Vec::new();
            for (r, &a) in props.iter().enumerate() {
                if a == 0.0 || critical[r] {
                    continue;
                }
                let k = poisson(&mut self.rng, a * leap_len);
                if k == 0 {
                    continue;
                }
                firings += k;
                for &(i, d) in &self.flat.delta[r] {
                    candidate[i] += d * k as i64;
                    if !self.seen_buf[i] {
                        self.seen_buf[i] = true;
                        changed.push(i);
                    }
                }
            }
            if fire_critical {
                let target = self.rng.gen_range(0.0..a0_crit);
                let mut acc = 0.0;
                let mut chosen = None;
                for (r, &a) in props.iter().enumerate() {
                    if !critical[r] {
                        continue;
                    }
                    acc += a;
                    if target < acc {
                        chosen = Some(r);
                        break;
                    }
                    chosen = Some(r); // last critical wins on fp slack
                }
                let chosen = chosen.expect("a0_crit > 0 implies a critical reaction");
                for &(i, d) in &self.flat.delta[chosen] {
                    candidate[i] += d;
                    if !self.seen_buf[i] {
                        self.seen_buf[i] = true;
                        changed.push(i);
                    }
                }
                firings += 1;
            }
            // Un-mark (cheaper than clearing the whole bitmap: O(changed),
            // not O(species)) — also needed before a halving retry.
            for &i in &changed {
                self.seen_buf[i] = false;
            }
            if candidate.iter().all(|&c| c >= 0) {
                return Some(PendingTransition {
                    updates: changed.iter().map(|&i| (i, candidate[i])).collect(),
                    end: self.committed + leap_len,
                    firings,
                    exact: fire_critical && firings == 1,
                });
            }
            // Rare overshoot (criticality is a 10-firing heuristic, not a
            // guarantee): halve the bound and redraw the whole transition
            // from the committed state — still a pure function of
            // (state, stream), so slicing invariance is preserved.
            tau1 /= 2.0;
        }
    }

    /// The incremental kernel-routed draw. Bit-identical to
    /// [`Self::draw_full`] by construction:
    ///
    /// - `active == 0` ⟺ the replica's `a0 <= 0.0` (an adds-only fold
    ///   with no positive entry cannot exceed zero);
    /// - the maintained criticality masks equal the per-draw
    ///   re-classification (a rule's criticality depends only on its
    ///   reactant counts, and every such change routes through
    ///   `FlatModel::incidence` at commit);
    /// - the masked folds add the same values in the same rule order as
    ///   the replica's skip-scans, so `a0`/`a0_crit` carry the same bits
    ///   (`-0.0` vs `0.0` seeds are washed out by the first positive add
    ///   and compare equal otherwise);
    /// - the CGP bound accumulates over the same enabled non-critical
    ///   rules in the same order (`cgp_tau_masked`);
    /// - Poisson sweeps visit the same rules in the same order, so the
    ///   RNG stream is consumed identically; selection searches return
    ///   the replica scans' crossing slots.
    ///
    /// When `tau1` is infinite the fallback guard needs no `a0` at all
    /// (`tau1 < mult/a0` is false for every positive `a0`), so the
    /// pure-critical regime never folds the full-width row — that plus
    /// the O(affected) commits is where the speedup comes from.
    fn draw_incremental(&mut self) -> Option<PendingTransition> {
        if !self.cache_ready {
            self.hot.rebuild(&self.flat, &self.state);
            self.cache_ready = true;
        }
        // Disjoint field borrows (no per-draw moves of the hot state).
        let Self {
            flat,
            state,
            rng,
            hot,
            cgp_scratch,
            seen_buf,
            cand_buf,
            changed_buf,
            updates_pool,
            ..
        } = self;
        let (kernel, epsilon, committed) = (self.kernel, self.epsilon, self.committed);
        if hot.active == 0 {
            return None;
        }
        let mut tau1 = if hot.active == hot.n_crit {
            // No enabled non-critical rule: the CGP scan accumulates
            // nothing and the bound is unbounded.
            f64::INFINITY
        } else {
            flat.cgp_tau_masked(
                cgp_scratch,
                state,
                &hot.props,
                epsilon,
                hot.enabled.iter_minus(&hot.crit),
            )
        };
        let changed = changed_buf;
        loop {
            // Replica guard: `tau1 < mult/a0 || (!tau1.is_finite() &&
            // a0_crit <= 0.0)`. Each fold is forced only when its value
            // can matter: the full row only when tau1 is finite (an
            // infinite tau1 fails `tau1 < mult/a0` for every positive
            // a0), the critical row only when a critical clock actually
            // runs (`a0_crit <= 0.0` ⟺ `n_crit == 0`, no bits needed).
            let fallback = if tau1.is_finite() {
                match hot.screen_fallback(tau1) {
                    Some(f) => f,
                    None => tau1 < SSA_FALLBACK_MULT / hot.refold_main(kernel),
                }
            } else {
                hot.n_crit == 0
            };
            if fallback {
                // Exact step, hot flavour: identical draw discipline and
                // selection index to `draw_exact_step`, but the linear
                // accumulate scan becomes a kernel search over the
                // maintained prefix row (same partial sums, same
                // crossing slot).
                let a0 = hot.refold_main(kernel);
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let dt = -u1.ln() / a0;
                let target = rng.gen_range(0.0..a0);
                let mut chosen = kernels::row_select(kernel, &hot.main_prefix, target);
                if chosen >= hot.props.len() {
                    // fp-slack shortfall: the replica scan's default slot.
                    chosen = hot.props.len() - 1;
                }
                let mut updates = std::mem::take(updates_pool);
                updates.clear();
                updates.extend(flat.delta[chosen].iter().map(|&(i, d)| (i, state[i] + d)));
                return Some(PendingTransition {
                    updates,
                    end: committed + dt,
                    firings: 1,
                    exact: true,
                });
            }
            let tau2 = if hot.n_crit > 0 {
                let a0_crit = hot.refold_crit(kernel);
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / a0_crit
            } else {
                f64::INFINITY
            };
            let (leap_len, fire_critical) = if tau2 <= tau1 {
                (tau2, true)
            } else {
                (tau1, false)
            };
            let mut firings = 0u64;
            for r in hot.enabled.iter_minus(&hot.crit) {
                let k = poisson(rng, hot.props[r] * leap_len);
                if k == 0 {
                    continue;
                }
                firings += k;
                for &(i, d) in &flat.delta[r] {
                    if !seen_buf[i] {
                        seen_buf[i] = true;
                        cand_buf[i] = state[i];
                        changed.push(i);
                    }
                    cand_buf[i] += d * k as i64;
                }
            }
            if fire_critical {
                // tau2 finite ⟹ the critical row was folded above.
                let target = rng.gen_range(0.0..hot.crit_total);
                let mut chosen = kernels::row_select(kernel, &hot.crit_prefix, target);
                if chosen >= hot.props.len() {
                    // fp-slack shortfall: the replica's "last critical
                    // wins" terminal slot.
                    chosen = hot
                        .crit
                        .last_set()
                        .expect("a0_crit > 0 implies a critical reaction");
                }
                for &(i, d) in &flat.delta[chosen] {
                    if !seen_buf[i] {
                        seen_buf[i] = true;
                        cand_buf[i] = state[i];
                        changed.push(i);
                    }
                    cand_buf[i] += d;
                }
                firings += 1;
            }
            // Unchanged species keep their committed (non-negative)
            // values, so checking the touched ones is the replica's
            // whole-vector scan.
            let ok = changed.iter().all(|&i| cand_buf[i] >= 0);
            let updates = if ok {
                let mut updates = std::mem::take(updates_pool);
                updates.clear();
                updates.extend(changed.iter().map(|&i| (i, cand_buf[i])));
                Some(updates)
            } else {
                None
            };
            for &i in changed.iter() {
                seen_buf[i] = false;
            }
            changed.clear();
            if let Some(updates) = updates {
                return Some(PendingTransition {
                    updates,
                    end: committed + leap_len,
                    firings,
                    exact: fire_critical && firings == 1,
                });
            }
            // Rare overshoot: halve the bound and redraw, as the replica
            // does.
            tau1 /= 2.0;
        }
    }

    /// Applies the pending transition, returning its firings.
    fn commit_pending(&mut self) -> u64 {
        let p = self.pending.take().expect("pending transition to commit");
        for &(i, v) in &p.updates {
            self.state[i] = v;
        }
        // O(affected) hot-state refresh: only rules whose reactant
        // species changed can differ in propensity *or* criticality
        // (a negative net delta implies the species is a reactant, so
        // `incidence` covers both); everything else keeps committed
        // bits. The fold watermarks drop to the lowest refreshed rule,
        // leaving the prefix rows below it valid.
        if self.cache_ready && !self.full_recompute {
            let Self {
                flat, state, hot, ..
            } = self;
            for &(i, _) in &p.updates {
                for &r in &flat.incidence[i] {
                    let a = flat.propensity(state, r);
                    let critical = a > 0.0 && rule_is_critical(flat, state, r);
                    hot.update_rule(r, a, critical);
                }
            }
        }
        let mut spent = p.updates;
        spent.clear();
        self.updates_pool = spent;
        self.committed = p.end;
        if self.time < p.end {
            self.time = p.end;
        }
        if p.exact {
            self.exact_steps += 1;
        } else {
            self.leaps += 1;
        }
        self.firings += p.firings;
        p.firings
    }

    /// Advances by one adaptive transition (leap, critical firing or
    /// fallback step). Returns the time advanced (0.0 when absorbing).
    /// Commits any transition held pending by the quantum-execution API
    /// first.
    pub fn advance(&mut self) -> f64 {
        if self.pending.is_some() {
            self.commit_pending();
        }
        match self.draw_transition() {
            None => 0.0,
            Some(p) => {
                let taken = p.end - self.committed;
                self.pending = Some(p);
                self.commit_pending();
                taken
            }
        }
    }

    /// Runs until simulation time reaches `t_end` (or the state absorbs),
    /// without sampling; returns the reactions fired. A transition drawn
    /// past `t_end` stays pending for a later call, so this never
    /// overshoots the horizon (same contract as the exact engines).
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        // A muted clock (zero-sample limit) turns sampled advancement into
        // plain advancement on the same pending-transition path.
        let mut muted = SampleClock::new(0.0, 1.0).with_limit(0);
        self.run_sampled(t_end, &mut muted, |_, _| {})
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval. Returns the firings
    /// *committed* during the call.
    ///
    /// The slicing-invariant quantum-execution path: transitions never
    /// truncate at `t_end`; one drawn past the horizon stays pending for
    /// a later call, and samples report the committed state in force.
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, mut on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut fired = 0;
        loop {
            if self.pending.is_none() {
                self.pending = self.draw_transition();
            }
            let t_next = self
                .pending
                .as_ref()
                .map(|p| p.end)
                .unwrap_or(f64::INFINITY);
            let horizon = t_next.min(t_end);
            while let Some(ts) = clock.peek() {
                if ts > horizon {
                    break;
                }
                let values = self.observe();
                on_sample(ts, &values);
                clock.advance();
            }
            if t_next > t_end {
                if self.time < t_end {
                    self.time = t_end;
                }
                return fired;
            }
            fired += self.commit_pending();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc::model::Model;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn birth_death_model(birth: f64, death: f64, n0: u64) -> Arc<Model> {
        let mut m = Model::new("bd");
        let a = m.species("A");
        m.rule("birth")
            .produces("A", 1)
            .rate(birth)
            .build()
            .unwrap();
        m.rule("death")
            .consumes("A", 1)
            .rate(death)
            .build()
            .unwrap();
        m.initial.add_atoms(a, n0);
        m.observe("A", a);
        Arc::new(m)
    }

    #[test]
    fn rejects_compartment_models_naming_rule_and_engine() {
        let mut m = Model::new("c");
        m.rule("shuttle")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let err = AdaptiveTauEngine::new(Arc::new(m), 0, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`shuttle`"), "{msg}");
        assert!(msg.contains("adaptive tau-leaping"), "{msg}");
    }

    #[test]
    fn decay_mean_matches_exponential() {
        let model = decay_model(10_000, 1.0);
        let mut e = AdaptiveTauEngine::new(model, 42, 0).unwrap();
        e.run_until(1.0);
        assert_eq!(e.time(), 1.0, "run_until must stop at the horizon");
        let remaining = e.observe()[0] as f64;
        let expected = 10_000.0 * (-1.0f64).exp(); // ≈ 3679
        assert!(
            (remaining - expected).abs() < 0.05 * expected,
            "remaining {remaining}, expected ≈ {expected}"
        );
        // On a 10k population the engine must actually leap, not fall
        // back to per-reaction stepping.
        assert!(e.leaps() > 0);
        assert!(
            e.firings() > 20 * (e.leaps() + e.exact_steps()),
            "{} firings in {} leaps + {} exact steps",
            e.firings(),
            e.leaps(),
            e.exact_steps()
        );
    }

    #[test]
    fn small_populations_fall_back_to_exact_stepping() {
        // 5 molecules: every reaction is critical / the CGP bound is tiny,
        // so the engine must take exact transitions and stay non-negative.
        let model = decay_model(5, 2.0);
        let mut e = AdaptiveTauEngine::new(model, 7, 0).unwrap();
        e.run_until(50.0);
        assert_eq!(e.observe(), vec![0]);
        assert_eq!(e.firings(), 5);
        assert_eq!(e.leaps(), 0, "no Poisson leap on a critical-only state");
        assert_eq!(e.exact_steps(), 5);
        assert!(e.counts().iter().all(|&c| c >= 0));
    }

    #[test]
    fn state_never_goes_negative_under_pressure() {
        let model = birth_death_model(3.0, 9.0, 15);
        let mut e = AdaptiveTauEngine::new(model, 11, 0)
            .unwrap()
            .with_epsilon(0.3);
        e.run_until(5.0);
        assert!(e.counts().iter().all(|&c| c >= 0));
    }

    #[test]
    fn absorbing_state_terminates() {
        let model = decay_model(0, 1.0);
        let mut e = AdaptiveTauEngine::new(model, 7, 0).unwrap();
        e.run_until(3.0);
        assert_eq!(e.time(), 3.0);
        assert_eq!(e.firings(), 0);
    }

    #[test]
    fn quantum_slicing_is_bit_identical() {
        let model = birth_death_model(500.0, 1.0, 400);
        let mk = || {
            AdaptiveTauEngine::new(Arc::clone(&model), 5, 3)
                .unwrap()
                .with_epsilon(0.05)
        };
        let mut whole = mk();
        let mut wc = SampleClock::new(0.0, 0.25);
        let mut ws = Vec::new();
        whole.run_sampled(6.0, &mut wc, |t, v| ws.push((t, v.to_vec())));

        let mut sliced = mk();
        let mut sc = SampleClock::new(0.0, 0.25);
        let mut ss = Vec::new();
        for t in [0.1, 0.33, 1.0, 1.01, 2.5, 4.99, 6.0] {
            sliced.run_sampled(t, &mut sc, |t, v| ss.push((t, v.to_vec())));
        }
        assert_eq!(ws, ss);
        assert_eq!(whole.counts(), sliced.counts());
        assert_eq!(whole.firings(), sliced.firings());
        assert_eq!(whole.leaps(), sliced.leaps());
        assert_eq!(whole.exact_steps(), sliced.exact_steps());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn epsilon_trades_accuracy_for_leap_size() {
        // Larger ε ⇒ larger leaps ⇒ fewer transitions to the horizon.
        let model = birth_death_model(2000.0, 1.0, 2000);
        let run = |eps: f64| {
            let mut e = AdaptiveTauEngine::new(Arc::clone(&model), 3, 0)
                .unwrap()
                .with_epsilon(eps);
            e.run_until(4.0);
            e.leaps() + e.exact_steps()
        };
        let tight = run(0.01);
        let loose = run(0.1);
        assert!(
            loose * 3 < tight,
            "ε=0.1 used {loose} transitions, ε=0.01 used {tight}"
        );
    }

    #[test]
    fn catalytic_no_op_rules_do_not_panic() {
        // Regression: a model whose only enabled reaction has net-zero
        // stoichiometry leaves the CGP bound unbounded with an empty
        // critical block; the engine must take exact steps (like SSA on
        // the same model) instead of sampling an empty range.
        let mut m = Model::new("noop");
        let a = m.species("A");
        m.rule("touch")
            .consumes("A", 1)
            .produces("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        m.initial.add_atoms(a, 100);
        m.observe("A", a);
        let mut e = AdaptiveTauEngine::new(Arc::new(m), 9, 0).unwrap();
        e.run_until(1.0);
        assert_eq!(e.observe(), vec![100], "no-ops change nothing");
        assert!(e.firings() > 0, "but they do fire, like under SSA");
        assert_eq!(e.leaps(), 0);
    }

    #[test]
    fn incidence_cache_is_bit_identical_to_full_recompute() {
        // A multi-species chain where most transitions touch only a few
        // of the species, so the incidence refresh really skips work —
        // and must not change a single bit of the trajectory.
        let model = {
            let mut m = Model::new("chain");
            let n = 12;
            for i in 0..n {
                let name = format!("S{i}");
                let s = m.species(&name);
                m.initial.add_atoms(s, 200);
                m.observe(&name, s);
            }
            for i in 0..n {
                let from = format!("S{i}");
                let to = format!("S{}", (i + 1) % n);
                m.rule(&format!("r{i}"))
                    .consumes(&from, 1)
                    .produces(&to, 1)
                    .rate(1.0 + i as f64 * 0.1)
                    .build()
                    .unwrap();
            }
            Arc::new(m)
        };
        for seed in [1u64, 9, 42] {
            let mut fast = AdaptiveTauEngine::new(Arc::clone(&model), seed, 0)
                .unwrap()
                .with_epsilon(0.05);
            assert!(!fast.full_recompute(), "the cache is the default");
            let mut slow = AdaptiveTauEngine::new(Arc::clone(&model), seed, 0)
                .unwrap()
                .with_epsilon(0.05)
                .with_full_recompute();
            assert!(slow.full_recompute());
            // Slice the horizons differently too: the cache must survive
            // pending transitions across quantum boundaries.
            let mut fc = SampleClock::new(0.0, 0.25);
            let mut sc = SampleClock::new(0.0, 0.25);
            let mut fs = Vec::new();
            let mut ss = Vec::new();
            for t in [0.4, 1.0, 2.0] {
                fast.run_sampled(t, &mut fc, |t, v| fs.push((t, v.to_vec())));
            }
            slow.run_sampled(2.0, &mut sc, |t, v| ss.push((t, v.to_vec())));
            assert_eq!(fs, ss, "seed {seed}: sampled trajectories diverged");
            assert_eq!(fast.counts(), slow.counts(), "seed {seed}");
            assert_eq!(fast.firings(), slow.firings(), "seed {seed}");
            assert_eq!(fast.leaps(), slow.leaps(), "seed {seed}");
            assert_eq!(fast.exact_steps(), slow.exact_steps(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn out_of_range_epsilon_panics() {
        let model = decay_model(1, 1.0);
        let _ = AdaptiveTauEngine::new(model, 1, 0)
            .unwrap()
            .with_epsilon(1.5);
    }
}
