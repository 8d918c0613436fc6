//! Adaptive tau-leaping: Cao–Gillespie–Petzold step-size selection with
//! critical-reaction partitioning and an exact-SSA fallback.
//!
//! This is the crate's one leaping method. A fixed leap length would make
//! the user pick τ: too large and the approximation degrades (or the leap
//! thrashes in negativity halving), too small and every leap fires less
//! than one reaction and the method is slower than exact SSA. This engine
//! picks τ from the *state* instead, the design StochKit popularised (Cao,
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
//!    — the `cgp_tau` bound of [`crate::flat`], whose `g_i` factors cover
//!    the Hill and saturating laws as well as mass action, so the engine
//!    runs every flat model, the paper's Neurospora included).
//! 3. **SSA fallback.** When the bound collapses below
//!    [`SSA_FALLBACK_MULT`] expected firings' worth of time (τ < mult/a0),
//!    leaping cannot beat exact stepping, so the engine takes one exact
//!    direct-method step on the species-count vector instead.
//!
//! ## Quantum-exact execution
//!
//! Every transition (leap, critical firing or fallback step) is drawn
//! from the committed state only, held *pending* when it ends beyond the
//! quantum horizon, and committed in a later quantum — never re-drawn or
//! truncated. Samples inside a transition report the committed state in
//! force, so rescheduling cannot change a trajectory. The RNG draw
//! discipline per transition is documented in [`crate::rng`].
//!
//! ## The hot path
//!
//! The engine steps on the exact tier's direct-method row,
//! `table::PropensityRow`, twice: a *main* row of every slot's propensity
//! (its total is `a0`, its `select` the fallback step's slot) and a
//! *critical* row holding a slot's propensity when the slot is critical
//! and `0.0` otherwise (`a0_crit` and the critical firing). A slot leaps
//! iff `main > 0 && crit == 0`; the CGP bound and the Poisson sweep walk
//! the list of those slots. Commits refresh only the slots incident to
//! the changed species (those consuming one, and those whose kinetic law
//! reads one); each row refolds from its lowest changed slot
//! when a draw needs its total, and the list rescans the rows from the
//! lowest slot whose leaping status changed. The full-recompute replica
//! ([`AdaptiveTauEngine::with_full_recompute`]) re-derives all of it with
//! plain scans on every draw and is the reference the hot path is pinned
//! against, bit for bit.

use std::sync::Arc;

use cwc::model::Model;
use cwc::species::Species;
use rand::Rng;

use crate::deps::ModelDeps;
use crate::flat::{flat_form, poisson, CgpScratch, FlatModel, FlatModelError};
use crate::kernels::KernelDispatch;
use crate::rng::{sim_rng, SimRng};
use crate::ssa::SampleClock;
use crate::table::PropensityRow;

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

/// A drawn-but-not-yet-committed transition: one leap, one critical
/// firing riding on a truncated leap, or one exact fallback step.
#[derive(Debug, Clone)]
struct PendingTransition {
    /// Sparse next state: `(species index, new count)`, deduped.
    /// Committing applies exactly these writes and refreshes exactly the
    /// slots incident to these species, making the per-transition work
    /// O(affected) instead of O(all slots) / O(all species).
    updates: Vec<(usize, u64)>,
    /// Absolute time at which the transition commits.
    end: f64,
    /// Firings the transition applies when committed.
    firings: u64,
    /// True when this transition was an exact (fallback or critical)
    /// single firing rather than a Poisson leap.
    exact: bool,
}

/// The hot path's state: two direct-method rows of the committed state,
/// the exact tier's [`PropensityRow`], and the slot list read off them.
/// Commits refresh the slots incident to the changed species
/// (O(affected)); each row's prefix, and the list, is refreshed lazily,
/// from the lowest slot changed since its last refresh, only when a draw
/// needs it.
#[derive(Debug, Clone, Default)]
struct HotState {
    /// Every slot's propensity: the exact fallback step's row.
    main: PropensityRow,
    /// A critical slot's propensity, `0.0` on every other slot: the
    /// critical block's row. A slot is *enabled and not critical* — it
    /// leaps — iff `main > 0 && crit == 0`.
    crit: PropensityRow,
    /// First slot whose `main` prefix may be stale (`len` = clean).
    main_dirty: usize,
    /// First slot whose `crit` prefix may be stale (`len` = clean).
    crit_dirty: usize,
    /// The enabled, non-critical slots in slot order — the leap sweep's
    /// and the CGP bound's slot set.
    leaping: Vec<usize>,
    /// First slot whose membership in `leaping` may be stale (`len` =
    /// clean).
    leaping_dirty: usize,
}

impl HotState {
    /// Refills both rows from `state` (kernels kept). Runs once per cache
    /// (in)validation, not per draw.
    fn rebuild(&mut self, flat: &FlatModel, state: &[u64]) {
        self.main.clear();
        self.crit.clear();
        for (r, a) in flat.slot_propensities(state).enumerate() {
            self.main.push(a);
            self.crit.push(critical_part(flat, state, r, a));
        }
        self.main_dirty = 0;
        self.crit_dirty = 0;
        self.leaping_dirty = 0;
    }

    /// Commit-time refresh of slot `r` to propensity `a` and critical
    /// part `c`, lowering the watermark of each row whose bits moved and
    /// of the list when the slot starts or stops leaping.
    fn update(&mut self, r: usize, a: f64, c: f64) {
        let leaps = |a: f64, c: f64| a > 0.0 && c == 0.0;
        if leaps(self.main.props()[r], self.crit.props()[r]) != leaps(a, c) {
            self.leaping_dirty = self.leaping_dirty.min(r);
        }
        for (row, dirty, v) in [
            (&mut self.main, &mut self.main_dirty, a),
            (&mut self.crit, &mut self.crit_dirty, c),
        ] {
            if row.props()[r].to_bits() != v.to_bits() {
                row.set(r, v);
                *dirty = (*dirty).min(r);
            }
        }
    }

    /// `a0`: the main row's total, refolding its stale tail first.
    fn a0(&mut self) -> f64 {
        refold(&mut self.main, &mut self.main_dirty)
    }

    /// `a0_crit`: the critical row's total, refolding its stale tail
    /// first.
    fn a0_crit(&mut self) -> f64 {
        refold(&mut self.crit, &mut self.crit_dirty)
    }

    /// Brings `leaping` up to date: keeps the slots below its watermark
    /// and rescans the rows from there (`main > 0 && crit == 0`).
    fn refresh_leaping(&mut self) {
        let (from, n) = (self.leaping_dirty, self.main.len());
        if from < n {
            let keep = self.leaping.partition_point(|&r| r < from);
            self.leaping.truncate(keep);
            let (main, crit) = (self.main.props(), self.crit.props());
            let leaps = (from..n).filter(|&r| main[r] > 0.0 && crit[r] == 0.0);
            self.leaping.extend(leaps);
            self.leaping_dirty = n;
        }
    }
}

/// Refolds `row` from its watermark `dirty` (then clean) and returns its
/// total.
fn refold(row: &mut PropensityRow, dirty: &mut usize) -> f64 {
    if *dirty < row.len() {
        row.refold_from(*dirty);
        *dirty = row.len();
    }
    row.total()
}

/// True when firing slot `r` could exhaust a reactant within
/// [`N_CRITICAL`] firings from `state`. A free function so commit-time
/// maintenance can classify slots while the engine is partially
/// borrowed.
fn rule_is_critical(flat: &FlatModel, state: &[u64], r: usize) -> bool {
    flat.delta[r]
        .iter()
        .any(|&(i, d)| d < 0 && state[i] / d.unsigned_abs() < N_CRITICAL)
}

/// Slot `r`'s entry in the critical row: its propensity `a` when it is
/// enabled and critical, `0.0` otherwise.
fn critical_part(flat: &FlatModel, state: &[u64], r: usize, a: f64) -> f64 {
    if a > 0.0 && rule_is_critical(flat, state, r) {
        a
    } else {
        0.0
    }
}

/// The replica's direct-method scan: the first slot kept by `include`
/// whose running sum of positive propensities exceeds `target`, the last
/// such slot on floating-point shortfall — the slot
/// [`PropensityRow::select`] returns on the same row.
fn scan_select(props: &[f64], include: impl Fn(usize) -> bool, target: f64) -> usize {
    let mut acc = 0.0;
    let mut chosen = None;
    for (r, &a) in props.iter().enumerate() {
        if a <= 0.0 || !include(r) {
            continue;
        }
        acc += a;
        chosen = Some(r);
        if target < acc {
            break;
        }
    }
    chosen.expect("a positive total implies an enabled slot")
}

/// Flat-model approximate simulator with adaptive (CGP) step-size
/// selection.
#[derive(Debug, Clone)]
pub struct AdaptiveTauEngine {
    model: Arc<Model>,
    /// The model's shared flat form.
    flat: Arc<FlatModel>,
    /// `state[i]` = copies of species index `i` (last *committed* state).
    state: Vec<u64>,
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
    /// The hot path's two rows; valid only when `cache_ready` and
    /// maintained across commits in O(affected).
    hot: HotState,
    /// True once `hot` describes the committed state.
    cache_ready: bool,
    /// Replica knob: recompute every propensity, criticality flag and
    /// sum on every draw with plain scalar scans. Bit-identical results;
    /// exists so tests and the `adaptive_tau` bench can pin/measure what
    /// the incremental hot path buys.
    full_recompute: bool,
    /// Per-species "already marked changed" bitmap, un-marked after each
    /// draw so steady state does no O(species) clearing.
    seen_buf: Vec<bool>,
    /// Sparse candidate values for species marked in `seen_buf` (the
    /// hot path's replacement for cloning the whole state per draw) —
    /// signed, since this is where a leap that overshoots shows up.
    cand_buf: Vec<i64>,
    /// Reusable changed-species index list for the hot path.
    changed_buf: Vec<usize>,
    /// Recycled `updates` allocation: commits return the spent vector
    /// here, the next draw reuses it (zero steady-state allocation).
    updates_pool: Vec<(usize, u64)>,
    /// Reusable observable buffer every sample is written into.
    obs_buf: Vec<u64>,
    /// Requested kernel dispatch policy (the rows hold its resolution).
    dispatch: KernelDispatch,
}

impl AdaptiveTauEngine {
    /// Builds an adaptive leaping engine from a flat model, compiling its
    /// stoichiometry locally.
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when any rule uses compartments or
    /// applies below the top level.
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Result<Self, FlatModelError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, instance)
    }

    /// Like [`AdaptiveTauEngine::new`], reusing an already-compiled
    /// [`ModelDeps`] (one compilation per run, shared across instances).
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when the model is not flat.
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Self, FlatModelError> {
        let flat = flat_form(&model, &deps, "adaptive tau-leaping")?;
        let state = flat.initial_counts().to_vec();
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
            obs_buf: Vec::new(),
            dispatch: KernelDispatch::Auto,
        })
    }

    /// Sets the kernel dispatch policy for the hot path's row folds and
    /// selections (default [`KernelDispatch::Auto`]). Every dispatch
    /// produces bit-identical trajectories; the knob exists for
    /// benchmarking and for pinning the scalar reference in tests.
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.dispatch = dispatch;
        let kernel = dispatch.resolve();
        self.hot.main.kernel = kernel;
        self.hot.crit.kernel = kernel;
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
        self.state.get(species.raw() as usize).copied().unwrap_or(0)
    }

    /// The committed per-species state vector (ascending interned
    /// species order), for invariant tests.
    pub fn counts(&self) -> &[u64] {
        &self.state
    }

    /// Evaluates the model's observables on the committed state.
    pub fn observe(&self) -> Vec<u64> {
        let mut values = Vec::new();
        self.flat.observe_into(|i| self.state[i], &mut values);
        values
    }

    /// One exact direct-method step on the count vector (the SSA
    /// fallback), full-scan replica flavour. Draw discipline: one
    /// waiting-time uniform, one selection uniform in `[0, a0)` (always
    /// consumed, even single-channel — see [`crate::rng`]).
    fn draw_exact_step(&mut self, props: &[f64], a0: f64) -> PendingTransition {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let dt = -u1.ln() / a0;
        let target = self.rng.gen_range(0.0..a0);
        self.exact_transition(scan_select(props, |_| true, target), dt)
    }

    /// Packages one exact firing of `chosen` as a sparse transition.
    fn exact_transition(&mut self, chosen: usize, dt: f64) -> PendingTransition {
        let mut updates = std::mem::take(&mut self.updates_pool);
        updates.clear();
        updates.extend(
            self.flat.delta[chosen]
                .iter()
                .map(|&(i, d)| (i, self.state[i].wrapping_add_signed(d))),
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
        props.clear();
        props.extend(self.flat.slot_propensities(&self.state));
        let a0: f64 = props.iter().sum();
        if a0 <= 0.0 {
            return None;
        }
        // Partition: critical reactions fire exactly, the rest leap.
        critical.clear();
        critical.extend(
            (props.iter().enumerate())
                .map(|(r, &a)| a > 0.0 && rule_is_critical(&self.flat, &self.state, r)),
        );
        let a0_crit: f64 = props
            .iter()
            .enumerate()
            .filter(|&(r, _)| critical[r])
            .map(|(_, &a)| a)
            .sum();
        let mut tau1 = self.flat.cgp_tau(
            &mut self.cgp_scratch,
            &self.state,
            props,
            self.epsilon,
            (0..props.len()).filter(|&r| props[r] > 0.0 && !critical[r]),
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
            let mut candidate: Vec<i64> = self.state.iter().map(|&c| c as i64).collect();
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
                let chosen = scan_select(props, |r| critical[r], target);
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
                    updates: changed.iter().map(|&i| (i, candidate[i] as u64)).collect(),
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

    /// The hot path's draw, on the two maintained rows. Bit-identical to
    /// [`Self::draw_full`] by construction:
    ///
    /// - the main row's enabled count is zero ⟺ the replica's
    ///   `a0 <= 0.0` (an adds-only fold with no positive entry cannot
    ///   exceed zero);
    /// - the critical row equals the per-draw re-classification (a slot's
    ///   criticality depends only on its reactant counts, and every such
    ///   change routes through `FlatModel::incidence` at commit);
    /// - each row's fold adds the same values in the same slot order as
    ///   the replica's sums, so `a0`/`a0_crit` carry the same bits, and
    ///   `PropensityRow::select` returns the replica scans' slots;
    /// - the CGP bound and the Poisson sweep visit the same enabled
    ///   non-critical slots in the same order, so the RNG stream is
    ///   consumed identically.
    ///
    /// The main row is folded only when its total decides the fallback
    /// test (see the guard), so the critical regimes rarely fold it, and
    /// with every enabled slot critical the slot list is empty and the
    /// sweep is skipped: with the O(affected) commits, that is where the
    /// speed comes from.
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
            changed_buf: changed,
            updates_pool,
            ..
        } = self;
        let (epsilon, committed) = (self.epsilon, self.committed);
        if hot.main.active_count() == 0 {
            return None;
        }
        let n_crit = hot.crit.active_count();
        // With every enabled slot critical the list is empty and nothing
        // bounds the leap: tau1 is infinite.
        hot.refresh_leaping();
        let mut tau1 = flat.cgp_tau(
            cgp_scratch,
            state,
            hot.main.props(),
            epsilon,
            hot.leaping.iter().copied(),
        );
        loop {
            // Replica guard: `tau1 < mult/a0 || (!tau1.is_finite() &&
            // a0_crit <= 0.0)`, where `a0_crit <= 0.0` ⟺ no critical
            // slot. The main row is folded only when its total can decide:
            // an infinite tau1 fails `tau1 < mult/a0` for every positive
            // a0, and so does one with `tau1 >= mult/a0_crit`, because
            // `a0 >= a0_crit` bit for bit (the critical row folds a subset
            // of the main row's positive terms in the same order, and
            // rounded addition and division are monotone).
            let fallback = if !tau1.is_finite() {
                n_crit == 0
            } else if n_crit > 0 && tau1 >= SSA_FALLBACK_MULT / hot.a0_crit() {
                false
            } else {
                tau1 < SSA_FALLBACK_MULT / hot.a0()
            };
            let mut firings = 0u64;
            let mut mark = |i: usize, by: i64| {
                if !seen_buf[i] {
                    seen_buf[i] = true;
                    cand_buf[i] = state[i] as i64;
                    changed.push(i);
                }
                cand_buf[i] += by;
            };
            if fallback {
                // Exact step: the draw discipline of `draw_exact_step`.
                let a0 = hot.a0();
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let dt = -u1.ln() / a0;
                let target = rng.gen_range(0.0..a0);
                let mut updates = std::mem::take(updates_pool);
                updates.clear();
                updates.extend(
                    flat.delta[hot.main.select(target)]
                        .iter()
                        .map(|&(i, d)| (i, state[i].wrapping_add_signed(d))),
                );
                return Some(PendingTransition {
                    updates,
                    end: committed + dt,
                    firings: 1,
                    exact: true,
                });
            }
            let tau2 = if n_crit > 0 {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / hot.a0_crit()
            } else {
                f64::INFINITY
            };
            let (leap_len, fire_critical) = if tau2 <= tau1 {
                (tau2, true)
            } else {
                (tau1, false)
            };
            for &r in &hot.leaping {
                let k = poisson(rng, hot.main.props()[r] * leap_len);
                if k == 0 {
                    continue;
                }
                firings += k;
                for &(i, d) in &flat.delta[r] {
                    mark(i, d * k as i64);
                }
            }
            if fire_critical {
                // tau2 finite ⟹ the critical row was folded above.
                let target = rng.gen_range(0.0..hot.crit.total());
                for &(i, d) in &flat.delta[hot.crit.select(target)] {
                    mark(i, d);
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
                updates.extend(changed.iter().map(|&i| (i, cand_buf[i] as u64)));
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
        // O(affected) row refresh: only slots whose propensity reads a
        // changed species — a reactant or a law's modifier — can differ
        // in propensity *or* criticality (a negative net delta implies
        // the species is a reactant, so `incidence` covers both);
        // everything else keeps committed bits. The
        // watermarks drop to the lowest refreshed slot, leaving the
        // prefixes below it valid.
        if self.cache_ready && !self.full_recompute {
            let Self {
                flat, state, hot, ..
            } = self;
            for &(i, _) in &p.updates {
                for &r in &flat.incidence[i] {
                    let a = flat.slot_propensity(r, |sp| state[sp]);
                    hot.update(r, a, critical_part(flat, state, r, a));
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
                let state = &self.state;
                self.flat.observe_into(|i| state[i], &mut self.obs_buf);
                on_sample(ts, &self.obs_buf);
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
    use proptest::prelude::*;

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

    /// `n` species in a conversion cycle `S{i} → S{i+1}`, `per` copies
    /// each, staggered rates: most transitions touch only a few of the
    /// species.
    fn cycle_model(n: usize, per: u64) -> Arc<Model> {
        Arc::new(cycle(n, per, false))
    }

    /// [`cycle_model`]'s cycle; with `laws`, the rules take mass action,
    /// Hill repression, Hill activation and a saturating law in turn
    /// (`i % 4`), each law reading the species half-way round the cycle,
    /// which the rule does not consume — so a modifier's change, not a
    /// reactant's, is what moves those slots.
    fn cycle(n: usize, per: u64, laws: bool) -> Model {
        let mut m = Model::new("chain");
        for i in 0..n {
            let name = format!("S{i}");
            let s = m.species(&name);
            m.initial.add_atoms(s, per);
            m.observe(&name, s);
        }
        for i in 0..n {
            let from = format!("S{i}");
            let to = format!("S{}", (i + 1) % n);
            let rule = m
                .rule(&format!("r{i}"))
                .consumes(&from, 1)
                .produces(&to, 1)
                .rate(1.0 + i as f64 * 0.1);
            let modifier = format!("S{}", (i + n / 2) % n);
            let k = per as f64;
            let rule = match (laws, i % 4) {
                (false, _) | (true, 0) => rule,
                (true, 1) => rule.repressed_by(&modifier, k, 4.0),
                (true, 2) => rule.activated_by(&modifier, k, 2.5),
                _ => rule.saturating_on(&modifier, k),
            };
            rule.build().unwrap();
        }
        m
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
        // A leap that escaped the negativity check would wrap around.
        assert!(e.counts().iter().all(|&c| c < u64::MAX / 2));
    }

    #[test]
    fn state_never_goes_negative_under_pressure() {
        let model = birth_death_model(3.0, 9.0, 15);
        let mut e = AdaptiveTauEngine::new(model, 11, 0)
            .unwrap()
            .with_epsilon(0.3);
        e.run_until(5.0);
        // A leap that escaped the negativity check would wrap around.
        assert!(e.counts().iter().all(|&c| c < u64::MAX / 2));
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
        let model = cycle_model(12, 200);
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

    /// Bit-exact view of a row: each slot's propensity and prefix entry.
    fn row_bits(row: &PropensityRow) -> Vec<(u64, u64)> {
        (row.props().iter().zip(row.prefix()))
            .map(|(a, p)| (a.to_bits(), p.to_bits()))
            .collect()
    }

    proptest! {
        #[test]
        fn refolded_rows_equal_rows_rebuilt_from_the_committed_counts(
            species in 2usize..70,
            per in 4u64..16,
            seed in 0u64..1_000,
            laws in any::<bool>(),
        ) {
            // Around N_CRITICAL copies per species, so slots keep crossing
            // the critical threshold both ways; from 32 slots on the rows
            // fold and select through the dispatched kernels. With laws, a
            // slot whose modifier moved must be refreshed as well.
            let model = Arc::new(cycle(species, per, laws));
            for dispatch in [KernelDispatch::Scalar, KernelDispatch::Simd] {
                let mut e = AdaptiveTauEngine::new(Arc::clone(&model), seed, 0)
                    .unwrap()
                    .with_kernel_dispatch(dispatch);
                for step in 0..150 {
                    e.advance();
                    let mut kept = e.hot.clone();
                    let mut rebuilt = kept.clone();
                    rebuilt.rebuild(&e.flat, &e.state);
                    for hot in [&mut kept, &mut rebuilt] {
                        hot.a0();
                        hot.a0_crit();
                        hot.refresh_leaping();
                    }
                    prop_assert!(
                        row_bits(&kept.main) == row_bits(&rebuilt.main)
                            && row_bits(&kept.crit) == row_bits(&rebuilt.crit),
                        "{dispatch:?}: rows drifted from the counts after commit {step}"
                    );
                    prop_assert_eq!(&kept.leaping, &rebuilt.leaping);
                    prop_assert_eq!(kept.main.active_count(), rebuilt.main.active_count());
                    prop_assert_eq!(kept.crit.active_count(), rebuilt.crit.active_count());
                }
            }
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
