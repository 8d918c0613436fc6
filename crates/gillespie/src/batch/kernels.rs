//! The kernel layer: runtime-dispatched implementations of the
//! propensity-row scans every engine's hot loop runs.
//!
//! A propensity row (`props[slot]`, one trajectory's propensities in slot
//! order) and its prefix fold are the direct-method state of the exact
//! tier's long rows (`table::PropensityRow`, at or above
//! `table::SHORT_ROW_SLOTS` slots) and the per-draw state of the leaping
//! engines ([`crate::adaptive`], [`crate::hybrid`]).
//! The scans over it — the `a0` / `a0_crit` folds, the direct-method and
//! critical selections — exist twice: a portable scalar reference and an
//! x86_64 AVX2 variant selected at runtime via `is_x86_feature_detected!`.
//! The two are **bit-for-bit identical** by construction:
//!
//! - the fold is an ordered adds-only accumulation from the `-0.0`
//!   identity that skips non-positive entries, and a partial refold
//!   reseeds from the stored `prefix[from - 1]` bits (the exact tail of
//!   the full fold, since the lower slots are untouched). The AVX2
//!   variants keep the adds in scalar order — an ordered fold cannot be
//!   reassociated — and win by *skipping*: four-lane compares classify
//!   whole chunks as disabled/unmasked and store the flat accumulator
//!   without touching the lanes;
//! - selection finds the first slot whose prefix exceeds the target. The
//!   scalar kernel binary-searches; the AVX2 kernel *counts* the slots
//!   whose prefix has not crossed — the per-slot predicate is
//!   `!(prefix > target)`, bitwise the negation of the search's, and on a
//!   non-decreasing row that count **is** the crossing index, shortfall
//!   included.
//!
//! Dispatch is a [`KernelDispatch`] knob (auto/scalar/simd) resolved once
//! per row or engine; setting the [`FORCE_SCALAR_ENV`] environment
//! variable forces the scalar reference everywhere, which is how CI
//! exercises both implementations against the same golden fingerprints.

/// Environment variable that forces the scalar reference kernels
/// regardless of the configured [`KernelDispatch`] (any non-empty value
/// other than `0`). CI's dispatch-coverage leg sets it to run the whole
/// test suite — golden fingerprints included — over the scalar path.
pub const FORCE_SCALAR_ENV: &str = "CWC_FORCE_SCALAR_KERNELS";

/// Kernel selection knob, threaded from the run configuration down to the
/// engines' propensity rows. The choice never changes results — both
/// implementations are bit-for-bit identical — it only selects how the
/// row scans execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelDispatch {
    /// Use SIMD kernels when the CPU supports them (runtime-detected),
    /// the scalar reference otherwise. The default.
    #[default]
    Auto,
    /// Always use the portable scalar reference kernels.
    Scalar,
    /// Request the SIMD kernels; falls back to scalar when the CPU lacks
    /// AVX2 (results are identical either way, so this is a preference,
    /// not a hard requirement).
    Simd,
}

impl KernelDispatch {
    /// Resolves the knob against the running CPU (and the
    /// [`FORCE_SCALAR_ENV`] override) into a concrete kernel set.
    pub fn resolve(self) -> Kernel {
        if force_scalar_env() || self == KernelDispatch::Scalar {
            return Kernel::Scalar;
        }
        if simd_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    }
}

impl std::str::FromStr for KernelDispatch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelDispatch::Auto),
            "scalar" => Ok(KernelDispatch::Scalar),
            "simd" => Ok(KernelDispatch::Simd),
            other => Err(format!(
                "unknown kernel dispatch `{other}` (expected auto, scalar or simd)"
            )),
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelDispatch::Auto => "auto",
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Simd => "simd",
        })
    }
}

/// A resolved kernel set — what [`KernelDispatch::resolve`] produced for
/// this process. [`Kernel::Avx2`] is only ever constructed after runtime
/// feature detection succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable scalar reference.
    Scalar,
    /// x86_64 AVX2 four-lane kernels.
    Avx2,
}

/// Whether the SIMD kernels can run on this CPU (x86_64 with AVX2).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn force_scalar_env() -> bool {
    match std::env::var_os(FORCE_SCALAR_ENV) {
        Some(v) => !v.is_empty() && v != *"0",
        None => false,
    }
}

/// Slot count up to which the AVX2 selection uses the four-lane counting
/// scan; above it, binary search wins (the scan is `O(slots)`, the search
/// `O(log slots)`). Both produce the same index on a non-decreasing prefix
/// row, so the cutover is purely a speed knob.
const SELECT_SCAN_MAX_SLOTS: usize = 64;

/// Dense bitmask over rule indices backed by `u64` words, with
/// ascending-order set-bit iteration — the active-rule list of the
/// leaping engines. Bit operations are exact integers, so the mask layer
/// itself needs no scalar/SIMD split; the folds and selections consuming
/// it do.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleMask {
    words: Vec<u64>,
    len: usize,
}

impl RuleMask {
    /// An all-clear mask over `len` rules.
    pub(crate) fn new(len: usize) -> Self {
        RuleMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `on`, returning the previous value.
    #[inline]
    pub(crate) fn assign(&mut self, i: usize, on: bool) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let was = *word & bit != 0;
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        was
    }

    /// Clears every bit (test-only: the engines rebuild masks in place
    /// via [`RuleMask::assign`]).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Ascending iteration over the set bits (test-only: the reference
    /// for [`RuleMask::iter_minus`]; the engines sweep via `iter_minus`).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The highest set index, or `None` when the mask is empty.
    pub(crate) fn last_set(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// Ascending iteration over the bits set here and clear in `minus`
    /// (the enabled-and-not-critical sweep order of the leap engines).
    pub(crate) fn iter_minus<'a>(&'a self, minus: &'a RuleMask) -> SetBitsMinus<'a> {
        debug_assert_eq!(self.len, minus.len);
        let current = match (self.words.first(), minus.words.first()) {
            (Some(&a), Some(&b)) => a & !b,
            (Some(&a), None) => a,
            _ => 0,
        };
        SetBitsMinus {
            words: &self.words,
            minus: &minus.words,
            word: 0,
            current,
        }
    }
}

/// Ascending set-bit iterator of a [`RuleMask`] (test-only, see
/// [`RuleMask::iter`]).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    word: usize,
    current: u64,
}

#[cfg(test)]
impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word * 64 + bit)
    }
}

/// Ascending iterator over `a & !b` of two [`RuleMask`]s.
#[derive(Debug)]
pub(crate) struct SetBitsMinus<'a> {
    words: &'a [u64],
    minus: &'a [u64],
    word: usize,
    current: u64,
}

impl Iterator for SetBitsMinus<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word] & !self.minus[self.word];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word * 64 + bit)
    }
}

/// Partial refold of a prefix row over the *enabled* (positive)
/// propensities: reseeds the accumulator from `prefix[from - 1]` (the
/// `-0.0` identity at 0), replays the adds-only fold over `from..`, and
/// returns the total — bit-for-bit the tail of the full fold because the
/// lower slots are untouched since the last refold.
pub(crate) fn row_fold_from(kernel: Kernel, props: &[f64], prefix: &mut [f64], from: usize) -> f64 {
    debug_assert_eq!(props.len(), prefix.len());
    match kernel {
        Kernel::Scalar => row_fold_scalar_from(props, prefix, from),
        Kernel::Avx2 => {
            let seed = if from == 0 { -0.0f64 } else { prefix[from - 1] };
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only constructed by
            // `KernelDispatch::resolve` after runtime AVX2 detection.
            unsafe {
                avx2::row_fold_from(props, prefix, from, seed)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// The scalar reference of [`row_fold_from`], inlinable: the exact tier's
/// short rows run it directly (see `table::SHORT_ROW_SLOTS`).
#[inline]
pub(crate) fn row_fold_scalar_from(props: &[f64], prefix: &mut [f64], from: usize) -> f64 {
    debug_assert_eq!(props.len(), prefix.len());
    let mut acc = if from == 0 { -0.0f64 } else { prefix[from - 1] };
    for (&p, slot) in props[from..].iter().zip(&mut prefix[from..]) {
        if p > 0.0 {
            acc += p;
        }
        *slot = acc;
    }
    acc
}

/// Like [`row_fold_from`], adding only the slots set in `mask` (the
/// critical block's a0_crit row). Masked slots are enabled by
/// construction; the defensive `p > 0.0` test keeps the `-0.0` identity
/// safe regardless.
pub(crate) fn row_fold_masked_from(
    kernel: Kernel,
    props: &[f64],
    mask: &RuleMask,
    prefix: &mut [f64],
    from: usize,
) -> f64 {
    debug_assert_eq!(props.len(), prefix.len());
    debug_assert_eq!(props.len(), mask.len);
    let seed = if from == 0 { -0.0f64 } else { prefix[from - 1] };
    match kernel {
        Kernel::Scalar => {
            let mut acc = seed;
            for j in from..props.len() {
                let p = props[j];
                if p > 0.0 && mask.get(j) {
                    acc += p;
                }
                prefix[j] = acc;
            }
            acc
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_fold_masked_from(props, mask, prefix, from, seed)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// Adds-only `-0.0`-identity fold of the positive entries of `props` —
/// the a0 of a row without materialising the prefix column (the
/// hybrid decide path needs only the total). Bit-identical to the plain `iter().sum()` it replaces whenever
/// at least one propensity is positive; when none is, it returns `-0.0`
/// where the sum returned `0.0`, and the two compare equal in every
/// ordering the engines use.
pub(crate) fn row_sum(kernel: Kernel, props: &[f64]) -> f64 {
    match kernel {
        Kernel::Scalar => {
            let mut acc = -0.0f64;
            for &p in props {
                if p > 0.0 {
                    acc += p;
                }
            }
            acc
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_sum(props)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// Direct-method selection on a non-decreasing prefix row: the
/// first slot whose cumulative propensity exceeds `target`, or
/// `prefix.len()` on floating-point shortfall (the caller applies its
/// engine's backstop rule — last slot for the exact-step scan, last
/// critical slot for the critical block). Scalar: binary search. AVX2:
/// four-lane counting scan up to [`SELECT_SCAN_MAX_SLOTS`] slots, binary
/// search above — identical by the count-of-not-crossed argument of the
/// module docs.
pub(crate) fn row_select(kernel: Kernel, prefix: &[f64], target: f64) -> usize {
    match kernel {
        Kernel::Scalar => row_search(prefix, target),
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_select(prefix, target)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// The scalar reference selection: binary search for the first slot whose
/// prefix exceeds `target`. On a non-decreasing row this is exactly the
/// linear accumulate scan's crossing index, because the prefix only
/// increases at enabled slots.
fn row_search(prefix: &[f64], target: f64) -> usize {
    let (mut lo, mut hi) = (0usize, prefix.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if prefix[mid] > target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Branch-free selection for short rows: the number of slots whose prefix
/// has not crossed `target` — on a non-decreasing row that count *is*
/// [`row_search`]'s crossing index (the argument of the module docs).
/// This is the AVX2 kernel's counting scan in scalar form, minus its
/// early exit; the exact tier's short rows run it inline (see
/// `table::SHORT_ROW_SLOTS`), where it beats both the binary search's
/// mispredicted branches and the kernel call.
#[inline]
pub(crate) fn row_count_uncrossed(prefix: &[f64], target: f64) -> usize {
    // `!(p > target)`, not `p <= target`: a NaN target crosses nowhere,
    // exactly as in the search (the unordered-quiet `_CMP_NGT_UQ` of the
    // AVX2 kernel).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    prefix.iter().map(|&p| usize::from(!(p > target))).sum()
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// f64 lanes per AVX2 vector.
    const LANES: usize = 4;

    /// Branchless chunk body shared by the row folds: keeps the lanes
    /// selected by `keep` and replaces the rest with `-0.0`, whose
    /// addition is an exact identity on every f64 (`x + (-0.0) == x`
    /// bit-for-bit, including `x == ±0.0` under round-to-nearest), so the
    /// four unconditional serial adds produce exactly the bits of the
    /// per-lane conditional fold.
    #[inline(always)]
    unsafe fn fold_chunk(p: __m256d, keep: __m256d, acc: &mut f64, prefix: *mut f64) {
        let masked = _mm256_blendv_pd(_mm256_set1_pd(-0.0), p, keep);
        let mut lanes = [0.0f64; LANES];
        _mm256_storeu_pd(lanes.as_mut_ptr(), masked);
        let mut a = *acc;
        a += lanes[0];
        *prefix = a;
        a += lanes[1];
        *prefix.add(1) = a;
        a += lanes[2];
        *prefix.add(2) = a;
        a += lanes[3];
        *prefix.add(3) = a;
        *acc = a;
    }

    /// AVX2 `row_fold_from`: the adds happen in exactly the scalar order
    /// (an ordered fold cannot be reassociated without changing bits);
    /// the vector win is chunk classification — a four-lane compare spots
    /// all-disabled chunks and stores the flat accumulator without
    /// touching the lanes — plus the branchless `-0.0`-identity chunk
    /// body of [`fold_chunk`] for the rest.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_fold_from(
        props: &[f64],
        prefix: &mut [f64],
        from: usize,
        seed: f64,
    ) -> f64 {
        let n = props.len();
        let mut acc = seed;
        let mut j = from;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let bits = _mm256_movemask_pd(pos);
            if bits == 0 {
                _mm256_storeu_pd(prefix.as_mut_ptr().add(j), _mm256_set1_pd(acc));
            } else {
                fold_chunk(p, pos, &mut acc, prefix.as_mut_ptr().add(j));
            }
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        acc
    }

    /// AVX2 `row_fold_masked_from`: like [`row_fold_from`] with the add
    /// predicate `p > 0 && mask`. The head runs scalar until the slot
    /// index is 4-aligned, so every chunk's mask nibble sits inside one
    /// `u64` word (64 is a multiple of 4).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_fold_masked_from(
        props: &[f64],
        mask: &super::RuleMask,
        prefix: &mut [f64],
        from: usize,
        seed: f64,
    ) -> f64 {
        let n = props.len();
        let mut acc = seed;
        let mut j = from;
        while j < n && j % LANES != 0 {
            let p = props[j];
            if p > 0.0 && mask.get(j) {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        // Nibble → per-lane all-ones/all-zeros selector (index bit k sets
        // lane k), so the chunk body can blend instead of branching.
        const LANE_MASKS: [[u64; 4]; 16] = {
            let mut t = [[0u64; 4]; 16];
            let mut m = 0;
            while m < 16 {
                let mut lane = 0;
                while lane < 4 {
                    if m & (1 << lane) != 0 {
                        t[m][lane] = u64::MAX;
                    }
                    lane += 1;
                }
                m += 1;
            }
            t
        };
        while j + LANES <= n {
            let nibble = ((mask.words[j / 64] >> (j % 64)) & 0xF) as usize;
            if nibble == 0 {
                _mm256_storeu_pd(prefix.as_mut_ptr().add(j), _mm256_set1_pd(acc));
                j += LANES;
                continue;
            }
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let sel = _mm256_loadu_pd(LANE_MASKS[nibble].as_ptr().cast::<f64>());
            let keep = _mm256_and_pd(pos, sel);
            fold_chunk(p, keep, &mut acc, prefix.as_mut_ptr().add(j));
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 && mask.get(j) {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        acc
    }

    /// AVX2 `row_sum`: the fold total without the prefix column.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_sum(props: &[f64]) -> f64 {
        let n = props.len();
        let mut acc = -0.0f64;
        let mut j = 0;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let bits = _mm256_movemask_pd(pos);
            if bits != 0 {
                for lane in 0..LANES {
                    if bits & (1 << lane) != 0 {
                        acc += props[j + lane];
                    }
                }
            }
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 {
                acc += p;
            }
            j += 1;
        }
        acc
    }

    /// AVX2 `row_select`: the module docs' counting scan on one row — on
    /// a non-decreasing prefix the count of not-yet-crossed
    /// slots *is* the crossing index, and the scan stops at the first
    /// chunk that is not entirely uncrossed. Wide rows fall back to the
    /// scalar binary search, which finds the same index.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_select(prefix: &[f64], target: f64) -> usize {
        let n = prefix.len();
        if n > super::SELECT_SCAN_MAX_SLOTS {
            return super::row_search(prefix, target);
        }
        let t = _mm256_set1_pd(target);
        let mut count = 0usize;
        let mut j = 0;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(prefix.as_ptr().add(j));
            // `not greater than` (unordered-quiet): the negation of the
            // search's `prefix > target`, per slot.
            let not_crossed = _mm256_cmp_pd::<_CMP_NGT_UQ>(p, t);
            let bits = _mm256_movemask_pd(not_crossed);
            count += bits.count_ones() as usize;
            if bits != 0xF {
                return count;
            }
            j += LANES;
        }
        while j < n {
            if prefix[j] > target {
                return count;
            }
            count += 1;
            j += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both kernels when the CPU has AVX2, scalar alone otherwise (the
    /// proptests then still pin the scalar reference against itself).
    fn kernels_under_test() -> Vec<Kernel> {
        if simd_available() {
            vec![Kernel::Scalar, Kernel::Avx2]
        } else {
            vec![Kernel::Scalar]
        }
    }

    #[test]
    fn dispatch_resolution_honours_cpu_and_knob() {
        // The env override is exercised by CI's dispatch-coverage leg
        // (running the whole suite under CWC_FORCE_SCALAR_KERNELS); when
        // it is set, everything must resolve scalar.
        if std::env::var_os(FORCE_SCALAR_ENV).is_some() {
            assert_eq!(KernelDispatch::Auto.resolve(), Kernel::Scalar);
            assert_eq!(KernelDispatch::Simd.resolve(), Kernel::Scalar);
            assert_eq!(KernelDispatch::Scalar.resolve(), Kernel::Scalar);
            return;
        }
        assert_eq!(KernelDispatch::Scalar.resolve(), Kernel::Scalar);
        let want = if simd_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        };
        assert_eq!(KernelDispatch::Auto.resolve(), want);
        assert_eq!(KernelDispatch::Simd.resolve(), want);
        assert_eq!("simd".parse::<KernelDispatch>(), Ok(KernelDispatch::Simd));
        assert_eq!("auto".parse::<KernelDispatch>(), Ok(KernelDispatch::Auto));
        assert!("avx512".parse::<KernelDispatch>().is_err());
    }

    /// Scalar reference for the row fold: the literal legacy loop.
    fn ref_fold(props: &[f64], keep: impl Fn(usize) -> bool) -> (Vec<f64>, f64) {
        let mut acc = -0.0f64;
        let mut prefix = vec![0.0; props.len()];
        for (j, &p) in props.iter().enumerate() {
            if p > 0.0 && keep(j) {
                acc += p;
            }
            prefix[j] = acc;
        }
        (prefix, acc)
    }

    fn mask_from_words(len: usize, words: &[u64]) -> RuleMask {
        let mut mask = RuleMask::new(len);
        for j in 0..len {
            if words[j / 64] & (1 << (j % 64)) != 0 {
                mask.assign(j, true);
            }
        }
        mask
    }

    proptest! {
        #[test]
        fn row_folds_are_bit_identical_across_kernels_and_refold_starts(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            words in proptest::collection::vec(0u64..u64::MAX, 3),
            from_num in 0usize..150,
            bump_num in 0usize..150,
        ) {
            // Roughly 40% of slots disabled: the drawn value doubles as
            // the coin (the stub proptest has no weighted-choice strategy).
            let raw: Vec<f64> = raw.iter().map(|&p| if p < 20.0 { 0.0 } else { p }).collect();
            let n = raw.len();
            let mask = mask_from_words(n, &words);
            let (ref_prefix, ref_total) = ref_fold(&raw, |_| true);
            let (ref_mprefix, ref_mtotal) = ref_fold(&raw, |j| mask.get(j));
            let ref_sum: f64 = {
                let mut acc = -0.0f64;
                for &p in &raw {
                    if p > 0.0 {
                        acc += p;
                    }
                }
                acc
            };
            // A refold start and a mutation somewhere at-or-after it: the
            // partial refold seeded from prefix[from-1] must equal a full
            // refold of the mutated row.
            let from = from_num % n;
            let bump = from + bump_num % (n - from);
            let mut bumped = raw.clone();
            bumped[bump] = if bumped[bump] > 0.0 { 0.0 } else { 7.25 };
            let (ref_bprefix, ref_btotal) = ref_fold(&bumped, |_| true);
            let (ref_bmprefix, ref_bmtotal) = ref_fold(&bumped, |j| mask.get(j));
            for kernel in kernels_under_test() {
                let mut prefix = vec![0.0; n];
                let total = row_fold_from(kernel, &raw, &mut prefix, 0);
                prop_assert!(total.to_bits() == ref_total.to_bits(), "{kernel:?} total");
                prop_assert!(
                    prefix.iter().zip(&ref_prefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} full fold prefix diverged"
                );
                prop_assert!(
                    row_sum(kernel, &raw).to_bits() == ref_sum.to_bits(),
                    "{kernel:?} row_sum"
                );
                // Partial refold over the mutated row.
                let mut scratch = ref_prefix.clone();
                scratch[..from].copy_from_slice(&ref_bprefix[..from]);
                let btotal = row_fold_from(kernel, &bumped, &mut scratch, from);
                prop_assert!(
                    btotal.to_bits() == ref_btotal.to_bits(),
                    "{kernel:?} refold total"
                );
                prop_assert!(
                    scratch.iter().zip(&ref_bprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} partial refold from {from} diverged"
                );
                // Masked variants, full and partial.
                let mut mprefix = vec![0.0; n];
                let mtotal = row_fold_masked_from(kernel, &raw, &mask, &mut mprefix, 0);
                prop_assert!(
                    mtotal.to_bits() == ref_mtotal.to_bits(),
                    "{kernel:?} masked total"
                );
                prop_assert!(
                    mprefix.iter().zip(&ref_mprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} masked fold prefix diverged"
                );
                let mut mscratch = ref_mprefix.clone();
                mscratch[..from].copy_from_slice(&ref_bmprefix[..from]);
                let bmtotal = row_fold_masked_from(kernel, &bumped, &mask, &mut mscratch, from);
                prop_assert_eq!(bmtotal.to_bits(), ref_bmtotal.to_bits());
                prop_assert!(
                    mscratch.iter().zip(&ref_bmprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} masked partial refold from {from} diverged"
                );
            }
        }

        #[test]
        fn row_select_agrees_with_the_linear_scan(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            frac in 0.0f64..1.1,
        ) {
            let raw: Vec<f64> = raw.iter().map(|&p| if p < 20.0 { 0.0 } else { p }).collect();
            let n = raw.len();
            let (prefix, total) = ref_fold(&raw, |_| true);
            // Sweep across the row, past the end (shortfall) included.
            let target = total.max(0.0) * frac;
            let want = prefix.iter().position(|&p| p > target).unwrap_or(n);
            for kernel in kernels_under_test() {
                prop_assert!(
                    row_select(kernel, &prefix, target) == want,
                    "{kernel:?} select at target {target}"
                );
            }
            prop_assert!(
                row_count_uncrossed(&prefix, target) == want,
                "branch-free count at target {target}"
            );
        }

        #[test]
        fn rule_mask_iterators_match_the_bit_definition(
            words_a in proptest::collection::vec(0u64..u64::MAX, 3),
            words_b in proptest::collection::vec(0u64..u64::MAX, 3),
            len in 1usize..150,
        ) {
            let a = mask_from_words(len, &words_a);
            let b = mask_from_words(len, &words_b);
            let want_a: Vec<usize> = (0..len).filter(|&j| a.get(j)).collect();
            let want_minus: Vec<usize> =
                (0..len).filter(|&j| a.get(j) && !b.get(j)).collect();
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), want_a.clone());
            prop_assert_eq!(a.iter_minus(&b).collect::<Vec<_>>(), want_minus);
            prop_assert_eq!(a.last_set(), want_a.last().copied());
        }
    }

    #[test]
    fn rule_mask_assign_reports_the_previous_bit_and_clear_resets() {
        let mut mask = RuleMask::new(70);
        assert!(!mask.assign(3, true));
        assert!(mask.assign(3, true));
        assert!(!mask.assign(69, true));
        assert_eq!(mask.last_set(), Some(69));
        assert!(mask.assign(69, false));
        assert_eq!(mask.last_set(), Some(3));
        mask.clear();
        assert_eq!(mask.last_set(), None);
        assert_eq!(mask.iter().count(), 0);
    }

    #[test]
    fn row_select_covers_both_scan_and_search_regimes() {
        // A long non-decreasing row forces the binary-search path
        // (> SELECT_SCAN_MAX_SLOTS); a short one takes the counting scan.
        for n in [5usize, 64, 65, 200] {
            let props: Vec<f64> = (0..n).map(|j| (j % 3) as f64).collect();
            let (prefix, total) = ref_fold(&props, |_| true);
            for kernel in kernels_under_test() {
                for target in [
                    -0.0,
                    0.0,
                    total * 0.4999,
                    total - 1e-9,
                    total,
                    total + 1.0,
                    f64::NAN,
                ] {
                    let want = prefix.iter().position(|&p| p > target).unwrap_or(n);
                    assert_eq!(
                        row_select(kernel, &prefix, target),
                        want,
                        "kernel {kernel:?} len {n} target {target}"
                    );
                    assert_eq!(
                        row_count_uncrossed(&prefix, target),
                        want,
                        "count {n} {target}"
                    );
                }
            }
        }
    }
}
