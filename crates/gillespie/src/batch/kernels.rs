//! The kernel layer: runtime-dispatched implementations of the
//! propensity-row scans every engine's hot loop runs.
//!
//! A propensity row (`props[slot]`, one trajectory's propensities in slot
//! order) and its prefix fold are the direct-method state of every
//! engine: `table::PropensityRow`, the row of the exact tier's two cores,
//! of the hybrid (through its dense core) and, twice over, of adaptive
//! tau-leaping (its main and critical rows). Rows at or above
//! `table::SHORT_ROW_SLOTS` slots run their two scans here — the fold and
//! the direct-method selection — which exist twice: a portable scalar
//! reference and an x86_64 AVX2 variant selected at runtime via
//! `is_x86_feature_detected!`. The two are **bit-for-bit identical** by
//! construction:
//!
//! - the fold is an ordered adds-only accumulation from the `-0.0`
//!   identity that skips non-positive entries, and a partial refold
//!   reseeds from the stored `prefix[from - 1]` bits (the exact tail of
//!   the full fold, since the lower slots are untouched). The AVX2
//!   variant keeps the adds in scalar order — an ordered fold cannot be
//!   reassociated — and wins by *skipping*: a four-lane compare
//!   classifies whole chunks as disabled and stores the flat accumulator
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

/// Direct-method selection on a non-decreasing prefix row: the
/// first slot whose cumulative propensity exceeds `target`, or
/// `prefix.len()` on floating-point shortfall (`PropensityRow::select`
/// then takes the last enabled slot). Scalar: binary search. AVX2:
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

    /// Branchless chunk body of [`row_fold_from`]: keeps the lanes
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
    fn ref_fold(props: &[f64]) -> (Vec<f64>, f64) {
        let mut acc = -0.0f64;
        let mut prefix = vec![0.0; props.len()];
        for (j, &p) in props.iter().enumerate() {
            if p > 0.0 {
                acc += p;
            }
            prefix[j] = acc;
        }
        (prefix, acc)
    }

    /// Row lengths the AVX2 loops split differently: empty, shorter than
    /// one four-lane chunk, exactly one chunk, one slot past it, and
    /// either side of 64 (the selection's scan/search cutover).
    const EDGE_LENS: [usize; 8] = [0, 1, 3, 4, 5, 63, 64, 65];

    /// A drawn row with roughly 40 % of its slots disabled (the drawn
    /// value doubles as the coin: the stub proptest has no weighted
    /// choice), cycled or cut to `EDGE_LENS[pick]`, or whole past the end
    /// of the table.
    fn test_row(raw: &[f64], pick: usize) -> Vec<f64> {
        let raw = raw.iter().map(|&p| if p < 20.0 { 0.0 } else { p });
        match EDGE_LENS.get(pick) {
            Some(&n) => raw.cycle().take(n).collect(),
            None => raw.collect(),
        }
    }

    /// `row` copied into a larger buffer at `shift` `f64`s past a 32-byte
    /// boundary — 1–3 put every AVX2 load of the row off alignment — and
    /// the row's start index in that buffer.
    fn placed(row: &[f64], shift: usize) -> (Vec<f64>, usize) {
        let mut buf = vec![0.0; row.len() + 8];
        let start = buf.as_ptr().align_offset(32) + shift;
        assert_eq!(buf[start..].as_ptr() as usize % 32, shift * 8);
        buf[start..start + row.len()].copy_from_slice(row);
        (buf, start)
    }

    proptest! {
        #[test]
        fn row_folds_are_bit_identical_across_kernels_and_refold_starts(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            len_pick in 0usize..12,
            start_kind in 0usize..5,
            from_num in 0usize..150,
            bump_num in 0usize..150,
            shift in 0usize..4,
        ) {
            let raw = test_row(&raw, len_pick);
            let n = raw.len();
            let (ref_prefix, ref_total) = ref_fold(&raw);
            // A refold start — anywhere, at `len` (nothing left to fold),
            // or on either side of a four-lane chunk boundary — and a
            // mutation somewhere at-or-after it: the partial refold seeded
            // from prefix[from-1] must equal a full refold of the mutated
            // row.
            let boundary = from_num % (n + 1) / 4 * 4;
            let from = match start_kind {
                0 => from_num % (n + 1),
                1 => n,
                2 => boundary.saturating_sub(1),
                3 => boundary,
                _ => (boundary + 1).min(n),
            };
            let mut bumped = raw.clone();
            if from < n {
                let bump = from + bump_num % (n - from);
                bumped[bump] = if bumped[bump] > 0.0 { 0.0 } else { 7.25 };
            }
            let (ref_bprefix, ref_btotal) = ref_fold(&bumped);
            // Every slice the kernels see starts `shift` f64s off a
            // 32-byte boundary.
            let (raw_buf, at) = placed(&raw, shift);
            let (bumped_buf, bat) = placed(&bumped, shift);
            let (raw, bumped) = (&raw_buf[at..at + n], &bumped_buf[bat..bat + n]);
            for kernel in kernels_under_test() {
                let (mut prefix_buf, pat) = placed(&vec![0.0; n], shift);
                let prefix = &mut prefix_buf[pat..pat + n];
                let total = row_fold_from(kernel, raw, prefix, 0);
                prop_assert!(total.to_bits() == ref_total.to_bits(), "{kernel:?} total");
                prop_assert!(
                    prefix.iter().zip(&ref_prefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} full fold prefix diverged"
                );
                // Partial refold over the mutated row.
                let (mut scratch_buf, sat) = placed(&ref_prefix, shift);
                let scratch = &mut scratch_buf[sat..sat + n];
                scratch[..from].copy_from_slice(&ref_bprefix[..from]);
                let btotal = row_fold_from(kernel, bumped, scratch, from);
                prop_assert!(
                    btotal.to_bits() == ref_btotal.to_bits(),
                    "{kernel:?} refold total, len {n} from {from}"
                );
                prop_assert!(
                    scratch.iter().zip(&ref_bprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} partial refold of len {n} from {from} diverged"
                );
            }
        }

        #[test]
        fn row_select_agrees_with_the_linear_scan(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            len_pick in 0usize..12,
            frac in 0.0f64..1.1,
            shift in 0usize..4,
        ) {
            let raw = test_row(&raw, len_pick);
            let n = raw.len();
            let (prefix, total) = ref_fold(&raw);
            // Sweep across the row, past the end (shortfall) included.
            let target = total.max(0.0) * frac;
            let want = prefix.iter().position(|&p| p > target).unwrap_or(n);
            // Selected from a slice `shift` f64s off a 32-byte boundary.
            let (prefix_buf, at) = placed(&prefix, shift);
            let prefix = &prefix_buf[at..at + n];
            for kernel in kernels_under_test() {
                prop_assert!(
                    row_select(kernel, prefix, target) == want,
                    "{kernel:?} select at target {target}, len {n}"
                );
            }
            prop_assert!(
                row_count_uncrossed(prefix, target) == want,
                "branch-free count at target {target}, len {n}"
            );
        }
    }

    #[test]
    fn row_select_covers_both_scan_and_search_regimes() {
        // A long non-decreasing row forces the binary-search path
        // (> SELECT_SCAN_MAX_SLOTS); a short one takes the counting scan.
        for n in EDGE_LENS.into_iter().chain([200]) {
            let props: Vec<f64> = (0..n).map(|j| (j % 3) as f64).collect();
            let (prefix, total) = ref_fold(&props);
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
