//! The row kernel shared by [`Dense::matmul`](crate::Dense::matmul) and
//! [`Csr::spmm`](crate::Csr::spmm) / [`Csr::spmm_blocked`](crate::Csr::spmm_blocked),
//! plus the row-parallel driver and its cached thread count.
//!
//! Both products compute each output row as a weighted sum of rows of a
//! row-major `b`: `out[i] = Σ_t w_t · b[k_t]`, with the terms `(k_t, w_t)`
//! coming from a dense row of `a` (matmul) or a CSR row (SpMM). The kernel
//! accumulates every output row in fixed-width register tiles — a local
//! `[f32; W]` fed `W`-wide slices of `b`'s rows — and writes each tile
//! once, instead of loading and storing the whole output row per term.
//!
//! Each output element still sums its terms in term order, one `mul` then
//! one `add` per term, starting from `+0.0`, and nothing is fused into an
//! FMA, so the result is bit-identical to the plain AXPY loop on every
//! path (portable, AVX2, serial, threaded).

use std::sync::OnceLock;

/// Multiply-accumulate count above which the products split their output
/// rows (or blocks) across threads.
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

/// Widest register tile, in output columns. 32 `f32` fill 4 AVX2 or 8
/// SSE registers, leaving room for the broadcast weight and `b`'s row.
const TILE: usize = 32;

/// Narrower tile for the columns left after whole [`TILE`]s.
const TILE_NARROW: usize = 8;

/// Worker threads for the parallel paths. `available_parallelism` costs
/// tens of microseconds per call, so it is read once per process.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `f(first_unit, chunk)` over `out` split into contiguous chunks of
/// whole `unit_len`-element units (`units` of them in all).
///
/// With `parallel` set and more than one worker thread available, the
/// chunks go to scoped threads, one each; otherwise `f` sees all of `out`
/// at once. Units are independent, so the split never changes a result.
pub(crate) fn for_unit_chunks<F>(
    out: &mut [f32],
    unit_len: usize,
    units: usize,
    parallel: bool,
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let threads = if parallel && unit_len > 0 { threads().min(units) } else { 1 };
    if threads <= 1 {
        f(0, out);
        return;
    }
    let per = units.div_ceil(threads);
    let f = &f;
    crossbeam::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(per * unit_len).enumerate() {
            scope.spawn(move |_| f(idx * per, chunk));
        }
    })
    .expect("tensor kernel worker thread panicked");
}

/// Instruction set a kernel call is compiled for: the build target's
/// baseline (SSE2 on x86-64), or 256-bit AVX2 (never with FMA). Only
/// [`Isa::detect`] can pick AVX2, so an `Isa` never names an instruction
/// set the CPU lacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    avx2: bool,
}

impl Isa {
    /// The baseline instruction set, valid on every CPU.
    pub(crate) const PORTABLE: Isa = Isa { avx2: false };

    /// The best instruction set this CPU supports.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa { avx2: true };
        }
        Isa::PORTABLE
    }
}

/// Fills each `n`-wide row `i` of `out` with `Σ_{(k, w) ∈ terms(i)} w · b[k]`,
/// where `b` is row-major with `n` columns.
///
/// `out` must hold whole rows; every term's `k` must index a row of `b`.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn weighted_rows<F, I>(isa: Isa, out: &mut [f32], n: usize, b: &[f32], terms: F)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = (usize, f32)> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if isa.avx2 {
        // SAFETY: `avx2` is set only by `Isa::detect`, after
        // `is_x86_feature_detected!("avx2")` returned true.
        return unsafe { weighted_rows_avx2(out, n, b, &terms) };
    }
    weighted_rows_body(out, n, b, &terms)
}

/// [`weighted_rows_body`] compiled with AVX2 enabled (and FMA not).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_rows_avx2<F, I>(out: &mut [f32], n: usize, b: &[f32], terms: &F)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = (usize, f32)> + Clone,
{
    weighted_rows_body(out, n, b, terms)
}

#[inline(always)]
fn weighted_rows_body<F, I>(out: &mut [f32], n: usize, b: &[f32], terms: &F)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = (usize, f32)> + Clone,
{
    if n == 0 {
        return;
    }
    for (i, row) in out.chunks_exact_mut(n).enumerate() {
        let t = terms(i);
        let mut j = 0;
        while j + TILE <= n {
            tile::<TILE, I>(t.clone(), b, n, j, &mut row[j..j + TILE]);
            j += TILE;
        }
        while j + TILE_NARROW <= n {
            tile::<TILE_NARROW, I>(t.clone(), b, n, j, &mut row[j..j + TILE_NARROW]);
            j += TILE_NARROW;
        }
        for (c, o) in row.iter_mut().enumerate().skip(j) {
            *o = column(t.clone(), b, n, c);
        }
    }
}

/// Output columns `[j, j + W)` of one row, accumulated in registers.
#[inline(always)]
fn tile<const W: usize, I>(terms: I, b: &[f32], n: usize, j: usize, out: &mut [f32])
where
    I: Iterator<Item = (usize, f32)>,
{
    let mut acc = [0.0f32; W];
    for (k, w) in terms {
        let b_row = &b[k * n + j..][..W];
        for (a, &x) in acc.iter_mut().zip(b_row) {
            *a += w * x;
        }
    }
    out.copy_from_slice(&acc);
}

/// Output column `c` of one row: a plain dot product (the 1-wide heads
/// and gates, and the last few columns of other widths).
#[inline(always)]
fn column<I>(terms: I, b: &[f32], n: usize, c: usize) -> f32
where
    I: Iterator<Item = (usize, f32)>,
{
    let mut acc = 0.0f32;
    for (k, w) in terms {
        acc += w * b[k * n + c];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csr, Dense};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every instruction set this CPU can run.
    fn isas() -> Vec<Isa> {
        let mut v = vec![Isa::PORTABLE];
        if Isa::detect() != Isa::PORTABLE {
            v.push(Isa::detect());
        }
        v
    }

    /// Random entries with about `zero_pct`% exact zeros (half of them
    /// `-0.0`), and some subnormals and large magnitudes among the rest.
    fn entries(rng: &mut StdRng, len: usize, zero_pct: u32) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0..100) < zero_pct {
                    if rng.gen_bool(0.5) {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    match rng.gen_range(0..10) {
                        0 => rng.gen_range(-1.0f32..1.0) * f32::MIN_POSITIVE,
                        1 => rng.gen_range(-1.0f32..1.0) * 1e30,
                        _ => rng.gen_range(-2.0f32..2.0),
                    }
                }
            })
            .collect()
    }

    fn dense(rng: &mut StdRng, rows: usize, cols: usize, zero_pct: u32) -> Dense {
        Dense::from_vec(rows, cols, entries(rng, rows * cols, zero_pct))
    }

    /// Random CSR whose stored values include exact zeros.
    fn csr(rng: &mut StdRng, rows: usize, cols: usize, per_row: usize, zero_pct: u32) -> Csr {
        let mut triplets = Vec::new();
        for r in 0..rows {
            for _ in 0..per_row.min(cols) {
                triplets.push((r, rng.gen_range(0..cols), 0.0));
            }
        }
        let vals = entries(rng, triplets.len(), zero_pct);
        for (t, v) in triplets.iter_mut().zip(vals) {
            t.2 = v;
        }
        Csr::from_triplets(rows, cols, &triplets)
    }

    /// Puts `inf`, `-inf` or `NaN` into a few entries of `d`.
    fn poison(rng: &mut StdRng, d: &mut Dense) {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for _ in 0..3 {
            if d.is_empty() {
                return;
            }
            let at = rng.gen_range(0..d.len());
            d.as_mut_slice()[at] = specials[rng.gen_range(0..specials.len())];
        }
    }

    /// Bit patterns, except that every NaN maps to one pattern: Rust
    /// leaves the sign and payload of a NaN result unspecified, and which
    /// of two NaN operands an `add` returns depends on register order.
    fn bits(d: &Dense) -> Vec<u32> {
        d.as_slice()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() })
            .collect()
    }

    const WIDTHS: [usize; 8] = [1, 2, 31, 32, 33, 64, 96, 97];
    const ROWS: [usize; 5] = [0, 1, 7, 33, 129];
    const ZERO_PCTS: [u32; 5] = [0, 13, 50, 75, 90];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matmul_is_bit_identical_to_skipping_oracle(
            seed in 0u64..u64::MAX,
            wi in 0usize..WIDTHS.len(),
            ri in 0usize..ROWS.len(),
            zi in 0usize..ZERO_PCTS.len(),
            inner in 1usize..100,
            non_finite in 0u32..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, m, z) = (WIDTHS[wi], ROWS[ri], ZERO_PCTS[zi]);
            let a = dense(&mut rng, m, inner, z);
            let mut b = dense(&mut rng, inner, n, z / 2);
            if non_finite == 0 {
                poison(&mut rng, &mut b);
            }
            let mut expect = Dense::zeros(m, n);
            crate::dense::matmul_rows_skipping(&a, &b, expect.as_mut_slice(), 0);
            let expect = bits(&expect);
            prop_assert_eq!(bits(&a.matmul(&b)), expect.clone());
            for isa in isas() {
                prop_assert_eq!(bits(&a.matmul_on(&b, isa)), expect.clone(), "{:?}", isa);
            }
        }

        #[test]
        fn spmm_is_bit_identical_to_axpy_oracle(
            seed in 0u64..u64::MAX,
            wi in 0usize..WIDTHS.len(),
            ri in 0usize..ROWS.len(),
            zi in 0usize..ZERO_PCTS.len(),
            cols in 0usize..80,
            per_row in 0usize..12,
            blocks in 1usize..4,
            non_finite in 0u32..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, m, z) = (WIDTHS[wi], ROWS[ri], ZERO_PCTS[zi]);
            let s = csr(&mut rng, m, cols, per_row, z);
            let mut d = dense(&mut rng, cols * blocks, n, z);
            if non_finite == 0 {
                poison(&mut rng, &mut d);
            }
            let expect = crate::sparse::spmm_blocked_oracle(&s, &d, blocks);
            let expect = bits(&expect);
            prop_assert_eq!(bits(&s.spmm_blocked(&d, blocks)), expect.clone());
            for isa in isas() {
                prop_assert_eq!(bits(&s.spmm_blocked_on(&d, blocks, isa)), expect.clone());
            }
            if blocks == 1 {
                prop_assert_eq!(bits(&s.spmm(&d)), expect.clone());
            }
        }
    }

    /// Shapes above [`PARALLEL_FLOP_THRESHOLD`], so the threaded paths run.
    #[test]
    fn threaded_paths_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, z) in [(1, 50), (32, 0), (33, 75), (96, 90)] {
            let m = 4_100_000 / (97 * n) + 3;
            let a = dense(&mut rng, m, 97, z);
            let b = dense(&mut rng, 97, n, 10);
            assert!(m * 97 * n >= PARALLEL_FLOP_THRESHOLD);
            let mut expect = Dense::zeros(m, n);
            crate::dense::matmul_rows_skipping(&a, &b, expect.as_mut_slice(), 0);
            for isa in isas() {
                assert_eq!(bits(&a.matmul_on(&b, isa)), bits(&expect), "matmul n={n}");
            }

            let rows = 4_100_000 / (12 * n) + 5;
            let s = csr(&mut rng, rows, 300, 16, z);
            assert!(s.nnz() * n >= PARALLEL_FLOP_THRESHOLD);
            let blocks = 3;
            let d = dense(&mut rng, 300 * blocks, n, z);
            let expect = crate::sparse::spmm_blocked_oracle(&s, &d, blocks);
            for isa in isas() {
                let got = s.spmm_blocked_on(&d, blocks, isa);
                assert_eq!(bits(&got), bits(&expect), "spmm_blocked n={n}");
                let d1 = Dense::from_vec(300, n, d.as_slice()[..300 * n].to_vec());
                let expect1 = crate::sparse::spmm_blocked_oracle(&s, &d1, 1);
                assert_eq!(bits(&s.spmm_blocked_on(&d1, 1, isa)), bits(&expect1), "spmm n={n}");
            }
        }
    }

    #[test]
    fn non_finite_b_takes_the_skipping_path() {
        // 0 · inf is NaN, so only the skip keeps this finite.
        let a = Dense::from_rows(&[&[0.0, 2.0], &[-0.0, 1.0]]);
        let b = Dense::from_rows(&[&[f32::INFINITY], &[3.0]]);
        assert_eq!(a.matmul(&b).as_slice(), &[6.0, 3.0]);
    }
}
