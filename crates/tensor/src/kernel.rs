//! The row kernel shared by [`Dense::matmul`](crate::Dense::matmul) and
//! [`Csr::spmm`](crate::Csr::spmm) / [`Csr::spmm_blocked`](crate::Csr::spmm_blocked)
//! and their fused forms, plus the row-parallel driver and its cached
//! thread count.
//!
//! Both products compute each output row as a weighted sum of rows of a
//! row-major `b`: `out[i] = init[i] + Σ_t w_t · b[k_t]`, with the terms
//! `(k_t, w_t)` coming from a dense row of `a` (matmul) or a CSR row
//! (SpMM). The kernel accumulates every output row in fixed-width
//! register tiles — a local `[f32; W]` starting at the row's start value
//! and fed `W`-wide slices of `b`'s rows — and writes each tile once,
//! instead of loading and storing the whole output row per term. Once a
//! row is complete, and still in L1, its [`Epilogue`] runs over it.
//!
//! Each output element sums its terms in term order, one `mul` then one
//! `add` per term, starting from its `init` value (`+0.0` for a plain
//! product), and nothing is fused into an FMA, so the result is
//! bit-identical to the plain AXPY loop on every path (portable, AVX2,
//! serial, threaded). A product whose first terms were summed earlier
//! into `init` (a cached prefix) is therefore bit-identical to the full
//! product, and an epilogue performs the same f32 operations, in the same
//! order, as the separate elementwise passes it replaces.

use std::sync::OnceLock;

use crate::Dense;

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
/// calling thread takes the first chunk and scoped threads one each of
/// the rest; otherwise `f` sees all of `out` at once. Units are independent, so the split never changes a result.
/// A panic in any chunk is re-raised on the caller with its own payload,
/// so a sanitizer report keeps naming its producer.
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
    let (panics, panicked) = std::sync::mpsc::channel();
    let joined = crossbeam::thread::scope(|scope| {
        let mut chunks = out.chunks_mut(per * unit_len);
        let first = chunks.next();
        for (idx, chunk) in chunks.enumerate() {
            let panics = panics.clone();
            scope.spawn(move |_| {
                let run = std::panic::AssertUnwindSafe(|| f((idx + 1) * per, chunk));
                if let Err(payload) = std::panic::catch_unwind(run) {
                    // The receiver outlives the scope, so this cannot fail.
                    let _ = panics.send(payload);
                }
            });
        }
        // The calling thread takes the first chunk instead of idling.
        if let Some(chunk) = first {
            f(0, chunk);
        }
    });
    if let Some(payload) = joined.err().or_else(|| panicked.try_recv().ok()) {
        std::panic::resume_unwind(payload);
    }
}

/// Instruction set a kernel call is compiled for: the build target's
/// baseline (SSE2 on x86-64), or 256-bit AVX2 (never with FMA). Only
/// [`Isa::detect`] can pick AVX2, so an `Isa` never names an instruction
/// set the CPU lacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    #[cfg_attr(
        not(target_arch = "x86_64"),
        allow(dead_code, reason = "only the x86-64 dispatch reads it")
    )]
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

/// Eval-mode batch-norm affine, `((x + neg_mean) · inv_std) · gamma + beta`
/// per column: the four row vectors (1×c each) the eval batch norm
/// records as `add_row`, `mul_row`, `mul_row`, `add_row`.
#[derive(Clone, Copy, Debug)]
pub struct BnAffine<'a> {
    /// `−running_mean`.
    pub neg_mean: &'a Dense,
    /// `1 / √(running_var + ε)`.
    pub inv_std: &'a Dense,
    /// Scale `γ`.
    pub gamma: &'a Dense,
    /// Shift `β`.
    pub beta: &'a Dense,
}

/// Elementwise passes applied to each finished output row of a fused
/// product ([`Dense::matmul_fused`], [`Csr::spmm_fused`](crate::Csr::spmm_fused)),
/// in field order. Each is the exact f32 operation of the pass it
/// replaces: `residual + x` (`add`), `x + bias` (`add_row`), the
/// [`BnAffine`] steps, then `max(x, 0)` (`relu`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Epilogue<'a> {
    /// Added in front of each row: `out[i] = residual[i] + out[i]`
    /// (a layer's self term; as tall and wide as the output).
    pub residual: Option<&'a Dense>,
    /// Added to each row (1×c).
    pub bias: Option<&'a Dense>,
    /// Eval batch norm.
    pub bn: Option<BnAffine<'a>>,
    /// ReLU last.
    pub relu: bool,
    /// Producer named by sanitizer reports. Under `--features sanitize`
    /// a row is checked for NaN/Inf before the ReLU, which would
    /// otherwise map it to 0.
    pub producer: &'a str,
}

impl Epilogue<'_> {
    /// Whether the epilogue changes nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.residual.is_none() && self.bias.is_none() && self.bn.is_none() && !self.relu
    }

    /// Panics unless every operand fits a `rows × cols` output.
    pub(crate) fn check_shapes(&self, rows: usize, cols: usize) {
        if let Some(r) = self.residual {
            assert_eq!(r.shape(), (rows, cols), "epilogue residual shape mismatch");
        }
        let rows_of = |v: &Dense| assert_eq!(v.shape(), (1, cols), "epilogue row-vector width");
        if let Some(b) = self.bias {
            rows_of(b);
        }
        if let Some(bn) = self.bn {
            [bn.neg_mean, bn.inv_std, bn.gamma, bn.beta].into_iter().for_each(rows_of);
        }
    }

    /// Applies the passes to output row `i`.
    #[inline(always)]
    pub(crate) fn apply(&self, i: usize, row: &mut [f32]) {
        if let Some(r) = self.residual {
            for (o, &s) in row.iter_mut().zip(r.row(i)) {
                #[allow(
                    clippy::assign_op_pattern,
                    reason = "the operand order of the unfused `residual.add(out)`"
                )]
                {
                    *o = s + *o;
                }
            }
        }
        if let Some(b) = self.bias {
            for (o, &b) in row.iter_mut().zip(b.as_slice()) {
                *o += b;
            }
        }
        if let Some(bn) = self.bn {
            let cols = bn.neg_mean.as_slice().iter().zip(bn.inv_std.as_slice());
            let cols = cols.zip(bn.gamma.as_slice().iter().zip(bn.beta.as_slice()));
            for (o, ((&m, &s), (&g, &b))) in row.iter_mut().zip(cols) {
                *o = ((*o + m) * s) * g + b;
            }
        }
        if self.relu {
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_finite_row(self.producer, i, row);
            for o in row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// Fills each `n`-wide row `i` of `out` with
/// `start[i] + Σ_{(k, w) ∈ terms(i)} w · b[k]`, where `b` is row-major
/// with `n` columns, then applies `epi` to it as output row `first + i`.
///
/// `start[i]` is row `i` of `prefix` (row-major, `n` wide) when given,
/// else `+0.0`. That choice, and whether `epi` does anything, is made
/// once per call: each tile then either always loads its start row or
/// always starts in registers at zero (a per-tile choice would push the
/// accumulator out of registers), and an empty epilogue costs nothing
/// per row.
///
/// `terms(i)` yields `P` runs of terms, summed run after run: one run
/// per part of a concatenated left operand, each a plain iterator the
/// kernel walks in its own tight loop (a chained iterator would cost a
/// state check per term, with the same effect on the accumulator).
///
/// `out` must hold whole rows; every term's `k` must index a row of `b`,
/// and a `prefix` must hold a row for every output row.
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "one monomorphized kernel entry; bundling the operands would add a struct per call"
)]
pub(crate) fn weighted_rows<F, I, const P: usize>(
    isa: Isa,
    out: &mut [f32],
    n: usize,
    b: &[f32],
    prefix: Option<&[f32]>,
    terms: F,
    epi: &Epilogue<'_>,
    first: usize,
) where
    F: Fn(usize) -> [I; P],
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let rows = Rows { out, n, b, terms: &terms, epi, first };
    match (prefix, epi.is_empty()) {
        (Some(start), true) => rows.run::<true, false>(isa, start),
        (Some(start), false) => rows.run::<true, true>(isa, start),
        (None, true) => rows.run::<false, false>(isa, &[]),
        (None, false) => rows.run::<false, true>(isa, &[]),
    }
}

/// The operands of one [`weighted_rows`] call.
struct Rows<'a, 'e, F> {
    out: &'a mut [f32],
    n: usize,
    b: &'a [f32],
    terms: &'a F,
    epi: &'a Epilogue<'e>,
    first: usize,
}

impl<F, I, const P: usize> Rows<'_, '_, F>
where
    F: Fn(usize) -> [I; P],
    I: Iterator<Item = (usize, f32)> + Clone,
{
    /// [`Rows::body`] for the given instruction set.
    #[inline(always)]
    #[cfg_attr(
        not(target_arch = "x86_64"),
        allow(unused_variables, reason = "only the x86-64 dispatch reads `isa`")
    )]
    fn run<const PREFIX: bool, const EPI: bool>(self, isa: Isa, start: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if isa.avx2 {
            // SAFETY: `avx2` is set only by `Isa::detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            return unsafe { self.body_avx2::<PREFIX, EPI>(start) };
        }
        self.body::<PREFIX, EPI>(start)
    }

    /// [`Rows::body`] compiled with AVX2 enabled (and FMA not).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn body_avx2<const PREFIX: bool, const EPI: bool>(self, start: &[f32]) {
        self.body::<PREFIX, EPI>(start)
    }

    #[inline(always)]
    fn body<const PREFIX: bool, const EPI: bool>(self, start: &[f32]) {
        let (n, b) = (self.n, self.b);
        if n == 0 {
            return;
        }
        for (i, row) in self.out.chunks_exact_mut(n).enumerate() {
            let t = (self.terms)(i);
            let start = if PREFIX { &start[i * n..][..n] } else { &[][..] };
            let mut j = 0;
            while j + TILE <= n {
                tile::<TILE, I, P, PREFIX>(&t, b, n, j, start, &mut row[j..j + TILE]);
                j += TILE;
            }
            while j + TILE_NARROW <= n {
                let out = &mut row[j..j + TILE_NARROW];
                tile::<TILE_NARROW, I, P, PREFIX>(&t, b, n, j, start, out);
                j += TILE_NARROW;
            }
            for (c, o) in row.iter_mut().enumerate().skip(j) {
                *o = column::<I, P, PREFIX>(&t, b, n, c, start);
            }
            if EPI {
                self.epi.apply(self.first + i, row);
            }
        }
    }
}

/// Output columns `[j, j + W)` of one row, accumulated in registers from
/// `start[j..]` (or `+0.0`).
#[inline(always)]
fn tile<const W: usize, I, const P: usize, const PREFIX: bool>(
    runs: &[I; P],
    b: &[f32],
    n: usize,
    j: usize,
    start: &[f32],
    out: &mut [f32],
) where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let mut acc = [0.0f32; W];
    if PREFIX {
        acc.copy_from_slice(&start[j..j + W]);
    }
    for run in runs {
        for (k, w) in run.clone() {
            let b_row = &b[k * n + j..][..W];
            for (a, &x) in acc.iter_mut().zip(b_row) {
                *a += w * x;
            }
        }
    }
    out.copy_from_slice(&acc);
}

/// Output column `c` of one row: a plain dot product from `start[c]` (or
/// `+0.0`) — the 1-wide heads and gates, and the last few columns of
/// other widths.
#[inline(always)]
fn column<I, const P: usize, const PREFIX: bool>(
    runs: &[I; P],
    b: &[f32],
    n: usize,
    c: usize,
    start: &[f32],
) -> f32
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let mut acc = if PREFIX { start[c] } else { 0.0 };
    for run in runs {
        for (k, w) in run.clone() {
            acc += w * b[k * n + c];
        }
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

    fn matmul_on(a: &Dense, b: &Dense, isa: Isa) -> Dense {
        Dense::matmul_fused_on(None, &[a], b, &Epilogue::default(), isa)
    }

    fn spmm_on(s: &Csr, d: &Dense, blocks: usize, isa: Isa) -> Dense {
        s.spmm_fused_on(d, blocks, &Epilogue::default(), isa)
    }

    /// `[tile(g, blocks) | parts…]`: the concatenation a prefixed product
    /// stands for, materialised for the oracle.
    fn concat(g: &Dense, blocks: usize, parts: &[&Dense]) -> Dense {
        let rows = g.rows() * blocks;
        let cols = g.cols() + parts.iter().map(|p| p.cols()).sum::<usize>();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            data.extend_from_slice(g.row(i % g.rows()));
            for p in parts {
                data.extend_from_slice(p.row(i));
            }
        }
        Dense::from_vec(rows, cols, data)
    }

    /// The first `rows` rows of `w`.
    fn top(w: &Dense, rows: usize) -> Dense {
        Dense::from_vec(rows, w.cols(), w.as_slice()[..rows * w.cols()].to_vec())
    }

    /// Checks `prefix + tail` against the full skipping product of the
    /// concatenation, on every instruction set.
    fn assert_prefix_matches_full(g: &Dense, blocks: usize, parts: &[&Dense], w: &Dense) {
        let full = concat(g, blocks, parts);
        let mut expect = Dense::zeros(full.rows(), w.cols());
        crate::dense::matmul_rows_skipping(&full, w, expect.as_mut_slice(), 0);
        let prefix = g.matmul(&top(w, g.cols()));
        for isa in isas() {
            let got = Dense::matmul_fused_on(Some(&prefix), parts, w, &Epilogue::default(), isa);
            assert_eq!(bits(&got), bits(&expect), "{isa:?}");
        }
    }

    /// One of `-0.0`, a subnormal, NaN, a negative or a plain value.
    fn special(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..6) {
            0 => -0.0,
            1 => 0.0,
            2 => rng.gen_range(-1.0f32..1.0) * f32::MIN_POSITIVE,
            3 if rng.gen_bool(0.3) => f32::NAN,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    fn row_vector(rng: &mut StdRng, cols: usize) -> Dense {
        Dense::from_vec(1, cols, (0..cols).map(|_| special(rng)).collect())
    }

    /// The separate passes an epilogue replaces, as the tape runs them.
    fn passes(x: Dense, epi: &Epilogue<'_>) -> Dense {
        let mut x = x;
        if let Some(r) = epi.residual {
            x = r.add(&x);
        }
        if let Some(b) = epi.bias {
            x = crate::ops::add_row_broadcast(&x, b);
        }
        if let Some(bn) = epi.bn {
            x = crate::ops::add_row_broadcast(&x, bn.neg_mean);
            x = crate::ops::mul_row_broadcast(&x, bn.inv_std);
            x = crate::ops::mul_row_broadcast(&x, bn.gamma);
            x = crate::ops::add_row_broadcast(&x, bn.beta);
        }
        if epi.relu {
            x = x.map(|v| v.max(0.0));
        }
        x
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
                prop_assert_eq!(bits(&matmul_on(&a, &b, isa)), expect.clone(), "{:?}", isa);
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
                prop_assert_eq!(bits(&spmm_on(&s, &d, blocks, isa)), expect.clone());
            }
            if blocks == 1 {
                prop_assert_eq!(bits(&s.spmm(&d)), expect.clone());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prefix_plus_tail_is_bit_identical_to_full_product(
            seed in 0u64..u64::MAX,
            wi in 0usize..WIDTHS.len(),
            ri in 1usize..ROWS.len(),
            zi in 0usize..ZERO_PCTS.len(),
            g_cols in 1usize..40,
            tail in proptest::collection::vec(1usize..40, 1..3),
            blocks in 1usize..4,
            non_finite in 0u32..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, period, z) = (WIDTHS[wi], ROWS[ri], ZERO_PCTS[zi]);
            let g = dense(&mut rng, period, g_cols, z);
            let parts: Vec<Dense> =
                tail.iter().map(|&c| dense(&mut rng, period * blocks, c, z)).collect();
            let inner = g_cols + tail.iter().sum::<usize>();
            let mut w = dense(&mut rng, inner, n, z / 2);
            // Poison the whole weight, or only the rows the prefix covers.
            match non_finite {
                0 => poison(&mut rng, &mut w),
                1 => {
                    let mut head = top(&w, g_cols);
                    poison(&mut rng, &mut head);
                    w.as_mut_slice()[..g_cols * n].copy_from_slice(head.as_slice());
                }
                _ => {}
            }
            let parts: Vec<&Dense> = parts.iter().collect();
            assert_prefix_matches_full(&g, blocks, &parts, &w);
        }

        #[test]
        fn epilogue_is_bit_identical_to_separate_passes(
            seed in 0u64..u64::MAX,
            wi in 0usize..WIDTHS.len(),
            ri in 0usize..ROWS.len(),
            inner in 1usize..40,
            blocks in 1usize..3,
            which in 0u32..16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, m) = (WIDTHS[wi], ROWS[ri]);
            // Products over sparse operands, so many outputs are exact
            // zeros that the BN scale can turn into -0.0 before the ReLU.
            let a = dense(&mut rng, m * blocks, inner, 60);
            let w = dense(&mut rng, inner, n, 30);
            let s = csr(&mut rng, m, inner, 4, 30);
            let d = dense(&mut rng, inner * blocks, n, 60);
            let mut residual = Dense::from_vec(
                m * blocks,
                n,
                (0..m * blocks * n).map(|_| special(&mut rng)).collect(),
            );
            if which % 5 == 0 {
                poison(&mut rng, &mut residual);
            }
            let bias = row_vector(&mut rng, n);
            let bn = [0; 4].map(|_| row_vector(&mut rng, n));
            let epi = Epilogue {
                residual: (which & 1 != 0).then_some(&residual),
                bias: (which & 2 != 0).then_some(&bias),
                bn: (which & 4 != 0).then_some(BnAffine {
                    neg_mean: &bn[0],
                    inv_std: &bn[1],
                    gamma: &bn[2],
                    beta: &bn[3],
                }),
                relu: which & 8 != 0,
                producer: "test",
            };
            #[cfg(feature = "sanitize")]
            let _lock = crate::sanitize::test_lock();
            let _off = crate::sanitize::scoped_off();
            let want_mm = bits(&passes(a.matmul(&w), &epi));
            let want_sp = bits(&passes(s.spmm_blocked(&d, blocks), &epi));
            for isa in isas() {
                let got = Dense::matmul_fused_on(None, &[&a], &w, &epi, isa);
                prop_assert_eq!(bits(&got), want_mm.clone(), "matmul {:?}", isa);
                prop_assert_eq!(bits(&s.spmm_fused_on(&d, blocks, &epi, isa)), want_sp.clone());
            }
        }
    }

    /// ReLU of `-0.0` and NaN, the cases `max` leaves to the compiler,
    /// through the fused path on every instruction set.
    #[test]
    fn relu_epilogue_matches_relu_pass_on_signed_zero_and_nan() {
        let x = Dense::from_rows(&[&[1.0]]);
        let w = Dense::from_rows(&[&[0.0, -1.0, 2.0, 1.0]]);
        // 0 · -1 = -0 … then NaN and -inf through the BN shift.
        let neg_mean = Dense::row_vector(&[-0.0, 0.0, f32::NAN, f32::NEG_INFINITY]);
        let one = Dense::row_vector(&[-1.0, -1.0, 1.0, 1.0]);
        let zero = Dense::row_vector(&[-0.0; 4]);
        let epi = Epilogue {
            bn: Some(BnAffine { neg_mean: &neg_mean, inv_std: &one, gamma: &one, beta: &zero }),
            relu: true,
            ..Epilogue::default()
        };
        #[cfg(feature = "sanitize")]
        let _lock = crate::sanitize::test_lock();
        let _off = crate::sanitize::scoped_off();
        let want = bits(&passes(x.matmul(&w), &epi));
        for isa in isas() {
            assert_eq!(bits(&Dense::matmul_fused_on(None, &[&x], &w, &epi, isa)), want);
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
                assert_eq!(bits(&matmul_on(&a, &b, isa)), bits(&expect), "matmul n={n}");
            }

            let rows = 4_100_000 / (12 * n) + 5;
            let s = csr(&mut rng, rows, 300, 16, z);
            assert!(s.nnz() * n >= PARALLEL_FLOP_THRESHOLD);
            let blocks = 3;
            let d = dense(&mut rng, 300 * blocks, n, z);
            let expect = crate::sparse::spmm_blocked_oracle(&s, &d, blocks);
            for isa in isas() {
                let got = spmm_on(&s, &d, blocks, isa);
                assert_eq!(bits(&got), bits(&expect), "spmm_blocked n={n}");
                let d1 = Dense::from_vec(300, n, d.as_slice()[..300 * n].to_vec());
                let expect1 = crate::sparse::spmm_blocked_oracle(&s, &d1, 1);
                assert_eq!(bits(&spmm_on(&s, &d1, 1, isa)), bits(&expect1), "spmm n={n}");
            }
        }

        // A prefixed product over three 700-row blocks, threaded across
        // block boundaries, with finite and with poisoned weights.
        let (period, blocks) = (700, 3);
        let g = dense(&mut rng, period, 32, 20);
        let q = dense(&mut rng, period * blocks, 32, 20);
        let n = dense(&mut rng, period * blocks, 32, 90);
        let mut w = dense(&mut rng, 96, 32, 0);
        assert!(period * blocks * 64 * 32 >= PARALLEL_FLOP_THRESHOLD);
        assert_prefix_matches_full(&g, blocks, &[&q, &n], &w);
        poison(&mut rng, &mut w);
        assert_prefix_matches_full(&g, blocks, &[&q, &n], &w);
    }

    /// A worker thread's sanitizer panic reaches the caller with its own
    /// message, naming the producer.
    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "op `threaded` produced non-finite value")]
    fn threaded_epilogue_panic_names_its_producer() {
        let _lock = crate::sanitize::test_lock();
        let mut rng = StdRng::seed_from_u64(3);
        let rows = PARALLEL_FLOP_THRESHOLD / (97 * 32) + 3;
        let (a, b) = (dense(&mut rng, rows, 97, 0), dense(&mut rng, 97, 32, 0));
        let bias = Dense::full(1, 32, f32::NAN);
        let epi =
            Epilogue { bias: Some(&bias), relu: true, producer: "threaded", ..Epilogue::default() };
        let _ = Dense::matmul_fused(None, &[&a], &b, &epi);
    }

    #[test]
    fn non_finite_b_takes_the_skipping_path() {
        // 0 · inf is NaN, so only the skip keeps this finite.
        let a = Dense::from_rows(&[&[0.0, 2.0], &[-0.0, 1.0]]);
        let b = Dense::from_rows(&[&[f32::INFINITY], &[3.0]]);
        assert_eq!(a.matmul(&b).as_slice(), &[6.0, 3.0]);
    }
}
