//! The refined solve of [`super::SparseCholesky::solve_with`], run as
//! independent lane groups.
//!
//! The `nrhs` right-hand-side columns are split into contiguous groups,
//! one per thread, and each group runs the whole pipeline on its own
//! columns without ever synchronizing with the others: permute in, base
//! sweep, refinement steps, final residual, permute out. A group keeps its
//! `g` columns *interleaved* — entry `k` of lane `l` at `xp[k * g + l]` —
//! which is the layout of both the `_rm` sweep kernels and
//! [`CscMatrix::sym_spmv_rm`]. Both fix each lane's operation order
//! independently of the lane count, so the answer is bitwise the same for
//! every grouping.
//!
//! Two `n x nrhs` blocks are live: the permuted solution `xp` and the
//! output block, which doubles as each group's residual scratch. Group `i`
//! owns the same column range of both.

use crate::factor::Factor;
use parfact_sparse::csc::CscMatrix;
use parfact_trace::{Collector, LocalRecorder, Phase};
use std::iter;

/// What every lane group reads.
pub(super) struct Job<'a> {
    pub factor: &'a Factor,
    /// The permuted matrix the factor refers to.
    pub ap: &'a CscMatrix,
    /// The caller's right-hand sides, `n x nrhs` column-major.
    pub b: &'a [f64],
    /// Equilibration scale `d` (the factor holds `D·A·D`).
    pub scale: Option<&'a [f64]>,
    pub refine: usize,
    /// Compute the final residual even when `refine == 0`.
    pub residual: bool,
}

/// One group's work and result, folded over the groups by [`solve`].
#[derive(Default)]
pub(super) struct Tally {
    /// Columns run through a correction sweep, summed over the steps.
    pub correction_cols: usize,
    /// Columns run through a residual spmv, the final one included.
    pub spmv_cols: usize,
    /// Worst final residual entry in the caller's (unscaled) system.
    pub worst: f64,
}

impl Job<'_> {
    /// Right-hand-side entry `k` of column `c` in the permuted (and,
    /// under equilibration, scaled) system: `b[old_of_new(k)]·d[..]`.
    pub(super) fn rhs(&self, k: usize, c: usize) -> f64 {
        let old = self.factor.perm.old_of_new(k);
        let v = self.b[c * self.factor.sym.n + old];
        match self.scale {
            Some(d) => v * d[old],
            None => v,
        }
    }

    /// `r = bs − A·x` for the interleaved lanes `x`; lane `j` is column
    /// `c0 + lanes[j]` of `b`.
    fn residual(&self, c0: usize, x: &[f64], lanes: &[usize], r: &mut [f64]) {
        let w = lanes.len();
        self.ap.sym_spmv_rm(x, w, r);
        for (k, row) in r.chunks_exact_mut(w).enumerate() {
            for (rk, &lane) in row.iter_mut().zip(lanes) {
                *rk = self.rhs(k, c0 + lane) - *rk;
            }
        }
    }
}

/// Split `nrhs` columns into at most `groups` contiguous groups, each a
/// multiple of 4 columns except the last, and as even as that allows.
fn group_widths(nrhs: usize, groups: usize) -> Vec<usize> {
    let quads = nrhs / 4;
    let g = groups.min(quads).max(1);
    (0..g)
        .map(|i| {
            let w = 4 * (quads / g + usize::from(i < quads % g));
            if i + 1 == g {
                w + nrhs % 4
            } else {
                w
            }
        })
        .collect()
}

/// Run the solve of all `nrhs` columns in at most `groups` lane groups,
/// the first on the calling thread and every other one on a scoped thread
/// of its own, and leave the solution in `x` (`n x nrhs` column-major,
/// like `b`). `xp` is scratch of the same size, except when `based`: it
/// then holds the base solution, permuted and column-major, and the groups
/// skip the permute-in and the base sweep. Each group records its sweeps
/// as `Phase::Solve` spans on worker `group` of `tr`.
pub(super) fn solve(
    job: &Job<'_>,
    nrhs: usize,
    groups: usize,
    based: bool,
    xp: &mut [f64],
    x: &mut [f64],
    tr: &Collector,
) -> Tally {
    let n = job.factor.sym.n;
    let mut tally = Tally::default();
    if n == 0 || nrhs == 0 {
        return tally;
    }
    let mut work = Vec::new();
    let (mut xp, mut x, mut c0) = (xp, x, 0);
    for g in group_widths(nrhs, groups) {
        let (xg, xp_rest) = xp.split_at_mut(n * g);
        let (og, x_rest) = x.split_at_mut(n * g);
        work.push((c0, g, xg, og));
        (xp, x, c0) = (xp_rest, x_rest, c0 + g);
    }
    let run =
        |group: usize, (c0, g, xg, og)| run_group(job, c0, g, based, xg, og, &mut tr.local(group));
    std::thread::scope(|s| {
        let mut work = work.into_iter().enumerate();
        let first = work.next().expect("at least one group");
        let spawned: Vec<_> = work
            .map(|(group, w)| s.spawn(move || run(group, w)))
            .collect();
        let done = iter::once(run(first.0, first.1)).chain(
            spawned
                .into_iter()
                .map(|h| h.join().expect("lane group panicked")),
        );
        for t in done {
            tally.correction_cols += t.correction_cols;
            tally.spmv_cols += t.spmv_cols;
            tally.worst = tally.worst.max(t.worst);
        }
    });
    tally
}

/// One interleaved sweep, recorded as one `Phase::Solve` span.
fn sweep(factor: &Factor, xi: &mut [f64], nrhs: usize, rec: &mut LocalRecorder<'_>) {
    let tick = rec.start();
    factor.sweep_interleaved(xi, nrhs);
    rec.stop(tick, Phase::Solve, None);
}

/// Keep the lanes `keep` marks of an interleaved block `width` lanes wide,
/// in place: they end up interleaved, in order, at the front of `block`.
fn compact(block: &mut [f64], width: usize, keep: &[bool]) {
    let mut dst = 0;
    for src in 0..block.len() {
        if keep[src % width] {
            block[dst] = block[src];
            dst += 1;
        }
    }
}

/// The whole pipeline for columns `c0..c0 + g`: `xp` and `out` are the
/// group's `n x g` shares of the two blocks.
fn run_group(
    job: &Job<'_>,
    c0: usize,
    g: usize,
    based: bool,
    xp: &mut [f64],
    out: &mut [f64],
    rec: &mut LocalRecorder<'_>,
) -> Tally {
    let f = job.factor;
    let n = f.sym.n;
    if based {
        out.copy_from_slice(xp);
        for (k, row) in xp.chunks_exact_mut(g).enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                *v = out[l * n + k];
            }
        }
    } else {
        for (k, row) in xp.chunks_exact_mut(g).enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                *v = job.rhs(k, c0 + l);
            }
        }
        sweep(f, xp, g, rec);
    }
    let mut tally = Tally::default();
    // `lanes[p]` is the lane at position `p`. The `na` active lanes are
    // interleaved in `xp[..n * na]`; a lane that dropped out sits alone at
    // `xp[p * n..(p + 1) * n]` for its position `p >= na`.
    let mut lanes: Vec<usize> = (0..g).collect();
    let mut na = g;
    for _ in 0..job.refine {
        let r = &mut out[..n * na];
        job.residual(c0, &xp[..n * na], &lanes[..na], r);
        tally.spmv_cols += na;
        let mut norm = vec![0.0f64; na];
        for row in r.chunks_exact(na) {
            for (m, v) in norm.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
        let keep: Vec<bool> = norm.iter().map(|&m| m != 0.0).collect();
        let nk = keep.iter().filter(|&&k| k).count();
        if nk < na {
            // A lane whose residual is exactly zero drops out for good.
            // Park its solution behind the active block, staged through
            // the tail of `out` that compacting the residuals frees.
            compact(r, na, &keep);
            let order: Vec<usize> = (0..na)
                .filter(|&j| keep[j])
                .chain((0..na).filter(|&j| !keep[j]))
                .collect();
            let parked = &mut out[n * nk..n * na];
            for (col, &j) in parked.chunks_exact_mut(n).zip(&order[nk..]) {
                for (k, v) in col.iter_mut().enumerate() {
                    *v = xp[k * na + j];
                }
            }
            compact(&mut xp[..n * na], na, &keep);
            xp[n * nk..n * na].copy_from_slice(parked);
            let moved: Vec<usize> = order.iter().map(|&j| lanes[j]).collect();
            lanes[..na].copy_from_slice(&moved);
            na = nk;
        }
        if na == 0 {
            break;
        }
        let dx = &mut out[..n * na];
        sweep(f, dx, na, rec);
        tally.correction_cols += na;
        for (xi, di) in xp[..n * na].iter_mut().zip(dx.iter()) {
            *xi += di;
        }
    }
    // The active block, then each parked lane, as (position, width).
    let segments: Vec<(usize, usize)> = iter::once((0, na))
        .chain((na..g).map(|p| (p, 1)))
        .filter(|&(_, w)| w > 0)
        .collect();
    let old_of_new = f.perm.perm();
    if job.refine > 0 || job.residual {
        for &(p, w) in &segments {
            let r = &mut out[p * n..(p + w) * n];
            job.residual(c0, &xp[p * n..(p + w) * n], &lanes[p..p + w], r);
            tally.spmv_cols += w;
            // The factored matrix is D·A·D under equilibration, so `r` is
            // the scaled residual r̂ = D(b − A x); the caller's residual is
            // D⁻¹ r̂ (entry k sits at original row `old_of_new(k)`). r̂
            // itself would flatter ill-scaled systems: D shrinks exactly
            // the rows equilibration targets.
            for (row, &old) in r.chunks_exact(w).zip(old_of_new) {
                for &v in row {
                    let v = match job.scale {
                        Some(d) => v / d[old],
                        None => v,
                    };
                    tally.worst = tally.worst.max(v.abs());
                }
            }
        }
    }
    for &(p, w) in &segments {
        for (row, &old) in xp[p * n..(p + w) * n].chunks_exact(w).zip(old_of_new) {
            for (&v, &lane) in row.iter().zip(&lanes[p..p + w]) {
                out[lane * n + old] = match job.scale {
                    Some(d) => v * d[old],
                    None => v,
                };
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::group_widths;
    use crate::analysis;
    use crate::solver::{FactorOpts, RhsBlock, SolveEngine, SolveOpts, Solved, SparseCholesky};
    use parfact_sparse::gen;

    /// `nrhs` deterministic columns; `zero` names one to leave all zero.
    fn rhs(n: usize, nrhs: usize, zero: Option<usize>) -> Vec<f64> {
        (0..n * nrhs)
            .map(|i| match zero {
                Some(c) if i / n == c => 0.0,
                _ => ((i * 37 + 11) % 41) as f64 - 20.0,
            })
            .collect()
    }

    fn solve_flops(chol: &SparseCholesky) -> f64 {
        chol.report_with_solve().solve.map_or(0.0, |s| s.flops)
    }

    /// Solve in `groups` lane groups; returns the result and its flops.
    fn run(
        chol: &SparseCholesky,
        b: &[f64],
        nrhs: usize,
        opts: &SolveOpts,
        groups: usize,
    ) -> (Solved, f64) {
        let before = solve_flops(chol);
        let out = chol
            .solve_in_groups(RhsBlock::new(b, nrhs), opts, groups)
            .unwrap();
        (out, solve_flops(chol) - before)
    }

    fn assert_bitwise(got: &(Solved, f64), want: &(Solved, f64), label: &str) {
        assert_eq!(got.0.x.len(), want.0.x.len(), "{label}");
        for (i, (g, w)) in got.0.x.iter().zip(&want.0.x).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: x[{i}] {g} vs {w}");
        }
        assert_eq!(
            got.0.residual.map(f64::to_bits),
            want.0.residual.map(f64::to_bits),
            "{label}: residual"
        );
        assert_eq!(got.1, want.1, "{label}: flops");
    }

    #[test]
    fn lane_group_widths_are_quads_but_the_last() {
        for nrhs in 0..40 {
            for groups in 1..7 {
                let w = group_widths(nrhs, groups);
                assert_eq!(w.len(), groups.min(nrhs / 4).max(1), "{nrhs}/{groups}");
                assert_eq!(w.iter().sum::<usize>(), nrhs);
                assert!(w[..w.len() - 1].iter().all(|&g| g > 0 && g % 4 == 0));
                let quads = &w[..w.len() - 1];
                assert!(quads.windows(2).all(|p| p[0] == p[1] || p[0] == p[1] + 4));
            }
        }
        assert_eq!(group_widths(16, 3), [8, 4, 4]);
        assert_eq!(group_widths(33, 2), [16, 17]);
    }

    #[test]
    fn lane_groups_are_bitwise_the_sequential_solve() {
        let a = gen::random_spd(160, 6, 11);
        let n = a.nrows();
        let (d, scaled) = analysis::equilibrate(&a);
        for equilibrate in [false, true] {
            let m = if equilibrate { &scaled } else { &a };
            let chol = SparseCholesky::factorize(m, &FactorOpts::new()).unwrap();
            for nrhs in [0usize, 1, 3, 4, 7, 8, 9, 16, 33] {
                let b = rhs(n, nrhs, None);
                for (refine, residual) in [(0, false), (0, true), (1, false), (2, false)] {
                    let mut opts = SolveOpts::new().refine(refine).residual(residual);
                    if equilibrate {
                        opts = opts.equilibrate(d.clone());
                    }
                    let seq = opts.clone().engine(SolveEngine::Sequential);
                    let before = solve_flops(&chol);
                    let want = chol.solve_with(RhsBlock::new(&b, nrhs), &seq).unwrap();
                    let want = (want, solve_flops(&chol) - before);
                    for groups in [1, 2, 3, 5] {
                        let label = format!(
                            "equilibrate={equilibrate} nrhs={nrhs} refine={refine} \
                             residual={residual} groups={groups}"
                        );
                        assert_bitwise(&run(&chol, &b, nrhs, &opts, groups), &want, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_zero_column_drops_out_after_the_first_residual() {
        // Column 5 is all zero: its first residual is exactly zero, so it
        // drops out before any correction sweep. With no other column
        // converging exactly, two steps over 9 columns run 9 + 8 + 8 sweep
        // columns and 9 + 8 + 9 spmv columns (the final residual covers
        // every column).
        let a = gen::laplace2d(14, 12, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::new()).unwrap();
        let b = rhs(n, 9, Some(5));
        let opts = SolveOpts::new().refine(2);
        let want = run(&chol, &b, 9, &opts, 1);
        let sweep = 4.0 * chol.factor_nnz() as f64;
        let spmv = 4.0 * chol.permuted_matrix().nnz() as f64;
        assert_eq!(want.1, 25.0 * sweep + 26.0 * spmv);
        for groups in [2, 3, 5] {
            let got = run(&chol, &b, 9, &opts, groups);
            assert_bitwise(&got, &want, &format!("groups={groups}"));
            assert!(got.0.x[5 * n..6 * n].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn lane_groups_refine_the_smp_base_solve_bitwise() {
        let a = gen::laplace3d(6, 5, 5, gen::Stencil3d::SevenPoint);
        let n = a.nrows();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::new()).unwrap();
        let smp = SolveOpts::new().engine(SolveEngine::Smp { threads: 2 });
        for nrhs in [1usize, 9, 16] {
            let b = rhs(n, nrhs, Some(nrhs / 2));
            for refine in [0, 1, 2] {
                let opts = smp.clone().refine(refine);
                let want = run(&chol, &b, nrhs, &opts, 1);
                for groups in [2, 3] {
                    let label = format!("nrhs={nrhs} refine={refine} groups={groups}");
                    assert_bitwise(&run(&chol, &b, nrhs, &opts, groups), &want, &label);
                }
            }
        }
    }
}
