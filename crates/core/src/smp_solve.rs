//! Shared-memory parallel triangular solves: the solve phase parallelized
//! over the assembly tree with real threads, mirroring the factorization's
//! tree parallelism.
//!
//! The forward sweep runs leaves-to-roots (a supernode is ready when its
//! children finished; its contribution block travels to the parent like an
//! update matrix), the backward sweep roots-to-leaves (a supernode is
//! ready when its parent finished and has published the x values at the
//! child's below-pivot rows). Both sweeps therefore expose exactly the
//! tree parallelism of the factorization — and inherit its limitation, the
//! serial top of the tree, which is why parallel solves gain less than
//! factorizations (cf. EXP-F4 on the distributed engine).
//!
//! All right-hand sides move as one `n x nrhs` column-major block: each
//! supernode panel is loaded once and applied to every column through the
//! batched `dense::solve` kernels, so the parallel solve keeps the BLAS-3
//! shape of the sequential blocked sweep.

use crate::backoff::Backoff;
use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::smp::resolve_threads;
use crossbeam_deque::{Injector, Steal};
use parfact_dense::solve as dsolve;
use parfact_symbolic::NONE;
use parfact_trace::{Collector, Phase, TraceLevel};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Solve `A x = b` with tree-parallel sweeps on `threads` OS threads
/// (0 = available parallelism). Results match [`Factor::solve`] to
/// floating-point roundoff (the parent-side accumulation order of child
/// contributions differs from the sequential sweep's global-vector order).
///
/// **Panics** if `b.len() != n`; use [`solve_smp_many`] for the checked
/// multi-RHS variant.
pub fn solve_smp(factor: &Factor, b: &[f64], threads: usize) -> Vec<f64> {
    solve_smp_many(factor, b, 1, threads).expect("solve_smp")
}

/// Multi-RHS tree-parallel solve: `b` is `n x nrhs` column-major.
/// Checked — a wrong `b.len()` returns [`FactorError::DimensionMismatch`].
pub fn solve_smp_many(
    factor: &Factor,
    b: &[f64],
    nrhs: usize,
    threads: usize,
) -> Result<Vec<f64>, FactorError> {
    let sym = &factor.sym;
    let n = sym.n;
    if b.len() != n * nrhs {
        return Err(FactorError::DimensionMismatch {
            expected: n * nrhs,
            got: b.len(),
        });
    }
    let mut x = vec![0.0f64; n * nrhs];
    factor.perm.gather_block(b, &mut x);
    let off = Collector::new(TraceLevel::Off);
    solve_smp_permuted_in_place(factor, &mut x, nrhs, threads, &off);
    let mut out = vec![0.0f64; n * nrhs];
    factor.perm.scatter_block(&x, &mut out);
    Ok(out)
}

/// The tree-parallel sweeps in the permuted index space, in place: `x`
/// holds the permuted `n x nrhs` right-hand-side block on entry and the
/// permuted solution on return. With one thread (or one supernode) this
/// is literally [`Factor::solve_many_permuted_in_place`]. Per-worker
/// `Phase::Solve` spans (one per supernode per sweep) land in `tr` when
/// its level records spans, giving the timeline per-worker solve lanes.
pub(crate) fn solve_smp_permuted_in_place(
    factor: &Factor,
    x: &mut [f64],
    nrhs: usize,
    threads: usize,
    tr: &Collector,
) {
    let sym = &factor.sym;
    let n = sym.n;
    let nthreads = resolve_threads(threads);
    if nthreads <= 1 || sym.nsuper() <= 1 || nrhs == 0 {
        factor.solve_many_permuted_in_place(x, nrhs);
        return;
    }
    let unit = factor.kind == FactorKind::Ldlt;
    let nsuper = sym.nsuper();

    // ---- Forward sweep (leaves to roots). ----
    // Per-supernode pivot solution block (w x nrhs) and upward
    // contribution block ((f - w) x nrhs), both column-major.
    let xseg: Vec<Mutex<Vec<f64>>> = (0..nsuper).map(|_| Mutex::new(Vec::new())).collect();
    let contrib: Vec<Mutex<Vec<f64>>> = (0..nsuper).map(|_| Mutex::new(Vec::new())).collect();
    {
        let pending: Vec<AtomicUsize> = (0..nsuper)
            .map(|s| AtomicUsize::new(sym.tree.children[s].len()))
            .collect();
        let done = AtomicUsize::new(0);
        let injector = Injector::new();
        for s in 0..nsuper {
            if sym.tree.children[s].is_empty() {
                injector.push(s);
            }
        }
        std::thread::scope(|scope| {
            for wid in 0..nthreads {
                let (pending, done, injector) = (&pending, &done, &injector);
                let (xseg, contrib, bp) = (&xseg, &contrib, &*x);
                scope.spawn(move || {
                    let mut rec = tr.local(wid);
                    let mut backoff = Backoff::new();
                    loop {
                        if done.load(Ordering::Relaxed) >= nsuper {
                            break;
                        }
                        let s = match injector.steal() {
                            Steal::Success(s) => s,
                            Steal::Retry => continue,
                            Steal::Empty => {
                                backoff.snooze();
                                continue;
                            }
                        };
                        backoff.reset();
                        let tick = rec.start();
                        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
                        let w = c1 - c0;
                        let f = sym.front_order(s);
                        let m = f - w;
                        let blk = factor.panel(s);
                        // RHS front: pivot block + below-rows block.
                        let mut ypiv = vec![0.0f64; w * nrhs];
                        let mut ybelow = vec![0.0f64; m * nrhs];
                        for r in 0..nrhs {
                            ypiv[r * w..(r + 1) * w].copy_from_slice(&bp[r * n + c0..r * n + c1]);
                        }
                        for &c in &sym.tree.children[s] {
                            let cv = contrib[c].lock();
                            let mc = sym.sn_rows[c].len();
                            for (k, &r_row) in sym.sn_rows[c].iter().enumerate() {
                                let pos = if r_row < c1 {
                                    r_row - c0
                                } else {
                                    w + sym.sn_rows[s].binary_search(&r_row).expect("containment")
                                };
                                for r in 0..nrhs {
                                    if pos < w {
                                        ypiv[r * w + pos] += cv[r * mc + k];
                                    } else {
                                        ybelow[r * m + (pos - w)] += cv[r * mc + k];
                                    }
                                }
                            }
                        }
                        dsolve::trsm_ln(w, nrhs, blk, f, &mut ypiv, w, unit);
                        if m > 0 {
                            dsolve::gemm_block_sub(
                                m,
                                w,
                                nrhs,
                                &blk[w..],
                                f,
                                &ypiv,
                                w,
                                &mut ybelow,
                                m,
                            );
                        }
                        *contrib[s].lock() = ybelow;
                        *xseg[s].lock() = ypiv;
                        rec.stop(tick, Phase::Solve, Some(s));
                        done.fetch_add(1, Ordering::SeqCst);
                        let p = sym.tree.parent[s];
                        if p != NONE && pending[p].fetch_sub(1, Ordering::SeqCst) == 1 {
                            injector.push(p);
                        }
                    }
                });
            }
        });
    }
    // The right-hand side is consumed: the pivot segments overwrite it.
    for s in 0..nsuper {
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let w = c1 - c0;
        let seg = xseg[s].lock();
        for r in 0..nrhs {
            x[r * n + c0..r * n + c1].copy_from_slice(&seg[r * w..(r + 1) * w]);
        }
    }
    if unit {
        for r in 0..nrhs {
            let xr = &mut x[r * n..(r + 1) * n];
            for (xi, &di) in xr.iter_mut().zip(&factor.d) {
                *xi /= di;
            }
        }
    }

    // ---- Backward sweep (roots to leaves). ----
    // Each finished supernode publishes its final x block; a child reads
    // the x values at its own below rows from ancestors' published
    // blocks. Publish order guarantees parents complete first.
    {
        let xcell: Vec<Mutex<Vec<f64>>> = (0..nsuper).map(|_| Mutex::new(Vec::new())).collect();
        let xrows_of: Vec<Mutex<Vec<f64>>> = (0..nsuper).map(|_| Mutex::new(Vec::new())).collect();
        let done = AtomicUsize::new(0);
        let injector = Injector::new();
        for &r in &sym.tree.roots {
            injector.push(r);
        }
        std::thread::scope(|scope| {
            for wid in 0..nthreads {
                let (done, injector) = (&done, &injector);
                let (xcell, xrows_of, x) = (&xcell, &xrows_of, &*x);
                scope.spawn(move || {
                    let mut rec = tr.local(wid);
                    let mut backoff = Backoff::new();
                    loop {
                        if done.load(Ordering::Relaxed) >= nsuper {
                            break;
                        }
                        let s = match injector.steal() {
                            Steal::Success(s) => s,
                            Steal::Retry => continue,
                            Steal::Empty => {
                                backoff.snooze();
                                continue;
                            }
                        };
                        backoff.reset();
                        let tick = rec.start();
                        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
                        let w = c1 - c0;
                        let f = sym.front_order(s);
                        let m = f - w;
                        let blk = factor.panel(s);
                        let xrows = xrows_of[s].lock().clone();
                        let mut xs = vec![0.0f64; w * nrhs];
                        for r in 0..nrhs {
                            xs[r * w..(r + 1) * w].copy_from_slice(&x[r * n + c0..r * n + c1]);
                        }
                        if m > 0 {
                            dsolve::gemm_block_t_sub(
                                m,
                                w,
                                nrhs,
                                &blk[w..],
                                f,
                                &xrows,
                                m,
                                &mut xs,
                                w,
                            );
                        }
                        dsolve::trsm_lt(w, nrhs, blk, f, &mut xs, w, unit);
                        // Publish, then release children: each child's xrows are
                        // a subset of (my cols ∪ my xrows).
                        for &c in &sym.tree.children[s] {
                            let mc = sym.sn_rows[c].len();
                            let mut vals = vec![0.0f64; mc * nrhs];
                            for (k, &r_row) in sym.sn_rows[c].iter().enumerate() {
                                if r_row < c1 {
                                    for r in 0..nrhs {
                                        vals[r * mc + k] = xs[r * w + (r_row - c0)];
                                    }
                                } else {
                                    let k2 =
                                        sym.sn_rows[s].binary_search(&r_row).expect("containment");
                                    for r in 0..nrhs {
                                        vals[r * mc + k] = xrows[r * m + k2];
                                    }
                                }
                            }
                            *xrows_of[c].lock() = vals;
                            injector.push(c);
                        }
                        *xcell[s].lock() = xs;
                        rec.stop(tick, Phase::Solve, Some(s));
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        for s in 0..nsuper {
            let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
            let w = c1 - c0;
            let cell = xcell[s].lock();
            for r in 0..nrhs {
                x[r * n + c0..r * n + c1].copy_from_slice(&cell[r * w..(r + 1) * w]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{FactorOpts, SparseCholesky};
    use parfact_sparse::{gen, ops};

    fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs() / y.abs().max(1.0)))
    }

    #[test]
    fn smp_solve_matches_sequential_solve() {
        for a in [
            gen::laplace2d(17, 15, gen::Stencil2d::FivePoint),
            gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint),
            gen::elasticity3d(4, 3, 3),
        ] {
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
            let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
            let x_seq = chol.solve(&b);
            let x_par = solve_smp(chol.factor(), &b, 4);
            assert!(
                max_rel_diff(&x_par, &x_seq) < 1e-12,
                "parallel solve diverged"
            );
            assert!(ops::sym_residual_inf(&a, &x_par, &b) < 1e-12);
        }
    }

    #[test]
    fn smp_solve_many_matches_per_column_smp_solve_bitwise() {
        // The block sweep must be bitwise equal to running each column
        // through the single-RHS parallel path: the kernels promise
        // per-column op order independent of nrhs, and the tree schedule
        // does not affect any column's arithmetic.
        let a = gen::laplace3d(5, 5, 5, gen::Stencil3d::SevenPoint);
        let n = a.nrows();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        for nrhs in [1usize, 2, 7] {
            let b: Vec<f64> = (0..n * nrhs)
                .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
                .collect();
            let xblk = solve_smp_many(chol.factor(), &b, nrhs, 4).unwrap();
            for r in 0..nrhs {
                let xcol = solve_smp(chol.factor(), &b[r * n..(r + 1) * n], 4);
                for (bq, cq) in xblk[r * n..(r + 1) * n].iter().zip(&xcol) {
                    assert_eq!(bq.to_bits(), cq.to_bits(), "nrhs={nrhs} col={r}");
                }
            }
        }
    }

    #[test]
    fn smp_solve_ldlt() {
        use crate::factor::FactorKind;
        let a = gen::indefinite(80, 9);
        let b: Vec<f64> = (0..80).map(|i| (i % 7) as f64 - 3.0).collect();
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt)).unwrap();
        let x_par = solve_smp(chol.factor(), &b, 3);
        assert!(ops::sym_residual_inf(&a, &x_par, &b) < 1e-10);
    }

    #[test]
    fn single_thread_falls_back() {
        let a = gen::tridiagonal(30);
        let b = vec![1.0; 30];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x1 = solve_smp(chol.factor(), &b, 1);
        let x2 = chol.solve(&b);
        assert_eq!(x1, x2); // fallback is literally the sequential path
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let a = gen::tridiagonal(12);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let bad = vec![1.0; 11];
        assert!(matches!(
            solve_smp_many(chol.factor(), &bad, 1, 4),
            Err(FactorError::DimensionMismatch {
                expected: 12,
                got: 11
            })
        ));
    }

    #[test]
    fn forest_handled() {
        // Disconnected blocks: multiple roots in both sweeps.
        let mut coo = parfact_sparse::coo::CooMatrix::new(20, 20);
        for b in 0..2 {
            let base = b * 10;
            for i in 0..10 {
                coo.push(base + i, base + i, 3.0);
                if i + 1 < 10 {
                    coo.push(base + i + 1, base + i, -1.0);
                }
            }
        }
        let a = coo.to_csc();
        let b = vec![2.0; 20];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x = solve_smp(chol.factor(), &b, 4);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-13);
    }
}
