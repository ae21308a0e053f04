//! Blocked iterative refinement in `solve_with` against the per-column
//! loop it replaced, rebuilt here from public parts: the base solve, then
//! per column `ops::sym_residual`, a one-column correction sweep and `+=`.
//! The solution and the reported residual must agree bit for bit, and the
//! solve report must charge exactly the sweeps and spmvs that loop runs.

use parfact_core::analysis;
use parfact_core::solver::{FactorOpts, RhsBlock, SolveEngine, SolveOpts, SparseCholesky};
use parfact_sparse::{gen, ops};

/// What the per-column loop returns, plus the flops it performs.
struct Reference {
    x: Vec<f64>,
    residual: Option<f64>,
    flops: f64,
}

fn per_column(chol: &SparseCholesky, b: &[f64], nrhs: usize, opts: &SolveOpts) -> Reference {
    let f = chol.factor();
    let ap = chol.permuted_matrix();
    let (n, perm) = (f.sym.n, &f.perm);
    let mut bs = b.to_vec();
    if let Some(d) = &opts.scale {
        for col in bs.chunks_mut(n) {
            for (v, &di) in col.iter_mut().zip(d) {
                *v *= di;
            }
        }
    }
    let mut x = f.try_solve_many(&bs, nrhs).unwrap();
    let (mut sweeps, mut spmvs) = (nrhs, 0);
    let mut residual = None;
    if opts.refine > 0 || opts.residual {
        let mut worst = 0.0f64;
        for col in 0..nrhs {
            let bp = perm.apply_vec(&bs[col * n..(col + 1) * n]);
            let mut xp = perm.apply_vec(&x[col * n..(col + 1) * n]);
            for _ in 0..opts.refine {
                let mut rp = ops::sym_residual(ap, &xp, &bp);
                spmvs += 1;
                if ops::norm_inf(&rp) == 0.0 {
                    break;
                }
                f.solve_many_permuted_in_place(&mut rp, 1);
                sweeps += 1;
                for (xi, di) in xp.iter_mut().zip(&rp) {
                    *xi += di;
                }
            }
            let rp = ops::sym_residual(ap, &xp, &bp);
            spmvs += 1;
            let col_worst = match &opts.scale {
                Some(d) => rp
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| (v / d[perm.old_of_new(k)]).abs())
                    .fold(0.0f64, f64::max),
                None => ops::norm_inf(&rp),
            };
            worst = worst.max(col_worst);
            if opts.refine > 0 {
                x[col * n..(col + 1) * n].copy_from_slice(&perm.apply_inv_vec(&xp));
            }
        }
        residual = Some(worst);
    }
    if let Some(d) = &opts.scale {
        for col in x.chunks_mut(n) {
            for (v, &di) in col.iter_mut().zip(d) {
                *v *= di;
            }
        }
    }
    let flops = 4.0 * (f.nnz() * sweeps + ap.nnz() * spmvs) as f64;
    Reference { x, residual, flops }
}

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

/// Solve through `solve_with` and through the per-column loop; demand
/// bitwise-equal answers and exactly the reference's flop count.
fn check(chol: &SparseCholesky, b: &[f64], nrhs: usize, opts: &SolveOpts, label: &str) -> Vec<f64> {
    let want = per_column(chol, b, nrhs, opts);
    let before = solve_flops(chol);
    let got = chol.solve_with(RhsBlock::new(b, nrhs), opts).unwrap();
    assert_eq!(got.x.len(), want.x.len(), "{label}");
    for (i, (g, w)) in got.x.iter().zip(&want.x).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: x[{i}] {g} vs {w}");
    }
    assert_eq!(
        got.residual.map(f64::to_bits),
        want.residual.map(f64::to_bits),
        "{label}: residual {:?} vs {:?}",
        got.residual,
        want.residual
    );
    assert_eq!(solve_flops(chol) - before, want.flops, "{label}: flops");
    got.x
}

#[test]
fn blocked_refinement_is_bitwise_the_per_column_loop() {
    let a = gen::random_spd(160, 6, 11);
    let n = a.nrows();
    let (d, scaled) = analysis::equilibrate(&a);
    for equilibrate in [false, true] {
        let m = if equilibrate { &scaled } else { &a };
        let chol = SparseCholesky::factorize(m, &FactorOpts::new()).unwrap();
        for engine in [SolveEngine::Auto, SolveEngine::Smp { threads: 2 }] {
            for nrhs in [1usize, 3, 16] {
                let b = rhs(n, nrhs, None);
                for (refine, residual) in [(0, false), (0, true), (1, false), (2, false)] {
                    let mut opts = SolveOpts::new()
                        .refine(refine)
                        .residual(residual)
                        .engine(engine);
                    if equilibrate {
                        opts = opts.equilibrate(d.clone());
                    }
                    let label = format!(
                        "equilibrate={equilibrate} {engine:?} nrhs={nrhs} refine={refine} \
                         residual={residual}"
                    );
                    check(&chol, &b, nrhs, &opts, &label);
                }
            }
        }
    }
}

#[test]
fn zero_column_drops_out_after_the_first_residual() {
    // The reference loop breaks on the zero column's first residual, so
    // the flop check in `check` pins that the blocked loop drops it then:
    // one base sweep and two spmvs (first and final residual), no
    // correction sweep.
    let a = gen::laplace2d(14, 12, gen::Stencil2d::FivePoint);
    let n = a.nrows();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::new()).unwrap();
    let b = rhs(n, 3, Some(1));
    for engine in [SolveEngine::Auto, SolveEngine::Smp { threads: 2 }] {
        for refine in [1, 2] {
            let opts = SolveOpts::new().refine(refine).engine(engine);
            let x = check(&chol, &b, 3, &opts, &format!("{engine:?} refine={refine}"));
            assert!(x[n..2 * n].iter().all(|&v| v == 0.0));
        }
    }
}
