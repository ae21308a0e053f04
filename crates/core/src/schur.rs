//! Schur complements: eliminate an "interior" variable set and return the
//! dense reduced operator on the remaining "interface" — the substructuring
//! primitive of domain-decomposition workflows, where the multifrontal
//! solver factors each subdomain and the interface problem is handed to a
//! coarse solver.
//!
//! Implementation: the interior principal submatrix `A_II` is factored with
//! the ordinary multifrontal pipeline, and
//! `S = A_GG − A_GI · A_II⁻¹ · A_IG` is formed with blocked multi-RHS
//! solves. (A stop-at-the-boundary multifrontal variant would save the
//! explicit solves but constrains the ordering machinery; this formulation
//! reuses the production factorization unchanged and is exact.)

use crate::error::FactorError;
use crate::solver::{FactorOpts, SparseCholesky};
use parfact_dense::DMat;
use parfact_sparse::csc::CscMatrix;

/// The result of a Schur-complement reduction.
pub struct Schur {
    /// Dense Schur complement on the interface variables, in the order the
    /// caller listed them (full symmetric storage).
    pub s: DMat,
    /// Factorization of the interior block (reusable for back-substitution
    /// of interior values once interface values are known).
    pub interior: SparseCholesky,
    /// `interface[k]` = original index of interface variable `k`.
    pub interface: Vec<usize>,
    /// `interior_of[v]` = position of original index `v` inside the
    /// interior block, or `usize::MAX` if `v` is an interface variable.
    pub interior_of: Vec<usize>,
    /// Couplings `A_IG` as dense interior x interface columns (kept for
    /// the back-substitution step).
    aig: Vec<f64>,
}

/// Compute the Schur complement of `a` (symmetric-lower CSC) with respect
/// to the given interface set. `interface` must contain unique, in-range
/// indices; everything else is interior.
pub fn schur_complement(
    a: &CscMatrix,
    interface: &[usize],
    opts: &FactorOpts,
) -> Result<Schur, FactorError> {
    a.check_sym_lower()?;
    let n = a.ncols();
    let k = interface.len();
    let mut is_interface = vec![false; n];
    for &g in interface {
        assert!(g < n, "interface index {g} out of range");
        assert!(!is_interface[g], "duplicate interface index {g}");
        is_interface[g] = true;
    }
    let n_i = n - k;
    // Position maps.
    let mut interior_of = vec![usize::MAX; n];
    let mut interface_of = vec![usize::MAX; n];
    {
        let mut next = 0usize;
        for v in 0..n {
            if !is_interface[v] {
                interior_of[v] = next;
                next += 1;
            }
        }
        for (kk, &g) in interface.iter().enumerate() {
            interface_of[g] = kk;
        }
    }

    // Split A into A_II (lower CSC), A_GI (dense interior x interface
    // "coupling" columns), and A_GG (dense interface block).
    let mut coo_ii = parfact_sparse::coo::CooMatrix::new(n_i, n_i);
    let mut aig = vec![0.0f64; n_i * k];
    let mut agg = DMat::zeros(k, k);
    for c in 0..n {
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            match (is_interface[r], is_interface[c]) {
                (false, false) => {
                    let (ri, ci) = (interior_of[r], interior_of[c]);
                    coo_ii.push(ri.max(ci), ri.min(ci), v);
                }
                (true, false) => {
                    aig[interface_of[r] * n_i + interior_of[c]] += v;
                }
                (false, true) => {
                    aig[interface_of[c] * n_i + interior_of[r]] += v;
                }
                (true, true) => {
                    let (rg, cg) = (interface_of[r], interface_of[c]);
                    agg[(rg, cg)] += v;
                    if rg != cg {
                        agg[(cg, rg)] += v;
                    }
                }
            }
        }
    }
    let a_ii = coo_ii.to_csc();
    let interior = SparseCholesky::factorize(&a_ii, opts)?;

    // Y = A_II^{-1} A_IG, blocked over all interface columns at once.
    let y = interior.factor().try_solve_many(&aig, k)?;

    // S = A_GG - A_GI * Y  (A_GI = A_IG^T).
    let mut s = agg;
    for g in 0..k {
        for h in 0..k {
            let mut acc = 0.0;
            let (colg, colh) = (&aig[g * n_i..(g + 1) * n_i], &y[h * n_i..(h + 1) * n_i]);
            for i in 0..n_i {
                acc += colg[i] * colh[i];
            }
            s[(g, h)] -= acc;
        }
    }
    Ok(Schur {
        s,
        interior,
        interface: interface.to_vec(),
        interior_of,
        aig,
    })
}

impl Schur {
    /// Number of interface variables.
    pub fn ninterface(&self) -> usize {
        self.interface.len()
    }

    /// Solve the full system `A x = b` given a solver for the dense Schur
    /// system (the "coarse solve" of a substructuring method):
    ///
    /// 1. `g = b_G − A_GI A_II⁻¹ b_I` (condensation),
    /// 2. `x_G = S⁻¹ g` via the supplied closure,
    /// 3. `x_I = A_II⁻¹ (b_I − A_IG x_G)` (back-substitution).
    pub fn solve_full(
        &self,
        b: &[f64],
        coarse_solve: impl FnOnce(&DMat, &[f64]) -> Vec<f64>,
    ) -> Vec<f64> {
        let n = self.interior_of.len();
        let n_i = n - self.ninterface();
        let k = self.ninterface();
        assert_eq!(b.len(), n);
        // Split b.
        let mut b_i = vec![0.0; n_i];
        let mut b_g = vec![0.0; k];
        for v in 0..n {
            if self.interior_of[v] != usize::MAX {
                b_i[self.interior_of[v]] = b[v];
            }
        }
        for (kk, &g) in self.interface.iter().enumerate() {
            b_g[kk] = b[g];
        }
        // Condense.
        let yi = self.interior.solve(&b_i);
        let mut g_rhs = b_g.clone();
        for g in 0..k {
            let col = &self.aig[g * n_i..(g + 1) * n_i];
            let mut acc = 0.0;
            for i in 0..n_i {
                acc += col[i] * yi[i];
            }
            g_rhs[g] -= acc;
        }
        // Coarse solve.
        let x_g = coarse_solve(&self.s, &g_rhs);
        assert_eq!(x_g.len(), k);
        // Back-substitute.
        let mut rhs_i = b_i;
        for g in 0..k {
            let col = &self.aig[g * n_i..(g + 1) * n_i];
            let xg = x_g[g];
            if xg != 0.0 {
                for i in 0..n_i {
                    rhs_i[i] -= col[i] * xg;
                }
            }
        }
        let x_i = self.interior.solve(&rhs_i);
        // Merge.
        let mut x = vec![0.0; n];
        for v in 0..n {
            if self.interior_of[v] != usize::MAX {
                x[v] = x_i[self.interior_of[v]];
            }
        }
        for (kk, &g) in self.interface.iter().enumerate() {
            x[g] = x_g[kk];
        }
        x
    }
}

/// Dense SPD solve used as the default coarse solver in tests/examples.
pub fn dense_spd_solve(s: &DMat, b: &[f64]) -> Vec<f64> {
    let k = s.nrows();
    let mut l = s.clone();
    parfact_dense::chol::potrf(k, l.as_mut_slice(), k).expect("Schur complement must be SPD");
    let mut x = b.to_vec();
    parfact_dense::trsv::trsv_ln(k, l.as_slice(), k, &mut x, false);
    parfact_dense::trsv::trsv_lt(k, l.as_slice(), k, &mut x, false);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::{gen, ops};

    fn dense_schur_reference(a: &CscMatrix, interface: &[usize]) -> DMat {
        // Brute force on the dense matrix.
        let n = a.ncols();
        let full = a.sym_to_full().to_dense_colmajor();
        let is_g: Vec<bool> = {
            let mut v = vec![false; n];
            for &g in interface {
                v[g] = true;
            }
            v
        };
        let interior: Vec<usize> = (0..n).filter(|&v| !is_g[v]).collect();
        let ni = interior.len();
        let k = interface.len();
        // A_II inverse applied densely via Gaussian elimination (potrf).
        let mut aii = DMat::zeros(ni, ni);
        for (ci, &c) in interior.iter().enumerate() {
            for (ri, &r) in interior.iter().enumerate() {
                aii[(ri, ci)] = full[c * n + r];
            }
        }
        let mut aig = DMat::zeros(ni, k);
        for (cg, &g) in interface.iter().enumerate() {
            for (ri, &r) in interior.iter().enumerate() {
                aig[(ri, cg)] = full[g * n + r];
            }
        }
        let mut s = DMat::zeros(k, k);
        for (cg, &g) in interface.iter().enumerate() {
            for (rg, &r) in interface.iter().enumerate() {
                s[(rg, cg)] = full[g * n + r];
            }
        }
        // Y = A_II^{-1} A_IG by dense Cholesky.
        let mut l = aii.clone();
        parfact_dense::chol::potrf(ni, l.as_mut_slice(), ni).unwrap();
        let mut y = aig.clone();
        for cg in 0..k {
            let col = &mut y.as_mut_slice()[cg * ni..(cg + 1) * ni];
            parfact_dense::trsv::trsv_ln(ni, l.as_slice(), ni, col, false);
            parfact_dense::trsv::trsv_lt(ni, l.as_slice(), ni, col, false);
        }
        for cg in 0..k {
            for rg in 0..k {
                let mut acc = 0.0;
                for i in 0..ni {
                    acc += aig[(i, rg)] * y[(i, cg)];
                }
                s[(rg, cg)] -= acc;
            }
        }
        s
    }

    #[test]
    fn schur_matches_dense_reference() {
        let a = gen::laplace2d(6, 6, gen::Stencil2d::FivePoint);
        // Interface: the middle grid column (x = 3).
        let interface: Vec<usize> = (0..6).map(|y| 3 + 6 * y).collect();
        let sc = schur_complement(&a, &interface, &FactorOpts::default()).unwrap();
        let reference = dense_schur_reference(&a, &interface);
        assert!(
            sc.s.max_abs_diff(&reference) < 1e-10,
            "schur mismatch: {}",
            sc.s.max_abs_diff(&reference)
        );
    }

    #[test]
    fn substructured_solve_matches_direct() {
        let a = gen::laplace2d(10, 8, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let interface: Vec<usize> = (0..8).map(|y| 5 + 10 * y).collect();
        let sc = schur_complement(&a, &interface, &FactorOpts::default()).unwrap();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) / 3.0 - 1.5).collect();
        let mut b = vec![0.0; n];
        a.sym_spmv(&xstar, &mut b);
        let x = sc.solve_full(&b, dense_spd_solve);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-8);
        }
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn schur_of_spd_is_spd() {
        let a = gen::elasticity3d(3, 3, 2);
        let interface: Vec<usize> = (0..a.nrows()).step_by(17).collect();
        let sc = schur_complement(&a, &interface, &FactorOpts::default()).unwrap();
        // SPD check via dense Cholesky of S.
        let k = sc.ninterface();
        let mut l = sc.s.clone();
        parfact_dense::chol::potrf(k, l.as_mut_slice(), k)
            .expect("Schur complement of an SPD matrix is SPD");
    }

    #[test]
    fn empty_interface_degenerates_gracefully() {
        let a = gen::tridiagonal(10);
        let sc = schur_complement(&a, &[], &FactorOpts::default()).unwrap();
        assert_eq!(sc.ninterface(), 0);
        let b = vec![1.0; 10];
        let x = sc.solve_full(&b, |_, _| Vec::new());
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate interface")]
    fn rejects_duplicate_interface() {
        let a = gen::tridiagonal(5);
        let _ = schur_complement(&a, &[1, 1], &FactorOpts::default());
    }
}
