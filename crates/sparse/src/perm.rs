//! Permutations and symmetric permutation `P A Pᵀ`.

use crate::csc::CscMatrix;
use rand::Rng;

/// A permutation of `0..n`.
///
/// Convention: `perm[new] = old` — position `new` of the reordered system is
/// occupied by original index `old`. Equivalently, with permutation matrix
/// `P` defined by `(P x)[new] = x[perm[new]]`, applying this permutation to a
/// matrix produces `P A Pᵀ`. The inverse mapping (`old → new`) is available
/// via [`Perm::inv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perm {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Perm {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Perm {
            perm: (0..n).collect(),
            inv: (0..n).collect(),
        }
    }

    /// Build from a `new → old` vector. Panics if it is not a permutation.
    pub fn from_vec(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < n, "index {old} out of range for permutation of {n}");
            assert!(
                inv[old] == usize::MAX,
                "duplicate index {old} in permutation"
            );
            inv[old] = new;
        }
        Perm { perm, inv }
    }

    /// A uniformly random permutation (Fisher–Yates).
    pub fn random<R: Rng>(n: usize, rng: &mut R) -> Self {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            p.swap(i, j);
        }
        Perm::from_vec(p)
    }

    /// Size of the permuted set.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The `new → old` map.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The `old → new` map.
    pub fn inv(&self) -> &[usize] {
        &self.inv
    }

    /// Original index occupying position `new`.
    pub fn old_of_new(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// Position that original index `old` moved to.
    pub fn new_of_old(&self, old: usize) -> usize {
        self.inv[old]
    }

    /// The inverse permutation as a standalone `Perm`.
    pub fn inverse(&self) -> Perm {
        Perm {
            perm: self.inv.clone(),
            inv: self.perm.clone(),
        }
    }

    /// Composition: apply `self` after `other` (`result.old_of_new(i) =
    /// other.old_of_new(self.old_of_new(i))`).
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(self.len(), other.len());
        let perm: Vec<usize> = (0..self.len())
            .map(|i| other.old_of_new(self.old_of_new(i)))
            .collect();
        Perm::from_vec(perm)
    }

    /// Permute a vector: `out[new] = x[old_of_new(new)]`.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        self.gather_block(x, &mut out);
        out
    }

    /// Un-permute a vector: `out[old] = x[new_of_old(old)]`.
    pub fn apply_inv_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        self.scatter_block(x, &mut out);
        out
    }

    /// Permute every column of a column-major `n x k` block into `out`
    /// (same shape): `out[c*n + new] = src[c*n + old_of_new(new)]`.
    pub fn gather_block(&self, src: &[f64], out: &mut [f64]) {
        let n = self.block_rows(src, out);
        for (s, o) in src.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            for (v, &old) in o.iter_mut().zip(&self.perm) {
                *v = s[old];
            }
        }
    }

    /// Inverse of [`Perm::gather_block`]:
    /// `out[c*n + old_of_new(new)] = src[c*n + new]`.
    pub fn scatter_block(&self, src: &[f64], out: &mut [f64]) {
        let n = self.block_rows(src, out);
        for (s, o) in src.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            for (&v, &old) in s.iter().zip(&self.perm) {
                o[old] = v;
            }
        }
    }

    /// Row count of the block pair `(src, out)`, checked against this
    /// permutation (at least 1, so it can size `chunks_exact`).
    fn block_rows(&self, src: &[f64], out: &[f64]) -> usize {
        let n = self.len();
        assert_eq!(src.len(), out.len(), "block shapes differ");
        assert!(
            src.len().is_multiple_of(n),
            "block rows must match the permutation"
        );
        n.max(1)
    }

    /// Symmetric permutation of a **symmetric-lower** CSC matrix: returns the
    /// lower triangle of `P A Pᵀ`, again in sorted CSC form.
    ///
    /// Entry `(i, j)` of `A` (with `i >= j`) moves to `(i', j')` where
    /// `i' = new_of_old(i)`, `j' = new_of_old(j)`; it is stored at
    /// `(max(i', j'), min(i', j'))` to stay in the lower triangle.
    pub fn apply_sym_lower(&self, a: &CscMatrix) -> CscMatrix {
        assert_eq!(a.nrows(), a.ncols());
        assert_eq!(a.ncols(), self.len());
        let n = self.len();
        // Count entries per new column.
        let mut count = vec![0usize; n];
        for c in 0..n {
            let (rows, _) = a.col(c);
            for &r in rows {
                let (ri, ci) = (self.inv[r], self.inv[c]);
                let nc = ri.min(ci);
                count[nc] += 1;
            }
        }
        let mut colptr = vec![0usize; n + 1];
        for c in 0..n {
            colptr[c + 1] = colptr[c] + count[c];
        }
        let nnz = colptr[n];
        let mut rowind = vec![0usize; nnz];
        let mut vals = vec![0f64; nnz];
        let mut next = colptr.clone();
        for c in 0..n {
            let (rows, v) = a.col(c);
            for (&r, &x) in rows.iter().zip(v) {
                let (ri, ci) = (self.inv[r], self.inv[c]);
                let (nr, nc) = if ri >= ci { (ri, ci) } else { (ci, ri) };
                let slot = next[nc];
                rowind[slot] = nr;
                vals[slot] = x;
                next[nc] += 1;
            }
        }
        // Sort rows within each column, reusing one scratch buffer across
        // all columns so repeated permutation (e.g. every `refactorize`)
        // does not allocate per column.
        let mut pairs: Vec<(usize, f64)> = Vec::new();
        for c in 0..n {
            let (lo, hi) = (colptr[c], colptr[c + 1]);
            pairs.clear();
            pairs.extend(
                rowind[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            pairs.sort_unstable_by_key(|&(r, _)| r);
            for (k, &(r, x)) in pairs.iter().enumerate() {
                rowind[lo + k] = r;
                vals[lo + k] = x;
            }
        }
        CscMatrix::from_parts(n, n, colptr, rowind, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_noop() {
        let p = Perm::identity(4);
        let x = vec![3.0, 1.0, 4.0, 1.0];
        assert_eq!(p.apply_vec(&x), x);
        assert_eq!(p.apply_inv_vec(&x), x);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn from_vec_rejects_duplicates() {
        Perm::from_vec(vec![0, 0, 1]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Perm::random(10, &mut rng);
        let id = p.compose(&p.inverse());
        assert_eq!(id, Perm::identity(10));
    }

    #[test]
    fn apply_then_apply_inv_roundtrips() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Perm::random(8, &mut rng);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(p.apply_inv_vec(&p.apply_vec(&x)), x);
    }

    #[test]
    fn block_gather_scatter_match_per_column_apply() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Perm::random(7, &mut rng);
        let src: Vec<f64> = (0..21).map(|i| i as f64).collect();
        let mut fwd = vec![0.0; 21];
        p.gather_block(&src, &mut fwd);
        let mut back = vec![0.0; 21];
        p.scatter_block(&fwd, &mut back);
        assert_eq!(back, src);
        for c in 0..3 {
            let col = &src[c * 7..(c + 1) * 7];
            assert_eq!(fwd[c * 7..(c + 1) * 7], p.apply_vec(col)[..]);
        }
    }

    #[test]
    fn sym_permutation_matches_dense() {
        // Dense check: P A P^T in dense arithmetic vs apply_sym_lower.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        // Random symmetric matrix with full diagonal.
        for i in 0..n {
            coo.push(i, i, 10.0 + i as f64);
            for j in 0..i {
                if rand::Rng::gen_bool(&mut rng, 0.5) {
                    coo.push(i, j, (i * n + j) as f64);
                }
            }
        }
        let a = coo.to_csc();
        let p = Perm::random(n, &mut rng);
        let pa = p.apply_sym_lower(&a);
        pa.check_sym_lower().unwrap();

        let full = a.sym_to_full().to_dense_colmajor();
        let pfull = pa.sym_to_full().to_dense_colmajor();
        for newc in 0..n {
            for newr in 0..n {
                let (oldr, oldc) = (p.old_of_new(newr), p.old_of_new(newc));
                assert_eq!(pfull[newc * n + newr], full[oldc * n + oldr]);
            }
        }
    }

    #[test]
    fn random_perm_is_valid_and_seeded() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let p1 = Perm::random(100, &mut r1);
        let p2 = Perm::random(100, &mut r2);
        assert_eq!(p1, p2);
        let mut seen = [false; 100];
        for &i in p1.perm() {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }
}
