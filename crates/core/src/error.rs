//! Error taxonomy of the numeric factorization.

use parfact_dense::DenseError;
use parfact_sparse::SparseError;
use std::fmt;

/// Failure modes of `factorize`/`solve`.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A Cholesky pivot was non-positive: the matrix is not positive
    /// definite. `col` is the column in the *permuted* ordering; use LDLᵀ
    /// for symmetric indefinite systems.
    NotPositiveDefinite { col: usize, value: f64 },
    /// An LDLᵀ pivot vanished (matrix numerically singular on its diagonal).
    ZeroPivot { col: usize },
    /// The input matrix violates the symmetric-lower storage convention.
    BadStructure(SparseError),
    /// The requested engine/option combination is not implemented (e.g.
    /// LDLᵀ on the distributed engine).
    Unsupported(String),
    /// A solve was handed a right-hand-side buffer whose length does not
    /// match the factored system (`expected = n * nrhs`). The checked solve
    /// API returns this; the legacy `solve` shims panic.
    DimensionMismatch { expected: usize, got: usize },
    /// An engine invariant broke (e.g. the distributed gather produced no
    /// factor on the root rank). Always a bug, never a property of the
    /// input — reported as an error instead of a panic so a long-running
    /// host survives it.
    Internal(&'static str),
    /// One or more simulated ranks died under an injected fault plan and
    /// the run could not (or was not allowed to) recover. `detail` carries
    /// the per-rank diagnostics from the machine verdict.
    RankFailed {
        /// Crashed ranks, ascending.
        ranks: Vec<usize>,
        /// Per-rank diagnostic text.
        detail: String,
    },
    /// A simulated rank's blocking receive exceeded the machine-wide
    /// receive deadline (a lost or delayed message), and restarts were
    /// exhausted. Coordinates identify the unmatched `(src, tag)` receive.
    TimedOut {
        /// The rank whose receive timed out.
        rank: usize,
        /// Source rank it was matching.
        src: usize,
        /// Message tag it was matching.
        tag: u64,
        /// Virtual seconds it waited before giving up.
        waited_s: f64,
    },
    /// The simulated machine deadlocked: every rank finished or blocked
    /// with no matching message in flight and no crashed rank to blame.
    /// Under the shipped schedules this indicates an engine bug; it is
    /// typed (rather than folded into [`FactorError::Internal`]) so fault
    /// drills can distinguish it from injected failures.
    Deadlock {
        /// Per-rank diagnostic text.
        detail: String,
    },
}

impl FactorError {
    /// Lift a dense-kernel error of a front into matrix coordinates.
    pub fn from_dense(e: DenseError, col_base: usize) -> Self {
        match e {
            DenseError::NotPositiveDefinite { index, value } => FactorError::NotPositiveDefinite {
                col: col_base + index,
                value,
            },
            DenseError::ZeroPivot { index } => FactorError::ZeroPivot {
                col: col_base + index,
            },
        }
    }
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { col, value } => write!(
                f,
                "matrix is not positive definite (pivot {col} = {value:e}); try LDLt"
            ),
            FactorError::ZeroPivot { col } => write!(f, "zero pivot at column {col}"),
            FactorError::BadStructure(e) => write!(f, "bad matrix structure: {e}"),
            FactorError::Unsupported(what) => write!(f, "unsupported: {what}"),
            FactorError::DimensionMismatch { expected, got } => write!(
                f,
                "right-hand-side length mismatch: expected {expected} values, got {got}"
            ),
            FactorError::Internal(what) => write!(f, "internal engine invariant broke: {what}"),
            FactorError::RankFailed { ranks, detail } => {
                write!(f, "simulated rank failure (ranks {ranks:?}): {detail}")
            }
            FactorError::TimedOut {
                rank,
                src,
                tag,
                waited_s,
            } => write!(
                f,
                "rank {rank} timed out waiting {waited_s:.6}s for a message from rank {src} (tag {tag})"
            ),
            FactorError::Deadlock { detail } => write!(f, "simulated machine deadlock: {detail}"),
        }
    }
}

impl std::error::Error for FactorError {}

impl From<SparseError> for FactorError {
    fn from(e: SparseError) -> Self {
        FactorError::BadStructure(e)
    }
}
