//! The workloads: inputs generated from the seed, their set-up, one timed
//! operation each, and the correctness checks every operation must pass.

use crate::stats::{self, Rng};
use parfact_core::dist::{self, DistOutcome};
use parfact_core::mapping::MapStrategy;
use parfact_core::smp::SmpOpts;
use parfact_core::solver::{Engine, FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact_core::{Factor, FactorError};
use parfact_mpsim::model::CostModel;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_sparse::{gen, io, ops};
use parfact_symbolic::{AmalgOpts, Symbolic};
use std::sync::Arc;

/// Normwise backward error `‖b−Ax‖∞/(‖A‖∞‖x‖∞+‖b‖∞)` every solution
/// column must stay under.
pub const BACKWARD_TOL: f64 = 1e-12;

/// Largest relative ∞-norm gap allowed between the distributed solution
/// and a host solve of the same gathered factor.
pub const DIST_AGREE_TOL: f64 = 1e-10;

/// Least set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-up repeats for at least this share of the measured time.
pub const SETUP_SHARE: f64 = 1.0 / 10.0;

/// `peak_rss_bytes` is read after the warm-up and this many timed
/// operations: a fixed amount of work, whatever the host's speed. (The
/// SMP `refactorize` grows the resident set by 20–25 MB per step on
/// the timestep matrix, so a reading after a timed window would grow with
/// host speed.)
pub const RSS_OPS: usize = 3;

/// Which pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Parse → factorize (sequential) → solve, from Matrix Market text.
    Oneshot,
    /// Refactorize (SMP) → blocked solve with refinement, per time step.
    Timestep,
}

/// A workload: its pipeline and its problem size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Grid side: `grid³` for the 3-D workloads, `grid²` for timestep.
    pub grid: usize,
    /// Right-hand-side columns per solve.
    pub nrhs: usize,
    /// Ranks of the simulated machine behind the modelled metrics.
    pub ranks: usize,
}

/// Threads of the SMP engine and solve: the reference host's `nproc`.
pub const THREADS: usize = 2;

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["oneshot-lap3d32", "timestep-lap2d500"];

impl Spec {
    /// The full-size workload named `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let (name, kind, grid, nrhs) = [
            (NAMES[0], Kind::Oneshot, 32, 1),
            (NAMES[1], Kind::Timestep, 500, 16),
        ]
        .into_iter()
        .find(|w| w.0 == name)?;
        Some(Spec {
            name,
            kind,
            grid,
            nrhs,
            ranks: 64,
        })
    }

    /// The same pipeline at a size that runs in well under a second.
    pub fn tiny(kind: Kind) -> Spec {
        let (name, grid) = match kind {
            Kind::Oneshot => (NAMES[0], 6),
            Kind::Timestep => (NAMES[1], 24),
        };
        Spec {
            grid,
            ranks: 4,
            ..Spec::named(name).expect("known workload")
        }
    }

    /// The workload's matrix before the seeded diagonal shift.
    pub fn base_matrix(&self) -> CscMatrix {
        match self.kind {
            Kind::Timestep => gen::laplace2d(self.grid, self.grid, gen::Stencil2d::FivePoint),
            Kind::Oneshot => {
                gen::laplace3d(self.grid, self.grid, self.grid, gen::Stencil3d::SevenPoint)
            }
        }
    }

    /// Options of the façade factorization this workload uses.
    pub fn factor_opts(&self) -> FactorOpts {
        match self.kind {
            Kind::Timestep => FactorOpts::new().engine(smp_engine()),
            Kind::Oneshot => FactorOpts::new(),
        }
    }
}

/// The SMP engine at [`THREADS`].
pub fn smp_engine() -> Engine {
    Engine::Smp(SmpOpts {
        threads: THREADS,
        ..SmpOpts::default()
    })
}

/// A matrix whose diagonal can be re-shifted in place from the seed
/// (same pattern, new values, still SPD).
pub struct Shifted {
    pub a: CscMatrix,
    base: Vec<f64>,
    diag: Vec<usize>,
}

impl Shifted {
    pub fn new(a: CscMatrix) -> Self {
        let diag = (0..a.ncols())
            .map(|c| {
                let (rows, _) = a.col(c);
                let k = rows.iter().position(|&r| r == c).expect("diagonal entry");
                a.colptr()[c] + k
            })
            .collect();
        Shifted {
            base: a.values().to_vec(),
            diag,
            a,
        }
    }

    /// Reset the values and add a diagonal shift in `[0.01, 0.11)` drawn
    /// from `rng`.
    pub fn shift(&mut self, rng: &mut Rng) {
        let vals = self.a.values_mut();
        vals.copy_from_slice(&self.base);
        for &k in &self.diag {
            vals[k] += 0.01 + 0.1 * rng.unit();
        }
    }
}

/// Seed streams: each generated input draws from its own.
const STREAM_MATRIX: u64 = 1;
const STREAM_RHS: u64 = 2;
const STREAM_STEP: u64 = 1 << 32;

/// A workload's matrix with the run's seeded shift.
pub fn seeded_matrix(spec: &Spec, seed: u64) -> Shifted {
    let mut m = Shifted::new(spec.base_matrix());
    m.shift(&mut Rng::new(seed, STREAM_MATRIX));
    m
}

/// A workload's seeded right-hand-side block (`n x nrhs`).
pub fn seeded_rhs(spec: &Spec, n: usize, seed: u64) -> Vec<f64> {
    Rng::new(seed, STREAM_RHS).vec(n * spec.nrhs)
}

/// Fails unless every column of the `n x nrhs` solution block has a
/// normwise backward error within [`BACKWARD_TOL`].
pub fn check_solution(a: &CscMatrix, x: &[f64], b: &[f64]) -> Result<(), String> {
    let n = a.nrows();
    let worst = x
        .chunks(n)
        .zip(b.chunks(n))
        .map(|(x, b)| ops::sym_residual_inf(a, x, b))
        .fold(0.0, f64::max);
    if worst.is_finite() && worst <= BACKWARD_TOL {
        Ok(())
    } else {
        Err(format!("backward error {worst:e} above {BACKWARD_TOL:e}"))
    }
}

/// A problem prepared for the simulated machine: symbolic analysis, the
/// permuted matrix and the total permutation.
pub struct Prepared {
    pub sym: Arc<Symbolic>,
    pub ap: CscMatrix,
    pub perm: Perm,
}

impl Prepared {
    /// `core::dist::prepare`: ordering and symbolic analysis on the host.
    pub fn new(a: &CscMatrix) -> Self {
        let (sym, ap, perm) =
            dist::prepare(a, parfact_order::Method::default(), &AmalgOpts::default());
        Prepared { sym, ap, perm }
    }

    /// Reuse a host factorization's analysis (the ordering is identical at
    /// every analysis thread count, so this equals [`Prepared::new`]).
    pub fn of(chol: &SparseCholesky) -> Self {
        Prepared {
            sym: Arc::clone(&chol.factor().sym),
            ap: chol.permuted_matrix().clone(),
            perm: chol.factor().perm.clone(),
        }
    }

    /// One distributed factorization (and solve, when `b` is given) on
    /// `ranks` simulated BG/P ranks with the default mapping and the
    /// event-driven schedule. `traced` records the timeline and the
    /// communication matrix.
    pub fn run(
        &self,
        ranks: usize,
        b: Option<&[f64]>,
        nrhs: usize,
        traced: bool,
    ) -> Result<DistOutcome, FactorError> {
        dist::run_distributed_prepared_traced(
            ranks,
            CostModel::bluegene_p(),
            &self.ap,
            &self.sym,
            &self.perm,
            MapStrategy::default(),
            false,
            b,
            nrhs,
            traced,
            traced,
        )
    }
}

/// Figures of one simulated run, read from the cost model's virtual clocks
/// and counters. They are exact and must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    pub makespan_s: f64,
    pub solve_makespan_s: f64,
    pub comm_bytes: u64,
    pub mem_peak_bytes: u64,
}

impl Modelled {
    pub fn of(out: &DistOutcome) -> Self {
        Modelled {
            makespan_s: out.factor_time_s,
            solve_makespan_s: out.solve_time_s,
            comm_bytes: out.stats.iter().map(|s| s.bytes_sent).sum(),
            mem_peak_bytes: out.max_mem_peak(),
        }
    }
}

/// The exact counts of a run: they must not change between operations,
/// runs or seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    pub factor_nnz: usize,
    pub factor_flops: f64,
    pub modelled: Modelled,
}

/// Check a distributed solution: its backward error, and its agreement
/// with a host solve of the same gathered factor.
pub fn check_dist(a: &CscMatrix, out: &DistOutcome, b: &[f64], nrhs: usize) -> Result<(), String> {
    let x = out
        .x
        .as_deref()
        .ok_or("distributed run returned no solution")?;
    check_solution(a, x, b)?;
    let host = out
        .factor
        .try_solve_many(b, nrhs)
        .map_err(|e| e.to_string())?;
    let scale = ops::norm_inf(&host).max(f64::MIN_POSITIVE);
    let gap = host
        .iter()
        .zip(x)
        .map(|(h, d)| (h - d).abs())
        .fold(0.0, f64::max)
        / scale;
    if gap <= DIST_AGREE_TOL {
        Ok(())
    } else {
        Err(format!("distributed and host solves differ by {gap:e}"))
    }
}

/// Wall times of one untraced run, by end-to-end metric.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub time_to_solution_s: Vec<f64>,
    pub refactor_s: Vec<f64>,
    pub solve_s: Vec<f64>,
}

impl Samples {
    fn push(&mut self, tts: f64, refactor: f64, solve: f64) {
        self.time_to_solution_s.push(tts);
        self.refactor_s.push(refactor);
        self.solve_s.push(solve);
    }
}

/// Everything one untraced run measured and checked.
#[derive(Debug, Default)]
pub struct E2e {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the record.
    pub first_error: Option<String>,
    /// Resident high-water mark after set-up, warm-up and [`RSS_OPS`]
    /// timed operations (or all of them, in a shorter run).
    pub peak_rss_bytes: u64,
    /// The run's exact counts (`None` if no operation succeeded).
    pub exact: Option<Exact>,
    /// `false` when an operation's exact counts differed from the first.
    pub exact_repeat: bool,
}

impl E2e {
    fn new() -> Self {
        E2e {
            exact_repeat: true,
            ..E2e::default()
        }
    }

    /// Keep the samples of timed operation `i` (0 is the warm-up) and read
    /// the memory high-water mark after operation [`RSS_OPS`].
    fn sample(&mut self, i: usize, tts: f64, refactor: f64, solve: f64) {
        if i > 0 {
            self.samples.push(tts, refactor, solve);
        }
        if i == RSS_OPS {
            self.peak_rss_bytes = stats::peak_rss_bytes().unwrap_or(0);
        }
    }

    /// Count an operation; a failed one feeds `failed`.
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Pin the exact counts to the first operation's.
    fn pin(&mut self, e: Exact) {
        let first = *self.exact.get_or_insert(e);
        self.exact_repeat &= first == e;
    }

    /// Every operation succeeded and the exact counts repeated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.exact_repeat && self.exact.is_some()
    }
}

/// Run the untraced workload: set up repeatedly, run one warm-up
/// operation, then repeat timed operations until `seconds` have passed.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: f64) -> E2e {
    match spec.kind {
        Kind::Oneshot => oneshot(spec, seed, seconds),
        Kind::Timestep => timestep(spec, seed, seconds),
    }
}

/// Call `op(i)` for `i = 0, 1, …` until `seconds` have passed, at least
/// once. With `warm_up`, `op(0)` runs before the clock starts, so at least
/// `op(1)` is measured too; callers keep no samples of `op(0)`.
pub fn repeat(seconds: f64, warm_up: bool, mut op: impl FnMut(usize)) {
    let first = usize::from(warm_up);
    if warm_up {
        op(0);
    }
    let t0 = stats::now();
    let mut i = first;
    while i == first || stats::since(t0) < seconds {
        op(i);
        i += 1;
    }
}

/// Set up at least [`SETUP_REPS`] times and for at least `min_s`
/// seconds, keeping the last result.
fn set_up<T>(samples: &mut Samples, min_s: f64, mut f: impl FnMut() -> T) -> T {
    let t0 = stats::now();
    let mut last = None;
    while samples.setup_s.len() < SETUP_REPS || stats::since(t0) < min_s {
        // Drop the previous result first so set-ups do not stack in memory.
        drop(last.take());
        let (v, s) = stats::timed(&mut f);
        samples.setup_s.push(s);
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// After the timed operations: read the memory high-water mark if the run
/// was too short to reach [`RSS_OPS`], then simulate the same problem on
/// the modelled machine once and pin its figures.
fn finish(run: &mut E2e, spec: &Spec, prep: Prepared, a: &CscMatrix, b: &[f64]) {
    if run.peak_rss_bytes == 0 {
        run.peak_rss_bytes = stats::peak_rss_bytes().unwrap_or(0);
    }
    let b = &b[..a.nrows()];
    let r = prep
        .run(spec.ranks, Some(b), 1, false)
        .map_err(|e| e.to_string())
        .and_then(|out| check_dist(a, &out, b, 1).map(|()| Modelled::of(&out)));
    if let Some(modelled) = run.record(r) {
        run.pin(Exact {
            factor_nnz: prep.sym.factor_nnz(),
            factor_flops: prep.sym.factor_flops(),
            modelled,
        });
    }
}

/// Parse → factorize (sequential) → solve with one refinement step.
fn oneshot(spec: &Spec, seed: u64, seconds: f64) -> E2e {
    let mut run = E2e::new();
    let (a, text) = set_up(&mut run.samples, seconds * SETUP_SHARE, || {
        let a = seeded_matrix(spec, seed).a;
        let text = io::write_sym_lower(&a);
        (a, text)
    });
    let b = seeded_rhs(spec, a.nrows(), seed);
    let opts = spec.factor_opts();
    let solve = SolveOpts::new().refine(1);
    let mut counts = None;
    repeat(seconds, true, |i| {
        let t0 = stats::now();
        let r = (|| {
            let parsed = io::parse_sym_lower(&text).map_err(|e| e.to_string())?;
            let (chol, fs) = stats::timed(|| SparseCholesky::factorize(&parsed, &opts));
            let chol = chol.map_err(|e| e.to_string())?;
            let (x, ss) = stats::timed(|| chol.solve_with(RhsBlock::new(&b, spec.nrhs), &solve));
            let tts = stats::since(t0);
            check_solution(&parsed, &x.map_err(|e| e.to_string())?.x, &b)?;
            Ok(((chol.factor_nnz(), chol.factor_flops()), tts, fs, ss))
        })();
        if let Some((c, tts, fs, ss)) = run.record(r) {
            run.sample(i, tts, fs, ss);
            run.exact_repeat &= *counts.get_or_insert(c) == c;
        }
    });
    let prep = Prepared::new(&a);
    run.exact_repeat &=
        counts.is_none_or(|c| c == (prep.sym.factor_nnz(), prep.sym.factor_flops()));
    finish(&mut run, spec, prep, &a, &b);
    run
}

/// Per step: new diagonal shift → refactorize (SMP) → blocked solve of a
/// fresh right-hand-side block with one refinement step.
fn timestep(spec: &Spec, seed: u64, seconds: f64) -> E2e {
    let mut run = E2e::new();
    let mut m = seeded_matrix(spec, seed);
    let opts = spec.factor_opts();
    let chol = set_up(&mut run.samples, seconds * SETUP_SHARE, || {
        SparseCholesky::factorize(&m.a, &opts)
    });
    let Some(mut chol) = run.record(chol.map_err(|e| e.to_string())) else {
        return run;
    };
    let solve = SolveOpts::new().refine(1);
    let engine = smp_engine();
    let mut b = Vec::new();
    repeat(seconds, true, |step| {
        let mut rng = Rng::new(seed, STREAM_STEP + step as u64);
        b = rng.vec(m.a.nrows() * spec.nrhs);
        let t0 = stats::now();
        m.shift(&mut rng);
        let r = (|| {
            let (r, fs) = stats::timed(|| chol.refactorize(&m.a, engine.clone()));
            r.map_err(|e| e.to_string())?;
            let (x, ss) = stats::timed(|| chol.solve_with(RhsBlock::new(&b, spec.nrhs), &solve));
            let tts = stats::since(t0);
            check_solution(&m.a, &x.map_err(|e| e.to_string())?.x, &b)?;
            Ok((tts, fs, ss))
        })();
        if let Some((tts, fs, ss)) = run.record(r) {
            run.sample(step, tts, fs, ss);
        }
    });
    let prep = Prepared::of(&chol);
    drop(chol);
    finish(&mut run, spec, prep, &m.a, &b);
    run
}

/// Bitwise identity of two factors' panels.
pub fn bitwise_equal(x: &Factor, y: &Factor) -> bool {
    x.panel_ptr == y.panel_ptr
        && x.panels.len() == y.panels.len()
        && x.panels
            .iter()
            .zip(&y.panels)
            .all(|(p, q)| p.to_bits() == q.to_bits())
}
