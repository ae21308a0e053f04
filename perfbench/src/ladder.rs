//! The traced run: per-layer figures taken by timing calls into each
//! layer's public functions from outside the library, on the workload's
//! own matrix.
//!
//! The centrepiece is [`replay`], the sequential multifrontal loop rebuilt
//! from its public parts (`frontal::assemble_front` →
//! `chol::partial_potrf` → panel copy → `frontal::extract_update_into`, in
//! postorder) with a timer around each call. Its factor must be bitwise
//! equal to `seq::factorize_seq`, so the layers it times are the layers of
//! the program the untraced run measures.

use crate::stats::{self, median, Rng};
use crate::workload::{self, Kind, Prepared, Spec};
use parfact_core::dist::front::flops_partial;
use parfact_core::frontal::{assemble_front, extract_update_into, FrontScatter, UpdateMatrix};
use parfact_core::smp::SmpOpts;
use parfact_core::solver::{RhsBlock, SolveEngine, SolveOpts, SparseCholesky};
use parfact_core::{seq, smp, Factor, FactorError, FactorKind};
use parfact_dense::{blas, chol};
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_sparse::{io, ops};
use parfact_symbolic::{analyze_with, AmalgOpts, Symbolic};
use parfact_trace::{Collector, TraceLevel};
use std::hint::black_box;
use std::sync::Arc;

/// Front-size classes by front order: `<64`, `64–255`, `256–1023`,
/// `≥1024`.
pub const CLASSES: [&str; 4] = ["xs", "s", "m", "l"];

/// The class index of a front of order `f`.
pub fn class_of(f: usize) -> usize {
    match f {
        0..=63 => 0,
        64..=255 => 1,
        256..=1023 => 2,
        _ => 3,
    }
}

/// Per-class totals of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    pub fronts: usize,
    pub flops: f64,
    /// Seconds inside `partial_potrf`.
    pub potrf_s: f64,
}

/// What one replay of the sequential multifrontal loop measured.
#[derive(Debug, Clone)]
pub struct Replay {
    pub factor: Factor,
    pub wall_s: f64,
    /// Seconds in `assemble_front` (scatter + extend-add).
    pub assemble_s: f64,
    /// Seconds copying the panel out and extracting the update matrix.
    pub extract_s: f64,
    pub assembled_entries: u64,
    pub classes: [ClassTotals; 4],
    /// The `rest` dimension of every `(rest, NB)` panel step, per class.
    pub rests: [Vec<usize>; 4],
}

impl Replay {
    /// Time not covered by the per-call timers.
    pub fn unattributed_s(&self) -> f64 {
        let potrf: f64 = self.classes.iter().map(|c| c.potrf_s).sum();
        self.wall_s - (self.assemble_s + self.extract_s + potrf)
    }
}

/// The sequential multifrontal loop, timed call by call. `ap`, `sym` and
/// `perm` come from the same analysis `seq::factorize_seq` gets.
pub fn replay(ap: &CscMatrix, sym: &Arc<Symbolic>, perm: Perm) -> Result<Replay, FactorError> {
    let nsuper = sym.nsuper();
    let mut factor = Factor::allocate(sym, FactorKind::Llt, perm);
    let mut scatter = FrontScatter::new(sym.n);
    let mut front = Vec::new();
    let mut slots: Vec<Option<UpdateMatrix>> = Vec::new();
    slots.resize_with(nsuper, || None);
    let mut children = Vec::new();
    let mut pool: Vec<Vec<f64>> = Vec::new();
    let mut assemble_s = 0.0;
    let mut extract_s = 0.0;
    let mut assembled_entries = 0;
    let mut classes = [ClassTotals::default(); 4];
    let t_all = stats::now();
    for s in 0..nsuper {
        children.clear();
        for &c in &sym.tree.children[s] {
            children.push(slots[c].take().expect("child update missing"));
        }
        let t = stats::now();
        let (f, entries) = assemble_front(ap, sym, s, &mut scatter, &children, &mut front);
        assemble_s += stats::since(t);
        assembled_entries += entries;
        let w = sym.sn_width(s);
        let c0 = sym.sn_ptr[s];
        let t = stats::now();
        chol::partial_potrf(f, w, &mut front, f).map_err(|e| FactorError::from_dense(e, c0))?;
        let k = class_of(f);
        classes[k].potrf_s += stats::since(t);
        classes[k].fronts += 1;
        classes[k].flops += flops_partial(f, w);
        let t = stats::now();
        factor.panel_mut(s).copy_from_slice(&front[..f * w]);
        if f > w {
            let mut data = pool.pop().unwrap_or_default();
            extract_update_into(sym, s, &front, f, &mut data);
            slots[s] = Some(UpdateMatrix { src: s, data });
        }
        pool.extend(children.drain(..).map(|u| u.data));
        extract_s += stats::since(t);
    }
    let wall_s = stats::since(t_all);
    let mut rests: [Vec<usize>; 4] = Default::default();
    for s in 0..nsuper {
        let (f, w) = (sym.front_order(s), sym.sn_width(s));
        let mut j = 0;
        while j < w {
            let jb = chol::NB.min(w - j);
            rests[class_of(f)].push(f - j - jb);
            j += jb;
        }
    }
    Ok(Replay {
        factor,
        wall_s,
        assemble_s,
        extract_s,
        assembled_entries,
        classes,
        rests,
    })
}

/// One named per-layer figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects one pass's figures by name.
#[derive(Default)]
struct Pass(Vec<Figure>);

impl Pass {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Figure {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// Median of repeated timings of `f` (at least `reps`, and at least
/// `min_s` seconds in total).
fn time_median(reps: usize, min_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let t0 = stats::now();
    let mut v = Vec::new();
    while v.len() < reps || stats::since(t0) < min_s {
        v.push(f());
    }
    median(&v)
}

/// GF/s of `syrk_ln` and `trsm_right_lt` on an isolated `(rest, NB)`
/// panel-step shape; 0 when the class has no steps.
fn kernel_gflops(rest: usize) -> (f64, f64) {
    if rest == 0 {
        return (0.0, 0.0);
    }
    let nb = chol::NB;
    let mut rng = Rng::new(0, rest as u64);
    let a = rng.vec(rest * nb);
    let mut c = rng.vec(rest * rest);
    let syrk_s = time_median(5, 0.05, || {
        let t = stats::now();
        blas::syrk_ln(rest, nb, -1.0, &a, rest, 1.0, black_box(&mut c), rest);
        stats::since(t)
    });
    // A well-conditioned lower triangle: dominant diagonal.
    let mut l = vec![0.0; nb * nb];
    for j in 0..nb {
        l[j * nb + j] = 2.0;
        for i in j + 1..nb {
            l[j * nb + i] = 0.01 * rng.unit();
        }
    }
    let b0 = rng.vec(rest * nb);
    let mut b = b0.clone();
    let trsm_s = time_median(5, 0.05, || {
        b.copy_from_slice(&b0);
        let t = stats::now();
        blas::trsm_right_lt(rest, nb, &l, nb, black_box(&mut b), rest);
        stats::since(t)
    });
    let syrk_flops = (rest * (rest + 1) * nb) as f64;
    let trsm_flops = (rest * nb * nb) as f64;
    (syrk_flops / syrk_s / 1e9, trsm_flops / trsm_s / 1e9)
}

/// Packed `gemm_nt` rate on square `n = 512`, GF/s.
fn gemm_peak_gflops() -> f64 {
    let n = 512;
    let mut rng = Rng::new(0, 512);
    let a = rng.vec(n * n);
    let b = rng.vec(n * n);
    let mut c = vec![0.0; n * n];
    let s = time_median(3, 0.2, || {
        let t = stats::now();
        blas::gemm_nt(n, n, n, 1.0, &a, n, &b, n, 1.0, black_box(&mut c), n);
        stats::since(t)
    });
    2.0 * (n * n * n) as f64 / s / 1e9
}

/// Median of a sample of shapes, 0 for none.
fn median_rest(v: &[usize]) -> usize {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    s[s.len() / 2]
}

/// One per-layer figure across the passes of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// What a traced run produced: per-layer figures and its checks.
#[derive(Debug, Default)]
pub struct Ladder {
    /// In the order the first pass produced them.
    pub series: Vec<Series>,
    pub passes: usize,
    /// Failures found by the checks (bitwise replay, solution quality,
    /// exact counts repeating across passes).
    pub errors: Vec<String>,
}

/// Exact counts that must repeat across passes.
const EXACT: [&str; 3] = ["order.factor_nnz", "order.factor_flops", "dist.msgs_sent"];

/// Run ladder passes on the workload until `seconds` have passed (at
/// least one).
pub fn run_ladder(spec: &Spec, seed: u64, seconds: f64) -> Ladder {
    let m = workload::seeded_matrix(spec, seed);
    let b = workload::seeded_rhs(spec, m.a.nrows(), seed);
    let mut out = Ladder::default();
    workload::repeat(seconds, false, |_| match pass(spec, &m.a, &b) {
        Ok(p) => {
            out.passes += 1;
            for f in p.0 {
                match out.series.iter_mut().find(|s| s.name == f.name) {
                    Some(s) => s.samples.push(f.value),
                    None => out.series.push(Series {
                        name: f.name,
                        unit: f.unit,
                        samples: vec![f.value],
                    }),
                }
            }
        }
        Err(e) => out.errors.push(e),
    });
    for s in out
        .series
        .iter()
        .filter(|s| EXACT.contains(&s.name.as_str()))
    {
        if s.samples
            .iter()
            .any(|x| x.to_bits() != s.samples[0].to_bits())
        {
            out.errors
                .push(format!("{} changed between passes", s.name));
        }
    }
    out
}

/// One pass over every layer.
fn pass(spec: &Spec, a: &CscMatrix, b: &[f64]) -> Result<Pass, String> {
    let mut p = Pass::default();
    let nrhs = spec.nrhs;
    let opts = spec.factor_opts();
    let err = |e: FactorError| e.to_string();

    // sparse: Matrix Market parse and the residual over the block.
    let text = io::write_sym_lower(a);
    let (parsed, s) = stats::timed(|| io::parse_sym_lower(&text));
    parsed.map_err(|e| e.to_string())?;
    p.put("sparse.mtx_parse_s", "s", s);

    // order + symbolic, with the analysis thread count the workload uses.
    let threads = opts.resolved_analysis_threads();
    let off = Collector::disabled();
    let method = parfact_order::Method::default();
    let (fill, s) = stats::timed(|| parfact_order::order_matrix_with(a, method, threads, &off));
    p.put("order.nd_s", "s", s);
    let af = fill.apply_sym_lower(a);
    let ((sym, ap), s) = stats::timed(|| analyze_with(&af, &AmalgOpts::default(), threads, &off));
    p.put("symbolic.analyze_s", "s", s);
    let perm = sym.post.compose(&fill);
    let sym = Arc::new(sym);
    p.put("order.factor_nnz", "count", sym.factor_nnz() as f64);
    p.put("order.factor_flops", "count", sym.factor_flops());

    // frontal + dense: the replay, checked bitwise against the engine.
    let r = replay(&ap, &sym, perm.clone()).map_err(err)?;
    let (seq_f, seq_s) =
        stats::timed(|| seq::factorize_seq(&ap, &sym, FactorKind::Llt, perm.clone()));
    let seq_f = seq_f.map_err(err)?;
    if !workload::bitwise_equal(&r.factor, &seq_f) {
        return Err("replay factor differs from seq::factorize_seq".into());
    }
    let total_flops: f64 = r.classes.iter().map(|c| c.flops).sum();
    for (k, name) in CLASSES.iter().enumerate() {
        let c = r.classes[k];
        p.put(
            format!("symbolic.flops_share.{name}"),
            "ratio",
            c.flops / total_flops,
        );
    }
    p.put("numeric.unattributed_s", "s", r.unattributed_s());
    p.put("frontal.assemble_s", "s", r.assemble_s);
    p.put("frontal.extract_s", "s", r.extract_s);
    p.put(
        "frontal.assembled_entries",
        "count",
        r.assembled_entries as f64,
    );
    for (k, name) in CLASSES.iter().enumerate() {
        let c = r.classes[k];
        p.put(format!("dense.front_s.{name}"), "s", c.potrf_s);
        let gf = if c.potrf_s > 0.0 {
            c.flops / c.potrf_s / 1e9
        } else {
            0.0
        };
        p.put(format!("dense.front_gflops.{name}"), "GF/s", gf);
    }
    for (k, name) in CLASSES.iter().enumerate() {
        let (syrk, trsm) = kernel_gflops(median_rest(&r.rests[k]));
        p.put(format!("dense.syrk_gflops.{name}"), "GF/s", syrk);
        p.put(format!("dense.trsm_gflops.{name}"), "GF/s", trsm);
    }
    p.put("dense.gemm_peak_gflops", "GF/s", gemm_peak_gflops());
    drop(r);

    // seq / smp numeric engines.
    p.put("numeric.seq_s", "s", seq_s);
    let smp_opts = SmpOpts {
        threads: workload::THREADS,
        ..SmpOpts::default()
    };
    let (smp_f, smp_s) =
        stats::timed(|| smp::factorize_smp(&ap, &sym, FactorKind::Llt, perm.clone(), &smp_opts));
    if !workload::bitwise_equal(&smp_f.map_err(err)?, &seq_f) {
        return Err("smp factor differs from seq::factorize_seq".into());
    }
    p.put("numeric.smp_speedup", "ratio", seq_s / smp_s);
    drop(seq_f);

    // The solve path, on the workload's own façade factorization.
    let chol = SparseCholesky::factorize(a, &opts).map_err(err)?;
    let factor = chol.factor();
    let (x, s) = stats::timed(|| factor.try_solve_many(b, nrhs));
    let x = x.map_err(err)?;
    p.put("solve.sweep_s", "s", s);
    p.put(
        "solve.sweep_gflops",
        "GF/s",
        4.0 * factor.nnz() as f64 * nrhs as f64 / s / 1e9,
    );
    let (_, s) = stats::timed(|| {
        for (xc, bc) in x.chunks(a.nrows()).zip(b.chunks(a.nrows())) {
            black_box(ops::sym_residual(a, xc, bc));
        }
    });
    p.put("sparse.residual_s", "s", s);
    let block = RhsBlock::new(b, nrhs);
    let (r0, s0) = stats::timed(|| chol.solve_with(block, &SolveOpts::new()));
    let (r1, s1) = stats::timed(|| chol.solve_with(block, &SolveOpts::new().refine(1)));
    workload::check_solution(a, &r1.map_err(err)?.x, b)?;
    r0.map_err(err)?;
    p.put("solve.refine_s", "s", s1 - s0);
    let smp_solve = SolveOpts::new().engine(SolveEngine::Smp {
        threads: workload::THREADS,
    });
    let (r, s) = stats::timed(|| chol.solve_with(block, &smp_solve));
    r.map_err(err)?;
    p.put("solve.smp_sweep_s", "s", s);

    // core::dist / mpsim: one untraced and one traced factorization on the
    // modelled machine.
    let prep = Prepared::of(&chol);
    let (out, host_s) = stats::timed(|| prep.run(spec.ranks, None, 1, false));
    out.map_err(err)?;
    p.put("mpsim.host_wall_s", "s", host_s);
    let out = prep.run(spec.ranks, None, 1, true).map_err(err)?;
    dist_figures(&mut p, &prep, &out);

    let overhead =
        host_op_s(spec, a, b, TraceLevel::Timeline)? / host_op_s(spec, a, b, TraceLevel::Off)?;
    p.put("bench.trace_overhead", "ratio", overhead);
    Ok(p)
}

/// Wall time of one operation of a host workload through the façade at
/// trace level `trace`: factorize (oneshot) or refactorize (timestep),
/// then the workload's refined solve.
fn host_op_s(spec: &Spec, a: &CscMatrix, b: &[f64], trace: TraceLevel) -> Result<f64, String> {
    let opts = spec.factor_opts().trace(trace);
    let solve = SolveOpts::new().refine(1);
    let block = RhsBlock::new(b, spec.nrhs);
    let (r, s) = match spec.kind {
        Kind::Timestep => {
            let mut chol = SparseCholesky::factorize(a, &opts).map_err(|e| e.to_string())?;
            stats::timed(|| {
                chol.refactorize(a, workload::smp_engine())?;
                chol.solve_with(block, &solve)
            })
        }
        Kind::Oneshot => stats::timed(|| {
            SparseCholesky::factorize(a, &opts).and_then(|c| c.solve_with(block, &solve))
        }),
    };
    r.map_err(|e| e.to_string())?;
    Ok(s)
}

/// The distributed layer's figures, from a traced run's virtual clocks.
fn dist_figures(p: &mut Pass, prep: &Prepared, out: &parfact_core::dist::DistOutcome) {
    let st = &out.stats;
    let max = |f: &dyn Fn(&parfact_mpsim::RankStats) -> f64| st.iter().map(f).fold(0.0, f64::max);
    let compute_max = max(&|s| s.compute_s);
    let compute_mean = st.iter().map(|s| s.compute_s).sum::<f64>() / st.len() as f64;
    p.put("dist.compute_s_max", "model_s", compute_max);
    p.put("dist.comm_s_max", "model_s", max(&|s| s.comm_s));
    p.put(
        "dist.idle_s_max",
        "model_s",
        max(&|s| s.clock_s - s.compute_s - s.comm_s),
    );
    p.put(
        "dist.comm_hidden_s",
        "model_s",
        st.iter().map(|s| s.comm_hidden_s).sum(),
    );
    p.put("dist.load_balance", "ratio", compute_mean / compute_max);
    let profile = parfact_trace::profile::analyze(
        &prep.sym.tree.parent,
        &out.merged_events(),
        &out.rank_reports(),
        1,
    );
    p.put("dist.critical_path_s", "model_s", profile.critical_path_s);
    p.put(
        "dist.msgs_sent",
        "count",
        st.iter().map(|s| s.msgs_sent).sum::<u64>() as f64,
    );
    let map = parfact_core::mapping::map_tree(&prep.sym, out.stats.len(), Default::default());
    let predicted = parfact_core::scalability::predict(&prep.sym, &map).total_bytes();
    let measured: u64 = st.iter().map(|s| s.bytes_sent).sum();
    p.put(
        "dist.volume_model_ratio",
        "ratio",
        measured as f64 / predicted,
    );
}
