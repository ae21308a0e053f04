//! `bench_solve` — evidence artifact for the batched-solve PR: measures
//! triangular-solve throughput as a function of the right-hand-side block
//! width, on the sequential solve engine, and records the
//! headline comparison — one blocked solve with nrhs = 32 against 32
//! back-to-back single-RHS solves — in `BENCH_pr6.json`.
//!
//! ```text
//! bench_solve [out.json]       (default output: BENCH_pr6.json)
//! ```
//!
//! Set `BENCH_QUICK=1` for a fast smoke run (small grid, short timing
//! floor) — used by CI to keep the binary working, not to produce the
//! artifact.

use parfact_core::solver::{FactorOpts, RhsBlock, SolveEngine, SolveOpts, SparseCholesky};
use parfact_sparse::gen;
use parfact_trace::json::Json;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Best-of-N wall time of `f`, in seconds: keeps iterating until the total
/// measured time passes a floor so short solves get enough samples.
fn best_secs(mut f: impl FnMut()) -> f64 {
    let floor = if quick() { 0.05 } else { 0.5 };
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut iters = 0u32;
    while total < floor || iters < 3 {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
        iters += 1;
        if iters >= 10_000 {
            break;
        }
    }
    best
}

fn det_rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2000) as f64 / 1000.0 - 1.0
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr6.json".to_string());

    // The artifact problem is the lap3d-32 suite matrix; quick mode shrinks
    // the grid so CI exercises the same code path in seconds.
    let (name, a) = if quick() {
        (
            "lap3d-10",
            gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint),
        )
    } else {
        (
            "lap3d-32",
            gen::laplace3d(32, 32, 32, gen::Stencil3d::SevenPoint),
        )
    };
    let n = a.nrows();
    println!("bench_solve: {name}, n = {n}, nnz(lower) = {}", a.nnz());

    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).expect("SPD");
    // One triangular solve touches every stored entry of L twice (multiply
    // + add), forward and backward: 4 * nnz(L) flops per RHS column.
    let flops_per_rhs = 4.0 * chol.factor_nnz() as f64;
    println!(
        "bench_solve: factored, nnz(L) = {} ({:.3} Mflop per rhs column)",
        chol.factor_nnz(),
        flops_per_rhs / 1e6
    );

    let mut r = det_rng(0x5eed);
    let widths: &[usize] = &[1, 2, 4, 8, 16, 32];
    let max_w = *widths.last().unwrap();
    let b: Vec<f64> = (0..n * max_w).map(|_| r()).collect();

    let seq = SolveOpts::new().engine(SolveEngine::Sequential);
    let mut sweep = Vec::new();
    for &nrhs in widths {
        let rhs = &b[..n * nrhs];
        let secs = best_secs(|| {
            chol.solve_with(RhsBlock::new(rhs, nrhs), &seq)
                .expect("dims match");
        });
        let gf = flops_per_rhs * nrhs as f64 / secs / 1e9;
        let rows_per_s = n as f64 * nrhs as f64 / secs;
        println!(
            "  seq   nrhs={nrhs:<3}  {:8.2} ms   {gf:6.2} GF/s   {:.2e} rows/s",
            secs * 1e3,
            rows_per_s
        );
        sweep.push(obj(vec![
            ("engine", Json::str("seq")),
            ("nrhs", Json::num_usize(nrhs)),
            ("solve_s", Json::num_f64(secs)),
            ("solve_gflops", Json::num_f64(gf)),
            ("rows_per_s", Json::num_f64(rows_per_s)),
        ]));
    }

    // Headline comparison: one blocked sequential solve at nrhs = 32 vs 32
    // back-to-back single-RHS solves of the same columns. Both paths
    // produce bitwise-identical answers, so this isolates the throughput
    // gained by blocking (the gemm updates amortize panel traffic over the
    // RHS block).
    let batched_s = best_secs(|| {
        chol.solve_with(RhsBlock::new(&b, max_w), &seq)
            .expect("dims match");
    });
    let singles_s = best_secs(|| {
        for col in 0..max_w {
            chol.solve_with(RhsBlock::single(&b[col * n..(col + 1) * n]), &seq)
                .expect("dims match");
        }
    });
    let speedup = singles_s / batched_s;
    println!(
        "bench_solve: nrhs={max_w} blocked {:.2} ms vs {max_w} single solves {:.2} ms  ->  {speedup:.2}x",
        batched_s * 1e3,
        singles_s * 1e3
    );
    let headline = obj(vec![
        ("matrix", Json::str(name)),
        ("nrhs", Json::num_usize(max_w)),
        ("batched_s", Json::num_f64(batched_s)),
        ("singles_s", Json::num_f64(singles_s)),
        (
            "batched_rows_per_s",
            Json::num_f64(n as f64 * max_w as f64 / batched_s),
        ),
        (
            "singles_rows_per_s",
            Json::num_f64(n as f64 * max_w as f64 / singles_s),
        ),
        ("speedup", Json::num_f64(speedup)),
    ]);

    let doc = obj(vec![
        ("bench", Json::str("pr6_batched_solve")),
        ("quick", Json::Bool(quick())),
        ("matrix", Json::str(name)),
        ("n", Json::num_usize(n)),
        ("factor_nnz", Json::num_usize(chol.factor_nnz())),
        ("sweep", Json::Arr(sweep)),
        ("batched_vs_singles", headline),
    ]);
    std::fs::write(&out, doc.to_string_pretty() + "\n").expect("write results");
    println!("bench_solve: results written to {out}");
}
