//! The L0→L1 gap table: per front-size class, the in-situ front
//! factorization rate against the isolated kernels it is built from and
//! against the packed `gemm_nt` rate.

use crate::ladder::{Ladder, CLASSES};
use crate::stats::median;

/// Markdown lines of the table, from a traced run's medians.
pub fn gap_table(l: &Ladder) -> Vec<String> {
    let get = |name: &str| {
        l.series
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| median(&s.samples))
    };
    let peak = get("dense.gemm_peak_gflops");
    let mut out = vec![
        format!("L0 packed gemm_nt (n=512): {peak:.2} GF/s"),
        String::new(),
        "| class | front order | flops share | front s | front GF/s | syrk GF/s | trsm GF/s | front / gemm |".into(),
        "|---|---|---|---|---|---|---|---|".into(),
    ];
    let orders = ["<64", "64-255", "256-1023", ">=1024"];
    for (c, order) in CLASSES.iter().zip(orders) {
        let front = get(&format!("dense.front_gflops.{c}"));
        out.push(format!(
            "| {c} | {order} | {:.3} | {:.4} | {front:.2} | {:.2} | {:.2} | {:.2} |",
            get(&format!("symbolic.flops_share.{c}")),
            get(&format!("dense.front_s.{c}")),
            get(&format!("dense.syrk_gflops.{c}")),
            get(&format!("dense.trsm_gflops.{c}")),
            front / peak,
        ));
    }
    out
}
