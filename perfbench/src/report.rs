//! Metric names, the result record and the last-line result object.

use crate::ladder::Ladder;
use crate::stats::{summarize, Fingerprint, Summary};
use crate::workload::E2e;
use parfact_trace::json::Json;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("refactor_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_bytes", "B"),
    ("makespan_s", "model_s"),
    ("solve_makespan_s", "model_s"),
    ("comm_bytes", "B"),
    ("mem_peak_bytes", "B"),
    ("success_rate", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    fn new(name: &str, unit: &str, samples: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            summary: summarize(samples),
        }
    }
}

/// What a run reports: its checks, its metrics and extra record fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extra: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// An untraced run: the end-to-end metrics in [`END_TO_END`] order,
    /// and its exact counts.
    pub fn untraced(run: &E2e) -> Self {
        let s = &run.samples;
        let m = run.exact.map(|e| e.modelled);
        let ok = (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64;
        let values: [Vec<f64>; 10] = [
            s.setup_s.clone(),
            s.time_to_solution_s.clone(),
            s.refactor_s.clone(),
            s.solve_s.clone(),
            vec![run.peak_rss_bytes as f64],
            m.map(|m| m.makespan_s).into_iter().collect(),
            m.map(|m| m.solve_makespan_s).into_iter().collect(),
            m.map(|m| m.comm_bytes as f64).into_iter().collect(),
            m.map(|m| m.mem_peak_bytes as f64).into_iter().collect(),
            vec![ok],
        ];
        let exact = run.exact.map_or(Json::Null, |e| {
            obj(vec![
                ("factor_nnz", Json::num_usize(e.factor_nnz)),
                ("factor_flops", num(e.factor_flops)),
                ("makespan_s", num(e.modelled.makespan_s)),
                ("solve_makespan_s", num(e.modelled.solve_makespan_s)),
                ("comm_bytes", Json::num_u64(e.modelled.comm_bytes)),
                ("mem_peak_bytes", Json::num_u64(e.modelled.mem_peak_bytes)),
                ("repeated", Json::Bool(run.exact_repeat)),
            ])
        });
        let first_error = run.first_error.as_deref().map_or(Json::Null, Json::str);
        Outcome {
            correct: run.correct(),
            attempted: run.attempted,
            failed: run.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| Metric::new(name, unit, &v))
                .collect(),
            extra: vec![("exact", exact), ("first_error", first_error)],
        }
    }

    /// A traced run: the per-layer metrics (over its passes) and the
    /// failed checks.
    pub fn traced(l: &Ladder) -> Self {
        let failed = l.errors.len() as u64;
        Outcome {
            correct: failed == 0 && l.passes > 0,
            attempted: l.passes as u64 + failed,
            failed,
            metrics: l
                .series
                .iter()
                .map(|s| Metric::new(&s.name, s.unit, &s.samples))
                .collect(),
            extra: vec![(
                "errors",
                Json::Arr(l.errors.iter().map(|e| Json::str(e)).collect()),
            )],
        }
    }

    /// The last line: `correct`, `attempted`, `failed` and each metric's
    /// median with its unit.
    pub fn result_line(&self) -> String {
        let ms = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj(vec![
                    ("value", num(m.summary.median)),
                    ("unit", Json::str(&m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num_u64(self.attempted)),
            ("failed", Json::num_u64(self.failed)),
            ("metrics", Json::Obj(ms)),
        ])
        .to_string_compact()
    }
}

fn num(v: f64) -> Json {
    Json::num_f64(v)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The full record: what ran, where, and every metric's median, high
/// percentile and sample count.
pub fn record(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Fingerprint,
    out: &Outcome,
) -> String {
    let fp = obj(vec![
        ("nproc", Json::num_usize(host.nproc)),
        ("cpu_model", Json::str(&host.cpu_model)),
        ("avx_microkernel", Json::Bool(host.avx)),
        ("build_profile", Json::str(host.profile)),
        ("rustc", Json::str(&host.rustc)),
        ("git_commit", Json::str(&host.git_commit)),
    ]);
    let ms = Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let hi_key = if s.hi_pct == 100 {
                    "max".to_string()
                } else {
                    format!("p{}", s.hi_pct)
                };
                let fields = vec![
                    ("unit".to_string(), Json::str(&m.unit)),
                    ("median".to_string(), num(s.median)),
                    (hi_key, num(s.hi)),
                    ("n".to_string(), Json::num_usize(s.n)),
                ];
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    );
    let mut fields = vec![
        ("record", Json::str("parfact-perfbench")),
        ("workload", Json::str(workload)),
        ("seed", Json::num_u64(seed)),
        ("seconds", num(seconds)),
        ("trace", Json::Bool(trace)),
        ("host", fp),
        ("metrics", ms),
    ];
    fields.extend(out.extra.iter().cloned());
    obj(fields).to_string_compact()
}
