//! The benchmark's own checks, at sizes that run in seconds.

use parfact_core::{seq, FactorKind};
use parfact_perfbench::ladder::{self, replay};
use parfact_perfbench::report::{Outcome, END_TO_END};
use parfact_perfbench::workload::{self, bitwise_equal, run_e2e, Kind, Prepared, Spec};
use parfact_trace::json::{self, Json};

const KINDS: [Kind; 2] = [Kind::Oneshot, Kind::Timestep];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_runs_one_operation_correctly_at_a_tiny_size() {
    for kind in KINDS {
        let spec = Spec::tiny(kind);
        let run = run_e2e(&spec, 7, 0.0);
        assert!(run.correct(), "{}: {:?}", spec.name, run.first_error);
        assert!(run.attempted >= 1 && run.failed == 0, "{}", spec.name);
        for m in Outcome::untraced(&run).metrics {
            let v = m.summary.median;
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", spec.name, m.name);
        }
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, workload::NAMES);
    for name in workload::NAMES {
        assert_eq!(Spec::named(name).map(|s| s.name), Some(name));
    }
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, listed("end_to_end"));
    let per_layer = listed("per_layer");
    for kind in KINDS {
        let spec = Spec::tiny(kind);
        let run = run_e2e(&spec, 3, 0.0);
        let got: Vec<(String, String)> = Outcome::untraced(&run)
            .metrics
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(got, e2e, "{}", spec.name);
        let l = ladder::run_ladder(&spec, 3, 0.0);
        assert!(l.errors.is_empty(), "{}: {:?}", spec.name, l.errors);
        let got: Vec<(String, String)> = Outcome::traced(&l)
            .metrics
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(got, per_layer, "{}", spec.name);
    }
}

#[test]
fn replay_is_bitwise_equal_to_the_sequential_engine() {
    for kind in KINDS {
        let m = workload::seeded_matrix(&Spec::tiny(kind), 11);
        let prep = Prepared::new(&m.a);
        let r = replay(&prep.ap, &prep.sym, prep.perm.clone()).expect("SPD");
        let f = seq::factorize_seq(&prep.ap, &prep.sym, FactorKind::Llt, prep.perm.clone())
            .expect("SPD");
        assert!(bitwise_equal(&r.factor, &f));
        let fronts: usize = r.classes.iter().map(|c| c.fronts).sum();
        assert_eq!(fronts, prep.sym.nsuper());
        assert!(r.unattributed_s() >= 0.0 && r.unattributed_s() < r.wall_s);
    }
}

#[test]
fn exact_counts_repeat_across_seeds() {
    for kind in KINDS {
        let spec = Spec::tiny(kind);
        let a = run_e2e(&spec, 1, 0.0);
        let b = run_e2e(&spec, 2, 0.0);
        assert!(a.exact_repeat && b.exact_repeat, "{}", spec.name);
        assert_eq!(a.exact, b.exact, "{}", spec.name);
        assert!(a.exact.is_some(), "{}", spec.name);
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let spec = Spec::tiny(Kind::Timestep);
    let (x, y) = (
        workload::seeded_matrix(&spec, 5),
        workload::seeded_matrix(&spec, 5),
    );
    assert_eq!(x.a.values(), y.a.values());
    let z = workload::seeded_matrix(&spec, 6);
    assert_ne!(x.a.values(), z.a.values());
    let n = x.a.nrows();
    assert_eq!(
        workload::seeded_rhs(&spec, n, 5),
        workload::seeded_rhs(&spec, n, 5)
    );
}
