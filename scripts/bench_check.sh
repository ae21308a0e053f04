#!/usr/bin/env sh
# Single entry point for the committed benchmark artifacts.
#
# Check mode (default) is a warn-only performance gate: run the quick
# kernel sweep and compare each (kernel, n, k) packed_gflops rate against
# the committed BENCH_pr2.json baseline. Prints a WARN line for every
# kernel that regressed by more than the tolerance (default 30%, override
# with BENCH_CHECK_TOL=0.5). Also checks the batched-solve artifact
# (BENCH_pr6.json): the committed batched-vs-singles speedup must hold
# the 2x acceptance bar, and a fresh quick bench_solve run must keep
# blocked solves at least as fast as single-RHS loops. Finally checks the
# parallel-analysis artifact (BENCH_pr7.json): the committed modeled
# speedup at 4 threads must hold 1.5x, and a fresh quick bench_analysis
# run must stay deterministic and at least break even. Finally measures
# crash-recovery overhead: an injected crash with checkpointed restart
# must keep the end-to-end simulated makespan under 2.5x fault-free.
#
#   scripts/bench_check.sh [baseline.json]     (default: BENCH_pr2.json)
#
# Regen mode rebuilds the committed artifacts with full (non-quick) runs
# on an otherwise-idle machine — this replaces the old bench_pr2.sh:
#
#   scripts/bench_check.sh regen [pr2|analysis|scale|all]   (default: all)
#
# Check mode always exits 0: CI machines are noisy and the committed
# baseline comes from a different host, so this is a trend alarm, not a
# hard gate.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "regen" ]; then
    which="${2:-all}"
    cargo build --release -p parfact-bench
    case "$which" in
    pr2 | all) ./target/release/bench_pr2 BENCH_pr2.json ;;
    esac
    case "$which" in
    analysis | pr7 | all) ./target/release/bench_analysis BENCH_pr7.json ;;
    esac
    case "$which" in
    scale | pr9 | all) ./target/release/bench_scale BENCH_pr9.json ;;
    esac
    case "$which" in
    pr2 | analysis | pr7 | scale | pr9 | all) exit 0 ;;
    *)
        echo "unknown regen target '$which' (pr2|analysis|scale|all)" >&2
        exit 2
        ;;
    esac
fi

baseline="${1:-BENCH_pr2.json}"
tol="${BENCH_CHECK_TOL:-0.3}"
fresh=$(mktemp /tmp/bench_check.XXXXXX.json)
trap 'rm -f "$fresh"' EXIT

BENCH_QUICK=1 cargo run -q --release -p parfact-bench --bin bench_pr2 -- "$fresh"

# Flatten one kernel record per line: kernel|n|k|packed_gflops. The JSON
# is machine-written (one "key": value pair per line), so line-oriented
# awk is enough — no JSON parser dependency.
flatten() {
    awk '
        /"kernel":/ { gsub(/[",]/, "", $2); kernel = $2 }
        /"n":/      { gsub(/,/, "", $2); n = $2 }
        /"k":/      { gsub(/,/, "", $2); k = $2 }
        /"packed_gflops":/ {
            gsub(/,/, "", $2)
            print kernel "|" n "|" k "|" $2
        }
    ' "$1"
}

flatten "$baseline" > "$fresh.base"
flatten "$fresh" > "$fresh.new"
trap 'rm -f "$fresh" "$fresh.base" "$fresh.new"' EXIT

warned=0
compared=0
while IFS='|' read -r kernel n k base_gf; do
    new_gf=$(awk -F'|' -v key="$kernel|$n|$k" \
        '$1 "|" $2 "|" $3 == key { print $4 }' "$fresh.new")
    [ -n "$new_gf" ] || continue
    compared=$((compared + 1))
    is_slow=$(awk -v b="$base_gf" -v c="$new_gf" -v t="$tol" \
        'BEGIN { print (c < b * (1 - t)) ? 1 : 0 }')
    if [ "$is_slow" = 1 ]; then
        echo "WARN: $kernel n=$n k=$k: $new_gf GF/s vs baseline $base_gf GF/s"
        warned=1
    else
        echo "ok:   $kernel n=$n k=$k: $new_gf GF/s (baseline $base_gf)"
    fi
done < "$fresh.base"

if [ "$compared" = 0 ]; then
    echo "bench_check: no comparable (kernel, n, k) entries between the quick run and $baseline"
elif [ "$warned" = 1 ]; then
    echo "bench_check: kernel rates regressed vs $baseline (warn-only; see above)"
else
    echo "bench_check: $compared kernel rates within ${tol} of $baseline"
fi

# --- Batched-solve gate (warn-only, like the kernel gate above) ----------
# Two checks against BENCH_pr6.json: the committed artifact must still
# claim the >= 2x batched-vs-singles speedup the PR was accepted with, and
# a fresh quick run must not show blocked solves LOSING to single-RHS
# loops (speedup < 1 would mean the blocked sweep itself regressed; the
# quick grid is too small to reproduce the full 2x headroom).
solve_baseline="BENCH_pr6.json"
if [ -f "$solve_baseline" ]; then
    # "speedup" appears exactly once, inside batched_vs_singles.
    committed=$(awk '/"speedup":/ { gsub(/,/, "", $2); print $2 }' "$solve_baseline")
    if [ -z "$committed" ]; then
        echo "WARN: $solve_baseline has no batched_vs_singles.speedup entry"
    else
        below=$(awk -v s="$committed" 'BEGIN { print (s < 2.0) ? 1 : 0 }')
        if [ "$below" = 1 ]; then
            echo "WARN: committed $solve_baseline speedup ${committed}x is below the 2x acceptance bar"
        else
            echo "ok:   committed batched-vs-singles speedup ${committed}x (bar: 2x)"
        fi
    fi

    solve_fresh=$(mktemp /tmp/bench_solve.XXXXXX.json)
    BENCH_QUICK=1 cargo run -q --release -p parfact-bench --bin bench_solve -- "$solve_fresh"
    quick_speedup=$(awk '/"speedup":/ { gsub(/,/, "", $2); print $2 }' "$solve_fresh")
    rm -f "$solve_fresh"
    if [ -z "$quick_speedup" ]; then
        echo "WARN: quick bench_solve run produced no speedup entry"
    else
        losing=$(awk -v s="$quick_speedup" 'BEGIN { print (s < 1.0) ? 1 : 0 }')
        if [ "$losing" = 1 ]; then
            echo "WARN: quick run: blocked solve slower than single-RHS loop (${quick_speedup}x)"
        else
            echo "ok:   quick batched-vs-singles speedup ${quick_speedup}x (bar: 1x on the quick grid)"
        fi
    fi
else
    echo "WARN: $solve_baseline is missing — the batched-solve gate did NOT run; restore the committed artifact (git checkout -- $solve_baseline)"
fi

# --- Analysis-scaling gate (warn-only) -----------------------------------
# Two checks against BENCH_pr7.json: the committed artifact must still
# claim the >= 1.5x modeled analysis speedup at 4 threads the parallel-
# analysis work was accepted with (the artifact itself records ~2.6x on
# lap3d-32; 1.5x leaves re-measurement margin), and a fresh quick run must
# stay bitwise deterministic with a modeled speedup of at least 1x (the
# quick grid is too small to reproduce the full headroom).
analysis_baseline="BENCH_pr7.json"
if [ -f "$analysis_baseline" ]; then
    # modeled_speedup appears once per sweep row and once in the headline
    # object; the headline (the 4-thread figure) is written last.
    committed=$(awk '/"modeled_speedup":/ { gsub(/,/, "", $2); v = $2 } END { print v }' "$analysis_baseline")
    if [ -z "$committed" ]; then
        echo "WARN: $analysis_baseline has no headline modeled_speedup entry"
    else
        below=$(awk -v s="$committed" 'BEGIN { print (s < 1.5) ? 1 : 0 }')
        if [ "$below" = 1 ]; then
            echo "WARN: committed modeled analysis speedup ${committed}x is below the 1.5x bar"
        else
            echo "ok:   committed modeled analysis speedup ${committed}x at 4 threads (bar: 1.5x)"
        fi
    fi

    analysis_fresh=$(mktemp /tmp/bench_analysis.XXXXXX.json)
    BENCH_QUICK=1 cargo run -q --release -p parfact-bench --bin bench_analysis -- "$analysis_fresh"
    quick_speedup=$(awk '/"modeled_speedup":/ { gsub(/,/, "", $2); v = $2 } END { print v }' "$analysis_fresh")
    quick_det=$(awk '/"deterministic":/ { gsub(/,/, "", $2); v = $2 } END { print v }' "$analysis_fresh")
    rm -f "$analysis_fresh"
    if [ "$quick_det" != "true" ]; then
        echo "WARN: quick bench_analysis run was not bitwise deterministic"
    fi
    if [ -z "$quick_speedup" ]; then
        echo "WARN: quick bench_analysis run produced no modeled_speedup entry"
    else
        losing=$(awk -v s="$quick_speedup" 'BEGIN { print (s < 1.0) ? 1 : 0 }')
        if [ "$losing" = 1 ]; then
            echo "WARN: quick run: modeled analysis speedup ${quick_speedup}x below break-even"
        else
            echo "ok:   quick modeled analysis speedup ${quick_speedup}x at 4 threads (bar: 1x on the quick grid)"
        fi
    fi
else
    echo "WARN: $analysis_baseline is missing — the analysis-scaling gate did NOT run; restore the committed artifact or regen it (scripts/bench_check.sh regen)"
fi

# --- Scalability-model gate (warn-only) ----------------------------------
# Two checks against BENCH_pr9.json: the committed artifact's headline
# volume_model_ratio (measured / predicted comm volume at p=64 on
# lap3d-32) must still sit inside the [0.5, 2] acceptance window, and a
# fresh quick bench_scale run's ratio must agree with the committed one
# within 1.25x in either direction (the quick grid is smaller, but both
# ratios are dimensionless model fits and should be near 1; a drift past
# 1.25x means the engine's traffic or the model changed).
scale_baseline="BENCH_pr9.json"
if [ -f "$scale_baseline" ]; then
    # volume_model_ratio appears once per sweep row and once in the
    # headline object; the headline is written last.
    committed=$(awk '/"volume_model_ratio":/ { gsub(/,/, "", $2); v = $2 } END { print v }' "$scale_baseline")
    if [ -z "$committed" ]; then
        echo "WARN: $scale_baseline has no headline volume_model_ratio entry"
    else
        out=$(awk -v r="$committed" 'BEGIN { print (r < 0.5 || r > 2.0) ? 1 : 0 }')
        if [ "$out" = 1 ]; then
            echo "WARN: committed volume_model_ratio ${committed} is outside the [0.5, 2] acceptance window"
        else
            echo "ok:   committed volume_model_ratio ${committed} at p=64 (window: [0.5, 2])"
        fi
    fi

    scale_fresh=$(mktemp /tmp/bench_scale.XXXXXX.json)
    BENCH_QUICK=1 cargo run -q --release -p parfact-bench --bin bench_scale -- "$scale_fresh"
    quick_ratio=$(awk '/"volume_model_ratio":/ { gsub(/,/, "", $2); v = $2 } END { print v }' "$scale_fresh")
    rm -f "$scale_fresh"
    if [ -z "$quick_ratio" ]; then
        echo "WARN: quick bench_scale run produced no volume_model_ratio entry"
    else
        drift=$(awk -v q="$quick_ratio" -v c="$committed" \
            'BEGIN { r = q / c; if (r < 1) r = 1 / r; print (r > 1.25) ? 1 : 0 }')
        if [ "$drift" = 1 ]; then
            echo "WARN: quick volume_model_ratio ${quick_ratio} drifted >1.25x from committed ${committed}"
        else
            echo "ok:   quick volume_model_ratio ${quick_ratio} (committed ${committed}, tolerance 1.25x)"
        fi
    fi
else
    echo "WARN: $scale_baseline is missing — the scalability-model gate did NOT run; restore the committed artifact or regen it (scripts/bench_check.sh regen scale)"
fi

# --- Fault-recovery overhead gate (warn-only) ----------------------------
# Factor the same problem fault-free and under a deterministic mid-run
# crash with checkpointed recovery, then compare simulated makespans. The
# recovery run pays for the crashed attempt plus a restart that replays
# only the tail past the checkpoint cut, so its end-to-end virtual cost
# must stay under 2.5x the fault-free makespan (a scratch restart alone
# would already cost ~2x; the margin absorbs the deferred-send schedule).
ff_json=$(mktemp /tmp/bench_fault_ff.XXXXXX.json)
cr_json=$(mktemp /tmp/bench_fault_cr.XXXXXX.json)
cargo run -q --release --bin parfact-solve -- --gen lap3d:12 --ranks 8 \
    --report "$ff_json" >/dev/null
cargo run -q --release --bin parfact-solve -- --gen lap3d:12 --ranks 8 \
    --inject crash:3@send=5 --report "$cr_json" >/dev/null
ff_mk=$(awk '/"clock_s":/ { gsub(/,/, "", $2); if ($2 > m) m = $2 } END { print m }' "$ff_json")
cr_mk=$(awk '/"total_makespan_s":/ { gsub(/,/, "", $2); print $2 }' "$cr_json")
crashes=$(awk '/"crashes":/ { gsub(/,/, "", $2); print $2 }' "$cr_json")
rm -f "$ff_json" "$cr_json"
if [ -z "$ff_mk" ] || [ -z "$cr_mk" ]; then
    echo "WARN: fault-recovery runs produced no makespan entries"
elif [ "${crashes:-0}" = 0 ]; then
    echo "WARN: injected crash never fired; recovery overhead not measured"
else
    ratio=$(awk -v c="$cr_mk" -v f="$ff_mk" 'BEGIN { printf "%.2f", c / f }')
    over=$(awk -v r="$ratio" 'BEGIN { print (r > 2.5) ? 1 : 0 }')
    if [ "$over" = 1 ]; then
        echo "WARN: crash-recovery makespan ${cr_mk}s is ${ratio}x fault-free ${ff_mk}s (bar: 2.5x)"
    else
        echo "ok:   crash-recovery makespan ${cr_mk}s vs fault-free ${ff_mk}s (${ratio}x, bar: 2.5x)"
    fi
fi
exit 0
