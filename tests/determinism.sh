#!/bin/sh
# The determinism gate: selections, modeled cycles and synthesis query
# counts of the bench drivers must match the goldens under
# tests/golden/ byte for byte. Wall-clock columns are never compared.
#
# Usage: determinism.sh BENCH_DIR CASE [GOLDEN]
#
# Prints the normalized output of CASE (fig11, fig11_dag, fig4, fig12,
# table1, table1_neon, table1_selections, table1_neon_selections,
# micro_synth_hvx, micro_synth_neon) run from BENCH_DIR; with GOLDEN,
# diffs it
# against that file instead and exits nonzero on any difference.
# Regenerate a golden after an intended synthesis change with
#   tests/determinism.sh build/bench table1 > tests/golden/table1.txt
set -eu

bench=$1
case_name=$2
golden=${3:-}

# Knobs that would route queries through another tier or change the
# schedule: the gate measures cold, default-configured synthesis.
unset RAKE_CACHE_DIR RAKE_RULES RAKE_JOBS RAKE_TIMEOUT_MS \
      RAKE_RUN_TIMEOUT_MS RAKE_TRACE

# Query columns of every Table 1 row plus the memory-tier summary.
table1() {
    "$bench/table1_compile_stats" --jobs 4 "$@" 2>/dev/null |
        awk '/^synthesis cache:/ { print; next }
             /^[a-z(]/ && NF == 10 { print $1, $2, $3, $4, $5 }'
}

# Every program a table1 run selects, one s-expression per line.
selections() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    "$bench/table1_compile_stats" --jobs 4 "$@" \
        --selections "$tmp/sel.sexpr" >/dev/null 2>&1
    cat "$tmp/sel.sexpr"
}

# Per-case counters (swizzle memo hits included) and the selected
# program of a cold micro_synth run on target $1 against a fresh cache
# dir.
micro_synth() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    "$bench/micro_synth" --target "$1" --iters 1 \
        --cache-dir "$tmp/cache" --json "$tmp/ms.json" >/dev/null
    sed 's/.*"cases":\[//' "$tmp/ms.json" |
        grep -o '"\(name\|queries\|dedup_skips\|ref_cache_hits\|swizzle_memo_hits\|selection\)":\("[^"]*"\|[0-9]*\)'
}

run() {
    case $case_name in
      fig11) "$bench/fig11_speedups" --jobs 4 2>/dev/null ;;
      fig11_dag) "$bench/fig11_speedups" --jobs 4 --dag 2>/dev/null ;;
      fig4) "$bench/fig4_sobel_codegen" ;;
      fig12) "$bench/fig12_patterns" ;;
      table1) table1 ;;
      table1_neon) table1 --target neon ;;
      table1_selections) selections ;;
      table1_neon_selections) selections --target neon ;;
      micro_synth_hvx) micro_synth hvx ;;
      micro_synth_neon) micro_synth neon ;;
      *) echo "determinism.sh: unknown case '$case_name'" >&2; exit 2 ;;
    esac
}

if [ -z "$golden" ]; then
    run
    exit 0
fi
out=$(mktemp)
run > "$out"
if diff -u "$golden" "$out"; then
    rm -f "$out"
else
    rm -f "$out"
    echo "determinism.sh: $case_name differs from $golden" >&2
    exit 1
fi
