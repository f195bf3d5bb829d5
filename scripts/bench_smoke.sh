#!/usr/bin/env bash
# Determinism smoke check for odbsim_paper, the program that prints the
# paper.
#
# Builds odbsim_paper in a Release tree and prints the whole paper
# twice, at --jobs 0 and at --jobs 3 (an odd worker count), into two
# temporary CSV directories: stdout and all four CSVs (both studies, the
# islands sweep and the faults study) must match byte for byte. Then
# fig19_itanium2 at --jobs 1 measures both studies serially; its two
# study CSVs must match the other runs' and the goldens at the repo
# root. The goldens are gitignored, so a fresh checkout seeds them
# from that serial run.
#
# Any differing byte fails the script, and so does any nonzero exit of
# odbsim_paper, 3 from the islands or faults self-check included. The
# temporary directories are removed on exit, so no CSV lands in the
# source tree except a seeded golden.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build-smoke)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-smoke}"

echo "== configure + build (Release) =="
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" --target odbsim_paper
paper="$build_dir/bench/odbsim_paper"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

# run <dir> <args...>: odbsim_paper's stdout goes to <dir>/stdout, its
# CSVs into <dir>; a nonzero exit stops the script with that code.
run() {
    local dir="$1"
    shift
    mkdir -p "$dir"
    local rc=0
    "$paper" "$@" --csv-dir "$dir" > "$dir/stdout" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL odbsim_paper $* exited with $rc" >&2
        exit "$rc"
    fi
}

status=0
# same <what> <file> <file>: report whether two files are identical.
same() {
    if cmp -s "$2" "$3"; then
        echo "OK  $1"
    else
        echo "FAIL $1" >&2
        status=1
    fi
}

echo "== whole paper, --jobs 0 =="
run "$tmp_dir/j0" -j 0
echo "== whole paper, --jobs 3 =="
run "$tmp_dir/j3" -j 3
for f in stdout odbsim_study_xeon-quad-mp.csv \
        odbsim_study_itanium2-quad.csv \
        odbsim_islands_xeon-quad-mp.csv odbsim_faults_xeon-quad-mp.csv; do
    same "$f is bit-identical (--jobs 0 vs --jobs 3)" \
        "$tmp_dir/j0/$f" "$tmp_dir/j3/$f"
done

echo "== fig19_itanium2, --jobs 1 (both studies, serially) =="
run "$tmp_dir/j1" fig19_itanium2 -j 1
for golden in odbsim_study_xeon-quad-mp.csv odbsim_study_itanium2-quad.csv; do
    same "$golden is bit-identical (--jobs 1 vs --jobs 0)" \
        "$tmp_dir/j1/$golden" "$tmp_dir/j0/$golden"
    if [ ! -f "$repo_root/$golden" ]; then
        # A fresh checkout has no golden: seed it from the serial run;
        # every later run is diffed against that seed.
        cp "$tmp_dir/j1/$golden" "$repo_root/$golden"
        echo "SEED $golden was absent; seeded from the serial run"
        continue
    fi
    same "$golden is bit-identical to the golden (--jobs 1)" \
        "$repo_root/$golden" "$tmp_dir/j1/$golden"
done

if [ "$status" -eq 0 ]; then
    echo "bench_smoke: PASS"
else
    echo "bench_smoke: FAIL — simulated results changed" >&2
fi
exit "$status"
