#!/bin/sh
# Run the fixed command set against the qlsat sources of one checkout and
# keep everything each command leaves behind.
#
#   tools/fixed_commands.sh SRC OUT
#
# SRC is the root of a checkout (its package is imported from SRC/src).
# The commands run from OUT, one after another, with one BLAS thread and no
# QLSAT_* overrides.  Command NN leaves NN.out, NN.err and NN.code (its exit
# status) in OUT; files the commands write (the generated instances in
# inst/) stay there too.  The CLI pins OpenBLAS to one thread itself, so
# two BLAS threads give the same bytes.
#
# The gate on "the same command line gives the same bytes" is
# tests/test_fixed_commands.py, which runs this script and compares every
# file with tests/fixed_commands.sha256.  After a change that moves bytes by
# design, rewrite that manifest from the root of the checkout with
#
#   python tests/test_fixed_commands.py > tests/fixed_commands.sha256
#
# Running the script for two checkouts and comparing the two OUT
# directories with `diff -r` shows what moved.
#
# Each command says what it reaches; do not drop one without a replacement.
# Every command exits 0 unless its comment says otherwise.  The compact
# engine runs in commands 06-08, 11, 12, 24-26 and 29-33.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd) || exit 1
mkdir -p "$2" && cd "$2" || exit 1

unset QLSAT_SEED QLSAT_THREADS QLSAT_FORMAT QLSAT_FULL_LIMIT QLSAT_DENSE_LIMIT
export PYTHONPATH="$src/src"
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

count=0
qlsat() {
    count=$((count + 1))
    tag=$(printf '%02d' "$count")
    python3 -m qlsat "$@" >"$tag.out" 2>"$tag.err"
    echo $? >"$tag.code"
}

# 01-10: the everyday paths: generated files run back, inline batches as
# jsonl and csv, threads, histograms, compact runs and sweeps, explicit
# policy flags
qlsat generate --out-dir inst --ensemble random-soluble --n 10 --m 40 --trials 5 --seed 1
qlsat run inst/*.cnf --policy neighborhood --histograms
qlsat run --ensemble random --n 12 --m 48 --trials 20 --seed 7
qlsat run --ensemble random --n 12 --m 48 --trials 20 --seed 7 --format csv
qlsat run --ensemble prespecified-solution --n 10 --m 40 --trials 10 --seed 3 \
    --policy neighborhood --histograms --format csv --threads 2
qlsat run --engine compact --n 200 --policy neighborhood --histograms
qlsat sweep --axis n --values 20:200:20 --engine compact --policy neighborhood
qlsat sweep --axis n --values 20:200:20 --engine compact --policy simple-threshold --format csv
qlsat sweep --axis m-over-n --values 3:6 --n 10 --ensemble prespecified-solution \
    --trials 25 --seed 3
qlsat run --ensemble random --n 10 --m 40 --trials 5 --alpha 3 --j-max 3 --c-start 9/2
# 11: exits 0
qlsat verify
# 12: exits 2
qlsat verify --alpha 2 --dense-limit 5
# 13: clause masks past 64 bits
qlsat generate --out-dir wide --ensemble prespecified-solution --n 70 --m 300 --trials 3 --seed 5
# 14-15: the unranking, the draw and the backtracking search
qlsat run --ensemble random --n 12 --k 5 --m 200 --trials 3 --seed 2
qlsat generate --out-dir cnt --ensemble random-soluble --n 14 --m 56 --trials 3 --seed 4 \
    --count-solutions
# 16-18: full trials above n = 13, where the mixing weights span pieces
qlsat run --ensemble random-soluble --n 16 --m 64 --trials 2 --seed 9 --policy neighborhood
qlsat run --ensemble random --n 15 --m 60 --trials 2 --seed 9 --alpha 3 --histograms --format csv
qlsat run --ensemble random --n 17 --m 0 --trials 1 --seed 9 --policy neighborhood
# 19-20: the smallest transform plans, with --alpha 0 and --histograms
qlsat sweep --axis n --values 1:6 --k 1 --m-ratio 1 --ensemble prespecified-solution \
    --trials 4 --seed 11 --alpha 0 --policy neighborhood
qlsat run --ensemble random-soluble --n 4 --k 2 --m 6 --trials 3 --seed 11 --alpha 0 \
    --histograms --format csv
# 21-22: two usage errors, each exits 1, so the flag checks are gated on
# their stderr bytes
qlsat run --engine compact --n 8 --alpha 2
qlsat sweep --axis m-over-n --values 3 --n 8 --m 7 --ensemble random
# 23: one batch over the n = 10 and n = 14 files of commands 01 and 15, so
# mixing weights shared across n are gated
qlsat run inst/*.cnf cnt/*.cnf --policy neighborhood --histograms --format csv
# 24: +1 shells that start in the upper shells (n_start = 100 of n = 120)
qlsat run --engine compact --n 120 --policy neighborhood --n-start 100 --histograms
# 25: a sweep point whose trial fails (n = 4 < m = 6): its error record and
# a quoted CSV cell
qlsat sweep --axis n --values 4:8:2 --engine compact --m 6 --format csv
# 26: a compact batch given two threads: its one shared shell run and the
# nested CSV cells of its histograms
qlsat run --engine compact --n 30 --policy neighborhood --trials 3 --threads 2 --histograms \
    --format csv
# 27: --check-soluble over six random draws, soluble false, true, false,
# true, true, false
qlsat generate --out-dir sol --ensemble random --n 10 --m 50 --trials 6 --seed 4 --check-soluble
# 28: an --out-dir below a regular file (command 01's stdout), refused up
# front: exits 1
qlsat generate --out-dir 01.out/x --ensemble random --n 5 --m 10
# 29: nine empty +1 sets (n_start = 40 of n = 30)
qlsat run --engine compact --n 30 --policy neighborhood --n-start 40 --histograms
# 30-31: the two half ties: neighborhood at m = 3, and simple-threshold at
# n = 5 with --c-start 7/2
qlsat run --engine compact --n 3 --policy neighborhood --histograms
qlsat run --engine compact --n 5 --c-start 7/2 --histograms
# 32-33: the only compact runs past m = 1026, so the shell transform's
# rescale branch is gated
qlsat run --engine compact --n 1030 --policy neighborhood
qlsat run --engine compact --n 1031
# 34: the only full trial above n = 17: its state spans four 2**17-entry
# blocks of the low passes, and a 3-bit pass is left in the high group
qlsat run --ensemble random-soluble --n 19 --m 76 --trials 1 --seed 9 --policy neighborhood \
    --histograms --format csv
# 35: a fixed planted value at k = 2, so the planted skip is gated apart
# from the planted draw
qlsat generate --out-dir pin --ensemble prespecified-solution --n 9 --k 2 --m 20 --planted 300 \
    --trials 2 --seed 8
# 36: a draw of the whole clause universe (m = 16 of n = 8, k = 1)
qlsat run --ensemble random --n 8 --k 1 --m 16 --trials 2 --seed 5 --histograms
# 37: random clause masks past 64 bits
qlsat generate --out-dir wide2 --ensemble random --n 66 --k 2 --m 50 --trials 2 --seed 3
# 38: a dense limit above the largest dense matrix, refused before any
# check: exits 3
qlsat verify --dense-limit 13
