#!/bin/sh
# Run the fixed command set of ROADMAP.md against the qlsat sources of one
# checkout and keep everything each command leaves behind.
#
#   tools/fixed_commands.sh SRC OUT
#
# SRC is the root of a checkout (its package is imported from SRC/src).
# The commands run from OUT, one after another, with one BLAS thread and no
# QLSAT_* overrides.  Command NN leaves NN.out, NN.err and NN.code (its exit
# status) in OUT; files the commands write (the generated instances in
# inst/) stay there too.  Running the script for two checkouts and
# comparing the two OUT directories with `diff -r` is the byte-identity
# check for a change.
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
qlsat verify
qlsat verify --alpha 2 --dense-limit 5
qlsat generate --out-dir wide --ensemble prespecified-solution --n 70 --m 300 --trials 3 --seed 5
qlsat run --ensemble random --n 12 --k 5 --m 200 --trials 3 --seed 2
qlsat generate --out-dir cnt --ensemble random-soluble --n 14 --m 56 --trials 3 --seed 4 \
    --count-solutions
qlsat run --ensemble random-soluble --n 16 --m 64 --trials 2 --seed 9 --policy neighborhood
qlsat run --ensemble random --n 15 --m 60 --trials 2 --seed 9 --alpha 3 --histograms --format csv
qlsat run --ensemble random --n 17 --m 0 --trials 1 --seed 9 --policy neighborhood
qlsat sweep --axis n --values 1:6 --k 1 --m-ratio 1 --ensemble prespecified-solution \
    --trials 4 --seed 11 --alpha 0 --policy neighborhood
qlsat run --ensemble random-soluble --n 4 --k 2 --m 6 --trials 3 --seed 11 --alpha 0 \
    --histograms --format csv
qlsat run --engine compact --n 8 --alpha 2
qlsat sweep --axis m-over-n --values 3 --n 8 --m 7 --ensemble random
qlsat run inst/*.cnf cnt/*.cnf --policy neighborhood --histograms --format csv
qlsat run --engine compact --n 120 --policy neighborhood --n-start 100 --histograms
qlsat sweep --axis n --values 4:8:2 --engine compact --m 6 --format csv
qlsat run --engine compact --n 30 --policy neighborhood --trials 3 --threads 2 --histograms \
    --format csv
qlsat generate --out-dir sol --ensemble random --n 10 --m 50 --trials 6 --seed 4 --check-soluble
qlsat generate --out-dir 01.out/x --ensemble random --n 5 --m 10
qlsat run --engine compact --n 30 --policy neighborhood --n-start 40 --histograms
qlsat run --engine compact --n 3 --policy neighborhood --histograms
qlsat run --engine compact --n 5 --c-start 7/2 --histograms
qlsat run --engine compact --n 1030 --policy neighborhood
qlsat run --engine compact --n 1031
qlsat run --ensemble random-soluble --n 19 --m 76 --trials 1 --seed 9 --policy neighborhood \
    --histograms --format csv
