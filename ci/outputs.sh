#!/usr/bin/env bash
# Write the CLI's output bytes for a fixed list of commands.
#
#   ci/outputs.sh TREE DIR
#
# runs each command with TREE/src on PYTHONPATH and writes its outputs into
# DIR, one file per command.  Run it on two trees and compare the results
# with `diff -r` to check that a change moves no output byte.  Set
# OPENBLAS_NUM_THREADS=1 for bytes that do not depend on the machine's core
# count (the d >= 3 spline-bench rows do).
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 TREE DIR" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$tree/src"

g() { rc=0; python -m grkhs.cli "$@" || rc=$?; echo "exit $rc"; }
# the same with warnings as errors
gw() { rc=0; python -W error -m grkhs.cli "$@" || rc=$?; echo "exit $rc"; }

g spectrum --gamma 1.0 --k 10 > spectrum.txt
# the factored Nystrom route on a small odd rule: the node at 0 joins the
# even block, and the smallest values reach 1e-18
g spectrum --gamma 0.1 --m 33 --k 10 > spectrum_m33.txt
# the dense Nystrom eigensolve: gamma = 10 needs 27,733 Taylor terms, past 3,000
g spectrum --gamma 10.0 --k 10 > spectrum_gamma10.txt
# every value of the rule (k = m): the whole factor, nothing left out
g spectrum --gamma 2.0 --m 64 --k 64 > spectrum_full.txt
# the factored cut on the largest rule, where 36 weights are exactly 0: it
# keeps 66 of 256 positive nodes and 795 of 2,588 Taylor columns
gw spectrum --gamma 3.0 --m 512 --k 10 > spectrum_m512.txt
# 2 gamma^2 underflows to 0: the Nystrom matrix is sqrt(w) sqrt(w)^T
gw spectrum --gamma 1e-300 --k 3 > spectrum_tiny.txt 2>&1
# closed and Nystrom values both underflow to 0 from j = 10 on
gw spectrum --gamma 1e-20 --k 10 > spectrum_underflow.txt 2>&1
g eigs --shape iso:1.0 --d 3 --n 20 > eigs.txt
g decay --shape powerlaw:1:2 --d 4 --N 1000 --out decay.csv > decay.txt
# several dimensions: one file per d, decay_multi_d2.csv and decay_multi_d3.csv
g decay --shape iso:1.0 --d 2,3 --N 300 --out decay_multi > decay_multi.txt
g complexity --shape iso:1.0 --d 1,2,4,8 --eps 0.5,0.1,0.01 > complexity.txt
GRKHS_MAX_EIGS=3000 g complexity --shape powerlaw:1:0.5 --d 8,16 \
  --eps 0.01,0.001 --criterion norm > trip.txt 2> trip.err
# groups of multiplicity 2 on both sides: weighted halves
gw complexity --shape explicit:1.0,1.0,0.5,0.5,0.25,0.25 --d 6 \
  --eps 0.1,0.01,0.001 --criterion norm > weighted.txt 2>&1
# a trip at the default guard, n >= 9380435
g complexity --shape powerlaw:1:0.25 --d 256 --eps 0.001 --criterion norm \
  > trip_default.txt 2> trip_default.err
# a trip where an odd number of cost groups reach the budget
GRKHS_MAX_EIGS=3000 g complexity --shape geom:0.9 --d 64 --eps 0.001 \
  --criterion abs > trip_odd.txt 2> trip_odd.err
# the benchmark's many-group row: 110 cost groups per op
g complexity --shape geom:0.9 --d 8,64,256 --eps 0.001 --criterion abs > geom.txt
g rates --shape powerlaw:1:2 --d 16 --N 10000 --window 100,10000 > rates.txt
# the enumeration guard's message
GRKHS_MAX_EIGS=100 g eigs --shape iso:1.0 --d 3 --n 101 > guard_eigs.txt 2>&1
g spline-bench --shape iso:1.0 --d 1,2 --sizes 1,5,10,20 --seed 7 > spline.txt
# d = 3 through Lanczos on a 12^3 grid
g spline-bench --shape iso:1.0 --d 3 --sizes 5,20 --m 12 --seed 3 > spline_d3.txt
# --config entries read as flags, one of them overridden on the command line
echo '{"shape": "powerlaw:1:2", "d": "4", "N": "200"}' > decay_config.json
g decay --config decay_config.json --N 50 > decay_config.txt
# empty designs at N = 6, 36 and 216
gw spline-bench --shape iso:1.0 --d 1,2,3 --sizes 0,1,3 --m 6 --seed 3 \
  > spline_empty.txt 2>&1
# grids of fewer nodes than the Krylov basis (N = 2, 4, 8), and N = 1
gw spline-bench --shape iso:1.0 --d 1,2,3 --sizes 0,1,2 --m 2 --seed 5 \
  > spline_tiny.txt 2>&1
gw spline-bench --shape iso:1.0 --d 1,2,3 --sizes 0,1,2 --m 1 --seed 5 \
  > spline_one.txt 2>&1
# tie order at scale: isotropic shapes tie at every coordinate,
# and gamma = 1e14 ties runs of powers (absorbed log ratios)
g decay --shape iso:1.0 --d 8 --N 5000 > decay_iso8.txt
g eigs --shape iso:1.0 --d 50 --n 3000 > eigs_iso50.txt
g eigs --shape "explicit:$(printf '1e14,%.0s' {1..39})1e14" --d 40 --n 200 \
  > eigs_absorbed.txt
# the values pass over 50 tied coordinates, and over groups of equal
# gammas next to an absorbed log ratio
gw decay --shape iso:1.0 --d 50 --N 1000 > decay_iso50.txt 2>&1
gw decay --shape explicit:1.0,1.0,0.5,0.5,0.5,1e14 --d 6 --N 3000 \
  > decay_groups.txt 2>&1
# a rule's gamma that underflows to exactly 0 (0.5^1100, 200^-50): ratio 0
gw eigs --shape geom:0.5 --d 1100 --n 5 > eigs_geom_zero.txt 2>&1
gw decay --shape powerlaw:1:200 --d 50 --N 5 > decay_powerlaw_zero.txt 2>&1
# more than 2n prefixes tie at the cut: the merge's tie step
gw eigs --shape iso:1e15 --d 20 --n 500 > eigs_absorbed_iso.txt 2>&1
# the tie step twice, after a coordinate with a normal log ratio
gw eigs --shape explicit:0.7,1e14,1e14,1e14,1e14,1e14,1e14,1e14 --d 8 --n 300 \
  > eigs_tie_after_normal.txt 2>&1
# the merge's main branch over 64 coordinates
gw eigs --shape powerlaw:1:0.5 --d 64 --n 2000 > eigs_powerlaw64.txt 2>&1
# underflowed ratios (gamma = 1e-200): log ratio -inf, cost +inf
for c in abs norm; do
  gw complexity --shape explicit:1.0,1e-200 --d 2 --eps 0.5,0.1 \
    --criterion "$c" > "underflow_$c.txt" 2>&1
done
gw eigs --shape explicit:1e-200,1e-200 --d 2 --n 6 > underflow_eigs.txt 2>&1
gw eigs --shape explicit:1e-200,1e-200,1e-200 --d 3 --n 40 \
  > underflow_eigs3.txt 2>&1
# eight underflowed ratios: zeros written out past the exhaustive box
gw eigs --shape "explicit:$(printf '1e-200,%.0s' {1..7})1e-200" --d 8 --n 30 \
  > underflow_eigs8.txt 2>&1
# a mixed shape whose -inf coordinate comes first, so the values
# pass pads with zeros before it meets a finite log ratio
gw decay --shape explicit:1e-200,1.0,0.5 --d 3 --N 200 \
  > underflow_decay_mixed.txt 2>&1
# the parser is built from the command table
g --help > help.txt
for c in spectrum eigs decay complexity rates spline-bench verify; do
  g "$c" --help > "help_$c.txt"
done
g verify > verify.txt
# no command runs eigen_projection, yet the benchmark's eigproj
# reference reads its coefficient bits: two cosine products
python -c 'import numpy as np, grkhs; s = grkhs.ShapeSequence.isotropic(1.0); f = lambda p: np.prod(np.cos(0.6 * p + 0.4), axis=1); [print(d, n, m, *(c.hex() for c in grkhs.eigen_projection(s, d, n, f, m).coefficients.tolist())) for d, n, m in [(2, 500, 64), (3, 129, 16)]]' > eigproj.txt
# the shape-parameter rule, the eigenvalue ratio and its gate:
# log spectra and gammas in hex, then the gate's messages
python -W error -c '
import grkhs.kernel as k
S = k.ShapeSequence
mix = S.explicit([0.7, 1e-200, 1e15, 2.0**-40, 1e-162, 1.3, 0.7])
for s, d in [(S.isotropic(1e-200), 2000), (S.isotropic(1e15), 2000),
             (S.power_law(3.7, 0.61), 2000), (S.geometric(0.93), 2000), (mix, 7)]:
    base, log_ratio = k._log_spectrum(s, d)
    print(repr(s), d, base.hex(), *(x.hex() for x in log_ratio.tolist()))
    print(*(x.hex() for x in s.gammas(d).tolist()))
for g in [0.0, -1.0, float("nan"), float("inf"), 1e17, 1e200]:
    try:
        k.eigenvalue_ratio(g)
    except ValueError as exc:
        print(exc)
' > kernel_rules.txt
