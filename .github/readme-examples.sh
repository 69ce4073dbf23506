#!/bin/sh
# Run the README's command-line examples, warnings as errors, writing their
# outputs to the current directory:
#   cd "$(mktemp -d)" && sh /path/to/checkout/.github/readme-examples.sh
set -eu
data="$(cd "$(dirname "$0")/.." && pwd)/src/vlcrelay/data"
cli() { python -W error -m vlcrelay.cli "$@" > /dev/null; }
cli simulate --baud 230000 --mode beacon --per 0.1 --n 20000 --seed 7 --out trace.vlct
cli simulate --baud 230000 --mode beacon --per 0.1 --n 20000 --seed 7 --out trace.csv
cli simulate --process 'gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5' \
    --n 20000 --seed 1 --seed 2 --seed 3 --jobs 4
cli simulate --per 0.1 --ipd-us 1000 --n 100000 --seed 1 --out wide-gap.vlct
cli analyze trace.vlct --clusters-out clusters.csv --report-out report.txt
cli analyze trace.csv --clusters-out clusters_csv.csv --report-out report_csv.txt
cli sal --baud 230000 --targets 0.9,0.95,0.99,0.999 \
    --per-grid 6e-4,2e-3,3e-3,0.2,0.3 --out sal.csv
cli sal --baud 230000 --targets 0.9,0.95,0.99,0.999 \
    --per-grid 5e-4,6e-4 --out sal-edge.csv
cli safety --out safety.csv
cli ingest-per-table "$data/per_distance.csv" --out normalized.csv --distance-m 35 --baud 230000
