#!/bin/sh
# A/A comparison of the benchmark against itself; see aa.py.
#   benchmark/aa.sh RUNS [WORKLOAD...]
exec python3 "$(dirname "$0")/aa.py" "$@"
