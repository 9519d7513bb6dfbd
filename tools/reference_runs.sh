#!/usr/bin/env bash
# Same-bytes check: train ten reference models from the source in REPO, score
# each with `eval`, and print the sha256 of the 30 outputs (checkpoint.bin,
# metrics.jsonl and nodes.csv per run), one line each. Two trees that write the
# same bytes print the same lines:
#
#   tools/reference_runs.sh PARENT_CHECKOUT /tmp/ref-parent > parent.sha
#   tools/reference_runs.sh .               /tmp/ref-change > change.sha
#   diff parent.sha change.sha
#
# Runs under one OpenBLAS thread, so the bytes do not depend on the machine's
# core count. Takes about 20 s on a 2-core machine.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 REPO OUT" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"
out=$(cd "$out" && pwd)

export OPENBLAS_NUM_THREADS=1
export PYTHONPATH="$repo/src"
graph=(--sbm 600,4,16,0.02,0.05,1.25 --seed 3)

run() {
    local name=$1
    shift
    python -m d2moe.cli train "${graph[@]}" --experts 6 --epochs 25 "$@" \
        --out-dir "$out/$name" > /dev/null
    python -m d2moe.cli eval "${graph[@]}" --checkpoint "$out/$name/checkpoint.bin" \
        --out-dir "$out/$name" > /dev/null
}

run plain
run sage_half_half_bn --backbone sage --expert-layout half_half --batch-norm
run strict_bn --strict-proxy --batch-norm
run static_topk2 --variant static_topk --k 2
run no_dropout_bn --dropout 0 --batch-norm
run no_decay_3layer --weight-decay 0 --layers 3
run random_topp --variant random_topp
run early_stop --epochs 80 --patience 5  # stops after 19 epochs, best epoch 13
run clip --lambda-lb 10  # the gradient clip fires in 8 of 25 epochs
run no_penalties --lambda-re 0 --lambda-lb 0

cd "$out"
for name in plain sage_half_half_bn strict_bn static_topk2 no_dropout_bn no_decay_3layer \
        random_topp early_stop clip no_penalties; do
    sha256sum "$name/checkpoint.bin" "$name/metrics.jsonl" "$name/nodes.csv"
done
