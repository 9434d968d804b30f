#!/usr/bin/env bash
# Byte-identity check for refactors: run one artifact set from each of two
# source trees and cmp every file the two runs write.
#
#   tools/cmp_artifacts.sh PARENT_TREE CHANGE_TREE
#
# Each tree is a checkout with the package under src/.  For each tree, with
# one BLAS thread and in a directory of its own, the script runs
#   * default sizes: gen-data of 48 training and 16 held-out scenes, train
#     for 4 model and 4 gate epochs, eval with the gate on and off;
#   * the same two evals of that model on a tie set, where tie-breaks decide
#     AP: the first 4 held-out scenes repeated 4 times under the unsorted ids
#     tie{7i mod 16:02d}, labels zeroed on alternate repeats, so each cell's
#     score ties with 3 others, positive and negative (written with the
#     tree's own read_corpus and write_corpus);
#   * one more eval of that model, gate on, at gate.t_veto=0.6 and
#     eval.threshold=1.0, where the gate changes a false-positive count
#     (fp_total 19 against fp_total_nogate 20); at the default threshold
#     (= gate.t_main = 0) no such count can differ;
#   * the same default-size set with model.ablate_speaker=true;
#   * [4, 48] scenes with model.ablate_temporal=true: 24 + 16 scenes, 2 + 2
#     epochs, the same train and evals;
#   * gradcheck at model.init_seed 0 and 3, of the model ablated by
#     model.ablate_speaker=true and by model.ablate_temporal=true, which
#     holds only the blocks it runs, and at model.mlp_ratio=2, a model key
#     the audit's fixed sizes (cli.TINY) leave to the user;
#   * gen-data only, of the same two corpora at 4 speakers with every
#     multi-speaker frame kept up to a cap of 3 and no noise, where the
#     generator's overlap branch runs on most frames, not on a few.
# Corpora, checkpoints, train logs, prediction CSVs, metrics and every
# command's stdout are compared: 58 files, 13 per train and eval set, 7 from
# the tie set, 3 from the veto operating point, the five gradcheck reports
# and 4 from the gen-data pair.
# Last, it prints each tree's line total of src/dualstream/*.py, raw and in
# code lines: blank, comment-only and docstring lines are not counted, so
# deleting comments does not read as a smaller program.  Exit 0: every
# pair is byte-identical.
# Exit 1: each differing file is named, a text file with the first
# lines of its diff (parent <, change >), and both runs are kept for a look.
# Exit 2: a command failed.  About 26 s per tree on a 2-core x86 host.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2
    exit 2
fi

export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
work=$(mktemp -d)
keep=0
trap '[ "$keep" -eq 1 ] || rm -rf "$work"' EXIT

run_set() {  # run_set TREE OUT_DIR
    local tree=$1 src
    src=$(cd "$tree" && pwd)/src
    mkdir -p "$2"
    (
        cd "$2"
        ds() {
            PYTHONPATH="$src" python3 -m dualstream "$@" || {
                echo "cmp_artifacts: failed in $tree: dualstream $*" >&2
                exit 2
            }
        }
        gen_pair() {  # gen_pair TAG TRAIN_SCENES [--set KEY=VALUE]...
            local tag=$1 scenes=$2
            shift 2
            ds "$@" gen-data --seed 7 --scenes "$scenes" \
                --out "$tag.train.bin" > "$tag.gen-train.out"
            ds "$@" gen-data --seed 1000 --scenes 16 \
                --out "$tag.held.bin" > "$tag.gen-held.out"
        }
        pipeline() {  # pipeline TAG TRAIN_SCENES EPOCHS [--set KEY=VALUE]...
            local tag=$1 scenes=$2 epochs=$3
            shift 3
            gen_pair "$tag" "$scenes" "$@"
            ds "$@" --set "gate.epochs=$epochs" train --epochs "$epochs" \
                --corpus "$tag.train.bin" --out "$tag.ckpt" > "$tag.train.out"
            for gate in on off; do
                ds "$@" eval --corpus "$tag.held.bin" --model "$tag.ckpt" \
                    --gate "$gate" --predictions "$tag.gate-$gate.csv" \
                    --metrics "$tag.gate-$gate.metrics" > "$tag.gate-$gate.out"
            done
        }
        pipeline default 48 4
        PYTHONPATH="$src" python3 -c '
from dataclasses import replace
from dualstream.data import read_corpus, write_corpus
first = read_corpus("default.held.bin")[:4]
write_corpus([replace(sc, scene_id=f"tie{7 * i % 16:02d}",
                      labels=sc.labels * (i // 4 % 2 == 0))
              for i, sc in enumerate(first * 4)], "tie.held.bin")' || exit 2
        for gate in on off; do
            ds eval --corpus tie.held.bin --model default.ckpt --gate "$gate" \
                --predictions "tie.gate-$gate.csv" \
                --metrics "tie.gate-$gate.metrics" > "tie.gate-$gate.out"
        done
        ds --set gate.t_veto=0.6 --set eval.threshold=1.0 eval \
            --corpus default.held.bin --model default.ckpt --gate on \
            --predictions veto.gate-on.csv --metrics veto.gate-on.metrics \
            > veto.gate-on.out
        pipeline speaker 48 4 --set model.ablate_speaker=true
        pipeline long 24 2 --set data.frames=48 --set data.speakers=4 \
            --set model.ablate_temporal=true
        for seed in 0 3; do
            ds --set "model.init_seed=$seed" gradcheck > "gradcheck-$seed.out"
        done
        for stream in speaker temporal; do
            ds --set "model.ablate_$stream=true" gradcheck \
                > "gradcheck-ablate-$stream.out"
        done
        ds --set model.mlp_ratio=2 gradcheck > gradcheck-mlp-ratio-2.out
        gen_pair overlap 48 --set data.speakers=4 --set data.overlap_rate=1 \
            --set data.max_concurrent=3 --set data.noise_std=0
    )
}

run_set "$1" "$work/parent"
run_set "$2" "$work/change"

is_text() {  # present on this side, and not binary to grep -I
    [ -f "$1" ] && LC_ALL=C grep -qI . "$1"
}

status=0
while IFS= read -r name; do
    a=$work/parent/$name b=$work/change/$name
    if ! cmp -s "$a" "$b"; then
        echo "differs: $name"
        status=1
        if is_text "$a" && is_text "$b"; then
            lines=$(diff "$a" "$b" || true)
            sed -n '1,20s/^/    /p' <<< "$lines"
            total=$(wc -l <<< "$lines")
            [ "$total" -le 20 ] || echo "    ... ($total diff lines in all)"
        fi
    fi
done < <({ (cd "$work/parent" && find . -type f)
           (cd "$work/change" && find . -type f); } | sort -u)

if [ "$status" -eq 0 ]; then
    echo "all $(find "$work/parent" -type f | wc -l) files byte-identical"
else
    keep=1
    echo "runs kept in $work"
fi
for tree in "$1" "$2"; do
    code=$(python3 -c '
import ast, sys
code = 0
for path in sys.argv[1:]:
    text = open(path).read()
    docs = {i for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Expr)
            and isinstance(n.value, ast.Constant) and isinstance(n.value.value, str)
            for i in range(n.lineno, n.end_lineno + 1)}
    code += sum(1 for i, line in enumerate(text.splitlines(), 1) if i not in docs
                and line.strip() and not line.lstrip().startswith("#"))
print(code)' "$tree"/src/dualstream/*.py)
    echo "$(cat "$tree"/src/dualstream/*.py | wc -l) lines ($code code lines) in $tree/src/dualstream/*.py"
done
exit "$status"
