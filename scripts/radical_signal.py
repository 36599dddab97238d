#!/usr/bin/env python
"""Ablation: does the radical channel help on held-out characters?

Sentence-final characters are drawn from the water and speech radical classes,
and the test units use finals never seen in training. The radical model can
generalize through the shared radical rows; the char-only ablation sees UNK.
Reports per-seed F1 for both models and the mean gap.
"""

import argparse
import time

from synthetic import run_radical_signal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    def report(run):
        print(f"seed {run.seed}: radical F1={run.f1_radical:.4f}  "
              f"char-only F1={run.f1_char_only:.4f}  gap={run.gap:+.4f}")

    t0 = time.time()
    result = run_radical_signal(seeds=tuple(args.seeds), progress=report)
    print(f"mean: radical F1={result.mean_f1_radical:.4f}  "
          f"char-only F1={result.mean_f1_char_only:.4f}  "
          f"gap={result.mean_gap:+.4f}  ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
