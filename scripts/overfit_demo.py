#!/usr/bin/env python
"""Train on the 20-unit synthetic fixture at the default hyperparameters and
report the training-set F1, plus a sample segmentation from the fixture rule.
"""

import argparse
import time

from judou.synthetic import OVERFIT_MARKER, run_overfit
from judou.segmenter import segment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    def report(epoch, record):
        print(f"epoch {epoch + 1:2d} loss={record.mean_loss:8.4f} "
              f"train F1={record.val_report.f1:.4f} clip={record.clip_rate:.2f}")

    t0 = time.time()
    model, rep, log = run_overfit(seed=args.seed, progress=report)
    print(f"best epoch {log.best_epoch + 1}, train F1={rep.f1:.4f} "
          f"({time.time() - t0:.1f}s)")
    sample = f"天地{OVERFIT_MARKER}山水{OVERFIT_MARKER}日月{OVERFIT_MARKER}"
    print(f"segment({sample!r}) -> {segment(model, sample)!r}")


if __name__ == "__main__":
    main()
