#!/usr/bin/env python3
"""Sweep the degree/motion property suite over exhaustive and random corpora.

Writes a JSON report and prints a summary. Nonzero exit iff any check fails.

    python3 scripts/theorem_sweep.py --max-n 9 --random-count 2000 --out sweep.json
"""

import argparse
import json
import random
import sys

from treesym import conjecture_check, lobed_extremal, run_theorem_suite, serialize_edge_list
from treesym.corpus import all_trees, random_tree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=9, help="exhaustive corpus up to this order")
    ap.add_argument("--random-count", type=int, default=2000)
    ap.add_argument("--max-random-n", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--extremal", type=int, nargs="*", default=[2, 4, 6, 8])
    ap.add_argument("--out", default=None, help="write the full JSON report here")
    args = ap.parse_args()

    trees = [t for n in range(1, args.max_n + 1) for t in all_trees(n)]
    trees += [lobed_extremal(m) for m in args.extremal]
    rng = random.Random(args.seed)
    trees += [random_tree(rng, rng.randint(1, args.max_random_n)) for _ in range(args.random_count)]

    report = run_theorem_suite(trees)
    conjecture_bad = [serialize_edge_list(t) for t in trees if not conjecture_check(t).consistent]

    print(report.summary())
    print(f"conjecture checked on every tree: {'consistent' if not conjecture_bad else 'INCONSISTENT'}")
    if args.out:
        payload = report.to_json()
        payload["conjecture_counterexamples"] = conjecture_bad
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.out}")
    return 0 if report.ok and not conjecture_bad else 1


if __name__ == "__main__":
    sys.exit(main())
