"""Self-test of the output checks: each accepts a right output and rejects
the wrong ones it exists to catch.  Runs in about a second:

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks

# a path 0-1-2-3-4-5 plus a pendant vertex 6 on 3
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
N = 7
ONES = [1] * N
ADJ = checks.adjacency_lists(N, EDGES)
EPS = Fraction(2, N)


def cases():
    yield "pair, right", checks.pair_problems(EDGES, [0, 1], [4, 5], ONES, EPS), True
    yield "pair joined by an edge", checks.pair_problems(EDGES, [0, 1], [2, 5], ONES, EPS), False
    yield "pair side below epsilon", checks.pair_problems(EDGES, [0], [4, 5], ONES, EPS), False
    yield "pair sides overlapping", checks.pair_problems(EDGES, [0, 1], [1, 5], ONES, EPS), False
    yield "pair side empty", checks.pair_problems(EDGES, [], [4, 5], ONES, EPS), False

    hook = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    yield "image, induced", checks.image_problems(EDGES, [1, 2, 3, 4, 5, 6], hook, 6), True
    yield "image not induced", checks.image_problems(
        EDGES + [(1, 5)], [1, 2, 3, 4, 5, 6], hook, 6
    ), False
    yield "image of another tree", checks.image_problems(EDGES, [0, 1, 2, 3, 4, 5], hook, 6), False
    yield "image repeating a vertex", checks.image_problems(
        EDGES, [1, 2, 3, 4, 5, 5], hook, 6
    ), False

    # merged vertex 10 with class {0, 1}; head 20 with class {2}; head 30 {5, 6}
    classes = {10: [0, 1], 20: [2], 30: [5, 6]}
    heavy = [4, 4, 4, 1, 1, 4, 4]
    kappa = Fraction(4, sum(heavy))
    yield "merge, right", checks.merge_problems(
        ADJ, heavy, 3, 2, classes, [20, 30], 10, 20, kappa
    ), True
    yield "merge with overlapping classes", checks.merge_problems(
        ADJ, heavy, 3, 2, {**classes, 30: [2, 6]}, [20, 30], 10, 20, kappa
    ), False
    yield "merge with no fewer components", checks.merge_problems(
        ADJ, heavy, 3, 3, classes, [20, 30], 10, 20, kappa
    ), False
    yield "merge with a light head", checks.merge_problems(
        ADJ, heavy, 3, 2, {**classes, 30: [6]}, [20, 30], 10, 20, Fraction(5, sum(heavy))
    ), False
    yield "merge not covering its head", checks.merge_problems(
        ADJ, heavy, 3, 2, {**classes, 10: [0]}, [20, 30], 10, 20, kappa
    ), False

    yield "host, 2-regular cycle", checks.regular_host_problems(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2
    ), True
    yield "host with a repeated edge", checks.regular_host_problems(
        4, [(0, 1), (1, 0), (2, 3), (2, 3)], 2
    ), False
    yield "axioms hold", checks.axiom_problems(ADJ, ONES, Fraction(4, N)), True
    yield "neighbourhood reaches epsilon", checks.axiom_problems(ADJ, ONES, Fraction(3, N)), False

    doc = {
        "counts": {"high-mass-neighbourhood": 1, "anticomplete-pair": 1},
        "results": [
            {"trial": 0, "variant": "high-mass-neighbourhood"},
            {"trial": 1, "variant": "anticomplete-pair"},
        ],
    }
    degrees = {0: (96, 2), 1: (200, 3)}
    eps = Fraction(1, 48)
    yield "batch, right", checks.batch_problems(0, doc, 2, eps, degrees), True
    yield "batch exit code", checks.batch_problems(70, doc, 2, eps, degrees), False
    yield "batch variant against degree", checks.batch_problems(
        0, doc, 2, eps, {0: (96, 1), 1: (200, 3)}
    ), False
    yield "batch counts short", checks.batch_problems(0, doc, 3, eps, degrees), False


def main() -> int:
    bad = 0
    total = 0
    for name, problems, should_pass in cases():
        total += 1
        if (not problems) != should_pass:
            bad += 1
            want = "accept" if should_pass else "reject"
            print(f"selftest: {name}: expected the check to {want}, got {problems}")
    print(f"selftest: {total - bad} of {total} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
