"""A seeded sweep of ``compare`` against the interned-product search it
replaced, ``oracle_compare`` from ``test_tree_walk.py``.

Each pair is a random valid diagram of genus 2-5 and its image under a
random word of 1-6 slides, in one system or in any; half of the pairs
are searched from the image back.  The oracle runs once with a cap of
``CAP`` nodes to find the node count t at which it returns, around the
goal's breadth-first index when it finds the goal.  Then both searches
run at max_nodes t - 1, t and t + 1, with max_depth one below the word's
length, the length, or 10**6, so that the node budget alone bounds the
walk.  A pair matches when every verdict and certificate is equal.
Each pair is built twice, and ``compare`` runs on the copy the oracle
never touches, so its first call finds the second diagram without a
report.  That call must validate exactly one diagram, the first, and
no later call may validate either: a pair whose slide word cancels is
answered ``identical`` at once, and any other pair gives its second
diagram the first diagram's report.  A pair whose calls make any other
number of ``validate`` calls on compare's own objects is a mismatch.
The summary counts the pairs that carried the report and
the pairs answered ``identical``.

A second leg checks generous budgets.  For every pair whose oracle found
the goal under the cap, ``compare`` also runs at max_depth 10**6 and
max_nodes 10**18, where the slot width is the widest the node budget
gives, and must return the oracle's verdict and certificate.

A third leg checks the answer by depth alone.  For every pair whose
oracle, at max_depth the word's length, returns under the cap, so that
its verdict is the one at every larger budget, ``compare`` also runs at
that depth and at max_nodes B + 1, B being ``test_budget_free.bound``,
the most nodes within that many slides; there no node budget can bind,
and it must return the oracle's verdict and certificate.  A pair past
the cap is left out of both later legs: its search can grow millions of
states.

Run as a script; it prints each mismatch and a summary line per leg and
exits 1 if any pair differs in any leg:

    PYTHONPATH=src python tests/compare_sweep.py [PAIRS] [SEED]

PAIRS defaults to 3000 and SEED to 0.  It needs the interpreter that has
pytest and hypothesis, which ``test_tree_walk`` imports, and it stays out
of the test suite: 3000 pairs take about a minute.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trisect  # noqa: E402
from trisect import IDENTICAL, LABELS, SLIDE_EQUIVALENT, compare  # noqa: E402

from test_budget_free import bound  # noqa: E402
from test_tree_walk import CAP, _base, _slide_word, oracle_compare  # noqa: E402

validations = []  # the diagrams passed to diagram.validate during one pair


def _count_validations():
    """Route every ``validate`` that a ``trisect`` module holds through a
    wrapper that appends its diagram to ``validations``."""
    original = trisect.diagram.validate

    def counting(d):
        validations.append(d)
        return original(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("trisect") and getattr(module, "validate", None) is original:
            module.validate = counting


def sweep(pairs: int = 3000, seed: int = 0) -> int:
    """Compare ``pairs`` seeded pairs; print each mismatch and a summary
    per leg, and return the number of mismatches in all three legs."""
    _count_validations()
    rng = random.Random(seed)
    mismatches = found = generous = carried = identical = by_depth = depth_mismatches = 0
    for n in range(pairs):
        genus, length = rng.randint(2, 5), rng.randint(1, 6)
        system = rng.choice((None,) + LABELS)
        base, word, back = rng.randrange(10**6), rng.randrange(10**6), rng.random() < 0.5

        def pair():
            d = _base(base, genus)
            e = _slide_word(d, random.Random(word), length, system)
            return (e, d) if back else (d, e)

        # compare gets its own objects, none validated yet, so that its
        # first call finds the second diagram without a report
        (cd, ce), (d, e) = pair(), pair()
        validations.clear()
        depth = rng.choice((length - 1, length, 10**6))
        count = []
        capped = oracle_compare(d, e, max_depth=depth, max_nodes=CAP, count=count)
        t = count[0] if count else CAP
        if capped.kind == SLIDE_EQUIVALENT:
            found += 1
            got = compare(cd, ce, max_depth=10**6, max_nodes=10**18)
            if got != capped:
                generous += 1
                print(f"mismatch: pair {n}, genus {genus}, max_depth 10**6, "
                      f"max_nodes 10**18: {got} against {capped}")
        for nodes in range(max(1, t - 1), t + 2):
            got = compare(cd, ce, max_depth=depth, max_nodes=nodes)
            want = oracle_compare(d, e, max_depth=depth, max_nodes=nodes)
            if got != want:
                mismatches += 1
                print(f"mismatch: pair {n}, genus {genus}, max_depth {depth}, "
                      f"max_nodes {nodes}: {got} against {want}")
                break
        count = []
        want = oracle_compare(d, e, max_depth=length, max_nodes=CAP, count=count)
        if not count or count[0] < CAP:  # B + 1 > count: the same verdict
            by_depth += 1
            nodes = bound(genus, length) + 1
            verdict = compare(cd, ce, max_depth=length, max_nodes=nodes)
            if verdict != want:
                depth_mismatches += 1
                print(f"mismatch: pair {n}, genus {genus}, max_depth {length}, "
                      f"max_nodes {nodes}: {verdict} against {want}")
        # the first compare validates cd; no call may validate ce or cd again
        validated = sum(v is cd or v is ce for v in validations)
        if validated != 1:
            mismatches += 1
            print(f"mismatch: pair {n}, genus {genus}: compare made "
                  f"{validated} validate calls, not 1")
        identical += got.kind == IDENTICAL
        carried += "_report" in vars(ce) and ce._report.systems is cd._report.systems
    print(f"{pairs} pairs, {mismatches} mismatches, {carried} carried the first report, "
          f"{identical} answered identical")
    print(f"{found} found goals at max_depth 10**6, max_nodes 10**18, {generous} mismatches")
    print(f"{by_depth} pairs at max_depth the word's length, max_nodes B + 1, "
          f"{depth_mismatches} mismatches")
    return mismatches + generous + depth_mismatches


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(1 if sweep(*args) else 0)
