"""Brute-force reference recommender, written from the documented rules alone.

It calls nothing in voltpick.  For one site it starts from every
implementation of the site's kind and drops, in turn, the ones that lack a
measured cell for an operation the site uses (incomparable), the ones some
other implementation beats strictly on every operation of the kind
(dominated; an implementation with any unmeasured cell neither dominates
nor is dominated), and, when the site's constructor is thread-safe, the
unsafe ones.  The cheapest remaining score wins; a tie keeps the current
implementation, then the smallest id.  A change needs a score strictly
below the current one unless the current implementation is itself
incomparable.  With nothing left and an incomparable current
implementation the site has no candidates.
"""

from __future__ import annotations

import math

from vocab import KIND_IMPLS, KIND_OPS, THREAD_SAFE

NO_CANDIDATES = None


def _dominated(joules: dict, kind: str) -> set[str]:
    ops = KIND_OPS[kind]
    impls = KIND_IMPLS[kind]
    out = set()
    for b in impls:
        for a in impls:
            if a != b and all(joules[(a, op)] is not None and joules[(b, op)] is not None
                              and joules[(a, op)] < joules[(b, op)] for op in ops):
                out.add(b)
    return out


def _score(joules: dict, impl: str, counts: dict) -> float | None:
    terms = []
    for op, count in sorted(counts.items()):
        if count > 0:
            cell = joules[(impl, op)]
            if cell is None:
                return None
            terms.append(count * cell)
    return math.fsum(terms)


class Reference:
    """Reference choices under one profile, given as (impl, op) -> joules or None."""

    def __init__(self, joules: dict):
        self.joules = joules
        self.dominated = {kind: _dominated(joules, kind) for kind in KIND_IMPLS}

    def choose(self, kind: str, current: str, counts: dict) -> str | None:
        current_score = _score(self.joules, current, counts)
        scores = {}
        for impl in KIND_IMPLS[kind]:
            if impl in self.dominated[kind]:
                continue
            if current in THREAD_SAFE and impl not in THREAD_SAFE:
                continue
            score = _score(self.joules, impl, counts)
            if score is not None:
                scores[impl] = score
        if not scores:
            return current if current_score is not None else NO_CANDIDATES
        best = min(scores.values())
        tied = sorted(impl for impl, score in scores.items() if score == best)
        if current_score is not None and not best < current_score:
            return current
        return current if current in tied else tied[0]
