"""Pure-python restatement of the batch-selection rule, used as a test oracle.

Deliberately independent of the library implementation: plain loops, python
floats, distances recomputed from scratch at every step. Spread is measured
to ``centers``, the model's centres, and to the picks. The library measures
it in the model's unit-cube coordinates, so callers pass points and centres
of a model on the unit cube, where both metrics agree.
"""

import math


def oracle_select(points, g, centers, weights):
    remaining = list(range(len(points)))
    anchors = [list(q) for q in centers]
    picked = []

    def dist(a, b):
        return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))

    for w in weights:
        g_vals = [g[i] for i in remaining]
        d_vals = [min(dist(points[i], q) for q in anchors) for i in remaining]
        g_lo, g_hi = min(g_vals), max(g_vals)
        d_lo, d_hi = min(d_vals), max(d_vals)
        best_i, best_score = None, None
        for i, gi, di in zip(remaining, g_vals, d_vals):
            vr = 0.0 if g_hi == g_lo else (gi - g_lo) / (g_hi - g_lo)
            vd = 0.0 if d_hi == d_lo else (d_hi - di) / (d_hi - d_lo)
            score = w * vr + (1.0 - w) * vd
            if best_score is None or score < best_score:
                best_score, best_i = score, i
        picked.append(best_i)
        remaining.remove(best_i)
        anchors.append(list(points[best_i]))
    return picked
