"""Plain-Python references taken from the definitions.

Nothing here imports qpfix: the benchmark checks the library's outputs
against these, so a change to the library cannot change the reference.
"""

from __future__ import annotations

import math

# -- campaign: admissible seeds ----------------------------------------------


def admissible_seeds(d, phi, table, slack=0.0):
    """Row-major (x0, y0) with x0 below F(x0, y0) and y0 below F(y0, x0),
    where x below y means d(x, y) <= phi(y) - phi(x) + slack."""
    n = len(d)

    def below(x, y):
        return d[x][y] <= phi[y] - phi[x] + slack

    return [
        (x0, y0)
        for x0 in range(n)
        for y0 in range(n)
        if below(x0, table[x0][y0]) and below(y0, table[y0][x0])
    ]


# -- model: catalog map formulas and scheme schedules ---------------------------


def make_coupled(p):
    """The catalog's coupled map ``p["id"]``; every parameter is given."""
    formulas = {
        "coupled_max": lambda x, y: max(x, y),
        "coupled_min": lambda x, y: min(x, y),
        "coupled_affine": lambda x, y: p["a"] * x + p["b"] * y + p["c"],
        "coupled_product": lambda x, y: x * y,
        "coupled_projection": lambda x, y: x,
        "coupled_table": lambda x, y: p["matrix"][x][y],
    }
    return formulas[p["id"]]


def make_selfmap(p):
    """The catalog's self map ``p["id"]``; every parameter is given."""
    formulas = {
        "affine_pull": lambda x: p["a"] * x + p["b"],
        "halve": lambda x: x / 2,
        "sqrt_pull": lambda x: math.sqrt(x),
        "cbrt_pull": lambda x: x ** (1.0 / 3.0),
        "identity": lambda x: x,
        "step": lambda x: p["high"] if x >= p["threshold"] else p["low"],
        "table": lambda x: p["values"][x],
    }
    return formulas[p["id"]]


def schedule(scheme, k):
    """Phase of index n >= 1 as (trace label, self-map index or None for F).

    single: F.  pair: F on odd n, G on even n.  triple: H, F, G with
    G the first self map and H the second.  kmap: G_k, ..., G_2, F, G_1
    with G_i the i-th self map.
    """
    if scheme == "single":
        cycle = [("F", None)]
    elif scheme == "pair":
        cycle = [("F", None), ("G", 0)]
    elif scheme == "triple":
        cycle = [("H", 1), ("F", None), ("G", 0)]
    else:
        cycle = [(f"G{i}", i - 1) for i in range(k, 1, -1)] + [("F", None), ("G1", 0)]
    return lambda n: cycle[(n - 1) % len(cycle)]


# -- cauchy: K-style flags -------------------------------------------------------


def distance(kind, matrix=None):
    if kind == "finite":
        return lambda x, y: matrix[x][y]
    if kind == "upper_interval":
        return lambda x, y: max(x - y, 0.0)
    if kind == "lower_interval":
        return lambda x, y: max(y - x, 0.0)
    raise ValueError(f"no reference distance for {kind!r}")


def _start(worst, eps):
    """Smallest n0 with worst[k] < eps for every k >= n0."""
    for k in range(len(worst) - 1, -1, -1):
        if worst[k] >= eps:
            return k + 1
    return 0


def k_flags(d, points, epsilons):
    """Left-K, right-K and d_s at each epsilon, straight from the definitions.

    A window x_0..x_{N-1} is left K-Cauchy at eps when some n0 <= N // 2
    has d(x_k, x_n) < eps for all n0 <= k <= n; right K-Cauchy uses
    d(x_n, x_k), and d_s the larger of the two.  n0 is the smallest such
    start of the left flag (None when it fails), right_n0 that of the
    right flag.
    """
    n = len(points)
    cap = n // 2
    worst_left, worst_right, worst_sym = [], [], []
    for k in range(n):
        xk = points[k]
        wl = wr = 0.0
        for j in range(k, n):
            a, b = d(xk, points[j]), d(points[j], xk)
            if a > wl:
                wl = a
            if b > wr:
                wr = b
        worst_left.append(wl)
        worst_right.append(wr)
        worst_sym.append(max(wl, wr))
    out = {}
    for eps in epsilons:
        left, right, sym = (_start(w, eps) for w in (worst_left, worst_right, worst_sym))
        out[eps] = {
            "left_K": left <= cap,
            "right_K": right <= cap,
            "d_s": sym <= cap,
            "n0": left if left <= cap else None,
            "right_n0": right if right <= cap else None,
        }
    return out
