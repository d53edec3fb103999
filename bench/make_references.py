#!/usr/bin/env python3
"""Write bench/references.json: 50-digit reference values for every benchmark point.

    python3 bench/make_references.py

Covers every (N, d) that the curve and cold_points workloads can draw.  The
values come from mpmath at 50 digits with this file's own combinatorics,
independent of the package under test:

* frames from ``workloads.frames``;
* the hook-content formula m_l(d) = prod(d + c) / prod(h) and d_l = n! / prod(h),
  with the hook product in closed form from the beta numbers
  l_i = lambda_i + k - 1 - i:  prod(h) = prod l_i! / prod_{i<j} (l_i - l_j),
  and the content product row by row: prod_j (d - i + j) = (d - i + lambda_i - 1)! / (d - i - 1)!;
* the qubit optimal weights from the sine formula, each certified as the
  positive (hence Perron) eigenvector of the qubit teleportation matrix;
* the resource-state overlap cross-checked against its total-spin form.

Both self-checks abort the run when they fail.  Rerun after changing the
workload strata in workloads.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

mp.dps = 50
DIGITS = 25  # digits written per value; the checks need about 17

_LN = [mpf(0)]  # _LN[k] = ln k
_LNFACT = [mpf(0)]  # _LNFACT[k] = ln k!


def _grow(k: int):
    while len(_LN) <= k:
        k_next = len(_LN)
        _LN.append(mp.log(k_next))
        _LNFACT.append(_LNFACT[-1] + _LN[-1])


def ln_hook_product(parts) -> mpf:
    k = len(parts)
    beta = [parts[i] + k - 1 - i for i in range(k)]
    _grow(max(beta, default=0))
    out = sum((_LNFACT[b] for b in beta), mpf(0))
    for i in range(k):
        for j in range(i + 1, k):
            out -= _LN[beta[i] - beta[j]]
    return out


_DIM: dict = {}
_MULT: dict = {}


def ln_dim(parts) -> mpf:
    """ln of the number of standard tableaux, n! / prod(hooks)."""
    if parts not in _DIM:
        n = sum(parts)
        _grow(n)
        _DIM[parts] = _LNFACT[n] - ln_hook_product(parts)
    return _DIM[parts]


def ln_mult(parts, d: int) -> mpf:
    """ln of prod(d + content) / prod(hooks) for a frame of height <= d."""
    key = (parts, d)
    if key not in _MULT:
        _grow(d + max(parts, default=0))
        content = sum((_LNFACT[d - i + row - 1] - _LNFACT[d - i - 1] for i, row in enumerate(parts)), mpf(0))
        _MULT[key] = content - ln_hook_product(parts)
    return _MULT[key]


def grown(parts, d: int):
    """Frames of height <= d obtained by adding one box."""
    out = []
    for i in range(len(parts) + 1):
        if i < len(parts):
            if i > 0 and parts[i] == parts[i - 1]:
                continue
            out.append(parts[:i] + (parts[i] + 1,) + parts[i + 1:])
        elif len(parts) < d:
            out.append(parts + (1,))
    return out


def _root_md(nu, d: int) -> mpf:
    return mp.exp((ln_mult(nu, d) + ln_dim(nu)) / 2)


def frec_ref(n: int, d: int) -> mpf:
    """One-round recycling fidelity sqrt(N)/d^(N+1) * sum over frames of N - 1 boxes."""
    total = mpf(0)
    for alpha in workloads.frames(n - 1, d):
        s = sum((_root_md(nu, d) for nu in grown(alpha, d)), mpf(0))
        if len(alpha) < d:
            total += s * s / n
        else:
            d_a = mp.exp(ln_dim(alpha))
            d_theta = mp.exp(ln_dim(alpha + (1,)))
            total += mp.sqrt(d_a) / (mp.sqrt(n * d_a - d_theta) * mp.sqrt(n)) * s * s
    return mp.sqrt(n) * total / mpf(d) ** (n + 1)


def qubit_weights(n: int) -> dict:
    """Sine-formula optimal weights for n qubit ports, keyed by frame."""
    if n == 1:
        return {(1,): mpf(1)}
    t = n // 2 + 1
    angle = n * mp.pi / (n + 2)
    s0 = mp.sin(angle)
    if n % 2 == 0:
        vals = [(-1) ** (n // 2 - l) * (mp.sin((mpf(n + 2) / 2 - l) * angle) - mp.sin((mpf(n) / 2 - l) * angle)) / s0 for l in range(t)]
    else:
        vals = [(-1) ** ((n - 1) // 2 - l) * mp.sin((mpf(n + 1) / 2 - l) * angle) / s0 for l in range(t)]
    if sum(vals) < 0:
        vals = [-v for v in vals]
    norm = mp.sqrt(sum(v * v for v in vals))
    vals = [v / norm for v in vals]
    # certificate: positive eigenvector of the irreducible nonnegative teleportation matrix
    diag = [mpf(1) / 2] * t
    diag[0] = mpf(1) / 4
    diag[-1] = mpf(1) / 4 if n % 2 == 0 else mpf(1) / 2
    mv = [diag[i] * vals[i] + (vals[i - 1] / 4 if i else 0) + (vals[i + 1] / 4 if i + 1 < t else 0) for i in range(t)]
    lam = sum(a * b for a, b in zip(mv, vals))
    residual = max(abs(a - lam * b) for a, b in zip(mv, vals))
    if min(vals) <= 0 or residual > mpf(10) ** -40:
        raise SystemExit(f"sine weights at N={n} are not the Perron vector (residual {residual})")
    return {((n - l, l) if l else (n,)): v for l, v in enumerate(vals)}


def frec_optimal_qubit_ref(n: int) -> mpf:
    """Optimal-protocol recycling fidelity at d = 2 with the sine weights."""
    d = 2
    v_n, v_prev = qubit_weights(n), qubit_weights(n - 1)
    total = mpf(0)
    for alpha in workloads.frames(n - 1, d):
        ext = grown(alpha, d)
        s = sum((_root_md(nu, d) for nu in ext), mpf(0))
        d_a = mp.exp(ln_dim(alpha))
        d_theta = mp.exp(ln_dim(alpha + (1,))) if len(alpha) == d else mpf(0)
        base = v_prev[alpha] / mp.sqrt(mp.exp(ln_mult(alpha, d))) * s / mp.sqrt(n * d_a - d_theta)
        total += base * sum(v_n[mu] for mu in ext)
    return total / mpf(d) ** mpf(1.5)


def resource_fidelity_ref(n: int) -> mpf:
    """Overlap of the plain and rotated resource states at d = 2, checked two ways."""
    v = qubit_weights(n)
    by_frames = sum((v[mu] * _root_md(mu, 2) for mu in workloads.frames(n, 2)), mpf(0)) / mp.sqrt(mpf(2) ** n)
    twoj_min = n % 2
    spin = mp.sqrt(mp.factorial(n) / (mpf(2) ** (n - 2) * (n + 2))) * sum(
        (twoj + 1) * mp.sin(mp.pi * (twoj + 1) / (n + 2))
        / mp.sqrt(mp.factorial((n - twoj) // 2) * mp.factorial((n + twoj) // 2 + 1))
        for twoj in range(twoj_min, n + 1, 2)
    )
    if abs(by_frames - spin) > mpf(10) ** -40 * by_frames:
        raise SystemExit(f"resource fidelity at N={n}: frame sum {by_frames} != spin sum {spin}")
    return by_frames


def _self_check_combinatorics():
    """The closed forms above against box-by-box products for small frames."""
    for n in range(1, 11):
        for parts in workloads.frames(n, 4):
            cols = [sum(1 for row in parts if row > j) for j in range(parts[0])]
            hooks, contents = 1, [1, 1, 1, 1]
            for i, row in enumerate(parts):
                for j in range(row):
                    hooks *= (row - j) + (cols[j] - i) - 1
                    for d in range(len(parts), 5):
                        contents[d - 1] *= d + j - i
            exact_dim = mp.factorial(n) / hooks
            if abs(mp.exp(ln_dim(parts)) - exact_dim) > mpf(10) ** -40 * exact_dim:
                raise SystemExit(f"dimension formula fails at {parts}")
            for d in range(len(parts), 5):
                exact_mult = mpf(contents[d - 1]) / hooks
                if abs(mp.exp(ln_mult(parts, d)) - exact_mult) > mpf(10) ** -40 * exact_mult:
                    raise SystemExit(f"multiplicity formula fails at {parts}, d={d}")


def main():
    _self_check_combinatorics()
    compute = {"frec": frec_ref, "frec_optimal": lambda n, d: frec_optimal_qubit_ref(n),
               "resource_fidelity": lambda n, d: resource_fidelity_ref(n)}
    values: dict = {}
    for quantity, points in sorted(workloads.reference_points().items()):
        per_d = values.setdefault(quantity, {})
        for n, d in sorted(points, key=lambda p: (p[1], p[0])):
            per_d.setdefault(str(d), {})[str(n)] = mpmath.nstr(compute[quantity](n, d), DIGITS, strip_zeros=False)
        print(f"{quantity}: {len(points)} points", file=sys.stderr)
    doc = {
        "generator": "bench/make_references.py",
        "precision_digits": mp.dps,
        "values": values,
    }
    workloads.REFERENCES_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
