"""The benchmark's workloads: job lists and the answers they must give.

Every generated job carries an ``expect`` subtree taken from the
mathematics (graded Betti numbers, depths, Cohen-Macaulay and Gorenstein
verdicts, oracle agreement), never from the program's output.

``koszul_ladder`` and ``oracle_sweep`` apply a graded change of
coordinates x_i -> c_i * x_pi(i) picked by the seed.  It is a ring
automorphism, so the Betti numbers and verdicts, and hence the expected
answers, stay the same, while the Groebner work changes under grevlex.
The seed is reduced modulo ``VARIANTS`` so that the canonical report of
every job under every seed can be recorded once (``digests.json``).
Variant 0 is the identity.  ``suite`` ignores the seed.

This module imports nothing from dgkoszul, so that job generation is
independent of the program under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("suite", "koszul_ladder", "oracle_sweep")
VARIANTS = 16
PRIME = 32003
F_P = {"kind": "prime", "p": PRIME}
F_Q = {"kind": "rationals"}

# A polynomial is a list of (coefficient, exponent tuple) terms.


def _var(n: int, i: int):
    return [(1, tuple(int(k == i) for k in range(n)))]


def _poly(n: int, *terms):
    """Build a polynomial from (coefficient, {variable index: exponent})."""
    return [(c, tuple(mono.get(k, 0) for k in range(n))) for c, mono in terms]


def _fmt(poly, names) -> str:
    out = ""
    for c, e in poly:
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out


class CoordinateChange:
    """x_i -> scale[i] * x_perm[i], the seed's graded automorphism."""

    def __init__(self, n: int, variant: int, rational: bool):
        self.perm = list(range(n))
        self.scale = [1] * n
        if variant:
            rng = random.Random(f"{n}:{variant}:{rational}")
            rng.shuffle(self.perm)
            if rational:
                self.scale = [rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in range(n)]
            else:
                self.scale = [rng.randrange(1, PRIME) for _ in range(n)]
        self.modulus = None if rational else PRIME

    def apply(self, poly):
        out = {}
        for c, e in poly:
            coeff = c
            image = [0] * len(e)
            for i, k in enumerate(e):
                coeff *= self.scale[i] ** k
                image[self.perm[i]] += k
            key = tuple(image)
            out[key] = out.get(key, 0) + coeff
        terms = []
        for key, c in out.items():
            if self.modulus is not None:
                c %= self.modulus
                if c > self.modulus // 2:
                    c -= self.modulus
            if c:
                terms.append((c, key))
        return terms


def _job(name, field, names, ideal, tasks, change: CoordinateChange):
    def image(poly):
        return _fmt(change.apply(poly), names)

    for task in tasks:
        if "elements" in task:
            task["elements"] = [image(p) for p in task["elements"]]
    return {
        "schema": 1,
        "name": name,
        "field": field,
        "vars": list(names),
        "ideal": [image(p) for p in ideal],
        "dg": {"kind": "ring"},
        "tasks": tasks,
    }


def _series(numerator, pole_order=0):
    return {"numerator": [list(t) for t in sorted(numerator.items())], "pole_order": pole_order}


def _koszul_expect(betti: list[dict]) -> dict:
    """Koszul homology on all variables of S/I: H_{-i} = Tor_i^S(S/I, k),
    whose Hilbert series is sum_j beta_ij t^j; H_0 = k has dimension 0."""
    return {
        "inf": -(len(betti) - 1),
        "sup": 0,
        "amp": len(betti) - 1,
        "h0_hilbert": _series({0: 1}),
        "dim_h0": 0,
        "homology": {str(-i): _series(row) for i, row in enumerate(betti)},
    }


def _ci_job(n: int, variant: int):
    """Two coprime quadrics x0x1 - x_{n-2}x_{n-1}, x2^2 - x3x4 in n variables:
    a complete intersection, Betti 1, 2, 1 in degrees 0, 2, 4."""
    names = [f"x{i}" for i in range(n)]
    ideal = [
        _poly(n, (1, {0: 1, 1: 1}), (-1, {n - 2: 1, n - 1: 1})),
        _poly(n, (1, {2: 2}), (-1, {3: 1, 4: 1})),
    ]
    tasks = [{
        "task": "koszul",
        "elements": [_var(n, i) for i in range(n)],
        "oracle_depth": 0,
        "expect": _koszul_expect([{0: 1}, {2: 2}, {4: 1}]),
    }]
    return _job(f"ci{n}", F_P, names, ideal, tasks, CoordinateChange(n, variant, False))


def _twisted_cubic_job(variant: int):
    """2x2 minors of the Hankel matrix [[x0,x1,x2],[x1,x2,x3]]: the twisted
    cubic.  Eagon-Northcott gives Betti 1, 3, 2 in degrees 0, 2, 3; the ring
    is a 2-dimensional Cohen-Macaulay domain with Hilbert series
    (1 + 2t)/(1 - t)^2, so depth at the irrelevant ideal is 2."""
    n = 4
    names = [f"x{i}" for i in range(n)]
    ideal = [
        _poly(n, (1, {0: 1, 2: 1}), (-1, {1: 2})),
        _poly(n, (1, {0: 1, 3: 1}), (-1, {1: 1, 2: 1})),
        _poly(n, (1, {1: 1, 3: 1}), (-1, {2: 2})),
    ]
    tasks = [
        {
            "task": "koszul",
            "elements": [_var(n, i) for i in range(n)],
            "oracle_depth": 0,
            "expect": _koszul_expect([{0: 1}, {2: 3}, {3: 2}]),
        },
        {
            "task": "invariants",
            "expect": {
                "inf": 0,
                "sup": 0,
                "amp": 0,
                "dim_h0": 2,
                "depth_at_irrelevant": 2,
                "local_cm": True,
                "cm_certified": "true",
                "homology": {"0": _series({0: 1, 1: 2}, 2)},
            },
        },
    ]
    return _job("twisted_cubic", F_P, names, ideal, tasks, CoordinateChange(n, variant, False))


def _pfaffian_job(variant: int):
    """The five 4x4 Pfaffians of a generic 5x5 skew matrix (10 variables).
    Buchsbaum-Eisenbud: Gorenstein of codimension 3, Betti 1, 5, 5, 1 in
    degrees 0, 2, 3, 5."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    n = len(pairs)
    names = [f"a{i}{j}" for i, j in pairs]
    index = {p: k for k, p in enumerate(pairs)}
    ideal = []
    for skip in range(5):
        i, j, k, l = (r for r in range(5) if r != skip)
        ideal.append(_poly(
            n,
            (1, {index[i, j]: 1, index[k, l]: 1}),
            (-1, {index[i, k]: 1, index[j, l]: 1}),
            (1, {index[i, l]: 1, index[j, k]: 1}),
        ))
    ring_data = {
        "betti": [1, 5, 5, 1],
        "betti_table": {"0": {"0": 1}, "1": {"2": 5}, "2": {"3": 5}, "3": {"5": 1}},
        "resolution_length": 3,
        "codim": 3,
        "cohen_macaulay": True,
        "type_one": True,
    }
    tasks = [
        {
            "task": "duality",
            "expect": {"ring_gorenstein": True, "ring_data": ring_data, "dualizing_amp": 0},
        },
        {
            "task": "check",
            "name": "gorenstein_transfer",
            "elements": [_var(n, 0), _var(n, 1)],
            "expect": {
                "verdict": "PASS",
                "gorenstein_verdict": "true",
                "ring_gorenstein": True,
                "ring_data": ring_data,
            },
        },
    ]
    return _job("pfaffians", F_P, names, ideal, tasks, CoordinateChange(n, variant, False))


def _oracle_job(field, depth: int, variant: int):
    """Koszul on all variables of k[x,y,z,w]/(xy - zw): Betti 1, 1 in
    degrees 0, 2.  The truncation oracle must give exactly these dimensions
    in every internal degree up to its depth, and zero elsewhere."""
    n = 4
    names = ["x", "y", "z", "w"]
    ideal = [_poly(n, (1, {0: 1, 1: 1}), (-1, {2: 1, 3: 1}))]
    betti = [{0: 1}, {2: 1}]
    oracle = {
        str(-i): {
            str(t): (betti[i].get(t, 0) if i < len(betti) else 0) for t in range(depth + 1)
        }
        for i in range(n + 1)
    }
    expect = _koszul_expect(betti)
    expect["oracle"] = {"depth": depth, "agrees": True, "oracle": oracle}
    tasks = [{
        "task": "koszul",
        "elements": [_var(n, i) for i in range(n)],
        "oracle_depth": depth,
        "expect": expect,
    }]
    rational = field is F_Q
    tag = "q" if rational else "p"
    return _job(f"quadric_oracle_{tag}{depth}", field, names, ideal, tasks,
                CoordinateChange(n, variant, rational))


def variant_of(workload: str, seed: int) -> int:
    return 0 if workload == "suite" else seed % VARIANTS


def make_jobs(workload: str, seed: int, root: Path) -> list[tuple[str, dict]]:
    """(name, job) pairs of one workload, in run order."""
    variant = variant_of(workload, seed)
    if workload == "suite":
        return [
            (path.name, json.loads(path.read_text(encoding="utf-8")))
            for path in sorted((root / "suite").glob("*.json"))
        ]
    if workload == "koszul_ladder":
        jobs = [_ci_job(5, variant), _ci_job(6, variant), _twisted_cubic_job(variant), _pfaffian_job(variant)]
    elif workload == "oracle_sweep":
        jobs = [_oracle_job(F_P, 12, variant), _oracle_job(F_Q, 7, variant)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(job["name"], job) for job in jobs]
