"""Pinned bits of ``descend`` on an analytic problem.

Least absolute deviation over fixed rows, mean |x_i . w - y_i|, stepped by
``descend`` (``descent_reference.py``: one chain of the engine's step loop)
in every combination of mode, selection, constraint and ``tol``.
The problem draws from the descent's generator in every callback (a
bootstrap resample per value and mean subgradient, a second row per row
subgradient), so the pins also fix the order of draws between steps and
trace evaluations. Each case pins the iteration count and the sha256 of the
``float.hex`` text of the weights, the traced objective values, the traced
iterations and the traced weights.

Elementwise float operations are IEEE-exact, but ``np.linalg.norm`` and the
row products go through BLAS, so the pins are keyed by the numpy version and
the test skips under another. Re-pin by running

    PYTHONPATH=src python3 tests/test_descend_pins.py

on a commit whose descent is known good, and pasting the printed table into
``PINS`` under the new version key.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from tailcast.objective import Predictor
from tailcast.optimize import DescentConfig
from tailcast.rng import RngStream

from descent_reference import DescentProblem, descend

MODES = ("batch", "online")
SELECTIONS = ("last", "polyak", "best")
CONSTRAINTS = ("unconstrained", "nonneg", "ball")
TOLS = (0.0, 0.02)
CASES = {f"{mode}-{selection}-{constraint}-tol{tol:g}": (mode, selection, constraint, tol)
         for mode, selection, constraint, tol
         in itertools.product(MODES, SELECTIONS, CONSTRAINTS, TOLS)}


def lad_problem(count=24, n=3):
    """Mean absolute deviation of x_i . w from y_i over fixed Gaussian rows."""
    g = RngStream(41, 5).generator()
    X = g.standard_normal((count, n))
    y = X @ np.array([0.6, -0.3, 0.4]) + 0.2 * g.standard_normal(count)

    def value(p, rng):
        idx = rng.integers(0, count, size=count)
        return float(np.mean(np.abs(X[idx] @ p.weights - y[idx])))

    def row_grad(p, j, rng):
        rows = [j, int(rng.integers(0, count))]
        return 0.5 * (np.sign(X[rows] @ p.weights - y[rows]) @ X[rows])

    def mean_grad(p, rng):
        idx = rng.integers(0, count, size=count)
        return np.sign(X[idx] @ p.weights - y[idx]) @ X[idx] / count

    return DescentProblem(count, value, row_grad, mean_grad)


def case_result(case):
    mode, selection, constraint, tol = CASES[case]
    cfg = DescentConfig(mode=mode, a=0.5, b=1.0, beta=0.7, max_iter=60, tol=tol,
                        selection=selection, burn_in=12 if selection == "polyak" else 0,
                        constraint=constraint, radius=0.5, trace_stride=7)
    p0 = Predictor("linear", np.array([0.5, 0.5, -0.5]))
    return descend(lad_problem(), p0, cfg, RngStream(43, 7).generator())


def case_pin(case) -> list:
    res = case_result(case)
    floats = [res.weights, res.objective_trace, res.trace_weights.ravel()]
    text = " ".join([float(v).hex() for a in floats for v in a]
                    + [str(int(i)) for i in res.trace_iterations])
    return [res.iterations, hashlib.sha256(text.encode()).hexdigest()]


PINS = {
    "numpy 2.4.6": {
        "batch-best-ball-tol0": [60, "dbfe26e5924d43964263101d1143eb3989b14178ab434f72fffbd4562cb29615"],
        "batch-best-ball-tol0.02": [9, "d663c0af85ced96ea83bc84973fe461b114d186c3f62e0c2edab05098eada166"],
        "batch-best-nonneg-tol0": [60, "701b65154b46b63df517ab8c34d615b2fea255bb59365adb48d69233486e1bef"],
        "batch-best-nonneg-tol0.02": [10, "d12352326d8cf1667613c8e55b20680ac698d95fd485397ed140ea11fbfa78a2"],
        "batch-best-unconstrained-tol0": [60, "483fc52c8d69fccb0cb4d1565969fddc4e3903289e750010315aa354b406f8eb"],
        "batch-best-unconstrained-tol0.02": [21, "bea65b8cada0fdba0284a38c9b8790df51ecb835a72adc27c17b280bf6662290"],
        "batch-last-ball-tol0": [60, "45014d6de28d974f912ae30d2f6c59fd1295623dc13e14ecfc658644da6ddbe9"],
        "batch-last-ball-tol0.02": [9, "1dc4a427d11ee96bcb4c204ade6400ab171a69adf9f866034422a1242c6375dc"],
        "batch-last-nonneg-tol0": [60, "373e380a8e714ad0f01482dd42d25dc4d6d8e0f4dd7690d330762b3211f1a17d"],
        "batch-last-nonneg-tol0.02": [10, "d12352326d8cf1667613c8e55b20680ac698d95fd485397ed140ea11fbfa78a2"],
        "batch-last-unconstrained-tol0": [60, "d72a9e72a8e03429d8543919489774fc94233659ea01e230619dbae270a4e043"],
        "batch-last-unconstrained-tol0.02": [21, "bea65b8cada0fdba0284a38c9b8790df51ecb835a72adc27c17b280bf6662290"],
        "batch-polyak-ball-tol0": [60, "993475e0a206b832b9f1aa7c81db4863c676815ec5c52f9a01c3b19058e437ea"],
        "batch-polyak-ball-tol0.02": [9, "1dc4a427d11ee96bcb4c204ade6400ab171a69adf9f866034422a1242c6375dc"],
        "batch-polyak-nonneg-tol0": [60, "881e9ee56369bea3542f13445864199ef74e027eef1927a914b545b5086f1ec3"],
        "batch-polyak-nonneg-tol0.02": [10, "d12352326d8cf1667613c8e55b20680ac698d95fd485397ed140ea11fbfa78a2"],
        "batch-polyak-unconstrained-tol0": [60, "45707aa0f719143492ec29c0b5add5b685723bf45155c5258b2da77473df6605"],
        "batch-polyak-unconstrained-tol0.02": [21, "88c978473d43380ec6e3ddea4af36deb6ea2df1cc99495d57b36b5efa4a258f1"],
        "online-best-ball-tol0": [60, "181803ec6be1611faf2ca89d1d3ff27005c72f80fc69f1cdbd0c05ac0069f74e"],
        "online-best-ball-tol0.02": [19, "c7a67e7a7407e4ee1ccd2c6c081af99b24d4710c932bebfdab6b8871b725b2d7"],
        "online-best-nonneg-tol0": [60, "613de5afd7112a8889ee0f9a2e7fc100f1a66e7ed3d462fe3d6af8a78ae9656d"],
        "online-best-nonneg-tol0.02": [18, "3cb67aad6c3aefaa4650ae6ea42e3c417b0d150acd0e1370932b1b64ddce59fe"],
        "online-best-unconstrained-tol0": [60, "33574abb2b414324290dbf40c07858bf0d23ef3a581f9d445046a0fb210f6414"],
        "online-best-unconstrained-tol0.02": [17, "5d2db3a057cce9be83f4566ae82ef1e1d45edba38015e4fb06aed26fcd9de12f"],
        "online-last-ball-tol0": [60, "181803ec6be1611faf2ca89d1d3ff27005c72f80fc69f1cdbd0c05ac0069f74e"],
        "online-last-ball-tol0.02": [19, "c7a67e7a7407e4ee1ccd2c6c081af99b24d4710c932bebfdab6b8871b725b2d7"],
        "online-last-nonneg-tol0": [60, "81820b76f43b33e75f3cac375ed9966fe066fb89517bdee6879295feb6159935"],
        "online-last-nonneg-tol0.02": [18, "1d23384299217315c23aec85a288751535b279019ec1a5678794d85bd75222c3"],
        "online-last-unconstrained-tol0": [60, "39b95024909e5ec3db1e0de2ec8ef2df3f481591f9e9054a2dedfa01e8fdfd35"],
        "online-last-unconstrained-tol0.02": [17, "43435c0d050eaf391df6dcca43d14003d4030ed19f9df57361b7d4f82c38e5b4"],
        "online-polyak-ball-tol0": [60, "2ba4ec13968b477a99f15dafb1245fb621f89e7e85af37aaabc98795272703e2"],
        "online-polyak-ball-tol0.02": [19, "4850ccfb38dbdf6f6fa48bfa11b222ac8e6e35ef5d873dce35aa6baf098953de"],
        "online-polyak-nonneg-tol0": [60, "1d02c30a17d0f5fc70b5dfe90a95ed44472bdccdbd0b5432cb5a053474748bcc"],
        "online-polyak-nonneg-tol0.02": [18, "73837690b222cea2361ecf0ad28f2848b6c9be57976f85d30eb072ef9907d656"],
        "online-polyak-unconstrained-tol0": [60, "25fdfa37f4fa1a84d2ddb3c1abece65c7b23ac46635bfe71f1243c7166286052"],
        "online-polyak-unconstrained-tol0.02": [17, "28ae3360d603416e4c08a270213c20b0fff89cc342abd9d4b610c5673b9c4e89"],
    },
}


def versions_key() -> str:
    return f"numpy {np.__version__}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_descend_bits_pinned(case):
    pins = PINS.get(versions_key())
    if pins is None:
        pytest.skip(f"no descent pins for {versions_key()}; re-pin as the module docstring says")
    assert case_pin(case) == pins[case]


if __name__ == "__main__":
    table = {case: case_pin(case) for case in sorted(CASES)}
    print(json.dumps({versions_key(): table}, indent=4, sort_keys=True))
