"""Symmetric Gaussian quadrature on triangles.

All stiffness integrands in this library are polynomial, so every rule here
is used at (or above) the exact degree it needs. Rules are embedded as
literal orbit tables in barycentric form: ``C`` is the centroid, ``A3 a``
expands to the three permutations of ``(1-2a, a, a)`` and ``B6 a b`` to the
six permutations of ``(1-a-b, a, b)``. Orbit parameters were refined to 30
digits against the moment equations, so rule error is pure float64 roundoff.
Weights are relative to triangle area and sum to one; all points are
strictly inside the triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDegree

MAX_DEGREE = 10

# degree -> list of (kind, params, weight)
_ORBIT_TABLES = {
    2: [
        ("A3", (1.0 / 6.0,), 1.0 / 3.0),
    ],
    4: [
        ("A3", (0.445948490915964886318329253883,), 0.223381589678011465695007008433),
        ("A3", (0.0915762135097707434595714634022,), 0.1099517436553218676383263249),
    ],
    6: [
        ("A3", (0.0630890144915022283403316028708,), 0.0508449063702068169209368091069),
        ("A3", (0.249286745170910421291638553107,), 0.116786275726379366025289611386),
        ("B6", (0.0531450498448169473532496716314, 0.310352451033784405416607733957),
         0.0828510756183735751935534564204),
    ],
    8: [
        ("C", (), 0.144315607677787168251091110489),
        ("A3", (0.459292588292723156028815514494,), 0.0950916342672846247938961043886),
        ("A3", (0.170569307751760206622293501491,), 0.103217370534718250281791550292),
        ("A3", (0.0505472283170309754584235505966,), 0.0324584976231980803109259283418),
        ("B6", (0.00839477740995760533721383453929, 0.263112829634638113421785786285),
         0.0272303141744349942648446900739),
    ],
    10: [
        ("C", (), 0.0908179903827535800952865951),
        ("A3", (0.485577633383657377367507532208,), 0.0367259577564667047170060718914),
        ("A3", (0.109481575485037054795458631341,), 0.0453210594355279347826056447386),
        ("B6", (0.141707219414879954756683250476, 0.307939838764120950165155022931),
         0.0727579168454201086043151766194),
        ("B6", (0.0250035347626863860739884810077, 0.246672560639902693917276465411),
         0.0283272425310574848367370615821),
        ("B6", (0.00954081540029945758015280962289, 0.066803251012200265773540212762),
         0.00942166696373282345992747096689),
    ],
}

_EMBEDDED_DEGREES = sorted(_ORBIT_TABLES)


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule in barycentric coordinates.

    Attributes
    ----------
    points : (n, 3) ndarray
        Barycentric triples, each strictly positive.
    weights : (n,) ndarray
        Weights relative to triangle area, summing to one.
    """

    points: np.ndarray
    weights: np.ndarray

    def physical_points(self, tri: np.ndarray) -> np.ndarray:
        """Map the rule points onto physical triangles ((..., 3, 2) vertex array)."""
        return self.points @ np.asarray(tri, dtype=float)


def _expand_orbits(table) -> tuple[np.ndarray, np.ndarray]:
    pts = []
    wts = []
    for kind, params, w in table:
        if kind == "C":
            pts.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
            wts.append(w)
        elif kind == "A3":
            (a,) = params
            c = 1.0 - 2.0 * a
            for p in ((c, a, a), (a, c, a), (a, a, c)):
                pts.append(p)
                wts.append(w)
        else:  # B6
            a, b = params
            c = 1.0 - a - b
            for p in ((c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)):
                pts.append(p)
                wts.append(w)
    return np.array(pts), np.array(wts)


@lru_cache(maxsize=None)
def rule_for_degree(d: int) -> TriangleRule:
    """Return an embedded rule exact for total degree <= d, for 0 <= d <= 10.

    The smallest embedded table of degree >= d is returned, so the rule may
    be exact beyond the request.
    """
    if d < 0 or d > MAX_DEGREE:
        raise UnsupportedDegree(f"no embedded triangle rule for degree {d} (supported 0..{MAX_DEGREE})")
    points, weights = _expand_orbits(_ORBIT_TABLES[next(t for t in _EMBEDDED_DEGREES if t >= d)])
    return TriangleRule(points=points, weights=weights)


def triangle_area(tri: np.ndarray):
    """Signed area of a (..., 3, 2) vertex array (positive for counterclockwise)."""
    (x0, y0), (x1, y1), (x2, y2) = np.moveaxis(np.asarray(tri, dtype=float), (-2, -1), (0, 1))
    return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

