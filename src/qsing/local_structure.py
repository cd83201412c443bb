"""Local quiver settings at semisimple points.

A point of the quotient corresponds to a decomposition into simple summands
with multiplicities.  The local model at that point is again a quiver
setting: one vertex per distinct simple summand, dimensions given by the
multiplicities, and arrow counts delta_ij - chi(beta_i, beta_j) computed
from the Euler form (the dimension of the Ext space between the simples).

Only mark-free ambient settings are supported here: for path-algebra quiver
orders the trace-preserving correction that would create marks vanishes, and
the Euler-form shortcut for Ext dimensions is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DimVector,
    MarkedQuiverSetting,
    as_dim_vector,
    euler_form,
    exact_int,
    strongly_connected,
)
from .errors import CapacityError, UnsupportedSettingError

DECOMPOSITION_TOTAL_DIM_BOUND = 8


@dataclass(frozen=True)
class DecompositionType:
    """Multiset of (multiplicity, simple dimension vector) pairs.

    Identical simples are merged into the multiplicity, so the beta_i are
    pairwise distinct and sum (weighted) to the ambient dimension vector.
    """

    parts: tuple[tuple[int, DimVector], ...]

    @classmethod
    def make(cls, parts: Sequence[tuple[int, Sequence[int]]]) -> "DecompositionType":
        norm = tuple(sorted((exact_int(e), tuple(exact_int(b) for b in beta)) for e, beta in parts))
        if any(e < 1 for e, _ in norm):
            raise ValueError("multiplicities must be positive")
        betas = [beta for _, beta in norm]
        if len(set(betas)) != len(betas):
            raise ValueError("summand dimension vectors must be distinct")
        return cls(norm)

    def total(self, k: int) -> DimVector:
        tot = [0] * k
        for e, beta in self.parts:
            for v, b in enumerate(beta):
                tot[v] += e * b
        return tuple(tot)

    def to_json(self) -> list:
        return [[e, list(beta)] for e, beta in self.parts]

    @classmethod
    def from_json(cls, data) -> "DecompositionType":
        return cls.make([(e, beta) for e, beta in data])


def is_simple_dimvector(s: MarkedQuiverSetting, beta: Sequence[int]) -> bool:
    """Whether beta is the dimension vector of a simple representation.

    Criterion: the support must be strongly connected and the Euler form
    against every unit vector in the support must be <= 0 on both sides,
    except for the two degenerate shapes.  A single vertex without loops
    only carries the one-dimensional simple, and a support that is a single
    oriented cycle (each vertex exactly one arrow in and one out, loops
    counting as both) only carries the all-ones simple.  Marked loops count
    as loops throughout.
    """
    b = as_dim_vector(beta, s.k)
    support = [v for v in range(s.k) if b[v] > 0]
    if not support:
        return False
    if not strongly_connected(s, support):
        return False

    def deg_in(v: int) -> int:
        return sum(s.arrows[w][v] for w in support) + s.marked_loops[v]

    def deg_out(v: int) -> int:
        return sum(s.arrows[v][w] for w in support) + s.marked_loops[v]

    if len(support) == 1:
        # no loops: only the vertex simple; one loop: the 1-cycle case below;
        # two or more loops: every dimension carries simples
        v = support[0]
        return b[v] == 1 if s.loops_at(v) <= 1 else True
    if all(deg_in(v) == 1 and deg_out(v) == 1 for v in support):
        # single oriented cycle
        return all(b[v] == 1 for v in support)
    for v in support:
        # chi(b, e_v) and chi(e_v, b): b_v minus the b-weighted arrows into
        # (out of) v, loops included, minus b_v per marked loop
        own = b[v] * (1 - s.marked_loops[v])
        if own - sum(b[w] * s.arrows[w][v] for w in support) > 0:
            return False
        if own - sum(s.arrows[v][w] * b[w] for w in support) > 0:
            return False
    return True


def enumerate_simples_below(
    s: MarkedQuiverSetting, alpha: Sequence[int]
) -> list[DimVector]:
    """All simple dimension vectors beta with 0 < beta <= alpha componentwise."""
    a = as_dim_vector(alpha, s.k)
    out = []
    for beta in itertools.product(*(range(x + 1) for x in a)):
        if any(beta) and is_simple_dimvector(s, beta):
            out.append(tuple(beta))
    return out


def enumerate_decomposition_types(s: MarkedQuiverSetting) -> list[DecompositionType]:
    """All decomposition types of the full dimension vector of ``s``.

    Enumerates multisets of (multiplicity, simple) pairs with distinct
    simples summing exactly to dims.  Guarded by a bound on the total
    dimension because the search is exponential in it.
    """
    if s.total_dim > DECOMPOSITION_TOTAL_DIM_BOUND:
        raise CapacityError(
            f"total dimension {s.total_dim} exceeds bound {DECOMPOSITION_TOTAL_DIM_BOUND}"
        )
    alpha = s.dims
    simples = enumerate_simples_below(s, alpha)
    results: list[DecompositionType] = []

    def recurse(idx: int, remaining: tuple[int, ...], chosen: list[tuple[int, DimVector]]):
        if not any(remaining):
            results.append(DecompositionType.make(chosen))
            return
        if idx == len(simples):
            return
        beta = simples[idx]
        max_e = min(
            (remaining[v] // beta[v] for v in range(s.k) if beta[v] > 0), default=0
        )
        for e in range(max_e, -1, -1):
            rest = tuple(remaining[v] - e * beta[v] for v in range(s.k))
            recurse(idx + 1, rest, chosen + ([(e, beta)] if e else []))

    recurse(0, alpha, [])
    return sorted(results, key=lambda t: t.parts)


def local_setting(s: MarkedQuiverSetting, tau: DecompositionType) -> MarkedQuiverSetting:
    """The quiver setting seen at a point of decomposition type tau.

    One vertex per summand, dimension = multiplicity, and
    arrows[i][j] = delta_ij - chi(beta_i, beta_j).  Every summand must be a
    simple dimension vector of length k and the summands must add up to
    dims; otherwise ``ValueError`` is raised.  For simple summands the
    counts are Ext dimensions (Hom vanishes between distinct simples and is
    one-dimensional from a simple to itself), so none is negative.  The
    output carries no marked loops.
    """
    if s.num_marked_loops > 0:
        raise UnsupportedSettingError(
            "local settings are only computed for mark-free ambient settings"
        )
    for _, beta in tau.parts:
        if len(beta) != s.k:
            raise ValueError(f"summand {list(beta)} has length {len(beta)}, setting has {s.k} vertices")
        if not is_simple_dimvector(s, beta):
            raise ValueError(f"summand {list(beta)} is not a simple dimension vector")
    if tau.total(s.k) != s.dims:
        raise ValueError(
            f"decomposition type sums to {tau.total(s.k)}, setting has dims {s.dims}"
        )
    betas = [beta for _, beta in tau.parts]
    arrows = tuple(
        tuple((1 if i == j else 0) - euler_form(s, bi, bj) for j, bj in enumerate(betas))
        for i, bi in enumerate(betas)
    )
    return MarkedQuiverSetting(tuple(e for e, _ in tau.parts), arrows, (0,) * len(betas))


def classify_point(s: MarkedQuiverSetting, tau: DecompositionType):
    """Classify the singularity of the quotient at a point of type tau.

    Returns the :class:`~qsing.classification.SingularityReport` of the local
    setting, so ``expected_dim`` refers to the local model.
    """
    from .classification import is_smooth_setting

    return is_smooth_setting(local_setting(s, tau))


def local_report(s: MarkedQuiverSetting, tau: DecompositionType) -> dict:
    """The ``local`` report: tau, its local setting and that setting's classification."""
    report = classify_point(s, tau)
    return {
        "tau": tau.to_json(),
        "local_setting": report.setting.to_json(),
        "classification": report.to_json(),
    }


def strata_report(s: MarkedQuiverSetting) -> dict:
    """The ``strata`` report: the local type of every decomposition type of ``s``."""
    rows = []
    for tau in enumerate_decomposition_types(s):
        report = classify_point(s, tau)
        rows.append(
            {
                "tau": tau.to_json(),
                "local_setting": report.setting.to_json(),
                "smooth": report.smooth,
                "azumaya": report.azumaya,
                "expected_dim": report.expected_dim,
            }
        )
    return {
        "strata": rows,
        "note": "occurrence of each type over a given moduli point is not verified",
    }
