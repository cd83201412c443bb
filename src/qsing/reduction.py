"""The reduction calculus on marked quiver settings.

Three moves shrink a setting without changing its invariant theory beyond a
polynomial factor:

* vertex removal at a loop-free vertex v (all paths through v are composed),
  allowed when the weighted in-degree or the weighted out-degree of v (the
  sum of the dimensions at the other ends of its arrows) is at most dims[v];
  this is the Euler form against the unit vector at v being >= 0 on either
  side, since chi(alpha, e_v) = alpha_v - in_weight(v) and
  chi(e_v, alpha) = alpha_v - out_weight(v);
* loop removal at a dimension-1 vertex (one loop at a time, z += 1);
* big-loop removal at a vertex v of dimension >= 2 carrying exactly one loop,
  when a single arrow connects v to a dimension-1 vertex; the arrow is
  replaced by dims[v] parallel ones and z grows by dims[v] for a genuine
  loop, dims[v] - 1 for a marked one.

``reduce_setting`` iterates moves to the unique terminal form; z accumulates
the polynomial-ring shift between the invariant rings of input and output.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from operator import mul

from .core import MarkedQuiverSetting, euler_form, unit_vector
from .errors import IllegalMoveError


class MoveKind(enum.Enum):
    VERTEX_REMOVAL = "vertex_removal"
    SMALL_LOOP_REMOVAL = "small_loop_removal"
    BIG_LOOP_REMOVAL = "big_loop_removal"


@dataclass(frozen=True)
class Move:
    """One applicable reduction step.

    For big-loop removal, ``marked`` records the loop flavour, ``neighbor``
    the dimension-1 vertex at the other end of the single arrow and
    ``incoming`` whether that arrow arrives at the vertex (dual picture) or
    leaves it.
    """

    kind: MoveKind
    vertex: int
    marked: bool = False
    neighbor: int | None = None
    incoming: bool = False

    def describe(self) -> str:
        if self.kind is MoveKind.VERTEX_REMOVAL:
            return f"remove vertex {self.vertex}"
        if self.kind is MoveKind.SMALL_LOOP_REMOVAL:
            return f"remove one loop at vertex {self.vertex}"
        flavour = "marked" if self.marked else "genuine"
        direction = "from" if self.incoming else "to"
        return (
            f"remove {flavour} loop at vertex {self.vertex} "
            f"(single arrow {direction} vertex {self.neighbor})"
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "vertex": self.vertex,
            "marked": self.marked,
            "neighbor": self.neighbor,
            "incoming": self.incoming,
        }


@dataclass(frozen=True)
class ReductionResult:
    setting: MarkedQuiverSetting
    reduced: MarkedQuiverSetting
    z: int
    trace: tuple[Move, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        """The ``reduce`` report: input, terminal form, z and the moves taken."""
        return {
            "input": self.setting.to_json(),
            "reduced": self.reduced.to_json(),
            "z": self.z,
            "trace": [m.to_json() for m in self.trace],
        }


def applicable_moves(s: MarkedQuiverSetting) -> list[Move]:
    """Every legal move on ``s`` in reduce's order: by vertex, then vertex removal, loop
    removal, big-loop removal along the outgoing arrow and along the incoming one."""
    moves: list[Move] = []
    dims, arrows, marks = s.dims, s.arrows, s.marked_loops
    for v, (row, col) in enumerate(zip(arrows, zip(*arrows))):
        dv = dims[v]
        loops = row[v] + marks[v]
        if loops == 0 and len(dims) >= 2 and (
            sum(map(mul, col, dims)) <= dv or sum(map(mul, row, dims)) <= dv
        ):
            moves.append(Move(MoveKind.VERTEX_REMOVAL, v))
        if dv == 1 and row[v] >= 1:
            moves.append(Move(MoveKind.SMALL_LOOP_REMOVAL, v))
        if dv >= 2 and loops == 1:
            marked = marks[v] == 1
            for incoming, ends in (False, row), (True, col):
                nbrs = [j for j, a in enumerate(ends) if a and j != v]
                if len(nbrs) == 1 and ends[nbrs[0]] == 1 and dims[nbrs[0]] == 1:
                    moves.append(Move(MoveKind.BIG_LOOP_REMOVAL, v, marked, nbrs[0], incoming))
    return moves


def apply_move(
    s: MarkedQuiverSetting, move: Move, *, strict: bool = False
) -> tuple[MarkedQuiverSetting, int]:
    """Apply one move, returning the new setting and the z increment.

    With ``strict=True``, a vertex removal whose enabling inequality is
    strictly positive triggers a warning: settings coming from orders satisfy
    the removal condition with equality.
    """
    if move not in applicable_moves(s):
        raise IllegalMoveError(f"move not applicable: {move}")
    v = move.vertex
    if move.kind is MoveKind.VERTEX_REMOVAL:
        if strict:
            chi_in = euler_form(s, s.dims, unit_vector(s.k, v))
            chi_out = euler_form(s, unit_vector(s.k, v), s.dims)
            enabling = [c for c in (chi_in, chi_out) if c >= 0]
            if enabling and all(c > 0 for c in enabling):
                warnings.warn(
                    f"vertex removal at {v} holds with strict inequality; "
                    "the setting cannot come from an order",
                    stacklevel=2,
                )
        keep = [w for w in range(s.k) if w != v]
        arrows = [[s.arrows[i][j] for j in keep] for i in keep]
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                arrows[a][b] += s.arrows[i][v] * s.arrows[v][j]
        new = MarkedQuiverSetting(
            tuple(s.dims[w] for w in keep),
            tuple(tuple(row) for row in arrows),
            tuple(s.marked_loops[w] for w in keep),
        )
        return new, 0
    if move.kind is MoveKind.SMALL_LOOP_REMOVAL:
        arrows = [list(row) for row in s.arrows]
        arrows[v][v] -= 1
        new = MarkedQuiverSetting(s.dims, tuple(tuple(r) for r in arrows), s.marked_loops)
        return new, 1
    # big-loop removal
    arrows = [list(row) for row in s.arrows]
    marks = list(s.marked_loops)
    if move.marked:
        marks[v] -= 1
    else:
        arrows[v][v] -= 1
    w = move.neighbor
    if move.incoming:
        arrows[w][v] = s.dims[v]
    else:
        arrows[v][w] = s.dims[v]
    new = MarkedQuiverSetting(s.dims, tuple(tuple(r) for r in arrows), tuple(marks))
    return new, s.dims[v] if not move.marked else s.dims[v] - 1


def reduce_setting(s: MarkedQuiverSetting, *, strict: bool = False) -> ReductionResult:
    """Apply moves until none remain.

    Moves are taken in the deterministic order (vertex index, then kind).
    On strongly connected settings the terminal form and z are independent
    of the order (strong connectivity is preserved by every move); without
    it the terminal form can depend on which removable source or sink goes
    first, e.g. dims (1, 3) with three arrows one way reduces to a bare
    vertex of dimension 1 or 3.  Termination: vertex removal strictly
    decreases the total dimension and loop removals strictly decrease the
    arrow-plus-mark count.

    When the first move removes a loop at a dimension-1 vertex v, all L loops
    there go at once: z grows by L and the trace records the move L times.
    This is the same sequence of steps.  No move at another vertex reads the
    loops at v, and at v vertex removal needs none left while big-loop
    removal needs dims[v] >= 2, so the next L - 1 moves remove a loop at v.
    """
    current = s
    z = 0
    trace: list[Move] = []
    while True:
        moves = applicable_moves(current)
        if not moves:
            return ReductionResult(s, current, z, tuple(trace))
        move = moves[0]
        if move.kind is MoveKind.SMALL_LOOP_REMOVAL:
            v = move.vertex
            loops = current.arrows[v][v]
            arrows = [list(row) for row in current.arrows]
            arrows[v][v] = 0
            current = MarkedQuiverSetting(
                current.dims, tuple(map(tuple, arrows)), current.marked_loops
            )
            z += loops
            trace.extend([move] * loops)
        else:
            current, dz = apply_move(current, move, strict=strict)
            z += dz
            trace.append(move)
