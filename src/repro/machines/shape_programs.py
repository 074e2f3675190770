"""Shape-constructing programs: the pixel deciders of Definition 3.

A shape language ``L = (S_1, S_2, ...)`` is defined by a machine that, for
every square dimension ``d`` and pixel index ``i`` (in the zig-zag order of
Figure 7(b)), decides whether pixel ``i`` is on. Two implementations:

* :class:`TMShapeProgram` — a genuine :class:`~repro.machines.tm.TuringMachine`
  run on the encoded input ``(i, d)``; space is metered.
* :class:`PredicateShapeProgram` — a Python predicate with a declared space
  bound, standing in for an arbitrary TM. This is a fidelity decision: the
  paper's constructor runs any TM that decides a pixel within the square's
  space, and writing every shape of the catalogue as a transition table
  would test the tables rather than the construction. The predicate
  answers the same pixel queries; the distributed construction charges
  its declared space bound as interactions per decision instead of walking
  a machine over the square's tape, as it does for a TMShapeProgram.
  Everything else in the construction (the square, the release phase) is
  identical for both.

Concrete programs cover the paper's examples: the spanning line (Theorem
4's worst-case waste), the star of Figure 7(c), crosses, frames, and the
colored patterns of Remark 4.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Optional

from repro.errors import MachineError
from repro.geometry.grid import zigzag_index_to_cell
from repro.geometry.shape import Shape
from repro.geometry.vec import Vec
from repro.machines.programs import binary_less_than_tm, encode_comparison
from repro.machines.tm import TuringMachine


class ShapeProgram:
    """Decides pixel membership for every square dimension ``d``."""

    name: str = "shape-program"

    def decide(self, pixel: int, d: int) -> bool:
        """True iff pixel ``pixel`` (zig-zag index) of the ``d x d`` square
        is *on*."""
        raise NotImplementedError

    def space_bound(self, d: int) -> int:
        """Declared working-space bound for one decision (cells)."""
        return d * d


class TMShapeProgram(ShapeProgram):
    """A shape program backed by a real Turing machine.

    ``encoder(pixel, d)`` produces the input tape; the machine's acceptance
    is the pixel's on/off bit. Space is metered on every run and checked
    against :meth:`space_bound`.
    """

    def __init__(
        self,
        machine: TuringMachine,
        encoder: Callable[[int, int], list],
        name: str,
        space_bound_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.machine = machine
        self.encoder = encoder
        self.name = name
        self._space_bound_fn = space_bound_fn
        self.last_space = 0
        self.last_steps = 0

    def decide(self, pixel: int, d: int) -> bool:
        result = self.machine.run(
            self.encoder(pixel, d), max_space=self.space_bound(d)
        )
        self.last_space = result.space
        self.last_steps = result.steps
        return result.accepted

    def space_bound(self, d: int) -> int:
        if self._space_bound_fn is not None:
            return self._space_bound_fn(d)
        return d * d


class PredicateShapeProgram(ShapeProgram):
    """A shape program given as a predicate over grid coordinates.

    The predicate receives ``(x, y, d)`` with ``(x, y)`` the pixel's cell in
    the square's coordinate frame (bottom-left origin) — strictly more
    convenient than the raw zig-zag index and equivalent, since the
    conversion is itself trivially TM-computable in space ``O(log d)``.
    """

    def __init__(
        self,
        predicate: Callable[[int, int, int], bool],
        name: str,
        space_bound_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.predicate = predicate
        self.name = name
        self._space_bound_fn = space_bound_fn

    def decide(self, pixel: int, d: int) -> bool:
        if not (0 <= pixel < d * d):
            raise MachineError(f"pixel {pixel} outside {d}x{d} square")
        cell = zigzag_index_to_cell(pixel, d)
        return bool(self.predicate(cell.x, cell.y, d))

    def space_bound(self, d: int) -> int:
        if self._space_bound_fn is not None:
            return self._space_bound_fn(d)
        return max(1, 4 * max(1, math.ceil(math.log2(max(d, 2)))))


class PatternProgram:
    """Remark 4: a program assigning every pixel a color from a finite set.

    Patterns need no connectivity and no release phase; the labeled square
    itself is the output.
    """

    def __init__(
        self,
        color_fn: Callable[[int, int, int], Hashable],
        colors: tuple,
        name: str,
    ) -> None:
        self.color_fn = color_fn
        self.colors = colors
        self.name = name

    def color(self, pixel: int, d: int) -> Hashable:
        cell = zigzag_index_to_cell(pixel, d)
        value = self.color_fn(cell.x, cell.y, d)
        if value not in self.colors:
            raise MachineError(f"color {value!r} outside palette {self.colors!r}")
        return value


# ----------------------------------------------------------------------
# Concrete programs
# ----------------------------------------------------------------------


def line_program() -> TMShapeProgram:
    """Pixels ``0..d-1`` on: a spanning line along the bottom row.

    Backed by the genuine comparator TM (accept iff ``pixel < d``); the
    worst-case waste example of Theorem 4 (``(d-1) d`` off pixels).
    """
    def encoder(pixel: int, d: int) -> list:
        width = max(1, (d * d - 1).bit_length())
        return encode_comparison(pixel, d, width)

    return TMShapeProgram(
        binary_less_than_tm(),
        encoder,
        name="line",
        # Two width-wide operands, the separator, and the head's one-cell
        # excursions past either end of the written region.
        space_bound_fn=lambda d: 2 * max(1, (d * d - 1).bit_length()) + 6,
    )


def full_square_program() -> PredicateShapeProgram:
    """Every pixel on: the square itself is the shape (zero waste)."""
    return PredicateShapeProgram(lambda x, y, d: True, name="full-square")


def cross_program() -> PredicateShapeProgram:
    """Middle row plus middle column."""
    return PredicateShapeProgram(
        lambda x, y, d: x == (d - 1) // 2 or y == (d - 1) // 2, name="cross"
    )


def star_program() -> PredicateShapeProgram:
    """The star-like shape of Figure 7(c): cross plus staircase diagonals.

    Diagonals are thickened into staircases (cells with ``x == y`` or
    ``x == y + 1``, and the anti-diagonal analogue) so the shape is a
    single connected component, as Definition 3 requires.
    """
    def pred(x: int, y: int, d: int) -> bool:
        c = (d - 1) // 2
        return (
            x == c
            or y == c
            or x == y
            or x == y + 1
            or x + y == d - 1
            or x + y == d
        )

    return PredicateShapeProgram(pred, name="star")


def frame_program() -> PredicateShapeProgram:
    """The square's border ring."""
    return PredicateShapeProgram(
        lambda x, y, d: x in (0, d - 1) or y in (0, d - 1), name="frame"
    )


def comb_program() -> PredicateShapeProgram:
    """Every other column plus a bottom spine: maximal-perimeter shape."""
    return PredicateShapeProgram(
        lambda x, y, d: y == 0 or x % 2 == 0, name="comb"
    )


# Kept under its historical name for the package namespace.
checkerboard_with_spine_program = comb_program


def serpentine_program() -> PredicateShapeProgram:
    """A boustrophedon path: even rows fully on, linked by alternating
    end connectors — the connected space-filling curve shape.

    Connected for every ``d >= 1``: row ``y`` (even) joins row ``y + 2``
    through the connector cell at the right end when ``y ≡ 0 (mod 4)`` and
    at the left end when ``y ≡ 2 (mod 4)``.
    """

    def pred(x: int, y: int, d: int) -> bool:
        if y % 2 == 0:
            return True
        return x == (d - 1) if y % 4 == 1 else x == 0

    return PredicateShapeProgram(pred, name="serpentine")


def diamond_program() -> PredicateShapeProgram:
    """The L1 ball around the center: ``|x - c| + |y - c| <= c``.

    Connected for every ``d`` (an L1 ball is grid-connected); for odd ``d``
    its size is ``2c² + 2c + 1`` with ``c = (d - 1) / 2``.
    """

    def pred(x: int, y: int, d: int) -> bool:
        c = (d - 1) // 2
        return abs(x - c) + abs(y - c) <= c

    return PredicateShapeProgram(pred, name="diamond")


def stripes_program(k: int = 2) -> PredicateShapeProgram:
    """Columns at multiples of ``k`` plus a bottom spine.

    The column test ``x ≡ 0 (mod k)`` is decided by the genuine
    ``k``-state divisibility machine
    (:func:`~repro.machines.arithmetic.divisible_by_tm`); the predicate
    here mirrors it exactly (cross-validated in tests).
    """
    if k < 1:
        raise MachineError(f"stripe period must be positive: {k}")

    def pred(x: int, y: int, d: int) -> bool:
        return y == 0 or x % k == 0

    return PredicateShapeProgram(pred, name=f"stripes-{k}")


def ring_pattern_program(colors: int = 3) -> PatternProgram:
    """Concentric rings colored cyclically (a Remark 4 pattern)."""
    palette = tuple(range(colors))

    def color(x: int, y: int, d: int) -> int:
        return min(x, y, d - 1 - x, d - 1 - y) % colors

    return PatternProgram(color, palette, name=f"rings-{colors}")


def checkerboard_pattern_program() -> PatternProgram:
    """The two-colored parity pattern (the canonical Remark 4 example:
    "every even pixel on and every odd pixel off" — valid as a *pattern*
    precisely because patterns need no connectivity)."""
    return PatternProgram(
        lambda x, y, d: (x + y) % 2, (0, 1), name="checkerboard"
    )


def sierpinski_pattern_program() -> PatternProgram:
    """The Sierpinski-triangle pattern: cell on iff ``x AND y == 0``.

    A classic TM-computable pattern (one pass over the two coordinates'
    bits); rendered as a 2-color pattern since its on-cells are not grid
    connected.
    """
    return PatternProgram(
        lambda x, y, d: 1 if (x & y) == 0 else 0, (0, 1), name="sierpinski"
    )


def gradient_pattern_program(colors: int = 4) -> PatternProgram:
    """Vertical color bands: column ``x`` gets color ``x * colors // d``."""
    palette = tuple(range(colors))

    def color(x: int, y: int, d: int) -> int:
        return min(colors - 1, x * colors // d)

    return PatternProgram(color, palette, name=f"gradient-{colors}")


def expected_shape(program: ShapeProgram, d: int) -> Shape:
    """Evaluate all pixels and build the expected connected shape.

    Raises :class:`~repro.errors.InvalidShapeError` when the on-pixels are
    not connected — the validity check of Definition 3.
    """
    cells = [
        zigzag_index_to_cell(i, d)
        for i in range(d * d)
        if program.decide(i, d)
    ]
    return Shape.from_cells(cells)


def expected_pattern(program: PatternProgram, d: int) -> Dict[Vec, Hashable]:
    """Evaluate a pattern program into a cell -> color mapping."""
    return {
        zigzag_index_to_cell(i, d): program.color(i, d) for i in range(d * d)
    }


# ----------------------------------------------------------------------
# Catalogues (the named shapes/patterns exposed by the CLI and the
# ``shape`` / ``pattern`` / ``universal`` scenarios)
# ----------------------------------------------------------------------

#: Named shape programs selectable from the experiment layer and the CLI.
SHAPE_CATALOGUE: Dict[str, Callable[[], ShapeProgram]] = {
    "line": line_program,
    "full-square": full_square_program,
    "cross": cross_program,
    "star": star_program,
    "frame": frame_program,
    "comb": comb_program,
    "serpentine": serpentine_program,
    "diamond": diamond_program,
    "stripes": stripes_program,
}

#: Named pattern programs selectable from the experiment layer and the CLI.
PATTERN_CATALOGUE: Dict[str, Callable[[], PatternProgram]] = {
    "rings": ring_pattern_program,
    "checkerboard": checkerboard_pattern_program,
    "sierpinski": sierpinski_pattern_program,
    "gradient": gradient_pattern_program,
}
