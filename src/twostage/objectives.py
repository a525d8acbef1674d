"""Concrete monotone submodular objective families.

Three families matter in practice:

* facility location over planar points (ride-share style), scored by a
  sigmoid "convenience" of Manhattan distance,
* exemplar clustering over per-class feature vectors (image-summary style),
* cheap synthetic generators (modular / coverage / facility) used throughout
  the test suite.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import GroundSet, ObjectiveFamily, _check_seed


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Region:
    """A demand region: the (subsampled) customer points one function cares about."""

    members: tuple  # tuple of Point

    def __post_init__(self):
        if not self.members:
            raise ValueError("region must contain at least one point")


def manhattan(a: Point, b: Point) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def facility_convenience(a: Point, b: Point) -> float:
    """Sigmoid closeness score 2 - 2/(1 + exp(-200 d)) for Manhattan distance d.

    Written as 2z/(1+z) with z = exp(-200 d) so that distant pairs underflow
    cleanly to 0.0 instead of cancelling or producing NaN.
    """
    z = math.exp(-200.0 * manhattan(a, b))
    return 2.0 * z / (1.0 + z)


def facility_value(region: Region, candidates: Iterable[Point]) -> float:
    """Sum over region members of the best convenience to any candidate point."""
    pts = list(candidates)
    if not pts:
        return 0.0
    return sum(max(facility_convenience(a, b) for b in pts)
               for a in region.members)


def _gather(table: np.ndarray, rix, cols) -> np.ndarray:
    """The rows ``rix`` of ``table``, restricted to the columns ``cols``
    unless that is None: a new C-contiguous array, by two ``take``s (a
    third of the time of ``np.ix_`` on exemplar-sized blocks)."""
    rows = table.take(rix, axis=0)
    return rows if cols is None else rows.take(cols, axis=1)


def _max_sum(table: np.ndarray, rows, cols=None):
    """f_i of both kernel families, before exemplar's division by its
    width, as a numpy float: the sum over the columns ``cols`` (all of
    them when None) of max(0.0, the largest entry of ``table``'s rows
    ``rows`` in the column).  Every entry of a family's table is at least
    0.0, so the 0.0 matters only where ``rows`` is empty.  The sum is a
    last-axis ``np.add.reduce`` of a C-contiguous array, as in
    ``_max_sum_rows``."""
    best = np.maximum.reduce(table.take(rows, axis=0), axis=0, initial=0.0)
    return np.add.reduce(best if cols is None else best[cols])  # beats take


def _max_sum_bases(table: np.ndarray, bases: list, cols=None) -> np.ndarray:
    """The bases half of the max-sum block: for each of the equally long
    row lists ``bases``, the maximum of its rows of ``table``, floored at
    0.0, over the columns ``cols`` (all of them when None), as a
    (len(bases), columns) array for ``_max_sum_rows``."""
    kept = np.maximum.reduce(table.take(bases, axis=0), axis=1, initial=0.0)
    return kept if cols is None else kept.take(cols, axis=1)


# bound once: a streaming leader's one-row read makes one call of each
_maximum, _add_reduce = np.maximum, np.add.reduce


def _max_sum_rows(kept: np.ndarray, table: np.ndarray, cols, rows,
                  out=None) -> np.ndarray:
    """The rows half: ``_max_sum(table, base + [r], cols)`` for each row r
    of ``rows`` and each base whose maxima ``kept`` holds
    (``_max_sum_bases``), as a (len(rows), len(kept)) array, written into
    ``out`` if given (any array of that shape, such as a strided view of
    a block: the sums do not depend on where they go).  Per base, one
    ``np.maximum`` with the gathered rows and one last-axis
    ``np.add.reduce`` of the C-contiguous result, so each sum equals
    ``_max_sum``'s bit for bit: max is exact and order-free.  Holds at
    most two arrays of the gathered rows' shape besides its output, or
    while it gathers from more columns than ``cols``, one (len(rows),
    table width) array and one of the gathered shape.

    One row with no ``out``, a streaming leader's read, takes one
    ``np.maximum`` of every base's maxima with the row, kept as a (1,
    columns) slice so that one base needs no broadcast, and one last-axis
    ``np.add.reduce`` of that C-contiguous (len(kept), columns) array,
    which sums each base's row as the per-base reduce does."""
    if out is None and len(rows) == 1:
        r = rows[0]
        row = table[r:r + 1] if cols is None else _gather(table, rows, cols)
        return _add_reduce(_maximum(kept, row), 1)[None]
    cand = _gather(table, rows, cols)
    if out is None:
        out = np.empty((len(cand), len(kept)))
    spare = cand if len(kept) == 1 else np.empty_like(cand)  # one base: cand
    for j, best in enumerate(kept):
        np.add.reduce(np.maximum(best, cand, out=spare), axis=1, out=out[:, j])
    return out


def facility_family(points: Sequence[Point],
                    regions: Sequence[Region]) -> ObjectiveFamily:
    """Build one facility-location function per region over the given points.

    Convenience scores between every ground element and every region member
    are precomputed, one table per region with one row per element, so
    f_i is ``_max_sum`` of the table with the set's ids as its rows; a
    one-element set, such as the singletons that every streamed element's
    first evals compute, sums its row in place, the same numbers with two
    numpy calls fewer.  Every score is at least 0.0, so ``_max_sum``'s
    floor at 0.0 changes nothing.

    The family's block kernel ``_block(i, bases)`` (see
    ``ObjectiveFamily``) takes the bases' maxima once
    (``_max_sum_bases``) and returns them bound into ``_max_sum_rows``,
    the fill, which takes a block's candidates as rows and writes into its
    ``out`` if given; so each value equals f_i's bit for bit.

    Raises ``ValueError`` before any matrix is built when a point or a
    region member has a non-finite coordinate.
    """
    ground = GroundSet(len(points), tuple(points))
    coords = np.asarray(points, dtype=float)
    if not np.isfinite(coords).all():
        raise ValueError("point coordinates must be finite")
    members = [np.asarray(region.members, dtype=float) for region in regions]
    for i, rc in enumerate(members):
        if not np.isfinite(rc).all():
            raise ValueError(f"region {i} has a non-finite member coordinate")
    matrices = []
    with np.errstate(under="ignore"):
        for rc in members:
            d = np.abs(coords[:, None, :] - rc[None, :, :]).sum(axis=2)
            z = np.exp(-200.0 * d)
            matrices.append(2.0 * z / (1.0 + z))

    def make(mat):
        def f(ids: tuple) -> float:
            if len(ids) == 1:  # the maximum of one row is the row itself
                return np.add.reduce(mat[ids[0]])
            if not ids:  # without a numpy call
                return 0.0
            return _max_sum(mat, ids)
        return f

    def block(i: int, bases: list):
        mat = matrices[i]
        # a partial holds less than a closure: a _Sets holds up to m fills
        return partial(_max_sum_rows, _max_sum_bases(mat, bases), mat, None)

    F = ObjectiveFamily(ground, [make(mat) for mat in matrices])
    F._block = block
    F._table_floats = sum(mat.size for mat in matrices)
    return F


def exemplar_value(members: np.ndarray, selected: np.ndarray) -> float:
    """Reduction in mean distance to the nearest exemplar, anchored at the zero vector.

    ``members`` holds the feature vectors of one class (rows); ``selected``
    the vectors chosen as exemplars for that class.  The phantom all-zero
    exemplar is always available, so an empty selection scores 0.  The
    value is the mean of the members' reductions, the order of operations
    of ``exemplar_family``'s tables.
    """
    members = np.asarray(members, dtype=float)
    if members.ndim != 2 or members.shape[0] == 0:
        raise ValueError("class must contain at least one feature vector")
    anchor = np.linalg.norm(members, axis=1)
    if selected is None or len(selected) == 0:
        return 0.0
    selected = np.asarray(selected, dtype=float)
    dists = np.linalg.norm(members[:, None, :] - selected[None, :, :], axis=2)
    best = np.minimum(anchor, dists.min(axis=1))
    return float((anchor - best).mean())


# Upper bound, in floats, on the (rows, width, columns) difference block that
# a distance pass of ``_exemplar_tables`` holds at once, and on the (rows,
# width) block that ``exemplar_family`` gathers for its singleton sums.
_DIST_BLOCK_FLOATS = 1 << 18


def _similarities(points: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """The similarities among the rows of ``points``: entry (r, c) is
    ``anchor[c]`` less the distance between rows r and c, clipped at 0.0,
    the distance that row r saves column c as an exemplar in place of the
    zero anchor.  One more row, the last, is zeros.

    The distances from a block of rows to all of ``points`` are computed at
    once, with the difference temporary under ``_DIST_BLOCK_FLOATS`` floats
    (or one row, if a row is larger), so the pass holds the table plus one
    block.
    """
    width, columns = points.shape
    table = np.empty((width + 1, width))
    sim = table[:width]
    step = max(1, _DIST_BLOCK_FLOATS // (width * columns))
    for start in range(0, width, step):
        sim[start:start + step] = np.linalg.norm(
            points[start:start + step, None, :] - points[None, :, :], axis=2)
    np.subtract(anchor, sim, out=sim)
    np.maximum(sim, 0.0, out=sim)
    table[width] = 0.0
    return table


def _exemplar_tables(vectors: np.ndarray, class_count: int) -> list:
    """Per class i: (member ids omega, table, rows, cols).

    Element e belongs to class i when ``vectors[e, i] > 0``.  Entry (r, c)
    of a table is the similarity of the element of row r, as an exemplar,
    to the element of column c (``_similarities``): the latter's distance
    to the zero anchor less their distance, clipped at 0.0.  A table's
    last row is zeros, so a table has one row more than it has columns.
    Class i's own (|omega_i|, |omega_i|) table is ``table[rows][:, cols]``,
    or ``table[rows]`` when ``cols`` is None because the table's columns
    are class i's members already: its row j and column j belong to
    ``omega[j]``.

    When the classes overlap enough that |U|^2 <= sum_i |omega_i|^2, with U
    the elements in at least one class, all classes share one table over
    U, and ``rows`` (and ``cols``, unless omega_i is all of U) are omega_i's
    positions in U.  Otherwise each class gets a table over its own
    members, with ``rows`` the range and ``cols`` None.  Either way the
    build computes and stores the smaller count, min(|U|^2, sum_i
    |omega_i|^2), of distances, and holds the tables plus one block.  Every
    entry is the same last-axis ``np.linalg.norm`` reduction, so the tables
    do not depend on the layout or the blocking.  ``vectors`` is a float
    array; input errors raise as ``exemplar_family`` says.
    """
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D (elements x classes) array, "
                         f"got {vectors.ndim}-D")
    columns = vectors.shape[1]
    if not 1 <= class_count <= columns:
        raise ValueError(f"class_count must be in [1, {columns}], "
                         f"got {class_count}")
    if not np.isfinite(vectors).all():
        raise ValueError("feature vectors must be finite")
    member = vectors[:, :class_count] > 0
    omegas = [np.flatnonzero(member[:, i]) for i in range(class_count)]
    for i, omega in enumerate(omegas):
        if omega.size == 0:
            raise ValueError(f"class {i} has no members; cannot build its function")

    anchors = np.linalg.norm(vectors, axis=1)
    used = np.flatnonzero(member.any(axis=1))
    if used.size ** 2 <= sum(omega.size ** 2 for omega in omegas):
        table = _similarities(vectors[used], anchors[used])
        out = []
        for omega in omegas:
            rows = np.searchsorted(used, omega)
            cols = None if omega.size == used.size else rows
            out.append((omega, table, rows, cols))
        return out
    return [(omega, _similarities(vectors[omega], anchors[omega]),
             np.arange(omega.size), None) for omega in omegas]


def exemplar_family(vectors: np.ndarray, class_count: int) -> ObjectiveFamily:
    """One exemplar-clustering function per class with a nonempty member set.

    Element e belongs to class i when ``vectors[e, i] > 0``.  The function
    for class i only "sees" selected elements that themselves belong to
    class i; everything else is screened out, which keeps the function
    normalized and total.

    The family is facility location over similarities: f_i(T) is the mean
    over class i's members c of max(0, max over e in T of anchor_c -
    d(e, c)), with anchor_c the distance from c to the zero anchor, which
    is the mean reduction in distance to the nearest exemplar.  The
    similarities are stored once (``_exemplar_tables``): in one table over
    the elements in any class when the classes overlap enough, else in one
    table per class, and each table's last row is zeros.  Each class keeps
    a row index over all n ids: a member maps to its table row, any other
    id to the zero row, which changes no maximum.  In the shared table a
    class reads only its members' columns (``cols``).  So f_i of a set is
    ``_max_sum`` of its ids' rows over the class columns, divided by the
    class width; a set with no member of the class is worth exactly 0.0.
    Each class also keeps its n singleton values, computed at build time
    from its member rows, which f_i returns for a one-element set.  Memory
    is min(|U|^2, sum_i |omega_i|^2) + n*m floats, with U the elements in
    any class, n*m 4-byte row indices (``array("i")``; where most ids are
    in no class they cost more than a dict over the members), and a zero
    row and a view per row of each table; the build holds a few blocks of
    bounded size besides them.  Every sum is a last-axis ``np.add.reduce``
    of the class's columns in ascending order in a C-contiguous array, so
    the values do not depend on the layout, and each equals ``(anchor -
    best).mean()`` over the class, with best the clipped distance to the
    nearest exemplar, bit for bit.

    The block kernel ``_block(i, bases)`` (see ``ObjectiveFamily``) takes
    the maxima of the bases' rows over the class columns once
    (``_max_sum_bases``); its fill is ``_max_sum_rows`` over the rows of a
    block's candidates, each distinct row gathered once, so every
    candidate outside the class shares the zero row, divided by the width
    as f_i's, and then each candidate takes its row's sums, written into
    the fill's ``out`` if given; so each value equals f_i's bit for bit.

    The row kernel ``_row`` (see ``ObjectiveFamily``) serves the probes of
    one candidate x, which the set-by-set streaming probes make: per base
    it takes a chain of maxima over x's row and the base's member rows,
    the zero row standing for none, then the column take and the same
    ``np.add.reduce``; the empty base gives x's singleton.  Because max is
    exact and order-free, each value equals f_i's bit for bit.  The row
    kernel keeps nothing between calls, and a fill only its bases'
    maxima.

    Raises ``ValueError`` before any distance is computed when ``vectors``
    is not 2-D, ``class_count`` is outside [1, columns], a feature is not
    finite, or a class has no members.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    views = {}  # id of a table: its row views, shared by the classes on it
    classes = []
    for omega, table, rows, cols in _exemplar_tables(vectors, class_count):
        if id(table) not in views:
            views[id(table)] = list(table)
        width = omega.size
        index = array("i", [len(table) - 1]) * n  # the zero row
        for e, r in zip(omega.tolist(), rows.tolist()):
            index[e] = r
        step = max(1, _DIST_BLOCK_FLOATS // table.shape[1])
        sums = np.zeros(len(table))  # read at the rows and the zero row
        for s in range(0, width, step):
            rix = rows[s:s + step]
            sums[rix] = np.add.reduce(_gather(table, rix, cols), axis=1)
        classes.append((table, views[id(table)], index, cols, width,
                        (sums / width).take(index)))

    def make(table, views, index, cols, width, singles):
        def f(ids: tuple) -> float:
            if len(ids) == 1:  # numpy floats; value makes them floats
                return singles[ids[0]]
            return _max_sum(table, [index[e] for e in ids], cols) / width
        return f

    def block(i: int, bases: list):
        table, _, index, cols, width, _ = classes[i]
        kept = _max_sum_bases(table, [[index[e] for e in b] for b in bases],
                              cols)

        def fill(xs: list, out: np.ndarray | None = None) -> np.ndarray:
            at = {}  # each gathered row's position, in order of first candidate
            pos = [at.setdefault(index[x], len(at)) for x in xs]
            sums = _max_sum_rows(kept, table, cols, list(at))
            sums /= width
            return sums.take(pos, axis=0, out=out)
        return fill

    def row(i: int, x: int, bases: list) -> list:
        _, views, index, cols, width, singles = classes[i]
        zero = views[-1]
        own = views[index[x]]  # each chain starts at x's row
        vals = []
        for base in bases:
            if not base:
                vals.append(float(singles[x]))
                continue
            # _max_sum as a chain of maxima that skips the zero row: at
            # these sizes a take and a reduce per base cost more
            best = own
            for e in base:
                r = views[index[e]]
                if r is not zero:
                    best = r if best is zero else np.maximum(best, r)
            if cols is not None:
                best = best[cols]
            # a float: the arithmetic is then Python's, which rounds as
            # numpy's does
            vals.append(float(np.add.reduce(best)) / width)
        return vals

    F = ObjectiveFamily(GroundSet(n, vectors), [make(*c) for c in classes])
    F._block = block
    F._row = row
    F._table_floats = sum(width ** 2 for *_, width, _ in classes)
    return F


@dataclass(frozen=True)
class CoverageSpec:
    """Synthetic coverage instance: each element covers a bitmask of a finite universe."""

    masks: tuple  # one int bitmask per element
    universe: int

    def value(self, ids: tuple) -> float:
        masks = self.masks
        acc = 0
        for e in ids:
            acc |= masks[e]
        return float(acc.bit_count())


def _coverage_row(specs: Sequence[CoverageSpec]):
    """The row kernel ``_row(i, x, bases)`` of the coverage functions
    ``specs`` (see ``ObjectiveFamily``): the raw f_i(b + (x,)) of each base
    b, by the same OR and ``bit_count`` as ``CoverageSpec.value``.  OR is
    exact and order-free, so each value equals f_i's on the sorted set.
    Pure Python: at a few ids per base this is cheaper than one numpy
    call."""
    tables = [spec.masks for spec in specs]

    def row(i: int, x: int, bases: list) -> list:
        masks = tables[i]
        mx = masks[x]
        vals = []
        for base in bases:
            acc = mx
            for e in base:
                acc |= masks[e]
            vals.append(float(acc.bit_count()))
        return vals
    return row


SYNTHETIC_KINDS = ("modular", "coverage", "facility")


def make_synthetic(kind: str, n: int, m: int, seed: int) -> ObjectiveFamily:
    """Deterministic random family of the requested kind; ``seed`` is
    checked by ``_check_seed``.  A coverage family carries the row kernel
    ``_coverage_row``, a facility family the block kernel of
    ``facility_family``."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; "
                         f"expected one of {SYNTHETIC_KINDS}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    if kind == "modular":
        weights = rng.uniform(0.0, 1.0, size=(m, n))
        ground = GroundSet(n, weights)

        def make(w):
            def f(ids: tuple) -> float:
                return float(sum(w[e] for e in ids))
            return f

        return ObjectiveFamily(ground, [make(weights[i]) for i in range(m)])

    if kind == "coverage":
        universe = max(16, 2 * n)
        specs = []
        pad = -universe % 8  # packbits pads each row with zero bits to whole bytes
        for _ in range(m):
            hits = rng.random(size=(n, universe)) < 0.3
            # bit j of a row, counted from the left, is the mask's bit universe-1-j
            masks = tuple(int.from_bytes(row.tobytes(), "big") >> pad
                          for row in np.packbits(hits, axis=1))
            specs.append(CoverageSpec(masks, universe))
        F = ObjectiveFamily(GroundSet(n, specs),
                            [spec.value for spec in specs])
        F._row = _coverage_row(specs)
        return F

    # facility: points in a box small enough that the convenience kernel
    # actually discriminates (its length scale is 1/200 of a degree)
    coords = rng.uniform(0.0, 0.03, size=(n, 2))
    points = [Point(float(x), float(y)) for x, y in coords]
    cap = min(10, n)
    regions = []
    for _ in range(m):
        members = rng.choice(n, size=cap, replace=False)
        regions.append(Region(tuple(points[int(e)] for e in sorted(members))))
    return facility_family(points, regions)
