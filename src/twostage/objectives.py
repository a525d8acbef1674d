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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import GroundSet, ObjectiveFamily, _bases


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


def facility_family(points: Sequence[Point],
                    regions: Sequence[Region]) -> ObjectiveFamily:
    """Build one facility-location function per region over the given points.

    Convenience scores between every ground element and every region member
    are precomputed, one row per element, so a set evaluation gathers the
    set's rows and takes a tiny max-then-sum.

    The family's block kernel ``_block`` (see ``_bases``) takes the column
    maxima of every probed set and reduces them by the same last-axis
    ``np.add.reduce`` as f_i, so each value equals f_i's bit for bit.

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
            if not ids:
                return 0.0
            # a row gather and ufunc reductions: the same numbers as
            # mat.T[:, list(ids)].max(axis=1).sum(), with less overhead
            return float(np.add.reduce(
                np.maximum.reduce(mat.take(ids, axis=0), axis=0)))
        return f

    def block(i: int, key: tuple, xs: list, swap: bool) -> np.ndarray:
        mat = matrices[i]
        # -inf, the identity of max, for an empty base
        kept = np.maximum.reduce(mat.take(_bases(key, swap), axis=0), axis=1,
                                 initial=-np.inf)
        cand = mat.take(xs, axis=0)  # one kept row at a time, for memory
        out = np.array([np.add.reduce(np.maximum(row, cand), axis=1) for row in kept]).T
        return out if swap else out[:, 0]

    F = ObjectiveFamily(ground, [make(mat) for mat in matrices])
    F._block = block
    F._table_floats = sum(mat.size for mat in matrices)
    return F


def exemplar_value(members: np.ndarray, selected: np.ndarray) -> float:
    """Reduction in mean distance to the nearest exemplar, anchored at the zero vector.

    ``members`` holds the feature vectors of one class (rows); ``selected``
    the vectors chosen as exemplars for that class.  The phantom all-zero
    exemplar is always available, so an empty selection scores 0.
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
    return float(anchor.mean() - best.mean())


# Upper bound, in floats, on the (rows, width, columns) difference block that
# a distance pass of ``_exemplar_tables`` holds at once.
_DIST_BLOCK_FLOATS = 1 << 18


def _fill_distances(points: np.ndarray, groups: list, tables: list) -> None:
    """Write the distances among ``points[idx]`` into ``table`` for each
    (idx, table) of ``groups`` and ``tables``; every idx is sorted.

    The distances from a block of rows to all of ``points`` are computed at
    once, with the difference temporary under ``_DIST_BLOCK_FLOATS`` floats
    (or one row, if a row is larger), and scattered into the tables before
    the next block, so no matrix over all of ``points`` is kept.
    """
    width, columns = points.shape
    step = max(1, _DIST_BLOCK_FLOATS // (width * columns))
    for start in range(0, width, step):
        block = np.linalg.norm(
            points[start:start + step, None, :] - points[None, :, :], axis=2)
        for idx, table in zip(groups, tables):
            lo, hi = np.searchsorted(idx, (start, start + step))
            table[lo:hi] = block[np.ix_(idx[lo:hi] - start, idx)]


def _exemplar_tables(vectors: np.ndarray, class_count: int) -> list:
    """Per class i: (member ids, clipped distance table, anchor distances).

    Element e belongs to class i when ``vectors[e, i] > 0``.  Row r of class
    i's table holds the distances from member ``omega[r]``, as an exemplar,
    to every member, clipped at each member's distance to the zero anchor.

    When the classes overlap enough that |U|^2 <= sum_i |omega_i|^2, with U
    the elements in at least one class, one distance pass over U fills every
    class's table; otherwise each class gets a pass over its own members.
    Either way the build computes the smaller of the two counts of distances
    and holds the tables plus one block.  Every entry is the same last-axis
    ``np.linalg.norm`` reduction, so the tables do not depend on the pass
    or the blocking.  ``vectors`` is a float array; input errors raise as
    ``exemplar_family`` says.
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

    used = np.flatnonzero(member.any(axis=1))
    tables = [np.empty((omega.size, omega.size)) for omega in omegas]
    if used.size ** 2 <= sum(omega.size ** 2 for omega in omegas):
        _fill_distances(vectors[used],
                        [np.searchsorted(used, omega) for omega in omegas],
                        tables)
    else:
        for omega, table in zip(omegas, tables):
            _fill_distances(vectors[omega], [np.arange(omega.size)], [table])

    anchors = np.linalg.norm(vectors, axis=1)
    out = []
    for omega, table in zip(omegas, tables):
        anchor = anchors[omega]
        np.minimum(table, anchor, out=table)
        out.append((omega, table, anchor))
    return out


def exemplar_family(vectors: np.ndarray, class_count: int) -> ObjectiveFamily:
    """One exemplar-clustering function per class with a nonempty member set.

    Element e belongs to class i when ``vectors[e, i] > 0``.  The function
    for class i only "sees" selected elements that themselves belong to
    class i; everything else is screened out before the distance minimum,
    which keeps the function normalized and total.

    Each class keeps one table row per member: the member's distances to
    every class member, already clipped at those members' distances to the
    zero anchor.  Memory is therefore the sum over classes of |omega_i|^2
    floats.  Because ``min`` is exact, clipping once at build time gives
    the same numbers as clipping on every evaluation.

    ``_exemplar_tables`` builds the tables, holding one block of bounded
    size besides them.

    The block kernel ``_block`` (see ``_bases``) takes the same minima over
    the same rows, with +inf for a chosen id outside the class; it keeps
    nothing between calls.

    Raises ``ValueError`` before any distance is computed when ``vectors``
    is not 2-D, ``class_count`` is outside [1, columns], a feature is not
    finite, or a class has no members.
    """
    vectors = np.asarray(vectors, dtype=float)
    classes = [(dict(zip(omega.tolist(), table)), anchor.mean(), len(anchor))
               for omega, table, anchor in _exemplar_tables(vectors,
                                                            class_count)]

    def make(row_of, anchor_mean, width):
        def f(ids: tuple) -> float:
            # a pairwise np.minimum chain over the chosen rows, then the
            # ufunc sum that ndarray.mean runs: bit-identical to
            # np.minimum(anchor, dist[chosen].min(axis=0)).mean() on the
            # unclipped distances.  A single chosen row is read in place,
            # never written.
            best = None
            for e in ids:
                row = row_of.get(e)
                if row is not None:
                    best = row if best is None else np.minimum(best, row)
            if best is None:
                return 0.0
            return float(anchor_mean - np.add.reduce(best) / width)
        return f

    def block(i: int, key: tuple, xs: list, swap: bool) -> np.ndarray:
        row_of, anchor_mean, width = classes[i]
        gone, bases = np.full(width, np.inf), _bases(key, swap)
        kept = np.minimum.reduce(np.array(
            [[row_of.get(y, gone) for y in base] for base in bases]).reshape(
                len(bases), -1, width), axis=1, initial=np.inf)
        # f_i is exactly 0.0 on a set with no class member
        empty = [not any(y in row_of for y in base) for base in bases]
        outside = np.where(
            empty, 0.0, anchor_mean - np.add.reduce(kept, axis=1) / width)
        out = np.repeat(outside[None], len(xs), axis=0)
        hit = [b for b, x in enumerate(xs) if x in row_of]
        if hit:
            best = np.minimum(kept, np.array([row_of[xs[b]] for b in hit])[:, None])
            out[hit] = anchor_mean - np.add.reduce(best, axis=2) / width
        return out if swap else out[:, 0]

    F = ObjectiveFamily(GroundSet(len(vectors), vectors),
                        [make(*c) for c in classes])
    F._block = block
    F._table_floats = sum(width ** 2 for _, _, width in classes)
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


SYNTHETIC_KINDS = ("modular", "coverage", "facility")


def make_synthetic(kind: str, n: int, m: int, seed: int) -> ObjectiveFamily:
    """Deterministic random family of the requested kind."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; "
                         f"expected one of {SYNTHETIC_KINDS}")
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
        ground = GroundSet(n, specs)
        return ObjectiveFamily(ground, [spec.value for spec in specs])

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
