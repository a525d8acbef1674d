import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.objectives import (_DIST_BLOCK_FLOATS, Point, Region,
                                 exemplar_family,
                                 exemplar_value, facility_convenience,
                                 facility_family, facility_value,
                                 make_synthetic)

TOL = 1e-9


class TestConvenience:
    def test_coincident_points_score_one_exactly(self):
        p = Point(40.75, -73.99)
        assert facility_convenience(p, p) == 1.0

    def test_known_value_at_hundredth_degree(self):
        # closed form: 2 - 2/(1 + e^{-2})
        expected = 2.0 - 2.0 / (1.0 + math.exp(-2.0))
        got = facility_convenience(Point(0.0, 0.0), Point(0.01, 0.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.238406, abs=1e-6)

    def test_far_points_underflow_to_zero_not_nan(self):
        got = facility_convenience(Point(0.0, 0.0), Point(1.0, 0.0))
        assert not math.isnan(got)
        assert 0.0 <= got < 1e-80

    def test_symmetric(self):
        a, b = Point(0.1, 0.2), Point(0.11, 0.19)
        assert facility_convenience(a, b) == facility_convenience(b, a)

    def test_strictly_decreasing_in_distance(self):
        origin = Point(0.0, 0.0)
        ds = [0.0, 0.001, 0.005, 0.01, 0.05]
        scores = [facility_convenience(origin, Point(d, 0.0)) for d in ds]
        assert all(a > b for a, b in zip(scores, scores[1:]))


def test_region_needs_a_point():
    with pytest.raises(ValueError, match="region must contain at least one "
                                         "point"):
        Region(())


class TestFacilityValue:
    def test_empty_candidates(self):
        region = Region((Point(0.0, 0.0),))
        assert facility_value(region, []) == 0.0

    def test_self_service(self):
        p = Point(0.0, 0.0)
        assert facility_value(Region((p,)), [p]) == 1.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        region = Region(tuple(Point(*xy) for xy in rng.uniform(0, 0.02, (3, 2))))
        cands = [Point(*xy) for xy in rng.uniform(0, 0.02, (2, 2))]
        expected = 0.0
        for a in region.members:
            expected += max(facility_convenience(a, b) for b in cands)
        assert facility_value(region, cands) == pytest.approx(expected, abs=TOL)

    def test_family_matches_scalar_path(self):
        rng = np.random.default_rng(4)
        points = [Point(*xy) for xy in rng.uniform(0, 0.02, (6, 2))]
        region = Region(tuple(points[:3]))
        F = facility_family(points, [region])
        chosen = (1, 4)
        expected = facility_value(region, [points[e] for e in chosen])
        assert F.value(0, chosen) == pytest.approx(expected, abs=TOL)


class TestFacilityFamily:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where,match", [
        ("point", "point coordinates"), ("member", "region 1")])
    def test_rejects_non_finite_coordinates_before_any_matrix(
            self, monkeypatch, bad, where, match):
        points = [Point(0.0, 0.0), Point(0.01, 0.0), Point(0.0, 0.01)]
        regions = [Region((Point(0.0, 0.0),)),
                   Region((Point(0.01, 0.01), Point(0.02, 0.0)))]
        if where == "point":
            points[2] = Point(0.0, bad)
        else:
            regions[1] = Region((Point(0.01, 0.01), Point(bad, 0.0)))

        def no_matrix(*args, **kwargs):
            raise AssertionError("a convenience matrix was built")
        monkeypatch.setattr(np, "exp", no_matrix)
        with pytest.raises(ValueError, match=match):
            facility_family(points, regions)

    def test_swap_kernel_gives_every_swap_value(self):
        F = make_synthetic("facility", 8, 3, seed=1)
        swaps, xs = [(4, 6), (1, 6), (1, 4)], [2, 0]
        for i in range(F.m):
            assert F._block(i, swaps)(xs).tolist() == [
                [F.value(i, s) for s in ((2, 4, 6), (1, 2, 6), (1, 2, 4))],
                [F.value(i, s) for s in ((0, 4, 6), (0, 1, 6), (0, 1, 4))]]
            assert F._block(i, [(1, 4, 6)])(xs).tolist() == [
                [F.value(i, (1, 2, 4, 6))], [F.value(i, (0, 1, 4, 6))]]

    def test_plain_families_have_no_swap_kernel(self):
        assert make_synthetic("coverage", 8, 3, seed=1)._block is None
        assert make_synthetic("modular", 8, 3, seed=1)._block is None


class TestExemplarValue:
    def test_empty_selection(self):
        members = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert exemplar_value(members, np.empty((0, 2))) == 0.0

    def test_single_member_fully_explained(self):
        v = np.array([[3.0, 4.0]])
        assert exemplar_value(v, v) == pytest.approx(5.0, abs=TOL)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        members = rng.integers(0, 5, (4, 3)).astype(float)
        selected = members[:2]
        # independent recomputation of both averaged-min terms
        def loss(sel):
            total = 0.0
            for x in members:
                dists = [np.linalg.norm(x)]
                dists += [np.linalg.norm(x - y) for y in sel]
                total += min(dists)
            return total / len(members)
        expected = loss([]) - loss(list(selected))
        assert exemplar_value(members, selected) == pytest.approx(expected, abs=TOL)

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            exemplar_value(np.empty((0, 2)), np.empty((0, 2)))


class TestExemplarFamily:
    def test_rejects_class_without_members(self):
        vectors = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            exemplar_family(vectors, 2)

    @pytest.mark.parametrize("vectors,class_count,match", [
        (np.ones(4), 1, "2-D"),
        (np.ones((2, 2, 2)), 1, "2-D"),
        (np.ones((3, 2)), 0, "class_count"),
        (np.ones((3, 2)), 3, "class_count"),
        (np.array([[1.0, np.nan], [1.0, 1.0]]), 2, "finite"),
        (np.array([[1.0, np.inf], [1.0, 1.0]]), 2, "finite"),
        (np.array([[-np.inf, 1.0], [1.0, 1.0]]), 2, "finite"),
        (np.array([[1.0, 0.0], [2.0, 0.0]]), 2, "no members"),
    ])
    def test_rejects_malformed_input_before_any_distance(
            self, monkeypatch, vectors, class_count, match):
        def no_distances(*args, **kwargs):
            raise AssertionError("a distance was computed")
        monkeypatch.setattr(np.linalg, "norm", no_distances)
        with pytest.raises(ValueError, match=match):
            exemplar_family(vectors, class_count)

    @staticmethod
    def build_input(overlap):
        """20 classes of count features; with ``overlap`` each of 600
        elements is in about 13 classes, else each of 2000 is in one."""
        rng = np.random.default_rng(0)
        if overlap:
            return rng.integers(0, 3, (600, 20)).astype(float)
        vectors = np.zeros((2000, 20))
        vectors[np.arange(2000), rng.integers(0, 20, 2000)] = 1.0
        return vectors

    @pytest.mark.parametrize("overlap", [True, False])
    def test_build_memory_is_tables_plus_blocks(self, overlap):
        # with overlap a per-class (|omega|, |omega|, columns) difference
        # would hold about 25 MiB on its own; without, a |U| x |U| matrix
        # would hold about 31 MiB
        vectors = self.build_input(overlap)
        tables = sum(int(w) ** 2 for w in (vectors > 0).sum(axis=0)) * 8
        bound = tables + 4 * _DIST_BLOCK_FLOATS * 8
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            F = exemplar_family(vectors, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F.m == 20
        assert peak - start <= bound

    def test_shared_build_memory_is_one_table_plus_blocks(self):
        # the overlapping input's classes share one |U| x |U| table and
        # its zero row; each class adds its n singleton values and its n
        # 4-byte row indices, which, with the zero row, fit in the block
        # allowance.  Per-class tables would hold about 25 MiB
        vectors = self.build_input(True)
        n, m = vectors.shape
        used = int((vectors > 0).any(axis=1).sum())
        bound = (used ** 2 + n * m + 4 * _DIST_BLOCK_FLOATS) * 8
        assert sum(int(w) ** 2 for w in (vectors > 0).sum(axis=0)) * 8 > \
            2 * bound
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            F = exemplar_family(vectors, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F.m == m
        assert peak - start <= bound

    def test_benchmark_shape_family_keeps_under_330_kib(self):
        # the distributed-exemplar benchmark's shape: counts 0-2 in each of
        # 20 classes over 160 elements, so one shared (161, 160) table of
        # 201 KiB.  Each class adds 160 singleton values and 160 4-byte
        # row indices, 25 and 13 KiB over the classes, and the table's row
        # views about 18 KiB.  A dict per class from member to row held
        # 64 KiB where the row indices hold 13
        vectors = np.random.default_rng(4242).integers(
            0, 3, (160, 20)).astype(float)
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            F = exemplar_family(vectors, 20)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F.m == 20
        assert kept - start < 330 * 1024

    @pytest.mark.parametrize("overlap", [True, False])
    def test_build_work_is_the_smaller_pass(self, overlap, monkeypatch):
        # distance terms: |U|^2 * columns for one pass over the used
        # elements, sum_i |omega_i|^2 * columns for one pass per class
        vectors = self.build_input(overlap)
        member = vectors > 0
        shared = int(member.any(axis=1).sum()) ** 2
        per_class = sum(int(w) ** 2 for w in member.sum(axis=0))
        terms = []
        norm = np.linalg.norm

        def counting_norm(x, *args, **kwargs):
            if np.ndim(x) == 3:
                terms.append(np.size(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        exemplar_family(vectors, 20)
        assert (shared < per_class) == overlap
        assert sum(terms) == min(shared, per_class) * 20

    def test_full_selection_attains_anchor_loss(self):
        rng = np.random.default_rng(2)
        vectors = rng.integers(1, 4, (5, 3)).astype(float)
        F = exemplar_family(vectors, 3)
        for i in range(3):
            members = vectors[vectors[:, i] > 0]
            anchor = float(np.linalg.norm(members, axis=1).mean())
            assert F.value(i, range(5)) == pytest.approx(anchor, abs=TOL)

    def test_out_of_class_elements_are_ignored(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        F = exemplar_family(vectors, 2)
        assert F.value(0, (1,)) == 0.0  # element 1 is not in class 0
        assert F.value(0, (0, 1)) == F.value(0, (0,))


class TestMakeSynthetic:
    def test_deterministic(self):
        a = make_synthetic("modular", 3, 2, seed=7)
        b = make_synthetic("modular", 3, 2, seed=7)
        for i in range(2):
            for e in range(3):
                assert a.value(i, (e,)) == b.value(i, (e,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_synthetic("sparsest-cut", 3, 2, seed=0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            make_synthetic("modular", 0, 2, seed=0)

    def test_facility_monotone_on_random_sets(self):
        F = make_synthetic("facility", 10, 2, seed=1)
        rng = np.random.default_rng(0)
        full = [F.value(i, range(10)) for i in range(2)]
        for _ in range(100):
            A = [e for e in range(10) if rng.random() < 0.5]
            for i in range(2):
                assert F.value(i, A) <= full[i] + TOL


def _random_chain(kind, draw_seed):
    """A family plus a sampled A subset-of B and an outside element v."""
    rng = np.random.default_rng(draw_seed)
    n = 8
    F = make_synthetic(kind, n, 2, seed=int(rng.integers(1 << 20)))
    v = int(rng.integers(n))
    rest = [e for e in range(n) if e != v]
    B = {e for e in rest if rng.random() < 0.6}
    A = {e for e in B if rng.random() < 0.6}
    return F, A, B, v


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "facility"]),
       draw_seed=st.integers(min_value=0, max_value=10 ** 6))
def test_monotone_and_submodular(kind, draw_seed):
    F, A, B, v = _random_chain(kind, draw_seed)
    for i in range(F.m):
        fa, fb = F.value(i, A), F.value(i, B)
        assert fa <= fb + TOL  # monotone
        ga = F.value(i, A | {v}) - fa
        gb = F.value(i, B | {v}) - fb
        assert ga >= gb - TOL  # diminishing returns
