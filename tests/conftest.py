import numpy as np
import pytest

from twostage.core import GroundSet, ObjectiveFamily


def modular_family(*weight_rows):
    """Family of modular functions from explicit per-element weights."""
    n = len(weight_rows[0])
    ground = GroundSet(n)

    def make(w):
        return lambda ids: float(sum(w[e] for e in ids))

    return ObjectiveFamily(ground, [make(tuple(r)) for r in weight_rows])


@pytest.fixture
def worked_instance():
    """The 3-element two-function instance every hand-trace uses.

    f1 weights (3, 2, 1), f2 weights (1, 2, 3); with ell=2, k=1 the optimum
    is S={0, 2}, T1={0}, T2={2}, value 3.
    """
    return modular_family((3.0, 2.0, 1.0), (1.0, 2.0, 3.0))


def poisoned_family(bad, n=6, poison=3):
    """Two functions on n elements; function 1 evaluates to ``bad`` on every
    set that contains ``poison`` and is modular elsewhere."""
    def clean(ids):
        return float(sum(1.0 + e for e in ids))

    def poisoned(ids):
        return bad if poison in ids else float(len(ids))

    return ObjectiveFamily(GroundSet(n), [clean, poisoned])


def kernel_counted(F):
    """A copy of F whose objective calls are counted: (family, [calls])."""
    calls = [0]

    def counted(f):
        def g(key):
            calls[0] += 1
            return f(key)
        return g

    copy = ObjectiveFamily(F.ground, [counted(f) for f in F._functions])
    calls[0] = 0
    return copy, calls


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def float_features(n, classes, seed):
    """Real-valued features in [0, 2); each entry is zero with probability 0.4."""
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(0.0, 2.0, (n, classes))
    vectors[rng.random((n, classes)) < 0.4] = 0.0
    vectors[0] = 1.0  # every class has a member
    return vectors
