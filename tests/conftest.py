import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Allow running the suite from a fresh checkout without installing.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pushopt import (  # noqa: E402
    build_contraction_norm,
    build_cycle_plus_random,
    make_quadratic_suite,
    uniform_out_weights,
)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=150)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def small_mixing():
    """n=10 ring plus 20 random links, with its mixing data."""
    g = build_cycle_plus_random(10, 20, 5)
    return uniform_out_weights(g)


@pytest.fixture(scope="session")
def small_norm(small_mixing):
    return build_contraction_norm(small_mixing.C, small_mixing.p)


@pytest.fixture(scope="session")
def small_suite():
    return make_quadratic_suite(10, 5, 100.0, 0.01, 3)


@pytest.fixture()
def small_init(small_mixing):
    rng = np.random.default_rng(11)
    X0 = rng.standard_normal((small_mixing.n, 5))
    v0 = np.ones(small_mixing.n)
    return X0, v0
