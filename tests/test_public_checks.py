"""Public entry points check their vectors once, where they arrive; the
solver's own arrays skip the check on internal paths. These pin that each
public function still rejects malformed input with its own message."""

import math
import re

import numpy as np
import pytest

from nomaopt.fractional import dinkelbach_project
from nomaopt.model import Allocation, AllocationError
from nomaopt.reduction import (
    allocation_from_powers,
    compute_nd,
    reduce_scenario,
    sum_rate_from_powers,
    z_from_p,
)

from conftest import make_scenario

# two cells on two carriers: four reduced powers, caps of 2 W
_R = reduce_scenario(make_scenario([[[1.0, 0.5], [0.2, 0.1]], [[0.3, 0.2], [1.0, 2.0]]]))
_GOOD = [0.5, 1.0, 0.25, 2.0]

# name -> malformed powers
_BAD = {
    "short": _GOOD[:3],
    "long": _GOOD + [0.5],
    "nan": [0.5, math.nan, 0.25, 2.0],
    "inf": [0.5, math.inf, 0.25, 2.0],
    "negative": [0.5, -1e-12, 0.25, 2.0],
}


def _powers_message(kind):
    if kind in ("short", "long"):
        return f"expected 4 reduced powers, got {len(_BAD[kind])}"
    return "powers must be finite and non-negative"


@pytest.mark.parametrize("kind", sorted(_BAD))
@pytest.mark.parametrize("fn", [compute_nd, z_from_p, sum_rate_from_powers, allocation_from_powers])
def test_reduced_power_functions_reject_malformed_powers(fn, kind):
    fn(_R, _GOOD)
    with pytest.raises(ValueError, match=f"^{re.escape(_powers_message(kind))}$"):
        fn(_R, _BAD[kind])


@pytest.mark.parametrize("kind", sorted(_BAD))
def test_projection_rejects_malformed_start(kind):
    ray = [2.0, 3.0, 1.5, 4.0]
    dinkelbach_project(_R, ray, start=_GOOD)
    with pytest.raises(ValueError, match="^start powers must lie within the carrier caps$"):
        dinkelbach_project(_R, ray, start=_BAD[kind])


@pytest.mark.parametrize("ray", [[2.0, 3.0, 1.5], [2.0, 3.0, 1.5, 4.0, 2.0], [2.0, math.nan, 1.5, 4.0],
                                 [2.0, math.inf, 1.5, 4.0], [2.0, 3.0, 0.5, 4.0]])
def test_projection_rejects_malformed_ray(ray):
    with pytest.raises(ValueError, match=r"^need 4 finite ray entries >= 1$"):
        dinkelbach_project(_R, ray)


@pytest.mark.parametrize("kind", sorted(_BAD))
def test_allocation_rejects_malformed_powers(kind):
    a = np.ones(4, dtype=int)
    Allocation(a=a, p=_GOOD)
    message = ("a and p must be 1-D vectors of equal length" if kind in ("short", "long")
               else "powers must be finite and non-negative")
    with pytest.raises(AllocationError, match=f"^{re.escape(message)}$"):
        Allocation(a=a, p=_BAD[kind])
    assert issubclass(AllocationError, ValueError)


def test_allocation_from_powers_matches_a_checked_allocation():
    # the internal path builds the Allocation without re-checking it; it
    # must be the one the checked constructor builds, frozen the same way
    alloc = allocation_from_powers(_R, _GOOD)
    ref = Allocation(a=alloc.a, p=alloc.p)
    assert alloc.a.tobytes() == ref.a.tobytes() and alloc.p.tobytes() == ref.p.tobytes()
    assert (alloc.a.dtype, alloc.p.dtype) == (ref.a.dtype, ref.p.dtype)
    assert not alloc.a.flags.writeable and not alloc.p.flags.writeable
