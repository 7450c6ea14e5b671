"""Every identity can fail: moving one side of one case fails exactly that
case. Each tag perturbs a function its evaluator looks up when it runs
(the closed side where that moves nothing else), so an identity whose
check could not see a wrong side, or that compared the wrong values,
shows up here as a case that still passes.
"""

import pytest

import ramavg.averages as averages
import ramavg.exact as exact
import ramavg.multivar as multivar
import ramavg.verify as verify
from ramavg.verify import IDENTITY_TAGS, identity_mode

from test_runs import assert_only_these_fail, grid_of, small_config

TOLERANCE = 1e-8  # the default a sweep compares at


def _key(v):
    """A patched function's argument as it appears in the case's params."""
    return getattr(v, "ks", getattr(v, "name", v))


def _shift_side(out, shift):
    """Perturb a value, or the rhs of an (lhs, rhs) tuple of sides."""
    if type(out) is tuple:
        return out[0], shift(out[1])
    return shift(out)


def one(case):
    """real(*args) returns one side, or both, of the case its arguments
    name; arguments past the case's values, and values past real's
    arguments, are not compared."""

    def wrap(real, shift):
        def patched(*args):
            out = real(*args)
            keys = tuple(map(_key, args))[: len(case)]
            return _shift_side(out, shift) if keys == case[: len(keys)] else out

        return patched

    return case, wrap


def batch(case):
    """real(lead, items, ...) returns one side, or both, per item."""

    def wrap(real, shift):
        def patched(lead, items, *rest):
            out = real(lead, items, *rest)
            return [
                _shift_side(x, shift) if (_key(lead), _key(item)) == case else x
                for x, item in zip(out, items)
            ]

        return patched

    return case, wrap


# tag -> (owner, name, (case, wrap)): owner.name (or owner[name]) is
# replaced by wrap(real, shift), which perturbs it at case only.
SENSITIVITY = {
    "prop1": (averages, "s_r_closed_batch", batch((6, 2))),
    "prop2": (averages, "log_weighted_pair", one((6,))),
    "prop3": (averages, "gcd_weighted_batch", batch((6, "sigma"))),
    "prop3-corollary": (verify._COROLLARY_RHS, "tau", one((6, "tau"))),
    "prop4": (averages, "gamma_weighted_pair", one((6,))),
    "gamma-product": (averages, "gamma_product_check", one((6,))),
    "mobius-log": (averages, "mobius_log_check", one((6,))),
    "prop5-exact": (averages, "binomial_weighted_exact", one((6,))),
    "prop5-cosine": (averages, "binomial_weighted_cosine", one((6,))),
    "prop6": (averages, "bernoulli_weighted_batch", batch((6, 3))),
    "inverse-dft": (averages, "inverse_dft_batch", batch((6, 4))),
    "prop7": (multivar, "s_r_multi_closed_batch", batch(((2, 3), 2))),
    "prop7-corollary": (multivar, "orbicyclic_divisor", one(((2, 3),))),
    "e-integrality": (multivar, "orbicyclic_divisor", one(((2, 3),))),
    "e-multiplicativity": (multivar, "multiplicativity_sides", one(((3, 4), (1, 7)))),
    "cross-evaluator": (verify, "ramanujan_sum_holder_batch", batch((6, 4))),
    "half-sum": (exact, "half_sum_check", one((3,))),
    "faulhaber": (exact, "power_sum", one((6, 3))),
    "coprime-power-sum": (exact, "coprime_power_sum", one((6, 3))),
    # exact.bernoulli_number would move the direct side too, through the
    # coefficient table of B_m(x).
    "bernoulli-poly-sum": (verify, "_bernoulli_poly_sum_direct", one((6, 3))),
}


def test_the_table_covers_every_tag():
    assert set(SENSITIVITY) == set(IDENTITY_TAGS)


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_one_perturbed_case_fails_alone(monkeypatch, tag):
    owner, name, (case, wrap) = SENSITIVITY[tag]
    if identity_mode(tag) == "exact":
        shift = lambda x: x + 1  # noqa: E731
    else:
        shift = lambda x: x + 100 * TOLERANCE * (1 + abs(x))  # noqa: E731
    config = small_config(tag)
    assert case in grid_of(config)
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, wrap(owner[name], shift))
    else:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name), shift))
    assert_only_these_fail(config, {case}, raised=False)
