"""Every identity can fail, and no identity is a tautology.

Sensitivity: moving the closed side of one case fails exactly that case,
so an identity whose check could not see a wrong side, or that compared
the wrong values, shows up as a case that still passes.

The guard: each direct side is a literal sum that never reads the closed
form. Every closed-side primitive (phi, Mobius, Jordan totients, the
Faulhaber closed form, ...) is perturbed in the namespace of the code that
reads it; on each tag's small grid the direct column must then stay
identical and the closed column must move. A direct side routed through
the closed form moves with it, and a closed side read from the direct
side's tables stays still. Both fail the guard. The guard works from the
catalog, so a new tag needs no entry here unless it is one of the declared
exceptions below.
"""

import dataclasses
import math
from itertools import count
from operator import ne

import pytest

import ramavg.arith as arith
import ramavg.averages as averages
import ramavg.exact as exact
import ramavg.multivar as multivar
import ramavg.ramanujan as ramanujan
import ramavg.verify as verify
from ramavg.verify import IDENTITY_TAGS

from test_runs import assert_only_these_fail, grid_of, runs_of, small_config

TOLERANCE = 1e-8  # the default a sweep compares at

# The evaluator modules, by the short names the bindings below use.
MODULES = {
    m.__name__.rpartition(".")[2]: m for m in (exact, ramanujan, multivar, averages, verify)
}

# The closed-side primitives, wherever they are bound.
PRIMITIVES = (
    arith.euler_phi, arith.mobius, arith.jordan_totient, arith.von_mangoldt, arith.factorize,
    exact.power_sum_closed, exact.bernoulli_number, math.comb,
    averages.log_factorial, averages.cos_pi,
)


def _plus(step):
    return lambda real: lambda *args: real(*args) + step


def _one_more_prime(real):
    """n's factorization with the next prime above n added: past every
    prime of n, and too large to divide a cofactor, so that
    coprime_power_sum stays integral."""

    def patched(n):
        p = next(q for q in count(n + 1) if arith.is_prime(q))
        return (*real(n), (p, 1))

    return patched


# "module.name" -> a function of the real primitive that returns the
# perturbed one: ints and Fractions move by 1, floats by 1e-3.
PERTURBED = {
    "averages.euler_phi": _plus(1),
    "averages.mobius": _plus(1),
    "averages.jordan_totient": _plus(1),
    "averages.power_sum_closed": _plus(1),
    "averages.bernoulli_number": _plus(1),
    "averages.comb": _plus(1),
    "averages.cos_pi": _plus(1e-3),
    "averages.log_factorial": _plus(1e-3),
    "averages.von_mangoldt": _plus(1e-3),
    "averages.factorize": _one_more_prime,
    "multivar.euler_phi": _plus(1),
    "multivar.mobius": _plus(1),
    "multivar.power_sum_closed": _plus(1),
    "multivar.factorize": _one_more_prime,
    "verify.euler_phi": _plus(1),
    "exact.power_sum_closed": _plus(1),
    "exact.factorize": _one_more_prime,
    # phi(n) n keeps every Holder division exact; phi(n) + 1 would make it raise.
    "ramanujan.euler_phi": lambda real: lambda n: real(n) * n,
}

# Bindings of a primitive that direct sides read, so the guard leaves them.
LEFT_ALONE = {
    "ramanujan.mobius": "ramanujan_row reads it: every direct side's row",
    "exact.bernoulli_number": "the coefficient table of B_m(x) that direct sides read",
    "exact.comb": "it builds the coefficient table of B_m(x) that direct sides read",
}

# The declared exceptions; a tag on none of these lists has its direct side
# on the lhs and must pass the whole guard.
DIRECT_ON_RHS = {"faulhaber", "coprime-power-sum"}  # the brute-force sums
NO_DIRECT_SIDE = {
    "e-multiplicativity": "two divisor-lattice values",
    "half-sum": "a lemma on Bernoulli numbers",
}
# Primitives a direct side reads by definition: the guard leaves them.
DIRECT_READS = {"mobius-log": {"averages.mobius"}}
# The closed side reads no perturbed primitive, so only the direct half holds.
CLOSED_READS_NONE = {"gamma-product", "inverse-dft", "bernoulli-poly-sum"}


def _sides(tag):
    """The lhs and rhs columns of tag's small grid, the side columns of each
    run _compare yields joined in grid order."""
    ident = verify._lookup(tag)
    config = small_config(tag)
    lhs, rhs = [], []
    for lead, run in runs_of(config):
        for _, columns in verify._compare(ident, lead, run, config.tolerance, config.seed):
            lhs += list(columns.lhs)
            rhs += list(columns.rhs)
    return lhs, rhs


def moved_cases(monkeypatch, clear_run_caches, tag):
    """(direct, closed): how many cases of tag's small grid change their
    direct side, and their closed side, once every closed-side primitive
    the tag's direct side does not read by definition is perturbed. The run
    caches are emptied first, so no table built unperturbed is read."""
    before = _sides(tag)
    clear_run_caches()
    for binding, perturb in PERTURBED.items():
        if binding not in DIRECT_READS.get(tag, ()):
            module, _, name = binding.partition(".")
            monkeypatch.setattr(MODULES[module], name, perturb(getattr(MODULES[module], name)))
    after = _sides(tag)
    direct = 1 if tag in DIRECT_ON_RHS else 0
    assert len(before[0]) == len(after[0]) == len(before[1]) == len(after[1])
    return (
        sum(map(ne, before[direct], after[direct])),
        sum(map(ne, before[1 - direct], after[1 - direct])),
    )


@pytest.mark.parametrize("tag", [tag for tag in IDENTITY_TAGS if tag not in NO_DIRECT_SIDE])
def test_only_the_closed_side_reads_the_closed_primitives(monkeypatch, clear_run_caches, tag):
    direct, closed = moved_cases(monkeypatch, clear_run_caches, tag)
    assert direct == 0, f"{tag}: {direct} direct sides read a closed-side primitive"
    if tag not in CLOSED_READS_NONE:
        assert closed > 0, f"{tag}: no closed side reads a perturbed primitive"


def test_the_guard_sees_a_direct_side_routed_through_the_closed_form(
    monkeypatch, clear_run_caches
):
    def s_r_multi_direct_batch(t, rs):
        # Still reads the row, for phi(k) = c_k(0).
        (k,) = t
        phi = ramanujan.ramanujan_row(k)[0]
        return [
            averages.power_sum_closed(
                k, r, phi, [averages.jordan_totient(2 * m, k) for m in range(r // 2 + 1)]
            )
            for r in rs
        ]

    monkeypatch.setattr(multivar, "s_r_multi_direct_batch", s_r_multi_direct_batch)
    assert moved_cases(monkeypatch, clear_run_caches, "prop1")[0] > 0


def test_the_guard_sees_a_closed_side_read_from_the_direct_table(monkeypatch, clear_run_caches):
    monkeypatch.setattr(multivar, "s_r_multi_closed_batch", multivar.s_r_multi_direct_batch)
    assert moved_cases(monkeypatch, clear_run_caches, "prop7")[1] == 0


def test_the_guard_sees_every_binding_of_a_primitive():
    bound = {
        f"{module}.{name}"
        for module, m in MODULES.items()
        for name, value in vars(m).items()
        if any(value is p for p in PRIMITIVES)
    }
    assert bound == PERTURBED.keys() | LEFT_ALONE.keys()
    assert not PERTURBED.keys() & LEFT_ALONE.keys()


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_one_perturbed_case_fails_alone(monkeypatch, tag):
    ident = verify._lookup(tag)
    if ident.mode == "exact":
        shift = lambda x: x + 1  # noqa: E731
    else:
        shift = lambda x: x + 100 * TOLERANCE * (1 + abs(x))  # noqa: E731
    closed = 0 if tag in DIRECT_ON_RHS else 1
    config = small_config(tag)
    grid = grid_of(config)
    case = grid[len(grid) // 2]

    def evaluate(lead, column, seed):
        columns = list(ident.evaluate(lead, column, seed))
        columns[closed] = [
            shift(side) if ((v,) if lead is None else (lead, v)) == case else side
            for side, v in zip(columns[closed], column, strict=True)
        ]
        return tuple(columns)

    monkeypatch.setitem(verify._CATALOG, tag, dataclasses.replace(ident, evaluate=evaluate))
    assert_only_these_fail(config, {case}, raised=False)
