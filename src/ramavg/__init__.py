"""Ramanujan sums, their weighted averages, and exact identity verification."""

from .arith import (
    Factorization,
    VonMangoldtValue,
    dirichlet_convolve,
    divisor_count_and_sum,
    divisors,
    euler_phi,
    factorize,
    jordan_totient,
    mobius,
    von_mangoldt,
)
from .averages import (
    ArithmeticFunction,
    bernoulli_weighted_pair,
    binomial_weighted_cosine,
    binomial_weighted_exact,
    gamma_product_check,
    gamma_weighted_pair,
    gcd_weighted_pair,
    inverse_dft_check,
    log_weighted_pair,
    mobius_log_check,
    s_r_closed,
    s_r_direct,
)
from .exact import (
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    coprime_power_sum,
    half_sum_check,
    power_sum,
)
from .multivar import (
    BudgetError,
    ModulusTuple,
    g_m,
    orbicyclic_direct,
    orbicyclic_divisor,
    s_r_multi_closed,
    s_r_multi_direct,
)
from .ramanujan import (
    RamanujanRow,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_sum_float,
    ramanujan_sum_holder,
)
from .verify import IdentityCase, SuiteConfig, VerificationReport, run_identity, run_suite

__version__ = "0.1.0"
