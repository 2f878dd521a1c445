"""Exact arithmetic for the coefficients of (1 + t + ... + t^m)^n.

The triangle of these coefficients generalizes Pascal's triangle (m = 1
recovers the binomials) and extends to negative powers n.  This package
computes the coefficients by several independent algorithms, expands their
column and diagonal generating functions, and machine-verifies a catalogue
of identities they satisfy, all in exact arithmetic wherever the statement
is exact.
"""

__version__ = "0.1.0"

from .coefficients import (
    binom,
    chi,
    coeff,
    coeff_by_binom_reduction,
    coeff_by_closed_form,
    coeff_by_recurrence,
    coeff_by_series,
    multinomial_oracle,
    row,
)
from .genfun import (
    ColumnGF,
    FNumberSeq,
    carlitz_gf,
    column_gf,
    euler_gf_check,
    f_numbers,
    pk2_closed_form_check,
    pk_by_explicit,
    pk_by_recurrence,
    pk_gf_check,
)
from .identities import (
    PROFILES,
    IdentityReport,
    IdentitySpec,
    Profile,
    build_registry,
    run_identity,
    run_suite,
)
from .series import IntPolynomial, TruncatedSeries, solve_carlitz_y
from .trinomial import (
    NumericCheck,
    brafman_partial,
    dilcher_sum,
    gegenbauer,
    hgf_series,
    integral_coeff,
    numeric_binomial_check,
    pochhammer,
    rainville_32,
    rainville_36,
)

__all__ = [
    "ColumnGF",
    "FNumberSeq",
    "IdentityReport",
    "IdentitySpec",
    "IntPolynomial",
    "NumericCheck",
    "PROFILES",
    "Profile",
    "TruncatedSeries",
    "binom",
    "brafman_partial",
    "build_registry",
    "carlitz_gf",
    "chi",
    "coeff",
    "coeff_by_binom_reduction",
    "coeff_by_closed_form",
    "coeff_by_recurrence",
    "coeff_by_series",
    "column_gf",
    "dilcher_sum",
    "euler_gf_check",
    "f_numbers",
    "gegenbauer",
    "hgf_series",
    "integral_coeff",
    "multinomial_oracle",
    "numeric_binomial_check",
    "pk2_closed_form_check",
    "pk_by_explicit",
    "pk_by_recurrence",
    "pk_gf_check",
    "pochhammer",
    "rainville_32",
    "rainville_36",
    "row",
    "run_identity",
    "run_suite",
    "solve_carlitz_y",
]
