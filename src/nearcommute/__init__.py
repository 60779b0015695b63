"""Nearby commuting matrices: constructive repair of almost-commuting pairs
and numerical verification of the quantitative bounds behind the construction.
"""

from .checks import BoundCheck
from .matcore import (
    HermitianEig,
    commutator,
    eig_hermitian,
    op_norm,
)
from .pipeline import (
    CommuteReport,
    cheap_commute,
    choose_exponents,
    commute_hermitian_pair,
    commute_hermitian_unitary,
    three_hermitian,
    unitary_pair_gap,
)
from .smoothing import (
    Profile,
    finite_range,
    finite_range_normal,
    make_smooth_step,
    partition_of_unity,
    poly_bump_profile,
    smooth_profile,
    tail_tables,
)
from .subspace import (
    HastingsConfig,
    WCertificate,
    certify_W,
    hastings_W,
    szarek_W,
    verify_tridiagonal,
)

__version__ = "0.1.0"
