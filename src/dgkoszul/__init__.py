"""Exact Koszul DG-ring calculus over graded quotient rings.

Builds Koszul complexes and trivial-extension DG-rings over S/J, computes
homological invariants (inf/sup/amp, dimension, depth, sequential depth,
dualizing complexes), and mechanically verifies the Cohen-Macaulay and
Gorenstein transfer statements on concrete instances.  All arithmetic is
exact (prime fields or rationals); every symbolic homology computation can
be cross-checked by a Groebner-independent degree-truncation oracle.
"""

from .fields import DEFAULT_PRIME, PrimeField, RationalField, field_from_json
from .poly import PolyRing, Polynomial
from .parse import ParseError, parse_poly
from .rings import QuotientRing, quotient_ring_from_strings
from .hilbert import NEG_INF, POS_INF, HilbertSeries
from .modules import FPModule, kernel, min_gens, subquotient
from .complexes import (
    Complex,
    betti_table,
    euler_series,
    free_resolution,
    koszul_complex,
    tensor_complexes,
    truncation_oracle,
)
from .dgring import (
    DGRingRep,
    ElementOfH0,
    RingMap,
    base_change,
    dg_from_ring,
    dg_tensor,
    koszul,
    lift_independence_check,
    trivial_extension,
)
from .invariants import (
    RegularSequenceWitness,
    cm_certify,
    compute_invariants,
    depth,
    flatdim_over_regular,
    greedy_regular_sequence,
    has_constant_amplitude,
    homotopy_fiber,
    is_local_cm,
    is_regular,
    lcdim,
    seq_depth,
)
from .duality import (
    betti_numbers,
    dualizing_complex,
    dualizing_of_koszul,
    gorenstein_dg_check,
    is_gorenstein_ring,
    self_duality_check,
)
from .jobs import RunConfig, canonical_json, run_job, run_suite

__version__ = "0.1.0"
