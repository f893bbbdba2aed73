"""Phase-space distributions and non-classicality indicators.

Evaluates Wigner, Husimi and Rivier distribution functions for finite
superpositions of Fock and squeezed-Fock states (one or two modes), and
computes the negativity-volume indicator delta, the interference
indicator eta, and the Von Neumann entanglement entropy.
"""

from .errors import (
    DegenerateStateError,
    DomainError,
    GridCoverageError,
    PhaseSpaceError,
    QuadratureError,
    ResourceBudgetError,
    StateFormatError,
    UnsupportedStateError,
)
from .grids import Axis, ModeAxes, PhaseGrid
from .indicators import (
    IndicatorResult,
    SweepRow,
    delta_indicator,
    eta_indicator,
    state_indicators,
    sweep_a,
    sweep_r,
    von_neumann_entropy,
)
from .phasespace import (
    Representation,
    build_term_table,
    cross_wigner_fock_closed,
    default_grid,
)
from .specialfn import log_factorial
from .states import (
    Primitive,
    State,
    entangled_state,
    fock,
    fock_psi,
    momentum_wavefunction,
    normalize,
    overlap,
    squeezed_excited_superposition,
    squeezed_fock,
    squeezed_fock_psi,
    squeezed_vacuum_superposition,
    state_from_json,
    state_to_dict,
)

__version__ = "0.1.0"
