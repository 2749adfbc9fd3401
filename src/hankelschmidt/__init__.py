"""Schmidt subspaces of finite-rank Hankel operators on the Hardy space.

Build Hankel operators from rational symbols, compute their Schmidt
subspaces, extract the model-space representation (p, theta, phi) realizing
each subspace as p K_theta, and verify the defining identities numerically.
"""

from .blaschke import (
    BlaschkeProduct,
    MobiusMap,
    blaschke_coefficients,
    compose_with_mobius,
    frostman_shift,
    mobius_conjugate_symbol,
    tm_basis,
)
from .hardy import evaluate
from .hankel import HankelMatrix, build_hankel_matrix, hankel_apply
from .extraction import (
    ExtractionError,
    Representation,
    RepresentationResiduals,
    extract_representations,
)
from .pipeline import AnalysisConfig, analyze_symbol, verify_suites
from .spectral import SchmidtBlock, schmidt_decompose
from .symbols import (
    PoleTerm,
    RationalSymbol,
    SymbolFormatError,
    fourier_coefficients,
    kronecker_rank_bound,
    parse_symbol,
    symbol_to_dict,
    tail_bound,
)

__version__ = "0.1.0"
