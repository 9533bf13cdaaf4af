"""Exact commutative subalgebras of enveloping algebras.

Everything is exact arithmetic over towers of rational function fields: Lie
algebras are given by structure constants, symmetric algebras carry the
Lie-Poisson bracket, enveloping algebras are handled in PBW normal form,
and the construction routines build commutative subalgebras of maximal
transcendence degree together with machine-checked certificates.
"""

from .fields import Field, FieldElement, FieldError, QQ
from .linalg import kernel_basis, rank
from .liealg import (
    HeisenbergSplit,
    LieAlgebra,
    LieAlgebraError,
    LinearForm,
    Subspace,
    bracket,
    classify_nilradical,
    coadjoint_form,
    direct_sum,
    is_reductive,
    stabilizer,
    subalgebra_of,
    validate,
)
from .polyring import PolyElement, gamma_shift, poisson
from .pbw import (
    EnvelopingAlgebra,
    PBWElement,
    ad_invariant,
    centralizer_up_to_degree,
    commutator,
    first_noncommuting_pair,
    principal_symbol,
    specialize_central,
    symmetrize,
)
from .invariants import (
    GeneratorSet,
    Sampling,
    b_of,
    b_rel,
    index_of,
    is_regular,
    symmetric_invariants,
    trdeg_jacobian,
)
from .construct import (
    ConstructError,
    abelian_qhat,
    construct_theorem,
    maximality_probe,
    mf_subalgebra,
    quantum_mf,
    verify_hat_lemmas,
)
from . import presets

__version__ = "0.1.0"
