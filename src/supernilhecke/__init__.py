"""
Exact arithmetic for the enlarged nilHecke superalgebra: the supercommutative
polynomial ring with its symmetric-group action and Demazure operators, Schur
superpolynomials and invariants, canonical normal forms and multiplication,
induction decompositions with the categorified commutator short exact
sequence, differentials with homology, and graded-dimension bookkeeping.
"""
from .algebra import (
    AlgebraElement, act, basis, basis_counts, cyclotomic_grdim, idempotent_e,
    phi, random_element, tau, theta, tight_basis, verify_relations,
)
from .dgstructure import (
    DgParams, apply_dN, homology_ranks, nilhecke_cyclotomic_oracle,
    verify_d_squared,
)
from .gradedseries import (
    GradedDim, cyclotomic_grdim_closed_form, grdim_An, nilhecke_cyclotomic_grdim,
    quantum_factorial, quantum_int, sdim_An, ses_dimension_check, shapovalov_unit,
    verma_shapovalov,
)
from .induction import (
    SesComponents, crossing_map, decompose_left, embed, recombine_left,
    recombine_ses, restrict, ses_split,
)
from .invariants import (
    Superpartition, decompose_over_invariants, eps_sign,
    invariant_basis_at_lambda, is_invariant, recombine_over_invariants,
    schubert, schur_super, schur_zero, schur_zero_product, strict_partitions,
)
from .superring import (
    SuperPolynomial, apply_perm, apply_simple, complete_h, demazure,
    demazure_perm, demazure_word, elementary_e, labeled_omega, omega_to_top,
    omega_top_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
