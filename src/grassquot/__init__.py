"""Exact combinatorics of torus quotients of Grassmannians."""

from .weyl import (ColumnTuple, ReducedWord, Weight, bruhat_leq, canonical_word,
                   gamma_tableau, is_coxeter_quotient, minimal_richardson_v,
                   minimal_schubert, restriction_height)
from .tableaux import (Tableau, column_census, count_invariants,
                       enumerate_invariants, is_zero_weight)
from .pluecker import (PlueckerPoly, evaluate, restrict_schubert, straighten,
                       tableau_to_poly, verify_relation)
from .rewriting import (RewriteSystem, ambiguities, check_confluence, g37_rules,
                        normal_form_count, reduce_poly, scroll_matrix_check)
from .deodhar import (SubexpressionMask, cell_matrix, classify,
                      enumerate_distinguished, find_pds, quotient_probe,
                      restrict_section)
from .projnorm import (defect_profile, factorize, family_check, mod_m_symmetry,
                       s_blocks, split, surjectivity_oracle, swap_rewrite)

__version__ = "0.1.0"
