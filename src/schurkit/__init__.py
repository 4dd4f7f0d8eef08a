"""Partition classification and modular character toolkit for GL_n.

The package answers, by closed combinatorial criteria and by brute force,
which irreducible polynomial modules occur in tensor products of symmetric
powers of the natural module in characteristic p, and verifies that the two
answers agree.
"""

from .characters import SymChar, decompose_schur, frobenius_twist, kostka, power_char, schur_char
from .classify import (
    classify_term,
    divisibility_index_n3,
    g1_inj_n3,
    is_1special,
    is_21good_piecewise,
    is_21special,
    is_2good,
    is_2special,
    is_critical_n3,
    is_standard,
    primitive_index,
    specht_d_lower,
    specht_d_upper,
    standard_parses,
    two_one_special_witness,
)
from .oracle import SimpleTable, composition_factors, decompose_simples, enumerate_factors
from .partitions import (
    NodeInfo,
    PAdicDigits,
    dagger,
    dominance_leq,
    is_bounded,
    is_regular,
    is_restricted,
    nodes,
    omega,
    p_adic_digits,
    p_core,
    partition,
    partitions_of,
    partitions_up_to,
    remove_node,
    rim_hook_removals,
    suitable_nodes,
    transpose,
)
from .verify import (
    SuiteReport,
    suite_1special,
    suite_combinatorial,
    suite_oracle_self,
    suite_thm_21special,
    suite_thm_2good,
)

__version__ = "0.1.0"
