"""normlab: a finite permutation-group engine plus a verification lab that
mechanically checks structural statements about maximal normalizers,
Frobenius products, and fixed-point-free actions on concrete groups.
"""

__version__ = "0.1.0"

from .errors import NormlabError
from .perm import Perm, commutator, conjugate, format_perm, identity, perm_from_cycles
from .group import Group, trivial_group
from .subgroups import (
    Subgroup,
    center,
    centralizer,
    core,
    enumerate_subgroups,
    fingerprint,
    intersection,
    is_normal,
    is_simple,
    join,
    minimal_normal_subgroups,
    normal_closure,
    normalizer,
    subgroup,
    trivial_subgroup,
    whole,
)
from .structure import (
    QuotientGroup,
    SeriesReport,
    derived_series,
    fitting_length,
    fitting_subgroup,
    is_abelian,
    is_cyclic,
    is_generalized_quaternion,
    is_hall,
    is_nilpotent,
    is_p_nilpotent,
    is_solvable,
    lower_central_series,
    nilpotency_class,
    p_core,
    quotient,
    sylow_subgroup,
    thompson_subgroup,
)
from .theorems import (
    FrobeniusDecomposition,
    MODE_FIT_NORMAL,
    MODE_H_NORMAL,
    fixed_point_free,
    frobenius_decomposition,
    is_frobenius_product,
    is_maximal_normalizer,
    maximal_normalizer_context,
    verify_burnside_complement,
    verify_comp22,
    verify_hall_lemma,
    verify_rem23,
    verify_simp,
    verify_thompson,
)
from .verdict import Check, VerdictReport
from .catalog import GroupSpec, build, default_sweep, parse_group_file, parse_spec
from .scan import intro_suite, scan, scan_group
from .limits import Limits, get_limits, set_limits, using_limits
