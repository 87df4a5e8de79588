"""Numerics for the dephrasure channel: coherent and private information.

The dephrasure channel first dephases a qubit with probability p and
then erases it with probability q, flagging the erasure.  This package
evaluates its coherent information for single letters and multi-letter
codes, the region boundary curves where that quantity changes
character, constructive antidegradability witnesses, ensemble private
information, and lockstep L-BFGS searches over code states.
"""

__version__ = "0.1.0"

from .antideg import (
    DegradingMapReport,
    NotAntidegradableHere,
    antidegrading_map,
    verify_antidegradable,
)
from .channel import (
    bloch_state,
    coherent_info_state,
    coherent_info_xz,
    coherent_info_z,
    complementary_kraus,
    dephrasure_kraus,
    maximize_over_weights,
    region_curves,
    region_g,
    region_j,
    region_k,
    single_letter_ci,
    xz_grid_max,
)
from .codes import (
    CodeState,
    brute_force_ci,
    chi3_code,
    multiletter_ci,
    normalized_code,
    optimize_chi3,
    optimize_code_ci,
    optimize_zdiag,
    pattern_decompose,
    repetition_ci,
    repetition_ci_opt,
    repetition_code_state,
    schmidt_form,
    zdiag_code,
)
from .compci import (
    UnderflowAtParams,
    WitnessResult,
    comp_ci_eps,
    comp_ci_x_state,
    epsilon_bound,
    positivity_witness,
)
from .private_info import (
    ensemble_private_info,
    plusminus_ensemble,
    private_lower_bound,
)
from .pso import PsoConfig, PsoResult, pso_minimize, rowwise
from .qinfo import (
    KrausSet,
    apply_kraus,
    binary_entropy,
    check_density_matrix,
    choi_of,
    coherent_information,
    purify,
    shannon_entropy,
    von_neumann_entropy,
)
from .verify import SUITES, run_suite
