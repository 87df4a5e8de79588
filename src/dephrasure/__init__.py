"""Numerics for the dephrasure channel: coherent and private information.

The dephrasure channel first dephases a qubit with probability p and
then erases it with probability q, flagging the erasure.  This package
evaluates its coherent information for single letters and multi-letter
codes, the region boundary curves where that quantity changes
character, constructive antidegradability witnesses, ensemble private
information, and lockstep L-BFGS searches over code states.

The names below are exported lazily (PEP 562): ``import dephrasure``
loads no submodule, and ``dephrasure.NAME`` imports NAME's submodule on
first use.  Each access reads the submodule's current binding, so a name
patched there shows through the package.
"""

import importlib

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "antideg": (
            "DegradingMapReport",
            "NotAntidegradableHere",
            "antidegrading_map",
            "verify_antidegradable",
        ),
        "channel": (
            "bloch_state",
            "coherent_info_state",
            "coherent_info_xz",
            "coherent_info_z",
            "complementary_kraus",
            "dephrasure_kraus",
            "maximize_over_weights",
            "region_curves",
            "region_g",
            "region_j",
            "region_k",
            "single_letter_ci",
            "xz_grid_max",
        ),
        "codes": (
            "CodeState",
            "brute_force_ci",
            "chi3_code",
            "multiletter_ci",
            "normalized_code",
            "optimize_chi3",
            "optimize_code_ci",
            "optimize_zdiag",
            "pattern_decompose",
            "repetition_ci",
            "repetition_ci_opt",
            "repetition_code_state",
            "schmidt_form",
            "zdiag_code",
        ),
        "compci": (
            "UnderflowAtParams",
            "WitnessResult",
            "comp_ci_eps",
            "comp_ci_x_state",
            "epsilon_bound",
            "positivity_witness",
        ),
        "private_info": (
            "ensemble_private_info",
            "plusminus_ensemble",
            "private_lower_bound",
        ),
        "pso": ("PsoConfig", "PsoResult", "pso_minimize", "rowwise"),
        "qinfo": (
            "KrausSet",
            "apply_kraus",
            "binary_entropy",
            "check_density_matrix",
            "choi_of",
            "coherent_information",
            "purify",
            "shannon_entropy",
            "von_neumann_entropy",
        ),
        "verify": ("SUITES",),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # not stored here: a later access must see a rebinding in the submodule
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
