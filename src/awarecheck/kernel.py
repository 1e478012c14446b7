"""Selects the compiled kernels (profile closure + formula-program
interpreter), falling back to pure Python.

The compiled kernels handle up to 64 worlds/propositions; on larger inputs
(far beyond desk scale) the closure routes to the pure one itself, and the
compiled evaluator raises OverflowError so the caller can run the pure one.
Setting AWARECHECK_PURE=1 in the environment forces the pure path everywhere.
"""

import os

from ._kernel_py import OP_A, OP_AND, OP_K, OP_NOT, OP_PROP, OP_TOP, OP_X
from ._kernel_py import close_profiles as _close_py
from ._kernel_py import make_evaluator as make_pure_evaluator

try:
    if os.environ.get("AWARECHECK_PURE"):
        raise ImportError("pure backend forced")
    from ._kernel_c import close_profiles as _close_c
    from ._kernel_c import make_evaluator

    BACKEND = "c"
except ImportError:
    _close_c = None
    make_evaluator = make_pure_evaluator
    BACKEND = "python"


def close_profiles(n_worlds, lang_masks, prop_true_masks, succ_masks,
                   aware_masks, use_not, use_and, use_k, use_a, use_x,
                   include_top, max_profiles):
    if _close_c is not None and n_worlds <= 64 \
            and len(prop_true_masks) <= 64 and len(succ_masks) <= 64:
        return _close_c(n_worlds, lang_masks, prop_true_masks, succ_masks,
                        aware_masks, use_not, use_and, use_k, use_a, use_x,
                        include_top, max_profiles)
    return _close_py(n_worlds, lang_masks, prop_true_masks, succ_masks,
                     aware_masks, use_not, use_and, use_k, use_a, use_x,
                     include_top, max_profiles)


__all__ = ["close_profiles", "make_evaluator", "make_pure_evaluator",
           "BACKEND", "OP_PROP", "OP_TOP", "OP_NOT", "OP_AND", "OP_K", "OP_A",
           "OP_X"]
