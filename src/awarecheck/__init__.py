"""awarecheck: model checking, validity sweeps and Hilbert-proof checking for
quantified epistemic logics of awareness over world-relative languages."""

from .checker import (KXA, XA, K_ONLY, Profile, QuantifierDomain, Truth,
                      brute_force_forall, direct_evaluate, evaluate,
                      evaluate_hr, evaluate_with_witness, forall_witness,
                      realizable_profiles, satisfying_worlds,
                      stabilization_depth, weak_counterexample, weakly_valid)
from .model import (AwarenessStructure, InvalidStructure, PropertyReport,
                    count_models, enumerate_models, generate_random,
                    load_model, model_from_dict, model_to_dict,
                    parse_model_class, rename_props, save_model, swap_model,
                    validate)
from .syntax import (TOP, A, And, APrime, AStar, Exists, Forall, Formula,
                     Iff, Implies, K, Not, Or, ParseError, Prop, Top, Var, X,
                     free_vars, is_quantifier_free, is_sentence, map_props,
                     parse, pretty, subst_prop, subst_var, swap_props,
                     vocabulary)

__version__ = "0.1.0"
