"""Probabilistic-automata analysis toolkit: the Markov Monoid algorithm for
the value-1 question, numeric realization of its limit words, and the
acceptance-to-limit reduction construction.

The exports resolve on first access (PEP 562), each from the module that
defines it, so importing the package loads no submodule: numpy comes in
only with `numerics`, `reduction` or the first numeric use of a matrix.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("AutomatonFormatError", "BooleanMatrix", "Concat", "Literal", "Power",
             "ProbabilisticAutomaton", "StochasticMatrix", "WordSchedule",
             "acceptance_probability", "automaton_from_json", "automaton_to_json",
             "load_automaton", "schedule_acceptance_probability", "schedule_matrix"),
    "expressions": ("Letter", "Omega", "OmegaExpression", "Product", "format_expression",
                    "product_of"),
    "monoid": ("IdempotenceError", "MarkovMonoid", "MonoidElement", "boolean_product",
               "boolean_projection", "find_value1_witness", "format_monoid", "is_idempotent",
               "letter_supports", "markov_monoid", "stabilize"),
    "numerics": ("ConvergenceReport", "RateFit", "SamplePoint", "estimate_limit",
                 "limit_matrix", "limit_projection", "numeric_interpretation",
                 "polynomial_exponent", "realize_polynomial", "realize_superpolynomial",
                 "superpolynomial_exponent"),
    "omega": ("ExpressionSyntaxError", "boolean_interpretation", "idempotent_power_exponent",
              "parse_expression", "parse_word", "repair_suggestion"),
    "reduction": ("PreconditionError", "ReductionOutput", "build_reduction",
                  "counterexample_automaton", "round_acceptance", "round_schedule",
                  "verify_reduction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached here: an export is always its defining module's binding.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
