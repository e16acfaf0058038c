"""Probabilistic-automata analysis toolkit: the Markov Monoid algorithm for
the value-1 question, numeric realization of its limit words, and the
acceptance-to-limit reduction construction."""

from .core import (AutomatonFormatError, BooleanMatrix, Concat, Literal,
                   Power, ProbabilisticAutomaton, StochasticMatrix,
                   WordSchedule, acceptance_probability, automaton_from_json,
                   automaton_to_json, expand_schedule, load_automaton,
                   schedule_acceptance_probability, schedule_matrix)
from .expressions import (Letter, Omega, OmegaExpression, Product,
                          expression_depth, format_expression, product_of)
from .monoid import (IdempotenceError, MarkovMonoid, MonoidElement,
                     boolean_product, boolean_projection, find_value1_witness,
                     format_monoid, is_idempotent, is_value1_witness,
                     letter_supports, markov_monoid, stabilize,
                     transition_monoid)
from .numerics import (ConvergenceReport, RateFit, SamplePoint,
                       estimate_limit, limit_matrix, limit_projection,
                       numeric_interpretation, polynomial_exponent,
                       realize_polynomial, realize_superpolynomial,
                       superpolynomial_exponent)
from .omega import (ExpressionSyntaxError, boolean_interpretation,
                    idempotent_power_exponent, parse_expression, parse_word,
                    repair_suggestion)
from .reduction import (PreconditionError, ReductionOutput, build_reduction,
                        counterexample_automaton, round_acceptance,
                        round_probability_by_matrix, round_schedule,
                        verify_reduction)

__version__ = "0.1.0"
