"""Reduction from word acceptance to limit acceptance, and the companion
counterexample automaton.

`build_reduction` turns an automaton A into an automaton B that plays
rounds: each round reads `check` and then k copies of `w end`, staying in a
left (accepting) copy of A with probability x^k/2 and a right (rejecting)
copy with probability (1-x)^k/2, where x is A's acceptance probability of
w.  Whether repeating rounds can push B's acceptance probability to 1
depends on whether x exceeds 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProbabilisticAutomaton, StochasticMatrix, acceptance_probability
from .expressions import Letter, Omega, Product, product_of
from .numerics import (ConvergenceReport, polynomial_exponent, superpolynomial_exponent,
                       sweep)

CHECK = "check"
END = "end"


class PreconditionError(ValueError):
    """Input automaton violates a structural requirement of the construction."""


@dataclass(frozen=True, eq=False)
class ReductionOutput:
    automaton: ProbabilisticAutomaton
    state_map: dict


def counterexample_automaton(x: float) -> ProbabilisticAutomaton:
    """Five-state automaton whose limit behaviour separates the two exponent
    schedules: (b a^k)^(2^k) is accepted in the limit when x > 1/2, while
    (b a^k)^k never is.

    The letter b splits evenly between a left branch (leading to acceptance)
    and a right branch (leading to rejection); the letter a retains the left
    branch with probability x and the right branch with probability 1 - x,
    returning to the neutral start state otherwise.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"branch retention probability must lie in (0, 1), got {x!r}")
    a = [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0 - x, x, 0.0, 0.0, 0.0],
        [x, 0.0, 1.0 - x, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    b = [
        [0.0, 0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return ProbabilisticAutomaton(
        states=("p0", "qL", "qR", "acc", "rej"),
        alphabet=("a", "b"),
        transitions={"a": a, "b": b},
        initial=(1.0, 0.0, 0.0, 0.0, 0.0),
        final=(False, False, False, True, False),
    )


def build_reduction(automaton: ProbabilisticAutomaton) -> ReductionOutput:
    """Construct the round-playing automaton over the extended alphabet.

    Requires a unique initial state (unit initial vector) with no incoming
    transitions from other states.  The result has 2|Q| + 3 states: two
    tagged copies of Q, the neutral round state p0, the accepting sink qF
    and the rejecting sink bot.
    """
    support = automaton.initial_support()
    # The constructor holds the initial mass to 1: one supported state has it all.
    if len(support) != 1:
        raise PreconditionError("initial distribution must be a unit vector")
    q0 = support[0]
    for letter in automaton.alphabet:
        entries = automaton.transition(letter).entries
        for s in range(automaton.dim):
            if s != q0 and entries[s, q0] > 0.0:
                raise PreconditionError(
                    f"state {automaton.states[s]!r} has a transition into the "
                    f"initial state on letter {letter!r}")
    for reserved in (CHECK, END):
        if reserved in automaton.alphabet:
            raise PreconditionError(f"alphabet already contains the reserved letter {reserved!r}")

    base_states = automaton.states
    d = automaton.dim
    states = (["p0"]
              + [f"{q}:L" for q in base_states]
              + [f"{q}:R" for q in base_states]
              + ["qF", "bot"])
    if len(set(states)) != len(states):
        raise PreconditionError("state names collide with the reduction naming scheme")

    n = len(states)
    p0, qf, bot = 0, n - 2, n - 1
    left = lambda q: 1 + q
    right = lambda q: 1 + d + q

    # Every letter's matrix starts from this template: p0, qF and bot loop.
    loops = np.zeros((n, n))
    loops[[p0, qf, bot], [p0, qf, bot]] = 1.0

    transitions = {}
    for letter in automaton.alphabet:
        m = transitions[letter] = loops.copy()
        source = automaton.transition(letter).entries
        m[left(0):left(d), left(0):left(d)] = source
        m[right(0):right(d), right(0):right(d)] = source

    check = loops.copy()
    check[p0, p0] = 0.0     # p0 splits between the copies instead of looping
    check[p0, left(q0)] = check[p0, right(q0)] = 0.5
    for q in range(d):
        if q == q0:
            check[left(q), qf] = 1.0
            check[right(q), bot] = 1.0
        else:
            # The round protocol never reads `check` away from the restart
            # state; routing the leftover rows to the rejecting sink keeps
            # stray words from gaining acceptance probability.
            check[left(q), bot] = 1.0
            check[right(q), bot] = 1.0
    transitions[CHECK] = check

    end = loops.copy()
    for q in range(d):
        if automaton.final[q]:
            end[left(q), left(q0)] = 1.0
            end[right(q), p0] = 1.0
        else:
            end[left(q), p0] = 1.0
            end[right(q), right(q0)] = 1.0
    transitions[END] = end

    initial = np.zeros(n)
    initial[p0] = 1.0
    final = [False] * n
    final[qf] = True

    built = ProbabilisticAutomaton(
        states=states,
        alphabet=tuple(automaton.alphabet) + (CHECK, END),
        transitions={letter: StochasticMatrix._wrap(m) for letter, m in transitions.items()},
        initial=initial,
        final=final,
    )
    state_map = {"p0": "p0", "qF": "qF", "bot": "bot"}
    for name in base_states:
        state_map[f"{name}:L"] = (name, "L")
        state_map[f"{name}:R"] = (name, "R")
    return ReductionOutput(built, state_map)


def round_acceptance(p_win: float, p_lose: float, rounds: int) -> float:
    """Closed form for the probability of hitting the accepting sink within
    `rounds` independent rounds that win with probability p_win, lose with
    probability p_lose and otherwise restart.

    Equals the geometric sum over the round in which the win happens; a win
    in the final round is not collected, so a single round yields 0.
    """
    if p_win <= 0.0:
        raise ValueError("winning probability must be positive")
    if p_lose < 0.0 or p_win + p_lose > 1.0 + 1e-12:
        raise ValueError("round probabilities must satisfy 0 <= p_lose and p_win + p_lose <= 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    base = max(1.0 - (p_win + p_lose), 0.0)
    exponent = rounds - 1
    # Float powers underflow to 0 by themselves; only an exponent beyond
    # float range needs catching.
    tail = 0.0 if exponent.bit_length() > 1020 else base ** exponent
    return (1.0 / (1.0 + p_lose / p_win)) * (1.0 - tail)


def round_schedule(n: int, word_length: int) -> tuple:
    """The (k, N) pair of round parameters at schedule index n: k follows
    the polynomial exponent of the round length, N the super-polynomial
    exponent of the full word length."""
    if n < 1:
        raise ValueError("schedule index must be >= 1")
    k = polynomial_exponent(n * (word_length + 1))
    big_n = superpolynomial_exponent(n * (1 + k * (word_length + 1)))
    return k, big_n


def verify_reduction(automaton: ProbabilisticAutomaton, word, n_max: int = 8,
                     reduction: ReductionOutput | None = None) -> ConvergenceReport:
    """Cross-check the construction along the round schedule.

    For every index the report carries the acceptance probability computed
    on the built automaton (value) and by the closed round formula
    (reference); the two must agree up to float error, and the trajectory
    climbs to 1 exactly when the word's acceptance probability on the input
    automaton exceeds 1/2.  `reduction` is the automaton's reduction when
    the caller has already built it.
    """
    word = tuple(word)
    x = acceptance_probability(automaton, word)
    if reduction is None:
        reduction = build_reduction(automaton)
    # The rounds (check (w end)^k)^N: the super-polynomial realizations of
    # check (w end)^w, whose exponent tuples are `round_schedule`'s (k, N).
    expr = Product(Letter(CHECK), Omega(product_of(map(Letter, word + (END,)))))

    def reference(exponents):
        k, rounds = exponents
        return round_acceptance(0.5 * x ** k, 0.5 * (1.0 - x) ** k, rounds)

    return sweep(reduction.automaton, expr, "superpolynomial", n_max, reference)
