"""Shared corpus: small hand-built automata with known behaviour, plus
seeded random generators used by the property suites."""

import functools
import operator
import random
import types

import numpy as np
import pytest

from prostochastic import ProbabilisticAutomaton, StochasticMatrix, numerics, reduction


def absorbing_automaton():
    """Two states; the letter leaks half the remaining mass into an
    absorbing final state, so acceptance of a^k is 1 - 2^-k."""
    return ProbabilisticAutomaton(
        states=("s0", "s1"),
        alphabet=("a",),
        transitions={"a": [[0.5, 0.5], [0.0, 1.0]]},
        initial=(1.0, 0.0),
        final=(False, True),
    )


def coin_automaton(x):
    """Three states; one letter resolves a single biased coin flip, so every
    non-empty word is accepted with probability exactly x."""
    return ProbabilisticAutomaton(
        states=("q0", "heads", "tails"),
        alphabet=("a",),
        transitions={"a": [[0.0, x, 1.0 - x], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        initial=(1.0, 0.0, 0.0),
        final=(False, True, False),
    )


def funnel_automaton():
    """Three states; b funnels the start into a coin-flipping state and a
    then drains it into the final sink, so b a^k is accepted with
    probability 1 - 2^-k."""
    return ProbabilisticAutomaton(
        states=("s0", "s1", "s2"),
        alphabet=("a", "b"),
        transitions={
            "a": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
            "b": [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
        initial=(1.0, 0.0, 0.0),
        final=(False, False, True),
    )


def permutation_automaton():
    """One swap letter; words of even length are accepted with probability 1."""
    return ProbabilisticAutomaton(
        states=("s0", "s1"),
        alphabet=("a",),
        transitions={"a": [[0.0, 1.0], [1.0, 0.0]]},
        initial=(1.0, 0.0),
        final=(True, False),
    )


def single_state_automaton(accepting=True):
    return ProbabilisticAutomaton(
        states=("s",),
        alphabet=("a",),
        transitions={"a": [[1.0]]},
        initial=(1.0,),
        final=(accepting,),
    )


def symmetric_group_automaton(n):
    """a is the n-cycle and b the transposition (0 1); from state 0, with
    state 1 final.  Its monoid is the symmetric group on n states, and the
    letter a alone moves state 0 to state 1."""
    successors = {"a": [(s + 1) % n for s in range(n)], "b": [1, 0] + list(range(2, n))}
    transitions = {letter: [[float(t == successor[s]) for t in range(n)] for s in range(n)]
                   for letter, successor in successors.items()}
    return ProbabilisticAutomaton(tuple(f"s{s}" for s in range(n)), ("a", "b"), transitions,
                                  (1.0,) + (0.0,) * (n - 1), (False, True) + (False,) * (n - 2))


def random_quarter_automaton(rng, n_states, letters=("a", "b")):
    """Random automaton whose transition entries are multiples of 1/4, with a
    unit initial vector and random final set."""
    transitions = {}
    for letter in letters:
        counts = rng.multinomial(4, np.full(n_states, 1.0 / n_states), size=n_states)
        transitions[letter] = counts / 4.0
    initial = np.zeros(n_states)
    initial[rng.integers(n_states)] = 1.0
    final = [bool(v) for v in rng.random(n_states) < 0.5]
    return ProbabilisticAutomaton(
        [f"s{i}" for i in range(n_states)], letters, transitions, initial, final)


def random_stochastic(rng, dim, density=0.6):
    """Random stochastic matrix with a random support pattern."""
    while True:
        mask = rng.random((dim, dim)) < density
        raw = rng.random((dim, dim)) * mask
        sums = raw.sum(axis=1)
        if np.all(sums > 0.0):
            return StochasticMatrix(raw / sums[:, None])


def brute_force_word_closure(automaton):
    """Independent oracle for the transition monoid: extend words letter by
    letter until no new support appears."""
    from prostochastic import boolean_product, boolean_projection

    generators = [boolean_projection(automaton.transition(a)) for a in automaton.alphabet]
    matrices = set(generators)
    frontier = set(generators)
    while frontier:
        fresh = set()
        for matrix in frontier:
            for generator in generators:
                extended = boolean_product(matrix, generator)
                if extended not in matrices:
                    matrices.add(extended)
                    fresh.add(extended)
        frontier = fresh
    return matrices


def transition_monoid(automaton):
    """Oracle for the transition monoid: all supports reachable by finite
    words, the closure of the letter projections under boolean product, in
    discovery order (the letters, then each element times each letter)."""
    from prostochastic import BooleanMatrix, monoid

    keys, rows, _ = monoid._saturate(monoid.letter_supports(automaton), None)
    return tuple(BooleanMatrix._wrap(tuple(map(rows.__getitem__, key))) for key in keys)


class _RowTable(dict):
    """Row mask -> that row of a product whose right operand has the row
    masks `right`, filled on first lookup."""

    def __init__(self, right):
        super().__init__()
        self.right = right

    def __missing__(self, mask):
        row = self[mask] = functools.reduce(
            operator.or_, (r for t, r in enumerate(self.right) if mask >> t & 1), 0)
        return row


def reference_saturate(supports, stabilizing, stop=None):
    """Oracle for `monoid._saturate`: the tuple kernel it replaced.  Each
    element is its tuple of row masks, each generator has a row table, and
    an element times a generator looks up each of its rows.  Returns the
    element masks and origins in discovery order; `_saturate` must find
    the same elements in the same order, with the same origins, and call
    `stop` on the same masks."""
    from prostochastic.expressions import Letter, Omega, Product
    from prostochastic.monoid import _stabilized

    table, origins, seen = [], [], set()

    def add(masks, origin):
        seen.add(masks)
        table.append(masks)
        origins.append(origin)
        return stop is not None and stop(masks)

    for letter, matrix in supports.items():
        if matrix.masks not in seen and add(matrix.masks, (Letter, letter)):
            return tuple(table), tuple(origins)
    generators = [(k, _RowTable(table[k])) for k in range(len(table))]
    processed = 0
    while processed < len(table):
        left = table[processed]
        for generator, rows in generators:
            product = tuple(map(rows.__getitem__, left))
            if product not in seen and add(product, (Product, processed, generator)):
                return tuple(table), tuple(origins)
        processed += 1
        if stabilizing and (stable := _stabilized(left)) is not None and stable not in seen:
            if add(stable, (Omega, processed - 1)):
                return tuple(table), tuple(origins)
            generator, rows = len(table) - 1, _RowTable(stable)
            for k in range(processed):
                product = tuple(map(rows.__getitem__, table[k]))
                if product not in seen and add(product, (Product, k, generator)):
                    return tuple(table), tuple(origins)
            generators.append((generator, rows))
    return tuple(table), tuple(origins)


def random_nine_state_automaton(seed=2):
    """Each row of letters a, b, c puts equal weight on 1 or 2 of the 9
    states, drawn from `random.Random(seed)`; s0 is initial and s8 final.
    Seed 2 gives a monoid of 11,168 elements with 15 stabilizations that
    arrive mid-run."""
    rng, n = random.Random(seed), 9
    transitions = {}
    for letter in "abc":
        transitions[letter] = []
        for _ in range(n):
            succ = rng.sample(range(n), rng.choice((1, 2)))
            transitions[letter].append([1 / len(succ) if t in succ else 0 for t in range(n)])
    return ProbabilisticAutomaton(tuple(f"s{i}" for i in range(n)), tuple("abc"), transitions,
                                  (1.0,) + (0.0,) * (n - 1), (False,) * (n - 1) + (True,))


def constant_map(n, subset):
    """Each of the `n` states moves uniformly onto the states in the mask `subset`."""
    row = [1 / subset.bit_count() if subset >> t & 1 else 0.0 for t in range(n)]
    return [row] * n


def wide_constant_automaton(n=9, letters=260):
    """Letter c<k> maps every state onto the k+1-th non-empty subset of
    the `n` states in binary order: `letters` distinct rows.  c<j> c<k> is
    c<k>, so the monoid is the letters, each idempotent and its own
    stabilization.  From s0, with s<n-1> final."""
    transitions = {f"c{k}": constant_map(n, k + 1) for k in range(letters)}
    return ProbabilisticAutomaton(tuple(f"s{i}" for i in range(n)), tuple(transitions), transitions,
                                  (1.0,) + (0.0,) * (n - 1), (False,) * (n - 1) + (True,))


def wide_midrun_automaton():
    """The 9-state cycle p: s -> s+1 mod 9, then constant maps c<k>: c<k> p
    is the constant map onto the subset shifted by one state.  The subsets
    are 27 whole shift orbits, the full set, and S, pS and p^2 S of one more
    orbit: with p's 9 rows the letters have 256 distinct rows, and each
    letter but the last times p is a letter.  So p p is new before any new
    row, and the last letter times p brings the 257th row, p^3 S.  From s0,
    with s8 final."""
    n, full = 9, (1 << 9) - 1
    orbits, met = [], set()   # the shift orbits of the subsets of 2 or more states
    for mask in range(3, full):
        if mask.bit_count() > 1 and mask not in met:
            orbit = [mask]
            while (shifted := (orbit[-1] << 1 | orbit[-1] >> (n - 1)) & full) != mask:
                orbit.append(shifted)
            met.update(orbit)
            orbits.append(orbit)
    nine = [orbit for orbit in orbits if len(orbit) == n]
    subsets = [mask for orbit in nine[:27] for mask in orbit] + [full] + nine[27][:3]
    transitions = {"p": [[float(t == (s + 1) % n) for t in range(n)] for s in range(n)]}
    transitions.update((f"c{k}", constant_map(n, mask)) for k, mask in enumerate(subsets))
    return ProbabilisticAutomaton(tuple(f"s{i}" for i in range(n)), tuple(transitions), transitions,
                                  (1.0,) + (0.0,) * (n - 1), (False,) * (n - 1) + (True,))


def wide_omega_automaton(in_table=False):
    """Letter e on 9 states moves s0 onto {s0, s1, s2} and keeps the other
    states: it is idempotent, and its stabilization moves s0 onto {s1, s2}.
    The other letters are constant maps onto subsets that hold s1 and s2
    when they hold s0, so that no product of letters has a new row, and the
    letters have 256 distinct rows.  The 257th row is {s1, s2}, the
    stabilization's own; with `in_table`, {s1, s2} is a letter's row and
    the letter t onto {s0, s3} comes first, so the 257th row is {s1, s2, s3},
    t times the stabilization, met while the stabilization's table is
    filled.  From s0, with s8 final."""
    n = 9
    e = [[1 / 3] * 3 + [0.0] * (n - 3)] + [[float(t == s) for t in range(n)] for s in range(1, n)]
    rows = {0b111} | {1 << s for s in range(1, n)}
    transitions, subsets = {}, [0b1111]
    if in_table:
        transitions["t"] = constant_map(n, 0b1001)
        rows.add(0b1001)
        subsets.append(0b110)
    transitions["e"] = e
    for mask in range(1, 1 << n):
        if len(rows) + len(subsets) == 256:
            break
        if mask not in rows and mask not in subsets and mask not in (0b110, 0b1110) \
                and (not mask & 1 or mask & 0b110 == 0b110):
            subsets.append(mask)
    transitions.update((f"c{k}", constant_map(n, mask)) for k, mask in enumerate(subsets))
    return ProbabilisticAutomaton(tuple(f"s{i}" for i in range(n)), tuple(transitions), transitions,
                                  (1.0,) + (0.0,) * (n - 1), (False,) * (n - 1) + (True,))


def is_value1_witness(matrix, automaton):
    """Every transition from an initially-supported state lands in a final
    state."""
    return all(automaton.final[t] for s in automaton.initial_support()
               for t, entry in enumerate(matrix.rows[s]) if entry)


def expression_depth(expr):
    """Height of an omega-expression: a letter has depth 1."""
    from prostochastic import OmegaExpression
    from prostochastic.expressions import postorder

    depths = {}
    for node in postorder(expr):
        if not isinstance(node, OmegaExpression):
            raise TypeError(f"not an omega-expression: {node!r}")
        depths[node] = 1 + max((depths[child] for child in node._children), default=0)
    return depths[expr]


def expand_schedule(schedule, limit=10**6):
    """The word a schedule denotes, flattened; guarded by `limit`, because
    schedule lengths are routinely astronomical."""
    from prostochastic import Concat, Literal
    from prostochastic.expressions import postorder

    if schedule.length > limit:
        raise ValueError(f"schedule denotes a word of length {schedule.length}, limit is {limit}")
    words = {}
    for node in postorder(schedule):
        if isinstance(node, Literal):
            words[node] = node.word
        elif isinstance(node, Concat):
            words[node] = words[node.left] + words[node.right]
        else:   # a power: a schedule node's children have lengths, so are schedules
            words[node] = words[node.child] * node.exponent
    return words[schedule]


def round_probability_by_matrix(built, word, k, rounds):
    """Acceptance probability of (check (w end)^k)^rounds on the built
    reduction automaton, evaluated by structured matrix powering."""
    from prostochastic import schedule_acceptance_probability

    return schedule_acceptance_probability(built.automaton, reduction.round_word(word, k, rounds))


def direct_round_sum(p_win, p_lose, rounds):
    """Term-by-term evaluation of the round acceptance probability."""
    return sum((1.0 - (p_win + p_lose)) ** (i - 1) * p_win for i in range(1, rounds))


def render_text_per_sample(report):
    """Reference for `ConvergenceReport.render_text`: every row formatted
    cell by cell, with no row shared."""
    with_reference = any(s.reference is not None for s in report.samples)
    header = ["n", "length", "probability", "error"]
    if with_reference:
        header += ["reference", "discrepancy"]
    lines = ["\t".join(header)]
    for sample in report.samples:
        cells = [str(sample.n), str(sample.length), f"{sample.value:.12g}",
                 f"{abs(sample.value - report.extrapolated_limit):.12g}"]
        if with_reference:
            cells += [f"{sample.reference:.12g}", f"{sample.discrepancy:.12g}"]
        lines.append("\t".join(cells))
    lines.append(f"extrapolated limit: {report.extrapolated_limit:.12g}")
    if report.rate_fit is None:
        lines.append("rate fit: no exponential fit")
    else:
        lines.append(f"rate fit: degree {report.rate_fit.degree:.12g}, "
                     f"decay base {report.rate_fit.decay_base:.12g}")
    return "\n".join(lines)


def exponents_by_postorder(expr, n, mode):
    """Reference for the exponents of the n-th realization: one post-order
    walk of the expression for this n, lengths kept per node, one exponent
    per omega node, then, in super-polynomial mode, the outer one."""
    from prostochastic import Letter, Omega, Product
    from prostochastic.expressions import postorder

    lengths, exponents = {}, []
    for node in postorder(expr):
        if isinstance(node, Letter):
            lengths[node] = 1
        elif isinstance(node, Product):
            lengths[node] = lengths[node.left] + lengths[node.right]
        else:
            assert isinstance(node, Omega)
            exponents.append(numerics.polynomial_exponent(n * lengths[node.child]))
            lengths[node] = exponents[-1] * lengths[node.child]
    if mode == "superpolynomial":
        exponents.append(numerics.superpolynomial_exponent(n * lengths[expr]))
    return tuple(exponents)


def random_expression(rng, alphabet, omega_height, size):
    """Seeded random omega-expression with about `size` leaves whose omega
    nodes nest at most `omega_height` deep."""
    from prostochastic import Letter, Omega, Product

    if omega_height and rng.random() < 0.3:
        return Omega(random_expression(rng, alphabet, omega_height - 1, size))
    if size <= 1:
        return Letter(alphabet[int(rng.integers(len(alphabet)))])
    cut = int(rng.integers(1, size))
    return Product(random_expression(rng, alphabet, omega_height, cut),
                   random_expression(rng, alphabet, omega_height, size - cut))


def identity_started_word_matrix(automaton, word):
    """Reference for `ProbabilisticAutomaton.word_matrix`: the identity
    times each letter's matrix in turn."""
    result = StochasticMatrix.identity(automaton.dim)
    for letter in word:
        result = result @ automaton.transition(letter)
    return result


def power_nodes(schedule):
    """Set of the `Power` nodes in a word schedule."""
    from prostochastic import Concat, Power

    if isinstance(schedule, Power):
        return {schedule} | power_nodes(schedule.child)
    if isinstance(schedule, Concat):
        return power_nodes(schedule.left) | power_nodes(schedule.right)
    return set()


@pytest.fixture
def power_exponents(monkeypatch):
    """Exponent of every `StochasticMatrix.power` call made by the test."""
    exponents = []
    original = StochasticMatrix.power

    def counting(self, exponent, squares=None):
        exponents.append(exponent)
        return original(self, exponent, squares)

    monkeypatch.setattr(StochasticMatrix, "power", counting)
    return exponents


@pytest.fixture
def schedule_evaluations(monkeypatch):
    """Every schedule whose acceptance probability `numerics.sweep`
    evaluates during the test, in order."""
    schedules = []
    original = numerics.schedule_acceptance_probability

    def counting(automaton, schedule, memo=None):
        schedules.append(schedule)
        return original(automaton, schedule, memo)

    monkeypatch.setattr(numerics, "schedule_acceptance_probability", counting)
    return schedules


@pytest.fixture
def schedule_builds(monkeypatch):
    """The arguments of every `realize_polynomial`, `realize_superpolynomial`
    and `round_word` call that `estimate_limit` and `verify_reduction` make
    during the test, in order."""
    calls = []
    for module, name in ((numerics, "realize_polynomial"),
                         (numerics, "realize_superpolynomial"),
                         (reduction, "round_word")):
        original = getattr(module, name)

        def counting(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def matrix_squarings(monkeypatch):
    """Counter of the matrix squarings `StochasticMatrix.power` performs
    during the test; read its `squarings` attribute.  Each squaring appends
    one matrix to the squaring chain the call is given or starts; the one
    that closes a chain appends its predecessor again."""
    counter = types.SimpleNamespace(squarings=0)
    original = StochasticMatrix.power

    def counting(self, exponent, squares=None):
        squares = [] if squares is None else squares
        known = max(len(squares), 1)   # an empty chain starts from the matrix itself
        try:
            return original(self, exponent, squares)
        finally:
            counter.squarings += len(squares) - known

    monkeypatch.setattr(StochasticMatrix, "power", counting)
    return counter


def squaring_chain_lengths(schedules):
    """Squarings needed by the `Power` nodes of `schedules` when each base
    keeps one chain and no chain closes: per distinct base, the largest
    exponent's bit length minus 1."""
    largest = {}
    for node in set().union(*(power_nodes(schedule) for schedule in schedules)):
        largest[node.child] = max(largest.get(node.child, 0), node.exponent)
    return sum(exponent.bit_length() - 1 for exponent in largest.values())


@pytest.fixture
def absorbing():
    return absorbing_automaton()


@pytest.fixture
def funnel():
    return funnel_automaton()


@pytest.fixture
def permutation():
    return permutation_automaton()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
