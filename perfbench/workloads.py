"""Seeded inputs, operations and answer checks for each workload.

A workload is a list of operations that one pass runs in order.  Each
operation is a real user call: a CLI command run in-process through
`prostochastic.cli.main(argv)`, or a library call where no command reaches
the layer.  Its check turns the result into an answer, compares that with
the oracle or the committed value, and names the problem when they differ.
"""

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# analyze-random: members per (states, fewest elements, most elements) band.
# The quotas follow the generator's own size distribution (eight times its
# share per 60 draws), so the pool is typical, except that one narrow heavy
# band of 71-90 elements stands in for every monoid above 60: monoids of 100
# or more would each set the cost of a pass.  Fixing the quotas, and drawing
# 480 members rather than 60, keeps throughput, median and tail latency
# comparable from seed to seed.
POOL_BANDS = (
    (3, 1, 8, 103), (3, 9, 12, 56), (3, 13, 16, 31), (3, 17, 20, 19), (3, 21, 24, 13),
    (3, 25, 60, 23),
    (4, 1, 8, 12), (4, 9, 12, 24), (4, 13, 16, 27), (4, 17, 20, 24), (4, 21, 24, 22),
    (4, 25, 40, 60), (4, 41, 60, 34),
    (4, 71, 90, 32),
)
FINAL_PROBABILITY = 0.4

# monoid-reduction: the reduction of each of these inputs is enumerated.
REDUCTION_INPUTS = {
    "accept1": ([[1.0]], [True]),
    "reject1": ([[1.0]], [False]),
    "det2": ([[0.0, 1.0], [0.0, 1.0]], [False, True]),
    "coin3": ([[0.0, 0.7, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [False, True, False]),
}

# realize: counterexample and coin parameters come from these grids so that
# every simulated limit has a committed value.
SIMULATE_X = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
SIMULATE_EXPRESSIONS = ("b a^w", "(b a^w)^w")
SIMULATE_MODES = ("polynomial", "superpolynomial")
SIMULATE_N = (24, 40)
REDUCE_X_BELOW = (0.20, 0.30, 0.40, 0.45)
REDUCE_X_ABOVE = (0.55, 0.60, 0.70, 0.80)
REDUCE_N = 30
RANDOM_AUTOMATA = 3          # at least; more while the inventory is short
PROJECTION_OPS = 12
LIMIT_TOLERANCE = 1e-6       # simulated limit vs committed value
DISCREPANCY_LIMIT = 1e-9     # reduce: built automaton vs closed round formula
SUPPORT_EPSILON = 1e-6       # numeric entries above this are in the support


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]   # result -> (answer, problem or None)
    spec: object                       # JSON description, for the input digest


@dataclass
class Workload:
    ops: list
    provenance: dict

    @property
    def digest(self) -> str:
        text = json.dumps([op.spec for op in self.ops], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def automaton_json(transitions, final, letters=("a", "b")):
    d = len(final)
    return json.dumps({
        "states": [f"s{i}" for i in range(d)],
        "alphabet": list(letters),
        "initial": [1.0] + [0.0] * (d - 1),
        "final": list(final),
        "transitions": {letter: transitions[letter] for letter in letters},
    }, indent=1) + "\n"


def random_automaton(rng, states):
    """Two letters; each row moves to 1 or 2 successors with equal weight;
    each state is final with probability FINAL_PROBABILITY."""
    transitions = {}
    for letter in ("a", "b"):
        rows = []
        for _ in range(states):
            successors = rng.sample(range(states), rng.choice((1, 2)))
            rows.append([1.0 / len(successors) if t in successors else 0.0
                         for t in range(states)])
        transitions[letter] = rows
    final = [rng.random() < FINAL_PROBABILITY for _ in range(states)]
    return transitions, final


def letter_supports(transitions):
    return {letter: oracle.support(rows) for letter, rows in transitions.items()}


def final_mask(final):
    return sum(1 << t for t, f in enumerate(final) if f)


def cli_call(pkg, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def bitmask_of(bits: str):
    d = int(round(len(bits) ** 0.5))
    return tuple(sum(1 << t for t in range(d) if bits[s * d + t] == "1") for s in range(d))


def witness_value(pkg, text, automaton):
    """Bit string of a printed witness, re-parsed and evaluated by the
    package's boolean interpretation."""
    expr = pkg.omega.parse_expression(text, automaton.alphabet)
    generators = {letter: pkg.monoid.boolean_projection(automaton.transition(letter))
                  for letter in automaton.alphabet}
    return pkg.omega.boolean_interpretation(expr, generators).bitstring()


def extrapolated_limit(text):
    for line in text.splitlines():
        if line.startswith("extrapolated limit:"):
            return float(line.split(":", 1)[1])
    raise ValueError("no extrapolated limit in the report")


# ---------------------------------------------------------------------------
# Inventory of omega-expressions, as nested tuples the oracle evaluates.


def expression_inventory(letters=("a", "b")):
    """Every expression of depth <= 3 that applies omega at least once."""
    depth1 = [("letter", a) for a in letters]
    depth2 = [("omega", x) for x in depth1] + [("product", x, y) for x in depth1 for y in depth1]
    upto2 = depth1 + depth2
    depth3 = ([("omega", x) for x in depth2]
              + [("product", x, y) for x in upto2 for y in upto2 if x in depth2 or y in depth2])
    return [e for e in depth2 + depth3 if "omega" in repr(e)]


def expression_text(expression):
    kind = expression[0]
    if kind == "letter":
        return expression[1]
    if kind == "product":
        return f"({expression_text(expression[1])} {expression_text(expression[2])})"
    return f"({expression_text(expression[1])})^w"


def support_bits(entries):
    return "".join("1" if v > SUPPORT_EPSILON else "0" for row in entries for v in row)


# ---------------------------------------------------------------------------
# Workload builders.  Each writes its input files under `workdir`.


def build_analyze_random(pkg, seed, workdir):
    rng = random.Random(f"analyze-random:{seed}")
    quota = [band[3] for band in POOL_BANDS]
    pool = []
    while any(quota):
        states = rng.choice((3, 4))
        transitions, final = random_automaton(rng, states)
        yes, size = oracle.decide(list(letter_supports(transitions).values()), (0,), final_mask(final))
        for i, (band_states, low, high, _) in enumerate(POOL_BANDS):
            if quota[i] and states == band_states and low <= size <= high:
                quota[i] -= 1
                pool.append((transitions, final, yes, size))
                break
    rng.shuffle(pool)

    ops = []
    for index, (transitions, final, yes, size) in enumerate(pool):
        text = automaton_json(transitions, final)
        path = workdir / f"pool{index:03d}.json"
        path.write_text(text)
        ops.append(Op(f"analyze pool{index:03d}", "analyze",
                      cli_call(pkg, ["analyze", str(path)]),
                      _analyze_check(pkg, path, yes, final),
                      {"argv": ["analyze"], "automaton": text}))
    sizes = [member[3] for member in pool]
    provenance = {
        "automata": len(pool),
        "letters": 2,
        "states_histogram": {str(d): sum(1 for m in pool if len(m[1]) == d) for d in (3, 4)},
        "yes_share": sum(1 for m in pool if m[2]) / len(pool),
        "monoid_size_median": statistics.median(sizes),
        "monoid_size_max": max(sizes),
        "size_bands": [list(band) for band in POOL_BANDS],
    }
    return Workload(ops, provenance)


def _analyze_check(pkg, path, yes, final):
    automaton = pkg.core.load_automaton(path)
    finals = final_mask(final)

    def check(result):
        code, out, _ = result
        lines = out.splitlines()
        answer = (code, lines[0] if lines else "")
        if answer != ((0, "YES") if yes else (1, "NO")):
            return answer, f"expected {'YES' if yes else 'NO'}, got exit {code} {answer[1]!r}"
        if yes:
            if len(lines) < 2 or not lines[1].startswith("witness: "):
                return answer, "YES without a witness line"
            bits = witness_value(pkg, lines[1][len("witness: "):], automaton)
            if not oracle.is_value1_witness(bitmask_of(bits), (0,), finals):
                return answer, f"witness evaluates to {bits}, not a value-1 witness"
        return answer, None
    return check


def build_monoid_reduction(pkg, seed, workdir):
    rng = random.Random(f"monoid-reduction:{seed}")
    names = sorted(REDUCTION_INPUTS)
    rng.shuffle(names)
    committed = json.loads(EXPECTED_PATH.read_text())
    ops = []
    provenance = {}
    for name in names:
        rows, final = REDUCTION_INPUTS[name]
        base = workdir / f"{name}.json"
        base.write_text(automaton_json({"a": rows}, final, letters=("a",)))
        built = workdir / f"{name}.reduction.json"
        code, _, err = cli_call(pkg, ["reduce", str(base), "-o", str(built)])()
        if code != 0:
            raise RuntimeError(f"reduce {name} failed during set-up: {err.strip()}")
        automaton = pkg.core.load_automaton(built)
        expected = committed["monoid-reduction"][name]
        provenance[name] = {"states": automaton.dim, "letters": len(automaton.alphabet),
                            "elements": expected["elements"]}
        ops.append(Op(f"monoid {name}", "monoid",
                      cli_call(pkg, ["monoid", str(built)]),
                      _monoid_check(pkg, automaton, expected),
                      {"argv": ["monoid"], "input": name, "rows": rows, "final": final}))
    return Workload(ops, provenance)


def monoid_digest(bitstrings):
    return hashlib.sha256("\n".join(sorted(bitstrings)).encode()).hexdigest()


def _monoid_check(pkg, automaton, expected):
    width = automaton.dim ** 2

    def check(result):
        code, out, _ = result
        pairs = [line.split(" ", 1) for line in out.splitlines()]
        elements = [(p[0], p[1]) for p in pairs
                    if len(p) == 2 and len(p[0]) == width and set(p[0]) <= {"0", "1"}]
        answer = (code, len(elements), monoid_digest(bits for bits, _ in elements))
        if answer != (0, expected["elements"], expected["digest"]):
            return answer, (f"expected {expected['elements']} elements with digest "
                            f"{expected['digest'][:12]}, got exit {code}, {answer[1]} "
                            f"elements with digest {answer[2][:12]}")
        for bits, witness in elements:
            value = witness_value(pkg, witness, automaton)
            if value != bits:
                return answer, f"witness {witness!r} evaluates to {value}, printed beside {bits}"
        return answer, None
    return check


def simulate_key(x, expression, mode, n):
    return f"{x:.2f}|{expression}|{mode}|{n}"


def build_realize(pkg, seed, workdir):
    rng = random.Random(f"realize:{seed}")
    committed = json.loads(EXPECTED_PATH.read_text())
    ops = []
    bits = {}
    cx_x = rng.sample(SIMULATE_X, 2)
    for x in cx_x:
        path = workdir / f"cx{x:.2f}.json"
        code, _, err = cli_call(pkg, ["example", "-x", repr(x), "-o", str(path)])()
        if code != 0:
            raise RuntimeError(f"example -x {x} failed during set-up: {err.strip()}")
        automaton = pkg.core.load_automaton(path)
        letters = {a: oracle.support(automaton.transition(a).entries) for a in automaton.alphabet}
        for text in SIMULATE_EXPRESSIONS:
            expr = pkg.omega.parse_expression(text, automaton.alphabet)
            for mode in SIMULATE_MODES:
                for n in SIMULATE_N:
                    label = f"simulate x={x:.2f} -e '{text}' -m {mode} -n {n}"
                    realize = (pkg.numerics.realize_polynomial if mode == "polynomial"
                               else pkg.numerics.realize_superpolynomial)
                    bits[label] = max_exponent_bits(pkg, realize(expr, n))
                    ops.append(Op(label, "simulate",
                                  cli_call(pkg, ["simulate", str(path), "-e", text, "-m", mode,
                                                 "-n", str(n)]),
                                  _simulate_check(committed["simulate"][simulate_key(x, text, mode, n)]),
                                  {"argv": ["simulate", "-e", text, "-m", mode, "-n", n], "x": x}))
            ops.append(Op(f"numeric_interpretation x={x:.2f} '{text}'", "numeric_interpretation",
                          _numeric_call(pkg, expr, automaton),
                          _support_check(oracle.bitstring(oracle.evaluate(_tree(text), letters))),
                          {"call": "numeric_interpretation", "x": x, "expression": text}))

    reduce_x = rng.sample(REDUCE_X_BELOW, 2) + rng.sample(REDUCE_X_ABOVE, 2)
    for x in reduce_x:
        path = workdir / f"coin{x:.2f}.json"
        rows = [[0.0, x, 1.0 - x], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path.write_text(automaton_json({"a": rows}, [False, True, False], letters=("a",)))
        label = f"reduce x={x:.2f} -w a -n {REDUCE_N}"
        k, rounds = pkg.reduction.round_schedule(REDUCE_N, 1)
        bits[label] = rounds.bit_length()
        ops.append(Op(label, "reduce",
                      cli_call(pkg, ["reduce", str(path), "-w", "a", "-n", str(REDUCE_N)]),
                      _reduce_check(x),
                      {"argv": ["reduce", "-w", "a", "-n", REDUCE_N], "x": x}))

    inventory = []
    index = 0
    while index < RANDOM_AUTOMATA or len(inventory) < PROJECTION_OPS:
        transitions, final = random_automaton(rng, rng.choice((3, 4)))
        path = workdir / f"random{index}.json"
        text = automaton_json(transitions, final)
        path.write_text(text)
        automaton = pkg.core.load_automaton(path)
        letters = letter_supports(transitions)
        for expression in expression_inventory():
            value = oracle.evaluate(expression, letters)
            if value is not None:
                inventory.append((index, text, automaton, expression, oracle.bitstring(value)))
        index += 1
    for index, text, automaton, expression, expected in rng.sample(inventory, PROJECTION_OPS):
        written = expression_text(expression)
        expr = pkg.omega.parse_expression(written, automaton.alphabet)
        ops.append(Op(f"limit_projection random{index} '{written}'", "limit_projection",
                      _projection_call(pkg, expr, automaton),
                      _projection_check(expected),
                      {"call": "limit_projection", "automaton": text, "expression": written}))

    rng.shuffle(ops)
    provenance = {
        "counterexample_x": cx_x,
        "reduce_x": reduce_x,
        "random_automata_states": sorted({len(json.loads(op.spec["automaton"])["states"])
                                          for op in ops if op.kind == "limit_projection"}),
        "inventory_size": len(inventory),
        "ops_per_kind": {kind: sum(1 for op in ops if op.kind == kind)
                         for kind in sorted({op.kind for op in ops})},
        "exponent_bits": dict(sorted(bits.items())),
    }
    return Workload(ops, provenance)


def _tree(text):
    """Tuple tree of the two simulated expressions."""
    b_aw = ("product", ("letter", "b"), ("omega", ("letter", "a")))
    return {"b a^w": b_aw, "(b a^w)^w": ("omega", b_aw)}[text]


def max_exponent_bits(pkg, schedule):
    core = pkg.core
    if isinstance(schedule, core.Literal):
        return 0
    if isinstance(schedule, core.Concat):
        return max(max_exponent_bits(pkg, schedule.left), max_exponent_bits(pkg, schedule.right))
    return max(schedule.exponent.bit_length(), max_exponent_bits(pkg, schedule.child))


def _simulate_check(expected):
    def check(result):
        code, out, err = result
        if code != 0:
            return (code, None), f"exit {code}: {err.strip()[:200]}"
        limit = extrapolated_limit(out)
        answer = (code, round(limit, 9))
        if abs(limit - expected) > LIMIT_TOLERANCE:
            return answer, f"limit {limit!r}, committed {expected!r}"
        return answer, None
    return check


def _reduce_check(x):
    def check(result):
        code, _, err = result
        if code != 0:
            return (code, None), f"exit {code}: {err.strip()[:200]}"
        rows = [line.split("\t") for line in err.splitlines()]
        table = [row for row in rows if len(row) == 6 and row[0].isdigit()]
        limit = extrapolated_limit(err)
        answer = (code, len(table), limit > 0.5)
        if len(table) != REDUCE_N:
            return answer, f"{len(table)} rows in the verification table, expected {REDUCE_N}"
        worst = max(float(row[5]) for row in table)
        if worst > DISCREPANCY_LIMIT:
            return answer, f"discrepancy {worst!r} exceeds {DISCREPANCY_LIMIT}"
        if (limit > 0.5) != (x > 0.5):
            return answer, f"limit {limit!r} on the wrong side of 1/2 for x = {x}"
        return answer, None
    return check


def _numeric_call(pkg, expr, automaton):
    return lambda: pkg.numerics.numeric_interpretation(expr, automaton)


def _projection_call(pkg, expr, automaton):
    return lambda: pkg.numerics.limit_projection(pkg.numerics.numeric_interpretation(expr, automaton))


def _support_check(expected):
    def check(matrix):
        bits = support_bits(matrix.entries)
        return bits, None if bits == expected else f"numeric support {bits}, boolean {expected}"
    return check


def _projection_check(expected):
    def check(projection):
        bits = projection.bitstring()
        return bits, None if bits == expected else f"limit projection {bits}, stabilization {expected}"
    return check


BUILDERS = {
    "analyze-random": build_analyze_random,
    "monoid-reduction": build_monoid_reduction,
    "realize": build_realize,
}


def build(pkg, name, seed, workdir):
    return BUILDERS[name](pkg, seed, Path(workdir))
