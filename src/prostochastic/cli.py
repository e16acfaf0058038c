"""Command-line front end.

Commands: analyze, monoid, simulate, reduce, example.  Data goes to stdout
(or the -o file), diagnostics to stderr.  `analyze` exits 0 for YES, 1 for
NO; every command exits 2 on input errors, after writing nothing to stdout
or the -o file: each command computes its whole answer before it prints.

`analyze` and `monoid` decide on supports alone and never import numpy.
`numerics` and `reduction`, which compute with floats, and `omega`, which
parses expressions and words, are imported by the commands that use them
(`simulate`, `reduce`, `example`, `analyze --verify`), when they run.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .core import MODES, automaton_to_json, load_automaton
from .expressions import Letter, Omega, Product
from .monoid import IdempotenceError, _value1_test, format_monoid, letter_supports, markov_monoid

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_analyze(args) -> int:
    automaton = load_automaton(args.automaton)
    # Saturation stops at the first witness, so the answer is YES exactly
    # when the last element found is one.
    is_witness = _value1_test(automaton)
    monoid = markov_monoid(automaton, stop=is_witness)
    if not is_witness(monoid.masks[-1]):
        print("NO")
        return EXIT_NO
    lines = ["YES", f"witness: {monoid.witness_text(-1)}"]
    if args.verify:
        from .numerics import estimate_limit
        witness = monoid.element(-1).witness
        lines.append(estimate_limit(automaton, witness, args.mode, args.n_max).render_text())
    print("\n".join(lines))
    return EXIT_YES


def cmd_monoid(args) -> int:
    automaton = load_automaton(args.automaton)
    monoid = markov_monoid(automaton)
    kinds = Counter(origin[0] for origin in monoid.origins)
    print(f"elements: {len(monoid)}")
    print(f"letters: {kinds[Letter]} products: {kinds[Product]} "
          f"stabilizations: {kinds[Omega]}")
    print(format_monoid(monoid))
    return EXIT_YES


def cmd_simulate(args) -> int:
    from .numerics import estimate_limit
    from .omega import boolean_interpretation, parse_expression, repair_suggestion
    automaton = load_automaton(args.automaton)
    expr = parse_expression(args.expression, automaton.alphabet)
    generators = letter_supports(automaton)
    try:
        boolean_interpretation(expr, generators)
        report = estimate_limit(automaton, expr, args.mode, args.n_max)
    except IdempotenceError as exc:
        suggestion = repair_suggestion(exc.expression, generators)
        print(f"error: {exc}; try {suggestion!r}", file=sys.stderr)
        return EXIT_ERROR
    print(report.render_text())
    return EXIT_YES


def cmd_reduce(args) -> int:
    from .omega import parse_word
    from .reduction import build_reduction, verify_reduction
    automaton = load_automaton(args.automaton)
    reduction = build_reduction(automaton)
    report = None
    if args.word is not None:
        word = parse_word(args.word, automaton.alphabet)
        report = verify_reduction(automaton, word, n_max=args.n_max, reduction=reduction).render_text()
    _emit(automaton_to_json(reduction.automaton, state_map=reduction.state_map), args.output)
    if report is not None:
        print(report, file=sys.stderr)
    return EXIT_YES


def cmd_example(args) -> int:
    from .reduction import counterexample_automaton
    automaton = counterexample_automaton(args.x)
    _emit(automaton_to_json(automaton), args.output)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prostochastic",
        description="Analyze probabilistic automata: run the Markov Monoid "
                    "algorithm, simulate realized limit words, and build "
                    "acceptance-to-limit reductions.")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="decide the value-1 question on an automaton file",
        description="Print YES and a value-1 witness (exit 0), or NO (exit 1). "
                    "NO means no witness in the Markov monoid, not value < 1.")
    analyze.add_argument("automaton")
    analyze.add_argument("--verify", action="store_true",
                         help="also simulate the witness expression")
    analyze.add_argument("-m", "--mode", choices=MODES, default="polynomial")
    analyze.add_argument("-n", "--n-max", type=int, default=8)
    analyze.set_defaults(func=cmd_analyze)

    monoid = commands.add_parser("monoid", help="print the saturated monoid with witnesses")
    monoid.add_argument("automaton")
    monoid.set_defaults(func=cmd_monoid)

    simulate = commands.add_parser("simulate", help="sample acceptance of a realized expression")
    simulate.add_argument("automaton")
    simulate.add_argument("-e", "--expression", required=True)
    simulate.add_argument("-m", "--mode", choices=MODES, default="polynomial")
    simulate.add_argument("-n", "--n-max", type=int, default=8)
    simulate.set_defaults(func=cmd_simulate)

    reduce_cmd = commands.add_parser("reduce", help="build the round-playing reduction automaton")
    reduce_cmd.add_argument("automaton")
    reduce_cmd.add_argument("-w", "--word", default=None,
                            help="also verify the construction against this word "
                                 "(report goes to stderr)")
    reduce_cmd.add_argument("-n", "--n-max", type=int, default=8)
    reduce_cmd.add_argument("-o", "--output", default=None)
    reduce_cmd.set_defaults(func=cmd_reduce)

    example = commands.add_parser("example", help="emit the schedule-separating counterexample automaton")
    example.add_argument("-x", type=float, required=True,
                         help="branch retention probability in (0, 1)")
    example.add_argument("-o", "--output", default=None)
    example.set_defaults(func=cmd_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first `main` call, not at import, and reused: parsing
    # fills a fresh namespace each time, so no call sees another's options.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
