"""Command-line front end.

Commands: analyze, monoid, simulate, reduce, example.  Data goes to stdout
(or the -o file), diagnostics to stderr.  `analyze` exits 0 for YES, 1 for
NO; every command exits 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys

from .core import AutomatonFormatError, automaton_to_json, load_automaton
from .expressions import format_expression
from .monoid import (IdempotenceError, boolean_projection, find_value1_witness,
                     format_monoid, markov_monoid)
from .numerics import MODES, NonConvergenceError, estimate_limit
from .omega import (ExpressionSyntaxError, boolean_interpretation,
                    parse_expression, parse_word, repair_suggestion)
from .reduction import (PreconditionError, build_reduction,
                        counterexample_automaton, verify_reduction)

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
    monoid = markov_monoid(automaton)
    element = find_value1_witness(monoid, automaton)
    if element is None:
        print("NO")
        return EXIT_NO
    print("YES")
    print(f"witness: {format_expression(element.witness)}")
    if args.verify:
        report = estimate_limit(automaton, element.witness, args.mode, args.n_max)
        print(report.render_text())
    return EXIT_YES


def cmd_monoid(args) -> int:
    automaton = load_automaton(args.automaton)
    monoid = markov_monoid(automaton)
    letters = len(monoid) - monoid.product_count - monoid.stabilization_count
    print(f"elements: {len(monoid)}")
    print(f"letters: {letters} products: {monoid.product_count} "
          f"stabilizations: {monoid.stabilization_count}")
    print(format_monoid(monoid))
    return EXIT_YES


def cmd_simulate(args) -> int:
    automaton = load_automaton(args.automaton)
    expr = parse_expression(args.expression, automaton.alphabet)
    generators = {letter: boolean_projection(automaton.transition(letter))
                  for letter in automaton.alphabet}
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
    automaton = load_automaton(args.automaton)
    reduction = build_reduction(automaton)
    _emit(automaton_to_json(reduction.automaton, state_map=reduction.state_map), args.output)
    if args.word is not None:
        word = parse_word(args.word, automaton.alphabet)
        report = verify_reduction(automaton, word, n_max=args.n_max)
        print(report.render_text(), file=sys.stderr)
    return EXIT_YES


def cmd_example(args) -> int:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AutomatonFormatError, ExpressionSyntaxError, PreconditionError,
            NonConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
