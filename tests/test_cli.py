import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from prostochastic import (BooleanMatrix, ProbabilisticAutomaton, automaton_from_json,
                           automaton_to_json, counterexample_automaton, letter_supports)
from prostochastic import cli
from prostochastic.cli import main
from conftest import (absorbing_automaton, coin_automaton, funnel_automaton,
                      permutation_automaton, single_state_automaton,
                      reference_saturate, seeded_sparse_automaton, symmetric_group_automaton,
                      wide_constant_automaton, wide_midrun_automaton,
                      wide_omega_automaton)


def write(tmp_path, name, automaton):
    path = tmp_path / name
    path.write_text(automaton_to_json(automaton))
    return str(path)


def parsed(parse, argv, capsys):
    """What `parse(argv)` returns or exits with, and what it prints."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as done:
        outcome = done.code
    return outcome, capsys.readouterr()


class TestParseArgs:
    """A command's own parser reads its arguments; anything it leaves over
    goes back to the full parser.  Either way the namespace, the exit code
    and the text printed are the full parser's."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["analyze"], ["analyze", "cx.json"],
        ["analyze", "cx.json", "--bogus"], ["analyze", "cx.json", "-n", "q"],
        ["analyze", "cx.json", "--ver", "-m", "superpolynomial", "-n", "3"],
        ["analyze", "--", "cx.json"], ["analyze", "-h"], ["monoid", "cx.json", "extra"],
        ["simulate", "cx.json"], ["simulate", "cx.json", "-e", "b a^w", "-n", "40"],
        ["reduce", "cx.json", "-w", "a", "-o", "out.json"], ["example", "-x", "0.9"],
        ["--", "analyze", "cx.json"], ["analyze", "cx.json", "-m", "exact"],
    ])
    def test_matches_the_full_parser(self, argv, capsys):
        full = cli._parsers()[0].parse_args
        assert parsed(cli._parse_args, argv, capsys) == parsed(full, argv, capsys)

    def test_leftover_argument_gets_the_top_level_usage(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["analyze", "cx.json", "--bogus"])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: prostochastic [-h]")
        assert "unrecognized arguments: --bogus" in err


class TestAnalyze:
    def test_yes_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "one.json", single_state_automaton())
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "YES"
        assert out[1] == "witness: a"

    def test_stops_saturating_at_the_first_witness(self, tmp_path, capsys, monkeypatch):
        # The full monoid is the symmetric group on 8 states, 40,320
        # elements; its first element, the letter a, is a witness.
        path = write(tmp_path, "s8.json", symmetric_group_automaton(8))
        sizes, saturate = [], cli.markov_monoid

        def counting(*args, **kwargs):
            monoid = saturate(*args, **kwargs)
            sizes.append(len(monoid))
            return monoid

        monkeypatch.setattr(cli, "markov_monoid", counting)
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == "YES\nwitness: a\n"
        assert sizes == [1]

    def test_no_on_counterexample(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["analyze", str(tmp_path / "cx.json")]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_verify_prints_trajectory(self, tmp_path, capsys):
        path = write(tmp_path, "funnel.json", funnel_automaton())
        assert main(["analyze", path, "--verify", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "witness:" in out
        assert "extrapolated limit:" in out

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = json.loads(automaton_to_json(funnel_automaton()))
        payload["transitions"]["a"][0][0] = 0.7
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "row 0" in err and "s0" in err

    @pytest.mark.parametrize("field,value", [
        ("alphabet", [["a"]]),
        ("initial", ["1", False]),
        ("initial", [float("nan"), 1.0]),
    ])
    def test_malformed_field_exit_2(self, tmp_path, capsys, field, value):
        payload = json.loads(automaton_to_json(absorbing_automaton()))
        payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: `{field}` entries must be" in captured.err

    @pytest.mark.parametrize("command,options", [
        ("analyze", []), ("monoid", []), ("simulate", ["-e", "a"]), ("reduce", []),
    ], ids=["analyze", "monoid", "simulate", "reduce"])
    def test_nesting_too_deep_for_json_exit_2(self, tmp_path, capsys, command, options):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([command, str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_witness_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # One letter cycles 1,200 states; only the 1,199th power reaches the
        # final state from the initial one.
        n = 1200
        cycle = [[1 if t == (s + 1) % n else 0 for t in range(n)] for s in range(n)]
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "states": [f"s{i}" for i in range(n)], "alphabet": ["a"],
            "initial": [1] + [0] * (n - 1), "final": [False] * (n - 1) + [True],
            "transitions": {"a": cycle}}))
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "YES\nwitness: " + " ".join(["a"] * (n - 1)) + "\n"
        assert captured.err == ""

    def test_verify_witness_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # The witness of a 400-state cycle is a product of 399 letters; its
        # realizations are Concat chains as deep, all memoized in one sweep.
        n = 400
        cycle = [[1 if t == (s + 1) % n else 0 for t in range(n)] for s in range(n)]
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "states": [f"s{i}" for i in range(n)], "alphabet": ["a"],
            "initial": [1] + [0] * (n - 1), "final": [False] * (n - 1) + [True],
            "transitions": {"a": cycle}}))
        assert main(["analyze", str(path), "--verify", "-n", "3"]) == 0
        captured = capsys.readouterr()
        assert "\nextrapolated limit: 1\n" in captured.out
        assert captured.err == ""

    def test_verify_failure_prints_nothing(self, tmp_path, capsys):
        path = write(tmp_path, "funnel.json", funnel_automaton())
        assert main(["analyze", path, "--verify", "-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max" in captured.err

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "/nonexistent/automaton.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_answer_and_witness_are_the_librarys(self, tmp_path, capsys):
        # The witness line is printed from the stopped element table; it must
        # read as `format_expression` renders the full monoid's first witness.
        from prostochastic import (estimate_limit, find_value1_witness, format_expression,
                                   markov_monoid)
        rng = random.Random(2026)
        answers, verified = [], 0
        for k in range(320):
            n = rng.randint(2, 5)

            def row():
                support = rng.sample(range(n), rng.choice((1, 2)))
                return [1.0 / len(support) if t in support else 0.0 for t in range(n)]

            transitions = {x: [row() for _ in range(n)] for x in "ab"}
            automaton = ProbabilisticAutomaton([f"s{i}" for i in range(n)], ("a", "b"),
                                               transitions, row(),
                                               [rng.random() < 0.4 for _ in range(n)])
            path = write(tmp_path, f"r{k}.json", automaton)
            element = find_value1_witness(markov_monoid(automaton), automaton)
            code = main(["analyze", path])
            out = capsys.readouterr().out
            answers.append(element is not None)
            if element is None:
                assert (code, out) == (1, "NO\n")
                continue
            expected = f"YES\nwitness: {format_expression(element.witness)}\n"
            assert (code, out) == (0, expected)
            if verified < 12:
                verified += 1
                report = estimate_limit(automaton, element.witness, "polynomial", 3)
                assert main(["analyze", path, "--verify", "-n", "3"]) == 0
                assert capsys.readouterr().out == expected + report.render_text() + "\n"
        assert 0.3 < sum(answers) / len(answers) < 0.9


class TestMonoid:
    def test_single_state(self, tmp_path, capsys):
        path = write(tmp_path, "one.json", single_state_automaton())
        assert main(["monoid", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "elements: 1"
        assert out[2] == "1 a"

    def test_permutation_has_two_elements(self, tmp_path, capsys):
        path = write(tmp_path, "perm.json", permutation_automaton())
        assert main(["monoid", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "elements: 2"

    def test_counterexample_header(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["monoid", str(tmp_path / "cx.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["elements: 18", "letters: 2 products: 15 stabilizations: 1"]



# The base automata whose reductions the `monoid-reduction` benchmark
# enumerates (rows of letter a, final states), and the sha256 of `monoid`'s
# stdout on each reduction, recorded before the saturation moved to
# per-generator row tables.  Element order and witness text must not move.
REDUCTION_DUMPS = {
    "accept1": ([[1.0]], [True],
                "1c32da784b420b6af93fb137b6d87c34f223f16b82fe8d4b6fbd930576018d3b"),
    "reject1": ([[1.0]], [False],
                "df8142e3105da1d14bd056fcc99cd1d1ef9f35fcb4acb5738a495c6cd20578cd"),
    "det2": ([[0.0, 1.0], [0.0, 1.0]], [False, True],
             "07d698334ca4689580612b512a6b43d0ee81d08c30472532a41eff093b8ec949"),
    "coin3": ([[0.0, 0.7, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [False, True, False],
              "5daa4c65db9b5dabc5c12e1cb1fd8246376e6574cac7f0b20653ab64cb46693c"),
}
COUNTEREXAMPLE_DUMP = "622e4a8bd903bfd3a1e543484a707844770b3b3538aeb8e665b07d3eb44f6f7f"
# A seeded random 9-state, 3-letter automaton whose monoid finds 15
# stabilizations mid-run, each then multiplied into the elements before it.
RANDOM_NINE_DUMP = "1a0573d51c4f6b069e544bac7645ce575a39d9b39be70c3247f13dbe495d4c43"
# `seeded_sparse_automaton(68)`: 11 states, 3 letters and 282 distinct
# rows, the 257th met at element 85 of 3,295.
SEEDED_WIDE_DUMP = "9cd73181337afa88d6aa79094b4689cddf4eaa0a5ea500ca423840c2faf7badc"


def random_nine_state_json():
    """Each row of letters a, b, c puts equal weight on 1 or 2 of the 9
    states, drawn from `random.Random(2)`; s0 is initial and s8 final."""
    rng, n = random.Random(2), 9
    transitions = {}
    for letter in "abc":
        transitions[letter] = []
        for _ in range(n):
            succ = rng.sample(range(n), rng.choice((1, 2)))
            transitions[letter].append([1 / len(succ) if t in succ else 0 for t in range(n)])
    return json.dumps({"states": [f"s{i}" for i in range(n)], "alphabet": list("abc"),
                       "initial": [1] + [0] * (n - 1), "final": [False] * (n - 1) + [True],
                       "transitions": transitions})


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestMonoidDumpDigests:
    @pytest.mark.parametrize("name", sorted(REDUCTION_DUMPS))
    def test_reduction(self, tmp_path, capsys, name):
        rows, final, digest = REDUCTION_DUMPS[name]
        d = len(final)
        base, built = tmp_path / "base.json", tmp_path / "reduced.json"
        base.write_text(json.dumps({
            "states": [f"s{i}" for i in range(d)], "alphabet": ["a"],
            "initial": [1.0] + [0.0] * (d - 1), "final": final, "transitions": {"a": rows}}))
        assert main(["reduce", str(base), "-o", str(built)]) == 0
        capsys.readouterr()
        assert main(["monoid", str(built)]) == 0
        assert sha256(capsys.readouterr().out) == digest

    def test_counterexample(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["monoid", str(tmp_path / "cx.json")]) == 0
        assert sha256(capsys.readouterr().out) == COUNTEREXAMPLE_DUMP

    def test_random_nine_state(self, tmp_path, capsys):
        path = tmp_path / "random9.json"
        path.write_text(random_nine_state_json())
        assert main(["monoid", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == ["elements: 11168",
                                        "letters: 3 products: 11150 stabilizations: 15"]
        assert sha256(out) == RANDOM_NINE_DUMP

    def test_seeded_wide_rows(self, tmp_path, capsys):
        assert main(["monoid", write(tmp_path, "seed68.json", seeded_sparse_automaton(68))]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == ["elements: 3295",
                                        "letters: 3 products: 3289 stabilizations: 3"]
        assert sha256(out) == SEEDED_WIDE_DUMP


class TestWideRows:
    """Monoids with more than 256 distinct rows print as any other."""

    def test_constant_maps(self, tmp_path, capsys):
        automaton = wide_constant_automaton()
        assert main(["monoid", write(tmp_path, "wide.json", automaton)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["elements: 260", "letters: 260 products: 0 stabilizations: 0"]
        assert lines[2:] == [f"{format(k + 1, '09b')[::-1] * 9} c{k}" for k in range(260)]

    @pytest.mark.parametrize("make", [wide_midrun_automaton, wide_omega_automaton])
    def test_row_257_found_mid_run(self, tmp_path, capsys, make):
        automaton = make()
        assert main(["monoid", write(tmp_path, "wide.json", automaton)]) == 0
        lines = capsys.readouterr().out.splitlines()
        masks, _ = reference_saturate(letter_supports(automaton), True)
        assert lines[0] == f"elements: {len(masks)}"
        assert [line.split(" ", 1)[0] for line in lines[2:]] == \
            [BooleanMatrix._wrap(element).bitstring() for element in masks]


class TestSimulate:
    def test_superpolynomial_trajectory_climbs(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["simulate", str(tmp_path / "cx.json"),
                     "-e", "b a^w", "-m", "superpolynomial", "-n", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        last_value = float(lines[8].split("\t")[2])
        assert last_value > 0.999

    def test_polynomial_trajectory_stays_below_one(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["simulate", str(tmp_path / "cx.json"),
                     "-e", "(b a^w)^w", "-m", "polynomial", "-n", "8"]) == 0
        out = capsys.readouterr().out
        extrapolated = float(out.splitlines()[-2].split(": ")[1])
        assert extrapolated < 1.0

    def test_superpolynomial_limit_survives_huge_exponents(self, tmp_path, capsys):
        # a^(k!) tends to the stationary mass of state 1, 0.625, for k! up to 2^395.
        automaton = ProbabilisticAutomaton(("s0", "s1"), ("a",), {"a": [[0.5, 0.5], [0.3, 0.7]]},
                                           (1.0, 0.0), (False, True))
        path = write(tmp_path, "mix.json", automaton)
        assert main(["simulate", path, "-e", "a^w", "-m", "superpolynomial", "-n", "40"]) == 0
        assert "extrapolated limit: 0.625\n" in capsys.readouterr().out

    def test_idempotence_diagnostic_suggests_repair(self, tmp_path, capsys):
        path = write(tmp_path, "perm.json", permutation_automaton())
        assert main(["simulate", path, "-e", "a^w"]) == 2
        err = capsys.readouterr().err
        assert "(a^2)^w" in err

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "perm.json", permutation_automaton())
        assert main(["simulate", path, "-e", "(a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_huge_repetition_count_exit_2(self, tmp_path, capsys):
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["simulate", str(tmp_path / "cx.json"), "-e", "a^100000000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repetition count must be at most 10000 (at position 1)" in captured.err

    def test_deeply_nested_expression_exit_0(self, tmp_path, capsys):
        # a^500 is a chain of 500 nested products.
        assert main(["example", "-x", "0.9", "-o", str(tmp_path / "cx.json")]) == 0
        assert main(["simulate", str(tmp_path / "cx.json"), "-e", "a^500", "-n", "3"]) == 0
        captured = capsys.readouterr()
        assert "extrapolated limit: 0\n" in captured.out
        assert captured.err == ""


class TestRepeatedCalls:
    """Options of one `main` call do not carry over to the next."""

    @staticmethod
    def table_rows(text):
        return [line for line in text.splitlines() if line.split("\t")[0].isdigit()]

    def test_simulate_n_max_falls_back_to_default(self, tmp_path, capsys):
        path = write(tmp_path, "funnel.json", funnel_automaton())
        assert main(["simulate", path, "-e", "b a^w", "-n", "4"]) == 0
        assert len(self.table_rows(capsys.readouterr().out)) == 4
        assert main(["simulate", path, "-e", "b a^w"]) == 0
        assert len(self.table_rows(capsys.readouterr().out)) == 8

    def test_analyze_verify_does_not_carry_over(self, tmp_path, capsys):
        path = write(tmp_path, "funnel.json", funnel_automaton())
        assert main(["analyze", path, "--verify"]) == 0
        assert "extrapolated limit:" in capsys.readouterr().out
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "YES"
        assert "extrapolated limit:" not in out
        assert not self.table_rows(out)


class TestReduce:
    def test_emits_loadable_automaton_with_state_map(self, tmp_path, capsys):
        path = write(tmp_path, "coin.json", coin_automaton(0.8))
        out_path = tmp_path / "reduced.json"
        assert main(["reduce", path, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        loaded = automaton_from_json(text)
        assert loaded.dim == 9
        payload = json.loads(text)
        assert payload["state_map"]["qF"] == "qF"
        assert payload["state_map"]["heads:L"] == ["heads", "L"]

    def test_state_counts(self, tmp_path, capsys):
        for automaton, expected in [(single_state_automaton(), 5),
                                    (funnel_automaton(), 9)]:
            path = write(tmp_path, "input.json", automaton)
            assert main(["reduce", path]) == 0
            loaded = automaton_from_json(capsys.readouterr().out)
            assert loaded.dim == expected

    def test_verification_report_goes_to_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "coin.json", coin_automaton(0.8))
        out_path = tmp_path / "reduced.json"
        assert main(["reduce", path, "-w", "a", "-n", "4", "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference" in captured.err
        assert "extrapolated limit:" in captured.err

    def test_verification_builds_the_reduction_once(self, tmp_path, capsys, monkeypatch):
        # `reduce` imports `build_reduction` from its module when it runs.
        import prostochastic.reduction as reduction_module

        built = []
        original = reduction_module.build_reduction

        def counting(automaton):
            built.append(automaton)
            return original(automaton)

        monkeypatch.setattr(reduction_module, "build_reduction", counting)
        path = write(tmp_path, "coin.json", coin_automaton(0.8))
        assert main(["reduce", path, "-w", "a", "-n", "4"]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("options,message", [
        (["-w", "a", "-n", "0"], "n_max must be >= 1"),
        (["-w", "z"], "unknown letter"),
        (["-w", "a", "-n", "-3"], "n_max must be >= 1"),
    ])
    def test_verification_failure_writes_nothing(self, tmp_path, capsys, options, message):
        path = write(tmp_path, "coin.json", coin_automaton(0.8))
        assert main(["reduce", path, *options]) == 2
        out_path = tmp_path / "reduced.json"
        assert main(["reduce", path, *options, "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out_path.exists()

    def test_precondition_failure_exit_2(self, tmp_path, capsys):
        bad = coin_automaton(0.8)
        from prostochastic import ProbabilisticAutomaton
        spread = ProbabilisticAutomaton(
            bad.states, bad.alphabet,
            {a: bad.transition(a) for a in bad.alphabet},
            (0.5, 0.5, 0.0), bad.final)
        path = write(tmp_path, "spread.json", spread)
        assert main(["reduce", path]) == 2
        assert "unit vector" in capsys.readouterr().err


class TestExample:
    def test_round_trip_through_analyze(self, tmp_path, capsys):
        out_path = tmp_path / "cx.json"
        for x in ("0.9", "0.5"):
            assert main(["example", "-x", x, "-o", str(out_path)]) == 0
            assert main(["analyze", str(out_path)]) == 1
        capsys.readouterr()

    def test_domain_error(self, capsys):
        assert main(["example", "-x", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_writes_to_stdout_without_output_flag(self, capsys):
        assert main(["example", "-x", "0.5"]) == 0
        loaded = automaton_from_json(capsys.readouterr().out)
        assert loaded.dim == 5
        assert loaded.is_strict


class TestColdStart:
    """Each command in a fresh interpreter: `analyze` and `monoid` decide on
    supports alone and never import numpy, nor `dataclasses`, `inspect`,
    `typing` or the expression parser; the numeric commands import numpy
    when they run.  Building matrices and automata from lists does not
    import numpy either; the first numeric use does."""

    SCRIPT = ("import json, sys\n"
              "import prostochastic.cli as cli\n"
              "loaded = ['numpy' in sys.modules]\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    code = cli.main(argv)\n"
              "    loaded.append(['numpy' in sys.modules, code])\n"
              "print(json.dumps(loaded))\n")

    def run(self, commands, cwd):
        return self.run_script(self.SCRIPT, [json.dumps(commands)], cwd)

    def run_script(self, script, args, cwd, flags=()):
        import prostochastic
        src = os.path.dirname(os.path.dirname(prostochastic.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, *flags, "-c", script, *args],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    def test_analyze_and_monoid_leave_numpy_unloaded(self, tmp_path):
        yes = write(tmp_path, "yes.json", absorbing_automaton())
        no = write(tmp_path, "no.json", counterexample_automaton(0.9))
        out = self.run([["analyze", yes], ["analyze", no], ["monoid", no], ["monoid", yes]],
                       tmp_path)
        assert out[:2] == ["YES", "witness: a^w"]
        assert out[2] == "NO"
        assert json.loads(out[-1]) == [False, [False, 0], [False, 1], [False, 0], [False, 0]]

    # `typing` is checked only without `site`, which may import it itself.
    @pytest.mark.parametrize("flags,absent", [
        ((), ["dataclasses", "inspect", "prostochastic.omega"]),
        (("-S",), ["dataclasses", "inspect", "prostochastic.omega", "typing"]),
    ], ids=["site", "no-site"])
    def test_analyze_and_monoid_import_only_the_decide_path(self, tmp_path, flags, absent):
        yes = write(tmp_path, "yes.json", absorbing_automaton())
        no = write(tmp_path, "no.json", counterexample_automaton(0.9))
        script = ("import json, sys\n"
                  "import prostochastic.cli as cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))\n")
        commands = [["analyze", yes], ["analyze", no], ["monoid", no], ["monoid", yes]]
        out = self.run_script(script, [json.dumps(commands), json.dumps(absent)], tmp_path, flags)
        assert json.loads(out[-1]) == [[0, 1, 0, 0], []]

    def test_building_from_lists_leaves_numpy_unloaded(self, tmp_path):
        script = ("import sys\n"
                  "from prostochastic import ProbabilisticAutomaton, StochasticMatrix\n"
                  "m = StochasticMatrix([[0.5, 0.5], [0, 1]])\n"
                  "a = ProbabilisticAutomaton(['s', 't'], ['a', 'b'], {'a': m, 'b': [[0, 1], [1, 0]]},\n"
                  "                           [1, 0], [False, True])\n"
                  "print('numpy' in sys.modules, a.is_strict, m.rows)\n"
                  "m.entries\n"
                  "print('numpy' in sys.modules)\n")
        assert self.run_script(script, [], tmp_path) == [
            "False True ((0.5, 0.5), (0.0, 1.0))", "True"]

    @pytest.mark.parametrize("argv,expected", [
        (["analyze", "yes.json", "--verify", "-n", "3"], "extrapolated limit:"),
        (["simulate", "cx.json", "-e", "b a^w", "-n", "3"], "extrapolated limit:"),
        (["reduce", "coin.json", "-w", "a", "-n", "3", "-o", "reduced.json"], None),
        (["example", "-x", "0.9"], '"states": ['),
    ], ids=["analyze-verify", "simulate", "reduce", "example"])
    def test_numeric_commands_import_numpy_when_they_run(self, tmp_path, argv, expected):
        write(tmp_path, "yes.json", absorbing_automaton())
        write(tmp_path, "cx.json", counterexample_automaton(0.9))
        write(tmp_path, "coin.json", coin_automaton(0.8))
        out = self.run([argv], tmp_path)
        assert json.loads(out[-1]) == [False, [True, 0]]
        if expected is not None:
            assert expected in "\n".join(out[:-1])
        else:
            assert automaton_from_json((tmp_path / "reduced.json").read_text()).dim == 9
