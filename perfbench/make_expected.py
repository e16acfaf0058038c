"""Regenerate expected.json, the committed answers the benchmark gates on.

    python3 perfbench/make_expected.py

Monoid element counts and digests come from the independent oracle.  The
simulated limits come from the package's `simulate` command, so rerun this
only when a change to the program is meant to move them, and say so.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from prostochastic import build_reduction, cli, counterexample_automaton  # noqa: E402
from prostochastic import core  # noqa: E402


def main():
    reductions = {}
    for name, (rows, final) in sorted(workloads.REDUCTION_INPUTS.items()):
        base = core.automaton_from_json(workloads.automaton_json({"a": rows}, final, letters=("a",)))
        built = build_reduction(base).automaton
        letters = [oracle.support(built.transition(a).entries) for a in built.alphabet]
        elements = oracle.closure(letters)
        reductions[name] = {"elements": len(elements),
                            "digest": workloads.monoid_digest(oracle.bitstring(m) for m in elements)}

    limits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for x in workloads.SIMULATE_X:
            path = Path(tmp) / "cx.json"
            path.write_text(core.automaton_to_json(counterexample_automaton(x)))
            for text in workloads.SIMULATE_EXPRESSIONS:
                for mode in workloads.SIMULATE_MODES:
                    for n in workloads.SIMULATE_N:
                        out = io.StringIO()
                        with redirect_stdout(out), redirect_stderr(io.StringIO()):
                            code = cli.main(["simulate", str(path), "-e", text, "-m", mode, "-n", str(n)])
                        if code != 0:
                            raise SystemExit(f"simulate failed for x={x} {text!r} {mode} {n}")
                        key = workloads.simulate_key(x, text, mode, n)
                        limits[key] = workloads.extrapolated_limit(out.getvalue())

    target = workloads.EXPECTED_PATH
    target.write_text(json.dumps({"monoid-reduction": reductions, "simulate": limits},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
