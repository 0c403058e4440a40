"""Golden CLI outputs: stdout, stderr and exit code of pinned commands on
the pinned inputs in tests/golden/, compared byte for byte.

The inputs (`*.json`) are fixtures; the expected outputs (`*.out`,
`*.err`, `*.code`) were produced by this file run as a script:

    PYTHONPATH=src python tests/test_golden.py

Regenerate them only for a change that is meant to move CLI output, and
say why in CHANGES.md.

`selftest` prints the wall time of criterion 1 as `  [elapsed 0.12s]`;
that bracket is cut from stdout before the comparison, and CI cuts it
with the same pattern when it diffs `selftest --seed 0` against
`selftest_seed0.out`.  `selftest_seed1199949627`,
`selftest_seed40807560`, `selftest_seed2134822917`,
`selftest_seed1431460730` and `selftest_seed508547399` pin the output at
the five `selftest` seeds perfbench draws at its seed 7;
`selftest_seed2026` and `selftest_seed11` pin two seeds perfbench does not
draw.

`l4_shift.json` is the admissible split-2 shift of `l4.json`,
`grass_shift(g, 2, psi)` with psi = (1/3*u1*u3 - 2/5*u4, 7/10*u2*u2 + 1/4),
written with `connection_to_dict`; its entries are printed simplified trees.
`theta_n2.json` is a non-flat parameter connection for the split-2 jets of
`l4.json`; its entry sqrt(1/2 + x1) fails where x1 < -1/2, so
`cover_check_theta` redraws samples (two at seed 5) where Θ fails.
`map_sqrt.json` is the prolonged point map (u1, u2 + sqrt(u1)), which
fails where u1 <= 0, so `symmetry_map_sqrt` redraws samples (ten at seed
3); `map_cubic.json` is the prolonged point map (u1, u2 + u1^3 -
1/2*u1*u2^2), whose prolongations differentiate polynomial normal forms
and, in its u2_1 component (1 - u1*u2)*u2_1, a product with a sum;
`field_euler.json` is the prolonged Euler field u1 ∂_u1 + u2 ∂_u2.
`sqrt4.json` has the one entry Γ_1{}^3{}_2 = sqrt(u1) + u2*u4, which
fails where u1 < 0, so `symmetry_affine_sqrt` redraws samples (three at
seed 3) where g fails.
"""
import contextlib
import io
import json
import os
import re
import sys

import pytest

from jetgeo.cli import main
from jetgeo.jets import jet_to_dict, load_jets

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "residual_param_secjet": ["residual", "l4.json", "--jets", "secjets_n2.json",
                              "--mode", "param"],
    "residual_unparam_secjet": ["residual", "l4.json", "--jets", "secjets_n2.json",
                                "--mode", "unparam"],
    "residual_unparam_subjet": ["residual", "l4.json", "--jets", "subjets_n2.json",
                                "--mode", "unparam"],
    "residual_param_json": ["residual", "l4.json", "--jets", "secjets_n2.json",
                            "--mode", "param", "--format", "json"],
    "geodesic_s2": ["geodesic", "s2.json", "--start", "0.1,-0.2", "--velocity", "0.6,0.3",
                    "--h", "0.05", "--steps", "30"],
    "cover_check": ["cover-check", "l4.json", "--samples", "8", "--seed", "5"],
    "cover_check_theta": ["cover-check", "l4.json", "--theta", "theta_n2.json", "--samples", "8",
                          "--seed", "5"],
    "symmetry_affine": ["symmetry-check", "l4.json", "--affine", "affine_n2.json",
                        "--samples", "6", "--seed", "3"],
    "symmetry_affine_sqrt": ["symmetry-check", "sqrt4.json", "--affine", "affine_n2.json",
                             "--samples", "6", "--seed", "3"],
    "symmetry_map_subjet": ["symmetry-check", "s2.json", "--map", "map_subjet.json",
                            "--samples", "6", "--seed", "4"],
    "symmetry_map_secjet": ["symmetry-check", "s2.json", "--map", "map_secjet.json",
                            "--samples", "6", "--seed", "4"],
    "symmetry_map_cubic": ["symmetry-check", "s2.json", "--map", "map_cubic.json",
                           "--samples", "6", "--seed", "4"],
    "symmetry_map_sqrt": ["symmetry-check", "s2.json", "--map", "map_sqrt.json",
                          "--samples", "5", "--seed", "3"],
    "symmetry_field_euler": ["symmetry-check", "s2.json", "--field", "field_euler.json",
                             "--samples", "6", "--seed", "4"],
    "invariants_n2": ["invariants", "l4.json", "--n", "2"],
    "invariants_compare_shift": ["invariants", "l4.json", "--compare", "l4_shift.json"],
    "equivalent_shift": ["equivalent", "l4.json", "l4_shift.json"],
    "selftest_seed0": ["selftest", "--seed", "0"],
    "selftest_seed1199949627": ["selftest", "--seed", "1199949627"],
    "selftest_seed40807560": ["selftest", "--seed", "40807560"],
    "selftest_seed2134822917": ["selftest", "--seed", "2134822917"],
    "selftest_seed1431460730": ["selftest", "--seed", "1431460730"],
    "selftest_seed508547399": ["selftest", "--seed", "508547399"],
    "selftest_seed2026": ["selftest", "--seed", "2026"],
    "selftest_seed11": ["selftest", "--seed", "11"],
}

ELAPSED = re.compile(r"  \[elapsed [0-9.]+s\]")

ROUND_TRIPS = ("secjets_n2.json", "subjets_n2.json")


def _path(name):
    return os.path.join(GOLDEN, name)


def run_case(argv):
    """(exit code, stdout, stderr) of the CLI on argv, with *.json
    arguments resolved inside tests/golden/ and wall times cut from
    stdout."""
    argv = [_path(a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n", ELAPSED.sub("", out.getvalue()), err.getvalue()


def round_trip(name):
    return json.dumps([jet_to_dict(t) for t in load_jets(_path(name))], indent=1) + "\n"


def _read(name):
    with open(_path(name), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    code, out, err = run_case(CASES[case])
    assert code == _read(f"{case}.code")
    assert out == _read(f"{case}.out")
    assert err == _read(f"{case}.err")


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_jet_json_round_trip_matches_golden(name):
    assert round_trip(name) == _read(f"roundtrip_{name}")


def _write(name, text):
    with open(_path(name), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        for suffix, text in zip(("code", "out", "err"), run_case(argv)):
            _write(f"{case}.{suffix}", text)
    for name in ROUND_TRIPS:
        _write(f"roundtrip_{name}", round_trip(name))
    sys.exit(0)
