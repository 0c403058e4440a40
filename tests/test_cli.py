import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetgeo
from jetgeo import cli, connections, expr
from jetgeo.cli import main
from jetgeo.connections import projective_shift
from jetgeo.errors import DomainError
from jetgeo.geodesy import geodesic_residuals, geodesic_steps
from jetgeo.jets import jet_to_dict, multi_indices
from jetgeo.sampling import random_connection, spawn_rng
from jetgeo.expr import CoordinateFrame

from conftest import connection_to_dict, geodesic_oracle, geodesic_step_residual, random_expressions, random_secjet2

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(jetgeo.__file__)))


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def zero_spec(tmp_path):
    return write(tmp_path / "zero.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": []})


@pytest.fixture
def random_spec_pair(tmp_path):
    frame = CoordinateFrame(("u1", "u2", "u3"), 1)
    rng = spawn_rng(70)
    g = random_connection(frame, rng)
    shifted = projective_shift(g, random_expressions(frame.names, rng, 3))
    a = write(tmp_path / "a.json", connection_to_dict(g))
    b = write(tmp_path / "b.json", connection_to_dict(shifted))
    return a, b


def test_invariants_zero_connection(zero_spec, capsys):
    assert main(["invariants", zero_spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family,indices,expression")
    assert len(out.strip().splitlines()) == 1  # header only: all components vanish


def test_invariants_malformed_expression(tmp_path, capsys):
    spec = write(
        tmp_path / "bad.json",
        {"coords": ["u1", "u2"], "n": 1,
         "christoffel": [{"lower": [1, 1], "upper": 2, "expr": "u1^^2"}]},
    )
    assert main(["invariants", spec]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "grammar" in err


def test_invariants_compare_projective_pair(random_spec_pair, capsys):
    a, b = random_spec_pair
    assert main(["invariants", a, "--compare", b, "--seed", "1"]) == 0
    assert "identical" in capsys.readouterr().err


def test_equivalent_same_connection(zero_spec, capsys):
    assert main(["equivalent", zero_spec, zero_spec, "--samples", "5"]) == 0
    assert "EQUIVALENT" in capsys.readouterr().err


def test_equivalent_projective_pair(random_spec_pair, capsys):
    a, b = random_spec_pair
    assert main(["equivalent", a, b, "--samples", "10", "--seed", "2"]) == 0


def test_equivalent_detects_difference(zero_spec, tmp_path, capsys):
    other = write(
        tmp_path / "c.json",
        {"coords": ["u1", "u2"], "n": 1,
         "christoffel": [{"lower": [1, 1], "upper": 2, "expr": "1"}]},
    )
    assert main(["equivalent", zero_spec, other, "--samples", "5"]) == 1
    assert "NOT" in capsys.readouterr().err


def test_equivalent_dimension_mismatch(zero_spec, tmp_path, capsys):
    other = write(tmp_path / "d.json", {"coords": ["u1", "u2", "u3"], "n": 1, "christoffel": []})
    assert main(["equivalent", zero_spec, other]) == 2


def test_residual_unparam_with_cover(zero_spec, tmp_path, capsys):
    rng = spawn_rng(71)
    good = random_secjet2(1, 2, rng)
    singular = jet_to_dict(good)
    singular["derivs"] = [
        {**item, "value": 0.0} if item["sigma"] == [1] and item["A"] == 1 else item
        for item in singular["derivs"]
    ]
    jets = write(tmp_path / "jets.json", {"jets": [jet_to_dict(good), singular]})
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "unparam"]) == 0
    out = capsys.readouterr().out
    assert "singular-jacobian" in out


def test_residual_reports_a_domain_error_per_jet(tmp_path, capsys):
    """Γ_1{}^2{}_1 = sqrt(u1) fails at the jet with u1 = -0.5: that row reads
    domain-error and the jets before and after it are still computed (the
    whole report used to stop with exit 2)."""
    spec = write(tmp_path / "g.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": "sqrt(u1)"}]})
    jets = write(tmp_path / "jets.json", {"jets": [
        {"kind": "subjet", "n": 1, "m": 1, "r": 2, "u": [u1, 0.0],
         "derivs": [{"i": 2, "sigma": [1], "value": 0.0}, {"i": 2, "sigma": [1, 1], "value": 0.0}]}
        for u1 in (0.5, -0.5, 0.25)]})
    assert main(["residual", spec, "--jets", jets, "--mode", "unparam"]) == 0
    out, err = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[:2] for row in rows] == [["0", "ok"], ["1", "domain-error"], ["2", "ok"]]
    assert [float(rows[i][-1]) for i in (0, 2)] == [math.sqrt(0.5), 0.5]
    assert err == "3 jets, worst residual 7.071e-01 (tol 1.0e-10)\n"


def test_residual_unparam_direct_subjet_zeros(zero_spec, tmp_path, capsys):
    data = {
        "kind": "subjet", "n": 1, "m": 1, "r": 2, "u": [0.1, 0.2],
        "derivs": [
            {"i": 2, "sigma": [1], "value": 0.7},
            {"i": 2, "sigma": [1, 1], "value": 0.0},
        ],
    }
    jets = write(tmp_path / "flatjet.json", data)
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "unparam"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert float(last[-1]) == 0.0


def test_residual_kind_mismatch(zero_spec, tmp_path, capsys):
    rng = spawn_rng(72)
    from jetgeo.jets import cover2

    sub = cover2(random_secjet2(1, 2, rng))
    jets = write(tmp_path / "subjets.json", jet_to_dict(sub))
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "param"]) == 2


def test_residual_param_zero_rows(zero_spec, tmp_path, capsys):
    rng = spawn_rng(73)
    from jetgeo.connections import Connection
    from jetgeo.geodesy import ddot_gamma_pro
    from conftest import random_secjet1

    theta_flat = Connection.zero(CoordinateFrame(("x1",), 1))
    from jetgeo.connections import connection_from_dict

    g = connection_from_dict(json.loads(open(zero_spec).read()))
    q = ddot_gamma_pro(g, theta_flat, random_secjet1(1, 2, rng))
    jets = write(tmp_path / "onzero.json", jet_to_dict(q))
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "param"]) == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[-1]) <= 1e-12


def test_geodesic_flat_line(zero_spec, capsys):
    code = main([
        "geodesic", zero_spec, "--start", "0,1", "--velocity", "0.5,-1",
        "--h", "0.1", "--steps", "10",
    ])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("t,u1,u2,v1,v2,residual_max")
    final = rows[-1].split(",")
    assert float(final[0]) == pytest.approx(1.0)
    assert float(final[1]) == pytest.approx(0.5)


def test_geodesic_rejects_bad_step(zero_spec, capsys):
    assert main(["geodesic", zero_spec, "--start", "0,0", "--velocity", "1,0",
                 "--h", "-0.1", "--steps", "5"]) == 2


def test_geodesic_domain_error_truncates(tmp_path, monkeypatch):
    spec = write(
        tmp_path / "sing.json",
        {"coords": ["u1", "u2"], "n": 1,
         "christoffel": [{"lower": [1, 1], "upper": 1, "expr": "-sqrt(1 - u1)"}]},
    )
    argv = ["geodesic", spec, "--start", "0,0", "--velocity", "2,0", "--h", "0.1", "--steps", "20"]
    assert main(argv + ["--out", str(tmp_path / "compiled.csv")]) == 3
    rows = (tmp_path / "compiled.csv").read_text().splitlines()
    assert len(rows) > 3 and rows[-1].startswith("error,sqrt of negative value")
    # the numpy oracle, with every Christoffel table evaluated by the
    # interpreter, stops after as many points with the same message
    monkeypatch.setattr(expr, "_INTERPRETED_CALLS", 10 ** 9)
    points = []
    with pytest.raises(DomainError) as stop:
        for point in geodesic_oracle(connections.load_connection(spec), connections.Connection.flat(1),
                                     [0.0, 0.0], [2.0, 0.0], 0.1, 20):
            points.append(point)
    assert len(rows) == 1 + len(points) + 1
    assert rows[-1] == f"error,{stop.value}"


@pytest.mark.parametrize("case", ["theta", "steps-0", "truncated"])
def test_geodesic_residual_column_is_one_batched_call(tmp_path, monkeypatch, case):
    """The residual_max column comes from one `geodesic_residuals` call over
    the whole trajectory, and equals the per-step oracle bit for bit, also
    with a non-flat --theta, at --steps 0, and before the error row of a
    trajectory that a domain error cuts short."""
    s2 = os.path.join(GOLDEN, "s2.json")
    theta = write(tmp_path / "theta.json", {"coords": ["x1"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 1, "expr": "1/5 + x1/3"}]})
    cut = write(tmp_path / "cut.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 1, "expr": "-sqrt(1 - u1)"}]})
    spec, steps, code = {"theta": (s2, 30, 0), "steps-0": (s2, 0, 0), "truncated": (cut, 20, 3)}[case]
    start, velocity = ([0.1, -0.2], [0.6, 0.3]) if spec == s2 else ([0.0, 0.0], [2.0, 0.0])
    calls = []

    def counted(g, run):
        calls.append(len(run))
        return geodesic_residuals(g, run)

    monkeypatch.setattr(cli, "geodesic_residuals", counted)
    out = tmp_path / "out.csv"
    argv = ["geodesic", spec, "--start", ",".join(map(str, start)), "--velocity", ",".join(map(str, velocity)),
            "--h", "0.05" if spec == s2 else "0.1", "--steps", str(steps), "--out", str(out)]
    if case != "steps-0":
        argv += ["--theta", theta]
    assert main(argv) == code
    rows = out.read_text().splitlines()[1:]
    g = connections.load_connection(spec)
    th = connections.load_connection(theta) if case != "steps-0" else connections.Connection.flat(1)
    run = []
    try:
        for step in geodesic_steps(g, th, start, velocity, float(argv[argv.index("--h") + 1]), steps):
            run.append(step)
    except DomainError as e:
        assert rows[-1] == f"error,{e}"
    assert calls == [len(run)] and len(rows) == len(run) + (code == 3)
    assert [row.split(",")[-1] for row in rows[:len(run)]] == [
        repr(geodesic_step_residual(g, step).max_abs()) for step in run]


_CELLS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
    st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.floats().map(np.float64),
    st.text(st.sampled_from('a,"\n\r ;'), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(st.lists(st.floats(), max_size=6), st.lists(_CELLS, max_size=6)), max_size=6))
def test_output_flush_writes_the_bytes_of_csv_writer(rows):
    """A row of Python floats is written by `repr` and joined; every row
    gives the bytes that csv.writer gives with `_fmt`, also next to rows of
    nan, ±inf, -0.0, subnormals, ints, bools, np.float64 and strings with
    commas, quotes and newlines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "b"])
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    out = cli.Output(argparse.Namespace(format="csv", out=None))
    out.table(["a", "b"], rows)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        out.flush()
    assert text.getvalue() == buf.getvalue()


def test_repeated_main_calls_share_one_parser_and_repeat_their_output(tmp_path, monkeypatch, capsys):
    """`main` builds its parser once per process: later calls construct no
    parser, and give the first calls' exit codes, stdout, stderr and --out
    byte for byte, also right after an argparse error (exit 2)."""
    s2, l4 = os.path.join(GOLDEN, "s2.json"), os.path.join(GOLDEN, "l4.json")
    out = tmp_path / "out.csv"
    geodesic = ["geodesic", s2, "--start", "0.1,-0.2", "--velocity", "0.6,0.3", "--h", "0.05", "--steps", "30"]
    commands = [
        geodesic,
        geodesic + ["--out", str(out)],
        ["invariants", l4, "--n", "2"],
        ["invariants", l4, "--compare", l4, "--seed", "4", "--format", "json"],
        ["geodesic", s2, "--start", "0,0"],
        ["cover-check", l4, "--samples", "3", "--out", str(out)],
    ]

    def call(argv):
        if out.exists():
            out.unlink()
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_text() if out.exists() else None

    first = [call(argv) for argv in commands]
    assert [result[0] for result in first] == [0, 0, 0, 0, 2, 0]
    assert first[4][2].startswith("usage: jetgeo geodesic") and first[1][3] == first[0][1]
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    for _ in range(2):
        assert [call(argv) for argv in commands] == first
    assert built == []


@pytest.mark.parametrize("option", ["--start", "--velocity"])
def test_geodesic_rejects_non_numeric_vector(zero_spec, option, capsys):
    argv = ["geodesic", zero_spec, "--start", "0,0", "--velocity", "1,0", "--h", "0.1", "--steps", "5"]
    argv[argv.index(option) + 1] = "a,b"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["unparam", "param"])
def test_residual_rejects_empty_jet_file(zero_spec, tmp_path, mode, capsys):
    jets = write(tmp_path / "none.json", {"jets": []})
    assert main(["residual", zero_spec, "--jets", jets, "--mode", mode]) == 2
    assert "no jets" in capsys.readouterr().err


def test_residual_rejects_order_3_jet_file(zero_spec, tmp_path, capsys):
    data = {"kind": "secjet", "n": 1, "l": 2, "r": 3, "x": [0.3], "u": [0.3, 0.09],
            "derivs": [{"A": a, "sigma": [1] * k, "value": v}
                       for a, values in ((1, (1.0, 0.0, 0.0)), (2, (0.6, 2.0, 0.0)))
                       for k, v in zip((1, 2, 3), values)]}
    jets = write(tmp_path / "order3.json", data)
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "param"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r must be 1 or 2" in err and "Traceback" not in err


def test_residual_rejects_non_list_jets(zero_spec, tmp_path, capsys):
    jets = write(tmp_path / "five.json", {"jets": 5})
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "unparam"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a list" in err and "Traceback" not in err


@pytest.mark.parametrize("data, found", [([], "list"), ([{"kind": "subjet"}], "list"), (5, "int"), (None, "NoneType")])
def test_residual_rejects_a_jet_file_that_is_not_an_object(zero_spec, tmp_path, capsys, data, found):
    jets = write(tmp_path / "top.json", data)
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "unparam"]) == 2
    err = capsys.readouterr().err
    assert err == f'error: a jet file holds one jet object or {{"jets": [...]}}, got {found}\n'


def test_directory_as_spec_path_exits_2(tmp_path, capsys):
    assert main(["invariants", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option, text", [
    ("--affine", '{"a": [[1.0]]}'),
    ("--affine", '{"a": [[1.0]], "b": '),
    ("--map", '{"kind": "subjet", '),
    ("--field", "not json"),
])
def test_symmetry_check_malformed_spec_exits_2(zero_spec, tmp_path, option, text, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    assert main(["symmetry-check", zero_spec, option, str(path), "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ({"a": [[None]], "b": [0]}, "each row of a must be a list of numbers, got [None]"),
    ({"a": [["2"]], "b": [0]}, "each row of a must be a list of numbers, got ['2']"),
    ({"a": [[2]], "b": [True]}, "b must be a list of numbers, got [True]"),
    ({"a": "12", "b": [0]}, "a must be a list of rows, got '12'"),
], ids=["null-entry", "string-entry", "bool-entry", "string-matrix"])
def test_affine_map_entries_must_be_json_numbers(zero_spec, tmp_path, spec, message, capsys):
    """null used to load as nan (a failing check, exit 1, and a numpy
    warning from the determinant), "2" as 2.0 and true as 1.0."""
    aff = write(tmp_path / "aff.json", spec)
    assert main(["symmetry-check", zero_spec, "--affine", aff, "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: malformed affine map spec: {message}\n"


def test_symmetry_check_redraws_where_the_image_generators_overflow(tmp_path, capsys):
    """Found by the hostile-spec fuzz test: Γ_1{}^1{}_1 = exp(1000 u1) and a
    map that scales u2_1 by 10^308 give generators at the image that are not
    finite, and least squares over them ended in a LinAlgError traceback.
    Such a sample is now redrawn.  Where the generators are finite, their
    span residual overflows, and that sample is redrawn too: no sample is
    regular, so the check runs out of samples and exits 2."""
    spec = write(tmp_path / "g.json", _EXP_SPEC)
    jmap = write(tmp_path / "m.json", _scaling_map("10^308"))
    assert main(["symmetry-check", spec, "--map", jmap, "--samples", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not sample: 300 draws failed and 0 of 3 succeeded")


def test_symmetry_check_redraws_a_span_residual_that_is_not_finite(tmp_path, capsys):
    """With the map scaling u2_1 by 10^155, least squares overflows to nan or
    inf at some samples and not at others.  Those samples are redrawn, as
    `grass_equivalent` redraws a deviation that is not finite; they used to
    be kept as failing rows, and the check exited 1 with a nan worst
    residual."""
    spec = write(tmp_path / "g.json", _EXP_SPEC)
    jmap = write(tmp_path / "m.json", _scaling_map("10^155"))
    assert main(["symmetry-check", spec, "--map", jmap, "--samples", "6"]) == 0
    out, err = capsys.readouterr()
    residuals = [float(row[-2]) for row in list(csv.reader(io.StringIO(out)))[1:]]
    assert len(residuals) == 6 and all(math.isfinite(r) for r in residuals)
    assert err == "PASS 6/6 tol=1e-08 (worst residual 0.000e+00, skipped 88)\n"


_EXP_SPEC = {"coords": ["u1", "u2"], "n": 1, "christoffel": [
    {"lower": [1, 1], "upper": 1, "expr": "exp(1000*u1)"}, {"lower": [1, 1], "upper": 2, "expr": "u1"}]}


def _scaling_map(factor):
    return {"kind": "subjet", "n": 1, "coords": ["u1", "u2"],
            "components": {"u1": "u1", "u2": "u2", "u2_1": f"{factor}*u2_1"}}


@pytest.mark.parametrize("kind, coords, option, clash", [
    # u2's derivative coordinate u2_1 is also a coordinate
    ("subjet", ["u1", "u2", "u2_1"], "--map", "u2_1"),
    ("subjet", ["u1", "u2", "u2_1"], "--field", "u2_1"),
    # the default parameter name x1 is also a coordinate
    ("secjet", ["x1", "u2"], "--map", "x1"),
])
def test_symmetry_check_rejects_a_jet_chart_that_repeats_a_name(tmp_path, capsys, kind, coords, option, clash):
    """A table over such a chart reads one value for both coordinates of
    the repeated name, so the identity map, and the field of the same
    components, failed with exit 1 (worst residual 5.819e-01, 1.162e+00
    and 6.417e-01 here).  Now the chart is refused: exit 2, naming the
    coordinate."""
    spec = write(tmp_path / "g.json", {"coords": coords, "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": f"{coords[0]}*{coords[1]}"}]})
    chart = (coords + [f"{c}_1" for c in coords[1:]] if kind == "subjet"
             else ["x1"] + coords + [f"{c}_x1" for c in coords])
    identity = write(tmp_path / "m.json", {"kind": kind, "n": 1, "coords": coords,
                                           "components": {name: name for name in chart}})
    assert main(["symmetry-check", spec, option, identity, "--samples", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: jet chart names the coordinate {clash!r} twice; rename the coordinates that clash\n"


_FLAT3 = {"coords": ["u1", "u2", "u3"], "n": 2, "christoffel": []}
_FLAT2 = {"coords": ["u1", "u2"], "n": 1, "christoffel": []}
# the prolonged linear map (2 u1, u2, u3) for split 1: a symmetry of the flat equation
_SCALING3 = {"kind": "subjet", "n": 1, "coords": ["u1", "u2", "u3"],
             "components": {"u1": "2*u1", "u2": "u2", "u3": "u3", "u2_1": "u2_1/2", "u3_1": "u3_1/2"}}
_SPLIT_1, _SPLIT_2 = "(u1, u2, u3, u2_1, u3_1)", "(u1, u2, u3, u3_1, u3_2)"
_SECJET_T = {"kind": "secjet", "n": 1, "coords": ["u1", "u2"], "x_coords": ["t"],
             "components": {c: c for c in ("t", "u1", "u2", "u1_x1", "u2_x1")}}


@pytest.mark.parametrize("option, connection, spec, extra, spec_chart, chart", [
    # the spec's n (1) is not the connection's split (2): --map gave a verdict
    # on another map (FAIL 0/3, worst residual 2.434e-01), --field exited 2
    ("--map", _FLAT3, _SCALING3, [], _SPLIT_1, _SPLIT_2),
    ("--field", _FLAT3, _SCALING3, [], _SPLIT_1, _SPLIT_2),
    # the same, with the split from --n
    ("--map", {**_FLAT3, "n": 1}, _SCALING3, ["--n", "2"], _SPLIT_1, _SPLIT_2),
    ("--field", {**_FLAT3, "n": 1}, _SCALING3, ["--n", "2"], _SPLIT_1, _SPLIT_2),
    # other coordinate names, read by position before: --map printed PASS
    ("--map", _FLAT2, {"kind": "subjet", "n": 1, "coords": ["a", "b"],
                       "components": {"a": "a", "b": "b", "b_1": "b_1"}}, [], "(a, b, b_1)", "(u1, u2, u2_1)"),
    ("--field", _FLAT2, {"kind": "subjet", "n": 1, "coords": ["a", "b"],
                         "components": {"a": "1", "b": "0", "b_1": "0"}}, [], "(a, b, b_1)", "(u1, u2, u2_1)"),
    # a section-side field: the field check reads the submanifold chart
    ("--field", _FLAT2, {**_SECJET_T, "x_coords": ["x1"], "components": {
        c: c for c in ("x1", "u1", "u2", "u1_x1", "u2_x1")}}, [], "(x1, u1, u2, u1_x1, u2_x1)", "(u1, u2, u2_1)"),
    # a section-side map whose parameter is not the parameter connection's x1
    ("--map", _FLAT2, _SECJET_T, [], "(t, u1, u2, u1_x1, u2_x1)", "(x1, u1, u2, u1_x1, u2_x1)"),
], ids=["map-n", "field-n", "map-split-option", "field-split-option", "map-coords", "field-coords",
        "field-kind", "map-x-coords"])
def test_symmetry_check_refuses_a_map_or_field_over_another_jet_chart(tmp_path, capsys, option, connection, spec,
                                                                       extra, spec_chart, chart):
    """One check, before any draw: the spec's kind, n and chart names must
    be those of the connection's jet chart at the split in use.  A mismatch
    exits 2 with one error line naming both charts."""
    g, f = write(tmp_path / "g.json", connection), write(tmp_path / "f.json", spec)
    assert main(["symmetry-check", g, option, f, "--samples", "3", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"chart {spec_chart}, not over" in err and err.endswith(f", {chart}\n")


def test_the_chart_check_passes_the_map_at_the_split_it_is_written_for(tmp_path, capsys):
    g = write(tmp_path / "g.json", {**_FLAT3, "n": 1})
    f = write(tmp_path / "f.json", _SCALING3)
    assert main(["symmetry-check", g, "--map", f, "--samples", "3"]) == 0
    assert main(["symmetry-check", write(tmp_path / "g2.json", _FLAT3), "--map", f, "--samples", "3",
                 "--n", "1"]) == 0


def test_affine_map_with_an_overflowing_determinant_writes_no_warning(tmp_path):
    """det a overflows to inf, which is not singular; the check runs and
    stderr holds only its summary, in a fresh interpreter, where a numpy
    warning would reach stderr."""
    spec = write(tmp_path / "g.json", {"coords": ["u1", "u2", "u3"], "n": 2, "christoffel": []})
    theta = write(tmp_path / "theta.json", {"coords": ["x1", "x2"], "n": 2, "christoffel": []})
    aff = write(tmp_path / "aff.json", {"a": [[1e200, 1e200], [1e200, -1e200]], "b": [0, 0]})
    run = subprocess.run([sys.executable, "-m", "jetgeo.cli", "symmetry-check", spec, "--affine", aff,
                          "--theta", theta, "--samples", "3"],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr.startswith("PASS 3/3") and len(run.stderr.splitlines()) == 1


@pytest.mark.parametrize("change", [
    {"christoffel": 5},
    {"n": "x"},
    {"n": 5},
    {"singular_points": 5},
    {"singular_points": [["a", 0]]},
    {"coords": [1, 2]},
    {"singular_points": [[0.0, 0.0, 0.0]]},
])
def test_malformed_connection_spec_exits_2(tmp_path, change, capsys):
    spec = write(tmp_path / "bad.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [], **change})
    assert main(["invariants", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("split", [1.5, "2", True], ids=["float", "string", "bool"])
def test_non_integer_split_exits_2(tmp_path, split, capsys):
    spec = write(tmp_path / "split.json", {"coords": ["u1", "u2", "u3"], "n": split, "christoffel": []})
    assert main(["invariants", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed connection spec: split n must be an integer")


@pytest.mark.parametrize("value", [1.5, "2", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("file, key", [("subjets_n2.json", "n"), ("subjets_n2.json", "r"),
                                       ("subjets_n2.json", "m"), ("secjets_n2.json", "l"),
                                       ("map_subjet.json", "n")])
def test_non_integer_jet_size_exits_2(tmp_path, file, key, value, capsys):
    with open(os.path.join(GOLDEN, file), encoding="utf-8") as fh:
        data = json.load(fh)
    if file == "map_subjet.json":
        argv = ["symmetry-check", os.path.join(GOLDEN, "s2.json"), "--samples", "2",
                "--map", write(tmp_path / file, {**data, key: value})]
    else:
        jets = write(tmp_path / file, {"jets": [{**data["jets"][0], key: value}]})
        argv = ["residual", os.path.join(GOLDEN, "l4.json"), "--jets", jets, "--mode", "unparam"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed jet") and f"{key} must be an integer" in captured.err


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e999", "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "float-overflow", "int-overflow"])
def test_non_finite_number_in_jet_file_exits_2(tmp_path, number, capsys):
    spec = write(tmp_path / "sin.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": "sin(u1)"}]})
    jets = tmp_path / "inf.json"
    jets.write_text('{"jets": [{"kind": "subjet", "n": 1, "m": 1, "r": 1, "u": [%s, 0.0], '
                    '"derivs": [{"i": 2, "sigma": [1], "value": 0.0}]}]}' % number, encoding="utf-8")
    assert main(["residual", spec, "--jets", str(jets), "--mode", "unparam"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("start", ["inf,0", "0,nan"])
def test_geodesic_rejects_non_finite_vector(zero_spec, start, capsys):
    argv = ["geodesic", zero_spec, "--start", start, "--velocity", "1,0", "--h", "0.1", "--steps", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --start") and "Traceback" not in err


def test_overflowing_sum_is_a_domain_error(tmp_path, capsys):
    spec = write(tmp_path / "big.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": "10^308*u1 + 10^308*u2 + 10^308"}]})
    assert main(["equivalent", spec, spec, "--samples", "5"]) == 0
    argv = ["geodesic", spec, "--start", "0.9,0.9", "--velocity", "1,0", "--h", "0.1", "--steps", "3"]
    assert main(argv) == 3
    assert "sum overflow" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["residual", "geodesic"])
def test_overflow_leaves_only_the_summary_on_stderr(tmp_path, command):
    """residual: Γ_1{}^2{}_1 = 10^308 overflows the swap average of
    `residual2`; geodesic: the acceleration overflows, which ends the
    trajectory.  Neither writes a numpy warning; each runs in a fresh
    interpreter, where a warning would reach stderr."""
    if command == "residual":
        spec = write(tmp_path / "g.json", _one_entry("10^308"))
        jets = write(tmp_path / "j.json", {"jets": [{**_SUBJET, "u": [0.5, 0.5], "derivs": [
            {"i": 2, "sigma": [1], "value": 0.0}, {"i": 2, "sigma": [1, 1], "value": 1.0}]}]})
        argv = ["residual", spec, "--jets", jets, "--mode", "unparam"]
    else:
        spec = write(tmp_path / "g.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
            {"lower": [1, 1], "upper": 1, "expr": "10^308"}, {"lower": [1, 2], "upper": 1, "expr": "10^308"}]})
        argv = ["geodesic", spec, "--start", "0,0", "--velocity", "1,1", "--h", "0.1", "--steps", "2"]
    run = subprocess.run([sys.executable, "-m", "jetgeo.cli", *argv],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert len(run.stderr.splitlines()) == 1 and "Warning" not in run.stderr
    if command == "residual":
        assert run.returncode == 0 and run.stderr == "1 jets, worst residual inf (tol 1.0e-10)\n"
    else:
        assert run.returncode == 3 and run.stderr == "trajectory truncated by a domain error\n"


def test_geodesic_overflowing_acceleration_truncates_with_exit_3(tmp_path, capsys):
    """Γ_1{}^1{}_1 = Γ_1{}^1{}_2 = 10^308 are finite, but the acceleration at
    the start point is not: the run writes no step, then its error row, and
    exits 3, as for any domain error.  It used to write nan rows and exit 0."""
    spec = write(tmp_path / "g.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 1, "expr": "10^308"}, {"lower": [1, 2], "upper": 1, "expr": "10^308"}]})
    argv = ["geodesic", spec, "--start", "0,0", "--velocity", "1,1", "--h", "0.1", "--steps", "2"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "t,u1,u2,v1,v2,residual_max\nerror,acceleration is not finite at t = 0.0\n"
    assert err == "trajectory truncated by a domain error\n"


@pytest.mark.parametrize("points", [["12"], [[1, "2"]], [[True, 0.5]], "12"],
                         ids=["string-point", "string-coordinate", "bool-coordinate", "string"])
def test_singular_points_must_be_lists_of_numbers(tmp_path, points, capsys):
    spec = write(tmp_path / "g.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [],
                                       "singular_points": points})
    assert main(["invariants", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: malformed connection spec: singular_points must be a list "
                                 f"of lists of numbers, got {points!r}\n")


@pytest.mark.parametrize("change, message", [
    ({"u": ["0.1", True]}, "u must be a list of numbers, got ['0.1', True]"),
    ({"u": "12"}, "u must be a list of numbers, got '12'"),
    ({"kind": "secjet", "l": 2, "x": ["0.5"], "u": [0.1, 0.2], "derivs": [
        {"A": a, "sigma": sigma, "value": 0.0} for a in (1, 2) for sigma in ([1], [1, 1])]},
     "x must be a list of numbers, got ['0.5']"),
    ({"derivs": [{"i": 2, "sigma": [1], "value": "0.7"}, {"i": 2, "sigma": [1, 1], "value": 0.0}]},
     "derivative value must be a number, got '0.7'"),
], ids=["string-and-bool-coordinates", "string-point", "string-parameter", "string-value"])
def test_jet_coordinates_and_values_must_be_json_numbers(zero_spec, tmp_path, change, message, capsys):
    """Each used to load: "0.1" as 0.1, true as 1.0, and the string "12" as
    the point (1.0, 2.0)."""
    jets = write(tmp_path / "j.json", {**_SUBJET, **change})
    assert main(["residual", zero_spec, "--jets", jets, "--mode", "unparam"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: malformed jet spec: {message}\n"


@pytest.mark.parametrize("coords", ["uv", "u1", None, ["u1", 2]], ids=["string", "one-name", "null", "number-name"])
def test_connection_coords_must_be_a_list_of_strings(tmp_path, coords, capsys):
    """A string used to load as a list of one-letter names: "uv" as u, v."""
    spec = write(tmp_path / "g.json", {"coords": coords, "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": "u*v"}]})
    assert main(["invariants", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: malformed connection spec: coords must be a list of strings, got {coords!r}\n"


@pytest.mark.parametrize("option", ["--map", "--field"])
@pytest.mark.parametrize("change, message", [
    ({"components": {"u1": 5, "u2": "u2", "u2_1": "u2_1"}}, "components must be strings, got {'u1': 5}"),
    ({"components": {"u1": None, "u2": "u2", "u2_1": "u2_1"}}, "components must be strings, got {'u1': None}"),
    ({"components": None}, "components must be an object, got None"),
    ({"coords": ["u1", None]}, "coords must be a list of strings, got ['u1', None]"),
    ({"kind": "secjet", "n": 10 ** 9}, "n=1000000000 out of range 1..2"),
    ({"coords": "uv", "components": {"u": "u", "v": "v", "v_1": "v_1"}}, "coords must be a list of strings, got 'uv'"),
    ({"kind": "secjet", "x_coords": "x"}, "x_coords must be a list of strings, got 'x'"),
], ids=["number-component", "null-component", "null-components", "null-coordinate", "huge-n", "string-coords",
        "string-x-coords"])
def test_malformed_jet_map_spec_exits_2(zero_spec, tmp_path, option, change, message, capsys):
    """Each used to end in a traceback with exit 1 (a TypeError), except
    huge-n, which built a billion parameter names before failing, and the
    string coordinates, which loaded as lists of one-letter names."""
    spec = write(tmp_path / "m.json", {"kind": "subjet", "n": 1, "coords": ["u1", "u2"],
                                       "components": {"u1": "u1", "u2": "u2", "u2_1": "u2_1"}, **change})
    assert main(["symmetry-check", zero_spec, option, spec, "--samples", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: malformed jet map spec: {message}") and err.count("\n") == 1


def test_invariants_compare_on_another_frame_exits_2(zero_spec, tmp_path, capsys):
    other = write(tmp_path / "three.json", {"coords": ["u1", "u2", "u3"], "n": 1, "christoffel": []})
    assert main(["invariants", zero_spec, "--compare", other]) == 2
    assert capsys.readouterr().err == "error: connections live on different frames\n"


@pytest.mark.parametrize("command, code, summary", [("cover-check", 1, "FAIL covering checks"),
                                                    ("equivalent", 0, "EQUIVALENT")])
def test_overflow_writes_only_the_summary_to_stderr(tmp_path, command, code, summary):
    spec = write(tmp_path / "big.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": "10^308*u1 + 10^308*u2 + 10^308"}]})
    argv = [command, spec] + ([spec] if command == "equivalent" else []) + ["--samples", "5"]
    # a fresh interpreter, so that numpy warnings would reach stderr as they do for a user
    run = subprocess.run([sys.executable, "-m", "jetgeo.cli", *argv],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert run.returncode == code
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith(summary)


_REDRAWN = {
    "sum": [{"lower": [1, 1], "upper": 2, "expr": "10^308*u1 + 10^308*u2 + 10^308"}],
    "products": [{"lower": [1, 1], "upper": 1, "expr": "10^308*u1"},
                 {"lower": [1, 2], "upper": 2, "expr": "10^308*u2"},
                 {"lower": [2, 2], "upper": 1, "expr": "10^308"}],
    "sqrt": [{"lower": [1, 1], "upper": 2, "expr": "sqrt(u1)"}],
}


@pytest.mark.parametrize("command, gamma, samples, code, summary", [
    ("cover-check", "sum", 5, 1, "FAIL covering checks: worst 1.996e+292"),
    ("cover-check", "products", 3, 1, "FAIL covering checks: worst 1.247e+292"),
    ("--affine", "products", 5, 0, "PASS 5/5 tol=1e-08 (worst residual 0.000e+00, skipped 1)"),
    # a sample drawn at u1 < 0 uses up its tangent numbers too before it is
    # redrawn; drawing them only after the commutation deviation gives 4.441e-16
    ("cover-check", "sqrt", 4, 0, "PASS covering checks: worst 2.220e-16,"),
], ids=["cover-check-sum", "cover-check-products", "affine-products", "cover-check-sqrt"])
def test_a_non_finite_deviation_is_redrawn(tmp_path, command, gamma, samples, code, summary, capsys):
    """inf - inf or an overflow in the deviation of some samples: each such
    sample is redrawn, as `equivalent`, `--map` and `--field` redraw one,
    where the first two reported nan and the third inf. A sample outside
    the domain of g is redrawn after the same numbers as one of these."""
    spec = write(tmp_path / "big.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": _REDRAWN[gamma]})
    affine = write(tmp_path / "aff.json", {"a": [[2.0]], "b": [0.5]})
    argv = ["cover-check", spec] if command == "cover-check" else ["symmetry-check", spec, "--affine", affine]
    assert main(argv + ["--samples", str(samples), "--seed", "0", "--format", "json"]) == code
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["rows"]) == samples
    assert all(math.isfinite(v) for row in payload["rows"] for v in row if type(v) is float)
    assert captured.err.startswith(summary)


def test_residual_worst_keeps_nan(tmp_path, capsys):
    # Γ_1{}^1{}_1 v^1 v^1 + Γ_2{}^1{}_2 v^2 v^2 is inf - inf at the second jet only
    spec = write(tmp_path / "pair.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 1, "expr": "10^300"}, {"lower": [2, 2], "upper": 1, "expr": "-10^300"}]})

    def jet(speed):
        return {"kind": "secjet", "n": 1, "l": 2, "r": 2, "x": [0.0], "u": [0.0, 0.0], "derivs": [
            {"A": a, "sigma": sigma, "value": speed if sigma == [1] else 0.0}
            for a in (1, 2) for sigma in ([1], [1, 1])]}
    jets = write(tmp_path / "jets.json", {"jets": [jet(1.0), jet(1e10)]})
    assert main(["residual", spec, "--jets", jets, "--mode", "param", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert math.isnan(json.loads(captured.out)["summary"]["max_abs"])
    assert "worst residual nan" in captured.err


@pytest.mark.parametrize("command", ["equivalent", "invariants", "cover-check", "--map", "--field", "--affine"])
@pytest.mark.parametrize("gamma, code", [("sqrt(u1)", 0), ("sqrt(-1 - u1^2)", 2)],
                         ids=["half-regular", "nowhere-regular"])
def test_randomized_commands_redraw_and_give_up_alike(tmp_path, command, gamma, code, capsys):
    """sqrt(u1) fails at half the points, which are redrawn; sqrt(-1 - u1^2)
    fails everywhere, and every randomized subcommand gives up the same way."""
    spec = write(tmp_path / "g.json", {"coords": ["u1", "u2"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 2, "expr": gamma}]})
    chart = {"kind": "subjet", "n": 1, "coords": ["u1", "u2"]}
    identity = write(tmp_path / "id.json", {**chart, "components": {"u1": "u1", "u2": "u2", "u2_1": "u2_1"}})
    zero = write(tmp_path / "zero.json", {**chart, "components": {"u1": "0", "u2": "0", "u2_1": "0"}})
    affine = write(tmp_path / "aff.json", {"a": [[2.0]], "b": [0.5]})
    argv = {
        "equivalent": ["equivalent", spec, spec],
        "invariants": ["invariants", spec, "--compare", spec],
        "cover-check": ["cover-check", spec],
        "--map": ["symmetry-check", spec, "--map", identity],
        "--field": ["symmetry-check", spec, "--field", zero],
        "--affine": ["symmetry-check", spec, "--affine", affine],
    }[command]
    # invariants --compare compares at 12 points and takes no --samples
    assert main(argv + ([] if command == "invariants" else ["--samples", "5"])) == code
    err = capsys.readouterr().err
    assert ("could not sample" in err) == (code == 2) and "Traceback" not in err


def test_cover_check(random_spec_pair, capsys):
    a, _ = random_spec_pair
    assert main(["cover-check", a, "--samples", "10", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().err


def test_cover_check_with_a_theta_of_another_dimension_exits_2(tmp_path, monkeypatch, capsys):
    """l4.json splits at n = 2; a 1-dimensional Θ is refused before any
    sample is drawn."""
    theta = write(tmp_path / "theta.json", {"coords": ["x1"], "n": 1, "christoffel": [
        {"lower": [1, 1], "upper": 1, "expr": "x1"}]})

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(cli, "WordStream", no_draw)
    assert main(["cover-check", os.path.join(GOLDEN, "l4.json"), "--theta", theta]) == 2
    assert capsys.readouterr() == ("", "error: parameter connection dimension 1, jet parameter dimension 2\n")


def test_symmetry_check_affine(zero_spec, tmp_path, capsys):
    aff = write(tmp_path / "aff.json", {"a": [[2.0]], "b": [1.0]})
    assert main(["symmetry-check", zero_spec, "--affine", aff, "--samples", "10"]) == 0
    assert "PASS" in capsys.readouterr().err


@pytest.mark.parametrize("spec, a, extra, message", [
    ("s2.json", np.eye(3), [], "affine map acts on 3 parameters, the split is n=1"),
    ("s2.json", np.eye(2), [], "affine map acts on 2 parameters, the split is n=1"),
    ("l4.json", None, ["--n", "1"], "affine map acts on 2 parameters, the split is n=1"),
], ids=["3x3-on-s2", "2x2-on-s2", "n1-on-l4"])
def test_symmetry_check_refuses_an_affine_map_off_the_split(spec, a, extra, message, tmp_path, capsys):
    aff = (os.path.join(GOLDEN, "affine_n2.json") if a is None
           else write(tmp_path / "aff.json", {"a": a.tolist(), "b": [0.0] * len(a)}))
    assert main(["symmetry-check", os.path.join(GOLDEN, spec), "--affine", aff, *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_symmetry_check_map_fails_for_quadratic(zero_spec, tmp_path, capsys):
    quad = write(
        tmp_path / "quad.json",
        {"kind": "subjet", "n": 1, "coords": ["u1", "u2"],
         "components": {"u1": "u1", "u2": "u2 + u1^2", "u2_1": "u2_1 + 2*u1"}},
    )
    assert main(["symmetry-check", zero_spec, "--map", quad, "--samples", "10"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_symmetry_check_field(zero_spec, tmp_path, capsys):
    field = write(
        tmp_path / "euler.json",
        {"kind": "subjet", "n": 1, "coords": ["u1", "u2"],
         "components": {"u1": "u1", "u2": "u2", "u2_1": "0"}},
    )
    assert main(["symmetry-check", zero_spec, "--field", field, "--samples", "10"]) == 0


def test_output_determinism(random_spec_pair, tmp_path):
    a, b = random_spec_pair
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    main(["equivalent", a, b, "--samples", "8", "--seed", "9", "--out", str(out1)])
    main(["equivalent", a, b, "--samples", "8", "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_json_format(zero_spec, capsys):
    assert main(["equivalent", zero_spec, zero_spec, "--samples", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["samples"] == 3


def test_selftest_squeezed_tolerance_fails(capsys, monkeypatch):
    # full selftest is exercised by test_acceptance; here only the
    # tolerance-override contract, on the cheapest criterion subset
    import jetgeo.cli as cli

    monkeypatch.setattr(cli, "run_all", lambda cfg: [__import__("jetgeo.acceptance", fromlist=["criterion_10"]).criterion_10(cfg)])
    assert main(["selftest", "--tol", "1e-30"]) == 1
    assert main(["selftest"]) == 0


def test_env_seed_fallback(zero_spec, capsys, monkeypatch):
    monkeypatch.setenv("JETGEO_SEED", "17")
    assert main(["equivalent", zero_spec, zero_spec, "--samples", "3"]) == 0


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3"), ([], "abc"), ([], "")],
                         ids=["negative-flag", "negative-env", "non-integer-env", "empty-env"])
def test_invalid_seed_exits_2(zero_spec, flag, env, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("JETGEO_SEED", raising=False)
    else:
        monkeypatch.setenv("JETGEO_SEED", env)
    assert main(["equivalent", zero_spec, zero_spec, "--samples", "3"] + flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "seed" in err.lower() and len(err.splitlines()) == 1


_GEODESIC = ["geodesic", "s2.json", "--start", "0,0", "--velocity", "1,0", "--h", "0.1", "--steps", "2"]
_RESIDUAL = ["residual", "l4.json", "--jets", "secjets_n2.json", "--mode", "param"]


@pytest.mark.parametrize("argv", [
    ["invariants", "l4.json", "--samples", "5"],
    _RESIDUAL + ["--seed", "5"],
    _RESIDUAL + ["--samples", "5"],
    _RESIDUAL + ["--n", "2"],
    _GEODESIC + ["--seed", "5"],
    _GEODESIC + ["--samples", "0"],
    _GEODESIC + ["--tol", "3"],
    _GEODESIC + ["--n", "7"],
    ["selftest", "--samples", "5"],
    ["selftest", "--format", "json"],
    ["selftest", "--n", "1"],
], ids=["invariants-samples", "residual-seed", "residual-samples", "residual-n", "geodesic-seed",
        "geodesic-samples", "geodesic-tol", "geodesic-n", "selftest-samples", "selftest-format", "selftest-n"])
def test_a_subcommand_rejects_an_option_it_does_not_read(argv, capsys):
    """Each of these options used to be accepted and ignored (or, for
    geodesic --samples 0, rejected as a bad sample count)."""
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.fixture
def l4_plus_one(tmp_path):
    """l4.json with `+ 1` added to its first entry: not equivalent to l4.json."""
    with open(os.path.join(GOLDEN, "l4.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["christoffel"][0]["expr"] += " + 1"
    return write(tmp_path / "l4_plus_one.json", spec)


@pytest.mark.parametrize("argv", [
    ["equivalent", "l4.json", "OTHER", "--tol", "inf"],
    ["selftest", "--tol", "nan"],
    ["residual", "l4.json", "--jets", "secjets_n2.json", "--mode", "param", "--tol", "nan"],
    ["geodesic", "s2.json", "--start", "0,0", "--velocity", "1,0", "--h", "nan", "--steps", "5"],
    ["geodesic", "s2.json", "--start", "0,0", "--velocity", "1,0", "--h", "inf", "--steps", "5"],
], ids=["equivalent-tol-inf", "selftest-tol-nan", "residual-tol-nan",
        "geodesic-h-nan", "geodesic-h-inf"])
def test_non_finite_tol_or_step_exits_2(argv, l4_plus_one, capsys):
    argv = [l4_plus_one if a == "OTHER" else os.path.join(GOLDEN, a) if a.endswith(".json") else a
            for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_plus_one_pair_is_not_equivalent_at_the_default_tol(l4_plus_one, capsys):
    assert main(["equivalent", os.path.join(GOLDEN, "l4.json"), l4_plus_one]) == 1


@pytest.mark.parametrize("n", ["0", "-1", "dim", "dim+3"])
@pytest.mark.parametrize("argv, dim", [
    (["equivalent", "l4.json", "l4.json"], 4),
    (["cover-check", "l4.json", "--samples", "2"], 4),
    (["symmetry-check", "l4.json", "--affine", "affine_n2.json", "--samples", "2"], 4),
    (["symmetry-check", "s2.json", "--map", "map_subjet.json", "--samples", "2"], 2),
], ids=["equivalent", "cover-check", "symmetry-check-affine", "symmetry-check-map"])
def test_split_out_of_range_exits_2(argv, dim, n, capsys):
    n = {"dim": dim, "dim+3": dim + 3}.get(n, n)
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: split n=") and "Traceback" not in err and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# hostile spec files


def _one_entry(text):
    return {"coords": ["u1", "u2"], "n": 1, "christoffel": [{"lower": [1, 1], "upper": 2, "expr": text}]}


_SUBJET = {"kind": "subjet", "n": 1, "m": 1, "r": 2, "u": [0.1, 0.2],
           "derivs": [{"i": 2, "sigma": [1], "value": 0.7}, {"i": 2, "sigma": [1, 1], "value": 0.0}]}


@pytest.mark.parametrize("command, spec, jet, code, text", [
    ("invariants", _one_entry("(10^300)^20*u1"), None, 2, "error: constant has too many digits to print"),
    ("invariants", _one_entry("2^999999999999*u1"), None, 0, "2^999999999999"),
    ("equivalent", _one_entry("(2^99999)^99999*u1"), None, 2, "error: could not sample"),
    ("invariants", _one_entry("1" * 5000), None, 2, "error: number has too many digits"),
    ("invariants", _one_entry("u1^" + "9" * 5000), None, 2, "error: number has too many digits"),
    ("invariants", _one_entry(5), None, 2, "error: malformed christoffel item"),
    ("residual", _one_entry("u1"), {**_SUBJET, "n": 10 ** 9}, 2, "error: subjet derivative table incomplete"),
    ("residual", _one_entry("u1"), {**_SUBJET, "n": 2, "m": 0, "derivs": []}, 2,
     "error: split n=2 invalid for dimension 2"),
], ids=["constant-too-long-to-print", "huge-power", "huge-nested-power", "long-number", "long-exponent", "non-string-expr",
        "huge-jet-n", "jet-without-fibre"])
def test_hostile_inputs_found_by_fuzzing(tmp_path, capsys, command, spec, jet, code, text):
    """Inputs that the fuzz test below found, and two of the same kind (a
    long exponent, a nested power).  Each used to end in a traceback with
    exit 1: TypeError, ValueError from Python's limit on the digits of an
    int, MemoryError, or a numpy error on an empty residual."""
    path = write(tmp_path / "g.json", spec)
    argv = {"invariants": ["invariants", path], "equivalent": ["equivalent", path, path, "--samples", "3"],
            "residual": ["residual", path, "--jets", write(tmp_path / "j.json", jet), "--mode", "unparam"]}
    assert main(argv[command]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert text in out
    else:
        assert out == "" and err.startswith(text) and err.count("error:") == 1


_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-1e308, 1e308), st.text(max_size=4),
    st.sampled_from([10 ** 9, 10 ** 30, -10 ** 30, [], {}, [[]], [1, 2, 3], {"jets": []}]),
)

_FORMULAS = st.recursive(
    st.sampled_from(["u1", "u2", "2", "1/3", "0", "10^308"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]), inner).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(inner, st.integers(-3, 4)).map(lambda p: f"({p[0]})^({p[1]})"),
    ),
    max_leaves=5,
)

# mostly formulas; else huge constants and exponents, zero denominators,
# text beyond Python's limit on the digits of an int, or a short string of
# the grammar's characters
_EXPRESSIONS = st.integers(0, 9).flatmap(lambda k: st.text("u12^*/+-() 09.", max_size=12) if k == 0 else (
    st.sampled_from([
        "1/(u1 - u1)", "sqrt(-1 - u1^2)", "10^400*u1", "(10^300)^20*u1", "exp(1000*u1)",
        "10^308*u1 + 10^308*u1 + 10^308", "2^999999999999", "(2^99999)^99999*u1",
        "u1^999999999999", "u1^(-999999999999)", "1" * 5000, "0." + "1" * 5000, "u1^" + "9" * 5000,
    ]) if k <= 3 else _FORMULAS))


@st.composite
def _connection_specs(draw, l):
    item = st.fixed_dictionaries({"lower": st.lists(st.integers(1, l), min_size=2, max_size=2),
                                  "upper": st.integers(1, l), "expr": _EXPRESSIONS})
    items = st.lists(item, max_size=3, unique_by=lambda it: (*sorted(it["lower"]), it["upper"]))
    return {"coords": [f"u{i}" for i in range(1, l + 1)], "n": draw(st.integers(1, l - 1)),
            "christoffel": draw(items)}


@st.composite
def _jet_specs(draw, l, secjet):
    n = draw(st.integers(1, l - 1))
    r = draw(st.sampled_from([2, 2, 2, 1]))
    value = st.floats(-2, 2)
    if secjet or draw(st.booleans()):
        jet = {"kind": "secjet", "n": n, "l": l, "r": r, "x": draw(st.lists(value, min_size=n, max_size=n)),
               "u": draw(st.lists(value, min_size=l, max_size=l))}
        rows, start, key = l, 1, "A"
    else:
        jet = {"kind": "subjet", "n": n, "m": l - n, "r": r, "u": draw(st.lists(value, min_size=l, max_size=l))}
        rows, start, key = l - n, n + 1, "i"
    jet["derivs"] = [{key: i, "sigma": list(sigma), "value": draw(value)}
                     for i in range(start, start + rows) for sigma in multi_indices(n, r)]
    return jet


def _paths(data, path=()):
    yield path
    children = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _damaged(draw, data):
    """A copy of the JSON value with one or two values in it, at any depth,
    replaced by hostile ones.  Each hostile value is a copy, so the second
    replacement never writes into a list or object that `_HOSTILE` shares."""
    data = copy.deepcopy(data)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        if path:
            reduce(lambda node, key: node[key], path[:-1], data)[path[-1]] = copy.deepcopy(draw(_HOSTILE))
        else:
            data = copy.deepcopy(draw(_HOSTILE))
    return data


@st.composite
def _jet_map_specs(draw, l, n, field):
    """A jet map or field spec over u1..ul with split n, one formula of the
    chart coordinates per component."""
    kind = "subjet" if field else draw(st.sampled_from(["subjet", "secjet"]))
    coords = [f"u{i}" for i in range(1, l + 1)]
    if kind == "subjet":
        chart = coords + [f"{u}_{lam}" for u in coords[n:] for lam in range(1, n + 1)]
    else:
        chart = ([f"x{lam}" for lam in range(1, n + 1)] + coords
                 + [f"{u}_x{lam}" for u in coords for lam in range(1, n + 1)])
    formulas = [lambda c: c, lambda c: "0", lambda c: f"2*{c} + 1/3", lambda c: f"{c} + {chart[0]}^2",
                lambda c: f"sqrt({c})", lambda c: f"1/({c} - {c})", lambda c: f"10^308*{c}",
                lambda c: f"exp(1000*{c})"]
    return {"kind": kind, "n": n, "coords": coords,
            "components": {c: draw(st.sampled_from(formulas))(c) for c in chart}}


_THETA_EXPRESSIONS = st.sampled_from(["x1", "1/5 + x1/3", "0", "sqrt(x1)", "1/(x1 - x1)", "10^308*x1"])


@pytest.mark.parametrize("command", ["invariants", "equivalent", "residual", "geodesic", "cover-check",
                                     "--map", "--field", "--affine"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_specs_exit_0_1_or_2(command, data):
    """Spec files with hostile values, one file at a time, through
    `cli.main`: it returns 0, 1 or 2 (`geodesic`: 0, 2 or 3, where 3 is a
    trajectory cut short by a domain error), and on 2 prints only an
    error.  --map, --field and --affine are `symmetry-check`'s."""
    l = data.draw(st.integers(2, 3))
    mode = data.draw(st.sampled_from(["param", "unparam"]))
    files = {"a.json": data.draw(_connection_specs(l))}
    if command == "equivalent":
        files["b.json"] = data.draw(_connection_specs(l))
    if command == "residual":
        files["jets.json"] = {"jets": data.draw(st.lists(_jet_specs(l, mode == "param"), min_size=1, max_size=2))}
    if command == "geodesic":
        files["theta.json"] = {"coords": ["x1"], "n": 1, "christoffel": [
            {"lower": [1, 1], "upper": 1, "expr": data.draw(_THETA_EXPRESSIONS)}]}
        vectors = [",".join(map(repr, data.draw(st.lists(st.floats(-2, 2), min_size=l, max_size=l))))
                   for _ in range(2)]
    if command in ("--map", "--field"):
        files["map.json"] = data.draw(_jet_map_specs(l, files["a.json"]["n"], command == "--field"))
    if command in ("cover-check", "--affine"):
        n = files["a.json"]["n"]
        entries = [] if command == "--affine" else [{"lower": [1, 1], "upper": 1, "expr": data.draw(_THETA_EXPRESSIONS)}]
        files["theta.json"] = {"coords": [f"x{i}" for i in range(1, n + 1)], "n": n, "christoffel": entries}
    if command == "--affine":
        files["affine.json"] = {"a": data.draw(st.lists(st.lists(st.floats(-2, 2), min_size=n, max_size=n),
                                                        min_size=n, max_size=n)),
                                "b": data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))}
    target = data.draw(st.sampled_from([None, *files]))
    if target:
        files[target] = data.draw(_damaged(files[target]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, value in files.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(value, fh)
        argv = {
            "invariants": ["invariants", paths["a.json"]],
            "equivalent": ["equivalent", paths["a.json"], paths.get("b.json"), "--samples", "3"],
            "residual": ["residual", paths["a.json"], "--jets", paths.get("jets.json"), "--mode", mode],
            "geodesic": lambda: ["geodesic", paths["a.json"], "--theta", paths["theta.json"],
                                 f"--start={vectors[0]}", f"--velocity={vectors[1]}", "--h", "0.1", "--steps", "5"],
            "--map": ["symmetry-check", paths["a.json"], "--map", paths.get("map.json"), "--samples", "3"],
            "--field": ["symmetry-check", paths["a.json"], "--field", paths.get("map.json"), "--samples", "3"],
            "cover-check": ["cover-check", paths["a.json"], "--theta", paths.get("theta.json"), "--samples", "3"],
            "--affine": ["symmetry-check", paths["a.json"], "--affine", paths.get("affine.json"),
                         "--theta", paths.get("theta.json"), "--samples", "3"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv() if callable(argv) else argv)
    assert code in ((0, 2, 3) if command == "geodesic" else (0, 1, 2))
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# every subcommand that reads two specs, with one spec's chart changed


# the subcommand, its arguments with {i} for the i-th spec, and the golden
# specs of a matched pair
_TWO_SPECS = {
    "equivalent": (["equivalent", "{0}", "{1}", "--samples", "3"], ["l4.json", "l4_shift.json"]),
    "invariants --compare": (["invariants", "{0}", "--compare", "{1}"], ["l4.json", "l4_shift.json"]),
    "residual --jets": (["residual", "{0}", "--jets", "{1}", "--mode", "unparam"], ["l4.json", "subjets_n2.json"]),
    "residual --theta": (["residual", "{0}", "--jets", "{1}", "--mode", "param", "--theta", "{2}"],
                         ["l4.json", "secjets_n2.json", "theta_n2.json"]),
    "cover-check --theta": (["cover-check", "{0}", "--theta", "{1}", "--samples", "3", "--seed", "5"],
                            ["l4.json", "theta_n2.json"]),
    "symmetry-check --map": (["symmetry-check", "{0}", "--map", "{1}", "--samples", "3", "--seed", "4"],
                             ["s2.json", "map_secjet.json"]),
    "symmetry-check --field": (["symmetry-check", "{0}", "--field", "{1}", "--samples", "3", "--seed", "4"],
                               ["s2.json", "field_euler.json"]),
    "symmetry-check --affine": (["symmetry-check", "{0}", "--affine", "{1}", "--samples", "3", "--seed", "3"],
                                ["l4.json", "affine_n2.json"]),
}


def _run_specs(argv, specs):
    """(exit code, stdout, stderr) of `argv` on the specs, written to files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, spec in enumerate(specs):
            paths.append(os.path.join(tmp, f"spec{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(*paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _renamed(spec, old, new):
    """The spec with coordinate `old` called `new` everywhere: in its
    coords, its expressions and its chart's names."""
    pattern = rf"(?<![A-Za-z0-9]){old}(?![A-Za-z0-9])"
    return json.loads(re.sub(pattern, new, json.dumps(spec)))


@st.composite
def _changed_charts(draw, spec, connection):
    """The spec with its coords renamed or reordered, its `n` changed, or
    its kind swapped (a jet file's: each jet's).  The pair's connection
    keeps its chart and changes only its `n`: the pair no longer matches,
    while a connection on other coordinates is another connection."""
    jets = spec.get("jets")
    changes = [change for change, ok in (("rename", "coords" in spec and not connection),
                                         ("reorder", len(spec.get("coords", [])) > 1 and not connection),
                                         ("n", "n" in spec or jets), ("kind", "kind" in spec or jets)) if ok]
    change = draw(st.sampled_from(changes))
    spec = copy.deepcopy(spec)
    if change == "rename":
        return _renamed(spec, draw(st.sampled_from(spec["coords"])), draw(st.sampled_from(["w1", "u9", "x3", "t"])))
    if change == "reorder":
        i, j = draw(st.lists(st.integers(0, len(spec["coords"]) - 1), min_size=2, max_size=2, unique=True))
        spec["coords"][i], spec["coords"][j] = spec["coords"][j], spec["coords"][i]
        return spec
    for target in jets or [spec]:
        if change == "n":
            target["n"] = draw(st.sampled_from([v for v in (1, 2, 3) if v != target["n"]]))
        else:
            target["kind"] = {"subjet": "secjet", "secjet": "subjet"}[target["kind"]]
    return spec


@pytest.mark.parametrize("case", sorted(_TWO_SPECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_second_spec_on_another_chart_exits_2_or_keeps_the_verdict(case, data):
    """One spec of a matched pair gets other coordinate names, another
    order of them, another `n` or another kind: the run exits 2 with an
    error, or gives the matched pair's verdict (its exit code)."""
    argv, names = _TWO_SPECS[case]
    specs = []
    for name in names:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            specs.append(json.load(fh))
    matched = _run_specs(argv, specs)
    assert matched[0] in (0, 1)
    i = data.draw(st.sampled_from([i for i, spec in enumerate(specs) if {"coords", "n", "kind", "jets"} & set(spec)]))
    specs[i] = data.draw(_changed_charts(specs[i], i == 0))
    code, out, err = _run_specs(argv, specs)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert code == matched[0]


@pytest.mark.parametrize("case", ["equivalent", "invariants --compare"])
@pytest.mark.parametrize("first, second", [(2, 1), (2, 3), (1, 2), (3, 2)])
def test_two_specs_whose_splits_differ_exit_2_unless_n_is_given(case, first, second):
    """Without --n, two specs that declare different splits exit 2 with
    one error line naming both; with --n both are read at that split, as
    the matched pair is."""
    argv, names = _TWO_SPECS[case]
    matched = []
    for name in names:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            matched.append(json.load(fh))
    specs = copy.deepcopy(matched)
    specs[0]["n"], specs[1]["n"] = first, second
    code, out, err = _run_specs(argv, specs)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err == f"error: the specs declare different splits, n={first} and n={second}; choose one with --n\n"
    assert _run_specs(argv + ["--n", "2"], specs) == _run_specs(argv + ["--n", "2"], matched)
