from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cayley_form
from specialforms import (
    DistanceMatrix,
    RunConfig,
    SearchStats,
    SpecialForm,
    canonicalize,
    circulant_matrix,
    classify_small,
    comass,
    forms_of,
    load_config,
    realize,
    solve,
)
from specialforms import cli
from specialforms.calibration import DEFAULT_RESTARTS, DEFAULT_TOL, MAX_RESTARTS
from specialforms.cli import _build_parser, _dump, main
from specialforms.democratic import (
    MAX_BELL_M,
    MAX_FAMILIES,
    MAX_FAMILY_VERTICES,
    MAX_VERTICES,
    count_symmetry_families,
)
from specialforms.forms import DEFAULT_CANON_DIMENSION_CAP
from specialforms.realization import DEFAULT_SOLVER_VERTEX_CAP


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def form_file(tmp_path):
    f = SpecialForm.from_terms(4, 2, [((3, 4), -1), ((1, 2), 1)])
    return write_json(tmp_path / "form.json", f.to_dict())


@pytest.fixture
def pentagon_file(tmp_path):
    return write_json(tmp_path / "pentagon.json", circulant_matrix(2, (1, 2)).to_dict())


def test_canon_command(form_file, capsys):
    assert main(["canon", form_file]) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out["d"] == 4 and out["p"] == 2
    got = SpecialForm.from_dict(out)
    assert all(g == 1 for _, g in got.terms)
    # byte-identical on repeat runs
    assert main(["canon", form_file]) == 0
    assert capsys.readouterr().out == first


def test_canon_capacity(tmp_path, capsys):
    f = SpecialForm.from_terms(20, 2, [((1, 2), 1)])
    path = write_json(tmp_path / "big.json", f.to_dict())
    assert main(["canon", path]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_bad_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["canon", str(bad)]) == 2
    assert main(["canon", str(tmp_path / "missing.json")]) == 2
    nonsense = write_json(tmp_path / "nonsense.json", {"d": 3})
    assert main(["canon", nonsense]) == 2
    capsys.readouterr()
    # no UTF-8; an integer past Python's 4,300-digit limit; nesting past the
    # recursion limit
    for text, refusal in [
        (b"\xff{}", "can't decode byte 0xff"),
        (b'{"d": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b"[" * 5000 + b"]" * 5000, "maximum recursion depth exceeded"),
    ]:
        bad.write_bytes(text)
        assert main(["canon", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and refusal in err


def test_graph_command(form_file, capsys):
    assert main(["graph", form_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"r": 2, "entries": [[0, 2], [2, 0]]}
    assert main(["graph", form_file, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph distances {")
    assert "--" not in dot  # both terms are disjoint, so every edge sits at p


def test_realize_command(pentagon_file, capsys):
    assert main(["realize", pentagon_file, "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 1
    real = out["solutions"][0]["realization"]
    assert real["d"] == 5
    assert "forms" not in out["solutions"][0]

    assert main(["realize", pentagon_file, "--p", "2", "--all-signs"]) == 0
    out = json.loads(capsys.readouterr().out)
    forms = out["solutions"][0]["forms"]
    assert len(forms) == 2
    assert all(f["d"] == 5 and f["p"] == 2 for f in forms)

    assert main(["realize", pentagon_file, "--p", "2", "--d", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_realize_invariance_filter(pentagon_file, capsys):
    rotation = "2,3,4,5,1"
    assert main(["realize", pentagon_file, "--p", "2",
                 "--invariant-under", rotation]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    swap = "2,1,3,4,5"
    assert main(["realize", pentagon_file, "--p", "2",
                 "--invariant-under", swap]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0
    assert main(["--stats", "realize", pentagon_file, "--p", "2",
                 "--invariant-under", "1,1,2,3,4"]) == 2
    assert _stats_line(capsys.readouterr().err.split("\n", 1)[1])["nodes"] == 0


def test_realize_errors(tmp_path, pentagon_file, capsys):
    assert main(["realize", pentagon_file, "--p", "1"]) == 2  # distance 2 > p
    big = DistanceMatrix.from_rows(
        [[0 if i == j else 1 for j in range(9)] for i in range(9)]
    )
    path = write_json(tmp_path / "big.json", big.to_dict())
    assert main(["realize", path, "--p", "2"]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_democratic_matrix_circulant(capsys):
    assert main(["democratic", "matrix", "--circulant", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert DistanceMatrix.from_dict(out) == circulant_matrix(2, (1, 2))
    assert main(["democratic", "matrix", "--circulant", "5", "2,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert DistanceMatrix.from_dict(out) == circulant_matrix(2, (2, 1))
    assert main(["democratic", "matrix", "--circulant", "4"]) == 2
    capsys.readouterr()


def test_democratic_matrix_even_and_product(capsys):
    assert main(["democratic", "matrix", "--even", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"] == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert main(["democratic", "matrix", "--product", "3,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 9
    assert main(["democratic", "matrix", "--product", "3,3", "1,1,2,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    off_diag = {v for row in out["entries"] for v in row if v != 0}
    assert off_diag == {1, 2}
    capsys.readouterr()


def test_democratic_matrix_dot_output(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main(["democratic", "matrix", "--circulant", "5", "--format", "dot",
                 "--p", "2", "--dot", str(target)]) == 0
    dot = capsys.readouterr().out
    assert target.read_text(encoding="utf-8") == dot
    # only the five distance-1 edges survive the --p filter
    assert dot.count("--") == 5


def test_democratic_enum_and_count(capsys):
    assert main(["democratic", "enum", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 4
    assert out["families"] == [[3, 2, 2], [4, 3], [6, 2], [12]]
    assert main(["democratic", "count", "30"]) == 0
    assert json.loads(capsys.readouterr().out) == 5
    assert main(["democratic", "count", "1"]) == 2
    capsys.readouterr()


def test_democratic_classify(capsys):
    assert main(["democratic", "classify", "5", "--p", "2", "--max-distance", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"] == 12
    assert len(out["democratic"]) == 12
    assert out["theorem_verified"] is True
    assert main(["democratic", "classify", "5", "--p", "2", "--alphabet", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out) == out
    assert main(["democratic", "classify", "9", "--p", "3", "--max-distance", "3"]) == 2
    capsys.readouterr()


def test_classify_takes_max_distance_or_alphabet_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["democratic", "classify", "7", "--p", "3", "--max-distance", "2",
              "--alphabet", "1,2,3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with" in err and "Traceback" not in err


ODD_ABOVE_CAP = (MAX_VERTICES + 1) | 1
EVEN_ABOVE_CAP = MAX_VERTICES + 2 - MAX_VERTICES % 2
FAMILIES_ABOVE_CAP = 1036800  # 20,741 symmetry families


@pytest.mark.parametrize(
    "argv",
    [
        ["democratic", "matrix", "--circulant", str(ODD_ABOVE_CAP)],
        ["democratic", "matrix", "--circulant", str(10**18 + 1), "1"],
        ["democratic", "matrix", "--even", str(EVEN_ABOVE_CAP)],
        ["democratic", "matrix", "--product", str(MAX_VERTICES + 1)],
        ["democratic", "matrix", "--product", f"2,{MAX_VERTICES // 2 + 1}", "1"],
        ["democratic", "count", str(MAX_FAMILY_VERTICES + 1)],
        ["democratic", "enum", str(MAX_FAMILY_VERTICES + 1)],
        ["democratic", "enum", str(FAMILIES_ABOVE_CAP)],
        ["bell", str(MAX_BELL_M + 1)],
        ["democratic", "classify", "11", "--p", "5", "--max-distance", "5"],
        ["democratic", "classify", "1000000000000000009", "--p", "3",
         "--max-distance", "3"],  # a prime
        ["democratic", "classify", str(10**400 + 1), "--p", "3", "--max-distance", "3"],
        ["democratic", "classify", "7", "--p", "10", "--max-distance", "10"],
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_growth_paths_above_their_caps_exit_3_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the cap" in err


HUGE = 10**40


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", {"d": HUGE, "p": 2, "terms": []}],
        ["democratic", "classify", "3", "--p", str(HUGE), "--max-distance", str(HUGE)],
        ["democratic", "classify", "7", "--p", str(HUGE), "--max-distance", str(HUGE)],
    ],
    ids=["calibrate d=10**40", "classify 3 p=10**40", "classify 7 p=10**40"],
)
def test_huge_inputs_exit_with_an_error_at_once(argv, tmp_path, capsys):
    argv = [write_json(tmp_path / "in.json", a) if isinstance(a, dict) else a for a in argv]
    start = time.perf_counter()
    assert main(argv) in (2, 3)
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_the_family_input_above_the_cap_is_just_above_it():
    count = count_symmetry_families(FAMILIES_ABOVE_CAP)
    assert MAX_FAMILIES < count < 1.1 * MAX_FAMILIES


@pytest.mark.parametrize(
    "argv",
    [
        ["democratic", "count", "1"],
        ["democratic", "enum", "-4"],
        ["democratic", "matrix", "--circulant", "4"],
        ["democratic", "matrix", "--circulant", "5", "1"],
        ["democratic", "matrix", "--circulant", "5", "1,0"],
        ["democratic", "matrix", "--circulant", "5", "1.5,2"],
        ["democratic", "matrix", "--even", "5"],
        ["democratic", "matrix", "--even", "4", "1,2"],
        ["democratic", "matrix", "--product", "1,3"],
        ["democratic", "matrix", "--product", "3,3", "1,2"],
        ["bell", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_construction_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_calibrate_command(tmp_path, capsys):
    f = SpecialForm.from_terms(3, 2, [((1, 2), 1)])
    path = write_json(tmp_path / "plane.json", f.to_dict())
    csv_path = tmp_path / "values.csv"
    assert main(["calibrate", path, "--restarts", "5", "--csv", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["max_value"] - 1.0) <= 1e-6
    assert out["calibrated"] is True
    assert out["n_restarts"] == 5
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "start,value"
    assert len(lines) == 1 + len(out["restart_values"])
    assert main(["calibrate", path, "--tol", "0.5"]) == 2
    capsys.readouterr()


def test_bell_command(capsys):
    assert main(["bell", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == 877
    assert main(["bell", "-1"]) == 2
    capsys.readouterr()


def test_output_file(tmp_path, form_file):
    target = tmp_path / "out.json"
    assert main(["-o", str(target), "graph", form_file]) == 0
    out = json.loads(target.read_text(encoding="utf-8"))
    assert out["r"] == 2


def test_output_file_after_command(tmp_path, pentagon_file, capsys):
    target = tmp_path / "out.json"
    assert main(["realize", pentagon_file, "--p", "2", "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["count"] == 1
    # -o before the command keeps working, and a later one wins
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    assert main(["-o", str(before), "realize", pentagon_file, "--p", "2"]) == 0
    assert before.read_text(encoding="utf-8") == target.read_text(encoding="utf-8")
    unused = tmp_path / "unused.json"
    assert main(["-o", str(unused), "bell", "4", "--output", str(after)]) == 0
    assert json.loads(after.read_text(encoding="utf-8")) == 15
    assert not unused.exists()


def test_consecutive_main_calls_behave_like_fresh_ones(tmp_path, pentagon_file, capsys):
    # main builds its parser once per process; no option, default or error
    # of one call may reach the next
    out = tmp_path / "out.json"
    classify = ["democratic", "classify", "5", "--p", "2"]
    calls = [
        ["bell", "5"],
        ["--stats", "bell", "6"],
        ["-o", str(out), "realize", pentagon_file, "--p", "2"],
        ["bell", "4"],
        ["realize", pentagon_file, "--p", "2", "-o", str(out)],
        ["--stats", "realize", pentagon_file, "--p", "2"],
        [*classify, "--max-distance", "2"],
        [*classify, "--max-distance", "2", "--alphabet", "1,2"],
        [*classify, "--alphabet", "1,2"],
        ["bell"],
        ["bell", "7"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout, err = capsys.readouterr()
        stats = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        for line in stats:
            assert line.pop("seconds") >= 0.0
        written = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout, [line for line in err.splitlines() if not line.startswith("{")], \
            stats, written

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    _build_parser.cache_clear()
    again = [run(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert again == fresh
    assert [r[0] for r in again] == [0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert [bool(r[3]) for r in again] == [False, True, False, False, False, True] + [False] * 5
    assert [r[4] is not None for r in again] == [False, False, True, False, True] + [False] * 6


@pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["no-directory", "a-directory"])
def test_output_to_a_path_that_cannot_be_written_exits_2(where, tmp_path, capsys):
    assert main(["-o", str(tmp_path / where), "bell", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_non_integer_inputs_exit_2(tmp_path, capsys):
    matrix = write_json(tmp_path / "m.json", {"r": 2, "entries": [[0, 1.7], [1.2, 0]]})
    assert main(["realize", matrix, "--p", "2"]) == 2
    indices = write_json(
        tmp_path / "f1.json", {"d": 4, "p": 2, "terms": [{"indices": [3.9, 4], "sign": 1}]}
    )
    assert main(["canon", indices]) == 2
    sign = write_json(
        tmp_path / "f2.json", {"d": 4, "p": 2, "terms": [{"indices": [3, 4], "sign": 1.5}]}
    )
    assert main(["graph", sign]) == 2
    assert "integer" in capsys.readouterr().err
    boolean = write_json(tmp_path / "m2.json", {"r": 2, "entries": [[0, True], [True, 0]]})
    assert main(["realize", boolean, "--p", "2"]) == 2
    assert "integer" in capsys.readouterr().err
    plane = write_json(
        tmp_path / "f3.json", SpecialForm.from_terms(3, 2, [((1, 2), 1)]).to_dict()
    )
    assert main(["--seed", "-1", "calibrate", plane]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed" in err


def test_config_file(tmp_path, capsys, form_file):
    f = SpecialForm.from_terms(12, 2, [((1, 2), 1)])
    path = write_json(tmp_path / "wide.json", f.to_dict())
    assert main(["canon", path]) == 3  # default cap is 10
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("# raise the cap\ncanon_d_cap = 12\n", encoding="utf-8")
    assert main(["--config", str(cfg), "canon", path]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_setting = 1\n", encoding="utf-8")
    assert main(["--config", str(bad), "bell", "3"]) == 2
    removed = tmp_path / "removed.cfg"
    removed.write_text("autom_r_cap = 12\n", encoding="utf-8")
    assert main(["--config", str(removed), "bell", "3"]) == 2
    typed = tmp_path / "typed.cfg"
    typed.write_text("canon_d_cap = 11\nsolver_r_cap = 7\n", encoding="utf-8")
    assert load_config(str(typed), environ={}) == RunConfig(canon_d_cap=11, solver_r_cap=7)
    worse = tmp_path / "worse.cfg"
    worse.write_text("canon_d_cap = ten\n", encoding="utf-8")
    assert main(["--config", str(worse), "bell", "3"]) == 2
    assert main(["--config", str(tmp_path / "absent.cfg"), "bell", "3"]) == 2
    zero_cap = tmp_path / "zero_cap.cfg"
    zero_cap.write_text("solver_r_cap = 0\n", encoding="utf-8")
    assert main(["--config", str(zero_cap), "bell", "3"]) == 2
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("seed 4\n", encoding="utf-8")
    assert main(["--config", str(no_equals), "bell", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "line",
    ["seed = -3", "comass_tol = 0.5", "comass_restarts = 3", "output = out.json",
     "format = csv"],
)
@pytest.mark.parametrize("route", ["--config", "SPECIALFORMS_CONFIG"])
def test_per_run_keys_are_unknown_settings(line, route, tmp_path, capsys, monkeypatch,
                                           form_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = ["graph", form_file]
    if route == "--config":
        argv = ["--config", str(cfg), *argv]
    else:
        monkeypatch.setenv(route, str(cfg))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    key = line.split(" =")[0]
    assert out == "" and f"unknown setting {key!r}" in err


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.canon_d_cap == DEFAULT_CANON_DIMENSION_CAP
    assert cfg.solver_r_cap == DEFAULT_SOLVER_VERTEX_CAP
    args = _build_parser().parse_args(["calibrate", "form.json"])
    assert (args.seed, args.tol, args.restarts) == (0, DEFAULT_TOL, DEFAULT_RESTARTS)
    assert args.output is None
    for argv in (["graph", "form.json"], ["democratic", "matrix", "--circulant", "5"]):
        assert _build_parser().parse_args(argv).format == "json"


def test_config_env_var_and_precedence(tmp_path, capsys, monkeypatch):
    wide = SpecialForm.from_terms(11, 2, [((1, 2), 1)])
    wide_path = write_json(tmp_path / "wide.json", wide.to_dict())
    big = DistanceMatrix.from_rows([[0 if i == j else 2 for j in range(8)] for i in range(8)])
    big_path = write_json(tmp_path / "big.json", big.to_dict())
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("canon_d_cap = 11\n", encoding="utf-8")
    monkeypatch.setenv("SPECIALFORMS_CONFIG", str(env_cfg))
    assert load_config() == RunConfig(canon_d_cap=11)
    assert main(["canon", wide_path]) == 0
    capsys.readouterr()

    # --config overlays the environment file instead of replacing it
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("solver_r_cap = 7\n", encoding="utf-8")
    assert load_config(str(flag_cfg)) == RunConfig(canon_d_cap=11, solver_r_cap=7)
    assert main(["--config", str(flag_cfg), "canon", wide_path]) == 0
    capsys.readouterr()
    assert main(["--config", str(flag_cfg), "realize", big_path, "--p", "4"]) == 3
    assert "exceeds the cap 7" in capsys.readouterr().err

    # and a key set in both comes from --config
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text("canon_d_cap = 10\n", encoding="utf-8")
    assert main(["--config", str(narrow_cfg), "canon", wide_path]) == 3
    capsys.readouterr()


def test_calibrate_deterministic_for_seed(tmp_path, capsys):
    f = SpecialForm.from_terms(3, 2, [((1, 2), 1), ((1, 3), 1)])
    path = write_json(tmp_path / "pair.json", f.to_dict())
    assert main(["--seed", "9", "calibrate", path, "--restarts", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "9", "calibrate", path, "--restarts", "8"]) == 0
    assert capsys.readouterr().out == first


def test_restarts_above_the_cap_exit_3_at_once(tmp_path, capsys):
    path = write_json(tmp_path / "cayley.json", cayley_form().to_dict())
    for argv in (
        ["calibrate", path, "--restarts", str(MAX_RESTARTS + 1)],
        ["calibrate", path, "--restarts", str(10**8)],
    ):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the cap" in err


def _stats_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line.pop("seconds") >= 0.0
    return line


def test_stats_flag(tmp_path, capsys, pentagon_file):
    cayley = cayley_form()
    form_path = write_json(tmp_path / "cayley.json", cayley.to_dict())
    canon, real, cls = SearchStats(), SearchStats(), SearchStats()
    canonicalize(cayley, stats=canon)
    solve(circulant_matrix(2, (1, 2)), 2, stats=real)
    classify_small(5, 2, max_distance=2, stats=cls)
    # some of the 43 starts of this dense 3-form stop short of the gradient
    # tolerance, so the converged count is neither zero nor all
    signs = random.Random(1)
    unsettled = SpecialForm.from_terms(
        7, 3, [(s, signs.choice((1, -1))) for s in itertools.combinations(range(1, 8), 3)]
    )
    unsettled_path = write_json(tmp_path / "unsettled.json", unsettled.to_dict())
    rep = comass(unsettled, restarts=8)
    assert 0 < sum(rep.converged) < len(rep.converged)
    calibrate = {
        **vars(SearchStats()),
        "restarts": 8,
        "converged": sum(rep.converged),
        "iterations": sum(rep.iterations),
    }
    cases = [
        (["canon", form_path], "canon", vars(canon)),
        (["realize", pentagon_file, "--p", "2", "--all-signs"], "realize", vars(real)),
        (["democratic", "classify", "5", "--p", "2", "--max-distance", "2"],
         "democratic classify", vars(cls)),
        (["calibrate", unsettled_path, "--restarts", "8"], "calibrate", calibrate),
        (["graph", form_path], "graph", vars(SearchStats())),
        (["democratic", "matrix", "--circulant", "7"], "democratic matrix",
         vars(SearchStats())),
        (["democratic", "enum", "12"], "democratic enum", vars(SearchStats())),
        (["bell", "6"], "bell", vars(SearchStats())),
    ]
    assert canon.nodes and real.nodes and cls.nodes
    for argv, command, counters in cases:
        assert main(argv) == 0
        plain, err = capsys.readouterr()
        assert err == ""
        lines = []
        for _ in range(2):
            assert main(["--stats", *argv]) == 0
            out, err = capsys.readouterr()
            assert out == plain
            lines.append(_stats_line(err))
        assert lines[0] == lines[1] == {"command": command, **counters}


def test_stats_flag_on_a_refused_run(tmp_path, capsys):
    f = SpecialForm.from_terms(20, 2, [((1, 2), 1)])
    path = write_json(tmp_path / "big.json", f.to_dict())
    assert main(["--stats", "canon", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    first, second = err.splitlines()
    assert first.startswith("error:")
    assert _stats_line(second) == {"command": "canon", **vars(SearchStats())}


_floats = st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0))
_strings = st.text() | st.sampled_from(("", "é→𝄞", '"\\/\b\f\n\r\t\x00\x1f', "\ud800"))
_keys = _strings | st.integers() | _floats | st.booleans() | st.none()
_ints = st.integers(-3, 3) | st.integers()
_int_lists = st.lists(_ints, min_size=1, max_size=4)
# The near misses `_shaped` makes of the two shapes `_dump` writes through json's C encoder
_MISS_KINDS = ("empty", "bool", "float", "none", "str", "key", "int key", "tuple", "nested",
               "mixed")
_BAD_KEYS = ('a"', "a\\", "a\n", "é", 'a,"b', "a,b", "a: [", "x],[y", "}],{", "1a", "", " a")


@st.composite
def _shaped(draw):
    """A list of int lists or of flat dicts with identifier keys, or one near
    miss of it, made in the first item or in a later one."""
    if draw(st.booleans()):
        obj = draw(st.lists(_int_lists, min_size=1, max_size=5))
    else:  # later items use some of the first item's keys, in any order
        names = draw(st.lists(st.sampled_from(("indices", "sign", "f", "_x1", "true")),
                              min_size=1, max_size=3, unique=True))
        keys = st.lists(st.sampled_from(names), min_size=1, unique=True)
        obj = [{k: draw(_ints | _int_lists) for k in ks}
               for ks in [names] + draw(st.lists(keys, max_size=4))]
    miss = draw(st.sampled_from((None, None, None, *_MISS_KINDS)))
    if miss is None:
        return obj
    k = draw(st.integers(0, len(obj) - 1))
    item = obj[k]
    bad = {"bool": True, "float": 1.0, "none": None, "empty": [],
           "str": draw(st.sampled_from((",", "],[", "},{", ": [", ""))),
           "tuple": tuple(draw(_int_lists)), "nested": [draw(_int_lists)]}.get(miss)
    if miss == "mixed" and k == 0:  # an int last
        obj.append(0)
    elif miss == "mixed":  # an item of the other shape
        obj.insert(k, [1] if type(item) is dict else {"a": 1})
    elif type(item) is list:
        if miss in ("key", "int key"):
            obj[k] = {draw(st.sampled_from(_BAD_KEYS)) if miss == "key" else 1: item}
        elif miss in ("empty", "tuple"):
            obj[k] = [] if miss == "empty" else tuple(item)
        else:
            obj[k] = item + [bad]
    elif miss in ("key", "int key"):
        key_kind = _BAD_KEYS if miss == "key" else (1, True, False, None, 1.5)
        item[draw(st.sampled_from(key_kind))] = 1
    elif miss == "empty" and draw(st.booleans()):
        obj[k] = {}
    else:
        item[draw(st.sampled_from(sorted(item)))] = bad
    return obj


_json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _strings
    | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()) | _shaped(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=25,
)

# Near misses of the two shapes, each in the first item, which the checks on
# Python objects refuse, and in a later one, which the text check refuses
_NEAR_MISSES = {
    "empty": [[[1], []], [[], [1]], [{"a": 1}, {}], [{"a": [1]}, {"a": []}], [{"a": []}]],
    "bool": [[[1, 2], [3, True]], [[False]], [{"a": 1}, {"a": True}],
             [{"a": [1, 2]}, {"a": [0, False]}]],
    "float": [[[0], [2.0]], [{"a": -1}, {"a": 1.5}], [{"a": 1}, {"a": [1e100]}], [[math.nan]]],
    "none": [[[1], [None]], [{"a": 1}, {"a": None}], [{"a": None}]],
    "str": [[[1], ["1"]], [{"a": 1}, {"a": ","}], [{"a": [1]}, {"a": ['"a": [']}], [{"a": "b"}]],
    "escaped key": [[{"a": 1}, {'a"': 1}], [{"a": 1}, {"a\\": 1}], [{"é": 1}], [{"a\n": [1]}]],
    'key with ,"': [[{"a": 1}, {'a,"b': 1}], [{'x,"y': [1, 2]}], [{"a,b": [1, 2]}],
                    [{"a": 1}, {"}],{": 1}], [{"a: [": 1}], [{"x],[y": [1]}], [{"a b": 1}]],
    "digit key": [[{"1a": 1}], [{"a": 1}, {"1a": 2}], [{"a": 1}, {"": 1}]],
    "int key": [[{"a": 1}, {1: 2}], [{1: [1]}], [{None: 1}], [{"a": 1}, {1.5: 1}]],
    "third level": [[[1], [[2]]], [[[1]]], [[1, [2]]], [{"a": [1]}, {"a": [[1]]}],
                    [{"a": 1}, {"a": {"b": 1}}], [{"a": [1, {"b": 1}]}], [{"a": {"b": 1}}]],
    "mixed items": [[{"a": 1}, [1]], [[1], {"a": 1}], [[1], 2], [{"a": 1}, 2], [[1], 2, [3]],
                    [{"a": 1}, 2, {"a": 3}]],
}
# A tuple writes a list's text and the key True writes "true", so the text
# check cannot tell them apart and need not
_SAME_TEXT = [[(1, 2), [3]], [[1], (2, 3)], ([1], [2]), [{"a": (1, 2)}], [{"a": 1}, {"a": (1,)}],
              [{True: 1}], [{"true": 1}, {True: 2}]]
_SHAPES = [[[5]], [[0, -1], [-(2**70), 3]], [{"a": 0}], [{"_x1": [-1]}, {"_x1": 2}],
           [{"indices": [1, 2], "sign": -1}, {"sign": 0, "indices": [-3]}]]
_PINNED = [*_SHAPES, *_SAME_TEXT, *itertools.chain(*_NEAR_MISSES.values())]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(obj=_json_like)
def test_dump_equals_json_dumps_indent_2(obj):
    assert _dump(obj) == json.dumps(obj, indent=2) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(obj=_shaped(), depth=st.integers(0, 2))
def test_dump_on_the_two_shapes_and_their_near_misses(obj, depth):
    for _ in range(depth):
        obj = {"x": [obj]}
    assert _dump(obj) == json.dumps(obj, indent=2) + "\n"
    obj = [obj, {"x": obj}]  # one text at two indents in one call
    assert _dump(obj) == json.dumps(obj, indent=2) + "\n"


for _obj in _PINNED:  # each also one level down, where the indent differs
    test_dump_equals_json_dumps_indent_2 = example(obj=_obj)(
        example(obj={"x": [_obj]})(test_dump_equals_json_dumps_indent_2))


def test_the_c_path_takes_the_two_shapes_and_refuses_their_near_misses():
    for obj in _SHAPES:
        assert cli._indented(obj, "\n", {}) == json.dumps(obj, indent=2)
    for obj in itertools.chain(*_NEAR_MISSES.values()):
        assert cli._indented(obj, "\n", {}) is None, obj


@pytest.mark.parametrize(
    "obj", [object(), {"a": [1, b"x"]}, [{(1, 2): 0}], {1, 2}, {"f": 1j},
            [[1], [b"x"]], [{"a": 1}, {"a": 1j}], [{"a": [1]}, {(1,): 2}]]
)
def test_dump_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _dump(obj)


def test_realize_output_is_json_dumps_indent_2(tmp_path, capsys):
    m = DistanceMatrix.from_rows([[0 if i == j else 2 for j in range(6)] for i in range(6)])
    path = write_json(tmp_path / "all_two.json", m.to_dict())
    assert main(["realize", path, "--p", "4", "--all-signs"]) == 0
    out, _ = capsys.readouterr()
    solutions = solve(m, 4)
    expected = {"r": 6, "p": 4, "count": 210, "solutions": [
        {"function": f.to_dict(), "realization": realize(f).to_dict(),
         "forms": [g.to_dict() for g in forms_of(realize(f))]}
        for f in solutions
    ]}
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["canon", "FORM"],
        ["graph", "FORM"],
        ["realize", "ALL_TWO_6", "--p", "4", "--all-signs"],
        ["democratic", "matrix", "--circulant", "7"],
        ["democratic", "matrix", "--circulant", "1023"],  # above the C path's gate
        ["democratic", "matrix", "--product", "3,3"],
        ["democratic", "enum", "720720"],  # 8,727 families
        ["democratic", "count", "720720"],
        ["democratic", "classify", "7", "--p", "3", "--max-distance", "3"],
        ["calibrate", "FORM", "--restarts", "20"],
        ["bell", "50"],
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_every_json_command_writes_json_dumps_indent_2(argv, tmp_path, form_file, capsys):
    all_two = [[0 if i == j else 2 for j in range(6)] for i in range(6)]
    files = {"FORM": form_file,
             "ALL_TWO_6": write_json(tmp_path / "all_two.json", {"r": 6, "entries": all_two})}
    assert main([files.get(a, a) for a in argv]) == 0
    out, _ = capsys.readouterr()
    # floats round-trip through repr, so this compares every byte
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_dump_without_json_s_c_encoder_takes_the_recursive_path(tmp_path, capsys, monkeypatch):
    all_two = [[0 if i == j else 2 for j in range(6)] for i in range(6)]
    path = write_json(tmp_path / "all_two.json", {"r": 6, "entries": all_two})
    assert main(["realize", path, "--p", "4", "--all-signs"]) == 0
    with_c, _ = capsys.readouterr()
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)  # as without _json
    try:
        importlib.reload(cli)
        assert cli._compact is None
        for obj in _PINNED:
            assert cli._dump(obj) == json.dumps(obj, indent=2) + "\n"
        for obj in ([[1], [b"x"]], [{"a": 1}, {"a": 1j}], object()):
            with pytest.raises(TypeError):
                cli._dump(obj)
        assert cli.main(["realize", path, "--p", "4", "--all-signs"]) == 0
        assert capsys.readouterr().out == with_c
    finally:
        monkeypatch.undo()
        importlib.reload(cli)
    assert cli._compact is not None


def test_numpy_loads_only_for_the_commands_that_use_it(tmp_path, form_file, pentagon_file):
    out = tmp_path / "out.json"
    script = f"""
import sys
import specialforms
from specialforms.cli import main
for argv in (["canon", {form_file!r}], ["graph", {form_file!r}],
             ["realize", {pentagon_file!r}, "--p", "2", "--all-signs"]):
    assert main(["-o", {str(out)!r}, *argv]) == 0
print("numpy" in sys.modules)
assert main(["-o", {str(out)!r}, "calibrate", {form_file!r}, "--restarts", "2"]) == 0
print("numpy" in sys.modules)
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_the_module_runs_the_command_line():
    done = _run_python("-m", "specialforms.cli", "bell", "7")
    assert (done.returncode, done.stdout, done.stderr) == (0, "877\n", "")


def test_every_command_line_input_ends_in_exit_0_2_or_3():
    # cli_property.py caps its own address space, so a missing size cap
    # fails the property instead of exhausting memory; it prints the number
    # of examples it ran and their seconds
    done = _run_python(str(Path(__file__).with_name("cli_property.py")))
    assert done.returncode == 0, done.stdout + done.stderr
    examples, _ = done.stdout.split()
    assert int(examples) >= 2000


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's specialforms."""
    src = str(Path(__import__("specialforms").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
