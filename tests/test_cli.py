import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentess.cli import main


def single_t_document():
    return {
        "cells": [["0", "2", "0", "1"], ["0", "1", "1", "2"], ["1", "2", "1", "2"]],
        "sections": {
            "s": {"kind": "two_exponentials", "params": {"l1": 1, "l2": -1}, "n": 4},
            "t": {"kind": "two_exponentials", "params": {"l1": 1, "l2": -1}, "n": 4},
        },
        "smoothness": [1, 1],
    }


@pytest.fixture()
def mesh_file(tmp_path):
    path = tmp_path / "single_t.json"
    path.write_text(json.dumps(single_t_document()))
    return str(path)


def test_mesh_check(mesh_file, capsys):
    assert main(["mesh", "check", mesh_file]) == 0
    out = capsys.readouterr().out
    assert "t-junctions: 1" in out
    assert "regular: True" in out
    assert "cycles: False" in out


def test_mesh_check_reports_cycles(tmp_path, capsys):
    from corpus import CYCLE_CELLS

    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"cells": [list(map(str, c)) for c in CYCLE_CELLS]}))
    assert main(["mesh", "check", str(path)]) == 0
    assert "cycles: True" in capsys.readouterr().out


def test_dim(mesh_file, capsys):
    assert main(["dim", mesh_file]) == 0
    out = capsys.readouterr().out
    assert "dim = 28" in out
    assert "vertex_term: 28" in out


def test_verify_passes(mesh_file, capsys):
    assert main(["verify", mesh_file]) == 0
    out = capsys.readouterr().out
    assert out.count("28") >= 3
    assert "PASS" in out


def test_basis_csv(tmp_path):
    out = tmp_path / "basis.csv"
    code = main(["basis", "--generator",
                 '{"kind": "exp_trig", "params": {"alpha": 0, "beta": 1}}',
                 "--orders", "3", "3", "--interval", "0", "1.5",
                 "--samples", "17", "-o", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 17
    assert set(rows[0]) == {"s", "B_0", "B_1", "B_2"}
    total = sum(float(rows[8][f"B_{i}"]) for i in range(3))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_basis_derivative_dump(tmp_path):
    out = tmp_path / "deriv.csv"
    code = main(["basis", "--generator", '{"kind": "polynomial_degenerate"}',
                 "--orders", "4", "4", "--interval", "0", "1",
                 "--samples", "3", "--deriv", "1", "-o", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    # first function is (1-s)^3, slope -3 at the left end
    assert float(rows[0]["B_0"]) == pytest.approx(-3.0, abs=1e-9)


def test_numerical_failures_exit_2(monkeypatch, mesh_file):
    from gentess import NumericalError
    from gentess import cli as cli_mod

    def boom(cfg):
        raise NumericalError("synthetic")

    monkeypatch.setitem(cli_mod._DISPATCH, "dim", boom)
    assert main(["dim", mesh_file]) == 2


def test_basis_fn_grid(mesh_file, tmp_path):
    out = tmp_path / "fn.csv"
    assert main(["basis-fn", mesh_file, "--xi", "2", "--grid", "5x4",
                 "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 20


def test_interp_json(mesh_file, tmp_path):
    out = tmp_path / "interp.json"
    assert main(["interp", mesh_file, "--f", "cosh_s_sinh_t", "--format", "json",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["dim"] == 28
    assert data["summary"]["sup_error"] < 1e-8
    assert len(data["rows"]) == 3 * 16


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--levels", "3", "--f", "sin2s_plus_t",
                 "-o", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(iter(lines)))
    assert len(rows) == 3
    orders = [float(r["order"]) for r in rows[1:]]
    assert orders[-1] > 3.5
    errors = [float(r["error"]) for r in rows]
    assert errors[0] > errors[1] > errors[2]


def test_validation_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [[0, 1, 0, 1], [2, 3, 0, 1]]}))
    assert main(["dim", str(bad)]) == 1
    assert "error" in capsys.readouterr().err

    assert main(["interp", str(tmp_path / "missing.json"), "--f", "x"]) == 1
    assert main(["convergence", "--levels", "2"]) == 1  # missing --f


def test_unknown_function_lists_known(mesh_file, capsys):
    assert main(["interp", mesh_file, "--f", "nope"]) == 1
    assert "sin2s_plus_t" in capsys.readouterr().err


def test_overrides_take_precedence(mesh_file, capsys):
    assert main(["dim", mesh_file, "--orders", "5", "5",
                 "--smoothness", "1", "1"]) == 0
    assert "dim = 49" in capsys.readouterr().out


def test_tol_flag(mesh_file):
    from gentess import config

    before = config.rel_tol()
    assert main(["--tol", "1e-8", "dim", mesh_file]) == 0
    assert config.rel_tol() == pytest.approx(1e-8)
    config.set_rel_tol(before)


def test_env_tolerance_override():
    import subprocess
    import sys

    import gentess

    src = str(Path(gentess.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import gentess.config as c; print(c.rel_tol())"],
        env={"GENTESS_TOL": "1e-7", "PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        capture_output=True, text=True)
    assert out.stdout.strip() == "1e-07"


def test_deterministic_output(mesh_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["basis-fn", mesh_file, "--xi", "5", "--grid", "6x6",
                     "-o", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("where, value, flags, env_tol", [
    (("sections", "s", "n"), None, [], None),
    (("sections", "s", "n"), "four", [], None),
    (("sections", "s", "n"), [4], [], None),
    (("smoothness", 0), None, [], None),
    (("smoothness", 0), "one", [], None),
    (("cells", 0, 1), float("nan"), [], None),
    (("cells", 0, 1), float("inf"), [], None),
    ((), None, [], "abc"),
    ((), None, ["--tol", "-1"], None),
    ((), None, ["--tol", "0"], None),
    (("cells",), 5, [], None),
    (("cells",), [None], [], None),
    (("sections", "s", "kind"), ["two_exponentials"], [], None),
    (("sections", "s"), {"kind": "power_pair", "params": {"m0": "x", "m1": 1},
                         "n": 4}, [], None),
    (("cells", 0, 1), 1e308, [], None),
    (("cells", 0, 1), "1e400", [], None),
    (("cells", 0, 1), 10 ** 400, [], None),
    (("cells", 0, 1), "1e1000000", [], None),
    (("cells", 0, 1), "1e-1000000", [], None),
    (("cells", 0, 1), "1e10000000", [], None),
], ids=["n-null", "n-string", "n-list", "smoothness-null", "smoothness-string",
        "coordinate-nan", "coordinate-infinity", "env-tol-abc", "tol-negative",
        "tol-zero", "cells-number", "cell-null", "kind-list", "power-exponent-string",
        "coordinate-huge", "coordinate-string-overflow", "coordinate-int-overflow",
        "coordinate-exponent-huge", "coordinate-exponent-tiny",
        "coordinate-exponent-8-digits"])
def test_bad_inputs_exit_1_without_traceback(tmp_path, capsys, monkeypatch,
                                             where, value, flags, env_tol):
    from gentess import config

    doc = single_t_document()
    if where:
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # non-finite floats become NaN/Infinity
    monkeypatch.setattr(config, "_rel_tol", None)
    if env_tol is None:
        monkeypatch.delenv("GENTESS_TOL", raising=False)
    else:
        monkeypatch.setenv("GENTESS_TOL", env_tol)
    assert main(flags + ["dim", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _field_paths(node, prefix=()):
    """The path of every field of a JSON document, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(_field_paths(child, prefix + (key,)))
    return paths


# small integers reach every branch of the order, smoothness and exponent
# checks; large ones only make valid documents slower
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 12),
                     st.floats(), st.just(1e308), st.text(max_size=6))
_FIELD_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                          st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=st.sampled_from(_field_paths(single_t_document())), value=_FIELD_VALUES)
def test_fuzzed_document_exits_cleanly(path, value):
    doc = single_t_document()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    assert main(["dim", json.dumps(doc)]) in (0, 1, 2)
