import json
import subprocess
import sys
import time

import numpy as np
import pytest
from qubit_angular import resource_state_fidelity_qubit_angular

from pbt_recycling.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    format_value,
    run,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- formatting ----------------------------------------------------------------

def test_format_value():
    assert format_value(0.6597396084411711) == "0.659739608441"
    assert format_value(1.0) == "1"
    assert format_value(0) == "0"
    assert format_value(2e-5) == "2.00000000000e-05"
    assert format_value(-0.5) == "-0.5"
    assert format_value(123456.789012345) == "123456.789012"


# -- partitions ------------------------------------------------------------------

def test_partitions_command(capsys):
    code, out, _ = invoke(capsys, "partitions", "--n", "4", "--max-height", "2")
    assert code == EXIT_OK
    assert out == "4\n3,1\n2,2\n"


def test_partitions_command_edges(capsys):
    # no box: the empty frame, one empty line
    assert invoke(capsys, "partitions", "--n", "0", "--max-height", "2") == (EXIT_OK, "\n", "")
    # a height far above n is clamped to n before the table is built
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "partitions", "--n", "5", "--max-height", "1000000")
    assert time.perf_counter() - start < 0.1
    assert code == EXIT_OK and out == "5\n4,1\n3,2\n3,1,1\n2,2,1\n2,1,1,1\n1,1,1,1,1\n"


def test_partitions_command_over_the_byte_budget_exits_2(capsys):
    # 190,569,292 frames of 100 boxes: counted and rejected before the table is built
    start = time.perf_counter()
    code, out, err = invoke(capsys, "partitions", "--n", "100", "--max-height", "100")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert "190569292 frames" in err and "budget" in err


# -- frec ---------------------------------------------------------------------------

def test_frec_command(capsys):
    code, out, _ = invoke(capsys, "frec", "--ports", "2", "--dim", "2")
    assert code == EXIT_OK
    assert "F = 0.659739608441" in out
    assert "method=general" in out


def test_frec_single_port(capsys):
    code, out, _ = invoke(capsys, "frec", "--ports", "1", "--dim", "2")
    assert code == EXIT_OK
    assert "F = 0.5 " in out


def test_frec_at_a_dimension_past_the_float_range_of_its_products(capsys):
    # R_i's products of 199 factors overflow float64; the fidelity does not
    code, out, err = invoke(capsys, "frec", "--ports", "2", "--dim", "200", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["value"] == pytest.approx(0.0070710236174154340457, rel=1e-13)


def test_frec_json(capsys):
    code, out, _ = invoke(capsys, "frec", "--ports", "3", "--dim", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["method"] == "general"
    assert payload["value"] == pytest.approx(0.7541269644862625)


def test_frec_optimal_qubit_route(capsys):
    code, out, _ = invoke(capsys, "frec", "--ports", "2", "--dim", "2", "--optimal")
    assert code == EXIT_OK
    assert "F = 0.683012701892" in out
    assert "method=optimal_general" in out


def test_frec_optimal_without_files_any_d(capsys):
    from pbt_recycling.optimal import frec_optimal, v_optimal

    code, out, _ = invoke(capsys, "frec", "--ports", "3", "--dim", "3", "--optimal", "--format", "json")
    assert code == EXIT_OK
    expected = frec_optimal(3, 3, v_optimal(3, 3), v_optimal(2, 3)).value
    assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("command", [["frec"], ["oracle", "verify"]])
def test_vfile_without_vfile_prev_exits_2(capsys, vcoeff_path, command):
    with pytest.raises(SystemExit) as exc:
        run([*command, "--ports", "3", "--dim", "3", "--optimal", "--vfile", str(vcoeff_path(3, 3))])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["frec", "--ports", "3", "--dim", "2", "--vfile-prev", "/nonexistent"],
        ["frec", "--ports", "3", "--dim", "3", "--vfile", "{v3}", "--vfile-prev", "{v2}"],
        ["oracle", "verify", "--ports", "3", "--dim", "3", "--vfile", "{v3}", "--vfile-prev", "{v3}"],
        ["resource-fidelity", "--sweep", "--ports-min", "1", "--ports-max", "3", "--vfile", "{v3}"],
    ],
)
def test_weight_file_the_command_does_not_read_exits_2(capsys, vcoeff_path, argv):
    files = {"v3": vcoeff_path(3, 3), "v2": vcoeff_path(2, 3)}
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**files) for arg in argv])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--vfile" in err and "error:" in err


def test_frec_optimal_with_files(capsys, vcoeff_path, tmp_path):
    f3 = tmp_path / "v3.json"
    f2 = tmp_path / "v2.json"
    f3.write_text(vcoeff_path(3, 3).read_text())
    f2.write_text(vcoeff_path(2, 3).read_text())
    code, out, _ = invoke(
        capsys,
        "frec", "--ports", "3", "--dim", "3", "--optimal",
        "--vfile", str(f3), "--vfile-prev", str(f2),
    )
    assert code == EXIT_OK
    assert "method=optimal_general" in out


def test_frec_bad_vfile_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "N": 3, "d": 3,
        "entries": [
            {"partition": [3], "v": 0.5},
            {"partition": [2, 1], "v": 0.5},
            {"partition": [1, 1, 1], "v": 0.5},
        ],
    }))
    code, _, err = invoke(
        capsys,
        "frec", "--ports", "3", "--dim", "3", "--optimal",
        "--vfile", str(bad), "--vfile-prev", str(bad),
    )
    assert code == EXIT_DATA
    assert "not normalized" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"N": True, "d": 2, "entries": [{"partition": [1], "v": 1.0}]},
        {"N": 1, "d": True, "entries": [{"partition": [1], "v": 1.0}]},
        {"N": 2, "d": 2, "entries": [{"partition": [2], "v": 0.6}, {"partition": [True, True], "v": 0.8}]},
        {"N": 1, "d": 2, "entries": [{"partition": [1], "v": True}]},
    ],
)
def test_resource_fidelity_boolean_vfile_exits_3(capsys, tmp_path, doc):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "resource-fidelity", "--vfile", str(path))
    assert code == EXIT_DATA
    assert err.startswith("error: ")


def _entries(*pairs):
    return [{"partition": p, "v": v} for p, v in pairs]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{nope", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1]", "document must be a JSON object"),
        (json.dumps({"N": 2, "d": 2}), "missing field 'entries'"),
        (json.dumps({"N": 0, "d": 2, "entries": []}), "wrong N or d"),
        (json.dumps({"N": 2, "d": 2, "entries": {}}), "entries must be a list"),
        (json.dumps({"N": 2, "d": 2, "entries": [{"v": 1}]}), "each entry needs 'partition' and 'v'"),
        (json.dumps({"N": 3, "d": 2, "entries": _entries(([1, 2], 1))}),
         "bad partition [1, 2]: partition parts must be weakly decreasing: (1, 2)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2, 0], 1))}),
         "bad partition [2, 0]: partition parts must be positive: (2, 0)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([-1], 1))}),
         "bad partition [-1]: partition parts must be positive: (-1,)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2.5], 1))}),
         "bad partition [2.5]: partition parts must be integers: (2.5,)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([True, True], 1))}),
         "bad partition [True, True]: partition parts must be integers: (True, True)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries((["2"], 1))}),
         "bad partition ['2']: partition parts must be integers: ('2',)"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries((3, 1))}), "bad partition 3: 'int' object is not iterable"),
        (json.dumps({"N": 3, "d": 2, "entries": _entries(([2], 1))}), "partition 2 does not have 3 boxes"),
        (json.dumps({"N": 1, "d": 2, "entries": _entries(([], 1))}), "partition  does not have 1 boxes"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2], 0.6), ([2], 0.8))}), "duplicate partition 2"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([1, 1], "x"))}), "bad coefficient for 1,1"),
        ('{"N": 2, "d": 2, "entries": [{"partition": [2], "v": NaN}]}', "bad coefficient for 2"),
        pytest.param('{"N": 2, "d": 2, "entries": [{"partition": [2], "v": 1' + "0" * 400 + "}]}",
                     "bad coefficient for 2", id="an int beyond the float range"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2], 1.0))}),
         "incomplete support: missing=['1,1'] unexpected=[]"),
        (json.dumps({"N": 3, "d": 2, "entries": _entries(([3], 0.6), ([2, 1], 0.8), ([1, 1, 1], 0.0))}),
         "incomplete support: missing=[] unexpected=['1,1,1']"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2], 0.9), ([1, 1], 0.3))}),
         "not normalized: sum of squares = 0.9"),
        (json.dumps({"N": 2, "d": 2, "entries": _entries(([2], -0.6), ([1, 1], 0.8))}),
         "negative entry in coefficient set"),
    ],
)
def test_coefficient_file_error_messages_in_full(capsys, tmp_path, text, message):
    path = tmp_path / "v.json"
    path.write_text(text)
    assert invoke(capsys, "resource-fidelity", "--vfile", str(path)) == (EXIT_DATA, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["frec", "--ports", "1000000000000", "--dim", "2"],
        ["sweep", "--dim", "3", "--ports-min", "1", "--ports-max", "1000000000000"],
        ["resource-fidelity", "--ports", "1000000000000"],
        ["resource-fidelity", "--vfile"],
    ],
)
def test_a_point_past_the_byte_budget_exits_2_before_allocating(capsys, tmp_path, argv):
    # 10^12 boxes: the frame counts alone would take terabytes, so they are sized and refused first
    if argv[-1] == "--vfile":
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"N": 10**12, "d": 1, "entries": [{"partition": [10**12], "v": 1.0}]}))
        argv = [*argv, str(path)]
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frec", "--ports", "2", "--dim", "2", "--bogus"])
    assert exc.value.code == EXIT_USAGE


# -- sweep ------------------------------------------------------------------------------

def test_sweep_d2(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = invoke(
        capsys,
        "sweep", "--ports-min", "2", "--ports-max", "40", "--dim", "2",
        "--optimal", "--out", str(out_path),
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "N,d,frec,frec_opt,lower_bound_qubit"
    assert len(lines) == 40  # header + 39 rows
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))
    # optimal column present and below the plain value from N=4 on
    for line in lines[3:]:
        cols = line.split(",")
        assert float(cols[3]) < float(cols[2])
    # the reference lower-bound column is populated at d=2
    assert lines[1].split(",")[4] != ""


def test_sweep_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = invoke(
            capsys,
            "sweep", "--ports-min", "2", "--ports-max", "12", "--dim", "2",
            "--optimal", "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_sweep_d4_has_no_optimal_column_values(capsys, tmp_path):
    out_path = tmp_path / "sweep4.csv"
    code, _, _ = invoke(
        capsys,
        "sweep", "--ports-min", "2", "--ports-max", "10", "--dim", "4", "--out", str(out_path),
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[3] == "" and cols[4] == ""


def test_sweep_optimal_any_d(capsys, tmp_path):
    out_path = tmp_path / "sweep3.csv"
    code, _, _ = invoke(
        capsys,
        "sweep", "--ports-min", "2", "--ports-max", "12", "--dim", "3",
        "--optimal", "--out", str(out_path),
    )
    assert code == EXIT_OK
    for line in out_path.read_text().splitlines()[1:]:
        cols = line.split(",")
        assert cols[3] != "" and cols[4] == ""


def test_sweep_optimal_solves_each_weight_set_once(capsys, tmp_path, monkeypatch):
    from pbt_recycling import optimal

    solve = optimal.v_optimal
    expected = [
        format_value(optimal.frec_optimal(n, 3, solve(n, 3), solve(n - 1, 3)).value) for n in range(3, 9)
    ]
    calls = []
    monkeypatch.setattr(optimal, "v_optimal", lambda N, d: calls.append((N, d)) or solve(N, d))
    out_path = tmp_path / "sweep3.csv"
    code, _, _ = invoke(
        capsys,
        "sweep", "--ports-min", "3", "--ports-max", "8", "--dim", "3",
        "--optimal", "--out", str(out_path),
    )
    assert code == EXIT_OK
    assert calls == [(n, 3) for n in range(2, 9)]  # one solve per weight set
    assert [line.split(",")[3] for line in out_path.read_text().splitlines()[1:]] == expected


def test_sweep_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--ports-min", "5", "--ports-max", "2", "--dim", "2"])
    assert exc.value.code == EXIT_USAGE


# -- bound ---------------------------------------------------------------------------------

def test_bound_vacuous(capsys):
    code, out, _ = invoke(
        capsys, "bound", "--ports", "2", "--dim", "2", "--rounds", "10", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    expected = 1 - 20 * (1 - 0.6597396084411711)
    assert payload["lower_bound"] == pytest.approx(expected, abs=1e-9)
    assert payload["lower_bound"] < 0


def test_bound_near_one(capsys):
    code, out, _ = invoke(
        capsys, "bound", "--ports", "100", "--dim", "2", "--rounds", "1", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["lower_bound"] > 0.98


# -- resource fidelity --------------------------------------------------------------------------

def test_resource_fidelity_value(capsys):
    code, out, _ = invoke(capsys, "resource-fidelity", "--ports", "6")
    assert code == EXIT_OK
    assert "F = 0.997746043771" in out


@pytest.mark.parametrize("method", ["schur", "angular"])
def test_resource_fidelity_method_flag_exits_2(method):
    # the total-spin cross-check lives in the tests; the CLI has one evaluation path
    with pytest.raises(SystemExit) as exc:
        run(["resource-fidelity", "--ports", "6", "--method", method])
    assert exc.value.code == EXIT_USAGE


def test_resource_fidelity_sweep(capsys, tmp_path):
    out_path = tmp_path / "res.csv"
    code, _, _ = invoke(
        capsys,
        "resource-fidelity", "--sweep", "--ports-min", "1", "--ports-max", "20",
        "--out", str(out_path),
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "N,d,resource_fidelity"
    assert len(lines) == 21
    row6 = lines[6].split(",")
    assert row6[0] == "6" and float(row6[2]) == pytest.approx(0.9977, abs=5e-4)


@pytest.mark.parametrize("N", [200, 1000])
def test_resource_fidelity_angular_large_n(capsys, N):
    code, out, _ = invoke(capsys, "resource-fidelity", "--ports", str(N), "--format", "json")
    assert code == EXIT_OK
    value = json.loads(out)["value"]
    assert value == pytest.approx(resource_state_fidelity_qubit_angular(N), abs=1e-12)


@pytest.mark.parametrize("low,high", [("0", "5"), ("5", "2")])
def test_resource_fidelity_sweep_bad_range(capsys, low, high):
    with pytest.raises(SystemExit) as exc:
        run(["resource-fidelity", "--sweep", "--ports-min", low, "--ports-max", high])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--sweep", "--ports", "4", "--ports-min", "1", "--ports-max", "2"], "not --ports"),
        (["--sweep", "--ports-min", "1", "--ports-max", "2", "--format", "json"], "--format"),
        (["--ports", "3", "--ports-min", "1", "--ports-max", "2"], "only with --sweep"),
        (["--ports", "3", "--out", "{out}"], "--out is read only with --sweep"),
    ],
)
def test_resource_fidelity_option_its_mode_does_not_read_exits_2(capsys, tmp_path, argv, message):
    out = tmp_path / "res.csv"
    with pytest.raises(SystemExit) as exc:
        run(["resource-fidelity", *(arg.format(out=out) for arg in argv)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_resource_fidelity_vfile(capsys, vcoeff_path, tmp_path):
    f = tmp_path / "v.json"
    f.write_text(vcoeff_path(3, 3).read_text())
    code, out, _ = invoke(capsys, "resource-fidelity", "--vfile", str(f), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["dim"] == 3


def test_resource_fidelity_vfile_for_other_ports_exits_3(capsys, vcoeff_path):
    code, out, err = invoke(capsys, "resource-fidelity", "--vfile", str(vcoeff_path(3, 3)), "--ports", "4")
    assert code == EXIT_DATA
    assert out == ""
    assert err == "error: coefficient file is for N=3, requested N=4\n"


def test_commands_in_one_process_share_no_options(capsys, vcoeff_path, tmp_path):
    # the parser is built once per process: options of one command must not reach the next
    f = tmp_path / "v.json"
    f.write_text(vcoeff_path(3, 3).read_text())
    reports = []
    for argv in (
        ("frec", "--optimal", "--ports", "5", "--dim", "2"),
        ("frec", "--ports", "5", "--dim", "2"),
        ("resource-fidelity", "--vfile", str(f)),
        ("resource-fidelity", "--ports", "4"),
    ):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        reports.append(json.loads(out))
    assert reports[0]["method"] == "optimal_general"
    assert reports[1]["method"] == "general"
    assert (reports[2]["ports"], reports[2]["dim"]) == (3, 3)
    assert (reports[3]["ports"], reports[3]["dim"]) == (4, 2)
    assert reports[3]["value"] == pytest.approx(resource_state_fidelity_qubit_angular(4), abs=1e-12)


# -- oracle verify -------------------------------------------------------------------------------

@pytest.mark.parametrize("N,d", [(3, 2), (2, 3)])
def test_oracle_verify_passes(capsys, N, d):
    code, out, _ = invoke(
        capsys, "oracle", "verify", "--ports", str(N), "--dim", str(d), "--tol", "1e-9"
    )
    assert code == EXIT_OK
    assert "overall: PASS" in out


def test_oracle_verify_optimal_note(capsys):
    code, out, _ = invoke(
        capsys, "oracle", "verify", "--ports", "2", "--dim", "2", "--optimal"
    )
    assert code == EXIT_OK
    assert "frec_optimal_formula_vs_oracle" in out


def test_oracle_verify_optimal_without_files(capsys):
    code, out, _ = invoke(capsys, "oracle", "verify", "--optimal", "--ports", "3", "--dim", "3")
    assert code == EXIT_OK
    assert "PASS  frec_optimal_formula_vs_oracle" in out


def test_oracle_verify_optimal_one_port_is_a_usage_error(capsys):
    # as frec --optimal: the optimal protocol needs N - 1 >= 1 ports
    for command in (("oracle", "verify"), ("frec",)):
        code, out, err = invoke(capsys, *command, "--optimal", "--ports", "1", "--dim", "2")
        assert code == EXIT_USAGE
        assert "N must be at least 2" in err
        assert out == ""


def test_oracle_verify_eigensolves_each_matrix_once(capsys, monkeypatch):
    from dense_reference import rho_operator

    from pbt_recycling import oracle

    solved = []
    eigh = oracle._eigh

    def spy(m):
        solved.append((m.shape, m.tobytes()))
        return eigh(m)

    monkeypatch.setattr(oracle, "_eigh", spy)
    for N, d in [(3, 3), (4, 2), (2, 4)]:
        solved.clear()
        oracle._point.cache_clear()
        argv = ("oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d))
        assert invoke(capsys, *argv)[0] == EXIT_OK
        # rho's torus-weight blocks, one stack per block size that is not all
        # zero, port N's Gram matrix, one stack per block size and column count,
        # r = d^(N-1) rows in all, then the Young bases for N and N - 1 ports,
        # one stack per block size of their port packings, d^N and d^(N-1) rows
        point = oracle._point(N, d)
        blocks = point.packing.blocks
        assert sum(b.size for b in blocks) == d ** (N + 1)
        assert len(set(solved)) == len(solved)
        rho = rho_operator(N, d)
        for b in blocks:
            stack = rho[b[:, :, None], b[:, None, :]]
            if np.any(stack):
                solved.remove((stack.shape, stack.tobytes()))
        assert all(len(shape) == 3 for shape, _ in solved)
        for n, basis in ((N - 1, point.prev_young), (N, point.young)):
            young = [(*b.shape, b.shape[1]) for b in basis.packing.blocks]
            assert [shape for shape, _ in solved[-len(young):]] == young
            assert sum(k * s for k, s, _ in young) == d**n
            del solved[-len(young):]
        assert sum(shape[0] * shape[1] for shape, _ in solved) == d ** (N - 1)

    # a second op at the last point reuses the bundle and both Young bases
    solved.clear()
    assert invoke(capsys, *argv)[0] == EXIT_OK
    assert solved == []


def test_oracle_verify_repeat_op_pays_only_for_its_rotation(capsys, monkeypatch, tmp_path):
    # a second op at a point, with new weights, reuses the measurement checks of the first
    from dense_reference import rho_operator

    from pbt_recycling import oracle
    from pbt_recycling.optimal import VCoefficients, save_v_coefficients
    from pbt_recycling.partitions import partitions_bounded

    calls = []
    for name in ("_eigh", "_swap_gather"):
        real = getattr(oracle, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, spy)
    N, d = 3, 3
    rng = np.random.default_rng(5)
    oracle._point.cache_clear()
    for op in range(2):
        files = []
        for n in (N, N - 1):
            w = rng.uniform(0.1, 1.0, len(partitions_bounded(n, d)))
            files.append(tmp_path / f"v{op}_{n}.json")
            save_v_coefficients(VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w)), files[-1])
        calls.clear()
        argv = ("oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d))
        assert invoke(capsys, *argv, "--vfile", str(files[0]), "--vfile-prev", str(files[1]))[0] == EXIT_OK
        if op == 0:
            # one eigensolve per block size of rho where it is not all zero, two of
            # the Gram matrix (its blocks of the frames (2) and (1, 1) of N - 1
            # boxes) and one per block size of the Young bases' port packings,
            # of sizes 1, 3 and 6 for 3 ports and 1 and 2 for 2 ports
            rho = rho_operator(N, d)
            live = sum(bool(np.any(rho[b[:, :, None], b[:, None, :]])) for b in oracle._point(N, d).packing.blocks)
            assert live == 2
            assert calls.count("_eigh") == live + 2 + 3 + 2
            assert calls.count("_swap_gather") == N - 1
    assert calls == []


@pytest.mark.parametrize("N,d", [(3, 3), (2, 4)])
def test_oracle_verify_repeat_op_reads_only_its_weights(capsys, monkeypatch, spy_on_block_factor, tmp_path, N, d):
    # a second op with the same files at a point enumerates no frame, takes no
    # gather over the packed entries (partial traces, swaps) or signal gather again,
    # and makes no pass of the block's c or S/sqrt(p), and prints the same bytes;
    # the first op's frec and frec_optimal read one held block, so each factor is computed once
    from pbt_recycling import optimal, oracle, partitions

    calls = []
    for module, name in ((partitions, "_frame_tables"), (oracle._Packing, "over_entries"), (oracle, "_summed_rows")):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for name in ("c", "s_over_sqrt_p"):
        spy_on_block_factor(name, lambda block, _name=name: calls.append(_name))
    for memo in (partitions.frame_count, partitions._point_block, oracle._point):
        memo.cache_clear()
    rng = np.random.default_rng(N * 10 + d)
    files = []
    for n in (N, N - 1):
        w = rng.uniform(0.1, 1.0, partitions.frame_count(n, d))
        files.append(str(tmp_path / f"v_{n}.json"))
        optimal.save_v_coefficients(optimal.VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w)), files[-1])
    argv = ("oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d),
            "--vfile", files[0], "--vfile-prev", files[1], "--format", "json")
    calls.clear()
    first = invoke(capsys, *argv)
    assert first[0] == EXIT_OK
    assert set(calls) == {"_frame_tables", "over_entries", "_summed_rows", "c", "s_over_sqrt_p"}
    assert calls.count("c") == calls.count("s_over_sqrt_p") == 1
    calls.clear()
    assert invoke(capsys, *argv) == first
    assert calls == []


def test_oracle_verify_builds_each_rotation_once(capsys, monkeypatch):
    # one op builds O_N and O_(N-1) once each and counts its arrays once; the plain
    # fidelity's closed form and oracle are a check kept on the measurement record
    from pbt_recycling import oracle, recycling

    calls = []
    for module, name, tag in ((oracle, "_rotation", "rotation"), (oracle, "_srm_blocks", "census"),
                              (recycling, "frec", "frec"), (oracle, "frec", "frec"),
                              (oracle, "frec_oracle", "frec_oracle")):
        real = getattr(module, name)

        def spy(N, d, *args, _real=real, _tag=tag, **kwargs):
            calls.append((_tag, N, d))
            return _real(N, d, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    N, d = 3, 3
    oracle._point.cache_clear()
    argv = ("oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d))
    first = invoke(capsys, *argv)
    assert first[0] == EXIT_OK
    assert calls == [("census", N, d), ("frec", N, d), ("rotation", N, d), ("rotation", N - 1, d)]
    calls.clear()
    assert invoke(capsys, *argv) == first
    assert calls == [("census", N, d), ("rotation", N, d), ("rotation", N - 1, d)]


@pytest.mark.parametrize("N,d", [(2, 2), (3, 3)])
def test_verify_suite_holds_the_checks_of_oracle_verify_optimal(capsys, N, d):
    from pbt_recycling.oracle import verify_suite
    from pbt_recycling.optimal import v_optimal

    code, out, _ = invoke(capsys, "oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d),
                          "--format", "json")
    assert code == EXIT_OK
    names = [c["name"] for c in json.loads(out)["checks"]]
    report = verify_suite(N, d, v=v_optimal(N, d), v_prev=v_optimal(N - 1, d))
    assert [c.name for c in report.checks] == names
    assert names[-2:] == ["frec_formula_vs_oracle", "frec_optimal_formula_vs_oracle"]
    assert [c.name for c in verify_suite(N, d, v=v_optimal(N, d)).checks] == names[:-1]


@pytest.mark.parametrize("N,d", [(3, 4), (4, 3), (2, 6)])
def test_oracle_verify_repeat_op_allocates_less_than_one_dense_array(capsys, tmp_path, N, d):
    # a repeat op with new weights works on port space: no d^(N+1) x d^(N+1) scratch
    import tracemalloc

    from pbt_recycling import oracle
    from pbt_recycling.optimal import VCoefficients, save_v_coefficients
    from pbt_recycling.partitions import frame_count

    rng = np.random.default_rng(N * 10 + d)
    argvs = []
    for op in range(2):
        files = []
        for n in (N, N - 1):
            w = rng.uniform(0.1, 1.0, frame_count(n, d))
            files.append(str(tmp_path / f"v{op}_{n}.json"))
            save_v_coefficients(VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w)), files[-1])
        argvs.append(("oracle", "verify", "--optimal", "--ports", str(N), "--dim", str(d),
                      "--vfile", files[0], "--vfile-prev", files[1]))
    oracle._point.cache_clear()
    assert invoke(capsys, *argvs[0])[0] == EXIT_OK
    tracemalloc.start()
    try:
        code = run(list(argvs[1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak < d ** (2 * N + 2) * 8


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1e-9"])
def test_oracle_verify_tol_not_finite_or_negative_exits_2(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "verify", "--ports", "2", "--dim", "2", f"--tol={tol}"])
    assert exc.value.code == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


def test_oracle_verify_zero_tol_is_valid(capsys):
    code, out, _ = invoke(capsys, "oracle", "verify", "--ports", "2", "--dim", "2", "--tol", "0")
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED)
    assert "(tol=0)" in out


def test_oracle_verify_json(capsys):
    code, out, _ = invoke(
        capsys, "oracle", "verify", "--ports", "2", "--dim", "2", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True


def test_oracle_verify_cap_exceeded(capsys):
    code, _, err = invoke(capsys, "oracle", "verify", "--ports", "20", "--dim", "2")
    assert code == EXIT_USAGE
    assert "exceeds cap" in err


def test_oracle_verify_over_budget_exits_fast(capsys):
    # 2^14 x 2^14 arrays of 2 GiB each: rejected before any is allocated
    start = time.perf_counter()
    code, _, err = invoke(capsys, "oracle", "verify", "--ports", "13", "--dim", "2")
    assert code == EXIT_USAGE
    assert "budget" in err
    assert time.perf_counter() - start < 1.0


def test_oracle_verify_strict_tol_fails(capsys):
    # an absurd tolerance makes the float-level residuals count as failures
    code, out, _ = invoke(
        capsys, "oracle", "verify", "--ports", "2", "--dim", "2", "--tol", "1e-20"
    )
    assert code == EXIT_VERIFY_FAILED
    assert "overall: FAIL" in out


# -- vcoeffs ----------------------------------------------------------------------------------

def test_vcoeffs_roundtrip(capsys, tmp_path):
    from pbt_recycling.optimal import load_v_coefficients, v_optimal

    path = tmp_path / "v6.json"
    code, _, _ = invoke(capsys, "vcoeffs", "--ports", "6", "--out", str(path))
    assert code == EXIT_OK
    assert load_v_coefficients(path) == v_optimal(6, 2)


def test_vcoeffs_stdout(capsys):
    code, out, _ = invoke(capsys, "vcoeffs", "--ports", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["N"] == 4 and doc["d"] == 2
    assert len(doc["entries"]) == 3


# -- console entry point ------------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pbt_recycling", "frec", "--ports", "2", "--dim", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "0.659739608441" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy serves only the sparse Perron solve of optimal weights above d = 2
    code = "import sys, pbt_recycling.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_and_cli_imports_load_no_oracle():
    # the closed forms never read the oracle: it loads with the first oracle name or `oracle verify`
    code = (
        "import sys\n"
        "import pbt_recycling\n"
        "print('pbt_recycling.oracle' in sys.modules)\n"
        "import pbt_recycling.cli\n"
        "print('pbt_recycling.oracle' in sys.modules)\n"
        "pbt_recycling.frec_oracle\n"
        "print('pbt_recycling.oracle' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_every_public_name_resolves():
    import pbt_recycling
    from pbt_recycling import oracle, reports

    for name in pbt_recycling.__all__:
        assert getattr(pbt_recycling, name) is not None
    assert set(pbt_recycling.__all__) <= set(dir(pbt_recycling))
    assert pbt_recycling.verify_suite is oracle.verify_suite
    # one class, caught by the CLI without the oracle and raised by it
    assert pbt_recycling.DimensionCapError is oracle.DimensionCapError is reports.DimensionCapError
    for moved in ("young_projector", "rho_operator"):  # dense constructors only tests read
        with pytest.raises(AttributeError, match=f"no attribute '{moved}'"):
            getattr(pbt_recycling, moved)


#: First line of the usage each parser prints at 80 columns.
TOP_USAGE = (
    "usage: pbt-recycling [-h]\n"
    "                     {frec,sweep,bound,resource-fidelity,oracle,partitions,vcoeffs}\n"
    "                     ...\n"
)
USAGE_LINES = {
    (): "usage: pbt-recycling [-h]",
    ("frec",): "usage: pbt-recycling frec [-h] --ports PORTS --dim DIM [--optimal]",
    ("sweep",): "usage: pbt-recycling sweep [-h] --ports-min PORTS_MIN --ports-max PORTS_MAX",
    ("bound",): "usage: pbt-recycling bound [-h] --ports PORTS --dim DIM --rounds ROUNDS",
    ("resource-fidelity",): "usage: pbt-recycling resource-fidelity [-h] [--ports PORTS] [--vfile VFILE]",
    ("oracle",): "usage: pbt-recycling oracle [-h] {verify} ...",
    ("oracle", "verify"): "usage: pbt-recycling oracle verify [-h] --ports PORTS --dim DIM [--tol TOL]",
    ("partitions",): "usage: pbt-recycling partitions [-h] --n N --max-height MAX_HEIGHT",
    ("vcoeffs",): "usage: pbt-recycling vcoeffs [-h] --ports PORTS [--out OUT]",
}


@pytest.mark.parametrize("words", list(USAGE_LINES))
def test_help_of_every_parser(capsys, monkeypatch, words):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([*words, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == USAGE_LINES[words]
    if not words:
        assert out.startswith(TOP_USAGE)
        assert "    oracle              dense-matrix oracle\n" in out


@pytest.mark.parametrize("argv,err", [
    ([], TOP_USAGE + "pbt-recycling: error: the following arguments are required: command\n"),
    (["bogus"], TOP_USAGE + "pbt-recycling: error: argument command: invalid choice: 'bogus' (choose from "
     "'frec', 'sweep', 'bound', 'resource-fidelity', 'oracle', 'partitions', 'vcoeffs')\n"),
    (["oracle"], "usage: pbt-recycling oracle [-h] {verify} ...\n"
     "pbt-recycling oracle: error: the following arguments are required: oracle_command\n"),
    (["frec", "--ports", "3", "--dim", "2", "--extra"],
     TOP_USAGE + "pbt-recycling: error: unrecognized arguments: --extra\n"),
    (["oracle", "verify", "--ports", "2", "--dim", "2", "--bogus", "x"],
     TOP_USAGE + "pbt-recycling: error: unrecognized arguments: --bogus x\n"),
    # a leading unknown flag: the whole line goes through the top level, which reaches the command's parser
    (["--foo", "frec", "--ports", "3", "--dim", "2"],
     TOP_USAGE + "pbt-recycling: error: unrecognized arguments: --foo\n"),
    (["-x", "bound"], "usage: pbt-recycling bound [-h] --ports PORTS --dim DIM --rounds ROUNDS\n"
     "                           [--format {text,json}]\n"
     "pbt-recycling bound: error: the following arguments are required: --ports, --dim, --rounds\n"),
    # a usage error found by the command's handler, not its parser
    (["sweep", "--ports-min", "3", "--ports-max", "1", "--dim", "2"],
     TOP_USAGE + "pbt-recycling: error: need 1 <= --ports-min <= --ports-max\n"),
])
def test_usage_errors_exit_2_with_the_usage_of_their_parser(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr() == ("", err)


def test_an_op_builds_only_its_command_parser(capsys):
    from pbt_recycling import cli

    cli._parser.cache_clear()
    assert invoke(capsys, "frec", "--ports", "3", "--dim", "2")[0] == EXIT_OK
    assert invoke(capsys, "frec", "--ports", "4", "--dim", "2")[0] == EXIT_OK
    assert invoke(capsys, "oracle", "verify", "--ports", "2", "--dim", "2")[0] == EXIT_OK
    assert cli._parser.cache_info().currsize == 2  # frec's and oracle verify's; no top level
    with pytest.raises(SystemExit):
        run(["frec", "--ports", "3", "--dim", "2", "--extra"])
    assert cli._parser.cache_info().currsize == 3


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["frec", "--ports", "3", "--dim", "2"]
    proc = subprocess.run([sys.executable, "-m", "pbt_recycling", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == invoke(capsys, *argv)[1]
