import json
import os
from fractions import Fraction as F

import pytest

from homsum.cli import build_parser, run
from homsum.kernels import build_kernel, kernel_to_json


@pytest.fixture
def half_kernel_path(tmp_path):
    k = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])
    p = tmp_path / "half.json"
    p.write_text(kernel_to_json(k))
    return str(p)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(argv + ["--output", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_moment_subcommand_golden(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "gaussian",
         "--order", "4", "--mode", "exact"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["value"] == "9/1"
    assert payload["config"]["cap"] == 14 and payload["config"]["mode"] == "exact"


def test_moment_with_oracle(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "rademacher",
         "--order", "4", "--with-oracle"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["value"] == payload["result"]["oracle"] == "1/1"
    assert payload["result"]["oracle_agrees"] is True


def test_discriminant_golden(tmp_path):
    for method, tol in [("quadrature", 1e-2), ("expansion", 0), ("lu_gaussian", 0)]:
        code, payload = run_json(
            ["discriminant", "--law", "gaussian", "--N", "3", "--k", "2",
             "--method", method],
            tmp_path,
        )
        assert code == 0
        v = payload["result"]["value"]
        got = F(v) if isinstance(v, str) else v
        assert abs(float(got) - 4320) <= tol


def test_partitions_listing(tmp_path):
    code, payload = run_json(
        ["partitions", "--n", "4", "--pairings", "--noncrossing"], tmp_path
    )
    assert code == 0
    got = {r["partition"] for r in payload["result"]["rows"]}
    assert got == {"1,2|3,4", "1,4|2,3"}
    assert payload["result"]["count"] == 2


def test_partitions_moebius(tmp_path):
    code, payload = run_json(["partitions", "--n", "3", "--moebius"], tmp_path)
    assert code == 0
    by_str = {r["partition"]: r["moebius_to_top"] for r in payload["result"]["rows"]}
    assert by_str["1|2|3"] == "2/1"
    assert by_str["1,2,3"] == "1/1"


def test_kernel_validate(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["kernel-validate", "--kernel", half_kernel_path, "--flavor", "classical"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["result"]["variance"] == "1/1"


def test_contract_and_influence(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["contract", "--kernel", half_kernel_path, "--order", "1"], tmp_path
    )
    assert code == 0 and payload["result"]["degree"] == 2
    code, payload = run_json(["influence", "--kernel", half_kernel_path], tmp_path)
    assert code == 0
    assert payload["result"]["influences"] == ["1/2", "1/2"]


def test_fourth_moment_and_fmt(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["fourth-moment", "--kernel", half_kernel_path, "--law", "rademacher"], tmp_path
    )
    assert code == 0
    assert payload["result"]["class_counts"] == [48, 8]
    code, payload = run_json(
        ["fmt-check", "--kernel", half_kernel_path, "--law", "gaussian"], tmp_path
    )
    assert code == 0
    assert payload["result"]["fourth_cumulant"] == "6/1"


def test_noncentral_check(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["noncentral-check", "--kernel", half_kernel_path, "--law", "gaussian",
         "--target", "gamma", "--param", "1/2"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["statistic"] == "9/1"


def test_joint_moment(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["joint-moment", "--kernel", half_kernel_path, "--kernel", half_kernel_path,
         "--word", "0,1", "--law", "gaussian"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["value"] == "1/1"


def test_stein_bound(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["stein-bound", "--kernel", half_kernel_path, "--law", "gaussian",
         "--abs-third-moment", "1.5957691216"],
        tmp_path,
    )
    assert code == 0 and payload["result"]["bound"] > 0


def test_gops_recurrence_quadrature(tmp_path):
    code, payload = run_json(
        ["gops", "--law", "gaussian", "--n", "2", "--m", "1", "--with-expectation-route"],
        tmp_path,
    )
    assert code == 0
    assert payload["result"]["determinant_route"] == ["-1/1", "0/1", "1/1"]
    assert payload["result"]["route_ratio"] == "2/1"
    code, payload = run_json(["recurrence", "--law", "gaussian", "--n", "4"], tmp_path)
    assert code == 0
    assert payload["result"]["betas"] == ["0/1", "1/1", "2/1", "3/1"]
    code, payload = run_json(["quadrature", "--law", "gaussian", "--n", "5"], tmp_path)
    assert code == 0
    ws = sorted(r["weight_re"] for r in payload["result"]["rows"])
    assert abs(ws[-1] - 0.5333333333) < 1e-8


def test_quadrature_csv_row_count(tmp_path):
    out = tmp_path / "rule.csv"
    code = run(["quadrature", "--law", "gaussian", "--n", "5",
                "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "node_re,node_im,weight_re,weight_im"
    assert len(lines) == 1 + 5  # header + exactly n rows


def test_sylvester_subcommand(tmp_path):
    code, payload = run_json(
        ["sylvester", "--law", "gaussian", "--n", "2", "--k", "2"], tmp_path
    )
    assert code == 0
    assert abs(payload["result"]["weight_sum_re"] - 12) < 1e-5
    assert payload["result"]["consistent"] is True
    code, payload = run_json(
        ["sylvester", "--law", "gaussian", "--n", "2", "--sylvester-mode", "appel"],
        tmp_path,
    )
    assert code == 0
    ws = sorted(r["weight_re"] for r in payload["result"]["rows"])
    assert all(abs(w - 0.5) < 1e-9 for w in ws)


def test_simulation_subcommands(tmp_path):
    code, payload = run_json(
        ["simulate-invariance", "--sizes", "4,8", "--trials", "2000", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    assert [r["n"] for r in payload["result"]["rows"]] == [4, 8]
    code, payload = run_json(
        ["simulate-levy", "--orders", "3", "--paths", "3000", "--seed", "6",
         "--jumps", "rademacher"],
        tmp_path,
    )
    assert code == 0 and payload["result"]["within_5se"] is True
    code, payload = run_json(
        ["kstat", "--measure", "gaussian", "--order", "2", "--paths", "500",
         "--refinement", "50", "--seed", "7"],
        tmp_path,
    )
    assert code == 0 and payload["result"]["within_5se"] is True


def test_exit_codes(tmp_path, half_kernel_path, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 64
    code, payload = run_json(
        ["moment", "--kernel", "/does/not/exist.json", "--law", "gaussian", "--order", "2"],
        tmp_path,
    )
    assert code == 2 and payload["result"]["error"]["code"] == "kernel-file"
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "wat", "--order", "2"],
        tmp_path,
    )
    assert code == 2 and payload["result"]["error"]["code"] == "law"
    # precondition failure from the library surfaces as exit 2
    code, payload = run_json(
        ["noncentral-check", "--kernel", half_kernel_path, "--law", "semicircle",
         "--target", "gamma", "--param", "1"],
        tmp_path,
    )
    assert code == 2


def test_out_of_range_seed_exits_2(tmp_path):
    code, payload = run_json(
        ["simulate-invariance", "--sizes", "4", "--trials", "10", "--seed", "-1"], tmp_path
    )
    assert code == 2 and "error" in payload["result"]


def test_cap_env_override(tmp_path, half_kernel_path, monkeypatch):
    monkeypatch.setenv("HOMSUM_CAP", "6")
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "gaussian", "--order", "4"],
        tmp_path,
    )
    assert code == 2  # 8 positions exceed the overridden cap
    assert payload["config"]["cap"] == 6
    monkeypatch.delenv("HOMSUM_CAP")
    code, _ = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "gaussian", "--order", "4",
         "--cap", "8"],
        tmp_path,
    )
    assert code == 0


def test_text_format_alignment(tmp_path):
    out = tmp_path / "table.txt"
    code = run(["partitions", "--n", "4", "--pairings", "--format", "text",
                "--output", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0]
    start = header.index("blocks")
    # golden alignment: every row has its second column at the same offset
    for row in lines[1:-1]:
        assert row[start - 2: start] == "  "


def test_help_lists_flags():
    parser = build_parser()
    sub = None
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            sub = action.choices
    assert sub is not None
    expected = {
        "partitions": ["--n", "--pairings", "--noncrossing", "--respects"],
        "moment": ["--kernel", "--law", "--order", "--with-oracle"],
        "quadrature": ["--n", "--law"],
        "discriminant": ["--N", "--k", "--method"],
        "sylvester": ["--sylvester-mode"],
        "simulate-invariance": ["--family", "--sizes", "--trials"],
        "simulate-levy": ["--rate", "--orders", "--paths"],
        "kstat": ["--measure", "--refinement"],
        "stein-bound": ["--abs-third-moment", "--rosenthal"],
    }
    for name, flags in expected.items():
        text = sub[name].format_help()
        for flag in flags + ["--mode", "--seed", "--format", "--output", "--cap"]:
            assert flag in text, (name, flag)
        assert "default" in text  # defaults are documented
