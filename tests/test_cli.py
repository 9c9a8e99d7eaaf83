import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsum.cli import SUBCOMMANDS, _json_lines, _jsonable, build_parser, render, run
from homsum.kernels import build_kernel, kernel_to_json

ROOT = Path(__file__).resolve().parents[1]
# committed kernels: half.json is X1 X2 (f = 1/2 off the diagonal, n = 2),
# k5.json a signed rational off-diagonal kernel on n = 5
DATA = ROOT / "tests" / "data"
HALF = str(DATA / "half.json")


@pytest.fixture
def half_kernel_path():
    return str(DATA / "half.json")


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
    assert set(payload["result"]) == {"kind", "gaussian_term", "chi4", "class_terms", "class_counts", "total"}
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


def test_lu_gaussian_needs_the_gaussian_law(tmp_path):
    # the closed form is Gaussian: under rademacher it would print 12 for 8
    for law in (["--law", "rademacher"], []):
        code, payload = run_json(["discriminant", *law, "--N", "2", "--k", "2", "--method", "lu_gaussian"], tmp_path)
        assert code == 2 and payload["result"]["error"]["field"] == "method"
    values = []
    for method in ("lu_gaussian", "expansion"):
        code, payload = run_json(["discriminant", "--law", "gaussian", "--law-param", "sigma2=2",
                                  "--N", "2", "--k", "2", "--method", method], tmp_path)
        assert code == 0
        values.append(payload["result"]["value"])
    assert values == ["48/1", "48/1"]


@pytest.mark.parametrize("argv, field", [
    (["sylvester", "--law", "gaussian", "--n", "2", "--sylvester-mode", "appel", "--k", "2"], ""),
    (["kstat", "--measure", "gaussian", "--rate", "9", "--paths", "20", "--refinement", "5"], "rate"),
    (["kstat", "--jumps", "gaussian", "--paths", "20", "--refinement", "5"], "jumps"),
])
def test_flags_a_run_would_ignore_exit_2(argv, field, tmp_path):
    code, payload = run_json(argv, tmp_path)
    assert code == 2 and payload["result"]["error"]["field"] == field


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, field", [
    (["fmt-check", "--kernel", HALF, "--law", "gaussian", "--tol", "1/0"], "tol"),
    (["noncentral-check", "--kernel", HALF, "--law", "gaussian", "--target", "gamma", "--param", "1/0"], "param"),
    (["moment", "--kernel", HALF, "--law", "gaussian", "--law-param", "sigma2=1/0", "--order", "4"], "law-param"),
    (["quadrature", "--law", "gaussian", "--n", "-2"], "n"),
    (["recurrence", "--law", "gaussian", "--n", "-1"], "N"),
    (["sylvester", "--law", "gaussian", "--n", "2", "--k", "0"], "k"),
    (["sylvester", "--law", "gaussian", "--n", "0"], "n"),
    (["quadrature", "--law", "gaussian", "--n", "3", "--tol-float", "nan"], "tol"),
    (["stein-bound", "--kernel", HALF, "--law", "gaussian", "--abs-third-moment", "nan"], "abs_third_moment"),
    (["stein-bound", "--kernel", HALF, "--law", "gaussian", "--abs-third-moment", "inf"], "abs_third_moment"),
    (["stein-bound", "--kernel", HALF, "--law", "gaussian", "--abs-third-moment", "1.6", "--rosenthal", "nan"],
     "rosenthal_c3"),
])
def test_bad_numeric_arguments_exit_2_naming_their_field(argv, field, capsys):
    # a record names its field in "field" (flags the CLI parses) or in its
    # message (arguments a library routine refuses)
    assert run(argv) == 2
    error = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["result"]["error"]
    assert field in (error["field"], *re.findall(r"\w+", error["message"])), error


@pytest.mark.parametrize("argv, field", [
    (["kstat", "--measure", "compound_poisson", "--rate", "nan"], "rate"),
    (["kstat", "--measure", "compound_poisson", "--rate", "-0.5"], "rate"),
    (["simulate-levy", "--horizon", "inf"], "horizon"),
    (["simulate-levy", "--rate", "inf"], "rate"),
    (["simulate-levy", "--sigma2", "nan"], "sigma2"),
])
def test_non_finite_monte_carlo_flags_exit_2_naming_the_flag(argv, field, capsys):
    # checked before any sampler is built, so the record names the flag and
    # not numpy's Poisson parameter
    assert run(argv) == 2
    error = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["result"]["error"]
    assert error["field"] == field and f"--{field}" in error["message"], error


def test_kstat_compound_poisson_defaults(tmp_path, capsys):
    base = ["kstat", "--measure", "compound_poisson", "--order", "3", "--paths", "50", "--refinement", "10"]
    outputs = []
    for extra in ([], ["--rate", "2.0", "--jumps", "rademacher"]):
        assert run(base + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    with pytest.raises(SystemExit):
        run(["kstat", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default 2.0)" in text and "(default rademacher)" in text


def test_kstat_targets_the_finite_refinement_expectation(tmp_path):
    # E[sum_i Phi(A_i)^4] over N = 100 Brownian cells is N 3 (T/N)^2 = 0.03,
    # while the limit cumulant kappa_4 is 0; against 0 this run gives z = 138
    code, payload = run_json(["kstat", "--measure", "gaussian", "--order", "4", "--paths", "2000"], tmp_path)
    rep = payload["result"]
    assert code == 0 and rep["within_5se"] is True
    assert rep["target"] == pytest.approx(0.03, rel=1e-12) and rep["limit"] == 0.0
    # compound Poisson, rate 2, Rademacher jumps: N m_4(cell) = 2 + 3 * 2^2 / N
    code, payload = run_json(
        ["kstat", "--measure", "compound_poisson", "--order", "4", "--paths", "2000", "--seed", "1"], tmp_path
    )
    rep = payload["result"]
    assert code == 0 and rep["within_5se"] is True
    assert rep["target"] == pytest.approx(2.12, rel=1e-12) and rep["limit"] == 2.0


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
    code, payload = run_json(
        ["kstat", "--measure", "compound_poisson", "--order", "3", "--paths", "500",
         "--refinement", "50", "--seed", "7"],
        tmp_path,
    )
    assert code == 0 and payload["result"]["within_5se"] is True


def test_simulate_invariance_with_a_third_moment_law(tmp_path):
    # the fourth-moment identity needs E[X^3] = 0; centered_poisson takes the
    # lattice (the report rounds floats to 12 digits)
    from homsum.kernels import offdiag_kernel
    from homsum.laws import centered_poisson, gaussian
    from homsum.moments import SumSpec, moment_exact

    code, payload = run_json(
        ["simulate-invariance", "--sampler-b", "centered_poisson", "--sizes", "4,8", "--trials", "500", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    for row, n in zip(payload["result"]["rows"], [4, 8]):
        fe = offdiag_kernel(n)
        gap = moment_exact(SumSpec(fe, gaussian(1, 10)), 4) - moment_exact(SumSpec(fe, centered_poisson(1, 10)), 4)
        assert row["moment4_gap_exact"] is True
        assert row["moment4_gap"] == pytest.approx(float(abs(gap) / fe.norm_sq() ** 2), rel=1e-9)


def test_free_fourth_moment_refuses_a_nonsymmetric_kernel(tmp_path):
    cyclic = build_kernel(3, 2, [((1, 2), F(1)), ((2, 3), F(2)), ((3, 1), F(1, 2))])
    path = tmp_path / "cyclic.json"
    path.write_text(kernel_to_json(cyclic))
    code, payload = run_json(["fourth-moment", "--kernel", str(path), "--law", "tetilla"], tmp_path)
    assert code == 2 and "error" in payload["result"]
    code, payload = run_json(["fourth-moment", "--kernel", str(path), "--law", "rademacher"], tmp_path)
    assert code == 0 and payload["result"]["total"] == "777/16"


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


def test_non_integer_cap_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMSUM_CAP", "abc")
    code, payload = run_json(["partitions", "--n", "3"], tmp_path)
    assert code == 2 and payload["result"]["error"]["code"] == "cap"
    # an explicit --cap does not read the variable
    code, _ = run_json(["partitions", "--n", "3", "--cap", "8"], tmp_path)
    assert code == 0


def test_cap_env_is_read_only_by_subcommands_with_the_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMSUM_CAP", "abc")
    code, payload = run_json(["gops", "--law", "gaussian", "--n", "2"], tmp_path)
    assert code == 0 and payload["config"]["cap"] == 14
    monkeypatch.setenv("HOMSUM_CAP", "5")
    code, payload = run_json(
        ["kstat", "--measure", "gaussian", "--order", "2", "--paths", "20", "--refinement", "5"],
        tmp_path,
    )
    assert code == 0 and payload["config"]["cap"] == 14
    code, payload = run_json(["partitions", "--n", "6"], tmp_path)
    assert code == 2 and payload["config"]["cap"] == 5


# sha256 and byte length of the stdout of two `partitions` listings; the
# enumeration order is part of the output, so these pin it
PARTITIONS_GOLDEN = [
    (["partitions", "--n", "6", "--noncrossing", "--moebius", "--format", "csv"],
     "ee18d6e4625a8ce460c8b02e5819da977a905df8dadccb286cef112c234e680d", 2963),
    (["partitions", "--n", "8", "--pairings", "--respects", "1,2|3,4|5,6|7,8", "--format", "json"],
     "850cb67d396b35092c1693e70b15da6d8a2b07ebd3fab34f19415c2e67d067bb", 4834),
]


@pytest.mark.parametrize("argv,digest,size", PARTITIONS_GOLDEN)
def test_partitions_stdout_golden(argv, digest, size, capsys, monkeypatch):
    monkeypatch.delenv("HOMSUM_CAP", raising=False)
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


def test_partition_rows_are_the_text_form_past_nine(tmp_path, monkeypatch):
    from homsum.partitions import PartitionFilter, enumerate_partitions, moebius_to_top

    monkeypatch.delenv("HOMSUM_CAP", raising=False)
    for noncrossing in (False, True):
        argv = ["partitions", "--n", "10", "--pairings", "--moebius"] + (["--noncrossing"] if noncrossing else [])
        code, payload = run_json(argv, tmp_path)
        filt = PartitionFilter(noncrossing=noncrossing, allowed_block_sizes={2})
        want = [
            {"partition": str(p), "blocks": 5,
             "moebius_to_top": "%d/1" % moebius_to_top(p, "noncrossing" if noncrossing else "classical")}
            for p in enumerate_partitions(10, filt)
        ]
        assert code == 0 and payload["result"]["rows"] == want and payload["result"]["count"] == len(want)


# sha256 and byte length of the stdout of the CLI shapes the benchmark runs,
# recorded before numpy left the exact subcommands; run from tests/data, so the
# echoed kernel path is the bare file name.  quadrature and discriminant
# --method quadrature pin the float formatting that still goes through numpy
CLI_GOLDEN = [
    (["moment", "--kernel", "half.json", "--law", "gaussian", "--order", "4"],
     "935d3686eb4abc50706893799b7c571125e741726d3391600681ea696a9b8f0b", 311),
    (["fmt-check", "--kernel", "k5.json", "--law", "semicircle"],
     "40e6e0c57a7811aba6cd510a5f509cf9dd149a38797236d04f19ff496671a98b", 1352),
    (["contract", "--kernel", "k5.json", "--order", "1"],
     "8ae2e1856b7e828499b3a323daa22332d15b7476546a6e15b841e1fccd35b724", 2682),
    (["gops", "--law", "gaussian", "--n", "6"],
     "a7801a0c19514e4d3d34000f6b6e8a1f9c1bf9500f4bfdb12c82218d7a43f1bd", 613),
    (["discriminant", "--law", "gaussian", "--N", "3", "--k", "2", "--method", "quadrature"],
     "7068c8a87b027e1e3caeda039bfd9a25b4f9465880b696a603b8d09fc1836122", 315),
    (["discriminant", "--law", "gaussian", "--N", "3", "--k", "2", "--method", "expansion"],
     "dadf60a69f217f6b414a15ec0129f6bcc9db44804a24ae7c5ca37809016da1c0", 315),
    (["quadrature", "--law", "gaussian", "--n", "4"],
     "fcd5a19c0e60e6f9f1adbe79af995eaf102574da4994488dd5ddaa45d60bce1e", 872),
    # recorded while render still went through json.dumps(..., indent=2)
    (["partitions", "--n", "9", "--noncrossing"],
     "1480b7a880944e505d0508eeaf08c0fa5a29c6968d3ac5e8da1d9f6c1b76df0a", 384314),
    (["partitions", "--n", "6", "--moebius"],
     "9ca115df6a3f57c6a8f5497e3f711df7aa64b1987692762a2fe9238d8864a0ac", 21847),
]


@pytest.mark.parametrize("argv,digest,size", CLI_GOLDEN)
def test_benchmark_cli_shapes_stdout_golden(argv, digest, size, capsys, monkeypatch):
    monkeypatch.delenv("HOMSUM_CAP", raising=False)
    monkeypatch.chdir(DATA)
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("HOMSUM_CAP", None)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=DATA, env=env,
                          capture_output=True, text=True, timeout=120)


# every exact subcommand; numpy is loaded only by quadrature, sylvester,
# discriminant --method quadrature and the three Monte Carlo subcommands
EXACT_ARGVS = [
    ["moment", "--kernel", "half.json", "--law", "gaussian", "--order", "4"],
    ["fmt-check", "--kernel", "k5.json", "--law", "semicircle"],
    ["contract", "--kernel", "k5.json", "--order", "1"],
    ["influence", "--kernel", "k5.json"],
    ["kernel-validate", "--kernel", "k5.json", "--flavor", "free"],
    ["fourth-moment", "--kernel", "k5.json", "--law", "rademacher"],
    ["noncentral-check", "--kernel", "half.json", "--law", "gaussian", "--target", "gamma", "--param", "1/2"],
    ["stein-bound", "--kernel", "half.json", "--law", "gaussian", "--abs-third-moment", "1.6"],
    ["joint-moment", "--kernel", "k5.json", "--kernel", "k5.json", "--word", "0,1,0", "--law", "gaussian"],
    ["partitions", "--n", "5", "--moebius"],
    ["gops", "--law", "gaussian", "--n", "3", "--with-expectation-route"],
    ["recurrence", "--law", "centered_poisson", "--n", "4"],
    ["discriminant", "--law", "gaussian", "--N", "3", "--k", "2", "--method", "expansion"],
]


def test_exact_subcommands_run_with_numpy_unimportable():
    # None in sys.modules makes every `import numpy` raise, which run()
    # reports as an internal error (exit 1)
    proc = run_python(
        "import json, os, sys\n"
        "sys.modules['numpy'] = None\n"
        "import homsum.cli as cli\n"
        "codes = [cli.run(argv + ['--output', os.devnull]) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n",
        json.dumps(EXACT_ARGVS),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(EXACT_ARGVS), proc.stderr


def test_import_and_moment_leave_numpy_unloaded():
    proc = run_python(
        "import os, sys\n"
        "import homsum.cli as cli\n"
        "after_import = 'numpy' in sys.modules\n"
        "code = cli.run(['moment', '--kernel', 'half.json', '--law', 'gaussian', '--order', '4',\n"
        "                '--output', os.devnull])\n"
        "print(after_import, code, 'numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


# the Monte Carlo shapes of the parser and module-loading tests
MONTE_CARLO_ARGVS = [
    ["kstat", "--refinement", "10", "--paths", "20"],
    ["kstat", "--measure", "compound_poisson", "--refinement", "10", "--paths", "20"],
    ["simulate-levy", "--paths", "40", "--orders", "3"],
    ["simulate-invariance", "--sizes", "4,8", "--trials", "2000", "--seed", "5"],
]
# kstat and simulate-levy run neither the kernel layer nor the moment engine
MONTE_CARLO_LAYERS = {"homsum", "homsum.cli", "homsum.laws", "homsum.partitions", "homsum.stochsim"}
# standard modules an exact child does not load (numpy loads inspect itself)
EXACT_SKIPS = {"dataclasses", "inspect", "csv"}


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (["partitions", "--n", "5"], {"homsum", "homsum.cli", "homsum.partitions"}, EXACT_SKIPS),
    (["contract", "--kernel", "k5.json", "--order", "1"], None,
     {"homsum.laws", "homsum.moments", "homsum.orthopoly", "homsum.partitions", *EXACT_SKIPS}),
    (["moment", "--kernel", "half.json", "--law", "gaussian", "--order", "4"], None,
     {"homsum.orthopoly", *EXACT_SKIPS}),
    (MONTE_CARLO_ARGVS[0], MONTE_CARLO_LAYERS, set()),
    (MONTE_CARLO_ARGVS[1], MONTE_CARLO_LAYERS, set()),
    # np.unique would import numpy.ma
    (MONTE_CARLO_ARGVS[2], MONTE_CARLO_LAYERS, {"numpy.ma"}),
])
def test_subcommands_load_only_the_layers_they_run(argv, loaded, not_loaded):
    proc = run_python(
        "import json, os, sys\n"
        "import homsum.cli as cli\n"
        "code = cli.run(json.loads(sys.argv[1]) + ['--output', os.devnull])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'homsum' or m in json.loads(sys.argv[2]))]))\n",
        json.dumps(argv), json.dumps(sorted(EXACT_SKIPS | not_loaded)),
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    if loaded is not None:
        assert set(modules) - EXACT_SKIPS - not_loaded == loaded
    assert not set(modules) & not_loaded, modules


# csv loads inside render's csv branch; its output is as recorded before
@pytest.mark.parametrize("argv,digest,size", [
    (["partitions", "--n", "5", "--moebius", "--format", "csv"],
     "a4bb24000de5c9c58d107e42b8f4d4d71bd49506233dc5f5a67f51bc97271516", 1132),
    (["quadrature", "--law", "gaussian", "--n", "4", "--format", "csv"],
     "7ef217c15b27dac815c35b77cb5c8a6bde8151d4ae19f6dc3488ce52d81d81d5", 297),
])
def test_csv_output_golden(argv, digest, size, capsys, monkeypatch):
    monkeypatch.delenv("HOMSUM_CAP", raising=False)
    monkeypatch.chdir(DATA)
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


# text reports with nested, Fraction and float fields beside a row table,
# recorded while render's text branch still copied the whole report
TEXT_GOLDEN = [
    (["fmt-check", "--kernel", "half.json", "--law", "gaussian", "--format", "text"],
     "455f2a3da39d48367f90c9c651f6cf9445eebc99b3e97e4a35289957f4a66cfa", 624),
    (["quadrature", "--law", "gaussian", "--n", "4", "--format", "text"],
     "11c2ce102d08cb2b20b67e3a5df2be675aa06a00d1240e49a8076fbdb01cf8cd", 419),
]


@pytest.mark.parametrize("argv,digest,size", TEXT_GOLDEN)
def test_text_output_golden(argv, digest, size, capsys, monkeypatch):
    monkeypatch.delenv("HOMSUM_CAP", raising=False)
    monkeypatch.chdir(DATA)
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


_KEYS = (st.text(max_size=4) | st.sampled_from(["0", "1", "True", "None", "1/2"]) | st.integers(-2, 2)
         | st.booleans() | st.none() | st.fractions(max_denominator=3))
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**40, -(2**64)])
    | st.fractions() | st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan])
    | st.complex_numbers() | st.text() | st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\\x7f"])
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32) | st.booleans().map(np.bool_)
    | st.lists(st.floats(), max_size=3).map(np.array)
    | st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda c: st.lists(c, max_size=4) | st.lists(c, max_size=4).map(tuple) | st.dictionaries(_KEYS, c, max_size=4),
    max_leaves=20,
)


@given(x=_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_json_lines_writes_the_text_of_json_dumps(x):
    out = []
    _json_lines(x, out)
    assert "".join(out) == json.dumps(_jsonable(x), indent=2)


def test_an_unserializable_leaf_raises_type_error_and_run_exits_1(monkeypatch, capsys):
    message = "Object of type set is not JSON serializable"
    with pytest.raises(TypeError, match=message):
        json.dumps(_jsonable({"rows": [{"x": {1, 2}}]}), indent=2)
    with pytest.raises(TypeError, match=message):
        _json_lines({"rows": [{"x": {1, 2}}]}, [])
    _, *rest = SUBCOMMANDS["partitions"]
    monkeypatch.setitem(SUBCOMMANDS, "partitions", (lambda args, cap: {"rows": [{"x": {1, 2}}]}, *rest))
    assert run(["partitions", "--n", "3"]) == 1
    assert capsys.readouterr().err == f"internal error: TypeError: {message}\n"


def test_json_render_does_not_go_through_json_dumps(monkeypatch):
    report = {"count": 2, "value": F(-3, 4), "x": 0.1 + 0.2, "z": 1j, "rows": [{"a": "\u00e9", "b": None}]}
    config = {"command": "partitions", "cap": 14}
    want = json.dumps({"config": _jsonable(config), "result": _jsonable(report)}, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert render(report, config, "json") == want


def _subparsers(parser):
    return next(a.choices for a in parser._actions if isinstance(getattr(a, "choices", None), dict))


@pytest.mark.parametrize("argv", EXACT_ARGVS + MONTE_CARLO_ARGVS, ids=lambda argv: argv[0])
def test_a_one_subcommand_parser_parses_as_the_full_parser(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def test_a_one_subcommand_parser_prints_the_full_help_and_errors(capsys):
    full = build_parser()
    assert set(_subparsers(full)) == set(SUBCOMMAND_OPTIONS)
    for name, p in _subparsers(full).items():
        one = build_parser(name)
        assert list(_subparsers(one)) == [name]
        assert one.format_usage() == full.format_usage()
        assert _subparsers(one)[name].format_help() == p.format_help(), name
        # a usage error inside the subcommand reads the same both ways
        texts = []
        for parser in (one, full):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--no-such-flag"])
            assert exc.value.code == 64
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[1] and "\nerror: " in texts[0], name


@pytest.mark.parametrize("argv, code, out, last_err_line", [
    (["--version"], 0, "homsum 0.1.0\n", None),
    ([], 64, "", "error: the following arguments are required: command"),
    (["bogus"], 64, "", "error: argument command: invalid choice: 'bogus' (choose from 'partitions', "
     "'kernel-validate', 'contract', 'influence', 'moment', 'fourth-moment', 'fmt-check', 'noncentral-check', "
     "'joint-moment', 'stein-bound', 'gops', 'recurrence', 'quadrature', 'discriminant', 'sylvester', "
     "'simulate-invariance', 'simulate-levy', 'kstat')"),
])
def test_version_bare_and_unknown_commands(argv, code, out, last_err_line, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out == out
    if last_err_line is None:
        assert captured.err == ""
    else:
        assert captured.err.startswith("usage: homsum [-h] [--version]")
        assert captured.err.splitlines()[-1] == last_err_line


def test_fmt_check_on_a_degree_0_kernel(tmp_path):
    path = tmp_path / "k0.json"
    path.write_text(json.dumps({"n": 2, "d": 0, "entries": [{"idx": [], "val": "1/2"}]}))
    code, payload = run_json(["fmt-check", "--kernel", str(path), "--law", "gaussian"], tmp_path)
    assert code == 0, payload
    assert payload["result"]["influences_first_slot"] == ["0/1", "0/1"]


def test_discriminant_reaches_n8_k2(tmp_path):
    from homsum.laws import gaussian
    from homsum.orthopoly import MomentFunctional, discriminant_moment

    want = discriminant_moment(MomentFunctional.from_law(gaussian(1, 28)), 8, 2, "lu_gaussian")
    code, payload = run_json(["discriminant", "--law", "gaussian", "--N", "8", "--k", "2"], tmp_path)
    assert code == 0 and payload["result"]["value"] == f"{want.numerator}/{want.denominator}"


@pytest.mark.parametrize("N, k", [(4, 1), (3, 2)])
def test_discriminant_with_a_short_law_file_exits_2(N, k, tmp_path):
    # moments to order 4 only: E[Delta^2] at N = 4 reads order 6, E[Delta^4] at N = 3 order 8
    law = tmp_path / "short.json"
    law.write_text(json.dumps({"name": "short", "kind": "classical", "moments": ["1", "0", "1", "0", "3"]}))
    code, payload = run_json(["discriminant", "--law", str(law), "--N", str(N), "--k", str(k)], tmp_path)
    assert code == 2 and payload["result"]["error"]["code"] == "OrthopolyError"


@pytest.mark.parametrize("m", [-1, 0, 2, 5])
def test_gops_refuses_m_other_than_1(m, tmp_path):
    code, payload = run_json(["gops", "--law", "gaussian", "--n", "5", "--m", str(m)], tmp_path)
    assert code == 2
    error = payload["result"]["error"]
    assert error["field"] == "m" and "only for m = 1" in error["message"]


def test_unreadable_input_paths_exit_2(tmp_path, half_kernel_path):
    somedir = tmp_path / "somedir"
    somedir.mkdir()
    code, payload = run_json(["influence", "--kernel", str(somedir)], tmp_path)
    assert code == 2 and payload["result"]["error"]["code"] == "kernel-file"
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", str(somedir), "--order", "2"], tmp_path
    )
    assert code == 2 and payload["result"]["error"]["code"] == "law-file"


def test_csv_of_a_report_without_rows_exits_2(half_kernel_path, tmp_path):
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", "gaussian", "--order", "2",
         "--format", "csv"],
        tmp_path,
    )
    assert code == 2 and payload["result"]["error"]["code"] == "format"


def test_csv_with_no_rows_writes_only_the_config_lines(tmp_path):
    out = tmp_path / "none.csv"
    code = run(["partitions", "--n", "4", "--min-block-size", "5", "--format", "csv",
                "--output", str(out)])
    lines = out.read_text().splitlines()
    assert code == 0 and lines and all(l.startswith("# ") for l in lines)
    assert "# n=4" in lines


def test_unwritable_output_exits_2_with_the_record_on_stdout(tmp_path, capsys):
    code = run(["partitions", "--n", "3", "--output", str(tmp_path / "missing" / "x.txt")])
    assert code == 2
    record = json.loads(capsys.readouterr().out)["result"]["error"]
    assert record["code"] == "output-file" and record["field"] == "output"


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


# the option groups each subcommand takes besides --format and --output
# (--mode is given with the values it accepts)
EITHER_MODE = {"--mode": ["exact", "float"]}
EXACT_ENGINE = {"--mode": ["exact"], "--cap": None}
SUBCOMMAND_OPTIONS = {
    "partitions": {"--cap": None},
    "kernel-validate": EITHER_MODE,
    "contract": EITHER_MODE,
    "influence": EITHER_MODE,
    "moment": EXACT_ENGINE,
    "fourth-moment": EXACT_ENGINE,
    "fmt-check": {**EXACT_ENGINE, "--tol": None},
    "noncentral-check": EXACT_ENGINE,
    "joint-moment": EXACT_ENGINE,
    "stein-bound": EXACT_ENGINE,
    "gops": {},
    "recurrence": {},
    "quadrature": {"--tol-float": None},
    "discriminant": {},
    "sylvester": {},
    "simulate-invariance": {"--seed": None},
    "simulate-levy": {"--seed": None},
    "kstat": {"--seed": None},
}


def test_help_lists_flags():
    parser = build_parser()
    sub = None
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            sub = action.choices
    assert sub is not None
    assert set(sub) == set(SUBCOMMAND_OPTIONS)
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
    for name, options in SUBCOMMAND_OPTIONS.items():
        p = sub[name]
        text = p.format_help()
        for flag in expected.get(name, []) + ["--format", "--output", *options]:
            assert flag in text, (name, flag)
        for flag in {"--mode", "--seed", "--cap", "--tol", "--tol-float"} - set(options):
            assert flag not in p._option_string_actions, (name, flag)
        if "--mode" in options:
            assert p._option_string_actions["--mode"].choices == options["--mode"], name
        assert "default" in text  # defaults are documented


@pytest.mark.parametrize("argv", [
    ["moment", "--kernel", "k.json", "--law", "gaussian", "--order", "4", "--mode", "float"],
    ["gops", "--law", "gaussian", "--n", "2", "--seed", "1"],
    ["quadrature", "--law", "rademacher", "--n", "8", "--cap", "30"],
    ["simulate-levy", "--paths", "100", "--tol", "1"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64


def test_short_law_file_exits_2(half_kernel_path, tmp_path):
    # E[Q^4] needs cumulants to order 4; they were taken as 0 (value 9/1)
    law = tmp_path / "short.json"
    law.write_text(json.dumps({"name": "short", "kind": "classical", "moments": ["1", "0", "1"]}))
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", str(law), "--order", "4"], tmp_path
    )
    assert code == 2 and payload["result"]["error"]["code"] == "LawError"


@pytest.mark.parametrize("argv", [
    ["recurrence", "--law", "uniform_centered", "--n", "8"],
    ["gops", "--law", "centered_poisson", "--n", "8"],
    ["sylvester", "--law", "rademacher", "--n", "3", "--k", "2"],
    ["kstat", "--measure", "compound_poisson", "--order", "8", "--paths", "50", "--refinement", "10"],
    ["simulate-levy", "--orders", "4,4", "--paths", "200"],
])
def test_law_orders_past_the_size_cap_are_not_refused(argv, tmp_path):
    # these laws convert moments and cumulants to order 16 or 18, which
    # enumerates no set partition, so the size cap 14 does not apply
    code, payload = run_json(argv, tmp_path)
    assert code == 0, payload["result"]


def test_law_orders_past_the_conversion_limit_exit_2(tmp_path):
    code, payload = run_json(["recurrence", "--law", "rademacher", "--n", "16"], tmp_path)
    assert code == 2
    assert payload["result"]["error"] == {
        "code": "law", "message": "order 32 exceeds the conversion limit 30", "field": "law",
    }


def test_joint_moment_sizes_the_law_by_the_word(tmp_path):
    one = tmp_path / "one.json"
    one.write_text(kernel_to_json(build_kernel(1, 1, [((1,), F(1))])))
    word = ",".join(["0"] * 14)
    code, payload = run_json(
        ["joint-moment", "--kernel", str(one), "--law", "semicircle", "--word", word], tmp_path
    )
    assert code == 0 and payload["result"]["value"] == "429/1"  # Catalan(7)


MALFORMED_KERNELS = [
    {"n": 2, "d": 2, "entries": [{"idx": [1, 2], "val": "1/0"}]},
    {"n": 2, "d": 2, "entries": [{"idx": [1, 2], "val": None}]},
    {"n": 2, "d": 2, "entries": [{"idx": 5, "val": "1"}]},
    {"n": 2, "d": 2, "entries": {"idx": [1, 2], "val": "1"}},
    [1, 2],
]
MALFORMED_LAWS = [
    {"name": "x", "kind": "classical"},
    {"name": "x", "kind": "classical", "moments": []},
]


@pytest.mark.parametrize("doc", MALFORMED_KERNELS)
def test_malformed_kernel_file_exits_2(doc, tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(["influence", "--kernel", str(path)], tmp_path)
    assert code == 2 and payload["result"]["error"]["code"] == "kernel-parse"


@pytest.mark.parametrize("doc", MALFORMED_LAWS)
def test_malformed_law_file_exits_2(doc, half_kernel_path, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(
        ["moment", "--kernel", half_kernel_path, "--law", str(path), "--order", "2"], tmp_path
    )
    assert code == 2 and payload["result"]["error"]["code"] == "LawError"


@pytest.mark.parametrize("argv", [
    ["kstat", "--refinement", "0"],
    ["kstat", "--paths", "1"],
    ["simulate-levy", "--paths", "1"],
    ["kstat", "--measure", "compound_poisson", "--jumps", "discrete", "--paths", "10"],
])
def test_bad_monte_carlo_arguments_exit_2(argv, tmp_path):
    code, payload = run_json(argv, tmp_path)
    assert code == 2 and "error" in payload["result"]


@pytest.mark.parametrize("argv", [
    # each exited 0 with "within_5se": true (order 0 reported estimate = refinement, se 0)
    ["kstat", "--order", "0"],
    ["kstat", "--order", "-1"],
    ["kstat", "--horizon", "nan"],
    ["simulate-levy", "--sigma2", "-1"],
])
def test_meaningless_monte_carlo_inputs_exit_2(argv, tmp_path):
    code, payload = run_json(argv + ["--paths", "10"], tmp_path)
    assert code == 2 and payload["result"]["error"]["code"] == "ValueError"


_SMALL = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-4, 6)
          | st.sampled_from(["1/2", "1/0", "x", "", "exact", "float", math.inf, math.nan])
          | st.text(max_size=4))


def _containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)


_JSON = st.recursive(_SMALL, _containers, max_leaves=10)
_KERNEL_DOCS = st.fixed_dictionaries(
    {
        "n": st.integers(0, 4) | _SMALL,
        "d": st.integers(-1, 3) | _SMALL,
        "entries": st.lists(
            st.fixed_dictionaries({"idx": st.lists(st.integers(-1, 4), max_size=3) | _JSON, "val": _JSON}),
            max_size=4,
        ) | _JSON,
    },
    optional={"mode": _SMALL, "symmetrize": _JSON},
)
_LAW_DOCS = st.fixed_dictionaries(
    {"name": st.text(max_size=4) | _JSON, "kind": st.sampled_from(["classical", "free"]) | _JSON,
     "moments": st.lists(st.sampled_from(["1", "0", "1/2", "-1", "2"]), min_size=1, max_size=6) | _JSON},
)


@given(doc=_JSON | _KERNEL_DOCS | _LAW_DOCS, as_law=st.booleans())
@settings(max_examples=150, deadline=None)
def test_fuzzed_input_files_never_exit_1(doc, as_law, tmp_path_factory):
    # exit 0 (accepted), 2 (rejected with an error record) or 64 (usage), never 1
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "in.json"
    path.write_text(json.dumps(doc))
    kernel = work / "half.json"
    kernel.write_text(kernel_to_json(build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])))
    if as_law:
        argv = ["moment", "--kernel", str(kernel), "--law", str(path), "--order", "2"]
    else:
        argv = ["moment", "--kernel", str(path), "--law", "gaussian", "--order", "2"]
    code = run(argv + ["--output", str(work / "out.json")])
    assert code in (0, 2, 64), (doc, code)
