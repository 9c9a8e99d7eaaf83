"""Single entry-point command exposing every computation.

Subcommands read kernel/law JSON files, run the exact or Monte Carlo
machinery, and emit JSON, CSV or aligned-text reports; every run echoes its
fully resolved configuration.  Exit codes: 0 success, 2 precondition or
validation failure (with a machine-readable error record), 1 internal error,
64 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_SIZE_CAP, __version__

# the layer modules load inside the handlers that use them, so that a
# subcommand imports (and compiles) only what it runs
if TYPE_CHECKING:
    from . import kernels as K
    from . import laws as L
    from . import orthopoly as O


class UsageParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(64)


class CliValidationError(ValueError):
    def __init__(self, code: str, message: str, field: str = ""):
        super().__init__(message)
        self.record = {"code": code, "message": message, "field": field}


def _jsonable(x):
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return {"re": float(f"{x.real:.12g}"), "im": float(f"{x.imag:.12g}")}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    return x


_ascii = json.encoder.encode_basestring_ascii


def _json_lines(x, out: list, pad: str = "\n") -> None:
    """Append to ``out`` the text of ``json.dumps(_jsonable(x), indent=2)``.

    One pass in place of the copy through ``_jsonable`` and ``json``'s
    pure-Python indent encoder; ``pad`` is the newline and indent of the
    level ``x`` sits at.  Leaves other than None, str and int go through
    ``_jsonable``."""
    if isinstance(x, str):
        out.append(_ascii(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (dict, list, tuple)):
        if not x:
            out.append("{}" if isinstance(x, dict) else "[]")
            return
        inner = pad + "  "
        lead, sep = inner, "," + inner
        if isinstance(x, dict):
            mark = len(out)
            out.append("{")
            for k, v in x.items():
                if k.__class__ is not str:
                    # restart on _jsonable's copy, where keys whose str coincide keep one entry
                    del out[mark:]
                    return _json_lines({str(k): v for k, v in x.items()}, out, pad)
                out += (lead, _ascii(k), ": ")
                _json_lines(v, out, inner)
                lead = sep
            out.append(pad + "}")
        else:
            out.append("[")
            for v in x:
                out.append(lead)
                _json_lines(v, out, inner)
                lead = sep
            out.append(pad + "]")
    else:
        y = _jsonable(x)
        if y.__class__ is float:
            out.append(float.__repr__(y) if math.isfinite(y) else
                       "NaN" if y != y else "Infinity" if y > 0 else "-Infinity")
        elif y is x:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        else:
            _json_lines(y, out, pad)


def _text_table(rows: list[dict]) -> str:
    if not rows:
        return "(empty)\n"
    cols = list(rows[0].keys())
    table = [[str(_jsonable(r.get(c, ""))) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in table:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def render(report: dict, config: dict, fmt: str) -> str:
    """The report as JSON, CSV or aligned text; CSV needs the report's rows.

    JSON is the exact text of ``json.dumps(..., indent=2)`` on the
    ``_jsonable`` copy of ``{"config": config, "result": report}`` (ASCII
    escapes, Fractions as ``"p/q"``, floats at 12 significant digits),
    written by ``_json_lines`` without building that copy."""
    if fmt == "json":
        out = []
        _json_lines({"config": config, "result": report}, out)
        return "".join(out) + "\n"
    buf = io.StringIO()
    for k, v in _jsonable(config).items():
        buf.write(f"# {k}={v}\n")
    rows = report.get("rows")
    if fmt == "csv":
        if rows is None:
            raise CliValidationError("format", "this report has no tabular rows; use json or text", "format")
        if rows:
            import csv

            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _jsonable(v) for k, v in r.items()})
        return buf.getvalue()
    if rows is not None:
        buf.write(_text_table(rows))
        report = {k: v for k, v in report.items() if k != "rows"}
    for k, v in _jsonable(report).items():
        buf.write(f"{k}: {json.dumps(v) if isinstance(v, (dict, list)) else v}\n")
    return buf.getvalue()


def _write(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliValidationError("output-file", f"cannot write output file {output}: {e.strerror}", "output")


def _load_kernel(path: str, mode: str) -> K.Kernel:
    from . import kernels as K

    try:
        with open(path) as fh:
            k = K.kernel_from_json(fh.read())
    except OSError as e:
        raise CliValidationError("kernel-file", f"cannot read kernel file {path}: {e.strerror}", "kernel")
    except K.KernelError as e:
        raise CliValidationError("kernel-parse", f"bad kernel file: {e}", "kernel")
    if mode == "float" and k.mode == "exact":
        k = k.to_float()
    if mode == "exact" and k.mode == "float":
        raise CliValidationError("mode", "float kernel cannot be promoted to exact mode", "mode")
    return k


def _rational(text: str, field: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliValidationError(field, f"--{field} must be a rational number, got {text!r}", field) from None


def _finite(value: float, field: str, nonnegative: bool = False) -> float:
    """A float flag checked before any sampler is built: finite, and >= 0 if
    ``nonnegative``.  Other bounds are left to the library routine."""
    if not (math.isfinite(value) and (value >= 0 or not nonnegative)):
        bound = " and >= 0" if nonnegative else ""
        raise CliValidationError(field, f"--{field} must be finite{bound}, got {value}", field)
    return value


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise CliValidationError("law-param", f"expected key=value, got {item!r}", "law-param")
        key, val = item.split("=", 1)
        out[key] = _rational(val, "law-param")
    return out


def _load_law(args, max_order: int = 10) -> L.LawSpec:
    from . import laws as L

    name = args.law
    if name is None:
        raise CliValidationError("law", "a --law is required", "law")
    if name.endswith(".json") or os.path.sep in name:
        try:
            with open(name) as fh:
                return L.law_from_json(fh.read())
        except OSError as e:
            raise CliValidationError("law-file", f"cannot read law file {name}: {e.strerror}", "law")
    params = _parse_params(getattr(args, "law_param", None))
    try:
        return L.builtin_law(name, max_order=max_order, **params)
    except (L.LawError, TypeError) as e:
        raise CliValidationError("law", str(e), "law")


def _law_functional(args, need_order: int) -> O.MomentFunctional:
    from . import orthopoly as O

    law = _load_law(args, max_order=max(need_order, 10))
    return O.MomentFunctional.from_law(law)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a report dict)


def cmd_partitions(args, cap):
    from .partitions import PartitionFilter, SetPartition, enumerate_partitions, moebius_to_top

    # --min-block-size k allows the sizes k..n (an n above the cap is refused)
    sizes = set(range(max(args.min_block_size, 1), min(args.n, cap) + 1))
    if args.pairings:
        sizes &= {2}
    filt = PartitionFilter(
        noncrossing=args.noncrossing,
        allowed_block_sizes=sizes if args.pairings or args.min_block_size > 1 else None,
        respects=SetPartition.parse(args.respects) if args.respects else None,
    )
    # rows hold SetPartition's text form; a block's text is built once, as
    # the partitions of [n] share at most 2^n distinct blocks
    texts = {}
    mode = "noncrossing" if args.noncrossing else "classical"
    rows = []
    for p in enumerate_partitions(args.n, filt, cap):
        text = "|".join([texts.get(b) or texts.setdefault(b, ",".join(map(str, b))) for b in p])
        row = {"partition": text, "blocks": len(p)}
        if args.moebius:
            row["moebius_to_top"] = moebius_to_top(p, mode)
        rows.append(row)
    return {"count": len(rows), "rows": rows}


def cmd_kernel_validate(args, cap):
    from . import kernels as K

    k = _load_kernel(args.kernel, args.mode)
    return K.validate(k, args.flavor)


def cmd_contract(args, cap):
    from . import kernels as K

    f = _load_kernel(args.kernel, args.mode)
    g = _load_kernel(args.other, args.mode) if args.other else f
    if args.star:
        out = K.star_contraction(f, g, args.order)
    else:
        out = K.contraction(f, g, args.order)
    return {
        "degree": out.d,
        "norm_sq": out.norm_sq(),
        "entries": [{"idx": list(i), "val": v} for i, v in sorted(out.support())],
    }


def cmd_influence(args, cap):
    from . import kernels as K

    f = _load_kernel(args.kernel, args.mode)
    inf = K.influence(f)
    return {
        "influences": inf,
        "tau_max": max(inf, default=0),
        "sum": sum(inf),
    }


def cmd_moment(args, cap):
    from . import moments as M

    f = _load_kernel(args.kernel, "exact")
    law = _load_law(args, max_order=max(10, args.order * f.d))
    spec = M.SumSpec(f, law)
    value = M.moment_exact(spec, args.order, cap)
    rep = {"value": value, "order": args.order, "law": law.name, "kind": law.kind}
    if args.with_oracle:
        rep["oracle"] = M.moment_oracle(spec, args.order)
        rep["oracle_agrees"] = rep["oracle"] == value
    return rep


def cmd_fourth_moment(args, cap):
    from . import moments as M

    f = _load_kernel(args.kernel, "exact")
    law = _load_law(args)
    return M.fourth_moment_formula(M.SumSpec(f, law), cap)


def cmd_fmt_check(args, cap):
    from . import moments as M

    f = _load_kernel(args.kernel, "exact")
    law = _load_law(args)
    tol = _rational(args.tol, "tol") if args.tol else None
    return M.fmt_report(M.SumSpec(f, law), tolerance=tol, cap=cap)


def cmd_noncentral_check(args, cap):
    from . import moments as M

    f = _load_kernel(args.kernel, "exact")
    law = _load_law(args)
    return M.noncentral_report(M.SumSpec(f, law), args.target, _rational(args.param, "param"), cap)


def cmd_joint_moment(args, cap):
    from . import moments as M

    ks = [_load_kernel(p, "exact") for p in args.kernel]
    word = tuple(int(w) for w in args.word.split(","))
    # a respectful block holds at most one position per letter
    law = _load_law(args, max_order=max(10, len(word)))
    if any(w < 0 or w >= len(ks) for w in word):
        raise CliValidationError("word", "word entries must index the kernel list", "word")
    return {"value": M.joint_moment(ks, word, law, cap), "word": list(word)}


def cmd_stein_bound(args, cap):
    from . import moments as M

    f = _load_kernel(args.kernel, "exact")
    law = _load_law(args)
    return M.stein_wasserstein_bound(
        M.SumSpec(f, law),
        abs_third_moment=args.abs_third_moment,
        rosenthal_c3=args.rosenthal,
        cap=cap,
    )


def cmd_gops(args, cap):
    from . import orthopoly as O

    if args.m != 1:
        # the extra-group rows of a one-law functional repeat the main group's
        # first row, so every p_{n,m} with m >= 2 has a zero determinant
        raise CliValidationError("m", "a one-law functional defines p_{n,m} only for m = 1", "m")
    F = _law_functional(args, 2 * args.n)
    p_det = O.gops_determinant(F, args.n, args.m)
    rep = {
        "determinant_route": O.poly_to_strings(p_det),
        "orthogonality": O.orthogonality_check(F, p_det, args.n, args.m),
    }
    if args.with_expectation_route:
        p_exp = O.gops_expectation(F, args.n, args.m)
        rep["expectation_route"] = O.poly_to_strings(p_exp)
        rep["route_ratio"] = O._andreief_ratio(p_det, p_exp, args.n, args.m)
    return rep


def cmd_recurrence(args, cap):
    from . import orthopoly as O

    F = _law_functional(args, 2 * args.n)
    rec = O.recurrence_coeffs(F, args.n)
    return {
        "alphas": rec["alphas"],
        "betas": rec["betas"],
        "polys": [O.poly_to_strings(p) for p in rec["polys"]],
    }


def _node_rows(nodes, weights) -> list[dict]:
    return [
        {"node_re": z.real, "node_im": z.imag, "weight_re": w.real, "weight_im": w.imag}
        for z, w in zip(nodes, weights)
    ]


def cmd_quadrature(args, cap):
    from . import orthopoly as O

    F = _law_functional(args, 2 * args.n)
    rule = O.quadrature_rule(F, args.n, tol=args.tol_float)
    return {
        "rows": _node_rows(rule.nodes, rule.weights),
        "exactness_degree": rule.exactness_degree,
        "node_kind": rule.node_kind,
        "max_residual": rule.max_residual,
    }


def cmd_discriminant(args, cap):
    from . import orthopoly as O

    if args.method == "lu_gaussian" and args.law != "gaussian":
        raise CliValidationError("method", "lu_gaussian is the Gaussian closed form; it needs --law gaussian", "method")
    need = 2 * (args.k * (args.N - 1) + 1)
    F = _law_functional(args, need)
    val = O.discriminant_moment(F, args.N, args.k, args.method)
    return {"value": val, "method": args.method, "N": args.N, "k": args.k}


def cmd_sylvester(args, cap):
    from . import orthopoly as O

    need = max(2 * args.n * (2 * args.k - 1), 4 * args.n)
    F = _law_functional(args, need)
    dec = O.sylvester_decompose(F, args.n, args.k, mode=args.sylvester_mode)
    return {
        "mode": dec.mode,
        "degree": dec.degree,
        "poly": O.poly_to_strings(dec.poly),
        "rows": _node_rows(dec.nodes, dec.weights),
        "weight_sum_re": dec.weight_sum.real,
        "weight_sum_im": dec.weight_sum.imag,
        "target": dec.target,
        "residual": dec.residual,
        "consistent": dec.consistent,
    }


# kernel family -> its builder in the kernels module
_FAMILIES = {
    "offdiag": "offdiag_kernel",
    "star": "star_kernel",
    "avoid-first": "avoid_first_kernel",
}


def cmd_simulate_invariance(args, cap):
    from . import kernels as K
    from . import stochsim as S

    rows = S.invariance_decay_experiment(
        getattr(K, _FAMILIES[args.family]),
        S.Sampler(args.sampler_a, seed=args.seed),
        S.Sampler(args.sampler_b, seed=args.seed + 1),
        sizes=[int(x) for x in args.sizes.split(",")],
        trials=args.trials,
    )
    return {"rows": rows}


def cmd_simulate_levy(args, cap):
    from . import stochsim as S

    for flag in ("rate", "sigma2", "horizon"):
        _finite(getattr(args, flag), flag)
    jump = S.Sampler(args.jumps, seed=args.seed + 13)
    orders = [int(x) for x in args.orders.split(",")]
    rep = S.variations_cumulant_check(
        lam=args.rate,
        jump_sampler=jump,
        jump_law=jump.law_spec(max(8, 2 * sum(orders))),
        sigma2=args.sigma2,
        horizon=args.horizon,
        orders=orders,
        paths=args.paths,
        seed=args.seed,
    )
    return rep


def cmd_kstat(args, cap):
    from . import laws as L
    from . import stochsim as S

    # kappa(j): the j-th cumulant of the measure per unit of nu
    if args.measure == "gaussian":
        for flag in ("rate", "jumps"):
            if getattr(args, flag) is not None:
                raise CliValidationError(flag, f"--{flag} applies to --measure compound_poisson only", flag)
        cell = S.gaussian_cell_sampler
        kappa = lambda j: Fraction(int(j == 2))
    else:  # compound_poisson
        rate = 2.0 if args.rate is None else _finite(args.rate, "rate", nonnegative=True)
        jump = S.Sampler("rademacher" if args.jumps is None else args.jumps, seed=args.seed)
        cell = S.compound_poisson_cell_sampler(rate, jump.draw_from)
        jumps = jump.law_spec(max(8, 2 * args.order))
        kappa = lambda j: Fraction(rate) * jumps.moment(j)
    n, N = args.order, args.refinement
    target = limit = math.nan  # kstat_experiment refuses these inputs
    if n >= 1 and N >= 1 and math.isfinite(args.horizon):
        # a cell A has cumulants nu(A) kappa(j), so E[sum_i Phi(A_i)^n] is
        # N m_n(A), which tends to the limit T kappa(n) as N grows
        cell_measure = Fraction(args.horizon) / N
        m = L.convert([0] + [cell_measure * kappa(j) for j in range(1, n + 1)], "cumulants_to_moments", "classical")
        target, limit = float(N * m[n]), float(Fraction(args.horizon) * kappa(n))
    rep = S.kstat_experiment(cell, target, n, N, args.paths, args.horizon, args.seed)
    return {**rep, "limit": limit}


# the kernel subcommands work in either mode; the exact-engine subcommands
# force exact mode, so they accept --mode exact and nothing else
EITHER = {"modes": ["exact", "float"], "kernel": True}
EXACT_ENGINE = {"modes": ["exact"], "cap": True, "law": True}

# name -> (handler, help, the option groups _add_groups adds, the subcommand's
# own arguments as (flag, add_argument keywords)), in --help order
SUBCOMMANDS = {
    "partitions": (cmd_partitions, "enumerate set / non-crossing partitions", {"cap": True}, [
        ("--n", {"type": int, "required": True}),
        ("--pairings", {"action": "store_true", "help": "blocks of size 2 only"}),
        ("--noncrossing", {"action": "store_true"}),
        ("--min-block-size", {"type": int, "default": 1}),
        ("--respects", {"default": None, "help": 'partition text form, e.g. "1,2|3,4"'}),
        ("--moebius", {"action": "store_true", "help": "include Moebius values to the top"}),
    ]),
    "kernel-validate": (cmd_kernel_validate, "admissibility report for a kernel", EITHER, [
        ("--flavor", {"choices": ["classical", "free", "mirror"], "required": True}),
    ]),
    "contract": (cmd_contract, "contraction or star contraction of kernels", EITHER, [
        ("--other", {"default": None, "help": "second kernel JSON (default: same kernel)"}),
        ("--order", {"type": int, "required": True}),
        ("--star", {"action": "store_true", "help": "star contraction instead of plain"}),
    ]),
    "influence": (cmd_influence, "influence profile and tau_max", EITHER, []),
    "moment": (cmd_moment, "exact moment of a homogeneous sum", {"kernel": True, **EXACT_ENGINE}, [
        ("--order", {"type": int, "required": True}),
        ("--with-oracle", {"action": "store_true", "help": "also run the brute-force oracle"}),
    ]),
    "fourth-moment": (cmd_fourth_moment, "fourth-moment decomposition record", {"kernel": True, **EXACT_ENGINE}, []),
    "fmt-check": (cmd_fmt_check, "fourth-moment-theorem diagnostic report",
                  {"kernel": True, "tol": True, **EXACT_ENGINE}, []),
    "noncentral-check": (cmd_noncentral_check, "gamma / free-Poisson approximation diagnostic",
                         {"kernel": True, **EXACT_ENGINE}, [
        ("--target", {"choices": ["gamma", "free_poisson"], "required": True}),
        ("--param", {"required": True, "help": "nu or lambda (rational)"}),
    ]),
    "joint-moment": (cmd_joint_moment, "mixed moment of several homogeneous sums", EXACT_ENGINE, [
        ("--kernel", {"action": "append", "required": True, "help": "kernel JSON path (repeatable)"}),
        ("--word", {"required": True, "help": "comma-separated kernel indices, e.g. 0,1,0"}),
    ]),
    "stein-bound": (cmd_stein_bound, "quadratic Stein-pair Wasserstein bound", {"kernel": True, **EXACT_ENGINE}, [
        ("--abs-third-moment", {"type": float, "required": True, "help": "E|X|^3 of the law"}),
        ("--rosenthal", {"type": float, "default": 4.0, "help": "Rosenthal constant R3 (default 4)"}),
    ]),
    "gops": (cmd_gops, "generalized orthogonal polynomial p_{nm}", {"law": True}, [
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "default": 1,
                 "help": "second index of p_{n,m}; a one-law functional defines it only for m = 1 (default 1)"}),
        ("--with-expectation-route", {"action": "store_true"}),
    ]),
    "recurrence": (cmd_recurrence, "Jacobi-Szego coefficients and monic OPs", {"law": True}, [
        ("--n", {"type": int, "required": True}),
    ]),
    "quadrature": (cmd_quadrature, "Gauss rule: nodes, Christoffel weights, exactness",
                   {"law": True, "tol_float": True}, [
        ("--n", {"type": int, "required": True}),
    ]),
    "discriminant": (cmd_discriminant, "E[Delta^(2k)] by quadrature/expansion/closed form", {"law": True}, [
        ("--N", {"type": int, "required": True, "help": "sample size"}),
        ("--k", {"type": int, "required": True, "help": "half the Vandermonde power"}),
        ("--method", {"choices": ["expansion", "quadrature", "lu_gaussian"], "default": "expansion",
                      "help": "default expansion; lu_gaussian needs --law gaussian"}),
    ]),
    "sylvester": (cmd_sylvester, "Sylvester power-sum decompositions", {"law": True}, [
        ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "default": 1}),
        ("--sylvester-mode", {"choices": ["discriminant", "appel"], "default": "discriminant",
                              "help": "default discriminant; appel needs --k 1"}),
    ]),
    "simulate-invariance": (cmd_simulate_invariance, "invariance-decay trajectory experiment", {"seed": True}, [
        ("--family", {"choices": sorted(_FAMILIES), "default": "offdiag"}),
        ("--sampler-a", {"default": "gaussian"}),
        ("--sampler-b", {"default": "rademacher"}),
        ("--sizes", {"default": "4,8,16,32"}),
        ("--trials", {"type": int, "default": 20000}),
    ]),
    "simulate-levy": (cmd_simulate_levy, "variations-cumulant Monte Carlo check", {"seed": True}, [
        ("--rate", {"type": float, "default": 2.0}),
        ("--sigma2", {"type": float, "default": 0.0}),
        ("--horizon", {"type": float, "default": 1.0}),
        ("--jumps", {"default": "rademacher", "help": "jump sampler law"}),
        ("--orders", {"default": "3", "help": "comma-separated variation orders"}),
        ("--paths", {"type": int, "default": 10000}),
    ]),
    "kstat": (cmd_kstat, "diagonal-measure kappa-statistic experiment", {"seed": True}, [
        ("--measure", {"choices": ["gaussian", "compound_poisson"], "default": "gaussian"}),
        ("--order", {"type": int, "default": 2}),
        ("--refinement", {"type": int, "default": 100}),
        ("--paths", {"type": int, "default": 2000}),
        ("--horizon", {"type": float, "default": 1.0}),
        ("--rate", {"type": float, "default": None,
                    "help": "jump rate of --measure compound_poisson only (default 2.0)"}),
        ("--jumps", {"default": None,
                     "help": "jump sampler law of --measure compound_poisson only (default rademacher)"}),
    ]),
}


def _add_groups(p, *, modes=(), seed=False, cap=False, tol=False, tol_float=False, law=False, kernel=False):
    """--format and --output plus only the option groups the subcommand's
    handler reads; ``modes`` lists the accepted --mode values."""
    if modes:
        p.add_argument("--mode", choices=modes, default="exact", help="scalar mode (default exact)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for any randomized step (default 0)")
    if cap:
        p.add_argument("--cap", type=int, default=None,
                       help=f"partition-size cap (default {DEFAULT_SIZE_CAP}; env HOMSUM_CAP overrides the default)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json", help="output format (default json)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    if tol:
        p.add_argument("--tol", default=None, help="rational tolerance for verdicts (default exact zero)")
    if tol_float:
        p.add_argument("--tol-float", type=float, default=1e-9, help="float tolerance (default 1e-9)")
    if law:
        p.add_argument("--law", default=None, help="builtin law name or a law JSON path")
        p.add_argument("--law-param", action="append", default=[],
                       help="law parameter key=value (repeatable), e.g. sigma2=1")
    if kernel:
        p.add_argument("--kernel", required=True, help="kernel JSON path")


def build_parser(command: str | None = None) -> UsageParser:
    """The homsum parser.  Given the name of a subcommand, it holds only that
    subcommand's arguments, which parse its argv as the full parser does, at
    a fraction of the set-up cost; otherwise (``--help``, an unknown or
    missing subcommand) it holds every subcommand."""
    parser = UsageParser(prog="homsum", description=__doc__)
    parser.add_argument("--version", action="version", version=f"homsum {__version__}")
    if command in SUBCOMMANDS:
        # usage lines still list every subcommand
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(SUBCOMMANDS))
    else:
        names = list(SUBCOMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _, summary, groups, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        _add_groups(p, **groups)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _default_cap() -> int:
    raw = os.environ.get("HOMSUM_CAP", str(DEFAULT_SIZE_CAP))
    try:
        return int(raw)
    except ValueError:
        raise CliValidationError("cap", f"HOMSUM_CAP must be an integer, got {raw!r}", "cap") from None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    config = {
        "command": args.command,
        "cap": getattr(args, "cap", None),
        "mode": getattr(args, "mode", "exact"),
        "seed": getattr(args, "seed", 0),
        "format": args.format,
        "version": __version__,
    }
    for key in ("law", "kernel", "n", "m", "N", "k", "order", "method", "target"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    try:
        if config["cap"] is None:
            # HOMSUM_CAP sets the default of --cap; a subcommand without the
            # flag reads no cap and echoes the package default
            config["cap"] = _default_cap() if hasattr(args, "cap") else DEFAULT_SIZE_CAP
        report = SUBCOMMANDS[args.command][0](args, config["cap"])
        _write(render(report, config, args.format), args.output)
        return 0
    except CliValidationError as e:
        record = e.record
    except ValueError as e:
        record = {"code": type(e).__name__, "message": str(e), "field": ""}
    except Exception as e:  # internal error
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 1
    text = render({"error": record}, config, "json")
    try:
        _write(text, args.output)
    except CliValidationError:
        # the output path cannot be written, so the record goes to stdout
        sys.stdout.write(text)
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
