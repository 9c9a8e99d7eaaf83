"""Every public top-level routine of ``src/homsum`` has a caller outside the
tests.  A routine that only tests call lives in ``tests/conftest.py`` as a
referee, or goes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public routines kept without a caller in src, scripts or perfbench, and why
KEPT = {
    "lattice_meet": "the meet of the partition lattice, named in PAPER.md",
    "lattice_join": "the join of the partition lattice, named in PAPER.md",
    "fourth_moment_bound_non_iid": "the non-i.i.d. fourth-moment bound; the planned contraction-norm route serves it",
    "compound_poisson_path": "the per-path Levy API; the bitwise path tests pin _levy_draws through it",
    "variation": "the per-path Levy API; the bitwise path tests pin _levy_draws through it",
    "builtin_law_names": "small helper the tests use to walk every built-in law",
    "poly_mul": "small helper the recurrence referee multiplies polynomials with",
    "double_factorial": "small helper the tests use for Gaussian moments",
}


def _trees(*patterns):
    return {p: ast.parse(p.read_text(), str(p)) for pattern in patterns for p in sorted(ROOT.glob(pattern))}


def _references(trees):
    """Every name, attribute and import alias, and each string constant that
    is a value in a dict literal: the CLI reaches kernel families through
    getattr on the values of such a table.  Other strings, report keys and
    subscripts among them, call nothing."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.update(node.name.split("."))
                refs.add(node.asname)
            elif isinstance(node, ast.Dict):
                refs.update(v.value for v in node.values if isinstance(v, ast.Constant) and isinstance(v.value, str))
    return refs


def test_every_public_routine_has_a_program_caller():
    library = _trees("src/homsum/*.py")
    refs = _references([*library.values(), *_trees("scripts/*.py", "perfbench/*.py").values()])
    public = {
        node.name: path.name
        for path, tree in library.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    uncalled = {name: module for name, module in public.items() if name not in refs}
    stray = {name: module for name, module in uncalled.items() if name not in KEPT}
    assert not stray, f"no program calls {stray}: move each to tests/conftest.py or delete it"
    # the allowlist goes stale when a kept routine is gone or gains a caller
    assert set(KEPT) == set(uncalled)
