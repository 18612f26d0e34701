"""Hygiene checks on the package.

Static checks on the source with the stdlib ast module: no import is left
unused, no private module-level helper is left unreferenced, no export is
used by the tests alone and no attribute set on self or record field is left
unread, as deletions tend to leave them behind, and scalars.py takes nothing
from libmpi but division, exp and log. Two runtime checks: the package's
names read through to their modules and are never stored in the package,
and evaluations leave every module-level container and function cache as it
was, so evaluations share no mutable state."""
import ast
import importlib
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import radialtyz
from radialtyz.curvature import lu_coefficients
from radialtyz.obstruction import gh_reports, obstruction_scan
from radialtyz.potentials import EpsilonFamily
from radialtyz.resolvability import minor_matrix
from radialtyz.scalars import RootScalar, Sign

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radialtyz"
MODULES = sorted(PACKAGE.glob("*.py"))
# where a read of a package attribute may live
READERS = [path for d in ("src", "tests", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _referenced(node: ast.AST) -> set[str]:
    """Names read, attributes read and names imported anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)} | _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_helper_is_referenced():
    # a reference from inside the helper's own definition (recursion) does not count
    statements = [(path, stmt) for path in MODULES for stmt in _tree(path).body]
    refs = [(stmt, _referenced(stmt)) for _, stmt in statements]
    orphans = []
    for path, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.decorator_list:
            continue
        name = stmt.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in names for other, names in refs if other is not stmt):
            orphans.append(f"{path.name}:{stmt.lineno} {name}")
    assert not orphans, f"unreferenced private helpers: {orphans}"


def test_every_export_has_a_caller_outside_the_tests():
    # an export that only tests call is an API to delete; a reference from
    # inside its own definition does not count, and the benchmark patches
    # some names (f_jet) by their strings
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            for stmt in _tree(path).body:
                used |= _referenced(stmt) - {getattr(stmt, "name", None)}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _tree(path)
        used |= _referenced(tree) | {
            sub.value for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }
    unused = sorted(set(radialtyz.__all__) - used)
    assert not unused, f"exports no code outside the tests uses: {unused}"


def test_package_names_read_through_to_their_modules(monkeypatch):
    # never cached in the package, so a name follows a patch of its module
    # and its undo, as the benchmark's tracer patches and restores
    patched = object()
    monkeypatch.setattr(radialtyz.curvature, "lu_coefficients", patched)
    assert radialtyz.lu_coefficients is patched
    monkeypatch.undo()
    assert radialtyz.lu_coefficients is lu_coefficients
    values = {name: getattr(radialtyz, name) for name in radialtyz.__all__}
    assert not vars(radialtyz).keys() & values.keys()
    star = {}
    exec("from radialtyz import *", star)
    assert {name: star[name] for name in values} == values
    assert not hasattr(radialtyz, "no_such_name")


def _attributes_read() -> set[str]:
    """Every attribute name that code in src/, tests/ or perfbench/ loads: an
    attribute counts as read where any code loads an attribute of that name."""
    return {
        sub.attr
        for path in READERS
        for sub in ast.walk(_tree(path))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def test_every_attribute_set_on_self_is_read():
    read = _attributes_read()
    unread = []
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for sub in ast.walk(cls):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr not in read
                ):
                    unread.append(f"{path.name}:{sub.lineno} {cls.name}.{sub.attr}")
    assert not unread, f"attributes set on self and never read: {unread}"


def test_every_record_field_is_read():
    # a field is a class-level annotation; a class with an as_dict method
    # (LuReport) reads every field there
    read = _attributes_read()
    unread = []
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef) or any(
                isinstance(f, ast.FunctionDef) and f.name == "as_dict" for f in cls.body
            ):
                continue
            unread += [
                f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in read
            ]
    assert not unread, f"record fields never read: {unread}"


def test_scalars_takes_only_division_exp_and_log_from_libmpi():
    # ball products, sums and negation run on the balls' integer endpoints
    imported = sorted(
        a.name
        for node in ast.walk(_tree(PACKAGE / "scalars.py"))
        if isinstance(node, ast.ImportFrom) and "libmpi" in (node.module or "")
        for a in node.names
    )
    assert imported == ["mpi_div", "mpi_exp", "mpi_log"]


def _module_container_sizes() -> dict[str, int]:
    """The size of every module-level dict, list, set and functools cache of
    every module."""
    sizes = {}
    for info in pkgutil.iter_modules(radialtyz.__path__):
        module = importlib.import_module(f"radialtyz.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[f"{info.name}.{name}"] = len(value)
            elif callable(getattr(value, "cache_info", None)):
                sizes[f"{info.name}.{name}"] = value.cache_info().currsize
    return sizes


def test_evaluations_grow_no_module_level_state():
    before = _module_container_sizes()
    # 2**k * sqrt(2) - 2**k - 1 > 0, a sign decided by interval refinement
    # that starts at max(64, k + 34) bits: a new precision for each k > 30
    for k in range(30, 130):
        assert RootScalar(2, 2, (F(-(2**k) - 1), F(2**k))).sign() == Sign.POSITIVE
    lu_coefficients(EpsilonFamily(1, F(1), 2), 2, x=F(3, 4), exact=False, precision_bits=96)
    gh_reports(EpsilonFamily(1, F(1), 3), F(3, 4), 5, exact=False, precision_bits=80)
    # the certify path: minors exact (in Q(sqrt 5)) and on balls, and a scan
    # whose undetermined signs at x = 3/2 send it from 16 to 32 bits
    minor_matrix(EpsilonFamily(-1, F(1), 2), x=F(3, 2), lmax=2, hmax=3)
    minor_matrix(EpsilonFamily(1, F(1), 4), x=F(3, 4), lmax=2, hmax=3, precision_bits=64)
    hits = obstruction_scan(EpsilonFamily(1, F(1), 6), [F(1), F(3, 2)], 7, precision_bits=16)
    assert hits[-1].value.precision_bits == 32
    assert _module_container_sizes() == before
