"""Names other code relies on, and the package's import layers.

The benchmark in perfbench/ wraps the functions listed in spans.py and
its launcher hooks read some of their arguments by name.  Both files are
parsed here, never imported or executed, so renaming a layer function or
one of those parameters fails the test suite instead of the traced run.
The package modules are parsed the same way, so an import cycle between
them (a deferred import inside a function included) fails here too, and
so does a write through object.__setattr__ outside a record's
__init__, a numpy vector product (vdot, dot, inner, einsum, tensordot),
and an imported name the module never uses (no linter
is a test dependency, so this is the package's unused-import check).
The lazy package root is checked against its export
table: every name resolves to its module's object, and importing the
root alone loads no submodule.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import povmquad

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "povmquad"


def _assigned_value(filename: str, name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} is not assigned in perfbench/{filename}")


def _hooked_parameters() -> dict[str, list[str]]:
    """Layer name -> the args["..."] keys its launcher hook reads."""
    tree = ast.parse((PERFBENCH / "launcher.py").read_text(encoding="utf-8"))
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = sorted(
                {
                    sub.slice.value
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"
                    and isinstance(sub.slice, ast.Constant)
                }
            )
    hooks = _assigned_value("launcher.py", "_HOOKS")
    return {key.value: reads[value.id] for key, value in zip(hooks.keys, hooks.values)}


LAYER_FUNCTIONS = ast.literal_eval(_assigned_value("spans.py", "LAYER_FUNCTIONS"))
HOOKED_PARAMETERS = _hooked_parameters()


def _layer(name: str):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"povmquad.{module}"), function)


@pytest.mark.parametrize("module,function", LAYER_FUNCTIONS)
def test_layer_function_resolves(module, function):
    assert callable(_layer(f"{module}.{function}"))


@pytest.mark.parametrize("layer", sorted(HOOKED_PARAMETERS))
def test_hooked_parameters_exist(layer):
    assert tuple(layer.split(".")) in LAYER_FUNCTIONS
    parameters = inspect.signature(_layer(layer)).parameters
    missing = [name for name in HOOKED_PARAMETERS[layer] if name not in parameters]
    assert not missing, f"{layer} lacks the parameters {missing} its hook reads"


def test_hook_parser_finds_the_arguments():
    # Guards the parser itself: an empty result would pass every check above.
    found = {name for names in HOOKED_PARAMETERS.values() for name in names}
    assert {"N", "samples", "povm", "povm_m", "path"} <= found


def test_every_export_is_an_attribute():
    missing = [name for name in povmquad.__all__ if not hasattr(povmquad, name)]
    assert not missing
    assert len(set(povmquad.__all__)) == len(povmquad.__all__)
    namespace: dict = {}
    exec("from povmquad import *", namespace)
    assert set(povmquad.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(povmquad, name) for name in povmquad.__all__)


def test_all_is_the_export_table():
    assert povmquad.__all__ == list(povmquad._EXPORTS)
    assert set(povmquad.__all__) <= set(dir(povmquad))
    assert "__version__" in dir(povmquad)


def test_version_is_declared_only_in_the_package():
    # pyproject.toml reads the version from povmquad.__version__, so a
    # release edits one line.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert not [line for line in project.splitlines() if line.split("=")[0].strip() == "version"]
    assert 'dynamic = ["version"]' in project.splitlines()
    assert 'version = {attr = "povmquad.__version__"}' in text.splitlines()


@pytest.mark.parametrize("name", sorted(povmquad._EXPORTS))
def test_export_is_its_modules_object(name):
    module = importlib.import_module(f"povmquad.{povmquad._EXPORTS[name]}")
    assert getattr(povmquad, name) is getattr(module, name)
    # Kept on the package, so the next access does not import again.
    assert vars(povmquad)[name] is getattr(module, name)


def test_unitary_sampler_left_the_package():
    # The package runs no QR; haar_random_unitary lives in the test oracles.
    assert "haar_random_unitary" not in povmquad._EXPORTS
    assert not hasattr(importlib.import_module("povmquad.symmetric"), "haar_random_unitary")


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_export"):
        povmquad.no_such_export


def test_package_import_loads_no_submodule():
    # A fresh interpreter: importing the package root alone imports none
    # of its modules; each loads on the first access to one of its names.
    probe = (
        "import sys\n"
        "import povmquad\n"
        "before = sorted(m for m in sys.modules if m.startswith('povmquad.'))\n"
        "povmquad.sym_dim\n"
        "after = sorted(m for m in sys.modules if m.startswith('povmquad.'))\n"
        "print(before, after)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, timeout=120, text=True
    )
    assert proc.returncode == 0, proc.stderr
    expected = ["povmquad.errors"]
    assert proc.stdout.strip() == f"[] {expected}"


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules a package module imports, at any depth of its syntax tree."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def _import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path of modules, or None."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(module: str) -> list[str] | None:
        state[module] = "open"
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        state[module] = "done"
        path.pop()
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module)
            if cycle:
                return cycle
    return None


IMPORT_GRAPH = {
    path.stem: _relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))
}


def test_package_imports_have_no_cycle():
    cycle = _import_cycle(IMPORT_GRAPH)
    assert cycle is None, " -> ".join(cycle)


def test_import_graph_reader_finds_edges(tmp_path):
    # Guards the reader and the cycle search: quadrature builds on
    # symmetric, povm on quadrature, a deferred import counts, and a
    # three-module loop is found.
    module = tmp_path / "deferred.py"
    module.write_text("def f():\n    from .povm import Povm\n    from . import cli\n")
    assert _relative_imports(module) == {"povm", "cli"}
    assert {"symmetric", "errors"} <= IMPORT_GRAPH["quadrature"]
    assert "quadrature" in IMPORT_GRAPH["povm"]
    assert "povm" not in IMPORT_GRAPH["quadrature"]
    assert _import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _import_cycle({"a": {"b"}, "b": set()}) is None


def _setattr_outside_init(source: str) -> list[int]:
    """Lines where object.__setattr__ appears outside an __init__ body.

    A frozen record sets its own fields while it is constructed; any
    other write belongs to the record's own cached properties.
    """
    allowed: set[int] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            allowed.update(id(sub) for sub in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
        and id(node) not in allowed
    )


# The records were dataclasses that set their fields in __post_init__;
# the test keeps that name, and now allows the write in __init__.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_object_setattr_only_in_post_init(path):
    lines = _setattr_outside_init(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} writes through object.__setattr__ on lines {lines}"


def test_setattr_reader_finds_writes():
    # Guards the reader: a write in __init__ passes, one in a method,
    # a nested function or at module level is found.
    source = (
        "class R:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "    def keep(self):\n"
        "        object.__setattr__(self, 'b', 2)\n"
        "def cache(r):\n"
        "    def inner():\n"
        "        object.__setattr__(r, 'c', 3)\n"
        "object.__setattr__(R(), 'd', 4)\n"
    )
    assert _setattr_outside_init(source) == [5, 8, 9]


def _numpy_random_uses(source: str) -> list[int]:
    """Lines that reach numpy.random: np.random / numpy.random or an import of it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.random") for alias in node.names
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.random")
            or (node.module == "numpy" and any(a.name == "random" for a in node.names))
        ):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_reaches_numpy_random(path):
    # Every draw comes from random.Random; numpy.random would also load
    # secrets, hashlib and OpenSSL in every command that touches it.
    lines = _numpy_random_uses(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} reaches numpy.random on lines {lines}"


def test_numpy_random_reader_finds_uses():
    # Guards the reader: attribute chains, annotations and each import
    # form are found; the stdlib random module and a .random attribute
    # of anything else are not.
    source = (
        "import random\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(1)\n"
        "def f(g: np.random.Generator) -> float:\n"
        "    return random.random() + g.random()\n"
        "import numpy.random\n"
        "from numpy import random as npr\n"
        "from numpy.random import SeedSequence\n"
        "x = numpy.random.rand()\n"
    )
    assert _numpy_random_uses(source) == [3, 4, 6, 7, 8, 9]


# numpy's vector products: vdot, dot and inner run BLAS level-1 or
# level-2 routines on vectors, tensordot calls dot, and einsum may too.
VECTOR_PRODUCTS = frozenset({"vdot", "dot", "inner", "einsum", "tensordot"})


def _vector_product_names(source: str) -> list[int]:
    """Lines that name a numpy vector product: an attribute, a bare name or an import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Attribute) and node.attr in VECTOR_PRODUCTS)
            or (isinstance(node, ast.Name) and node.id in VECTOR_PRODUCTS)
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name in VECTOR_PRODUCTS for alias in node.names))
        ):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_names_no_vector_product(path):
    # Every vector contraction is an elementwise product and a sum, so no
    # module names numpy's vector products (tests/test_cli.py::
    # TestNoVectorProducts runs the benchmark's commands with these names
    # refused).  A matrix-vector @ is not a name and is not seen here.
    lines = _vector_product_names(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} names a numpy vector product on lines {lines}"


def test_vector_product_reader_finds_names():
    # Guards the reader: a numpy attribute, an array method, an imported
    # name and a call of it are found; names only in text are not.
    source = (
        '"""np.vdot is named in this docstring."""\n'
        "import numpy as np\n"
        "x = np.vdot(a, b)  # np.dot in a comment\n"
        "y = a.dot(b)\n"
        "from numpy import einsum, sum\n"
        "z = einsum('i,i', a, b) + np.inner(a, b)\n"
        "w = np.sum(a * b.conj())\n"
    )
    assert _vector_product_names(source) == [3, 4, 5, 6]


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, `from __future__` aside.

    A read anywhere counts, so does a name inside a string annotation;
    an import under TYPE_CHECKING is judged like any other, and annotations
    are syntax even where they are never evaluated.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [
                arg.annotation
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_are_used(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_reader_finds_names():
    # Guards the reader: a name read in code, in an annotation, in a
    # string annotation or only under TYPE_CHECKING is used; an alias is
    # judged by the name it binds, and `import a.b` binds a.
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from .errors import check_int, exceeds, InputFormatError as IFE\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "    from decimal import Decimal\n"
        "def f(x: Sequence[int]) -> Fraction:\n"
        "    return check_int('x', x, 0)\n"
        "def g(y: 'Decimal') -> None:\n"
        "    return np.asarray(y)\n"
    )
    assert _unused_imports(source) == [
        "IFE (line 6)", "exceeds (line 6)", "math (line 2)", "os (line 3)"
    ]
