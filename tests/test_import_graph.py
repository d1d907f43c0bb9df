"""The package's import graph: numpy and the standard library from outside,
and inside the package only modules lower in its layering, so no module
reaches up (masking into tasks, say) and no third-party import creeps in."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "maskterm"
LAYERS = ("exceptions", "autodiff", "corpus", "encoder", "masking", "tasks", "training", "cli")


def imported(tree: ast.Module) -> list[str]:
    """The dotted name of everything a module imports, relative imports
    spelt from `maskterm`: `from . import encoder` gives `maskterm.encoder`."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("maskterm." if node.level else "") + (node.module or "")
            names += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return names


def test_every_module_is_layered():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_stdlib_numpy_and_lower_layers_only(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    below = set(LAYERS[:LAYERS.index(module)])
    for name in imported(tree):
        top, _, rest = name.partition(".")
        if top == "maskterm":
            assert rest.partition(".")[0] in below, f"{module} imports {name}, not below it"
        else:
            assert top in sys.stdlib_module_names or top == "numpy", \
                f"{module} imports {name}, neither numpy nor the standard library"


THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}


@pytest.mark.parametrize("module", ("__init__",) + LAYERS)
def test_only_autodiff_starts_threads(module):
    """The one worker of `autodiff.streams` is the only thread the package
    starts: no other module imports a thread or process library."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    tops = {name.partition(".")[0] for name in imported(tree)}
    assert bool(tops & THREAD_MODULES) == (module == "autodiff"), sorted(tops & THREAD_MODULES)


# Where the package may run work on the worker: the backward of
# `autodiff.join`, the training cut in `tasks` and evaluation's streams.
STREAMS_SITES = {("autodiff", "join.backward_parts"), ("tasks", "AbsaModel._forwards"),
                 ("training", "_predict_by_length")}
# Where the package touches the worker itself: `streams` submits to it, and
# `_new_worker` makes it, at import and in a forked child.
WORKER_SITES = {("autodiff", "_new_worker"), ("autodiff", "streams")}


def sites(name: str) -> set:
    """(module, qualified name of the enclosing function) of every reference
    to `name`, bare or as an attribute, outside its own definition, over the
    whole package; importing it by name fails."""
    found = set()

    def visit(module, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.ImportFrom):
            assert all(alias.name != name for alias in node.names), f"{module} imports {name}"
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(module, child, scope)

    for module in ("__init__",) + LAYERS:
        visit(module, ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), ())
    return found


def test_streams_runs_only_in_the_join_the_training_cut_and_evaluation():
    """Only training cuts a batch, evaluation streams its chunks, and a join
    walks its parts on two threads; a fourth place that runs work on the
    worker shows here."""
    assert sites("streams") == STREAMS_SITES


def test_only_the_amom_adapter_names_amom_in_tasks():
    """`AbsaModel.amom` is the one place the model tests for AMOM: every
    batch runs through it, so no other forward, loss or prediction path
    branches on the strategy. Prose (docstrings) may name it."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Constant) and node.value == "amom":
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((PACKAGE / "tasks.py").read_text(encoding="utf-8")), ())
    assert found == {"AbsaModel.amom"}


def test_only_streams_touches_the_worker():
    assert sites("_WORKER") == WORKER_SITES
    assert sites("submit") == {("autodiff", "streams")}
