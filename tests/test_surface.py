"""Every public function and every module-level name of the layer modules
has a reader in the package.

A public top-level function that no code in ``src/weldlab`` reads, as a
module attribute or as a bare name no local variable shadows, is reachable
only from tests: it is either dead weight or kept on purpose, and then it
is on the allowlist with the reason. The same holds for every name a layer
module assigns at its top level, private or not, so that the constants of
a deleted helper cannot outlive it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weldlab"
LAYERS = ("series", "maps", "grunsky", "liouville", "fuchsian", "classical")

KEPT = {
    "schwarzian": "criterion 7 checks its Taylor path; its evaluator path "
                  "is the tests' oracle for that path",
    "grunsky_operator_residual": "criterion 3 measures the block relations "
                                 "of the operators with it",
    "s1_coefficient_route": "criterion 2's Parseval leg and the oracle of "
                            "the grid quadrature",
    "domain_from_samples": "input of the planned boundary-operator route "
                           "(ROADMAP item 2)",
    "evaluate": "the tests' Horner oracle of either grading at arbitrary "
                "points, against which the FFT evaluators are checked",
}


def _public_functions(tree):
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _assigned(tree):
    """Names a module binds by assignment at its top level."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _locals(fn):
    """Names bound inside a function: its parameters and every assignment
    target in its body (nested scopes included, which only errs strict)."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return ({p.arg for p in params}
            | {n.id for n in ast.walk(fn)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})


def _named(tree):
    """Identifiers a module reads as module-level bindings: every attribute,
    and every bare name that no local of the enclosing function shadows (a
    local variable ``theta`` is not a use of a function ``theta``)."""
    out = set()

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            shadowed = shadowed | _locals(node)
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in shadowed):
            out.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return out


def _unread(names_of):
    """The names ``names_of`` lists for a layer module that no module of
    the package reads and the allowlist does not keep."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_named(tree) for tree in trees.values()))
    return sorted(name for layer in LAYERS for name in names_of(trees[layer])
                  if name not in used and name not in KEPT)


def test_every_public_function_is_reached_or_kept():
    assert _unread(_public_functions) == []


def test_every_module_level_name_is_read_or_kept():
    assert _unread(_assigned) == []


def test_allowlist_names_existing_functions():
    trees = [ast.parse((PACKAGE / f"{layer}.py").read_text()) for layer in LAYERS]
    defined = {name for tree in trees
               for name in _public_functions(tree) + _assigned(tree)}
    assert set(KEPT) <= defined
