"""Every public function and every module-level name of the layer modules
has a reader in the package.

A public top-level function that no code in ``src/weldlab`` reads, as a
module attribute or as a bare name no local variable shadows, is reachable
only from tests: it is either dead weight or kept on purpose, and then it
is on the allowlist with the reason. The same holds for every name a layer
module assigns at its top level, private or not, so that the constants of
a deleted helper cannot outlive it. No layer module imports ``json``: the
command line writes every report, so the report format has one owner.
Every public function of ``tests/references.py`` has a reader among the
test modules, so a reference cannot outlive the test that held a routine
to it, and every allowlisted name has a reader among the test modules, so
an allowlist entry cannot outlive the test that kept it. The command line
builds its parsers from its table and reads none of argparse's internals
back, every flag of the table that takes a value has it converted where
it is declared, and its ``logdet --route`` choices are the routes of the
potential.
Its family names are the rows of ``maps.FAMILIES``, the parameters of the
rows are the parameter flags of the family commands, and no function but
``maps.star_pair`` calls ``WeldingPair``, so every pair has its curve
checked. One recipe, ``maps._side_map``, is the only caller of
``theodorsen_interior``, so the pair and the single-map catalog make a
missing map alike, and no function but ``maps._catalog_cached`` calls
``star_pair``, so a route that reads one map (``maps.one_map``) cannot
rebuild a pair around it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "weldlab"
LAYERS = ("series", "maps", "grunsky", "liouville", "fuchsian", "classical")

KEPT = {
    "schwarzian": "criterion 7 and the Fuchsian tests read its series "
                  "arithmetic",
    "grunsky_operator_residual": "criterion 3 measures the block relations "
                                 "of the operators with it",
    "s1_coefficient_route": "criterion 2's Parseval leg and the oracle of "
                            "the grid quadrature",
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


def _imported_modules(tree):
    """Top-level package names a module imports, anywhere in its body."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_layer_imports_json():
    importers = [layer for layer in LAYERS
                 if "json" in _imported_modules(
                     ast.parse((PACKAGE / f"{layer}.py").read_text()))]
    assert importers == []


def _test_reads():
    """Identifiers the test modules read as module-level bindings."""
    return set().union(*(_named(ast.parse(path.read_text()))
                         for path in TESTS.glob("test_*.py")))


def test_every_reference_has_a_reader():
    references = _public_functions(ast.parse((TESTS / "references.py").read_text()))
    assert sorted(set(references) - _test_reads()) == []


def test_every_kept_name_has_a_test_reader():
    assert sorted(set(KEPT) - _test_reads()) == []


def test_cli_reads_no_argparse_internals():
    # no private argparse name, and no parser's actions read or defaults
    # rewritten after it is built
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = {ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and (node.attr in ("_actions", "set_defaults")
                  or (node.attr.startswith("_")
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "argparse"))}
    found |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "argparse"
              for alias in node.names if alias.name.startswith("_")}
    assert sorted(found) == []


def test_every_flag_value_is_converted_where_it_is_declared():
    # argparse reads every value, so no handler parses a flag string: a
    # flag is a switch, has a type or choices, or is a path kept as given
    from weldlab import cli
    unconverted = sorted({names[0] for _, _, flags in cli._COMMANDS.values()
                          for names, keywords in flags
                          if keywords.get("action") != "store_true"
                          and not {"type", "choices"} & set(keywords)
                          and names[0] not in ("--out", "--config", "file")})
    assert unconverted == []


def test_logdet_route_choices_are_the_potential_routes():
    # the command line lists the choices itself, so that building its
    # parser loads no layer module; they must stay the keys of
    # grunsky.ROUTES, which names the side of the pair each route reads
    from weldlab import cli, grunsky
    flags = {names[0]: keywords for names, keywords in cli._COMMANDS["logdet"][2]}
    assert tuple(flags["--route"]["choices"]) == tuple(grunsky.ROUTES)
    assert grunsky.ROUTES == {"b1": "interior", "b4": "exterior"}


def test_cli_families_are_the_catalog_rows():
    # the command line lists the names itself, so that building its parser
    # loads no layer module; they must stay the rows of maps.FAMILIES, and
    # the parameter flags of the family commands, which the command line
    # passes to the catalog, must be the parameters the rows read
    from weldlab import cli, maps
    assert cli.FAMILIES == tuple(maps.FAMILIES)
    assert cli._FAMILY[1:] == cli._PARAMS
    flags = {name for names, _ in cli._PARAMS for name in names}
    params = {name for names, _ in maps.FAMILIES.values() for name in names}
    assert {f"--{name}" for name in params} == flags


def _callers(tree, name):
    """The innermost function (``<module>`` outside any) of every call of
    ``name``, as a bare name or an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_star_pair_makes_a_pair():
    # every pair is gauged and has its curve checked where it is made
    callers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in _callers(ast.parse(path.read_text()), "WeldingPair")}
    assert callers == {"maps.star_pair"}


def test_one_recipe_solves_a_map():
    # the pair and the single map of a route make a missing map alike
    callers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in _callers(ast.parse(path.read_text()),
                                     "theodorsen_interior")}
    assert callers == {"maps._side_map"}


def test_only_the_catalog_builds_a_pair():
    # a single-map read (a logdet route, the inversion check's reflected
    # map) goes through one_map, never through a pair it does not read
    callers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in _callers(ast.parse(path.read_text()), "star_pair")}
    assert callers == {"maps._catalog_cached"}
