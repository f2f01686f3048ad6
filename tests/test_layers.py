"""The layering of the package: which sibling modules each module imports.

The exact layer (fock, virasoro, defect), the symbolic layer (ness, su2k)
and the lattice oracle return values and import nothing across layers.
Only cli composes the layers and writes reports, and it alone opens files.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "neqcft"

# the sibling modules each library module may import
ALLOWED = {
    "fock": set(),
    "virasoro": {"fock"},
    "defect": {"fock", "virasoro"},
    "ness": set(),
    "su2k": {"ness"},
    "lattice": set(),
}
LAYER = {"fock": "exact", "virasoro": "exact", "defect": "exact",
         "ness": "symbolic", "su2k": "symbolic", "lattice": "lattice"}
# __init__ imports every module once for its start-up (see its docstring) and
# composes nothing
UNRESTRICTED = {"cli", "__init__"}


def sibling_imports(module):
    """Names of the package's modules that ``module`` imports, at any depth of its body."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                if node.module is None:  # from . import a, b
                    names.update(a.name for a in node.names)
                else:  # from .a import x
                    names.add(node.module.split(".")[0])
            elif node.module == "neqcft":
                names.update(a.name for a in node.names)
            elif node.module and node.module.startswith("neqcft."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("neqcft."))
    return names


def test_every_module_has_a_place():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED) | UNRESTRICTED


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_library_module_imports_only_what_it_may(module):
    assert sibling_imports(module) <= ALLOWED[module]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_only_cli_imports_across_layers(module):
    assert {LAYER[name] for name in sibling_imports(module)} <= {LAYER[module]}


def test_cli_composes_every_layer():
    assert {LAYER[name] for name in sibling_imports("cli")} == set(LAYER.values())


def opened_files(module):
    """Calls in ``module`` that open a file: the builtin open and any .open method."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "open"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "open")]


def test_cli_opens_files():
    assert opened_files("cli")


@pytest.mark.parametrize("module", sorted(ALLOWED) + ["__init__"])
def test_only_cli_opens_files(module):
    assert opened_files(module) == []


def functions_naming(module, name):
    """Qualified names of the functions and classes of ``module`` whose code names ``name``.

    A use at module level is reported as ``<module>``; an import of ``name``
    counts as a use.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name.split(".")[-1] == name):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), [])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED) + sorted(UNRESTRICTED))
def test_no_module_calls_simplify(module):
    # sp.simplify is slow and loads sympy.physics; the tests keep it as their oracle
    assert functions_naming(module, "simplify") == []


def test_trigsimp_only_prints_field_expressions():
    # the short trig form is for the printed report, never for a verdict
    uses = {m: functions_naming(m, "trigsimp") for m in sorted(ALLOWED) + sorted(UNRESTRICTED)}
    assert {m: found for m, found in uses.items() if found} == {"ness": ["FieldExpression.__str__"]}
