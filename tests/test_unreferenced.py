"""Every function and class defined in the library is named by the library
or by the benchmark; code that only the tests call is not kept.

A method counts as used only where it is named as an attribute (x.name): a
variable or function of the same name does not keep it.  A function or
class outside a class body counts as used through a bare name, an import,
or an attribute of its own module (verify.jacobi): a method of the same
name does not keep it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "fockrep").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# public API that only the tests call, with what needs it
TEST_API = {
    "charpoly_equivalence": "criterion 6 compares restricted characteristic polynomials",
    "verify_constants": "criterion 9 re-verifies perturbed structure constants",
    "perturbed": "criterion 9 corrupts one structure constant at a time",
    "embed": "criterion 8 checks the spectral and transformed q-pairs",
    "q_pair_fd": "criterion 8 checks the displayed finite-difference q-pair",
    "check_fd_displayed": "test_realize checks the displayed fd closed forms",
    "super_bracket": "test_catalogue and test_weyl check graded brackets",
    "catalogue_ids": "test_catalogue checks the registry order",
    "is_rational": "test_linalg and test_verify check where sqrt2 enters",
    "state": "FockVector.state builds the tests' Fock vectors",
    "vacuum": "FockVector.vacuum is the tests' start vector",
    "atil": "criterion 7 checks q-normal ordering from QWeylElement.atil",
    "btil": "criterion 7 checks q-normal ordering from QWeylElement.btil",
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _uses():
    """(attributes, names, module_attributes): every attribute the library
    and benchmark name; every bare and imported name they use; and every
    (module, name) for an attribute of a library module (verify.jacobi,
    fockrep.verify.jacobi)."""
    modules = {path.stem for path in LIBRARY}
    attributes, names, module_attributes = set(), set(), set()
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                owner = node.value
                owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if owner in modules:
                    module_attributes.add((owner, node.attr))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return attributes, names, module_attributes


def _definitions():
    """(file name, node, is_method) for every function and class."""
    for path in LIBRARY:
        tree = _parse(path)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node, id(node) in methods


def _used_definitions() -> set:
    """The definitions the library or benchmark use, by (file name, line)."""
    attributes, names, module_attributes = _uses()
    return {(fname, node.lineno) for fname, node, is_method in _definitions()
            if (node.name in attributes if is_method else
                node.name in names or (fname[:-len(".py")], node.name) in module_attributes)}


def test_every_library_definition_is_named_outside_the_tests():
    used = _used_definitions()
    unreferenced = ["%s:%d %s" % (fname, node.lineno, node.name)
                    for fname, node, _ in _definitions()
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and (fname, node.lineno) not in used and node.name not in TEST_API]
    assert not unreferenced, "defined but never named: %s" % ", ".join(unreferenced)


def test_test_api_entries_are_defined_and_otherwise_unused():
    # an entry goes once the library starts using it or deletes it
    used = _used_definitions()
    entries = [(fname, node.lineno, node.name) for fname, node, _ in _definitions()
               if node.name in TEST_API]
    assert {name for _, _, name in entries} == set(TEST_API)
    assert not [name for fname, line, name in entries if (fname, line) in used]
