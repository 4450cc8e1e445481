"""Every function and class defined in the library is named by the library
or by the benchmark; code that only the tests call is not kept.

A name counts as used wherever it appears, so a definition shares the fate
of every other definition or variable with the same name."""

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
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _named() -> set:
    """Every name, attribute and imported name the library and benchmark use."""
    out = set()
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
    return out


def _definitions():
    for path in LIBRARY:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node


def test_every_library_definition_is_named_outside_the_tests():
    named = _named()
    unreferenced = ["%s:%d %s" % (fname, node.lineno, node.name)
                    for fname, node in _definitions()
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in named and node.name not in TEST_API]
    assert not unreferenced, "defined but never named: %s" % ", ".join(unreferenced)


def test_test_api_entries_are_defined_and_otherwise_unused():
    # an entry goes once the library starts using it or deletes it
    defined = {node.name for _, node in _definitions()}
    assert set(TEST_API) <= defined
    assert not set(TEST_API) & _named()
