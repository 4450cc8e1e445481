"""Every function and class defined in the library is named by the library
or by the benchmark, and every dataclass field is read there; code and data
that only the tests use are not kept.

A method counts as used only where it is named as an attribute (x.name): a
variable or function of the same name does not keep it.  A function or
class outside a class body counts as used through a bare name, an import,
or an attribute of its own module (verify.jacobi): a method of the same
name does not keep it.  A dataclass field counts as read only where it is
read as an attribute (x.field); a constructor keyword or an assignment does
not keep it.  As with methods, any read of its name keeps a field, so a
dead field named like a live one (a RepSpec.description beside the read
InvariantSpace.description) is not caught."""

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
    "q_pair_fd": "criterion 8 checks the displayed finite-difference q-pair",
    "check_fd_displayed": "test_realize checks the displayed fd closed forms",
    "is_rational": "test_linalg and test_verify check where sqrt2 enters",
    "atil": "criterion 7 checks q-normal ordering from QWeylElement.atil",
    "btil": "criterion 7 checks q-normal ordering from QWeylElement.btil",
    "abelian_ideal": "test_killing_vanishes_on_abelian_ideal reads Claims.abelian_ideal",
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _uses():
    """(attributes, names, module_attributes, reads): every attribute the
    library and benchmark name; every bare and imported name they use; every
    (module, name) for an attribute of a library module (verify.jacobi,
    fockrep.verify.jacobi); and every attribute they read."""
    modules = {path.stem for path in LIBRARY}
    attributes, names, module_attributes, reads = set(), set(), set(), set()
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                owner = node.value
                owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if owner in modules:
                    module_attributes.add((owner, node.attr))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return attributes, names, module_attributes, reads


def _definitions():
    """(file name, node, is_method) for every function and class."""
    for path in LIBRARY:
        tree = _parse(path)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node, id(node) in methods


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass"


def _fields():
    """(file name, line, field name) for every dataclass field."""
    for path in LIBRARY:
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield path.name, stmt.lineno, stmt.target.id


def _used_definitions() -> set:
    """The definitions the library or benchmark use, by (file name, line)."""
    attributes, names, module_attributes, _ = _uses()
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


def test_every_dataclass_field_is_read_outside_the_tests():
    reads = _uses()[3]
    unread = ["%s:%d %s" % field for field in _fields()
              if field[2] not in reads and field[2] not in TEST_API]
    assert not unread, "dataclass fields never read: %s" % ", ".join(unread)


def test_test_api_entries_are_defined_and_otherwise_unused():
    # an entry goes once the library starts using it or deletes it
    used = _used_definitions()
    reads = _uses()[3]
    entries = [(fname, node.lineno, node.name) for fname, node, _ in _definitions()
               if node.name in TEST_API]
    fields = [field for field in _fields() if field[2] in TEST_API]
    assert {name for _, _, name in entries + fields} == set(TEST_API)
    assert not [name for fname, line, name in entries if (fname, line) in used]
    assert not [name for _, _, name in fields if name in reads]
