"""Every function and class defined in the library is reached by code the
library or the benchmark runs, and every dataclass field is read there;
code and data that only the tests use are not kept.

A function or class at module level counts as used only where it is
reachable: from the library's module-level code (CHECKS, FAMILIES, the
package exports, `python -m fockrep`), from cli.main, from anything in
perfbench/, or from a TEST_API entry, through the top-level definitions
those name.  A name is resolved to its defining module through the
imports of the file that uses it, and an attribute of a library module
(verify.jacobi) to that module's definition; a local variable named like
a definition keeps it, so the graph may over-reach, never under-reach.
A method counts as used only where it is named as an attribute (x.name)
by the library or the benchmark, and any other definition (a function
inside a function, a class inside a class) only where its name is used
as a bare name there.  A dataclass field counts as read only where it is
read as an attribute (x.field); a constructor keyword or an assignment
does not keep it.  As with methods, any read of its name keeps a field,
so a dead field named like a live one (a RepSpec.description beside the
read InvariantSpace.description) is not caught.

Every parameter with a default of a module-level library function is
passed by some call in the library or the benchmark, by keyword, by
position or through * or **: a default no caller overrides is a constant,
not a knob.  A call counts wherever its callee is named like the function,
bare or as an attribute, so here too the check may over-reach, never
under-reach.

Every name a library module imports is used in that module as a bare name,
or listed in its __all__: an import the code no longer uses is dropped with
that code."""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "fockrep").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {path.stem for path in LIBRARY}

# public API that only the tests call, with what needs it
TEST_API = {}


@cache
def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _imports(tree) -> dict:
    """alias -> (module, name) for every name the file imports from a
    library module, anywhere in the file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            if module in MODULES:
                for alias in node.names:
                    out[alias.asname or alias.name] = (module, alias.name)
    return out


def _named(nodes, module, imports) -> set:
    """(module, name) for every name the nodes use: a bare name, defined in
    module or imported, or an attribute of a library module."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(imports.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                if owner in MODULES:
                    out.add((owner, node.attr))
    return out


@cache
def _graph():
    """(definitions, roots, imports): each top-level function or class as
    (module, name) -> the (module, name) its body names; what module-level
    code, cli.main and the benchmark name; and each library module's
    imports (_imports)."""
    definitions, roots, imports = {}, {("cli", "main")}, {}
    for path in LIBRARY:
        tree = _parse(path)
        imports[path.stem] = _imports(tree)
        rest = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions[(path.stem, stmt.name)] = _named([stmt], path.stem,
                                                             imports[path.stem])
            elif path.stem == "__init__" or not isinstance(stmt, ast.ImportFrom):
                rest.append(stmt)  # the package exports are its imports
        roots |= _named(rest, path.stem, imports[path.stem])
    for path in BENCHMARK:
        tree = _parse(path)
        roots |= _named([tree], None, _imports(tree))
    return definitions, roots, imports


def _reachable(extra_roots=()) -> set:
    """The top-level definitions reachable from the roots and extra_roots;
    a name a module re-exports resolves to its defining module."""
    definitions, roots, imports = _graph()

    def resolve(ref):
        while ref not in definitions and ref[1] in imports.get(ref[0], {}):
            ref = imports[ref[0]][ref[1]]
        return ref

    seen, stack = set(), [resolve(ref) for ref in list(roots) + list(extra_roots)]
    while stack:
        ref = stack.pop()
        if ref in definitions and ref not in seen:
            seen.add(ref)
            stack.extend(resolve(r) for r in definitions[ref])
    return seen


def _uses():
    """(attributes, reads, names): every attribute the library and benchmark
    name, every attribute they read, and every bare name they use."""
    attributes, reads, names = set(), set(), set()
    for path in LIBRARY + BENCHMARK:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return attributes, reads, names


def _inner():
    """(file name, node, is_method) for every function and class below
    module level: a function in a class body is a method."""
    for path in LIBRARY:
        tree = _parse(path)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        top = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and id(node) not in top:
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


def _test_api_roots():
    return [ref for ref in _graph()[0] if ref[1] in TEST_API]


def test_every_library_definition_is_named_outside_the_tests():
    reached = _reachable(_test_api_roots())
    unreached = ["%s.py %s" % ref for ref in _graph()[0] if ref not in reached]
    attributes, _, names = _uses()
    unnamed = ["%s:%d %s" % (fname, node.lineno, node.name)
               for fname, node, is_method in _inner()
               if not (node.name.startswith("__") and node.name.endswith("__"))
               and node.name not in (attributes if is_method else names)
               and node.name not in TEST_API]
    assert not unreached, "reached only by the tests: %s" % ", ".join(sorted(unreached))
    assert not unnamed, "defined but never named: %s" % ", ".join(unnamed)


def test_every_dataclass_field_is_read_outside_the_tests():
    reads = _uses()[1]
    unread = ["%s:%d %s" % field for field in _fields()
              if field[2] not in reads and field[2] not in TEST_API]
    assert not unread, "dataclass fields never read: %s" % ", ".join(unread)


def test_test_api_entries_are_defined_and_otherwise_unused():
    # an entry goes once the library starts using it or deletes it
    attributes, reads, _ = _uses()
    top = _test_api_roots()
    methods = [node.name for _, node, is_method in _inner() if is_method
               and node.name in TEST_API]
    fields = [name for _, _, name in _fields() if name in TEST_API]
    assert {name for _, name in top} | set(methods) | set(fields) == set(TEST_API)
    assert not set(top) & _reachable()
    assert not set(methods) & attributes
    assert not set(fields) & reads


def _defaulted_parameters():
    """(module, function, parameter, position) for every parameter with a
    default of a module-level library function; position is its index
    among the positional parameters, None for a keyword-only one."""
    for path in LIBRARY:
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for position in range(first, len(positional)):
                    yield path.stem, stmt.name, positional[position].arg, position
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield path.stem, stmt.name, arg.arg, None


def _passes(call, parameter, position) -> bool:
    """The call gives the parameter a value."""
    return (any(kw.arg in (parameter, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or position is not None and len(call.args) > position)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = {}  # callee name -> the calls naming it
    for path in LIBRARY + BENCHMARK:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = ["%s.%s %s" % (module, name, parameter)
                for module, name, parameter, position in _defaulted_parameters()
                if not any(_passes(call, parameter, position) for call in calls.get(name, ()))]
    assert not unpassed, "defaulted parameters no call passes: %s" % ", ".join(unpassed)


def _imported(tree):
    """(name, line) for every name the module binds by an import, the
    __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported(tree) -> set:
    """The names the module lists in __all__."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_every_library_import_is_used_in_its_module():
    unused = []
    for path in LIBRARY:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _imported(tree) if name not in used]
    assert not unused, "imported but never used: %s" % ", ".join(unused)
