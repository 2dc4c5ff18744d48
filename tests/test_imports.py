"""Static checks of the package's imports.

Every name a package module imports is read in that module. No linter
runs on this tree, so this is the check for an import that a deletion left
behind. Names the package re-exports through ``qin.__all__`` are exempt.
The same holds one level up: every public top-level function or class is
read somewhere, so a kernel whose last caller went is seen too.
Only qnn.py, which owns the QNN row split, imports a thread module.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qin"


def imports_and_reads(tree: ast.AST):
    """(bound name, line) of each import but __future__'s, and the set of
    names loaded anywhere in tree, those of quoted annotations included."""
    imports, reads = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                reads |= imports_and_reads(ast.parse(annotation.value, mode="eval"))[1]
        elif isinstance(node, ast.Import):
            imports += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports += [(a.asname or a.name, node.lineno) for a in node.names]
    return imports, reads


def exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    unused = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imports, reads = imports_and_reads(tree)
        reads |= exported(tree)
        names = [(name, line) for name, line in imports if name not in reads]
        if names:
            unused[path.name] = names
    assert unused == {}, f"imported but never read: {unused}"


def names_read(node: ast.AST) -> set:
    """Names node reads: loaded names (quoted annotations included),
    attribute names, and the names a from-import takes from its module."""
    reads = imports_and_reads(node)[1]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            reads |= {a.name for a in sub.names}
    return reads


def test_every_public_function_and_class_is_used():
    # A public top-level function or class is read in the package outside
    # its own definition, exported by qin.__all__, or read by the acceptance
    # suite, whose oracles and helpers it holds.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = exported(trees["__init__.py"]) | names_read(
        ast.parse((PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text()))
    readers = {}  # name -> the top-level statements that read it
    for tree in trees.values():
        for stmt in tree.body:
            for read in names_read(stmt):
                readers.setdefault(read, []).append(stmt)
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used
              and all(stmt is node for stmt in readers.get(node.name, []))]
    assert unused == [], f"defined but never used: {unused}"


def test_only_qnn_imports_threads():
    # The QNN row split is the package's one use of a second thread, and
    # qnn.py its one owner: no other module may start or share a thread.
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in ("concurrent", "threading") for m in modules):
                owners.add(path.name)
    assert owners == {"qnn.py"}


def imported_names(path: pathlib.Path) -> dict:
    """Module (as written, relative ones with their dots) -> the names
    path imports from it; a plain import maps its module to no names."""
    names = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.setdefault(module, set()).update(a.name for a in node.names)
    return names


def test_only_embedding_knows_the_item_layout():
    # The embedding module gathers each batch's item rows and scatters their
    # gradient into the id table; attention works on the rows it is given.
    # datagen sums store rows per sample for its truth model, not per item.
    summing = {path.name for path in sorted(PACKAGE.glob("*.py"))
               if any("segment_sum" in names for names in imported_names(path).values())}
    assert summing == {"datagen.py", "embedding.py"}
    asta = imported_names(PACKAGE / "asta.py")
    assert not any("embedding" in module or "embedding" in names
                   for module, names in asta.items())
