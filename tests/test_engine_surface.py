"""The engine carries no function that nothing in src/ calls, apart from a
listed few that open ROADMAP items or tests claim, and no import that its
module never uses.  A new unused function fails here, and so does a listed
name that is gone or has gained a caller in src/, so the list cannot rot.

References are found by name: a module-level function counts as used when
some other function or module body names it (a load, an import or an
attribute), a method when some attribute access outside it has its name.
So a method that shares its name with a called method of another class
(or with any attribute read anywhere in src/) is invisible here, however
dead it is: that is how `P1Geometry.is_tame` (shadowed by
`CoverData.is_tame`) and `RatFunc.evaluate` and `RatFunc.map_field`
(shadowed by the `Poly` methods) outlived the first sweep.

An import is used when its module loads the bound name (a module-level
import anywhere in the module, one inside a function in that function),
string annotations included; `__init__.py` re-exports are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equirr"

KEPT = {
    # claimed by open ROADMAP items
    "reps.rep_dual": "ROADMAP item 9 (Serre duality)",
    "geometry.fiber_character": "ROADMAP items 9-10 (fiber classes)",
    "reps.rep_tensor": "ROADMAP item 10 (E = O(D) tensor V)",
    # the summand split: a tracer target and the tests' reference Cartan
    "reps.indecomposable_summands": "perfbench tracer target; test-time "
                                    "cross-check of the Brauer Cartan matrix",
}


def _definitions():
    """(qualified name, def node, is method) for every function and
    method of every module under src/equirr."""
    out = []
    trees = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        trees[path.stem] = tree
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        out.append((f"{path.stem}.{node.name}.{sub.name}",
                                    sub, True))
    return out, trees


def _references(trees):
    """name -> ids of the innermost enclosing defs (None at module level)
    that load, import or attribute-access it; names and attributes apart."""
    names, attrs = {}, {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx,
                                                           ast.Load):
                names.setdefault(child.id, set()).add(owner)
            elif isinstance(child, ast.Attribute):
                attrs.setdefault(child.attr, set()).add(owner)
            elif isinstance(child, ast.alias):
                names.setdefault(child.name, set()).add(owner)
            visit(child, id(child) if isinstance(child, ast.FunctionDef)
                  else owner)

    for tree in trees.values():
        visit(tree, None)
    return names, attrs


def unreferenced():
    defs, trees = _definitions()
    names, attrs = _references(trees)
    out = set()
    for qual, node, is_method in defs:
        short = node.name
        if short.startswith("__") and short.endswith("__"):
            continue
        users = set(attrs.get(short, ()))
        if not is_method:
            users |= names.get(short, set())
        users.discard(id(node))  # recursion is not a caller
        if not users:
            out.add(qual)
    return out


def test_every_engine_function_has_a_caller_or_a_claim():
    found = unreferenced()
    assert found - set(KEPT) == set(), \
        "functions nothing in src/ calls: delete them or claim them in KEPT"
    assert set(KEPT) - found == set(), \
        "KEPT names that are gone or now have a caller in src/: unlist them"


def _loaded_names(scope):
    """Every name loaded in scope, string annotations included."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                out |= _loaded_names(ast.parse(note.value, mode="eval"))
    return out


def unused_imports():
    """module.name for every import whose bound name its scope never
    loads; a scope is a module or a function, and holds the imports that
    are statements of its own body."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, ast.FunctionDef)]
        for scope in scopes:
            bound = set()
            for stmt in scope.body:
                if isinstance(stmt, ast.Import):
                    bound |= {(a.asname or a.name).split(".")[0]
                              for a in stmt.names}
                elif isinstance(stmt, ast.ImportFrom) and \
                        stmt.module != "__future__":
                    bound |= {a.asname or a.name for a in stmt.names}
            out |= {f"{path.stem}.{name}"
                    for name in bound - _loaded_names(scope)}
    return out


def test_every_engine_import_is_used():
    assert unused_imports() == set(), \
        "imports their module never uses: delete them"


# The modules a command runs outside reps; reps.chop is the only engine
# code that draws, from a source of its own.
NO_SOURCE = ("engine", "scenarios", "cli", "k0", "geometry")


def _takes_a_source(node: ast.FunctionDef) -> bool:
    """Whether a def has a parameter named rng or annotated with a
    random.Random."""
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs + [
            args.vararg, args.kwarg]:
        if arg is None:
            continue
        note = arg.annotation
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            note = ast.parse(note.value, mode="eval")
        if arg.arg == "rng" or (note is not None
                                and "Random" in ast.dump(note)):
            return True
    return False


def test_no_command_code_takes_a_random_source():
    defs, _ = _definitions()
    takers = {qual for qual, node, _ in defs
              if qual.split(".")[0] in NO_SOURCE and _takes_a_source(node)}
    assert takers == set()
    registry = {qual: node for qual, node, _ in defs
                if qual.startswith("reps.SimpleRegistry.")}
    assert not _takes_a_source(registry["reps.SimpleRegistry.__init__"])
    assert not _takes_a_source(
        registry["reps.SimpleRegistry.over_extension"])
    # the guard sees a source where there is one
    assert _takes_a_source(
        [node for qual, node, _ in defs if qual == "reps.chop"][0])
