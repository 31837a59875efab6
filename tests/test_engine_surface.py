"""The engine carries no function that nothing in src/ calls, apart from a
listed few that open ROADMAP items or tests claim.  A new unused
function fails here, and so does a listed name that is gone or has gained
a caller in src/, so the list cannot rot.

References are found by name: a module-level function counts as used when
some other function or module body names it (a load, an import or an
attribute), a method when some attribute access outside it has its name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equirr"

KEPT = {
    # claimed by open ROADMAP items
    "reps.rep_dual": "ROADMAP item 3 (Serre duality)",
    "geometry.fiber_character": "ROADMAP item 3 (fiber classes)",
    "reps.rep_tensor": "ROADMAP item 4 (E = O(D) tensor V)",
    # the summand split: a tracer target and the tests' reference Cartan
    "reps.indecomposable_summands": "perfbench tracer target; test-time "
                                    "cross-check of the Brauer Cartan matrix",
    "reps.regular_endomorphisms": "End(k[G]) for the test-time "
                                  "cross-check of the Brauer Cartan matrix",
    "reps.rep_regular": "tests' reference k[G]",
    # small utilities that tests use
    "fields.embed": "test_fields, test_matrices",
    "fields.Field.div": "test_fields",
    "fields.Field.elements": "test_fields, test_matrices",
    "fields.RatFunc.valuation_at": "test_fields, test_geometry",
    "matrices.Mat.to_lists": "test_geometry, test_matrices",
    "geometry.places_up_to": "test_geometry",
    "reps.rep_direct_sum": "test_reps, test_acceptance",
    "reps.SimpleRegistry.basis_vector": "test_k0",
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
