"""Every public name of the library has a caller in the library or the CLI.

A public top-level function or class that nothing in ``src/curvemvg``
refers to must be on the allow-list below, with the reason it stays.  A
reference is a name, an attribute or an import alias anywhere in the
sources outside the name's own definition; a docstring is not one.
"""
import ast
from pathlib import Path

import curvemvg

UNCALLED = {
    # pinned by the tests of the paper's properties they check
    "cone", "node_count", "find_nodes",
    # called by perfbench by name until its tangents are batched (ROADMAP item 1)
    "image_tangent", "multiply",
    # the plane-section decode of the Chow form meets its planes (ROADMAP item 14)
    "meet_planes",
    # replaced by the batched trajectory localizer (ROADMAP item 18)
    "localize_on_ray", "recover_static_point", "recover_line_motion",
}


def _public_and_referenced() -> tuple[set[str], set[str]]:
    public, referenced = set(), set()
    for path in Path(curvemvg.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    public.add(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    referenced.add(name)
    return public, referenced


def test_every_uncalled_public_name_is_on_the_allow_list():
    public, referenced = _public_and_referenced()
    assert public - referenced == UNCALLED
