import ast
from pathlib import Path

import sphsep
from sphsep import errors

SRC = Path(errors.__file__).parent


def _raised_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.SphSepError)
        and obj is not errors.SphSepError
    }
    assert classes, "errors.py defines no SphSepError subclasses"
    never_raised = sorted(classes - _raised_names())
    assert never_raised == [], f"error classes nothing raises: {never_raised}"


def test_every_exported_name_has_a_caller_in_the_package():
    # no public API that only tests call: each name of sphsep.__all__ is
    # referenced, as a name or an attribute, by a module other than __init__
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(sphsep.__all__) - used)
    assert unused == [], f"exported names no package module references: {unused}"


def test_package_root_does_not_reexport_the_simplex():
    # the simplex's names are imported from sphsep.lp, and only from there
    from sphsep import lp

    assert sorted(set(sphsep.__all__) & set(lp.__all__)) == []
