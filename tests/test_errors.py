import ast
from pathlib import Path

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
