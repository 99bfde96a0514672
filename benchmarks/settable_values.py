"""Count the settable values of the effkit package.

A settable value is a parameter with a default (positional or keyword-only,
lambdas included) or a dataclass field, each field of a config object
counted with or without a default: dropping a field's default leaves the
total as it was, dropping the field lowers it. The count is read from the
syntax tree of every module in ``src/effkit``, so nothing is imported.
It prints the defaulted-parameter, dataclass-field and total counts:

    python benchmarks/settable_values.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "effkit"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count(tree: ast.AST) -> tuple[int, int]:
    """(defaulted parameters, dataclass fields) in one module's tree; a
    field is an annotated statement in a dataclass body."""
    defaulted = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaulted += len(node.args.defaults)
            defaulted += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return defaulted, fields


def main() -> None:
    defaulted = fields = 0
    for path in sorted(SRC.glob("*.py")):
        d, f = count(ast.parse(path.read_text(), filename=str(path)))
        defaulted += d
        fields += f
    print(f"defaulted parameters: {defaulted}")
    print(f"dataclass fields: {fields}")
    print(f"total: {defaulted + fields}")


if __name__ == "__main__":
    main()
