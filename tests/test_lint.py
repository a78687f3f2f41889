"""Source lint over src/odirac: a function reads every parameter it takes."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "odirac")


def _functions_outside_class_bodies(tree):
    """Every function whose definition does not sit directly in a class body.

    Methods are exempt: an override such as `FiniteWindow.materialized(w)`
    keeps the signature of the method it overrides.  Functions nested in
    functions or in methods are checked.
    """
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_class:
                yield child
            stack.append((child, isinstance(child, ast.ClassDef)))


def _unread_parameters(fn):
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
    read = {n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_functions_read_every_parameter():
    unread = []
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            unread += [f"{os.path.relpath(path, SRC)}:{fn.lineno} {fn.name}: {p}"
                       for fn in _functions_outside_class_bodies(tree)
                       for p in _unread_parameters(fn)]
    assert not unread, "\n".join(unread)
