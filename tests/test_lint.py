"""Source lint over src/odirac: a function reads every parameter it takes,
every function and method reads every local it assigns, every attribute
stored on `self` is read somewhere, a private name is read only in the
module that defines it, every def and class is read somewhere, and no
module-level function only passes its parameters on to one call."""

import ast
import os
import re
from collections import Counter

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "odirac")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")


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


def _unread_locals(fn):
    """(line, name) of each name fn assigns and never reads.

    Reads in nested functions count, names declared global or nonlocal
    are exempt, and so are names starting with "_", the marker of a
    value unpacked only to be dropped.
    """
    declared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                for name in n.names}
    stored, read = {}, set()
    for n in (n for stmt in fn.body for n in ast.walk(stmt)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            stored.setdefault(n.id, n.lineno)
    return sorted((line, v) for v, line in stored.items()
                  if v not in read and v not in declared and not v.startswith("_"))


def _trees(root=SRC):
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                yield os.path.relpath(path, root), ast.parse(fh.read(), path)


def test_functions_read_every_parameter():
    unread = [f"{path}:{fn.lineno} {fn.name}: {p}"
              for path, tree in _trees()
              for fn in _functions_outside_class_bodies(tree)
              for p in _unread_parameters(fn)]
    assert not unread, "\n".join(unread)


def test_functions_and_methods_read_every_local():
    unread = [f"{path}:{line} {fn.name}: {v}"
              for path, tree in _trees()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for line, v in _unread_locals(fn)]
    assert not unread, "\n".join(unread)


def test_attributes_stored_on_self_are_read():
    """Every attribute name src/odirac assigns on `self` is read as an attribute
    of some object, or named in a string (a `__dict__` key, a `getattr`
    name), somewhere in src/odirac or tests.  An augmented assignment reads
    its target."""
    stored, read = {}, set()
    for root in (SRC, TESTS):
        for path, tree in _trees(root):
            for n in ast.walk(tree):
                if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute):
                    read.add(n.target.attr)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    read.add(n.value)
                elif root is SRC and isinstance(n, ast.Attribute) and \
                        isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name) and \
                        n.value.id == "self":
                    stored.setdefault(n.attr, f"{path}:{n.lineno}")
    unread = [f"{where} self.{attr}" for attr, where in sorted(stored.items())
              if attr not in read]
    assert not unread, "\n".join(unread)


def _defined_names(tree):
    """Every name a module defines: its functions, methods and classes, and
    every name or attribute it assigns."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
    return out


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_names_are_read_in_their_own_module():
    """Every read `x._name` in src/odirac, x not `self` or `cls`, names
    something the same file defines, and no `from ... import _name` takes
    a private name from another module; dunder names are exempt."""
    foreign = []
    for path, tree in _trees():
        defined = _defined_names(tree)
        foreign += [f"{path}:{n.lineno} {ast.unparse(n)}" for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and _private(n.attr)
                    and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))
                    and n.attr not in defined]
        foreign += [f"{path}:{n.lineno} {ast.unparse(n)}" for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom)
                    and any(_private(a.name) for a in n.names)]
    assert not foreign, "\n".join(foreign)


_DOTTED = re.compile(r"[\w.:*]+")  # "module:Class.name", "Class.*name", a getattr name


def _docstrings(tree):
    return {id(body[0].value) for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            for body in [n.body]
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)}


def _name_reads(node, skip=frozenset()):
    """Counter of the names read under node: loaded names and attributes,
    and each part of a string that is a dotted path (a tracer target, a
    getattr name); strings in `skip` (docstrings) are not read."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in skip \
                and _DOTTED.fullmatch(n.value):
            out.update(w for w in re.split(r"[.:*]", n.value) if w)
    return out


def test_every_definition_is_read():
    """Every def and class in src/odirac is read by name somewhere in
    src/odirac, tests or perfbench outside its own body; dunder methods
    are exempt.  Code that nothing reads does not stay in src."""
    reads, defs = Counter(), []
    for root in (SRC, TESTS, PERFBENCH):
        for path, tree in _trees(root):
            skip = _docstrings(tree)
            reads += _name_reads(tree, skip)
            if root is SRC:
                defs += [(path, n, skip) for n in ast.walk(tree)
                         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                         and not (n.name.startswith("__") and n.name.endswith("__"))]
    unread = [f"{path}:{n.lineno} {n.name}" for path, n, skip in defs
              if reads[n.name] == _name_reads(n, skip)[n.name]]
    assert not unread, "\n".join(unread)


# Module-level functions that perfbench/tracer.py binds as timing targets:
# they wrap one constructor so that a build is timed apart from its use.
_TRACED_WRAPPERS = {"verma_window", "simple_quotient_window", "tensor_with_finite_dim",
                    "chevalley_basis", "build_root_system", "killing_form_on_dual",
                    "weyl_group"}


def _passes_through(fn):
    """True iff fn's body, after its docstring, is `return C(...)` with fn's
    own parameters passed on in order, each as itself."""
    body = fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or \
            not isinstance(body[0].value, ast.Call):
        return False
    call, a = body[0].value, fn.args
    want = [p.arg for p in (*a.posonlyargs, *a.args)]
    want += [f"*{a.vararg.arg}"] if a.vararg else []
    want += [f"{p.arg}={p.arg}" for p in a.kwonlyargs]
    want += [f"**{a.kwarg.arg}"] if a.kwarg else []
    return want == [ast.unparse(n) for n in (*call.args, *call.keywords)]


def test_no_pass_through_wrappers():
    """A module-level function that only hands its parameters to one call
    adds a name and no behaviour: callers call the callee.  Decorated
    functions and the tracer's targets are exempt."""
    wrappers = [f"{path}:{fn.lineno} {fn.name}" for path, tree in _trees()
                for fn in tree.body
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not fn.decorator_list and fn.name not in _TRACED_WRAPPERS
                and _passes_through(fn)]
    assert not wrappers, "\n".join(wrappers)
