"""No function in amrgen calls itself. A recursive walk fails on deep input
at a depth that depends on its caller's stack, and a nested function that
calls itself holds itself in its closure cell, a reference cycle; the walks
keep stacks of their own instead."""
import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "amrgen"


def self_calls(tree):
    """(line, name) of each call in tree by which a function calls itself:
    a function by its bare name, a method as self.<its name>."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            func = getattr(call, "func", None)
            if id(fn) in methods:
                hit = (isinstance(func, ast.Attribute) and func.attr == fn.name
                       and isinstance(func.value, ast.Name) and func.value.id == "self")
            else:
                hit = isinstance(func, ast.Name) and func.id == fn.name
            if hit:
                found.append((call.lineno, fn.name))
    return sorted(found)


def test_no_function_in_amrgen_calls_itself():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in self_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_self_calls_finds_recursion_and_nothing_else():
    source = '''
def walk(node):
    return [walk(child) for child in node]

class Walker:
    def visit(self, node):
        self.visit(node)

    def encode(self, x):
        super().__init__()
        return self.bilstm.encode(np.zeros(x)) + encode(x)

def zeros(n):
    def inner(k):
        return inner(k - 1)
    return np.zeros(n)
'''
    assert self_calls(ast.parse(source)) == [(3, "walk"), (7, "visit"), (15, "inner")]
