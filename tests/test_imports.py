"""Every name a library module imports is used in that module, every
parameter a library function takes is read in its body, and every attribute
a library class stores is read somewhere.

A plain AST scan, so it needs no linter: a name bound by `import` or
`from ... import` (at any depth) must be read somewhere in the module, a
parameter of any function or method (`self` and `cls` excepted) must be
read somewhere in that function, nested functions included, and an
attribute a class stores on `self` must be loaded somewhere in the library,
its tests or its benchmark: as `self.attr` inside a class of the same name,
or as `.attr` on anything but `self`.  Every module-level function and class
of the package is named somewhere in the library (its `__init__.py`
re-exports included) or its benchmark outside its own definition, by a
name, an attribute or an import; a name only tests read counts as unused,
so a test-only helper lives in the tests.
The package's `__init__.py` re-exports names and is skipped by the other
scans.  The library calls `eigh` in one place, the sweep's `_sweep_orders`,
so no eigensolve can go round its memo.  Split-node facts have one owner,
`graph.py`: no other module reads a split node's capacity through
`edge_of_split` or hand-writes the crossing test over an edge list.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "treecut"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = ("src", "tests", "perfbench")
# the readers that keep a module-level definition alive
USERS = ("src", "perfbench")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def unused_params(source):
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p) for p in params
                if p not in ("self", "cls") and p not in read]
    return sorted(out)


def in_scopes(source, kinds):
    """Each AST node of source with the name of the innermost node of the
    given kinds whose body holds it (None outside every such node)."""
    stack = [(ast.parse(source), None)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        inner = node.name if isinstance(node, kinds) else scope
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def in_classes(source):
    """Each AST node of source with the name of the innermost class whose
    body holds it (None outside every class)."""
    return in_scopes(source, ast.ClassDef)


def eigh_calls(source):
    """(line, function) for each call of `eigh`, by name or as an
    attribute, with the innermost function holding it (None at module
    level).  An import of eigh under another name counts as a call there."""
    out = []
    for n, fn in in_scopes(source, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name == "eigh":
                out.append((n.lineno, fn))
        elif isinstance(n, ast.ImportFrom):
            if any(a.name == "eigh" and a.asname not in (None, "eigh")
                   for a in n.names):
                out.append((n.lineno, fn))
    return sorted(out)


def self_attr(node, ctx):
    """Is node an attribute of `self` in context ctx (ast.Load/Store)?"""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def loaded_attrs(*sources):
    """(own, other): own maps a class name to the attributes loaded on
    `self` in its body; other holds every attribute loaded on anything
    else, which counts for every class."""
    own, other = {}, set()
    for source in sources:
        for n, cls in in_classes(source):
            if cls is not None and self_attr(n, ast.Load):
                own.setdefault(cls, set()).add(n.attr)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                other.add(n.attr)
    return own, other


def unread_fields(source, loaded):
    """(line, class, attribute) for each attribute a class stores on
    `self` that `loaded` (from loaded_attrs) never reads for that class."""
    own, other = loaded
    return sorted({(n.lineno, cls, n.attr) for n, cls in in_classes(source)
                   if cls is not None and self_attr(n, ast.Store)
                   and n.attr not in other
                   and n.attr not in own.get(cls, ())})


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(sources):
    """{name: scopes}: each name that the sources (a dict of key to text)
    name by ast.Name, ast.Attribute or an import, with every (key,
    definition) it is named in, definition the enclosing module-level
    function or class (None outside all of them)."""
    refs = {}
    for key, source in sources.items():
        for stmt in ast.parse(source).body:
            scope = (key, stmt.name if isinstance(stmt, DEFINITIONS)
                     else None)
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    names = [n.id]
                elif isinstance(n, ast.Attribute):
                    names = [n.attr]
                elif isinstance(n, (ast.Import, ast.ImportFrom)):
                    names = [part for a in n.names
                             for part in a.name.split(".")]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, set()).add(scope)
    return refs


def unreferenced_definitions(key, source, refs):
    """(line, name) for each module-level function and class of the
    source under key that refs (from references) names nowhere but inside
    its own definition."""
    return [(n.lineno, n.name) for n in ast.parse(source).body
            if isinstance(n, DEFINITIONS)
            and not refs.get(n.name, set()) - {(key, n.name)}]


def test_scan_finds_unused_names():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "def f():\n    from x import y\n    return np, e\n")
    assert unused_imports(src) == [(1, "os"), (3, "c"), (5, "y")]


def test_scan_finds_unused_params():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
           "class K:\n    def m(self, x, y):\n        def g(z):\n"
           "            return x\n        return g\n"
           "    @classmethod\n    def k(cls, w):\n        w = 1\n")
    assert unused_params(src) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (4, "m", "y"),
        (5, "g", "z"), (9, "k", "w")]


def test_scan_finds_unread_fields():
    """A `self.g` load reads g for its own class only; P reads its g, Q
    does not."""
    src = ("class K:\n    def __init__(self, a):\n        self.a = a\n"
           "        self.b, self.c = a\n        self.d = self.a\n"
           "    def m(self, o):\n        self.e += 1\n        o.f = 2\n"
           "        return self.c\n"
           "class P:\n    def __init__(self):\n        self.g = 1\n"
           "    def m(self):\n        return self.g\n"
           "class Q:\n    def __init__(self):\n        self.g = 2\n")
    loaded = loaded_attrs(src, "print(x.b)")
    assert unread_fields(src, loaded) == [
        (5, "K", "d"), (7, "K", "e"), (17, "Q", "g")]


def test_scan_finds_unreferenced_definitions():
    """f names only itself and m nothing; g is named at module level, h
    inside g, K by an import and L as an attribute elsewhere."""
    src = ("def f():\n    return f()\n"
           "def g():\n    return h\n"
           "def h():\n    pass\n"
           "class K:\n    pass\n"
           "class L:\n    pass\n"
           "def m():\n    pass\n"
           "x = g\n")
    refs = references({"a.py": src, "b.py": "from a import K\nprint(y.L)\n"})
    assert unreferenced_definitions("a.py", src, refs) == [(1, "f"),
                                                           (11, "m")]


def test_scan_finds_eigh_calls():
    src = ("import scipy.linalg\nfrom scipy.linalg import eigh, eigh as e\n"
           "def f(a):\n    return eigh(a)\n"
           "class K:\n    def m(self, a):\n"
           "        return scipy.linalg.eigh(a, None), eigvalsh(a)\n"
           "x = eigh\n")
    assert eigh_calls(src) == [(2, None), (4, "f"), (7, "m")]


def test_one_eigh_call_site():
    calls = [(module, fn) for module in MODULES
             for _, fn in eigh_calls((SRC / module).read_text())]
    assert calls == [("oracle.py", "_sweep_orders")], calls


def _named(node, suffix):
    """Is node a name or an attribute whose name ends with suffix?"""
    return getattr(node, "id", getattr(node, "attr", "")).endswith(suffix)


def _crossing_test(n):
    """Is n the comparison `(a in S) != (b in S)`?"""
    return (isinstance(n, ast.Compare) and len(n.ops) == 1
            and isinstance(n.ops[0], ast.NotEq)
            and all(isinstance(c, ast.Compare)
                    and [type(op) for op in c.ops] == [ast.In]
                    for c in (n.left, n.comparators[0])))


def split_fact_sites(source):
    """(line, kind) for each split-node fact the source derives by hand:
    "split capacity" where a capacity map (a name ending in `cap`) is
    indexed by an `edge_of_split[...]` lookup, and "crossing loop" where
    the crossing test `(u in S) != (v in S)` sits in a loop or
    comprehension over an edge list (an iterable named `...edges`)."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Subscript) and _named(n.value, "cap") \
                and isinstance(n.slice, ast.Subscript) \
                and _named(n.slice.value, "edge_of_split"):
            out.add((n.lineno, "split capacity"))
        iters = [n.iter] if isinstance(n, ast.For) else \
            [gen.iter for gen in getattr(n, "generators", ())]
        if any(_named(it, "edges") for it in iters):
            out.update((c.lineno, "crossing loop") for c in ast.walk(n)
                       if _crossing_test(c))
    return sorted(out)


def test_scan_finds_split_facts():
    """Demand pairs (line 10), equal tests (line 12) and an edge_of_split
    lookup that reads no capacity (line 4) are no sites."""
    src = ("def f(g, sub, s, x, view, nums, base_cap):\n"
           "    c = sub.base.cap[sub.edge_of_split[x]]\n"
           "    d = base_cap[sub.edge_of_split[x]]\n"
           "    k = sub.edge_of_split[x]\n"
           "    for u, v, w in g.edges:\n"
           "        if (u in s) != (v in s):\n"
           "            c += w\n"
           "    e = [w for u, v, w in view.boundary_edges\n"
           "         if (u in s) != (v in s)]\n"
           "    n = sum(a for (u, v), a in nums.items()\n"
           "            if (u in s) != (v in s))\n"
           "    return [e for e in g.edges if (e[0] in s) == (e[1] in s)]\n")
    assert split_fact_sites(src) == [
        (2, "split capacity"), (3, "split capacity"), (6, "crossing loop"),
        (9, "crossing loop")]


def test_split_facts_have_one_owner():
    """Only graph.py derives a split node's capacity or the edges crossing
    a side: every other module reads SubdivisionGraph.split_cap and calls
    graph.crossing."""
    sites = [(module, line, kind) for module in MODULES
             if module != "graph.py"
             for line, kind in split_fact_sites((SRC / module).read_text())]
    assert not sites, sites


# The constants the paper fixes.  Each is bound once, where it is defined:
# a rebinding anywhere else would be a Config field in hiding.
FIXED = ("BRUTE_THRESHOLD", "ORACLE_SPARSITY_C", "FIRST_CONGESTION_CAP",
         "ORACLE_CONGESTION_LIMIT", "MERGE_PHI_COEFF", "MERGE_SHRINK_COEFF",
         "C0_DECLARED", "SCHEDULE_CF", "KAPPA", "C_PHI", "REPLAY_TAU_C",
         "ALPHA_IMPROVED_CAP")


def bindings(source, names):
    """(line, name) for each store of one of names: as a plain name, as an
    attribute, or as the string argument of a setattr-like call."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            name = n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            name = n.attr
        elif isinstance(n, ast.Call) and "setattr" in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None)):
            name = next((a.value for a in n.args
                         if isinstance(a, ast.Constant)
                         and a.value in names), None)
        else:
            continue
        if name in names:
            out.append((n.lineno, name))
    return sorted(out)


def test_scan_finds_bindings():
    src = ("K = 1\nm.K += 1\nsetattr(m, 'K', 2)\nmp.setattr(m, 'K', 3)\n"
           "J = K\nsetattr(m, 'J', 4)\n")
    assert bindings(src, ("K",)) == [(1, "K"), (2, "K"), (3, "K"), (4, "K")]


def test_fixed_constants_bound_once():
    bound = sorted(name for d in READERS for p in (ROOT / d).rglob("*.py")
                   for _, name in bindings(p.read_text(), FIXED))
    assert bound == sorted(FIXED)


@pytest.fixture(scope="module")
def loaded():
    return loaded_attrs(*(p.read_text() for d in READERS
                          for p in (ROOT / d).rglob("*.py")))


@pytest.fixture(scope="module")
def named():
    return references({p: p.read_text() for d in USERS
                       for p in (ROOT / d).rglob("*.py")})


def test_no_unreferenced_definitions(named):
    dead = ["%s.%s (line %d)" % (p.name, name, line)
            for p in sorted(SRC.glob("*.py"))
            for line, name in unreferenced_definitions(p, p.read_text(),
                                                       named)]
    assert not dead, "definitions nothing names: %s" % ", ".join(dead)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    dead = unused_imports((SRC / module).read_text())
    assert not dead, "%s imports names it never uses: %s" % (
        module, ", ".join("%s (line %d)" % (n, l) for l, n in dead))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_params(module):
    dead = unused_params((SRC / module).read_text())
    assert not dead, "%s has parameters its functions never read: %s" % (
        module, ", ".join("%s.%s (line %d)" % (f, p, l) for l, f, p in dead))


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_fields(module, loaded):
    dead = unread_fields((SRC / module).read_text(), loaded)
    assert not dead, "%s stores attributes nothing reads: %s" % (
        module, ", ".join("%s.%s (line %d)" % (c, a, l) for l, c, a in dead))
