"""Every definition in src/ has a caller in the program.

A top-level function or class of src/watermelon/*.py is called when its
name appears as a `Name` or an `Attribute` in src/ outside its own
definition, in code that is itself called (module-level code is), or when the
benchmark in perfbench/*.py names it: as a `Name`, an `Attribute` or a dotted
string such as the attributes its tracer patches.  A method or a property is
called the same way, but only as an `Attribute` or a dotted string: a bare
name that matches it is some other binding.  A call of that attribute counts
only when its arguments can bind to the method's parameters: `.values()`
calls some other `values` than `values(self, n, x)`.  And `self.x` in a
method of a class that defines `x` reaches that `x` only, and in a class
that holds a data attribute `x` (a class-level annotated field, or a
`self.x =` in `__init__`) it reaches no definition.  Imports,
docstrings, prose and tests do not count.  Dunder methods are called by the
language: they are not checked, and what they call counts as called from
their class.

Code that only tests call is a second program to keep up, so it goes.  The
few oracles that tests compare the program against stay, each listed in KEPT
with the reason.  Such an oracle computes its answer by another route than
the code it checks: one that repackages that code's own helpers checks
nothing, and its tests use their own references or the program itself.
And every name a module imports is read there, unless the benchmark's
tracer patches that attribute on that module.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "watermelon"
BENCH = ROOT / "perfbench"

KEPT = {
    "overlap_time": "direct coincidence count of two trajectories: the oracle of the streamed "
                    "pair overlaps (test_streamed_overlaps_match_overlap_time)",
    "one_step_bridge_law": "the one-step bridge law from Karlin-McGregor weights "
                           "(bridge_transition), which the stepper's move tables sample from",
    "radon_nikodym": "closed product form of the bridge/free-walk density",
    "radon_nikodym_ratio": "the same density as a ratio of Karlin-McGregor weights, "
                           "which the product form is tested against",
    "grsk_array": "gRSK array entries tau_j / tau_(j-1); the multi-layer Z_1..Z_d are to call it",
    "rotate_lambda": "45-degree rotation from grid to walk coordinates: the oracle of its inverse",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _calls(tree):
    """Each called expression in `tree`, mapped to its call."""
    return {node.func: node for node in ast.walk(tree) if isinstance(node, ast.Call)}


def _binds(call, method):
    """Whether the arguments of `call` can bind to the parameters of `method`
    after self or cls.  A call that unpacks * or ** arguments may bind."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    params = method.args
    static = any(getattr(dec, "id", None) == "staticmethod" for dec in method.decorator_list)
    positional = (params.posonlyargs + params.args)[0 if static else 1 :]
    if len(call.args) > len(positional) and params.vararg is None:
        return False
    given = {k.arg for k in call.keywords}
    named = {p.arg for p in positional[len(call.args) :] + params.kwonlyargs}
    if params.kwarg is None and not given <= named:
        return False
    required = positional[len(call.args) : len(positional) - len(params.defaults)] + [
        p for p, default in zip(params.kwonlyargs, params.kw_defaults) if default is None
    ]
    return all(p.arg in given for p in required)


def _src_definitions_and_uses():
    """Definitions as (module, qualname) mapped to their node, and uses as
    (name, is_attribute, call, receiver, owner).  The call is the ast.Call of
    a called attribute, the receiver the (module, qualname) of the class
    whose method reads it from `self` or `cls`, each else None; the owner is
    the (module, qualname) of the definition around the use, or None at
    module level."""
    defs, uses = {}, []

    def visit(node, module, owner, calls):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, _DEFS):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and (owner is None or isinstance(node, ast.ClassDef)):
                    inner = (module, f"{owner[1]}.{child.name}" if owner else child.name)
                    defs[inner] = child
            elif isinstance(child, ast.Name):
                uses.append((child.id, False, None, None, owner))
            elif isinstance(child, ast.Attribute):
                receiver = None
                if getattr(child.value, "id", None) in ("self", "cls") and owner and "." in owner[1]:
                    receiver = (module, owner[1].rsplit(".", 1)[0])
                uses.append((child.attr, True, calls.get(child), receiver, owner))
            visit(child, module, inner, calls)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, None, _calls(tree))
    return defs, uses


def _bench_names():
    """Names the benchmark uses, as (name, is_attribute, call, receiver) with
    no receiver: a dotted string's parts count as attributes, with no call."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = _calls(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add((node.id, False, None, None))
            elif isinstance(node, ast.Attribute):
                names.add((node.attr, True, calls.get(node), None))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update((part, True, None, None) for part in node.value.split("."))
    return names


def _data_attributes(cls):
    """Names of the data attributes of the class `cls`: its class-level
    annotated fields and each `self.x` that its `__init__` assigns."""
    names = {
        s.target.id for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    }
    for init in cls.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__":
            for node in ast.walk(init):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and getattr(node.value, "id", None) == "self":
                    names.add(node.attr)
    return names


def _inside(owner, definition):
    return owner[0] == definition[0] and f"{owner[1]}.".startswith(f"{definition[1]}.")


def _uncalled(kept=()):
    """Definitions with no caller in the program, as "module.qualname"; the
    names in `kept` count as called."""
    defs, uses = _src_definitions_and_uses()
    name = lambda definition: definition[1].rsplit(".", 1)[-1]
    data = {dfn: _data_attributes(node) for dfn, node in defs.items()
            if isinstance(node, ast.ClassDef)}

    def reaches(attribute, call, receiver, definition):
        # a method or property is reached only as an attribute; a bare name
        # that matches one is some other binding, such as a local variable, and
        # a call whose arguments cannot bind to the method calls another method;
        # `self.x` reaches the receiver's own method or data attribute x only
        if "." not in definition[1]:
            return True
        own = receiver and (receiver[0], f"{receiver[1]}.{name(definition)}")
        if own in defs and own != definition or name(definition) in data.get(receiver, ()):
            return False
        node = defs[definition]
        return attribute and (call is None or isinstance(node, ast.ClassDef) or _binds(call, node))

    owners = {}
    for used, *how, owner in uses:
        owners.setdefault(used, []).append((how, owner))
    bench = _bench_names()
    live = {
        dfn for dfn in defs
        if name(dfn) in kept
        or any(used == name(dfn) and reaches(*how, dfn) for used, *how in bench)
    }
    grew = True
    while grew:
        grew = False
        for dfn in defs:
            if dfn not in live and any(
                reaches(*how, dfn)
                and (owner is None or owner in live and not _inside(owner, dfn))
                for how, owner in owners.get(name(dfn), ())
            ):
                live.add(dfn)
                grew = True
    return [f"{module}.{qual}" for module, qual in defs if (module, qual) not in live]


def test_every_definition_has_a_caller():
    missing = _uncalled(KEPT)
    assert not missing, f"defined in src/ but called only from tests: {missing}"


def _unused_imports():
    """Names each src/watermelon module imports but never reads, as
    "module.name"."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    return unused


def test_every_import_is_used(monkeypatch):
    # an import the module never reads is dead, unless the benchmark's
    # tracer patches that attribute on that module
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans

    patched = {
        f"{t.owner.__name__.rsplit('.', 1)[-1]}.{t.attr}"
        for t in spans.TARGETS if isinstance(t.owner, type(sys))
    }
    assert sorted(set(_unused_imports()) - patched) == []


def test_every_kept_oracle_is_defined_and_only_tested():
    # an entry that gained a caller in the program, or lost its definition, is stale
    uncalled = {q.rsplit(".", 1)[-1] for q in _uncalled()}
    assert sorted(set(KEPT) - uncalled) == []
