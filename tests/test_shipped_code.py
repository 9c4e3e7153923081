"""Every definition in src/ has a caller in the program.

A top-level function or class of src/watermelon/*.py is called when its
name appears as a `Name` or an `Attribute` in src/ outside its own
definition, in code that is itself called (module-level code is), or when the
benchmark in perfbench/*.py names it: as a `Name`, an `Attribute` or a dotted
string such as the attributes its tracer patches.  A method or a property is
called the same way, but only as an `Attribute` or a dotted string: a bare
name that matches it is some other binding.  Imports, docstrings, prose and
tests do not count.  Dunder methods are called by the language: they are not
checked, and what they call counts as called from their class.

Code that only tests call is a second program to keep up, so it goes.  The
few oracles that tests compare the program against stay, each listed in KEPT
with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "watermelon"
BENCH = ROOT / "perfbench"

KEPT = {
    "overlap_time": "oracle of the streamed pair overlaps (test_streamed_overlaps_match_overlap_time)",
    "one_step_bridge_law": "the exact one-step bridge law the stepper samples from",
    "radon_nikodym": "closed product form of the bridge/free-walk density",
    "radon_nikodym_ratio": "direct ratio of the two laws that radon_nikodym factorises",
    "grsk_array": "gRSK array entries tau_j / tau_(j-1); the multi-layer Z_1..Z_d are to call it",
    "rotate_lambda": "45-degree rotation from grid to walk coordinates, for the same planned caller",
    "rotate_lambda_inverse": "its inverse, for the same planned caller",
    "_p_params": "one-value Hahn parameters the kernel's vectorised families are tested against",
    "_p_tilde_params": "one-value reflected Hahn parameters, the same oracle",
    "DisorderField": "one-value hashed field: the SMC's batch field is tested against its law",
    "fwd": "the sweep's per-time dict view that test_forward_and_backward_layers_hold_the_same_configurations "
    "and _determinant_pair_table compare against",
    "bwd": "the same view of the backward counts, for the same two oracles",
    "chamber_path_sums": "chamber path counts: the exact laws' sweep and the free walk's h-transform are tested against them",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _src_definitions_and_uses():
    """Definitions as (module, qualname), and uses as (name, owner), where the
    owner is the (module, qualname) of the definition around the use, or None
    at module level."""
    defs, uses = [], []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, _DEFS):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and (owner is None or isinstance(node, ast.ClassDef)):
                    inner = (module, f"{owner[1]}.{child.name}" if owner else child.name)
                    defs.append(inner)
            elif isinstance(child, ast.Name):
                uses.append((child.id, False, owner))
            elif isinstance(child, ast.Attribute):
                uses.append((child.attr, True, owner))
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return defs, uses


def _bench_names():
    """Names the benchmark uses, as (name, is_attribute): a dotted string's
    parts count as attributes."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add((node.id, False))
            elif isinstance(node, ast.Attribute):
                names.add((node.attr, True))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update((part, True) for part in node.value.split("."))
    return names


def _inside(owner, definition):
    return owner[0] == definition[0] and f"{owner[1]}.".startswith(f"{definition[1]}.")


def _uncalled(kept=()):
    """Definitions with no caller in the program, as "module.qualname"; the
    names in `kept` count as called."""
    defs, uses = _src_definitions_and_uses()
    name = lambda definition: definition[1].rsplit(".", 1)[-1]
    # a method or property is reached only as an attribute; a bare name that
    # matches one is some other binding, such as a local variable
    reaches = lambda attribute, definition: attribute or "." not in definition[1]
    owners = {}
    for used, attribute, owner in uses:
        owners.setdefault(used, []).append((attribute, owner))
    bench = _bench_names()
    live = {
        dfn for dfn in defs
        if name(dfn) in kept
        or any(used == name(dfn) and reaches(attribute, dfn) for used, attribute in bench)
    }
    grew = True
    while grew:
        grew = False
        for dfn in defs:
            if dfn not in live and any(
                reaches(attribute, dfn)
                and (owner is None or owner in live and not _inside(owner, dfn))
                for attribute, owner in owners.get(name(dfn), ())
            ):
                live.add(dfn)
                grew = True
    return [f"{module}.{qual}" for module, qual in defs if (module, qual) not in live]


def test_every_definition_has_a_caller():
    missing = _uncalled(KEPT)
    assert not missing, f"defined in src/ but called only from tests: {missing}"


def test_every_kept_oracle_is_defined_and_only_tested():
    # an entry that gained a caller in the program, or lost its definition, is stale
    uncalled = {q.rsplit(".", 1)[-1] for q in _uncalled()}
    assert sorted(set(KEPT) - uncalled) == []
