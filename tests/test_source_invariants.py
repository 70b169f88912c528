"""Source invariants of the ``repro`` package, checked on its syntax trees.

Three invariants span modules, and no behavioural test sees them break:

* **Fork safety** (``core/``, ``attacks/``, ``mdp/``, ``analysis/``): a
  function rebinds a module global it declares only inside a ``with`` block
  whose context manager names a lock, and no lock is taken by a bare
  ``.acquire()`` statement, which would leak it on an exception.
* **Determinism of the certified paths** (``attacks/``, ``mdp/``,
  ``analysis/``): no stdlib :mod:`random`, no global-state ``numpy.random``
  draw, no wall-clock read and no iteration over a raw set.  Seeded
  generators and duration timers (``time.perf_counter``) are fine.
* **One merge pipeline** (the whole package): only ``core/execution.py``
  appends to a sweep journal, writes ``metadata`` keys or calls
  ``assemble_sweep_result``, so serial and pool sweeps merge identically.

Each rule is one function from ``(relpath, tree)`` to ``(relpath, line,
message)`` tuples.  ``test_package_keeps_every_invariant`` runs it over
``src/repro`` inside the rule's scope, after checking that the scan reached
every scope; the parametrized cases show that each rule fires on violating
code and stays quiet on compliant code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

Violation = Tuple[str, int, str]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


# ------------------------------------------------------------------ fork safety


def _holds_lock(node: ast.AST) -> bool:
    """Whether ``node`` is a ``with`` block one of whose managers names a lock."""
    if not isinstance(node, ast.With):
        return False
    for item in node.items:
        expr = item.context_expr
        if "lock" in _dotted(expr.func if isinstance(expr, ast.Call) else expr).lower():
            return True
    return False


def _own_nodes(node: ast.AST, locked: bool = False):
    """Yield ``(child, locked)`` below ``node``, skipping nested function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _FUNCTIONS):
            yield child, locked
            yield from _own_nodes(child, locked or _holds_lock(child))


def _rebound_names(node: ast.AST) -> List[str]:
    """Plain names an assignment statement rebinds (tuple targets unpacked)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        names.extend(elt.id for elt in elts if isinstance(elt, ast.Name))
    return names


def fork_safety(relpath: str, tree: ast.Module) -> List[Violation]:
    """Unlocked rebinding of a declared module global; bare ``.acquire()``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            own = list(_own_nodes(node))
            declared = {n for child, _ in own if isinstance(child, ast.Global) for n in child.names}
            for child, locked in own:
                for name in [] if locked else _rebound_names(child):
                    if name in declared:
                        found.append((relpath, child.lineno, f"global {name} rebound unlocked"))
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "acquire"
        ):
            found.append((relpath, node.lineno, "bare .acquire() statement"))
    return found


# ------------------------------------------------------------------ determinism

WALL_CLOCK_CALLS = frozenset(
    "time.time time.time_ns date.today datetime.date.today datetime.now datetime.utcnow"
    " datetime.today datetime.datetime.now datetime.datetime.utcnow datetime.datetime.today".split()
)
#: ``numpy.random`` names that build explicitly seeded generators.
_SEEDED_NUMPY = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})


def _global_rng(name: str) -> bool:
    """Whether calling ``name`` draws from hidden global RNG state."""
    if name.startswith("random."):
        return True
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            return name[len(prefix):].split(".")[0] not in _SEEDED_NUMPY
    return False


def _is_set(node: ast.expr) -> bool:
    """Whether iterating ``node`` follows hash order: a set display or ``set(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _dotted(node.func) in ("set", "frozenset")


def determinism(relpath: str, tree: ast.Module) -> List[Violation]:
    """Global-state RNG, wall-clock reads and raw set iteration."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    found.append((relpath, node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found.append((relpath, node.lineno, "from random import ..."))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if _global_rng(name):
                found.append((relpath, node.lineno, f"{name}() draws from global RNG state"))
            elif name in WALL_CLOCK_CALLS:
                found.append((relpath, node.lineno, f"wall-clock read {name}()"))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables = [generator.iter for generator in node.generators]
        else:
            iterables = []
        for iterable in iterables:
            if _is_set(iterable):
                found.append((relpath, iterable.lineno, "iteration in set (hash) order"))
    return found


# --------------------------------------------------------------- merge pipeline

#: The one module that journals outcomes, attaches metadata and assembles.
PIPELINE_MODULE = "core/execution.py"


def merge_pipeline(relpath: str, tree: ast.Module) -> List[Violation]:
    """Journal appends, ``metadata`` writes and assembly outside the pipeline."""
    if relpath == PIPELINE_MODULE:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            parts = name.split(".")
            if parts[-1] == "assemble_sweep_result":
                found.append((relpath, node.lineno, "assemble_sweep_result called"))
            elif parts[-1] == "record" and len(parts) > 1 and "journal" in parts[-2].lower():
                found.append((relpath, node.lineno, f"journal append {name}()"))
            elif parts[-2:] == ["metadata", "update"]:
                found.append((relpath, node.lineno, f"metadata written by {name}()"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Subscript):
                    name = _dotted(target.value)
                    if name.split(".")[-1] == "metadata":
                        found.append((relpath, node.lineno, f"metadata key set on {name}"))
    return found


#: Each rule with the package-relative path prefixes it watches.
RULES = {
    fork_safety: ("core/", "attacks/", "mdp/", "analysis/"),
    determinism: ("attacks/", "mdp/", "analysis/"),
    merge_pipeline: ("",),
}


def check(rule, relpath: str, source: str) -> List[Violation]:
    """``rule``'s violations in ``source`` at ``relpath`` (none outside its scope)."""
    if not relpath.startswith(RULES[rule]):
        return []
    return rule(relpath, ast.parse(source))


def _scan_package() -> Tuple[Dict[object, List[str]], List[Violation]]:
    """Every rule over ``src/repro``: the files each rule saw, and all violations."""
    visited: Dict[object, List[str]] = {rule: [] for rule in RULES}
    violations: List[Violation] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8")
        for rule, scopes in RULES.items():
            if relpath.startswith(scopes):
                visited[rule].append(relpath)
                violations.extend(check(rule, relpath, source))
    return visited, violations


def test_package_keeps_every_invariant():
    visited, violations = _scan_package()
    # A moved or renamed tree must not pass by checking nothing.
    for rule, scopes in RULES.items():
        for scope in scopes:
            assert any(relpath.startswith(scope) for relpath in visited[rule]), (rule, scope)
    assert PIPELINE_MODULE in visited[merge_pipeline]
    assert PIPELINE_MODULE in visited[fork_safety]
    assert violations == []


# ------------------------------------------------------------------------ cases

_LAZY_CACHE = """
_CACHE = None

def cache():
    global _CACHE
    if _CACHE is None:
        _CACHE = object()
    return _CACHE
"""
_BARE_ACQUIRE = """
LOCK = threading.Lock()

def critical():
    LOCK.acquire()
    try:
        return 1
    finally:
        LOCK.release()
"""
_NESTED_DEFS = """
_STATE = None

def outer():
    global _STATE

    def local_only():
        _STATE = 1
        return _STATE

    def rebinds():
        global _STATE
        _STATE = 2

    return local_only, rebinds
"""
_ASSEMBLER_HELPER = """
def assemble_sweep_result(config, outcomes, report, description):
    result = build(config, outcomes, description)
    result.metadata["summary"] = {"points": 0}

    def note(key, value):
        result.metadata[key] = value

    note("extra", 1)
    return result
"""
_TIMED = "def timed(solve):\n    start = {0}()\n    solve()\n    return {0}() - start\n"

#: ``id -> (relpath, source, expected_count)`` per rule: firing, quiet and scope cases.
CASES = {
    fork_safety: {
        "unguarded-global": ("core/engine.py", _LAZY_CACHE, 1),
        "lock-guarded-global": (
            "core/engine.py",
            "def cache():\n    global _CACHE\n    with _CACHE_LOCK:\n"
            "        if _CACHE is None:\n            _CACHE = object()\n        return _CACHE\n",
            0,
        ),
        "bare-acquire": ("core/engine.py", _BARE_ACQUIRE, 1),
        "global-out-of-scope": ("reporting/tables.py", _LAZY_CACHE, 0),
        "tuple-unpacked-global": (
            "core/engine.py",
            "def install(payload):\n    global _PAYLOAD, _COUNT\n"
            "    _PAYLOAD, _COUNT = payload, len(payload)\n",
            2,
        ),
        "augmented-global": (
            "attacks/registry.py", "def count_build():\n    global _BUILDS\n    _BUILDS += 1\n", 1
        ),
        "nested-def-own-scope": ("core/engine.py", _NESTED_DEFS, 1),
        "lock-returned-by-call": (
            "mdp/cache.py",
            "def cache(registry):\n    global _CACHE\n    with registry.cache_lock():\n"
            "        _CACHE = object()\n",
            0,
        ),
        "non-lock-context-manager": (
            "core/journal.py",
            "def open_journal(path):\n    global _HANDLE\n    with open(path) as stream:\n"
            "        _HANDLE = stream.read()\n",
            1,
        ),
        "acquire-out-of-scope": ("reporting/tables.py", _BARE_ACQUIRE, 0),
        "acquire-result-used": (
            "core/engine.py",
            "def try_critical():\n    if not LOCK.acquire(blocking=False):\n"
            "        return None\n    LOCK.release()\n",
            0,
        ),
    },
    determinism: {
        "stdlib-random-import-and-call": (
            "mdp/solver.py", "import random\n\ndef jitter():\n    return random.random()\n", 2
        ),
        "legacy-numpy-random-and-wall-clock": (
            "analysis/formal.py",
            "import time\nimport numpy as np\n\ndef noisy():\n"
            "    return np.random.rand(3) * time.time()\n",
            2,
        ),
        "seeded-rng-and-duration-timer": (
            "attacks/simulate.py",
            "import time\nimport numpy as np\n\ndef simulate(seed):\n"
            "    rng = np.random.default_rng(seed)\n    start = time.perf_counter()\n"
            "    return rng.random(10), time.perf_counter() - start\n",
            0,
        ),
        "set-iteration": (
            "attacks/structure.py", "def build(edges):\n    return [e for e in set(edges)]\n", 1
        ),
        "sorted-set-iteration": (
            "attacks/structure.py",
            "def build(edges):\n    return [e for e in sorted(set(edges))]\n",
            0,
        ),
        "random-out-of-scope": (
            "core/sweep.py", "import random\n\ndef order(items):\n    random.shuffle(items)\n", 0
        ),
        "from-random-import": (
            "analysis/bisection.py",
            "from random import uniform\n\ndef probe(low, high):\n    return uniform(low, high)\n",
            1,
        ),
        **{
            f"wall-clock-{call}": ("mdp/solver.py", f"def stamp():\n    return {call}()\n", 1)
            for call in sorted(WALL_CLOCK_CALLS)
        },
        **{
            f"duration-{call}": ("analysis/algorithm1.py", _TIMED.format(call), 0)
            for call in ("time.perf_counter", "time.perf_counter_ns", "time.monotonic")
            + ("time.process_time",)
        },
        "explicit-numpy-generator": (
            "attacks/simulate.py",
            "import numpy as np\n\ndef generator(seed):\n"
            "    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))\n",
            0,
        ),
        "qualified-legacy-numpy-seed": (
            "mdp/solver.py", "import numpy\n\ndef reseed():\n    numpy.random.seed(0)\n", 1
        ),
        **{
            f"set-form-{form}": ("attacks/structure.py", f"def build(edges):\n    {body}\n", 1)
            for form, body in [
                ("for-literal", "for edge in {1, 2}:\n        yield edge"),
                ("for-comprehension", "for edge in {e for e in edges}:\n        yield edge"),
                ("for-frozenset", "for edge in frozenset(edges):\n        yield edge"),
                ("dict-comp", "yield {edge: 1 for edge in set(edges)}"),
                ("genexp", "yield sum(edge for edge in set(edges))"),
            ]
        },
    },
    merge_pipeline: {
        "direct-assembly": (
            "core/custom_backend.py",
            "from repro.core.engine import assemble_sweep_result\n\ndef finish(c, o, r):\n"
            "    return assemble_sweep_result(c, o, r, description='x')\n",
            1,
        ),
        "side-channel-journal-append": (
            "core/custom_backend.py", "def merge(self, out):\n    self.journal.record(out)\n", 1
        ),
        "ad-hoc-metadata": (
            "core/custom_backend.py",
            "def attach(result, stats):\n    result.metadata['fabric'] = stats\n"
            "    result.metadata.update(stats)\n",
            2,
        ),
        "inside-the-pipeline": (
            "core/execution.py",
            "def assemble(self, result, journal, outcome):\n    journal.record(outcome)\n"
            "    result.metadata['journal'] = {'recorded': journal.recorded}\n",
            0,
        ),
        "inside-the-assembler": ("core/engine.py", _ASSEMBLER_HELPER, 2),
        "non-journal-record": (
            "analysis/algorithm1.py", "def solve(scheduler, p):\n    scheduler.record(p)\n", 0
        ),
        "augmented-metadata": (
            "core/engine.py", "def bump(result):\n    result.metadata['retries'] += 1\n", 1
        ),
        "module-qualified-assembly": (
            "core/sweep.py",
            "from repro.core import engine\n\ndef finish(c, o, r):\n"
            "    return engine.assemble_sweep_result(c, o, r, description='x')\n",
            1,
        ),
        "private-journal-attribute": (
            "core/sweep.py",
            "class Runner:\n    def merge(self, outcome):\n        self._journal.record(outcome)\n",
            1,
        ),
        "other-dicts": (
            "core/reporting.py",
            "def row(point, extra):\n    fields = point.to_row()\n"
            "    fields['series'] = point.series\n    fields.update(extra)\n    return fields\n",
            0,
        ),
    },
}


@pytest.mark.parametrize(
    "rule, relpath, source, expected_count",
    [(rule, *case) for rule, cases in CASES.items() for case in cases.values()],
    ids=[f"{rule.__name__}-{name}" for rule, cases in CASES.items() for name in cases],
)
def test_rule_cases(rule, relpath, source, expected_count):
    assert len(check(rule, relpath, source)) == expected_count


def test_nested_def_has_its_own_global_scope():
    """Only the inner def that declares the global fires, not the local rebinding."""
    assert [line for _, line, _ in check(fork_safety, "core/engine.py", _NESTED_DEFS)] == [13]
