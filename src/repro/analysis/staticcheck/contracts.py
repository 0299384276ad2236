"""Repo contract linter: enforce the invariants CI kept re-fixing by hand.

:func:`lint_repo` runs five checks over ``src/repro`` itself and returns
:class:`~repro.analysis.staticcheck.findings.AuditFinding`s (family
``repo``).  It is wired into ``repro lint --self`` and ``make lint`` as a
fail-the-build job.

``repo.rng-discipline``
    Library code must never draw from NumPy's hidden global stream
    (``np.random.rand(...)``, ``np.random.seed(...)``, ...).  Explicit
    generator construction (``np.random.default_rng``, ``Generator``
    annotations) is the sanctioned idiom.
``repo.store-key``
    The PR 4 bug class, made impossible to reintroduce silently: every
    module-level engine toggle (any ``global _X`` write anywhere in the
    tree) must either have its getter referenced by
    ``core/results.py``'s ``context_fingerprint`` or carry a documented
    exemption here; every ``NadaConfig`` field must be classified as key
    material or engine-only; the store's ``_NON_RESULT_FIELDS`` allowlist
    must name real ``EvaluationConfig`` fields.  Adding a field or toggle
    without updating the classification fails the build.
``repo.picklability``
    Everything submitted to :func:`~repro.core.parallel.parallel_map` /
    :func:`~repro.core.parallel.run_resilient` must survive pickling:
    no lambdas, no functions defined inside another function (PR 7's
    silent serial-downgrade came from exactly this).
``repo.telemetry-noop``
    The module-level telemetry helpers (``span``/``counter``/``series``)
    must not allocate on the disabled path: read ``_ACTIVE`` into a local,
    guard on ``None``, and keep every allocation inside the enabled branch.
``repo.fault-coverage``
    Every site in :data:`~repro.core.faults.FAULT_SITES` must be named by
    at least one test under ``tests/`` — an injection site no test fires is
    a recovery path that can rot silently, which defeats the point of
    deterministic chaos coverage.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import AuditFinding, Severity

__all__ = ["lint_repo"]

#: ``np.random`` members that construct explicit generator/seed objects —
#: the sanctioned alternative to the hidden global stream.
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "PCG64", "MT19937", "Philox", "SFC64",
})

#: Engine toggles (module globals written via ``global``) that MUST be
#: referenced — via the named getter — in ``context_fingerprint``'s source,
#: because flipping them changes stored numeric results.
_TOGGLE_GETTERS: Dict[str, str] = {
    "_DEFAULT_DTYPE": "get_default_dtype",
    "_COMPILE_ENABLED": "compilation_enabled",
    "_NUMERICS": "get_numerics",
    "_FAST_INFERENCE": "fast_inference_enabled",
}

#: Engine toggles exempt from the fingerprint, each with the reason the
#: exemption is sound.  A new ``global _X`` write anywhere in the tree that
#: appears in neither map fails the lint.
_TOGGLE_EXEMPT: Dict[str, str] = {
    "_GRAD_ENABLED": "transient no_grad context, restored on exit; never "
                     "active across a stored training run boundary",
    "_ACTIVE": "telemetry sink; observability only, no numeric effect",
    "_PLAN": "fault-injection harness; causes retries/reschedules but "
             "never alters a successfully stored result payload",
    "_REMOTE_WORKER": "marks a `repro worker` process for the fault "
                      "harness; decides how an injected crash fires, never "
                      "a stored result payload",
}

#: NadaConfig fields that are store-key material (hashed, directly or via
#: derived inputs, into the context/design fingerprint or the record key).
_NADA_KEY_FIELDS: Dict[str, str] = {
    "target": "selects the trace environment whose traces are hashed into "
              "the context fingerprint",
    "evaluation": "EvaluationConfig, serialized wholesale into the context "
                  "fingerprint (minus _NON_RESULT_FIELDS)",
    "seed": "campaign seed; the per-record training seed derives from it",
}

#: NadaConfig fields that are engine-/campaign-level only: they decide what
#: gets generated, scheduled or observed, never the numeric payload of a
#: stored per-seed training run.
_NADA_ENGINE_FIELDS: Dict[str, str] = {
    "num_designs": "how many designs are drawn; each design is keyed by its "
                   "own code fingerprint",
    "llm": "which model profile generates code; the code itself is the key",
    "prompt": "prompting strategy; only shapes which code gets generated",
    "use_early_stopping": "early-stopped jobs bypass the store entirely",
    "early_stopping": "early-stopped jobs bypass the store entirely",
    "bootstrap_fraction": "scheduling split for the early-stopping "
                          "bootstrap phase",
    "min_bootstrap_designs": "scheduling split for the bootstrap phase",
    "workers": "parallelism; outputs are pinned engine-independent",
    "max_retries": "fault-tolerance policy; successful payloads identical",
    "job_timeout": "fault-tolerance policy; successful payloads identical",
    "store_dir": "where records live, not what they contain",
    "telemetry_dir": "observability only",
}

#: Telemetry helpers whose disabled path must be allocation-free.
_NOOP_HELPERS = ("span", "counter", "series")


def _repo_source_root() -> Path:
    return Path(__file__).resolve().parents[2]


def _python_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*.py"))


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None


def _finding(rule: str, message: str, path: Path, root: Path,
             node: Optional[ast.AST] = None,
             severity: Severity = Severity.ERROR) -> AuditFinding:
    return AuditFinding(
        rule=rule, severity=severity, message=message,
        line=getattr(node, "lineno", 0) if node is not None else 0,
        file=str(path.relative_to(root.parent)))


# --------------------------------------------------------------------------- #
# repo.rng-discipline
# --------------------------------------------------------------------------- #
def _numpy_aliases(tree: ast.Module) -> Set[str]:
    names = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return names


def _check_rng_discipline(path: Path, tree: ast.Module,
                          root: Path) -> List[AuditFinding]:
    findings = []
    numpy_names = _numpy_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_names):
            continue
        member = func.attr
        if member == "seed":
            findings.append(_finding(
                "repo.rng-discipline",
                "np.random.seed mutates the hidden global stream shared by "
                "every caller; thread an explicit np.random.Generator",
                path, root, node))
        elif member not in _NP_RANDOM_CONSTRUCTORS:
            findings.append(_finding(
                "repo.rng-discipline",
                f"bare np.random.{member}(...) draws from the hidden global "
                "stream; use an explicitly constructed Generator",
                path, root, node))
    return findings


# --------------------------------------------------------------------------- #
# repo.store-key
# --------------------------------------------------------------------------- #
def _written_globals(tree: ast.Module) -> Iterable[Tuple[str, ast.Global]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield name, node


def _check_store_keys(root: Path,
                      trees: Dict[Path, ast.Module]) -> List[AuditFinding]:
    findings: List[AuditFinding] = []

    # 1. Engine toggles: every `global _X` write must be classified, and
    #    fingerprint-relevant toggles must actually appear in the
    #    context_fingerprint source.
    results_path = root / "core" / "results.py"
    fingerprint_source = ""
    results_tree = trees.get(results_path)
    if results_tree is not None:
        for node in results_tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "context_fingerprint"):
                fingerprint_source = ast.unparse(node)
    if not fingerprint_source:
        findings.append(_finding(
            "repo.store-key",
            "core/results.py no longer defines context_fingerprint; the "
            "store-key completeness check cannot run", results_path, root))

    seen_toggles: Set[str] = set()
    for path, tree in trees.items():
        for name, node in _written_globals(tree):
            if not name.startswith("_"):
                continue
            seen_toggles.add(name)
            if name in _TOGGLE_EXEMPT:
                continue
            getter = _TOGGLE_GETTERS.get(name)
            if getter is None:
                findings.append(_finding(
                    "repo.store-key",
                    f"module global {name!r} is written via `global` but is "
                    "neither fingerprinted (_TOGGLE_GETTERS) nor exempted "
                    "(_TOGGLE_EXEMPT) in staticcheck/contracts.py — "
                    "classify it", path, root, node))
            elif fingerprint_source and getter not in fingerprint_source:
                findings.append(_finding(
                    "repo.store-key",
                    f"engine toggle {name!r} must be keyed: "
                    f"context_fingerprint does not reference {getter}()",
                    path, root, node))
    for name in (set(_TOGGLE_GETTERS) | set(_TOGGLE_EXEMPT)) - seen_toggles:
        findings.append(_finding(
            "repo.store-key",
            f"stale toggle classification: {name!r} is no longer written "
            "anywhere; remove it from staticcheck/contracts.py",
            root / "analysis" / "staticcheck" / "contracts.py", root,
            severity=Severity.WARNING))

    # 2. Config field classification (imports are safe here: core never
    #    imports analysis at module level).
    from ...core.evaluation import EvaluationConfig
    from ...core.pipeline import NadaConfig
    from ...core.results import _NON_RESULT_FIELDS

    evaluation_fields = {f.name for f in dataclasses.fields(EvaluationConfig)}
    for name in sorted(set(_NON_RESULT_FIELDS) - evaluation_fields):
        findings.append(_finding(
            "repo.store-key",
            f"_NON_RESULT_FIELDS names {name!r}, which is not an "
            "EvaluationConfig field; the allowlist is stale",
            results_path, root))

    nada_fields = {f.name for f in dataclasses.fields(NadaConfig)}
    classified = set(_NADA_KEY_FIELDS) | set(_NADA_ENGINE_FIELDS)
    pipeline_path = root / "core" / "pipeline.py"
    for name in sorted(nada_fields - classified):
        findings.append(_finding(
            "repo.store-key",
            f"NadaConfig.{name} is not classified as key material or "
            "engine-only in staticcheck/contracts.py — decide and document "
            "before shipping (this is how the fast-inference key field went "
            "missing)", pipeline_path, root))
    for name in sorted(classified - nada_fields):
        findings.append(_finding(
            "repo.store-key",
            f"stale NadaConfig classification for {name!r}; the field no "
            "longer exists",
            root / "analysis" / "staticcheck" / "contracts.py", root,
            severity=Severity.WARNING))
    overlap = set(_NADA_KEY_FIELDS) & set(_NADA_ENGINE_FIELDS)
    for name in sorted(overlap):
        findings.append(_finding(
            "repo.store-key",
            f"NadaConfig.{name} is classified as both key material and "
            "engine-only", pipeline_path, root))
    return findings


# --------------------------------------------------------------------------- #
# repo.picklability
# --------------------------------------------------------------------------- #
_POOL_ENTRY_POINTS = ("parallel_map", "run_resilient")


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: Set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.ClassDef):
                # Methods are attribute lookups at call sites, not bare
                # names; class bodies do not create closures over locals.
                visit(child, inside_function)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested


def _check_picklability(path: Path, tree: ast.Module,
                        root: Path) -> List[AuditFinding]:
    if path.name == "parallel.py":
        # The pool implementation itself wraps callables locally before
        # hand-off; its own internals are exercised by the tier-1 tests.
        return []
    findings = []
    nested = _nested_function_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if name not in _POOL_ENTRY_POINTS or not node.args:
            continue
        payload = node.args[0]
        if isinstance(payload, ast.Lambda):
            findings.append(_finding(
                "repo.picklability",
                f"lambda submitted to {name}(); lambdas cannot cross the "
                "process-pool boundary — use a module-level function",
                path, root, node))
        elif isinstance(payload, ast.Name) and payload.id in nested:
            findings.append(_finding(
                "repo.picklability",
                f"locally defined function {payload.id!r} submitted to "
                f"{name}(); closures cannot cross the process-pool boundary",
                path, root, node))
    return findings


# --------------------------------------------------------------------------- #
# repo.telemetry-noop
# --------------------------------------------------------------------------- #
_ALLOCATING_NODES = (ast.Call, ast.Dict, ast.List, ast.Set, ast.Tuple,
                     ast.ListComp, ast.SetComp, ast.DictComp,
                     ast.GeneratorExp, ast.JoinedStr, ast.BinOp)


def _allocates(stmt: ast.stmt) -> bool:
    return any(isinstance(node, _ALLOCATING_NODES) for node in ast.walk(stmt))


def _is_none_guard(test: ast.expr, sink_names: Set[str]) -> Optional[bool]:
    """True for ``sink is None``, False for ``sink is not None``, else None."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and test.left.id in sink_names
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return None
    if isinstance(test.ops[0], ast.Is):
        return True
    if isinstance(test.ops[0], ast.IsNot):
        return False
    return None


def _noop_helper_problem(fn: ast.FunctionDef) -> Optional[str]:
    """Why ``fn``'s disabled path is not allocation-free, or None if clean."""
    sink_names: Set[str] = set()
    body = list(fn.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]  # docstring
    for stmt in body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id == "_ACTIVE"):
            sink_names.add(stmt.targets[0].id)
            continue
        if isinstance(stmt, ast.If):
            guard = _is_none_guard(stmt.test, sink_names)
            if guard is True:
                # `if sink is None:` — this branch IS the disabled path.
                if any(_allocates(s) for s in stmt.body):
                    return ("allocates inside the disabled (`sink is None`) "
                            "branch")
                if stmt.body and isinstance(stmt.body[-1], ast.Return) \
                        and not stmt.orelse:
                    return None  # rest of the body is the enabled path
                continue
            if guard is False:
                # `if sink is not None:` — body is the enabled path.
                if any(_allocates(s) for s in stmt.orelse):
                    return "allocates in the else of `sink is not None`"
                continue
            return "guard is not a `sink is (not) None` comparison"
        if _allocates(stmt):
            return (f"line {stmt.lineno}: allocation outside the "
                    "None-guarded enabled path")
    return None


def _check_telemetry_noop(root: Path,
                          trees: Dict[Path, ast.Module]) -> List[AuditFinding]:
    path = root / "core" / "telemetry.py"
    tree = trees.get(path)
    if tree is None:
        return [AuditFinding(
            rule="repo.telemetry-noop", severity=Severity.ERROR,
            message="core/telemetry.py is missing or unparseable",
            file="repro/core/telemetry.py")]
    findings = []
    helpers = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    for name in _NOOP_HELPERS:
        fn = helpers.get(name)
        if fn is None:
            findings.append(_finding(
                "repo.telemetry-noop",
                f"module-level telemetry helper {name}() disappeared; "
                "instrumentation sites depend on it", path, root))
            continue
        problem = _noop_helper_problem(fn)
        if problem:
            findings.append(_finding(
                "repo.telemetry-noop",
                f"{name}() violates the no-op discipline: {problem}",
                path, root, fn))
    return findings


# --------------------------------------------------------------------------- #
# repo.fault-coverage
# --------------------------------------------------------------------------- #
def _check_fault_coverage(root: Path,
                          sites: Optional[frozenset] = None
                          ) -> List[AuditFinding]:
    """Every fault site must be named by at least one test file.

    A literal-substring scan over ``tests/*.py`` is deliberately simple:
    fault sites are dotted string constants, so a test that fires one
    necessarily spells it out (in a ``FaultRule``, a ``--faults`` spec or a
    ``from_spec`` string).  ``sites`` overrides :data:`FAULT_SITES` for the
    linter's own tests.
    """
    if sites is None:
        from ...core.faults import FAULT_SITES
        sites = FAULT_SITES
    try:
        tests_dir = root.parents[1] / "tests"
    except IndexError:
        return []
    if not tests_dir.is_dir():
        # Linting a synthetic source tree (the linter's own tests do this):
        # there is no test corpus to check against.
        return []
    corpus = "\n".join(p.read_text(encoding="utf-8", errors="replace")
                       for p in sorted(tests_dir.glob("*.py")))
    findings = []
    faults_path = root / "core" / "faults.py"
    for site in sorted(sites):
        if site not in corpus:
            findings.append(_finding(
                "repo.fault-coverage",
                f"fault site {site!r} is declared in FAULT_SITES but no "
                "test under tests/ names it — add a firing test so the "
                "recovery path cannot rot silently", faults_path, root))
    return findings


# --------------------------------------------------------------------------- #
def lint_repo(src_root: Optional[str] = None) -> List[AuditFinding]:
    """Lint the repository's own library code; returns all findings."""
    root = Path(src_root) if src_root else _repo_source_root()
    trees: Dict[Path, ast.Module] = {}
    findings: List[AuditFinding] = []
    for path in _python_files(root):
        tree = _parse(path)
        if tree is None:
            findings.append(_finding(
                "repo.syntax", f"{path.name} does not parse", path, root))
            continue
        trees[path] = tree

    for path, tree in sorted(trees.items()):
        findings.extend(_check_rng_discipline(path, tree, root))
        findings.extend(_check_picklability(path, tree, root))
    findings.extend(_check_store_keys(root, trees))
    findings.extend(_check_telemetry_noop(root, trees))
    findings.extend(_check_fault_coverage(root))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
