"""AST-based determinism/race lint for the distributed sweep layer.

Byte-identical Δcost tables under every interleaving rest on a handful
of code-level disciplines that no runtime test can exhaustively
enforce.  This pass walks the source tree and flags violations of each
as a structured finding:

``CONC001`` *unblessed-journal-write*
    File writes in journal-bearing modules outside the blessed sinks
    (the flock'd append helper, the atomic compaction/replace paths).
    Any other write can interleave with concurrent appenders or leave
    non-atomic state a crash exposes.
``CONC002`` *wall-clock or randomness in a pure module*
    ``time.time()`` / ``datetime.now()`` / ``random`` reachable from
    modules whose output must be a pure function of their inputs --
    journal replay, report formatting, static analysis.  A clock read
    there silently makes replays irreproducible.
``CONC003`` *unordered iteration feeding serialized output*
    Iterating a ``set`` directly (``for``/``join``/``list``/``tuple``
    without ``sorted``) anywhere, and ``json.dumps`` without
    ``sort_keys=True`` in modules that emit serialized reports.  Set
    order is salted per process; two workers would serialize the same
    data differently.
``CONC004`` *fork-unsafe module state*
    Module-level file handles, locks, or RNG instances.  Spawned
    children re-import the module (fresh state the parent never sees)
    while forked children share the handle -- either way the behaviour
    depends on the start method, which the runner deliberately pins.
``CONC005`` *non-reentrant work in a signal handler*
    Handlers registered via ``signal.signal`` that acquire locks,
    write, flush, or sleep.  A handler interrupting the flock'd append
    it then re-enters deadlocks or tears the journal.

Every rule honours a per-entry allowlist in ``pyproject.toml`` under
``[tool.repro.concurrency-lint]``; entries carry their justification
inline (``"CONC001:repro/exec/faults.py:flip_bit -- chaos tool"``).
A whole-tree run reports each entry that matched no finding as
``CONC006`` *stale allowlist entry*, an error no entry can allowlist:
an entry outliving the code it excused would silently excuse the next
finding that happens to match it.
Findings and reports serialize deterministically (sorted, schema
versioned) so CI can byte-diff two runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Dotted-call suffixes that read wall clocks or entropy (CONC002).
NONDETERMINISM_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "date.today",
    "random.random", "random.randint", "random.choice", "random.choices",
    "random.shuffle", "random.sample", "random.uniform", "random.randrange",
    "random.getrandbits", "random.seed",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
})

#: Constructors that create fork-unsafe state at module level (CONC004).
FORK_UNSAFE_CALLS = frozenset({
    "open", "os.fdopen",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Pool", "multiprocessing.Queue",
    "multiprocessing.Manager", "multiprocessing.Lock",
    "random.Random", "numpy.random.default_rng", "np.random.default_rng",
    "numpy.random.RandomState", "np.random.RandomState",
})

#: Attribute-call names a signal handler must not make (CONC005): lock
#: acquisition, blocking waits, and journal/file IO are non-reentrant
#: with respect to the very code the signal interrupts.
HANDLER_BANNED_ATTRS = frozenset({
    "acquire", "join", "wait", "flush", "write", "fsync", "sleep",
    "dump", "dumps", "append",
})
HANDLER_BANNED_NAMES = frozenset({"open"})

#: Rule code of an allowlist entry that matched no finding.  These
#: findings are made after allowlist matching, so no entry excuses
#: them.
STALE_ALLOW_RULE = "CONC006"

#: File-writing call forms in journal modules (CONC001).
WRITE_ATTR_CALLS = frozenset({"write_text", "write_bytes"})
REPLACE_CALLS = frozenset({"os.replace", "os.rename"})


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One lint hit, with its allowlist disposition."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    allowlisted: bool = False
    justification: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "allowlisted": self.allowlisted,
            "justification": self.justification,
        }

    def __str__(self) -> str:
        mark = " (allowlisted)" if self.allowlisted else ""
        return (
            f"{self.rule} {self.path}:{self.line} [{self.symbol}] "
            f"{self.message}{mark}"
        )


@dataclass(frozen=True)
class LintConfig:
    """Scopes and allowlist of one lint run.

    Paths are POSIX-style and relative to the directory containing the
    ``repro`` package (``repro/exec/checkpoint.py``); an entry ending
    in ``/`` matches the whole subtree.  ``allow`` entries are
    ``"RULE:path[:qualname] -- justification"``.
    """

    journal_modules: tuple[str, ...] = (
        "repro/exec/",
        "repro/ilp/solve_cache.py",
    )
    pure_modules: tuple[str, ...] = (
        "repro/exec/leases.py",
        "repro/exec/checkpoint.py",
        "repro/eval/report.py",
        "repro/util/tables.py",
        "repro/util/integrity.py",
        "repro/analysis/",
    )
    serialized_modules: tuple[str, ...] = (
        "repro/exec/checkpoint.py",
        "repro/eval/report.py",
        "repro/util/integrity.py",
        "repro/analysis/",
        "repro/cli.py",
        "repro/ilp/solve_cache.py",
        "repro/clips/serialization.py",
    )
    blessed_sinks: tuple[str, ...] = (
        "repro/exec/checkpoint.py:CheckpointJournal._append_locked",
        "repro/exec/checkpoint.py:CheckpointJournal._compact",
        "repro/exec/checkpoint.py:CheckpointJournal.clear",
        "repro/ilp/solve_cache.py:SolveCache.put",
        "repro/ilp/solve_cache.py:SolveCache._quarantine",
    )
    allow: tuple[str, ...] = ()


@dataclass
class ConcurrencyLintReport:
    """All findings of one run; ``errors`` excludes allowlisted ones."""

    findings: list[ConcurrencyFinding] = field(default_factory=list)
    n_files: int = 0

    @property
    def errors(self) -> "list[ConcurrencyFinding]":
        return [f for f in self.findings if not f.allowlisted]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict[str, Any]:
        ordered = sorted(self.findings, key=ConcurrencyFinding.sort_key)
        return {
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "n_errors": len(self.errors),
            "ok": self.ok,
            "findings": [f.to_dict() for f in ordered],
        }


# ---------------------------------------------------------------------------
# Allowlist / pyproject config
# ---------------------------------------------------------------------------


def _parse_allow_entry(entry: str) -> tuple[str, str, str, str]:
    """``"RULE:path[:qualname] -- why"`` -> (rule, path, qualname, why)."""
    body, _, justification = entry.partition(" -- ")
    parts = body.strip().split(":")
    rule = parts[0]
    path = parts[1] if len(parts) > 1 else ""
    qualname = parts[2] if len(parts) > 2 else "*"
    return rule, path, qualname, justification.strip()


def _entry_matches(entry: str, rule: str, path: str, qualname: str) -> bool:
    arule, apath, aqual, _ = _parse_allow_entry(entry)
    return arule == rule and apath == path and aqual in ("*", qualname)


def _allow_match(
    config: LintConfig, rule: str, path: str, qualname: str
) -> "tuple[bool, str]":
    for entry in config.allow:
        if _entry_matches(entry, rule, path, qualname):
            return True, _parse_allow_entry(entry)[3]
    return False, ""


def _stale_entries(
    config: LintConfig, findings: "list[ConcurrencyFinding]"
) -> "list[ConcurrencyFinding]":
    """One error finding per allowlist entry that matched nothing."""
    stale = []
    for entry in config.allow:
        if any(
            _entry_matches(entry, f.rule, f.path, f.symbol) for f in findings
        ):
            continue
        _, path, qualname, _ = _parse_allow_entry(entry)
        stale.append(
            ConcurrencyFinding(
                rule=STALE_ALLOW_RULE, path=path, line=0, col=0,
                symbol=qualname,
                message="allowlist entry matches no finding: "
                + entry.partition(" -- ")[0].strip(),
            )
        )
    return stale


def _in_scope(path: str, scopes: tuple[str, ...]) -> bool:
    return any(
        path.startswith(scope) if scope.endswith("/") else path == scope
        for scope in scopes
    )


def load_config(pyproject: "Path | None") -> LintConfig:
    """Lint config with ``[tool.repro.concurrency-lint]`` overlays.

    Only the allowlist and scope lists are configurable; rule
    semantics are fixed in code.  Parsing falls back to a minimal
    line-based reader on Python 3.10 (no :mod:`tomllib`): the section
    must contain only ``key = [...]`` string-list assignments, which
    is all the schema allows anyway.
    """
    defaults = LintConfig()
    if pyproject is None or not pyproject.exists():
        return defaults
    section = _read_section(pyproject)
    if not section:
        return defaults

    def strings(key: str, fallback: tuple[str, ...]) -> tuple[str, ...]:
        value = section.get(key)
        if value is None:
            return fallback
        return tuple(str(item) for item in value)

    return LintConfig(
        journal_modules=strings("journal-modules", defaults.journal_modules),
        pure_modules=strings("pure-modules", defaults.pure_modules),
        serialized_modules=strings(
            "serialized-modules", defaults.serialized_modules
        ),
        blessed_sinks=strings("blessed-sinks", defaults.blessed_sinks),
        allow=strings("allow", defaults.allow),
    )


_SECTION = "tool.repro.concurrency-lint"


def _read_section(pyproject: Path) -> dict:
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib

        data = tomllib.loads(text)
        node: Any = data
        for part in _SECTION.split("."):
            if not isinstance(node, dict) or part not in node:
                return {}
            node = node[part]
        return node if isinstance(node, dict) else {}
    except ModuleNotFoundError:  # Python 3.10: minimal fallback parser
        return _read_section_fallback(text)


def _read_section_fallback(text: str) -> dict:
    lines = text.splitlines()
    in_section = False
    body: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{_SECTION}]"
            continue
        if in_section and not stripped.startswith("#"):
            body.append(line)
    section: dict = {}
    key = None
    buffer = ""
    for line in body:
        if "=" in line and key is None:
            key, _, rest = line.partition("=")
            key = key.strip()
            buffer = rest.strip()
        elif key is not None:
            buffer += " " + line.strip()
        if key is not None and buffer.count("[") == buffer.count("]"):
            try:
                section[key] = ast.literal_eval(buffer)
            except (ValueError, SyntaxError):
                pass
            key, buffer = None, ""
    return section


# ---------------------------------------------------------------------------
# The AST pass
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """Dotted text of a Name/Attribute chain (``a.b.c``), else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _matches(dotted: str, patterns: frozenset) -> bool:
    """True when the call's dotted name matches a pattern by suffix
    (``datetime.datetime.now`` matches ``datetime.now``)."""
    if not dotted:
        return False
    if dotted in patterns:
        return True
    parts = dotted.split(".")
    for n in (2, 3):
        if len(parts) >= n and ".".join(parts[-n:]) in patterns:
            return True
    return False


def _is_write_open(call: ast.Call) -> bool:
    """``open(..., mode)`` / ``os.fdopen(..., mode)`` with a
    write-capable mode (contains w/a/x/+)."""
    name = _dotted(call.func)
    if name not in ("open", "os.fdopen"):
        return False
    mode: "ast.expr | None" = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # read-only default mode
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in mode.value for ch in "wax+")
    return True  # dynamic mode: assume write-capable (conservative)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, config: LintConfig):
        self.path = path
        self.config = config
        self.raw: list[tuple[str, int, int, str, str]] = []
        self._stack: list[str] = []
        #: handler function names registered via ``signal.signal``.
        self.handler_names: set[str] = set()
        self.lambda_handlers: list[ast.Lambda] = []
        self.functions: dict[str, ast.AST] = {}

    # -- qualname bookkeeping ------------------------------------------------

    @property
    def qualname(self) -> str:
        return ".".join(self._stack) if self._stack else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_func(self, node) -> None:
        self._stack.append(node.name)
        self.functions[node.name] = node
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- findings ------------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.raw.append(
            (rule, getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
             self.qualname, message)
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_journal_write(node, dotted)
        self._check_nondeterminism(node, dotted)
        self._check_serialization(node, dotted)
        self._check_fork_unsafe(node, dotted)
        self._collect_handler(node, dotted)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.report(
                "CONC003", node.iter,
                "iteration over a set has process-salted order; wrap the "
                "iterable in sorted()",
            )
        self.generic_visit(node)

    # -- rule bodies ---------------------------------------------------------

    def _check_journal_write(self, node: ast.Call, dotted: str) -> None:
        if not _in_scope(self.path, self.config.journal_modules):
            return
        sink = f"{self.path}:{self.qualname}"
        if sink in self.config.blessed_sinks:
            return
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else ""
        if _is_write_open(node):
            what = f"write-capable {_dotted(node.func)}()"
        elif attr in WRITE_ATTR_CALLS:
            what = f".{attr}()"
        elif dotted in REPLACE_CALLS:
            what = f"{dotted}()"
        else:
            return
        self.report(
            "CONC001", node,
            f"{what} outside the blessed journal sinks; route the write "
            "through the flock'd append helper or an atomic-replace sink",
        )

    def _check_nondeterminism(self, node: ast.Call, dotted: str) -> None:
        if not _in_scope(self.path, self.config.pure_modules):
            return
        if _matches(dotted, NONDETERMINISM_CALLS):
            self.report(
                "CONC002", node,
                f"{dotted}() in a pure replay/report module; inject the "
                "clock or randomness from the caller instead",
            )

    def _check_serialization(self, node: ast.Call, dotted: str) -> None:
        if dotted in ("json.dumps", "json.dump") and _in_scope(
            self.path, self.config.serialized_modules
        ):
            sorted_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not sorted_keys:
                self.report(
                    "CONC003", node,
                    f"{dotted}() without sort_keys=True in a serializing "
                    "module; dict insertion order is not a stable contract "
                    "across writers",
                )
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            if node.args and _is_set_expr(node.args[0]):
                self.report(
                    "CONC003", node,
                    "join() over a set has process-salted order; wrap the "
                    "iterable in sorted()",
                )
        if dotted in ("list", "tuple") and node.args and _is_set_expr(
            node.args[0]
        ):
            self.report(
                "CONC003", node,
                f"{dotted}() over a set has process-salted order; use "
                "sorted() to fix the sequence",
            )

    def _check_fork_unsafe(self, node: ast.Call, dotted: str) -> None:
        if self._stack:
            return  # only module-level state is fork/spawn-hazardous
        if _matches(dotted, FORK_UNSAFE_CALLS) or (
            dotted == "open" and _is_write_open(node)
        ):
            self.report(
                "CONC004", node,
                f"module-level {dotted}() creates state captured across "
                "_mp_context() starts; construct it per-process instead",
            )

    def _collect_handler(self, node: ast.Call, dotted: str) -> None:
        if dotted != "signal.signal" or len(node.args) < 2:
            return
        handler = node.args[1]
        if isinstance(handler, ast.Name):
            self.handler_names.add(handler.id)
        elif isinstance(handler, ast.Lambda):
            self.lambda_handlers.append(handler)


def _check_handlers(visitor: _Visitor) -> None:
    """CONC005: scan the bodies of registered signal handlers."""
    bodies: list[tuple[str, ast.AST]] = []
    for name in sorted(visitor.handler_names):
        func = visitor.functions.get(name)
        if func is not None:
            bodies.append((name, func))
    for i, lam in enumerate(visitor.lambda_handlers):
        bodies.append((f"<lambda#{i}>", lam))
    for name, body in bodies:
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else ""
            )
            banned = (
                dotted in HANDLER_BANNED_NAMES or attr in HANDLER_BANNED_ATTRS
            )
            if banned:
                visitor.raw.append((
                    "CONC005", node.lineno, node.col_offset, name,
                    f"signal handler {name!r} calls "
                    f"{dotted or '.' + attr}(); handlers must only set "
                    "flags or re-raise -- non-reentrant work deadlocks or "
                    "tears the journal it interrupted",
                ))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str, path: str, config: "LintConfig | None" = None
) -> "list[ConcurrencyFinding]":
    """Lint one module's source text (unit-test entry point)."""
    if config is None:
        config = LintConfig()
    tree = ast.parse(source)
    visitor = _Visitor(path, config)
    visitor.visit(tree)
    _check_handlers(visitor)
    findings = []
    for rule, line, col, qualname, message in visitor.raw:
        allowed, why = _allow_match(config, rule, path, qualname)
        findings.append(
            ConcurrencyFinding(
                rule=rule, path=path, line=line, col=col, symbol=qualname,
                message=message, allowlisted=allowed, justification=why,
            )
        )
    return sorted(findings, key=ConcurrencyFinding.sort_key)


def package_root() -> Path:
    """Directory containing the installed/served ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def lint_concurrency(
    root: "Path | None" = None,
    config: "LintConfig | None" = None,
) -> ConcurrencyLintReport:
    """Lint every module of the ``repro`` package under ``root``.

    ``root`` is the directory *containing* the ``repro`` package
    (defaults to the imported one); the pyproject allowlist is read
    from the enclosing checkout when present.  Allowlist entries that
    matched no finding are reported as ``CONC006`` errors.
    """
    if root is None:
        root = package_root()
    if config is None:
        pyproject = _find_pyproject(root)
        config = load_config(pyproject)
    report = ConcurrencyLintReport()
    for path in sorted((root / "repro").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        report.n_files += 1
        report.findings.extend(
            lint_source(path.read_text(encoding="utf-8"), rel, config)
        )
    report.findings.extend(_stale_entries(config, report.findings))
    report.findings.sort(key=ConcurrencyFinding.sort_key)
    return report


def _find_pyproject(root: Path) -> "Path | None":
    for candidate in (root, *root.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.exists():
            return pyproject
    return None
