"""Per-line ``# repro: ignore[rule]`` suppression pragmas.

A pragma suppresses findings of the named rule(s) on its own line, or —
when it is the only content of a line — on the next code line below it.
A standalone pragma placed above a decorated ``def``/``class`` governs
the *decorated statement*, not the decorator line: decorator lines are
skipped so the pragma excuses what it visually annotates.
Multiple rules are comma-separated; ``# repro: ignore`` with no bracket
suppresses every rule on that line (reserved for generated code).

Examples::

    t0 = time.monotonic()  # repro: ignore[determinism]

    # repro: ignore[layering, hygiene]
    from repro.api import Session

    # repro: ignore[hygiene]
    @functools.cache          # pragma governs the def below, not this
    def lookup(key, cache={}):
        ...

Unused pragmas are themselves reported by the engine (rule
``unused-pragma``) so suppressions cannot silently outlive the code
they excuse.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

_PRAGMA_RE = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")


@dataclass(slots=True)
class Pragma:
    """One parsed pragma comment."""

    line: int
    #: Rule names it suppresses; empty frozenset means "all rules".
    rules: frozenset[str]
    #: Set by the engine when the pragma suppressed at least one finding.
    used: bool = field(default=False)

    def matches(self, rule: str) -> bool:
        return not self.rules or rule in self.rules


def _decorator_targets(source: str) -> dict[int, int]:
    """Map every decorator line to the line of the statement it
    decorates, so standalone pragmas can skip past decorators."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return {}
    targets: dict[int, int] = {}
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        first = min(d.lineno for d in decorators)
        # Cover the whole decorator block (multi-line decorator calls
        # included) up to — excluding — the def/class line itself.
        for line in range(first, node.lineno):
            targets[line] = node.lineno
    return targets


class PragmaIndex:
    """Pragmas of one file, addressable by the line they govern."""

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, Pragma] = {}
        # Tokenize rather than regex-scan raw lines so pragma *examples*
        # inside docstrings and string literals do not register.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return
        decorator_targets: dict[int, int] | None = None
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            rules = frozenset(
                name.strip()
                for name in (match.group("rules") or "").split(",")
                if name.strip()
            )
            pragma = Pragma(line=lineno, rules=rules)
            if tok.line[: tok.start[1]].strip():
                # Trailing comment: governs its own line.
                self._by_line[lineno] = pragma
            else:
                # Standalone comment line: governs the next line — or,
                # when that line starts a decorator block, the decorated
                # def/class statement the pragma reads as excusing.
                governed = lineno + 1
                if decorator_targets is None:
                    decorator_targets = _decorator_targets(source)
                governed = decorator_targets.get(governed, governed)
                self._by_line[governed] = pragma

    def suppresses(self, line: int, rule: str) -> bool:
        """True if a pragma governs *line* for *rule* (marks it used)."""
        pragma = self._by_line.get(line)
        if pragma is not None and pragma.matches(rule):
            pragma.used = True
            return True
        return False

    def unused(self) -> list[Pragma]:
        """Pragmas that suppressed nothing (deduplicated, line order)."""
        seen: dict[int, Pragma] = {}
        for pragma in self._by_line.values():
            if not pragma.used:
                seen.setdefault(pragma.line, pragma)
        return [seen[line] for line in sorted(seen)]
