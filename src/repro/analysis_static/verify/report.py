"""Check catalogue, findings, suppressions and renderers for repro-verify.

Suppression syntax (same line as the finding or the immediately
preceding line)::

    # repro-verify: allow=RV205(finalizer reaps an abandoned segment)

The reason inside the parentheses is mandatory -- an ``allow`` without
one is itself a finding (``RV001``), so every waiver in the tree carries
a written justification.  Checks may be named by id (``RV205``) or by
slug (``shm-unlink-before-close``).  Reasons must not contain
parentheses.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Check:
    id: str
    slug: str
    title: str
    hint: str


CHECKS: dict[str, Check] = {
    c.id: c
    for c in (
        Check(
            "RV001",
            "bad-suppression",
            "malformed repro-verify suppression",
            "every `# repro-verify: allow=CHECK(reason)` needs a known check "
            "and a non-empty reason",
        ),
        Check(
            "RV101",
            "effect-purity",
            "effectful code in a module that must be effect-free",
            "pure modules (plan executors, core energy kernels) may not reach "
            "CLOCK/RNG/IO/shared-memory effects on any call path",
        ),
        Check(
            "RV102",
            "effect-undeclared",
            "body effects exceed the @declares_effects declaration",
            "extend the declaration or push the effect behind a declared "
            "callee; declarations are checked upper bounds, not waivers",
        ),
        Check(
            "RV201",
            "shm-missing-close",
            "shared-memory attach without a paired close",
            "every attach must close on all paths, or hand the "
            "segment to an owner that does",
        ),
        Check(
            "RV202",
            "shm-use-after-close",
            "shared-memory segment used after close",
            "views into a closed segment dangle; reorder the close",
        ),
        Check(
            "RV203",
            "shm-unlink-by-attacher",
            "attach-side unlink of a shared-memory segment",
            "only the creating owner unlinks; attachers just close",
        ),
        Check(
            "RV204",
            "shm-double-unlink",
            "segment unlinked at more than one site in one function",
            "unlink exactly once per owner",
        ),
        Check(
            "RV205",
            "shm-unlink-before-close",
            "segment unlinked before it is closed",
            "close the local mapping first, then unlink the name "
            "(create -> ... -> close -> unlink)",
        ),
        Check(
            "RV206",
            "shm-class-missing-release",
            "class holds a shared-memory segment but no method closes it",
            "add a close/release method that closes the stored segment",
        ),
    )
}

#: ``--check`` family groups: a family name expands to its member checks.
CHECK_FAMILIES: dict[str, tuple[str, ...]] = {
    "effects": ("RV101", "RV102"),
    "shm": ("RV201", "RV202", "RV203", "RV204", "RV205", "RV206"),
}

_SLUG_TO_ID = {c.slug: c.id for c in CHECKS.values()}

_ALLOW_RE = re.compile(r"#\s*repro-verify:\s*allow=(.*)$")
_ENTRY_RE = re.compile(r"([A-Za-z0-9_-]+)\s*(?:\(([^()]*)\))?")


@dataclass
class VerifyFinding:
    check: str  # check id, e.g. "RV205"
    path: str
    line: int
    col: int
    function: str  # qualname of the enclosing function ("" for module level)
    message: str
    hint: str = ""
    suppressed: bool = False
    suppress_reason: str = ""

    def fingerprint(self) -> str:
        # Line-number free so baselines survive unrelated edits.
        return f"{self.check}|{self.path}|{self.function}|{self.message}"

    def format(self) -> str:
        slug = CHECKS[self.check].slug if self.check in CHECKS else ""
        loc = f"{self.path}:{self.line}:{self.col}"
        head = f"{loc}: {self.check} [{slug}] {self.message}"
        return f"{head}\n    hint: {self.hint}" if self.hint else head

    def to_dict(self) -> dict[str, object]:
        return {
            "check": self.check,
            "slug": CHECKS[self.check].slug if self.check in CHECKS else "",
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint(),
        }


@dataclass
class Suppression:
    check_id: str
    reason: str
    line: int


def _comment_tokens(lines: list[str]) -> list[tuple[int, int, str]]:
    """(line, col, text) of every real COMMENT token -- tokenizing keeps
    ``allow=`` lookalikes inside string literals from parsing as
    suppressions."""
    source = "\n".join(lines) + "\n"
    out: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to raw lines for unparseable sources.
        return [(i, 0, t) for i, t in enumerate(lines, start=1) if "#" in t]
    return out


def parse_allows(lines: list[str]) -> tuple[dict[int, list[Suppression]], list[VerifyFinding]]:
    """Scan source comments for ``allow=`` suppressions.

    Returns (line -> suppressions that *cover* that line, RV001 findings
    for malformed entries).  A suppression on its own comment line covers
    findings on that line and the next (comment-above style); a trailing
    comment covers only its own line.
    """
    covers: dict[int, list[Suppression]] = {}
    bad: list[VerifyFinding] = []
    for idx, col, text in _comment_tokens(lines):
        m = _ALLOW_RE.search(text)
        if m is None:
            continue
        payload = m.group(1).strip()
        entries = list(_ENTRY_RE.finditer(payload))
        if not entries:
            bad.append(_bad_allow(idx, text, "empty allow list"))
            continue
        for ent in entries:
            name, reason = ent.group(1), ent.group(2)
            check_id = name if name in CHECKS else _SLUG_TO_ID.get(name, "")
            if not check_id:
                bad.append(_bad_allow(idx, text, f"unknown check {name!r}"))
                continue
            if reason is None or not reason.strip():
                bad.append(
                    _bad_allow(
                        idx, text, f"allow={name} has no reason; write allow={name}(why)"
                    )
                )
                continue
            sup = Suppression(check_id=check_id, reason=reason.strip(), line=idx)
            src_line = lines[idx - 1] if 0 < idx <= len(lines) else ""
            own_only = bool(src_line[:col].strip())  # trailing comment
            for ln in ([idx] if own_only else [idx, idx + 1]):
                covers.setdefault(ln, []).append(sup)
    return covers, bad


def _bad_allow(line: int, text: str, why: str) -> VerifyFinding:
    col = text.find("#") + 1
    return VerifyFinding(
        check="RV001",
        path="",
        line=line,
        col=max(col, 1),
        function="",
        message=why,
        hint=CHECKS["RV001"].hint,
    )


def apply_suppressions(
    findings: list[VerifyFinding],
    path: str,
    covers: Mapping[int, list[Suppression]],
) -> None:
    """Mark findings covered by an ``allow`` for their check as suppressed."""
    for f in findings:
        if f.path != path or f.check == "RV001":
            continue
        for sup in covers.get(f.line, []):
            if sup.check_id == f.check:
                f.suppressed = True
                f.suppress_reason = sup.reason
                break


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def render_text(findings: Iterable[VerifyFinding], *, show_suppressed: bool = False) -> str:
    out: list[str] = []
    shown = 0
    suppressed = 0
    for f in findings:
        if f.suppressed:
            suppressed += 1
            if not show_suppressed:
                continue
            out.append(f"{f.format()}\n    suppressed: {f.suppress_reason}")
            continue
        shown += 1
        out.append(f.format())
    tail = f"{shown} finding(s)"
    if suppressed:
        tail += f", {suppressed} suppressed"
    out.append(tail)
    return "\n".join(out)


def render_json(findings: Iterable[VerifyFinding]) -> str:
    active = [f.to_dict() for f in findings if not f.suppressed]
    suppressed = [
        {**f.to_dict(), "reason": f.suppress_reason} for f in findings if f.suppressed
    ]
    return json.dumps(
        {"findings": active, "suppressed": suppressed, "count": len(active)},
        indent=2,
        sort_keys=True,
    )


def render_sarif(findings: Iterable[VerifyFinding], *, root: Path | None = None) -> str:
    """Minimal SARIF 2.1.0 document, enough for GitHub code scanning."""
    rules = [
        {
            "id": c.id,
            "name": c.slug,
            "shortDescription": {"text": c.title},
            "help": {"text": c.hint},
        }
        for c in sorted(CHECKS.values(), key=lambda c: c.id)
    ]
    results = []
    for f in findings:
        if f.suppressed:
            continue
        uri = f.path
        if root is not None:
            try:
                uri = str(Path(f.path).resolve().relative_to(root.resolve()))
            except ValueError:
                uri = f.path
        results.append(
            {
                "ruleId": f.check,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": uri.replace("\\", "/")},
                            "region": {
                                "startLine": f.line,
                                "startColumn": max(f.col, 1),
                            },
                        }
                    }
                ],
            }
        )
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-verify",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass
class CheckContext:
    """Shared bag passed to every checker: emit() routes findings."""

    findings: list[VerifyFinding] = field(default_factory=list)

    def emit(
        self,
        check: str,
        path: str,
        line: int,
        col: int,
        function: str,
        message: str,
    ) -> None:
        self.findings.append(
            VerifyFinding(
                check=check,
                path=path,
                line=line,
                col=col,
                function=function,
                message=message,
                hint=CHECKS[check].hint,
            )
        )
