"""repro-verify: whole-program static verification (see docs/ANALYSIS.md).

Two analyses over one shared program model:

* :mod:`.effects`   -- interprocedural effect inference (RV101/RV102)
* :mod:`.typestate` -- shared-memory segment protocol (RV201..RV206)

plus :mod:`.annotations` (the runtime ``@declares_effects`` decorator)
and :mod:`.report` (catalogue, suppressions, renderers).

Entry points: ``python -m repro.verify`` (CLI) or :func:`run_verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .annotations import EFFECT_NAMES, declared_effects_of, declares_effects
from .effects import EffectAnalysis
from .program import Program
from .report import (
    CHECK_FAMILIES,
    CHECKS,
    CheckContext,
    VerifyFinding,
    apply_suppressions,
    parse_allows,
    render_json,
    render_sarif,
    render_text,
)
from .typestate import TypestateChecker

__all__ = [
    "CHECKS",
    "CHECK_FAMILIES",
    "EFFECT_NAMES",
    "EffectAnalysis",
    "Program",
    "VerifyFinding",
    "VerifyResult",
    "declared_effects_of",
    "declares_effects",
    "render_json",
    "render_sarif",
    "render_text",
    "run_verify",
]


@dataclass
class VerifyResult:
    findings: list[VerifyFinding]  # suppressed ones included, marked
    program: Program
    effects: EffectAnalysis

    @property
    def active(self) -> list[VerifyFinding]:
        return [f for f in self.findings if not f.suppressed]

    def effects_of(self, qualname: str) -> frozenset[str]:
        """Inferred (body) effects of a function by dotted qualname."""
        return self.effects.effects_of(qualname)


def run_verify(
    paths: Sequence[Path],
    *,
    checks: Sequence[str] | None = None,
) -> VerifyResult:
    """Run every analysis over ``paths`` and return ordered findings."""
    program = Program.load([Path(p) for p in paths])
    effects = EffectAnalysis(program)
    ctx = CheckContext()
    effects.run_checks(ctx)
    TypestateChecker(program).run_checks(ctx)

    for mod in program.modules.values():
        covers, bad = parse_allows(mod.lines)
        path = str(mod.path)
        for b in bad:
            b.path = path
            ctx.findings.append(b)
        apply_suppressions(ctx.findings, path, covers)

    findings = ctx.findings
    if checks:
        wanted = set(checks) | {"RV001"}
        findings = [f for f in findings if f.check in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.check, f.message))
    return VerifyResult(findings=findings, program=program, effects=effects)
