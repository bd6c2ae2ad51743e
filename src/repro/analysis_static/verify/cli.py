"""Command-line front end for ``repro-verify``.

Invoked as ``python -m repro.verify [paths...]``.  Exit status: 0 when
no finding survives suppressions and the baseline, 1 otherwise, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..baseline import BaselineError, load_baseline, write_baseline
from . import run_verify
from .report import (CHECK_FAMILIES, CHECKS, render_json, render_sarif,
                     render_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "repro-verify: whole-program effect inference and "
            "shared-memory typestate (RV001..RV206)."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to verify (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--checks", "--check", default=None,
                        metavar="RVxxx[,family]", dest="checks",
                        help="run only the named checks; entries may be "
                             "check ids (RV205) or families "
                             f"({', '.join(sorted(CHECK_FAMILIES))}); "
                             "RV001 always runs")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check catalogue and exit")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="accepted-findings baseline: only findings not "
                             "in FILE fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to --baseline "
                             "and exit 0")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in text output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_checks:
        for check in sorted(CHECKS.values(), key=lambda c: c.id):
            print(f"{check.id}  [{check.slug}] {check.title}")
            print(f"        hint: {check.hint}")
        return 0

    only: list[str] | None = None
    if args.checks:
        only = []
        for raw in args.checks.split(","):
            name = raw.strip()
            if not name:
                continue
            # A family name (effects, shm) expands to its
            # member checks; anything else must be a check id.
            family = CHECK_FAMILIES.get(name.lower())
            if family is not None:
                only.extend(family)
            else:
                only.append(name.upper())
        unknown = set(only) - set(CHECKS)
        if unknown:
            print(f"unknown check(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    if args.write_baseline and not args.baseline:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    result = run_verify([Path(p) for p in args.paths], checks=only)
    findings = result.findings

    if args.write_baseline:
        fps = {f.fingerprint() for f in findings if not f.suppressed}
        write_baseline(Path(args.baseline), fps)
        print(f"repro-verify: wrote {len(fps)} fingerprint(s) to "
              f"{args.baseline}")
        return 0

    baselined = 0
    if args.baseline:
        try:
            known = load_baseline(Path(args.baseline))
        except BaselineError as err:
            print(str(err), file=sys.stderr)
            return 2
        kept = []
        matched: set[str] = set()
        for f in findings:
            if not f.suppressed and f.fingerprint() in known:
                baselined += 1
                matched.add(f.fingerprint())
                continue
            kept.append(f)
        findings = kept
        # Stale entries are a warning, never an error: the ratchet only
        # tightens when someone re-writes the baseline.
        stale = sorted(known - matched)
        if stale:
            print(f"repro-verify: warning: {len(stale)} baseline "
                  "fingerprint(s) match no current finding (stale; "
                  "re-run with --write-baseline to tighten):",
                  file=sys.stderr)
            for fp in stale:
                print(f"  {fp}", file=sys.stderr)

    active = [f for f in findings if not f.suppressed]
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, root=Path.cwd()))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
        if baselined:
            print(f"repro-verify: {baselined} baselined finding(s) hidden")
        print("repro-verify: clean" if not active
              else f"repro-verify: {len(active)} new finding(s)")
    return 1 if active else 0


if __name__ == "__main__":
    raise SystemExit(main())
