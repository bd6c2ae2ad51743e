"""Command-line front end for ``repro-lint``.

Invoked as ``python -m repro.lint [paths...]``.  Exit status: 0 when no
finding survives suppression (and the baseline, when one is given),
1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import BaselineError, load_baseline, write_baseline
from .linter import lint_paths
from .rules import RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("repro-lint: repo-specific determinism rules "
                     f"({min(RULES)}..{max(RULES)}) over Python sources."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--rules", default=None, metavar="REPxxx[,REPxxx]",
                        help="run only the named rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="accepted-findings baseline: only findings "
                             "not in FILE fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to --baseline "
                             "and exit 0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            scope = ("all files except roles "
                     if rule.invert_roles else "roles ")
            print(f"{rule.id}  {rule.title}")
            print(f"        scope: {scope}{', '.join(sorted(rule.roles))}")
            print(f"        hint:  {rule.hint}")
        return 0

    only = None
    if args.rules:
        only = frozenset(r.strip().upper() for r in args.rules.split(",")
                         if r.strip())
        unknown = only - set(RULES)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    if args.write_baseline and not args.baseline:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    findings = lint_paths(list(args.paths), only_rules=only)

    if args.write_baseline:
        fps = {f.fingerprint() for f in findings}
        write_baseline(Path(args.baseline), fps)
        print(f"repro-lint: wrote {len(fps)} fingerprint(s) to "
              f"{args.baseline}")
        return 0

    baselined = 0
    if args.baseline:
        try:
            known = load_baseline(Path(args.baseline))
        except BaselineError as err:
            print(str(err), file=sys.stderr)
            return 2
        kept = [f for f in findings if f.fingerprint() not in known]
        baselined = len(findings) - len(kept)
        findings = kept

    if args.format == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        }, indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"repro-lint: {n} finding{'s' if n != 1 else ''}"
              if n else "repro-lint: clean")
        if baselined:
            print(f"repro-lint: {baselined} baselined finding(s) hidden")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
