"""Command-line interface: run verdict grids, audit the theory, list names."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .errors import ConfigError, CstarSeqError
from .reporting import (
    RunConfig,
    audit_json,
    audit_lines,
    audit_paper,
    list_scenarios,
    run,
    stable_dumps,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarseq",
        description="Certificate-backed ideal-convergence verdicts in "
                    "C*-algebra valued metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario/metric/ideal grid")
    p_run.add_argument("--config", default=None,
                       help="JSON file with RunConfig fields; flags override")
    p_run.add_argument("--scenario", default=None)
    p_run.add_argument("--metric", default=None)
    p_run.add_argument("--ideal", default=None)
    p_run.add_argument("--eps", dest="eps_list", type=float, action="append",
                       help="epsilon level (repeatable; default 0.1 and 0.01)")
    p_run.add_argument("--window", type=int, default=None)
    p_run.add_argument("--limit", type=float, default=None)
    p_run.add_argument("--strict", action="store_const", const=True,
                       help="exit 3 when any verdict is Unknown")
    p_run.add_argument("--out", default=None, help="write the JSON report here")
    p_run.add_argument("--table", action="store_true",
                       help="print a human-readable table instead of JSON")

    p_audit = sub.add_parser("audit-paper",
                             help="re-derive the audited claims")
    p_audit.add_argument("--window", type=int, default=None)
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--json", action="store_true",
                         help="print the JSON report instead of PASS/FAIL lines")

    sub.add_parser("list-scenarios", help="list scenario/metric/ideal names")
    return parser


# The config-file keys, and the run flags' destinations.
_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _load_config_file(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return raw


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            print(stable_dumps(list_scenarios()))
            return 0
        if args.command == "run":
            fields = _load_config_file(args.config) if args.config else {}
            fields.update((name, getattr(args, name)) for name in _FIELDS
                          if getattr(args, name, None) is not None)
            report = run(RunConfig(**fields))
            payload = stable_dumps(report.to_json())
            text = report.table() if args.table else payload
            code = report.exit_code
        else:
            report = audit_paper(window=args.window)
            payload = audit_json(report)
            text = payload if args.json else audit_lines(report)
            code = 0 if report["all_pass"] else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CstarSeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
