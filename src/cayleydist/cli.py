"""Command-line front end.

Every subcommand prints human-readable text by default and a deterministic
JSON document with --json (optionally to a file).  Exit codes: 0 computed /
verified, 1 a mathematical check failed (a counterexample or lemma
violation), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import InputError, ViolationError
from .group_core import (
    GroupKind,
    GroupTable,
    Permutation,
    make_group,
    transport,
)
from .metric import (
    analytic_lower_bound,
    check_lemmas,
    delta0,
    dist,
    hom_distance,
    min_transposition_mf,
    reconstruct_isomorphism,
)
from .search import brute_delta, prime_stability_verify


@dataclass
class CommandResult:
    command: str
    params: dict
    result: dict
    witnesses: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    runtime_ms: int = 0
    exit_code: int = 0
    text: str = ""

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "result": self.result,
            "witnesses": self.witnesses,
            "counts": self.counts,
            "runtime_ms": self.runtime_ms,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _load_table(path: str) -> GroupTable:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read table file {path}: {exc}") from exc
    return GroupTable.from_text(text)


def _parse_perm(args: argparse.Namespace, n: int) -> Permutation:
    if getattr(args, "perm", None):
        return Permutation.parse(args.perm, n=n)
    if getattr(args, "cycles", None):
        text = args.cycles.strip()
        if not text.startswith("("):
            text = "(" + text + ")"
        return Permutation.parse(text, n=n)
    raise InputError("a permutation is required: pass --perm or --cycles")


def _perm_witness(p: Permutation) -> dict:
    return {"image": list(p.image), "cycles": p.cycle_notation()}


def _write_or_print(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _cmd_validate(args) -> CommandResult:
    t = _load_table(args.table)
    return CommandResult(
        command="validate",
        params={"table": args.table},
        result={"valid": True, "n": t.n, "identity": t.identity},
        text=f"valid group table: n={t.n}, identity={t.identity}",
    )


def _cmd_dist(args) -> CommandResult:
    a, b = _load_table(args.table_a), _load_table(args.table_b)
    prof = dist(a, b)
    result = {"total": prof.total}
    text = f"dist = {prof.total}"
    if args.profile:
        result.update(
            {
                "row": list(prof.row),
                "m": prof.m,
                "agreement": list(prof.agreement),
            }
        )
        text += (
            f"\nrow distances: {list(prof.row)}"
            f"\nm = {prof.m if prof.m is not None else 'undefined (identities differ)'}"
            f"\nagreement set: {list(prof.agreement)}"
        )
    return CommandResult(
        command="dist",
        params={"table_a": args.table_a, "table_b": args.table_b},
        result=result,
        text=text,
    )


def _cmd_delta0(args) -> CommandResult:
    t = _load_table(args.table)
    value = delta0(t)
    return CommandResult(
        command="delta0",
        params={"table": args.table},
        result={"delta0": value, "n": t.n},
        text=f"delta0 = {value}",
    )


def _cmd_mf(args) -> CommandResult:
    t = _load_table(args.table)
    f = _parse_perm(args, t.n)
    value = hom_distance(f, t, t)
    return CommandResult(
        command="mf",
        params={"table": args.table, "perm": list(f.image)},
        result={"mf": value},
        witnesses={"perm": _perm_witness(f)},
        text=f"m_f = {value}",
    )


def _cmd_transport(args) -> CommandResult:
    t = _load_table(args.table)
    f = _parse_perm(args, t.n)
    out = transport(t, f)
    _write_or_print(out.to_text(), args.output)
    return CommandResult(
        command="transport",
        params={"table": args.table, "perm": list(f.image), "output": args.output},
        result={"n": out.n, "identity": out.identity},
        witnesses={"perm": _perm_witness(f)},
        text=f"transported table written to {args.output}" if args.output else "",
    )


def _cmd_make(args) -> CommandResult:
    kind = GroupKind.parse(args.kind)
    t = make_group(kind)
    _write_or_print(t.to_text(), args.output)
    return CommandResult(
        command="make",
        params={"kind": kind.label(), "output": args.output},
        result={"n": t.n, "identity": t.identity},
        text=f"{kind.label()} table written to {args.output}" if args.output else "",
    )


def _cmd_min_transposition(args) -> CommandResult:
    t = _load_table(args.table)
    value, witness = min_transposition_mf(t)
    return CommandResult(
        command="min-transposition",
        params={"table": args.table},
        result={"min_mf": value},
        witnesses={"transposition": _perm_witness(witness)},
        counts={"transpositions": t.n * (t.n - 1) // 2},
        text=f"min m_f over transpositions = {value}, witness {witness.cycle_notation()}",
    )


def _cmd_reconstruct(args) -> CommandResult:
    a, b = _load_table(args.table_a), _load_table(args.table_b)
    f = reconstruct_isomorphism(a, b)
    return CommandResult(
        command="reconstruct",
        params={"table_a": args.table_a, "table_b": args.table_b},
        result={"found": True},
        witnesses={"isomorphism": _perm_witness(f)},
        text=f"isomorphism: {f.cycle_notation()} (image {list(f.image)})",
    )


def _cmd_bounds(args) -> CommandResult:
    report = analytic_lower_bound(args.p, args.m)
    result = report.to_dict()
    lines = [f"analytic bounds for p={args.p}, m={args.m} (threshold {result['threshold']}):"]
    lines.extend(f"  {name} = {value}" for name, value in report.bounds)
    lines.append(f"  best = {report.best}, excluded = {report.excluded}")
    return CommandResult(
        command="bounds",
        params={"p": args.p, "m": args.m},
        result=result,
        text="\n".join(lines),
    )


def _cmd_check_lemmas(args) -> CommandResult:
    a, b = _load_table(args.table_a), _load_table(args.table_b)
    violations = check_lemmas(a, b)
    if violations:
        text = "\n".join(f"VIOLATION {v.name}: {v.witness}" for v in violations)
        code = 1
    else:
        text = "all lemma statements hold"
        code = 0
    return CommandResult(
        command="check-lemmas",
        params={"table_a": args.table_a, "table_b": args.table_b},
        result={"violations": [v.to_dict() for v in violations]},
        counts={"violations": len(violations)},
        exit_code=code,
        text=text,
    )


def _cmd_verify(args) -> CommandResult:
    report = prime_stability_verify(args.prime, all_rows=args.all_rows)
    lines = [f"stability verification for p={args.prime} ({report.rows_searched}):"]
    for case in report.m_cases:
        lines.append(
            f"  m={case.m}: {case.candidates_enumerated} candidates, "
            f"{case.candidates_completing} complete to groups, "
            f"min dist = {case.min_distance}"
        )
    for excl in report.analytic_exclusions:
        verdict = "excluded analytically" if excl.excluded else "NOT excluded"
        lines.append(
            f"  m={excl.m}{'+' if excl.m == 6 else ''}: {verdict}, best bound {excl.best} "
            f"{'>=' if excl.excluded else '<'} {report.threshold}"
        )
    lines.append(
        f"  conclusion: delta = {report.delta} "
        f"({'confirmed' if report.theorem_confirmed() else 'NOT CONFIRMED'}), "
        f"witness transposition {report.transposition_witness.cycle_notation()}"
    )
    return CommandResult(
        command="verify",
        params={"prime": args.prime, "all_rows": args.all_rows},
        result=report.to_dict(),
        counts={
            "candidates_enumerated": sum(c.candidates_enumerated for c in report.m_cases),
            "candidates_completing": sum(c.candidates_completing for c in report.m_cases),
        },
        exit_code=0 if report.theorem_confirmed() else 1,
        text="\n".join(lines),
    )


def _cmd_oracle(args) -> CommandResult:
    value, (wa, wb) = brute_delta(args.order, scope=args.scope)
    name = {"all": "delta", "mu": "mu", "nu": "nu"}[args.scope]
    return CommandResult(
        command="oracle",
        params={"order": args.order, "scope": args.scope},
        result={name: value},
        witnesses={
            "pair": [wa.array.tolist(), wb.array.tolist()]
        },
        text=f"{name}({args.order}) = {value}",
    )


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="OUT",
        help="emit JSON (to OUT, or stdout when no path given)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleydist",
        description="Hamming distances and stability of finite-group Cayley tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a table file as a group")
    p.add_argument("table")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dist", help="Hamming distance between two tables")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--profile", action="store_true", help="include per-row distances")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("delta0", help="closed-form stability ceiling of a table")
    p.add_argument("table")
    p.set_defaults(func=_cmd_delta0)

    p = sub.add_parser("mf", help="distance of a permutation from a homomorphism")
    p.add_argument("table")
    p.add_argument("--perm", help='image line, e.g. "0 1 4 5 2 3 6"')
    p.add_argument("--cycles", help='cycle notation, e.g. "(2 3)(5 7)"')
    p.set_defaults(func=_cmd_mf)

    p = sub.add_parser("transport", help="transport a table along a permutation")
    p.add_argument("table")
    p.add_argument("--perm")
    p.add_argument("--cycles")
    p.add_argument("-o", "--output", help="write the new table here (default stdout)")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("make", help="emit a canonical catalog table")
    p.add_argument("--kind", required=True, help="cyclic:7 | dihedral:5 | e2:3 | q8")
    p.add_argument("-o", "--output", help="write the table here (default stdout)")
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("min-transposition", help="minimum m_f over all transpositions")
    p.add_argument("table")
    p.set_defaults(func=_cmd_min_transposition)

    p = sub.add_parser("reconstruct", help="rebuild the isomorphism from light rows")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("bounds", help="analytic lower bounds for prime order")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("check-lemmas", help="test the proved row statements on a pair")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("verify", help="exhaustive stability verification for a prime")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument(
        "--all-rows",
        action="store_true",
        help="report every row h, not just h=1 (row 1's search carried by x -> hx)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force delta/mu/nu at small orders")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--scope", choices=["all", "mu", "nu"], default="all")
    p.set_defaults(func=_cmd_oracle)

    for sp in sub.choices.values():
        _add_json_flag(sp)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    start = time.perf_counter()
    try:
        result: CommandResult = args.func(args)
        result.runtime_ms = int((time.perf_counter() - start) * 1000)
        if args.json is not None:
            _write_or_print(result.to_json() + "\n", None if args.json == "-" else args.json)
        if result.text and args.json != "-":
            print(result.text)
    except ViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
