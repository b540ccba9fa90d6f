"""Batch front end.

Subcommands: build | chartab | kron | classify | verify | scan; each takes
only the options it reads (``_COMMANDS``).  Reports are deterministic
(byte-identical across runs); wall-clock timings are emitted only by
``scan --timings``, which breaks byte-identity on purpose.  Exit codes:
0 = all agree, 2 = at least one agreement failure or a tripped bug trap,
1 = usage or build error; an error is reported in one line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from . import __version__, kron, orbits, zoo
from .chartab import (CharacterTable, VerificationError, character_table, dump_table,
                      load_table)
from .groupcore import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    dump_group,
    load_group,
    subgroup_closure,
)
from .kron import DEFAULT_KAPPA_CAP, SKIPPED, Record
from .orbits import DEFAULT_ORBIT_CAP
from .zoo import FamilySpec, zoo_build


@dataclass
class Report:
    input: str
    records: list[Record] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return not self.errors and all(r.agree for r in self.records)


# -- group / table acquisition --------------------------------------------------

def _parse_params(raw: list[str]) -> tuple[int, ...]:
    out = []
    for chunk in raw:
        out.extend(int(p) for p in chunk.replace(",", " ").split())
    return tuple(out)


def _build_group(args) -> tuple[str, GroupTable]:
    if args.group_file:
        with open(args.group_file) as fh:
            return args.group_file, load_group(fh.read(), args.order_cap)
    if not args.family:
        raise GroupError("need --family or --group-file")
    spec = FamilySpec(args.family, _parse_params(args.params))
    return str(spec), zoo_build(spec, args.order_cap)


def _get_table(args) -> tuple[str, CharacterTable]:
    if args.table_file:
        with open(args.table_file) as fh:
            return args.table_file, load_table(fh.read())
    label, G = _build_group(args)
    return label, character_table(G)


# -- verification records -------------------------------------------------------
#
# kron builds each character-side record; these add the group-side oracle
# values to it, or a skipped-cap note when the oracle is over --orbit-cap.

def _prefixed(records: list[Record], prefix: str) -> list[Record]:
    for r in records:
        r.name = prefix + r.name
    return records


def _verify_counts(T: CharacterTable, G: Optional[GroupTable], d: int,
                   orbit_cap: int, kappa_cap: int, prefix: str = "") -> list[Record]:
    conj = kron.conj_count(T, d, kappa_cap)
    rconj = kron.rconj_count(T, d, kappa_cap)
    if G is not None and G.order**d <= orbit_cap:
        orbit = orbits.simultaneous_classes(G, d, orbit_cap=orbit_cap)
        conj.values["orbit"] = orbit.orbit_count
        rconj.values["orbit"] = orbit.real_orbit_count
    elif G is not None:
        conj.notes["orbit"] = rconj.notes["orbit"] = SKIPPED
    return _prefixed([conj, rconj], prefix)


def _verify_subgroup(T: CharacterTable, G: GroupTable, gens) -> list[Record]:
    K = subgroup_closure(G, gens)
    dc = orbits.double_cosets(G, K)
    frame = kron.frame_verify(T, K)
    frame.values["self_inverse"] = dc.self_inverse_count
    frame.values["pair_count"] = orbits.frame_pair_count(G, K)
    hecke = kron.hecke_dimension(T, K)
    hecke.values["double_cosets"] = len(dc.cosets)
    gelfand = kron.gelfand_symmetric(T, K)
    gelfand.values = {"coset": int(dc.symmetric), **gelfand.values}  # reports list it first
    return [frame, hecke, gelfand]


def _classify_records(T: CharacterTable, G: Optional[GroupTable],
                      orbit_cap: int, kappa_cap: int, prefix: str = "") -> list[Record]:
    records = kron.classify(T, kappa_cap)
    if G is not None:
        doubly = next(r for r in records if r.name == "doubly_real")
        if G.order**2 <= orbit_cap:
            op = orbits.simultaneous_classes(G, 2, orbit_cap=orbit_cap)
            doubly.values["orbit"] = int(op.real_orbit_count == op.orbit_count)
        else:
            doubly.notes["orbit"] = SKIPPED
    return _prefixed(records, prefix)


# -- commands -------------------------------------------------------------------

def cmd_build(args) -> None:
    _emit_payload(args, dump_group(_build_group(args)[1]))


def cmd_chartab(args) -> None:
    _emit_payload(args, dump_table(_get_table(args)[1]))


def cmd_kron(args) -> Report:
    ds = args.d or [2]
    if any(d not in (2, 3) for d in ds):
        raise ValueError("kron tensors take --d 2 or 3")
    label, T = _get_table(args)
    rep = Report(input=label)
    if args.irreps:
        tup = _parse_params(args.irreps)
        res = kron.kronecker(T, tup)
        rep.records.append(
            Record(name="kappa" + str(res.irreps), values={"kappa": res.value})
        )
        return rep
    # the maximum sweeps every slab: at d = 3 that is k of them, at d = 2 t3 itself
    if any(kron.over_kappa_cap(T, d, args.kappa_cap, slabs=T.num_classes if d == 3 else 0)
           for d in ds):
        raise ValueError(f"kappa tensors exceed --kappa-cap {args.kappa_cap}")
    for d in ds:
        # sum of squares = |conj_d(G)|, which Burnside's lemma also counts
        cr = kron.conj_count(T, d, args.kappa_cap)
        if "kappa_sq" not in cr.values:  # past the 2^53 certificate
            raise kron.InexactError
        rep.records.append(Record(name=f"kappa_tensor_{d}", values={
            "sum_sq": cr.values["kappa_sq"], "burnside": cr.values["burnside"]}))
        top = max(int(slab.max()) for slab in kron.kappa_slabs(T, d))
        rep.records.append(Record(name=f"kappa_tensor_{d}_max", values={"max": top}))
    return rep


def cmd_verify(args) -> Report:
    ds = args.d or [1, 2]
    if any(d < 1 for d in ds):
        raise ValueError("verify takes --d 1 or more")
    if args.subgroup_gens and args.table_file:  # an imported table has no group
        raise ValueError("--subgroup-gens needs --family or --group-file")
    label, T = _get_table(args)
    G = T.group
    rep = Report(input=label)
    for d in ds:
        rep.records.extend(_verify_counts(T, G, d, args.orbit_cap, args.kappa_cap))
    if args.subgroup_gens:
        rep.records.extend(_verify_subgroup(T, G, _parse_params(args.subgroup_gens)))
    return rep


def cmd_classify(args) -> Report:
    label, T = _get_table(args)
    records = _classify_records(T, T.group, args.orbit_cap, args.kappa_cap)
    return Report(input=label, records=records)


def _battery_entries(path: Optional[str]) -> list[tuple[str, FamilySpec]]:
    """(label, family spec) per line; a malformed line, an unknown family or a
    wrong parameter count raises ``ValueError`` before any group is built."""
    if path:
        with open(path) as fh:
            text = fh.read()
    else:
        text = (
            resources.files("kronkit").joinpath("data/battery.txt").read_text()
        )
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 2:
            raise ValueError(f"battery line {number}: need a label and a family")
        try:
            params = tuple(int(p) for p in parts[2:])
        except ValueError:
            raise ValueError(f"battery line {number}: parameters must be integers") from None
        try:
            entries.append((parts[0], FamilySpec(parts[1], params)))
        except GroupError as exc:
            raise ValueError(f"battery line {number}: {exc}") from None
    return entries


def cmd_scan(args) -> Report:
    entries = _battery_entries(args.battery if args.battery != "bundled" else None)
    rep = Report(input=args.battery or "bundled")
    for label, spec in entries:
        t0 = time.perf_counter()
        try:
            G = zoo_build(spec, args.order_cap)
            T = character_table(G)
            ds = [1, 2] + ([3] if G.order <= 24 else [])
            for d in ds:
                rep.records.extend(
                    _verify_counts(T, G, d, args.orbit_cap, args.kappa_cap,
                                   prefix=label + "/")
                )
            rep.records.extend(
                _classify_records(T, G, args.orbit_cap, args.kappa_cap,
                                  prefix=label + "/")
            )
        except Exception as exc:  # record and continue with the next entry
            rep.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        rep.timings.append((label, time.perf_counter() - t0))
    return rep


# -- rendering ------------------------------------------------------------------

def _emit_payload(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_json(r: Record) -> dict:
    out = {
        "name": r.name,
        "values": {k: str(v) for k, v in r.values.items()},
        "agree": r.agree,
        "witness": r.witness,
    }
    if r.notes:
        out["notes"] = dict(r.notes)
    return out


def render_report(rep: Report, fmt: str, timings: bool = False) -> str:
    if fmt == "json":
        doc = {
            "version": __version__,
            "input": rep.input,
            "records": [_record_json(r) for r in rep.records],
        }
        if rep.errors:
            doc["errors"] = list(rep.errors)
        if timings:
            doc["timings"] = {k: round(v, 6) for k, v in rep.timings}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["group", "check", "formula", "value", "agree"])
        for r in rep.records:
            group, _, check = r.name.rpartition("/")
            # a note (a skipped derivation) takes its formula's value column
            for formula, value in [*r.values.items(), *r.notes.items()]:
                w.writerow([group, check or r.name, formula, str(value),
                            str(r.agree).lower()])
        for err in rep.errors:
            w.writerow(["", "error", "", err, "false"])
        if timings:  # as the text format's time lines
            for k, v in rep.timings:
                w.writerow([k, "time", "", f"{v:.3f}s", ""])
        return buf.getvalue()
    # text
    lines = [f"input: {rep.input}"]
    for r in rep.records:
        vals = "  ".join(f"{k}={v}" for k, v in r.values.items())
        note = "".join(f"  [{k}: {v}]" for k, v in r.notes.items())
        wit = f"  witness {r.witness}" if r.witness else ""
        mark = "ok " if r.agree else "FAIL"
        lines.append(f"{mark} {r.name}: {vals}{note}{wit}")
    for err in rep.errors:
        lines.append("ERROR " + err)
    if timings:
        for k, v in rep.timings:
            lines.append(f"time {k}: {v:.3f}s")
    return "\n".join(lines) + "\n"


# -- entry point ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on bad arguments, for exit 1 and a one-line
    error: argparse's own exit code 2 means a disagreement here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


_OPTIONS = {
    "family": dict(choices=zoo.FAMILIES),
    "params": dict(nargs="*", default=[]),
    "group-file": {},
    "table-file": {},
    "d": dict(type=int, nargs="*"),
    "subgroup-gens": dict(nargs="*"),
    "irreps": dict(nargs="*"),
    "format": dict(choices=("json", "csv", "text"), default="json"),
    "out": {},
    "orbit-cap": dict(type=int, default=DEFAULT_ORBIT_CAP),
    "order-cap": dict(type=int, default=DEFAULT_ORDER_CAP),
    "kappa-cap": dict(type=int, default=DEFAULT_KAPPA_CAP),
    "battery": {},
    "timings": dict(action="store_true"),
}

_GROUP = "family params group-file order-cap"
_TABLE = _GROUP + " table-file"

# each subcommand: its function and the options it reads
_COMMANDS = {
    "build": (cmd_build, _GROUP + " out"),
    "chartab": (cmd_chartab, _TABLE + " out"),
    "kron": (cmd_kron, _TABLE + " d irreps kappa-cap format out"),
    "classify": (cmd_classify, _TABLE + " orbit-cap kappa-cap format out"),
    "verify": (cmd_verify, _TABLE + " d subgroup-gens orbit-cap kappa-cap format out"),
    "scan": (cmd_scan, "battery order-cap orbit-cap kappa-cap format out timings"),
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser, with the one subcommand that ``argv`` starts with, or all
    six when it names none (no argument, ``--help`` or an unknown command):
    the help, usage and error texts are the same either way."""
    ap = _Parser(
        prog="kronkit",
        description="Exact tensor-product multiplicity and conjugacy counting",
    )
    # the prog that argparse would derive, given so that it builds no formatter
    sub = ap.add_subparsers(dest="command", required=True, prog="kronkit")
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        p = sub.add_parser(name)
        for option in _COMMANDS[name][1].split():
            p.add_argument("--" + option, **_OPTIONS[option])
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        rep = _COMMANDS[args.command][0](args)
        if rep is not None:  # build and chartab write their table themselves
            _emit_payload(args, render_report(rep, args.format,
                                              timings=getattr(args, "timings", False)))
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, ArithmeticError) as exc:  # a tripped bug trap
        print(f"error: bug trap: {exc}", file=sys.stderr)
        return 2
    return 0 if rep is None or rep.all_agree else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
