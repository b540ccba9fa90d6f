"""Batch front end.

Subcommands: build | chartab | kron | classify | verify | scan.
Reports are deterministic (byte-identical across runs); wall-clock timings
are emitted only with --timings, which breaks byte-identity on purpose.
Exit codes: 0 = all agree, 2 = at least one agreement failure, 1 = usage
or build error.
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
from .chartab import CharacterTable, character_table, dump_table, fs_indicators, load_table
from .cyclo import euler_phi
from .groupcore import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    SubgroupSpec,
    dump_group,
    load_group,
    subgroup_closure,
)
from .orbits import DEFAULT_ORBIT_CAP
from .zoo import FamilySpec, zoo_build

DEFAULT_KAPPA_CAP = 10**8  # work bound for kappa tensors on imported tables


@dataclass
class Record:
    name: str
    values: dict[str, int] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    witness: Optional[str] = None

    @property
    def agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)


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
    label = args.family + "(" + ",".join(str(p) for p in spec.params) + ")"
    return label, zoo_build(spec, args.order_cap)


def _get_table(args) -> tuple[str, CharacterTable]:
    if args.table_file:
        with open(args.table_file) as fh:
            return args.table_file, load_table(fh.read())
    label, G = _build_group(args)
    return label, character_table(G)


def _subgroup_from_args(G: GroupTable, args) -> Optional[SubgroupSpec]:
    if not args.subgroup_gens:
        return None
    gens = _parse_params(args.subgroup_gens)
    return subgroup_closure(G, gens)


def _kappa_work(T: CharacterTable) -> int:
    k = T.num_classes
    return k * k * k * max(1, euler_phi(T.exponent)) ** 2


# -- verification records -------------------------------------------------------

def _verify_counts(T: CharacterTable, G: Optional[GroupTable], d: int,
                   orbit_cap: int, kappa_cap: int, prefix: str = "") -> list[Record]:
    recs = []
    kappa_ok = d > 3 or _kappa_work(T) <= kappa_cap
    orbit = None
    if G is not None and G.order**d <= orbit_cap:
        orbit = orbits.simultaneous_classes(G, d, orbit_cap=orbit_cap)

    rc = Record(name=prefix + f"conj_{d}")
    if kappa_ok:
        rc.values.update(kron.conj_count(T, d).values)
    else:
        rc.values["burnside"] = kron.burnside_count(T, d)
        rc.notes["kappa_sq"] = "skipped: cap"
    if orbit is not None:
        rc.values["orbit"] = orbit.orbit_count
    elif G is not None:
        rc.notes["orbit"] = "skipped: cap"
    recs.append(rc)

    rr = Record(name=prefix + f"rconj_{d}")
    fsrep = kron.rconj_count(T, d) if kappa_ok else None
    if fsrep is None:
        # the moment formula alone is cheap even when kappa tensors are not
        fs = fs_indicators(T)
        total = sum(s * r ** (d + 1) for s, r in zip(T.sizes, fs.r))
        rr.values["r_moment"] = total // T.order
        rr.notes["sigma_weighted"] = "skipped: cap"
    else:
        rr.values["r_moment"] = fsrep.values["r_moment"]
        if "sigma_weighted" in fsrep.values:
            rr.values["sigma_weighted"] = fsrep.values["sigma_weighted"]
    if orbit is not None:
        rr.values["orbit"] = orbit.real_orbit_count
    elif G is not None:
        rr.notes["orbit"] = "skipped: cap"
    recs.append(rr)
    return recs


def _verify_subgroup(T: CharacterTable, G: GroupTable, K: SubgroupSpec,
                     prefix: str = "") -> list[Record]:
    dc = orbits.double_cosets(G, K)
    fr = Record(name=prefix + "frame")
    fr.values["sigma_dim"] = kron.frame_verify(T, K).values["sigma_dim"]
    fr.values["self_inverse"] = dc.self_inverse_count
    fr.values["pair_count"] = orbits.frame_pair_count(G, K)
    hd = Record(name=prefix + "hecke_dim")
    hd.values["dim_sq"] = kron.hecke_dimension(T, K).values["dim_sq"]
    hd.values["double_cosets"] = len(dc.cosets)
    ge = Record(name=prefix + "gelfand_symmetric")
    sym = dc.symmetric
    ge.values["coset"] = int(sym)
    # easy_gelfand_verify holds iff the coset answer matches the char side
    ge.values["char"] = int(sym == kron.easy_gelfand_verify(T, K, sym))
    return [fr, hd, ge]


def _classify_records(T: CharacterTable, G: Optional[GroupTable],
                      orbit_cap: int, kappa_cap: int, prefix: str = "") -> list[Record]:
    recs = []
    kappa_ok = _kappa_work(T) <= kappa_cap
    if not kappa_ok:
        r = Record(name=prefix + "classify")
        r.notes["all"] = "skipped: cap"
        return [r]
    cls = kron.classify(T)

    r = Record(name=prefix + "real")
    r.values["char"] = int(cls.real)
    if T.classes is not None:
        r.values["class_inverse"] = int(
            all(T.classes.inverse_class[c] == c for c in range(T.num_classes))
        )
    recs.append(r)

    for d in (2, 3):
        r = Record(name=prefix + f"mftp_{d}")
        ok, wit = kron.is_mftp(T, d)
        r.values["char"] = int(ok)
        if wit is not None:
            r.witness = "kappa" + str(wit.irreps) + "=" + str(wit.value)
        recs.append(r)

    r = Record(name=prefix + "doubly_real")
    ok, wit = kron.is_d_real_char(T, 2)
    r.values["char"] = int(ok)
    if wit is not None:
        r.witness = "kappa" + str(wit.irreps) + "=" + str(wit.value)
    if G is not None and G.order**2 <= orbit_cap:
        op = orbits.simultaneous_classes(G, 2, orbit_cap=orbit_cap)
        r.values["orbit"] = int(op.real_orbit_count == op.orbit_count)
    elif G is not None:
        r.notes["orbit"] = "skipped: cap"
    recs.append(r)

    if G is not None:
        prof = kron.combinatorial_profile(T)
        if prof.matched:
            p = Record(name=prefix + "combinatorial_profile")
            p.values["matched"] = 1
            p.witness = f"(z,a,q)=({prof.z},{prof.a},{prof.q})"
            recs.append(p)
    return recs


# -- commands -------------------------------------------------------------------

def cmd_build(args) -> Report:
    label, G = _build_group(args)
    rep = Report(input=label)
    rep.records.append(Record(name="order", values={"order": G.order}))
    _emit_payload(args, dump_group(G))
    return rep


def cmd_chartab(args) -> Report:
    label, T = _get_table(args)
    rep = Report(input=label)
    rep.records.append(Record(name="classes", values={"classes": T.num_classes}))
    _emit_payload(args, dump_table(T))
    return rep


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
    else:
        for d in ds:
            # sum of squares = |conj_d(G)|, which Burnside's lemma also counts
            cr = kron.conj_count(T, d)
            rep.records.append(Record(name=f"kappa_tensor_{d}", values={
                "sum_sq": cr.values["kappa_sq"], "burnside": cr.values["burnside"]}))
            t = kron.kappa_tensor3(T) if d == 2 else kron.kappa_tensor4(T)
            rep.records.append(Record(name=f"kappa_tensor_{d}_max", values={"max": int(t.max())}))
    return rep


def cmd_verify(args) -> Report:
    label, T = _get_table(args)
    G = T.group
    rep = Report(input=label)
    for d in args.d or [1, 2]:
        rep.records.extend(
            _verify_counts(T, G, d, args.orbit_cap, args.kappa_cap)
        )
    if G is not None:
        K = _subgroup_from_args(G, args)
        if K is not None:
            rep.records.extend(_verify_subgroup(T, G, K))
    return rep


def cmd_classify(args) -> Report:
    label, T = _get_table(args)
    rep = Report(input=label)
    rep.records.extend(
        _classify_records(T, T.group, args.orbit_cap, args.kappa_cap)
    )
    return rep


def _battery_entries(path: Optional[str]):
    if path:
        with open(path) as fh:
            text = fh.read()
    else:
        text = (
            resources.files("kronkit").joinpath("data/battery.txt").read_text()
        )
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        entries.append((parts[0], parts[1], tuple(int(p) for p in parts[2:])))
    return entries


def cmd_scan(args) -> Report:
    entries = _battery_entries(args.battery if args.battery != "bundled" else None)
    rep = Report(input=args.battery or "bundled")
    for label, family, params in entries:
        t0 = time.perf_counter()
        try:
            G = zoo_build(FamilySpec(family, params), args.order_cap)
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
            for formula, value in r.values.items():
                w.writerow([group, check or r.name, formula, str(value),
                            str(r.agree).lower()])
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kronkit",
        description="Exact tensor-product multiplicity and conjugacy counting",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("build", "chartab", "kron", "classify", "verify", "scan"):
        p = sub.add_parser(name)
        p.add_argument("--family", choices=zoo.FAMILIES)
        p.add_argument("--params", nargs="*", default=[])
        p.add_argument("--group-file")
        p.add_argument("--table-file")
        p.add_argument("--d", type=int, nargs="*")
        p.add_argument("--subgroup-gens", nargs="*")
        p.add_argument("--irreps", nargs="*")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out")
        p.add_argument("--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP)
        p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        p.add_argument("--kappa-cap", type=int, default=DEFAULT_KAPPA_CAP)
        p.add_argument("--battery")
        p.add_argument("--timings", action="store_true")
    return ap


_COMMANDS = {
    "build": cmd_build,
    "chartab": cmd_chartab,
    "kron": cmd_kron,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep = _COMMANDS[args.command](args)
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command in ("build", "chartab"):
        # payload already emitted; report is informational
        return 0
    text = render_report(rep, args.format, timings=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rep.all_agree else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
