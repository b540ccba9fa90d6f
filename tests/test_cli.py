import csv
import hashlib
import io
import json
import re
import shlex
import time
from importlib import resources
from pathlib import Path

import pytest

from kronkit import _kernels, cli, kron, modular, orbits
from kronkit.chartab import (IndicatorData, VerificationError, character_table, dump_table,
                              load_table)
from kronkit.cli import build_parser, cmd_scan, main, render_report
from kronkit.cyclo import Cyclotomic
from kronkit.groupcore import load_group

from conftest import build, c2_power_table, non_dual_tables

REPORTS = Path(__file__).parent / "reports"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_s3_json(capsys):
    code, out = run(capsys, "verify", "--family", "symmetric", "--params", "3",
                    "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == "symmetric(3)"
    rec = {r["name"]: r for r in doc["records"]}
    assert rec["conj_2"]["values"] == {"burnside": "11", "kappa_sq": "11",
                                       "orbit": "11"}
    assert rec["rconj_2"]["agree"] is True


def test_reports_are_byte_identical(capsys):
    _, out1 = run(capsys, "classify", "--family", "alternating", "--params", "4")
    _, out2 = run(capsys, "classify", "--family", "alternating", "--params", "4")
    assert out1 == out2


def test_classify_witness(capsys):
    code, out = run(capsys, "classify", "--family", "alternating", "--params", "4")
    assert code == 0
    doc = json.loads(out)
    rec = {r["name"]: r for r in doc["records"]}
    assert rec["mftp_2"]["values"]["char"] == "0"
    assert rec["mftp_2"]["witness"].startswith("kappa(")


def test_csv_format(capsys):
    code, out = run(capsys, "verify", "--family", "cyclic", "--params", "6",
                    "--d", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,check,formula,value,agree"
    assert any(line.endswith(",true") for line in lines[1:])


def test_build_and_chartab_round_trip(capsys, tmp_path):
    gf = tmp_path / "g.grp"
    code, _ = run(capsys, "build", "--family", "generalized_quaternion",
                  "--params", "4", "--out", str(gf))
    assert code == 0
    G = load_group(gf.read_text())
    assert G.order == 8
    tf = tmp_path / "t.tbl"
    code, _ = run(capsys, "chartab", "--group-file", str(gf), "--out", str(tf))
    assert code == 0
    T = load_table(tf.read_text())
    assert sorted(ch.degree for ch in T.irreps) == [1, 1, 1, 1, 2]
    # verify straight from the imported table (no group, no oracle)
    code, out = run(capsys, "verify", "--table-file", str(tf), "--d", "2")
    assert code == 0
    doc = json.loads(out)
    rec = {r["name"]: r for r in doc["records"]}
    assert rec["rconj_2"]["values"]["r_moment"] == "28"
    assert "orbit" not in rec["rconj_2"]["values"]


def test_kron_command(capsys):
    code, out = run(capsys, "kron", "--family", "symmetric", "--params", "3",
                    "--irreps", "2", "2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["values"]["kappa"] == "1"


def test_subgroup_flags(capsys):
    # Q8 with its center <z> = closure of the unique involution (index from
    # the exchange ordering is stable: find it via order filter instead)
    code, out = run(capsys, "verify", "--family", "generalized_quaternion",
                    "--params", "4", "--d", "1", "--subgroup-gens", "1",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["records"]]
    assert "frame" in names and "hecke_dim" in names


def test_usage_error_exit_code(capsys):
    code = main(["verify", "--params", "3"])
    err = capsys.readouterr()
    assert code == 1


def test_csv_timings_are_one_row_per_entry(capsys, tmp_path):
    mf = tmp_path / "battery.txt"
    mf.write_text("S3 symmetric 3\nC4 cyclic 4\n")
    _, text = run(capsys, "scan", "--battery", str(mf), "--format", "text", "--timings")
    code, out = run(capsys, "scan", "--battery", str(mf), "--format", "csv", "--timings")
    assert code == 0
    times = [row for row in csv.reader(io.StringIO(out)) if row[1] == "time"]
    assert [(g, f, a) for g, _, f, _, a in times] == [("S3", "", ""), ("C4", "", "")]
    assert all(re.fullmatch(r"\d+\.\d{3}s", row[3]) for row in times)
    # the text format's time lines, entry by entry
    assert [ln.split(":")[0] for ln in text.splitlines() if ln.startswith("time ")] == [
        "time S3", "time C4"]
    _, plain = run(capsys, "scan", "--battery", str(mf), "--format", "csv")
    assert out.startswith(plain) and out.count("\n") == plain.count("\n") + 2


@pytest.mark.parametrize("argv", [
    ("--family", "gl2", "--params", "7", "--d", "12"),
    ("--family", "symmetric", "--params", "3", "--d", "42"),
])
def test_verify_past_2_53_notes_the_kappa_sums(capsys, argv):
    # the chain's certificate fails at these d; Burnside and the square-root
    # moment are Python-int class sums and are reported
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    records = {r["name"]: r for r in json.loads(out)["records"]}
    d = argv[-1]
    assert records[f"conj_{d}"]["notes"]["kappa_sq"] == kron.PAST_2_53 == "skipped: 2^53"
    assert records[f"rconj_{d}"]["notes"]["sigma_weighted"] == kron.PAST_2_53
    assert set(records[f"conj_{d}"]["values"]) == {"burnside"}
    assert set(records[f"rconj_{d}"]["values"]) == {"r_moment"}


def test_kron_refuses_kappa_sums_past_2_53(capsys, monkeypatch):
    def past(T, d):
        raise kron.InexactError

    monkeypatch.setattr(kron, "_kappa_sums", past)
    assert main(["kron", *S3]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: kappa sums too large for exact float64 products (an entry >= 2^53)\n")


def test_scan_small_manifest(capsys, tmp_path):
    mf = tmp_path / "battery.txt"
    mf.write_text("S3 symmetric 3\nC4 cyclic 4\n")
    code, out = run(capsys, "scan", "--battery", str(mf))
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["records"]]
    assert "S3/conj_2" in names and "C4/mftp_2" in names
    assert all(r["agree"] for r in doc["records"])


def test_scan_computes_each_orbit_partition_once(capsys, tmp_path, monkeypatch):
    # conj_2 and doubly_real both read the d = 2 partition of each group;
    # the classes and the conj_1 partition both read the d = 1 roots, the
    # only call of the label-propagation kernel
    kernel, builder = _kernels.conjugation_orbit_roots, orbits._least_tuples
    kernel_calls, built = [], []
    monkeypatch.setattr(_kernels, "conjugation_orbit_roots",
                        lambda *args: kernel_calls.append(args[4]) or kernel(*args))
    monkeypatch.setattr(orbits, "_least_tuples",
                        lambda G, d: built.append((G.order, d)) or builder(G, d))
    mf = tmp_path / "battery.txt"
    mf.write_text("S3 symmetric 3\nC4 cyclic 4\n")
    code, _ = run(capsys, "scan", "--battery", str(mf))
    assert code == 0 and kernel_calls == [1, 1]
    assert sorted(built) == [(4, 2), (4, 3), (6, 2), (6, 3)]


def test_scan_and_verify_build_no_cyclotomic(capsys, tmp_path, monkeypatch):
    # character values stay one int64 coefficient array from the lift or the
    # import to the class sums; only the tests' reference builds Cyclotomic
    init = Cyclotomic.__init__
    calls = []
    monkeypatch.setattr(Cyclotomic, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    mf = tmp_path / "battery.txt"
    mf.write_text("S3 symmetric 3\nC4 cyclic 4\n")
    assert run(capsys, "scan", "--battery", str(mf))[0] == 0
    assert run(capsys, "verify", "--family", "symmetric", "--params", "4")[0] == 0
    assert run(capsys, "kron", "--family", "cyclic", "--params", "5", "--d", "3")[0] == 0
    table = str(tmp_path / "c5.tbl")
    assert main(["chartab", "--family", "cyclic", "--params", "5", "--out", table]) == 0
    for command in ("verify", "classify", "kron"):
        assert run(capsys, command, "--table-file", table)[0] == 0
    assert calls == []


def test_scan_records_per_entry_errors(capsys, tmp_path):
    mf = tmp_path / "battery.txt"
    mf.write_text("BAD frobenius 5 1 3\nC2 cyclic 2\n")
    code, out = run(capsys, "scan", "--battery", str(mf))
    assert code == 2
    doc = json.loads(out)
    assert any(e.startswith("BAD:") for e in doc["errors"])
    assert any(r["name"].startswith("C2/") for r in doc["records"])
    # csv keeps the error and every skipped derivation, one row each, next
    # to the record's value rows; the kappa cap never skips a decision
    code, out = run(capsys, "scan", "--battery", str(mf), "--format", "csv",
                    "--orbit-cap", "3", "--kappa-cap", "1")
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))
    assert [row for row in rows if row[1] == "conj_2"] == [
        ["C2", "conj_2", "burnside", "4", "true"],
        ["C2", "conj_2", "kappa_sq", "skipped: cap", "true"],
        ["C2", "conj_2", "orbit", "skipped: cap", "true"]]
    assert ["C2", "mftp_2", "char", "1", "true"] in rows
    assert [row[:3] for row in rows if row[3].startswith("BAD:")] == [["", "error", ""]]


def test_text_format_renders(capsys):
    code, out = run(capsys, "verify", "--family", "symmetric", "--params", "3",
                    "--d", "1", "--format", "text")
    assert code == 0
    assert out.startswith("input: symmetric(3)")
    assert "ok " in out


S3 = ("--family", "symmetric", "--params", "3")


@pytest.mark.parametrize("args,code,output", [
    ((), 0, {"kappa_tensor_2": {"sum_sq": "11", "burnside": "11"},
             "kappa_tensor_2_max": {"max": "1"}}),
    (("--d", "3"), 0, {"kappa_tensor_3": {"sum_sq": "49", "burnside": "49"},
                       "kappa_tensor_3_max": {"max": "3"}}),
    (("--d", "5"), 1, "error: kron tensors take --d 2 or 3"),
    (("--d", "-1"), 1, "error: kron tensors take --d 2 or 3"),
    (("--irreps", "2", "2", "9"), 1, "error: irrep indices must lie in 0..2"),
    (("--irreps", "2", "-1"), 1, "error: irrep indices must lie in 0..2"),
])
def test_kron_tensor_mode_exit_codes(capsys, args, code, output):
    assert main(["kron", *S3, *args]) == code
    out, err = capsys.readouterr()
    if code == 0:
        doc = json.loads(out)
        assert {r["name"]: r["values"] for r in doc["records"]} == output
        assert all(r["agree"] for r in doc["records"])
    else:
        assert out == "" and err == output + "\n"


@pytest.mark.parametrize("args,error", [
    (("--family", "symmetric", "--params", "4", "--subgroup-gens", "99"),
     "subgroup generators must lie in 0..23"),
    (("--family", "symmetric", "--params", "4", "--subgroup-gens", "-1"),
     "subgroup generators must lie in 0..23"),
    (("--family", "cyclic", "--params", "0"), "cyclic order must be positive"),
    (("--family", "frobenius", "--params", "7", "1", "0"), "q must be prime"),
    (("--family", "heisenberg", "--params", "-1", "2"), "n must be positive"),
    # the cap applies before the group is built
    (("--family", "symmetric", "--params", "6", "--order-cap", "100"), "group exceeds order cap"),
    (("--family", "extraspecial2", "--params", "3", "3", "--order-cap", "1000"),
     "group exceeds order cap"),
    # order 8192 is above the default cap; its tables are never built
    (("--family", "extraspecial2", "--params", "3", "3"), "group exceeds order cap"),
    # a group file is refused on its order line, before any row is read
    (("--group-file", "GROUP_FILE", "--order-cap", "5"), "group exceeds order cap"),
    (("--family", "symmetric", "--params", "3", "--d", "0"), "verify takes --d 1 or more"),
    (("--family", "symmetric", "--params", "3", "--d", "2", "-1"), "verify takes --d 1 or more"),
    # argparse's own errors: exit 1 and one line, not exit 2 and a usage block
    (("--family", "cyclic", "--params", "4", "--format", "xml"),
     "kronkit verify: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
    (("--family", "cyclic", "--params", "4", "--d", "x"),
     "kronkit verify: argument --d: invalid int value: 'x'"),
    (("--family", "cyclic", "--params", "4", "--battery", "b.txt"),
     "kronkit: unrecognized arguments: --battery b.txt"),
    (("--family", "frobenius", "--params", "4", "1", "3"), "p must be prime"),
    (("--family", "symmetric", "--params", "3", "4"), "symmetric takes the parameters n"),
    (("--family", "heisenberg", "--params", "1"), "heisenberg takes the parameters n q"),
    # an imported table has no group to take a subgroup of
    (("--table-file", "TABLE_FILE", "--subgroup-gens", "1"),
     "--subgroup-gens needs --family or --group-file"),
])
def test_verify_bad_input_exit_codes(capsys, tmp_path, args, error):
    files = {"GROUP_FILE": tmp_path / "g.grp", "TABLE_FILE": tmp_path / "t.tbl"}
    files["GROUP_FILE"].write_text("order 6\nnot a row\n")
    files["TABLE_FILE"].write_text(_S3_TEXT)
    args = [str(files.get(a, a)) for a in args]
    assert main(["verify", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: " + error + "\n"


@pytest.mark.parametrize("battery,error", [
    ("S3 symmetric 3\nC4\n", "battery line 2: need a label and a family"),
    ("S3 symmetric three\n", "battery line 1: parameters must be integers"),
    # refused before any group is built, not recorded as a per-entry error
    ("X symmetric 3 4\n", "battery line 1: symmetric takes the parameters n"),
    ("S3 symmetric 3\nY nonsense 3\n", "battery line 2: unknown family 'nonsense'"),
])
def test_scan_bad_battery_exit_codes(capsys, tmp_path, battery, error):
    path = tmp_path / "battery.txt"
    path.write_text(battery)
    assert main(["scan", "--battery", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: " + error + "\n"


# the options each subcommand reads, and so accepts
COMMAND_OPTIONS = {
    "build": "family params group-file order-cap out",
    "chartab": "family params group-file table-file order-cap out",
    "kron": "family params group-file table-file order-cap d irreps kappa-cap format out",
    "classify": "family params group-file table-file order-cap orbit-cap kappa-cap format out",
    "verify": "family params group-file table-file order-cap d subgroup-gens orbit-cap "
              "kappa-cap format out",
    "scan": "battery order-cap orbit-cap kappa-cap format out timings",
}
ALL_OPTIONS = set(" ".join(COMMAND_OPTIONS.values()).split())


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_each_subcommand_takes_only_the_options_it_reads(command):
    accepted = set()
    for option in ALL_OPTIONS:
        value = {"family": ["cyclic"], "format": ["json"], "timings": []}.get(option, ["1"])
        try:
            build_parser().parse_args([command, "--" + option, *value])
        except ValueError as exc:
            assert "unrecognized arguments" in str(exc)
            continue
        accepted.add(option)
    assert accepted == set(COMMAND_OPTIONS[command].split())
    assert sum(len(v.split()) for v in COMMAND_OPTIONS.values()) == 48


def _main_texts(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("verify", "--help"),
    ("verify", "--bogus"),
    ("nonsense",),
    (),
])
def test_help_usage_and_errors_match_the_parser_with_every_subcommand(
        capsys, monkeypatch, argv):
    # main builds only the subparser that argv names; every text it prints
    # must be the one of the parser that holds all six
    monkeypatch.setenv("COLUMNS", "80")
    got = _main_texts(capsys, argv)
    full = build_parser
    monkeypatch.setattr("kronkit.cli.build_parser", lambda argv=None: full())
    assert got == _main_texts(capsys, argv)
    code, out, err = got
    if argv[-1:] == ("--help",):
        assert code == 0 and out.startswith("usage: kronkit") and not err
    else:
        assert code == 1 and not out
        assert err == {
            ("verify", "--bogus"): "error: kronkit: unrecognized arguments: --bogus\n",
            ("nonsense",): "error: kronkit: argument command: invalid choice: 'nonsense' "
                           "(choose from 'build', 'chartab', 'kron', 'classify', 'verify', "
                           "'scan')\n",
            (): "error: kronkit: the following arguments are required: command\n",
        }[argv]
    if argv == ("--help",):
        assert "{build,chartab,kron,classify,verify,scan}" in out


def test_readme_command_lines_parse(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("kronkit ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)  # the lines that write files write them here, in order
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        build_parser().parse_args(argv)
        assert main(argv) == 0, line
    capsys.readouterr()


def test_exponent_not_dividing_order_is_a_one_line_error(capsys, tmp_path):
    tf = tmp_path / "t.tbl"
    assert main(["chartab", *S3, "--out", str(tf)]) == 0
    tf.write_text(tf.read_text().replace("exponent 6", "exponent 600006"))
    capsys.readouterr()
    assert main(["verify", "--table-file", str(tf)]) == 1
    assert capsys.readouterr().err == (
        "error: format error: the exponent does not divide the order\n")


_HUGE = 998244353 * 1000000007
_S3_TEXT = resources.files("kronkit").joinpath("data/golden/S3.tbl").read_text()


@pytest.mark.parametrize("text,message", [
    # phi(exponent) is refused before the exponent is factored
    (f"order {_HUGE}\nexponent {_HUGE}\nclasses 1\nsizes {_HUGE}\npowermap2 0\n"
     "chi: 1:[0=1/1]\n", "format error: phi(exponent) must be at most 2048"),
    # a conductor is refused before parse allocates phi(conductor) coefficients
    (_S3_TEXT.replace("6:[0=2/1]", "100000000003:[0=2/1]"),
     "format error: a value's conductor does not divide the exponent"),
], ids=["exponent", "conductor"])
def test_oversized_exponent_or_conductor_is_a_quick_one_line_error(capsys, tmp_path,
                                                                     text, message):
    tf = tmp_path / "t.tbl"
    tf.write_text(text)
    start = time.perf_counter()
    assert main(["verify", "--table-file", str(tf), "--d", "1"]) == 1
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tampered_imported_table_is_a_one_line_error(capsys, tmp_path):
    tf = tmp_path / "t.tbl"
    assert main(["chartab", *S3, "--out", str(tf)]) == 0
    tf.write_text(tf.read_text().replace("powermap2 0 0 2", "powermap2 0 0 0"))
    capsys.readouterr()
    assert main(["verify", "--table-file", str(tf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify", "verify", "kron"])
@pytest.mark.parametrize("name", ["C8-mixed", "C2xC2-pm4"])
def test_non_dual_table_is_a_one_line_error(capsys, tmp_path, name, command):
    tf = tmp_path / "t.tbl"
    tf.write_text(non_dual_tables()[name])
    assert main([command, "--table-file", str(tf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _c5_with_a_planted_squaring_map():
    """C5's table with powermap2 0 2 1 3 4 in place of 0 2 4 1 3.  Rows,
    indicators and duals all pass; but zeta -> zeta^2 moves the classes by
    c -> 2c, which does not commute with the planted map."""
    text = dump_table(character_table(build("cyclic", 5)))
    assert "powermap2 0 2 4 1 3\n" in text
    return text.replace("powermap2 0 2 4 1 3\n", "powermap2 0 2 1 3 4\n")


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_galois_unstable_import_is_a_one_line_error(capsys, tmp_path, command):
    tf = tmp_path / "t.tbl"
    for text in (_c5_with_a_planted_squaring_map(), non_dual_tables()["C8-mixed"]):
        tf.write_text(text)
        assert main([command, "--table-file", str(tf)]) == 1
        assert capsys.readouterr().err == "error: character values not Galois-stable on import\n"


def test_running_out_of_primes_is_a_one_line_error(capsys, monkeypatch):
    # below 2^8 the primes = 1 (mod 12) multiply to about 2^70, far below the
    # bound of a 40-fold product of S4's degree-3 irrep
    monkeypatch.setattr(modular, "PRIME_CEILING", 2**8)
    assert main(["kron", "--family", "symmetric", "--params", "4",
                 "--irreps", *["3"] * 40]) == 1
    assert capsys.readouterr().err == (
        "error: too few primes = 1 (mod 12) below 256 for an exact class sum\n")


def test_unwritable_out_is_a_one_line_error(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", *S3, "--d", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rconj_disagreement_is_a_fail_record(capsys, monkeypatch):
    real = kron.fs_indicators

    def wrong_sigma(T):  # flip the sign character's indicator
        fs = real(T)
        sigma = list(fs.sigma)
        sigma[0] = -sigma[0]
        return IndicatorData(sigma=tuple(sigma), r=fs.r)

    monkeypatch.setattr(kron, "fs_indicators", wrong_sigma)
    code, out = run(capsys, "verify", *S3, "--d", "2")
    assert code == 2
    rec = {r["name"]: r for r in json.loads(out)["records"]}
    assert rec["rconj_2"]["agree"] is False
    assert rec["rconj_2"]["values"]["r_moment"] != rec["rconj_2"]["values"]["sigma_weighted"]
    assert rec["conj_2"]["agree"] is True


def test_reality_disagreement_is_a_fail_record(capsys, monkeypatch):
    real = kron.fs_indicators

    def unreal_first_irrep(T):
        # sigma = 0 on irrep 0, and r = sum_V sigma(V) chi_V without chi_0
        fs = real(T)
        return IndicatorData(sigma=(0,) + fs.sigma[1:],
                             r=tuple(r - chi for r, chi in zip(fs.r, T.coeffs[0, :, 0].tolist())))

    monkeypatch.setattr(kron, "fs_indicators", unreal_first_irrep)
    code, out = run(capsys, "classify", *S3)
    assert code == 2
    rec = {r["name"]: r for r in json.loads(out)["records"]}
    assert rec["real"]["values"] == {"char": "0", "class_inverse": "1"}
    assert rec["real"]["agree"] is False


@pytest.mark.parametrize("argv,module,name,exc", [
    (("verify", *S3, "--d", "2"), kron, "conj_count", VerificationError),
    (("kron", *S3), kron, "conj_count", VerificationError),
    (("classify", *S3), kron, "is_mftp", VerificationError),
    (("chartab", *S3), cli, "character_table", VerificationError),
    (("verify", *S3, "--subgroup-gens", "1"), orbits, "frame_pair_count", ArithmeticError),
])
def test_tripped_bug_trap_exits_2_in_one_line(capsys, monkeypatch, argv, module, name, exc):
    def trap(*args, **kwargs):
        raise exc("planted trap")

    monkeypatch.setattr(module, name, trap)
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bug trap: planted trap\n"


def test_scan_reports_match_the_recorded_bytes():
    # recorded reports: a change to any record's bytes must update them on purpose
    rep = cmd_scan(build_parser().parse_args(["scan"]))
    assert render_report(rep, "text") == (REPORTS / "scan.txt").read_text()
    digests = {name: digest for digest, name in
               map(str.split, (REPORTS / "scan.sha256").read_text().splitlines())}
    for fmt in ("json", "csv"):
        text = render_report(rep, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digests["scan." + fmt], fmt


@pytest.mark.parametrize("label,argv", [
    ("S4", ("--family", "symmetric", "--params", "4")),
    ("GL2(3)", ("--family", "gl2", "--params", "3")),
    ("Heisenberg(1,3)", ("--family", "heisenberg", "--params", "1", "3")),
    ("C2^5", ("--table-file", "c2_5.tbl")),
])
def test_kron_reports_match_the_recorded_bytes(capsys, tmp_path, monkeypatch, label, argv):
    monkeypatch.chdir(tmp_path)  # the import's path is part of the report
    (tmp_path / "c2_5.tbl").write_text(c2_power_table(5))
    code, out = run(capsys, "kron", *argv, "--d", "2", "3")
    assert code == 0
    digests = {name: digest for digest, name in
               map(str.split, (REPORTS / "kron.sha256").read_text().splitlines())}
    assert hashlib.sha256(out.encode()).hexdigest() == digests[f"kron-{label}.json"]


def _c2_power_table(path, n):
    path.write_text(c2_power_table(n))
    return str(path)


SKIP = "skipped: cap"


@pytest.mark.parametrize("cap", [13824, 13823])
def test_orbit_cap_edge(capsys, cap):
    # S4 at d = 3 has 24^3 = 13824 tuples: the oracle runs at a cap of exactly that
    code, out = run(capsys, "verify", "--family", "symmetric", "--params", "4",
                    "--d", "3", "--orbit-cap", str(cap))
    assert code == 0
    records = {r["name"]: r for r in json.loads(out)["records"]}
    for name, orbit in (("conj_3", "681"), ("rconj_3", "419")):
        if cap == 13824:
            assert records[name]["values"]["orbit"] == orbit and "notes" not in records[name]
        else:
            assert "orbit" not in records[name]["values"]
            assert records[name]["notes"] == {"orbit": SKIP}


@pytest.mark.parametrize("argv,code,expected", [
    # d = 1 builds no tensor: only the d = 2 kappa sums are skipped
    pytest.param(("verify", *S3, "--kappa-cap", "1"), 0,
                 {"conj_2": {"kappa_sq": SKIP}, "rconj_2": {"sigma_weighted": SKIP}},
                 id="verify-S3"),
    # every decision has a value: only a witness is skipped (S3 fails mftp_3)
    pytest.param(("classify", *S3, "--kappa-cap", "1"), 0, {"mftp_3": {"witness": SKIP}},
                 id="classify-S3"),
    # the d=3 tensor of C2^7 would hold 2^28 int64 entries (2 GiB)
    pytest.param(("verify", "--table-file", "C2^7", "--d", "3"), 0,
                 {"conj_3": {"kappa_sq": SKIP}, "rconj_3": {"sigma_weighted": SKIP}},
                 id="verify-C2^7-d3"),
    pytest.param(("classify", "--table-file", "C2^7"), 0, {}, id="classify-C2^7"),
    pytest.param(("kron", "--table-file", "C2^7", "--d", "3"), 1,
                 "error: kappa tensors exceed --kappa-cap 100000000", id="kron-C2^7-d3"),
    pytest.param(("kron", *S3, "--kappa-cap", "1"), 1,
                 "error: kappa tensors exceed --kappa-cap 1", id="kron-S3"),
    # past d = 3 the transfer chain adds k^4 per step, two steps at d = 4:
    # S3 gets every value, C2^7 (k = 128) is over the cap
    pytest.param(("verify", *S3, "--d", "4"), 0, {}, id="verify-S3-d4"),
    pytest.param(("verify", "--table-file", "C2^7", "--d", "4"), 0,
                 {"conj_4": {"kappa_sq": SKIP}, "rconj_4": {"sigma_weighted": SKIP}},
                 id="verify-C2^7-d4"),
])
def test_kappa_cap(capsys, tmp_path, argv, code, expected):
    argv = [_c2_power_table(tmp_path / "c2_7.tbl", 7) if a == "C2^7" else a for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err == expected + "\n"
        return
    records = json.loads(out)["records"]
    assert {r["name"]: r["notes"] for r in records if "notes" in r} == expected
    assert all(r["agree"] for r in records)


# A4 (k = 4) fails MFTP and reality.  t3 prices k^4 / 2 = 128, and a chain
# step or a d=3 slab k^4 = 256: the d = 2 sums, the d = 2 witnesses and
# kron --d 2 each price 128 (t3 alone), and the d = 3 sums and the d = 3
# witness in slab 0 each price 384
A4 = ("--family", "alternating", "--params", "4")
_D2 = {"conj_2": {"kappa_sq": SKIP}, "rconj_2": {"sigma_weighted": SKIP},
       "mftp_2": {"witness": SKIP}, "doubly_real": {"witness": SKIP}}
_D3 = {"conj_3": {"kappa_sq": SKIP}, "rconj_3": {"sigma_weighted": SKIP},
       "mftp_3": {"witness": SKIP}}


@pytest.mark.parametrize("cap", [384, 383, 128, 127])
def test_kappa_cap_edge(capsys, monkeypatch, cap):
    skipped = {} if cap == 384 else _D3 if cap >= 128 else {**_D2, **_D3}
    built = []
    tensor = kron.kappa_tensor3
    monkeypatch.setattr(kron, "kappa_tensor3", lambda T: built.append(T) or tensor(T))
    notes, witnesses = {}, {}
    for command in (("verify", "--d", "2", "3"), ("classify",)):
        code, out = run(capsys, *command, *A4, "--kappa-cap", str(cap))
        assert code == 0
        for r in json.loads(out)["records"]:
            assert r["agree"] and r["values"]  # every record keeps a value
            if "notes" in r:
                notes[r["name"]] = r["notes"]
            witnesses[r["name"]] = r["witness"]
    assert notes == skipped
    for name in ("mftp_2", "doubly_real", "mftp_3"):
        assert bool(witnesses[name]) == (name not in skipped)
    built.clear()
    code = main(["kron", *A4, "--kappa-cap", str(cap)])
    out, err = capsys.readouterr()
    if cap >= 128:
        assert code == 0 and built
    else:  # refused before t3
        assert (code, out, built) == (1, "", [])
        assert err == "error: kappa tensors exceed --kappa-cap 127\n"


def test_kappa_cap_keeps_the_d1_sums(capsys):
    reports = []
    for cap in ("1", "100"):
        assert main(["verify", *S3, "--d", "1", "--kappa-cap", cap]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    values = {r["name"]: r["values"] for r in json.loads(reports[0])["records"]}
    assert values["conj_1"]["kappa_sq"] == "3" and values["rconj_1"]["sigma_weighted"] == "3"
