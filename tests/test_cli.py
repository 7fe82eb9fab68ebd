"""Front-end behavior: exit codes, output formats, argument validation."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from kzresidue import Partition, SparsePolynomial, discriminant_power, fundamental_solution
from kzresidue import cli, exactalg, solve, verify
from kzresidue._jsontext import chunks
from kzresidue.cli import factored_text, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def test_factored_text_basic():
    z12 = SparsePolynomial.z_diff(3, 1, 2)
    z13 = SparsePolynomial.z_diff(3, 1, 3)
    z23 = SparsePolynomial.z_diff(3, 2, 3)
    assert factored_text(SparsePolynomial.zero(3)) == "0"
    assert factored_text(SparsePolynomial.constant(3, 5)) == "5"
    assert factored_text(z12) == "z12"
    assert factored_text(z12 * (-1)) == "-z12"
    assert factored_text(z12 * z12 * z13 * 3) == "3*z12^2*z13"
    assert (
        factored_text(discriminant_power(3, 2) * (-2)) == "-2*z12^2*z13^2*z23^2"
    )
    # irreducible residual goes in parentheses after the pulled-out powers
    mixed = z12 * (z13 + z23)
    assert factored_text(mixed).startswith("z12*(")


# ---------------------------------------------------------------------------
# subcommands, happy paths
# ---------------------------------------------------------------------------


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "--lambda", "2,1", "--m", "1")
    assert code == 0
    assert "dimension: 2" in out
    assert "degree: 3" in out
    assert "content_sum: 0" in out


def test_stats_json(capsys):
    code, out, _ = run(
        capsys, "stats", "--lambda", "3,1", "--m", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [3, 1] and doc["m"] == 2
    assert doc["dimension"] == 3 and doc["degree"] == 16
    assert doc["transpose"] == [2, 1, 1]


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--lambda", "2,1", "--m", "1")
    assert code == 0
    assert "dimension 2" in out
    assert "cycle {1,2}|{3}:" in out
    # factored rendering of the frozen first component
    assert "z12^2*(" in out


def test_solve_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "solve", "--lambda", "2,1", "--m", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert len(doc["matrix"]) == 2 and len(doc["components"]) == 2
    entry = SparsePolynomial.from_json(doc["matrix"][0][0])
    assert entry.degree() == 3


def test_det_text(capsys):
    code, out, _ = run(capsys, "det", "--lambda", "2,1", "--m", "1")
    assert code == 0
    assert "[PASS] determinant_identity" in out
    assert "constant: -2" in out


def test_det_json(capsys):
    code, out, _ = run(
        capsys, "det", "--lambda", "1,1", "--m", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["info"]["constant"] == "-1"


def test_dual_text(capsys):
    code, out, _ = run(capsys, "dual", "--lambda", "2,1", "--m", "1")
    assert code == 0
    assert "solves m=-1" in out
    assert "/ det" in out


def test_twist_runs_and_verifies(capsys):
    code, out, _ = run(capsys, "twist", "--lambda", "1,1", "--m", "1")
    assert code == 0
    assert "(m=-1, twisted): pass" in out


def _twist_on_a_fresh_point(capsys, monkeypatch, *argv):
    """`twist` with no live matrix, so no table holds a KZ record yet."""
    monkeypatch.setattr(solve, "_live_matrices", type(solve._live_matrices)())
    return run(capsys, "twist", "--lambda", "3,1", "--m", "1", *argv)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_twist_checks_one_table_in_full_and_reads_the_rest(capsys, monkeypatch, fmt):
    witness = mock.Mock(wraps=verify._kz_witness)
    monkeypatch.setattr(verify, "_kz_witness", witness)
    code, out, _ = _twist_on_a_fresh_point(capsys, monkeypatch, "--format", fmt)
    assert code == 0 and witness.call_count == 1
    # every twisted table checked in full, as without the records
    monkeypatch.setattr(verify, "_kz_reports", lambda fm: None)
    code, full, _ = _twist_on_a_fresh_point(capsys, monkeypatch, "--format", fmt)
    assert code == 0 and witness.call_count == 4
    if fmt == "text":
        assert out == full
        return
    doc, full = json.loads(out), json.loads(full)
    assert doc["tables"] == full["tables"]
    for k, (rep, ref) in enumerate(zip(doc["checks"], full["checks"])):
        assert {**rep, "info": None} == {**ref, "info": None}
        assert rep["info"]["twisted"] is True and rep["info"]["twist"] == verify.TWIST
        if k:
            assert rep["info"]["identity"] == verify.RELABELING
        else:
            assert rep["info"] == {**ref["info"], "twist": verify.TWIST}


def test_reflection_with_pairing(capsys):
    code, out, _ = run(
        capsys, "reflection", "--n", "3", "--m", "1", "--pairing"
    )
    assert code == 0
    assert "residue solution 1:" in out
    assert "path solution 1 (m=-1):" in out
    assert "pass pairing" in out


def test_reflection_pairing_builds_each_family_once(capsys, monkeypatch):
    spies = []
    for name in ("reflection_solutions", "reflection_dual_solutions"):
        spies.append(spy := mock.Mock(wraps=getattr(solve, name)))
        for module in (solve, verify):
            monkeypatch.setattr(module, name, spy)
    code, out, _ = run(capsys, "reflection", "--n", "3", "--m", "1", "--pairing")
    assert code == 0 and "pass pairing" in out
    assert [spy.call_count for spy in spies] == [1, 1]


def test_verify_single_shape(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "2,1", "--m", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines == ["[PASS] kz_system shape=(2,1) m=1"] * 2


def test_verify_full_battery(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "2,1", "--m", "1", "--all")
    assert code == 0
    assert "[PASS] polynomial_shape" in out
    assert "[PASS] determinant_identity" in out
    assert out.count("[PASS]") == 7


def test_verify_all_partitions(capsys):
    code, out, _ = run(capsys, "verify", "--all-partitions", "3", "--m", "1")
    assert code == 0
    # one table for (3), two for (2,1), one for (1,1,1)
    assert out.count("[PASS] kz_system") == 4


def test_verify_checks_one_table_in_full_and_relabels_the_rest(capsys, monkeypatch):
    calls = []
    real = verify.check_kz
    monkeypatch.setattr(verify, "check_kz", lambda table: calls.append(table) or real(table))
    code, out, _ = run(capsys, "verify", "--lambda", "3,1", "--m", "1")
    assert code == 0 and len(calls) == 1
    assert out.splitlines() == ["[PASS] kz_system shape=(3,1) m=1"] * 3
    code, out, _ = run(capsys, "verify", "--lambda", "3,1", "--m", "1", "--format", "json")
    doc = json.loads(out)
    assert [rep["info"].get("identity") for rep in doc] == [None] + [verify.RELABELING] * 2


def test_verify_json_is_array(capsys):
    code, out, _ = run(
        capsys, "verify", "--lambda", "1,1", "--m", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and doc[0]["check"] == "kz_system"


# ---------------------------------------------------------------------------
# JSON documents: streamed, byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("solve", "--lambda", "3,1", "--m", "2"),
    ("stats", "--lambda", "3,1", "--m", "2"),
    ("det", "--lambda", "2,1", "--m", "1"),
    ("dual", "--lambda", "2,1", "--m", "1"),
    ("twist", "--lambda", "2,1", "--m", "1"),
    ("reflection", "--n", "3", "--m", "1", "--pairing"),
    ("verify", "--lambda", "2,1", "--m", "2", "--all"),
    ("verify", "--all-partitions", "3", "--m", "1"),
], ids=lambda argv: " ".join(argv))
def test_json_output_is_the_indented_dump_byte_for_byte(capsys, monkeypatch, argv):
    payloads = []
    real = cli.emit

    def spy(args, payload, text_lines):
        payloads.append(payload)
        real(args, payload, text_lines)

    monkeypatch.setattr(cli, "emit", spy)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"


# SHA-256 of the stdout of the requests that print fractions over their
# family's one denominator (the twisted tables, the dual, the path
# family), in text and JSON, pinned byte for byte
PINNED_STDOUT_SHA256 = {
    "twist --lambda 2,1 --m 2":
        "e0b59cf6d0dd76dcd5662c548254e70b504e649db147f36105eadbf8b927dca1",
    "twist --lambda 2,1 --m 2 --format json":
        "fd8dbb348765a97171ea5f85e0dd1c02e49bd0baee1b13d2a425babda22b2e92",
    "dual --lambda 2,1 --m 2":
        "a259fba98818f8a068e58ee0c8a3a8def9c712ff4f2dfdd84c54783505cc077d",
    "dual --lambda 2,1 --m 2 --format json":
        "8f82e5eb0f907de8403174414ddf774a319cd01a8d9778063dd8550cf32adf07",
    "reflection --n 3 --m 2 --pairing":
        "1701472e89cf9d8f3a8ac698ace186d850dcc6cc6f2958925a660664cccfdcdd",
    "reflection --n 3 --m 2 --pairing --format json":
        "d688708bb8f1474cad7f58fadf2948016bdf325de022b45b13c10cbeb227d486",
    # each family's denominator and numerators read in content form
    "reflection --n 4 --m 2 --pairing":
        "9989bc26181e989c5cb9f0ac05aae196fa0ef75bf8ddc60cdaf592b17489f088",
    "dual --lambda 3,1 --m 1":
        "0b958e00edff99f0b85d634152806946de0aefba4a23835b7ab1065da577f08d",
    "twist --lambda 2,2 --m 1":
        "9ebb9b23922bb972e337f32b03f177e323734adfaa39d7c10e64b70ad1355697",
    # polynomial tables: the text reads each value's z-difference content,
    # the JSON expands it, and `det` reads the matrix through its entries
    "solve --lambda 3,1 --m 2":
        "3cafcc3c9253df96c99e66a4631c9d156d7dda76aa196a70baa36ea73708849f",
    "solve --lambda 3,1 --m 2 --format json":
        "36b9dd47f7c4ea9d3e65bae47f8e52df471ff2933e674cc052a5f70d261e2cac",
    "solve --lambda 2,1,1 --m 1":
        "7192df58e0554cdcbc9fc7fdcc2ed60aca06c7cc2bac360ebf735eb8aeafef52",
    "det --lambda 2,2 --m 1 --format json":
        "80f9e327905232c7b23ba19bac8fda7eb95f4f4ded834867af87905b5d102a31",
}


@pytest.mark.parametrize("request_", PINNED_STDOUT_SHA256)
def test_fraction_families_print_their_pinned_bytes(capsys, request_):
    code, out, err = run(capsys, *request_.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[request_]


class _CountingSink:
    """A standard output that keeps nothing: it counts writes and characters."""

    def __init__(self):
        self.writes = 0
        self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_json_is_written_in_batches_within_bounded_memory(monkeypatch):
    payload = fundamental_solution(Partition((3, 1)), 2).to_json()
    length = sum(map(len, chunks(payload))) + 1
    assert length > 4 * cli.JSON_BATCH  # several batches
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli.emit(argparse.Namespace(format="json"), payload, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == length
    # the whole text (or a list of all its chunks) is never held
    assert peak < length
    assert sink.writes <= -(-length // cli.JSON_BATCH) + 1


# ---------------------------------------------------------------------------
# refusals and usage errors
# ---------------------------------------------------------------------------


def test_verify_needs_a_target(capsys):
    code, _, err = run(capsys, "verify", "--m", "1")
    assert code == 2
    assert "needs --lambda or --all-partitions" in err


def test_verify_refuses_both_targets(capsys, monkeypatch):
    monkeypatch.setattr(solve, "fundamental_solution", _must_not_solve)
    monkeypatch.setattr(verify, "run_suite", _must_not_solve)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lambda", "2,1", "--all-partitions", "2", "--m", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--all-partitions: not allowed with argument --lambda" in err


def test_budget_refusal(capsys):
    code, _, err = run(capsys, "solve", "--lambda", "1,1,1,1,1", "--m", "1")
    assert code == 2
    assert err.startswith("refused:")
    assert "budget" in err


def _must_not_solve(*args, **kwargs):
    raise AssertionError("solving started before the request was refused")


def test_verify_all_partitions_refused_before_solving(capsys, monkeypatch):
    # (2,1,1,1) and (1,1,1,1,1) are over budget; (5) comes first and is not
    monkeypatch.setattr(solve, "fundamental_solution", _must_not_solve)
    code, out, err = run(capsys, "verify", "--all-partitions", "5", "--m", "1")
    assert code == 2
    assert out == "" and err.startswith("refused:")


def test_verify_all_partitions_variable_limit_refused_before_listing(capsys, monkeypatch):
    # the partition count grows exponentially: N over the limit is refused
    # without listing a single partition
    def must_not_list(n):
        raise AssertionError("partitions were listed before the request was refused")

    monkeypatch.setattr(cli, "enumerate_partitions", must_not_list)
    for n in ("9", "50"):
        code, out, err = run(capsys, "verify", "--all-partitions", n, "--m", "1")
        assert code == 2
        assert out == "" and err.startswith(f"refused: N={n} exceeds")


def test_reflection_variable_limit_refused_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(solve, "reflection_solutions", _must_not_solve)
    code, out, err = run(capsys, "reflection", "--n", "8", "--m", "1")
    assert code == 2
    assert out == "" and err.startswith("refused:")


def test_reflection_exponent_cap_refused_before_solving(capsys, monkeypatch):
    for name in ("reflection_solutions", "reflection_dual_solutions"):
        monkeypatch.setattr(solve, name, _must_not_solve)
    code, out, err = run(capsys, "reflection", "--n", "2", "--m", "99999999999999999999999")
    assert code == 2
    assert out == "" and err.startswith("refused:") and "exponent cap" in err


def test_zero_m_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lambda", "2,1", "--m", "0"])
    assert exc.value.code == 2


def test_bad_shape_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--lambda", "1,2", "--m", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["stats", "--lambda", "2,x", "--m", "1"])


@pytest.mark.parametrize("shape", ["99999999999999999999", f"{cli.MAX_STATS_SIZE},1"])
def test_stats_refuses_a_shape_over_the_size_limit(capsys, monkeypatch, shape):
    def never(*args):
        raise AssertionError("an over-large shape reached diagram_stats")

    monkeypatch.setattr(cli, "diagram_stats", never)
    code, out, err = run(capsys, "stats", "--lambda", shape, "--m", "1")
    assert code == 2
    assert out == "" and err.startswith("refused:")
    assert f"limit {cli.MAX_STATS_SIZE}" in err


def test_stats_answers_the_largest_admitted_shapes(capsys):
    # one row and one column of MAX_STATS_SIZE boxes: both one-dimensional
    for shape in (str(cli.MAX_STATS_SIZE), ",".join(["1"] * cli.MAX_STATS_SIZE)):
        code, out, _ = run(capsys, "stats", "--lambda", shape, "--m", "1")
        assert code == 0 and "dimension: 1\n" in out


# one row of 1000 boxes: the degree is m * 999000
_LARGEST_PRINTABLE_M = (10 ** cli.MAX_STATS_DIGITS - 1) // 999000


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("m", [str(_LARGEST_PRINTABLE_M + 1), "9" * 4299],
                         ids=["first refused", "4299 nines"])
def test_stats_refuses_a_degree_too_long_to_print(capsys, fmt, m):
    code, out, err = run(capsys, "stats", "--lambda", "1000", "--m", m, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == (
        f"refused: the degree m*(f2 + N(N-1)/2) has more than {cli.MAX_STATS_DIGITS} digits\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stats_prints_the_longest_admitted_degree(capsys, fmt):
    m = str(_LARGEST_PRINTABLE_M)
    code, out, _ = run(capsys, "stats", "--lambda", "1000", "--m", m, "--format", fmt)
    assert code == 0
    degree = _LARGEST_PRINTABLE_M * 999000
    assert len(str(degree)) == cli.MAX_STATS_DIGITS
    if fmt == "json":
        assert json.loads(out)["degree"] == degree
    else:
        assert f"degree: {degree}\n" in out


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _cli_env():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # standard output block-buffered, as in a pipe
    return env


def test_closed_stdout_ends_quietly():
    """A reader that stops after one line (`| head -1`) gets no traceback.
    The JSON document (about 1.3 MB) is larger than a pipe's buffer, so
    the writer is still writing when the pipe closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "kzresidue.cli", "solve", "--lambda", "3,1",
         "--m", "2", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.OUTPUT_CLOSED
    assert b"Traceback" not in err
    assert err == b""


def test_stdout_closed_before_output_ends_quietly():
    """A short output sits in the stdout buffer until the final flush;
    with the reader already gone, that flush fails too, and still quietly."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kzresidue.cli", "stats", "--lambda", "2,1", "--m", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.OUTPUT_CLOSED
    assert proc.stderr == b""


def test_cli_import_loads_no_dataclasses():
    """`import kzresidue.cli` loads neither `dataclasses` nor the modules
    it pulls in, which every CLI call would pay for at start-up."""
    code = (
        "import sys; before = set(sys.modules); import kzresidue.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_cli_env(), timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "kzresidue.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


_LOADS = (
    "import sys\n"
    "import kzresidue.cli as cli\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "try:\n"
    "    rc = cli.main(sys.argv[1:])\n"
    "finally:  # argparse ends usage errors and --help by SystemExit\n"
    "    print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)
_SOLVER = {"kzresidue.exactalg", "kzresidue.residues", "kzresidue.solve"}


# (argv, solver loaded, check battery loaded, json loaded); a case's id is
# the request and the last two
_LOAD_CASES = [
    (("solve", "--lambda", "2,1", "--m", "1"), True, False, False),
    (("stats", "--lambda", "2,1", "--m", "1"), False, False, False),
    (("reflection", "--n", "3", "--m", "1"), True, False, False),
    # the package's JSON writer escapes no string here, so imports no json
    (("solve", "--lambda", "2,1", "--m", "1", "--format", "json"), True, False, False),
    (("verify", "--lambda", "2,1", "--m", "1"), True, True, False),
    (("reflection", "--n", "3", "--m", "1", "--pairing"), True, True, False),
    # usage errors and refusals
    (("--help",), False, False, False),
    (("solve", "--lambda", "2,x", "--m", "1"), False, False, False),
    (("solve", "--lambda", "2,1", "--m", "0"), False, False, False),
    (("solve", "--lambda", "9", "--m", "1"), False, False, False),
    (("verify", "--lambda", "1,1,1,1,1", "--m", "1"), False, False, False),
    (("verify", "--lambda", "1,1,1,1,1", "--m", "1", "--all"), False, False, False),
    (("reflection", "--n", "8", "--m", "1"), False, False, False),
    (("reflection", "--n", "2", "--m", "99999999999999999999999"), False, False, False),
]


@pytest.mark.parametrize("argv, solver_loaded, verify_loaded, json_loaded", [
    pytest.param(*case, id=f"{' '.join(case[0])}-{case[2]}-{case[3]}")
    for case in _LOAD_CASES
])
def test_cli_loads_the_check_battery_and_json_only_where_used(
    argv, solver_loaded, verify_loaded, json_loaded
):
    """A fresh `python -B` process: `import kzresidue.cli` compiles
    neither the solver (`exactalg`, `residues`, `solve`), nor
    `kzresidue.verify`, nor the JSON writer, nor `json`; a command
    imports the first three when it solves, checks or encodes, `json`
    only to escape a string, and a usage error or a refused request
    imports none of them."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _LOADS, *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode in (0, cli.USAGE_ERROR)
    lines = proc.stderr.splitlines()
    at_import, after = set(lines[0].split()), set(lines[-1].split())
    assert not at_import & (_SOLVER | {"kzresidue.verify", "kzresidue._jsontext", "json"})
    assert "kzresidue.shapes" in after
    assert _SOLVER <= after if solver_loaded else not _SOLVER & after
    assert ("kzresidue.verify" in after) == verify_loaded
    assert ("kzresidue._jsontext" in after) == ("json" in argv)
    assert ("json" in after) == json_loaded


@pytest.mark.parametrize("argv", [
    ("solve", "--lambda", "3,1", "--m", "1"),
    ("det", "--lambda", "2,1", "--m", "1"),
    ("dual", "--lambda", "2,1", "--m", "1"),
    ("twist", "--lambda", "2,1", "--m", "1"),
    ("reflection", "--n", "3", "--m", "1", "--pairing"),
    ("verify", "--lambda", "2,1", "--m", "1", "--all"),
], ids=" ".join)
def test_text_output_builds_no_json_document(capsys, monkeypatch, argv):
    code, expected, _ = run(capsys, *argv)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_json in a text request")

    for module in (exactalg, solve, verify):
        for value in list(vars(module).values()):
            if isinstance(value, type) and "to_json" in vars(value):
                monkeypatch.setattr(value, "to_json", refuse)
    assert run(capsys, *argv) == (code, expected, "")
