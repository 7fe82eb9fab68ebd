"""Front-end behavior: exit codes, output formats, argument validation."""
import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from kzresidue import Partition, SparsePolynomial, discriminant_power, fundamental_solution
from kzresidue import cli, solve, verify
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
        for module in (cli, verify):
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
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
    length = len(json.dumps(payload, indent=2)) + 1
    assert chunks > cli.JSON_BATCH  # several batches
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli.emit(argparse.Namespace(format="json"), payload, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == length
    # the whole text (or the encoder's list of its chunks) is never held
    assert peak < length
    assert sink.writes <= -(-chunks // cli.JSON_BATCH) + 1


# ---------------------------------------------------------------------------
# refusals and usage errors
# ---------------------------------------------------------------------------


def test_verify_needs_a_target(capsys):
    code, _, err = run(capsys, "verify", "--m", "1")
    assert code == 2
    assert "needs --lambda or --all-partitions" in err


def test_verify_refuses_both_targets(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fundamental_solution", _must_not_solve)
    monkeypatch.setattr(cli, "run_suite", _must_not_solve)
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
    monkeypatch.setattr(cli, "fundamental_solution", _must_not_solve)
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
    monkeypatch.setattr(cli, "reflection_solutions", _must_not_solve)
    code, out, err = run(capsys, "reflection", "--n", "8", "--m", "1")
    assert code == 2
    assert out == "" and err.startswith("refused:")


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
