"""Command-line interface: reports, exit codes, determinism, knobs."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrank import cli, exact, polyio, reductions, report, symmetric, trace

DATA = Path(__file__).parent / "data"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def poly_file(tmp_path):
    def write(text, name="f.poly"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_dim_power_sum_plus_product(capsys, poly_file):
    path = poly_file("x1*x2*x3*x4*x5 + x1^5 + x2^5 + x3^5 + x4^5 + x5^5")
    code, out, _ = run(capsys, "dim", "--k", "2", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["exact_dim"] == {"status": "computed", "value": 15}
    assert report["bounds"]["linearity_upper"] >= 15


def test_parser_is_built_once_per_process(capsys, poly_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    path = poly_file("x1*x2 + x3")
    assert run(capsys, "dim", "--k", "1", path)[0] == 0
    assert built.count("pdrank") == 1
    first = len(built)
    assert run(capsys, "bounds", "--k", "1", path)[0] == 0
    assert len(built) == first


@pytest.mark.parametrize("command", ["bounds", "dim"])
def test_one_scaled_conversion_per_request(capsys, monkeypatch, command):
    """The report converts f once and hands the scaled copy to every stage."""
    calls = []
    original = polyio.to_scaled

    def counting(f):
        calls.append(f)
        return original(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pdrank":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    path = str(DATA / "rational.poly")
    assert run(capsys, command, "--k", "2", path, "--format", "json")[0] == 0
    assert len(calls) == 1


def count_assemblies(monkeypatch) -> list:
    """Replace exact.assemble, wherever pdrank holds it, by a wrapper that counts its calls."""
    calls = []
    original = exact.assemble

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pdrank":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize(
    "command, name, assemblies",
    [
        # Gram route (nnz(M) 420 <= 4900 pairs): M is the order-k matrix itself.
        ("bounds", "sym_4_8", 1),
        ("dim", "sym_4_8", 1),
        ("trace", "sym_4_8", 1),
        # Grouped route (nnz(M) 493 > 396 pairs): the trace assembles nothing.
        ("bounds", "multilinear40", 1),
        ("dim", "multilinear40", 1),
        ("trace", "multilinear40", 0),
    ],
)
def test_one_assembly_per_request(capsys, monkeypatch, command, name, assemblies):
    """bounds and dim --k assemble one order-k matrix; trace assembles its own M only."""
    calls = count_assemblies(monkeypatch)
    argv = (command, str(DATA / f"{name}.poly"), "--k", "2", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"{name}.{command}_k2.json").read_text()
    assert len(calls) == assemblies


@pytest.mark.parametrize("command", ["bounds", "dim"])
def test_pair_cap_refuses_before_any_assembly(capsys, monkeypatch, command):
    calls = count_assemblies(monkeypatch)
    argv = (command, str(DATA / "sym_4_8.poly"), "--k", "2", "--budget", "1")
    assert run(capsys, *argv) == (3, "", "resource limit: triple-sum limit exceeded: 4900 > 1\n")
    assert calls == []


@pytest.mark.parametrize("command", ["bounds", "dim"])
@pytest.mark.parametrize(
    "text, caps, err",
    [
        ("x1^2*x2 + 3/2*x3^3", ("--max-rows", "1"), "rows limit exceeded: 2 > 1"),
        ("x1^2*x2 + 3/2*x3^3", ("--max-cols", "1"), "cols limit exceeded: 2 > 1"),
        ("x1^2*x2 + 3/2*x3^3", ("--budget", "1"), "triple-sum limit exceeded: 4 > 1"),
        # Past both caps: the trace's pair count is checked before the assembly.
        (
            "x1^2*x2 + 3/2*x3^3",
            ("--max-rows", "1", "--budget", "1"),
            "triple-sum limit exceeded: 4 > 1",
        ),
        # 396 pairs pass, 1844 bucket pairings do not: the trace's cap is
        # named before the matrix's.
        (None, ("--max-rows", "5", "--budget", "1000"), "triple-sum limit exceeded: 1844 > 1000"),
        (None, ("--max-cols", "5", "--budget", "1000"), "triple-sum limit exceeded: 1844 > 1000"),
        (None, ("--max-rows", "5"), "rows limit exceeded: 6 > 5"),
    ],
)
def test_cap_precedence(capsys, poly_file, command, text, caps, err):
    path = poly_file(text) if text else str(DATA / "multilinear40.poly")
    assert run(capsys, command, "--k", "2", path, *caps) == (3, "", f"resource limit: {err}\n")


def test_order_flag_error_precedes_the_matrix_caps(capsys):
    path = str(DATA / "multilinear40.poly")
    code, out, err = run(capsys, "dim", "--k", "2", path, "--order", "perm=1", "--max-rows", "5")
    assert (code, out) == (2, "")
    assert err == "input error: --order permutation must mention every variable once\n"


def test_dim_k0_any_nonzero_poly_is_one(capsys, poly_file):
    path = poly_file("3*x1^2 - x2 + 1/7")
    code, out, _ = run(capsys, "dim", "--k", "0", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["exact_dim"]["value"] == 1


def test_dim_zero_polynomial_flagged(capsys, poly_file):
    """The zero polynomial's provenance says no rank ran, on every dim mode."""
    path = poly_file("x1 - x1")
    for mode in (("--k", "1"), ("--mode", "star"), ("--mode", "plus")):
        code, out, _ = run(capsys, "dim", *mode, path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["exact_dim"] == {"status": "zero-poly", "value": 0}
        assert report["provenance"]["exact_dim"] == "zero polynomial spans nothing"
        code, out, _ = run(capsys, "dim", *mode, path, "--format", "text")
        assert code == 0
        assert "  exact_dim: zero polynomial spans nothing\n" in out


def test_dim_plus_refuses_degree_one(capsys, poly_file):
    """The interior orders 1..deg-1 of a degree-1 polynomial are none: an input error."""
    path = poly_file("x1 + x2")
    code, out, err = run(capsys, "dim", "--mode", "plus", path)
    assert (code, out) == (2, "")
    assert err == "input error: interior-orders mode requires degree >= 2\n"


@pytest.mark.parametrize(
    "mode, computed", [(("--k", "2"), 14), (("--mode", "star"), 21), (("--mode", "plus"), 20)]
)
@pytest.mark.parametrize(
    "text, caps, status",
    [
        (None, (), "computed"),
        (None, ("--elimination-budget", "0"), "skipped:caps:elimination-budget"),
        ("x1 - x1", (), "zero-poly"),
    ],
)
def test_exact_dim_record_on_every_mode(capsys, poly_file, mode, computed, text, caps, status):
    """A rank past --elimination-budget is a skip with exit 0 on every dim mode."""
    path = poly_file(text) if text else str(DATA / "rational.poly")
    value = {"computed": computed, "zero-poly": 0}.get(status)
    code, out, err = run(capsys, "dim", path, *mode, *caps, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_dim"] == {"status": status, "value": value}
    code, out, err = run(capsys, "dim", path, *mode, *caps, "--format", "text")
    assert (code, err) == (0, "")
    assert f"exact_dim:\n  status: {status}\n  value: {value}\n" in out


@pytest.mark.parametrize(
    "mode, computed",
    [
        (("--k", "2"), "fraction-free elimination rank of the derivative matrix"),
        (("--mode", "star"), "fraction-free elimination rank"),
        (("--mode", "plus"), "fraction-free elimination rank"),
    ],
)
def test_skipped_exact_dim_says_no_rank_came_out(capsys, mode, computed):
    """A capped rank's provenance says so on every dim mode; a computed one's is unchanged."""
    path = str(DATA / "rational.poly")
    for caps, why in (((), computed), (("--elimination-budget", "0"), cli.NO_RANK)):
        code, out, err = run(capsys, "dim", path, *mode, *caps, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["provenance"]["exact_dim"] == why
        code, out, err = run(capsys, "dim", path, *mode, *caps, "--format", "text")
        assert (code, err) == (0, "")
        assert f"  exact_dim: {why}\n" in out
    code, out, _ = run(capsys, "bounds", path, "--k", "2", "--format", "json")
    assert json.loads(out)["exact_dim"]["status"] == "not-requested"
    assert json.loads(out)["provenance"]["exact_dim"] == (
        "fraction-free elimination rank of the derivative matrix"
    )


@pytest.mark.parametrize("mode", [("--k", "2"), ("--mode", "star"), ("--mode", "plus")])
def test_matrix_caps_end_every_dim_mode(capsys, mode):
    argv = ("dim", str(DATA / "rational.poly"), *mode, "--max-rows", "1")
    assert run(capsys, *argv) == (3, "", "resource limit: rows limit exceeded: 2 > 1\n")


def test_dim_star_mode_and_note(capsys, poly_file):
    path = poly_file("x1^2*x2")
    code, out, _ = run(capsys, "dim", "--mode", "star", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["exact_dim"]["value"] == 6
    assert "order 0" in report["note"]


def test_dim_accepts_json_polynomials(capsys, tmp_path):
    payload = {"vars": ["x1", "x2"], "terms": [{"coef": "3/2", "exps": [1, 1]}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "dim", "--k", "1", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["exact_dim"]["value"] == 2


def test_bounds_subcommand_skips_exact(capsys, poly_file):
    path = poly_file("x1*x2 + x3")
    code, out, _ = run(capsys, "bounds", "--k", "1", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["exact_dim"] == {"status": "not-requested", "value": None}
    assert report["bounds"]["linearity_upper"] == 3


def test_trace_oracle_and_semirandom(capsys, poly_file):
    path = poly_file("x1*x2 + x2*x3 + x1*x3")
    code, out, _ = run(
        capsys,
        "trace", "--k", "1", path,
        "--oracle", "--samples", "20", "--seed", "3", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["matches_closed_form"] is True
    assert report["oracle"]["rank_b"] == 3
    assert report["semirandom"]["sample_mean"] == report["semirandom"]["expectation"]


def test_trace_oracle_is_held_against_the_grouped_sum(capsys, poly_file, monkeypatch):
    """Tr(B^2) of the oracle is compared with the grouped sum, not with trace_B2's route."""
    path = poly_file("x1*x2 + x2*x3 + x1*x3")
    grouped = trace._grouped_B2
    monkeypatch.setattr(trace, "_grouped_B2", lambda *args: grouped(*args) + 1)
    code, out, err = run(capsys, "trace", "--k", "1", path, "--oracle")
    assert (code, out) == (4, "")
    assert "closed form (6/1, 18/1), grouped 19/1 vs oracle (6/1, 18/1)" in err


def test_reduce_graph_identity(capsys, tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("p 3\n1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "reduce", "graph", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["identity_holds"] is True
    assert report["dim_plus"] == 6


def test_reduce_complex(capsys, tmp_path):
    path = tmp_path / "c.facets"
    path.write_text("1 2\n2 3\n")
    code, out, _ = run(capsys, "reduce", "complex", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["identity_holds"] is True
    assert report["face_count"] == 5


@pytest.mark.parametrize("kind", ["graph", "complex"])
@pytest.mark.parametrize("text, line", [("1 2\n1 ²\n", 2), ("١ ٢\n", 1)])
def test_reduce_refuses_non_ascii_ids_with_their_line(capsys, tmp_path, kind, text, line):
    """Ids are ASCII digits in both formats; another digit is a ParseError at its line."""
    path = tmp_path / f"f.{kind}"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "reduce", kind, str(path), "--format", "json")
    rule = "expected an edge 'u v'" if kind == "graph" else "expected a facet of vertex ids"
    assert (code, out, err) == (2, "", f"input error: line {line}, col 1: {rule}\n")


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "--exhaustive", "n=3", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["graphs_checked"] == 8
    assert summary["all_hold"] is True


def test_verify_exhaustive_failure_exit_4(capsys, monkeypatch):
    """A failing identity is an internal fault: exit 4, failures listed by edge bitmask."""
    monkeypatch.setattr(reductions, "_x_block_dim", lambda matrix: (0, 0))
    argv = ("verify", "--exhaustive", "n=3", "--check-basis", "--format", "json")
    code, out, err = run(capsys, *argv)
    summary = json.loads(out)
    assert (code, err) == (4, "")
    assert summary["identity_failures"] == summary["basis_failures"] == list(range(1, 8))
    assert summary["all_hold"] is False


def test_verify_exhaustive_accepts_n7(capsys, monkeypatch):
    seen = []

    def stub(n, check_basis):
        seen.append(n)
        return {"n": n, "all_hold": True}

    monkeypatch.setattr(cli.reductions, "exhaustive_verify", stub)
    code, _, _ = run(capsys, "verify", "--exhaustive", "n=7", "--format", "json")
    assert (code, seen) == (0, [7])


def test_sym_gap_fixed_json(capsys):
    code, out, _ = run(
        capsys, "sym", "gap", "--fixed", "d=3", "k=1", "n=4..8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "fixed"
    assert len(payload["points"]) == 5
    first = payload["points"][0]
    assert set(first) >= {"n", "d", "k", "u", "v", "upper_v", "ratio", "v_dec"}


def test_sym_gap_scaled_csv(capsys):
    code, out, _ = run(
        capsys, "sym", "gap", "--scaled", "kp=1", "dp=3", "np=8", "m=1..3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,d,k,u,v")
    assert len(lines) == 4
    assert lines[1].split(",")[4] == "7/4"


def test_random_corpus_roundtrip(capsys):
    code, out, _ = run(
        capsys, "random-corpus", "--count", "5", "--seed", "11", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["polys"]) == 5
    from pdrank import poly_from_json_dict

    for entry in payload["polys"]:
        poly_from_json_dict(entry)  # schema round-trips


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--k", "2", "/nonexistent/file.poly"),
        ("verify", "--exhaustive", "n=twelve"),
        ("verify", "--exhaustive", "n=2"),
        ("verify", "--exhaustive", "n=8"),
        ("sym", "gap", "--fixed", "d=3"),
        # (name, text) entries are written to a file first.
        ("dim", "--k", "1", ("f.poly", "x1 + é")),
        ("dim", "--k", "1", ("f.poly", "x1^²")),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [{"coef": "1"}]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [{"exps": [1]}]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [1]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": 5}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [{"coef": "1", "exps": 1}]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [{"coef": true, "exps": [1]}]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": ["x"], "terms": [{"coef": 1, "exps": [true]}]}')),
        ("dim", "--k", "1", ("f.json", '{"vars": "xy", "terms": [{"coef": "1", "exps": [1, 1]}]}')),
        ("bounds", "--k", "1", "--vertex-trials", "-5", ("f.poly", "x1 + x2")),
        ("dim", "--k", "1", ("f.json", '{"vars": ["a b", "1x"], "terms": [{"coef": "1", "exps": [1, 1]}]}')),
        ("bounds", "--k", "1", "--vertex-trials", "10001", ("f.poly", "x1 + x2")),
        # A JSON coefficient string is one signed coef of the text grammar, so
        # exponent notation never reaches a big-int power.
        *(
            (
                "dim", "--k", "1",
                ("f.json", json.dumps({"vars": ["x"], "terms": [{"coef": c, "exps": [1]}]})),
            )
            for c in ["1e3000000", "1e10000000", "1.", ".5", "1_000", " 3/4 ", "١٢", "nan"]
        ),
        ("dim", "--k", "1", ("f.poly", "١٢*x1")),
    ],
)
def test_input_errors_exit_2(capsys, tmp_path, argv):
    args = []
    for arg in argv:
        if isinstance(arg, tuple):
            name, text = arg
            (tmp_path / name).write_text(text, encoding="utf-8")
            arg = str(tmp_path / name)
        args.append(arg)
    code, _, err = run(capsys, *args)
    assert code == 2
    assert err
    if "--vertex-trials" in args:  # the cases that pin the knob's least and most
        value = args[args.index("--vertex-trials") + 1]
        assert err == f"input error: --vertex-trials must be in 0..10000, got {value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "dim POLY --k 1 --order perm=1,,2",
            "input error: --order index must be an integer, got ''",
        ),
        ("verify --exhaustive n=x", "input error: n must be an integer, got 'x'"),
        ("sym gap --fixed d=five k=2 n=7..9", "input error: d must be an integer, got 'five'"),
        ("sym gap --fixed d=5 k=2 n=7..x", "input error: n must be an integer, got 'x'"),
        (
            "sym gap --scaled kp=1 dp=2 np=5 m=1..2.5",
            "input error: m must be an integer, got '2.5'",
        ),
        ("dim POLY --k x", "input error: --k must be an integer, got 'x'"),
    ],
)
def test_malformed_integer_names_its_parameter(capsys, argv, message):
    """The last stderr line names the key or flag."""
    argv = [str(DATA / "rational.poly") if arg == "POLY" else arg for arg in argv.split()]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv, prefix",
    [
        ("verify --exhaustive n=LONG", "input error: n"),
        ("sym gap --fixed d=5 k=LONG n=7..9", "input error: k"),
        ("dim POLY --k 1 --order perm=1,LONG", "input error: --order index"),
        ("dim POLY --k LONG", "input error: --k"),
    ],
)
def test_integer_past_the_digit_limit_gives_its_digit_count(capsys, argv, prefix):
    """int() refuses the text for its length alone: the message gives digits, not the text."""
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    argv = [str(DATA / "rational.poly") if arg == "POLY" else arg for arg in argv.split()]
    code, out, err = run(capsys, *(arg.replace("LONG", long) for arg in argv))
    assert (code, out) == (2, "")
    message = f"{prefix} must be an integer of at most {limit} digits, got {limit + 1} characters"
    assert err.splitlines()[-1] == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit"
)
def test_long_text_that_is_not_an_integer_gives_its_length(capsys):
    """Text past the digit limit is never quoted, whether or not it is an integer."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "verify", "--exhaustive", "n=" + "1" * (limit + 1) + "x")
    assert (code, out) == (2, "")
    message = f"n must be an integer of at most {limit} digits, got {limit + 2} characters"
    assert err == f"input error: {message}\n"


# The base request of each subcommand that reads a knob flag.
KNOB_REQUESTS = {
    "dim": ("dim", "POLY", "--k", "1"),
    "bounds": ("bounds", "POLY", "--k", "1"),
    "trace": ("trace", "POLY", "--k", "1", "--oracle"),
    "reduce": ("reduce", "graph", ("g.graph", "p 3\n1 2\n")),
    "random-corpus": ("random-corpus",),
}
# Every entry point of an integer on the command line: the request, with N
# where the integer's text goes, and the name its refusal gives.
CLI_INTEGERS = [
    *(
        pytest.param(
            (*KNOB_REQUESTS[command], "--" + knob.name.replace("_", "-"), "N"),
            "--" + knob.name.replace("_", "-"),
            id=f"{command}--{knob.name}",
        )
        for knob in dataclasses.fields(cli.Options)
        for command in knob.metadata["commands"]
    ),
    pytest.param(("dim", "POLY", "--k", "1", "--order", "perm=1,N"), "--order index", id="order"),
    pytest.param(("verify", "--exhaustive", "n=N"), "n", id="verify-n"),
    pytest.param(("sym", "gap", "--fixed", "d=N", "k=2", "n=7..9"), "d", id="fixed-d"),
    pytest.param(("sym", "gap", "--fixed", "d=5", "k=N", "n=7..9"), "k", id="fixed-k"),
    pytest.param(("sym", "gap", "--fixed", "d=5", "k=2", "n=N..9"), "n", id="fixed-n-lo"),
    pytest.param(("sym", "gap", "--fixed", "d=5", "k=2", "n=7..N"), "n", id="fixed-n-hi"),
    pytest.param(("sym", "gap", "--fixed", "d=5", "k=2", "n=7,N"), "n", id="fixed-n-list"),
    pytest.param(("sym", "gap", "--scaled", "kp=N", "dp=2", "np=5", "m=1"), "kp", id="kp"),
    pytest.param(("sym", "gap", "--scaled", "kp=1", "dp=N", "np=5", "m=1"), "dp", id="dp"),
    pytest.param(("sym", "gap", "--scaled", "kp=1", "dp=2", "np=N", "m=1"), "np", id="np"),
    pytest.param(("sym", "gap", "--scaled", "kp=1", "dp=2", "np=5", "m=N..2"), "m", id="m-lo"),
    pytest.param(("sym", "gap", "--scaled", "kp=1", "dp=2", "np=5", "m=1..N"), "m", id="m-hi"),
]
LONG_INT = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
# Every entry point of an integer in an input file: the request, with N
# where a number past the digit limit goes, and the start of its refusal.
DIM_K1 = ("dim", "--k", "1")
FILE_INTEGERS = [
    pytest.param((*DIM_K1, ("f.poly", "x1 + N*x2")), "line 1, col 6: coefficient", id="coef"),
    pytest.param((*DIM_K1, ("f.poly", "-N/3")), "line 1, col 2: numerator", id="numerator"),
    pytest.param((*DIM_K1, ("f.poly", "x1 + 3/N*x2")), "line 1, col 8: denominator", id="den"),
    pytest.param((*DIM_K1, ("f.poly", "N.5*x1")), "line 1, col 1: coefficient", id="decimal"),
    pytest.param((*DIM_K1, ("f.poly", "1.N*x1")), "line 1, col 3: fractional part", id="decimals"),
    pytest.param((*DIM_K1, ("f.poly", "x1*x2^N")), "line 1, col 7: exponent", id="exponent"),
    pytest.param(
        (*DIM_K1, ("f.json", '{"vars": ["x"], "terms": [{"coef": N, "exps": [1]}]}')),
        "JSON number",
        id="json-coef-literal",
    ),
    pytest.param(
        (*DIM_K1, ("f.json", '{"vars": ["x"], "terms": [{"coef": 1, "exps": [N]}]}')),
        "JSON number",
        id="json-exps-literal",
    ),
    pytest.param(
        (*DIM_K1, ("f.json", '{"vars": ["x"], "terms": [{"coef": "N", "exps": [1]}]}')),
        "malformed rational",
        id="json-coef-string",
    ),
    pytest.param(
        (*DIM_K1, ("f.json", '{"vars": ["x"], "terms": [{"coef": "3/N", "exps": [1]}]}')),
        "malformed rational",
        id="json-coef-string-den",
    ),
    pytest.param(
        ("reduce", "graph", ("g.graph", "p 3\n1  N\n")), "line 2, col 4: vertex id", id="graph-id"
    ),
    pytest.param(
        ("reduce", "graph", ("g.graph", "p N\n1 2\n")), "line 1, col 3: n", id="graph-header"
    ),
    pytest.param(
        ("reduce", "complex", ("c.complex", "1 2\n\n3 N\n")),
        "line 3, col 3: vertex id",
        id="complex-id",
    ),
    pytest.param(
        ("reduce", "complex", ("c.complex", " ground N\n1\n")),
        "line 1, col 9: ground",
        id="complex-header",
    ),
]


def _request(argv, text: str, tmp_path) -> list[str]:
    """The argv with ``text`` for N; a (name, contents) entry becomes a file of that name."""
    args = []
    for arg in argv:
        if isinstance(arg, tuple):
            name, contents = arg
            (tmp_path / name).write_text(contents.replace("N", text), encoding="utf-8")
            arg = str(tmp_path / name)
        args.append(str(DATA / "rational.poly") if arg == "POLY" else arg.replace("N", text))
    return args


def _refused(capsys, args) -> str:
    """The one stderr line of a request refused as an input error."""
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert "Exceeds the limit" not in err and len(err) < 200
    assert err.endswith("\n") and "\n" not in err[:-1]
    return err[:-1]


@pytest.mark.skipif(not LONG_INT[1:], reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv, name", CLI_INTEGERS)
def test_every_command_line_integer_is_read_by_one_rule(capsys, tmp_path, argv, name):
    """Past the digit limit, non-ASCII digits and '_' are refused in one form that names the entry."""
    limit = len(LONG_INT) - 1
    refusals = {
        LONG_INT: f"must be an integer of at most {limit} digits, got {limit + 1} characters",
        "١": "must be an integer, got '١'",
        "1_0": "must be an integer, got '1_0'",
    }
    for text, form in refusals.items():
        assert _refused(capsys, _request(argv, text, tmp_path)) == f"input error: {name} {form}"


@pytest.mark.skipif(not LONG_INT[1:], reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv, start", FILE_INTEGERS)
def test_every_input_file_integer_past_the_digit_limit_is_named(capsys, tmp_path, argv, start):
    """A number past the digit limit is refused by its length, with its position where the
    format has one, never quoted and never with the interpreter's own message."""
    limit = len(LONG_INT) - 1
    err = _refused(capsys, _request(argv, LONG_INT, tmp_path))
    if start == "malformed rational":  # the coef string's length
        length = len(json.loads(argv[-1][1].replace("N", LONG_INT))["terms"][0]["coef"])
        assert err == f"input error: malformed rational of {length} characters"
    else:
        form = f"must be an integer of at most {limit} digits, got {limit + 1} characters"
        assert err == f"input error: {start} {form}"


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--k", "-1"),
        ("dim", "--mode", "star", "--k", "-1"),
        ("bounds", "--k", "-1"),
        ("trace", "--k", "-1"),
        ("trace", "--k", "-1", "--oracle"),
    ],
)
def test_negative_order_exit_2(capsys, poly_file, argv):
    """--k is a knob of least 0; dim --mode star reads no --k, so it names the unread flag."""
    code, out, err = run(capsys, *argv, poly_file("x1*x2 + x3"))
    assert (code, out) == (2, "")
    if "star" in argv:
        assert err == "input error: --k applies to --mode k only, not to --mode star\n"
    else:
        assert err == "input error: --k must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--k", str(10**20)),
        ("dim", "--k", str(2**63 - 1)),
        ("dim", "--k", str(10**9)),
        ("bounds", "--k", str(10**20)),
        ("trace", "--k", str(10**20), "--oracle"),
    ],
)
def test_order_past_the_support_size_is_empty(capsys, poly_file, argv):
    """No index set is drawn for an order above the degree, however large."""
    code, out, err = run(capsys, *argv, poly_file("x*y"), "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    if argv[0] == "dim":
        assert report["exact_dim"] == {"status": "computed", "value": 0}
    if argv[0] == "bounds":
        assert report["bounds"]["linearity_upper"] == 0
    if argv[0] == "trace":
        assert report["oracle"]["rank_b"] == 0
    assert report["trace"]["tr_b"] == "0/1"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_trace_samples_below_one_exit_2(capsys, poly_file, samples):
    code, out, err = run(capsys, "trace", "--k", "1", poly_file("x1*x2 + x3"), "--samples", samples)
    assert code == 2
    assert not out
    assert err == f"input error: --samples must be in 1..{cli.MAX_TRACE_SAMPLES}, got {samples}\n"


def test_trace_samples_checked_before_any_work(capsys, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the sample count was checked")

    monkeypatch.setattr(cli.trace, "explicit_B_oracle", no_oracle)
    argv = ("trace", "--k", "3", "--oracle", "--samples", "0", str(DATA / "multilinear40.poly"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: --samples must be in 1..{cli.MAX_TRACE_SAMPLES}, got 0\n"


def test_trace_samples_above_the_limit_exit_2_before_any_work(capsys, poly_file, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the sample count was checked")

    monkeypatch.setattr(cli, "trace_section", no_work)
    count = cli.MAX_TRACE_SAMPLES + 1
    argv = ("trace", "--k", "2", "--samples", str(count), str(DATA / "multilinear40.poly"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: --samples must be in 1..{cli.MAX_TRACE_SAMPLES}, got {count}\n"
    # the sample count alone is admitted, but not times the number of terms
    count = cli.MAX_TRACE_SAMPLES
    terms = cli.MAX_TRACE_TERM_SAMPLES // count + 1
    path = poly_file(" + ".join(f"x1^{i}*x2" for i in range(1, terms + 1)))
    code, out, err = run(capsys, "trace", "--k", "1", "--oracle", "--samples", str(count), path)
    assert (code, out) == (2, "")
    assert err == (
        f"input error: samples * terms must be at most {cli.MAX_TRACE_TERM_SAMPLES}, "
        f"got {count} * {terms}\n"
    )


def test_trace_samples_limit_admits_the_readme_count(capsys, poly_file, monkeypatch):
    counts = []

    def counting_estimate(support, k, samples, seed):
        counts.append(samples)
        return Fraction(1)

    monkeypatch.setattr(cli.trace, "semirandom_estimate", counting_estimate)
    path = poly_file("x1*x2 + x3")
    for samples in (2000, cli.MAX_TRACE_SAMPLES):
        assert run(capsys, "trace", "--k", "1", path, "--samples", str(samples))[0] == 0
    assert counts == [2000, cli.MAX_TRACE_SAMPLES]
    # 40 terms at the most samples: 160,000 term-samples
    argv = ("trace", "--k", "2", str(DATA / "multilinear40.poly"), "--samples", "4000")
    assert run(capsys, *argv)[0] == 0
    assert counts[-1] == 4000


@pytest.mark.parametrize(
    "argv", [("bounds", "--k", "2"), ("trace", "--k", "1"), ("dim", "--mode", "star")]
)
def test_huge_exponent_exit_3_before_any_factorial(capsys, poly_file, monkeypatch, argv):
    def no_factorial(n):
        raise AssertionError("a factorial was computed before the bit bound was checked")

    monkeypatch.setattr(polyio.math, "factorial", no_factorial)
    path = poly_file("x1^1099511627776 + x2^3 + x1*x2")
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (3, "")
    bits = 2**40 * 41 + 3 * 2 + 2
    assert err == (
        f"resource limit: scaled-bits limit exceeded: {bits} > {polyio.MAX_SCALED_BITS}\n"
    )


@pytest.mark.parametrize("mode", ["star", "plus"])
def test_dim_star_and_plus_refuse_k(capsys, mode):
    # The all-orders value of this input is 21: --k must not be dropped silently.
    argv = ("dim", "--mode", mode, "--k", "2", str(DATA / "rational.poly"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--k" in err


@pytest.mark.parametrize("mode", ["star", "plus"])
@pytest.mark.parametrize(
    "given",
    [
        "--order perm=1,2,3",
        "--order-dir min",
        "--timing",
        "--seed 0",
        "--budget 0",
        "--vertex-trials 0",
    ],
)
def test_dim_star_and_plus_refuse_bound_flags(capsys, mode, given):
    """star and plus draw no bound and time no stage: a --mode k flag is refused, not ignored."""
    flag, *value = given.split()
    argv = ("dim", "--mode", mode, str(DATA / "rational.poly"), flag, *value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {flag} applies to --mode k only, not to --mode {mode}\n"


@pytest.mark.parametrize(
    "command, knob, value",
    [
        ("dim", "max-rows", -1),
        ("dim", "max-cols", -1),
        ("dim", "elimination-budget", -1),
        ("dim", "budget", -1),
        ("bounds", "vertex-trials", -1),
        ("trace", "max-rows", -1),
        ("reduce", "max-cols", -2),
    ],
)
def test_knob_below_its_least_value_exit_2(capsys, poly_file, command, knob, value):
    argv = {
        "dim": ["dim", "--k", "1", poly_file("x1*x2 + x3")],
        "bounds": ["bounds", "--k", "1", poly_file("x1*x2 + x3")],
        "trace": ["trace", "--k", "1", poly_file("x1*x2 + x3"), "--oracle"],
        "reduce": ["reduce", "graph", poly_file("p 3\n1 2\n", "g.graph")],
    }[command]
    code, out, err = run(capsys, *argv, f"--{knob}", str(value))
    assert code == 2
    assert not out
    assert f"--{knob} must be " in err and err.endswith(f", got {value}\n")


# pdrank reads its knobs from flags only; setting this variable must change nothing.
CONFIG_VAR = "PDRANK_CONFIG"


@pytest.mark.parametrize("mode", ["star", "plus"])
@pytest.mark.parametrize("config", [{"budget": -1}, {"vertex-trials": 20000}])
def test_dim_star_and_plus_skip_the_config_keys_they_refuse_as_flags(
    capsys, tmp_path, monkeypatch, mode, config
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv(CONFIG_VAR, str(path))
    argv = ("dim", str(DATA / "rational.poly"), "--mode", mode, "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (DATA / f"rational.dim_{mode}.json").read_text()


@pytest.mark.parametrize(
    "config, argv, golden",
    [
        ('{"budget": 1}', ("dim", "--k", "2"), "rational.dim_k2.json"),
        ('{"seed": 5}', ("bounds", "--k", "2"), "rational.bounds_k2.json"),
        ("[1, 2]", ("dim", "--mode", "plus"), "rational.dim_plus.json"),
        (None, ("dim", "--mode", "plus"), "rational.dim_plus.json"),
    ],
)
def test_config_variable_is_not_read(capsys, tmp_path, monkeypatch, config, argv, golden):
    """A knob file, a malformed one, or a path to no file: the report is the golden's bytes."""
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config)
    monkeypatch.setenv(CONFIG_VAR, str(path))
    code, out, err = run(capsys, *argv, str(DATA / "rational.poly"), "--format", "json")
    assert (code, err) == (0, "")
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("flag", ["--max-rows", "--max-cols", "--elimination-budget"])
def test_trace_refuses_the_matrix_caps_without_oracle(capsys, flag):
    """Only the explicit oracle builds a capped matrix; trace alone assembles M uncapped."""
    argv = ("trace", "--k", "2", str(DATA / "rational.poly"), flag, "100000")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {flag} applies to trace only with --oracle\n"
    assert run(capsys, *argv, "--oracle")[0] == 0


def test_zero_caps_and_any_seed_are_accepted(capsys, poly_file):
    path = poly_file("x1*x2 + x3")
    assert run(capsys, "dim", "--k", "1", path, "--seed", "-7")[0] == 0
    assert run(capsys, "bounds", "--k", "1", path, "--vertex-trials", "0")[0] == 0
    assert run(capsys, "dim", "--k", "1", path, "--max-rows", "0")[0] == 3


def test_parse_error_exit_2(capsys, poly_file):
    path = poly_file("x1^-1")
    code, _, err = run(capsys, "dim", "--k", "1", path)
    assert code == 2
    assert "exponent" in err


def test_resource_cap_exit_3(capsys, poly_file):
    path = poly_file("x1^3*x2^3*x3^3")
    code, _, err = run(capsys, "dim", "--k", "3", path, "--max-rows", "2")
    assert code == 3
    assert "limit" in err


def test_invariant_violation_exit_4(capsys, poly_file, monkeypatch):
    # force a wrong exact value so the report self-check trips
    monkeypatch.setattr(cli.exact, "rank_exact", lambda *a, **kw: 0)
    path = poly_file("x1*x2 + x3")
    code, _, err = run(capsys, "dim", "--k", "1", path)
    assert code == 4
    assert "invariant" in err


@pytest.mark.parametrize(
    "bound, name, value",
    [
        ("upper_bound_linearity", "linearity_upper", 0),
        ("lower_bound_extremal", "extremal_lower", 10**6),
    ],
)
def test_each_side_of_the_sandwich_exit_4(capsys, poly_file, monkeypatch, bound, name, value):
    """An upper bound below the exact rank, or a lower bound above it, trips the self-check."""
    monkeypatch.setattr(cli.bounds_mod, bound, lambda *a, **kw: value)
    code, out, err = run(capsys, "dim", "--k", "1", poly_file("x1*x2 + x3"))
    assert (code, out) == (4, "")
    assert err.startswith("internal invariant violation: bound sandwich violated for k=1: ")
    assert f" {name}={value}" in err
    # bounds draws no exact rank, so it holds no bound against one
    assert run(capsys, "bounds", "--k", "1", poly_file("x1*x2 + x3"))[0] == 0


def test_options_read_only_the_knobs_of_their_subcommand():
    """A namespace attribute of a knob the subcommand does not declare never reaches Options."""
    args = argparse.Namespace(
        subcommand="reduce", max_rows="7", max_cols=None, seed="5", budget="3", k="x"
    )
    opts = cli.Options.resolve(args)
    assert (opts.max_rows, opts.seed, opts.budget) == (7, 0, trace.DEFAULT_TRIPLE_BUDGET)


def test_seeded_runs_byte_identical(capsys, poly_file, tmp_path):
    path = poly_file("x1*x2*x3 + x1^3 + 2*x2")
    graph = tmp_path / "g.edges"
    graph.write_text("p 4\n1 2\n3 4\n")
    invocations = [
        ("dim", "--k", "1", path, "--format", "json", "--seed", "9"),
        ("bounds", "--k", "2", path, "--format", "json", "--seed", "9"),
        ("trace", "--k", "1", path, "--samples", "10", "--seed", "9", "--format", "json"),
        ("reduce", "graph", str(graph), "--format", "json"),
        ("verify", "--exhaustive", "n=3", "--format", "json"),
        ("sym", "gap", "--fixed", "d=3", "k=1", "n=4..6", "--format", "json"),
        ("random-corpus", "--count", "3", "--seed", "9", "--format", "json"),
    ]
    for argv in invocations:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2, argv


def test_timing_flag_adds_timings(capsys, poly_file):
    """The shared order-k matrix has its own stage, apart from the trace and the bounds."""
    path = poly_file("x1*x2 + x3")
    stages = {"matrix", "trace", "bounds"}
    for command, extra in (("dim", {"exact"}), ("bounds", set())):
        _, out, _ = run(capsys, command, "--k", "1", path, "--format", "json", "--timing")
        assert set(json.loads(out)["timings_seconds"]) == stages | extra
        _, out2, _ = run(capsys, command, "--k", "1", path, "--format", "json")
        assert "timings_seconds" not in json.loads(out2)


def test_config_seed_reaches_dim_report(capsys, poly_file):
    argv = ("dim", "--k", "1", poly_file("x1*x2 + x3"), "--format", "json", "--seed", "5")
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert (code, report["seed"]) == (0, 5)
    assert "(seed 5)" in report["provenance"]["extremal_lower"]


# The flags of the knobs each subcommand's handler reads, and the flags of
# its own arguments; every subcommand also takes --format.
KNOB_FLAGS = {
    "dim": "--k --seed --max-rows --max-cols --elimination-budget --budget "
    "--vertex-trials --order --order-dir --timing",
    "bounds": "--k --seed --max-rows --max-cols --budget --vertex-trials --order --order-dir "
    "--timing",
    "trace": "--k --seed --max-rows --max-cols --elimination-budget --budget --samples",
    "reduce": "--max-rows --max-cols",
    "verify": "",
    "random-corpus": "--seed --count --max-vars --max-terms --max-degree",
}
OWN_FLAGS = {
    "dim": "--mode",
    "bounds": "",
    "trace": "--oracle",
    "reduce": "",
    "verify": "--exhaustive --check-basis",
    "random-corpus": "",
}
# Knob flags a subcommand no longer declares, as its handler never read them.
REFUSED_FLAGS = {
    "dim": "--threads",
    "bounds": "--elimination-budget --threads",
    "trace": "--vertex-trials --order --order-dir --timing --threads",
    "reduce": "--seed --budget --elimination-budget --threads",
    "verify": "--seed --max-rows --max-cols --elimination-budget --budget --threads",
    "random-corpus": "--max-rows --max-cols --elimination-budget --budget --threads",
}


@pytest.mark.parametrize("command", sorted(KNOB_FLAGS))
def test_subcommand_declares_only_the_flags_it_reads(command):
    (subs,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    declared = {flag for action in subs.choices[command]._actions for flag in action.option_strings}
    own = {"-h", "--help", "--format", *OWN_FLAGS[command].split()}
    assert declared == own | set(KNOB_FLAGS[command].split())


# Each Options field's admitted range, least..most; None is no limit.
KNOB_RANGES = {
    "k": (0, None),
    "seed": (None, None),
    "max_rows": (0, None),
    "max_cols": (0, None),
    "elimination_budget": (0, None),
    "budget": (0, None),
    "vertex_trials": (0, 10_000),
    "samples": (1, 4000),
    "count": (0, 10_000),
    "max_vars": (2, 16),
    "max_terms": (1, 16),
    "max_degree": (0, 16),
}


@pytest.mark.parametrize("knob", dataclasses.fields(cli.Options), ids=lambda knob: knob.name)
def test_knob_past_its_range_exit_2_in_one_form(capsys, knob):
    """Each integer flag is an Options field; one value past each limit is refused."""
    least, most = KNOB_RANGES[knob.name]
    assert (knob.metadata["least"], knob.metadata["most"]) == (least, most)
    command = knob.metadata["commands"][0]
    argv = {
        "dim": ["dim", "--k", "1", str(DATA / "rational.poly")],
        "trace": ["trace", "--k", "1", str(DATA / "rational.poly"), "--oracle"],
        "random-corpus": ["random-corpus"],
    }[command]
    rule = f">= {least}" if most is None else f"in {least}..{most}"
    flag = "--" + knob.name.replace("_", "-")
    past = ([] if least is None else [least - 1]) + ([] if most is None else [most + 1])
    for value in past:
        code, out, err = run(capsys, *argv, flag, str(value))
        assert (code, out) == (2, "")
        assert err == f"input error: {flag} must be {rule}, got {value}\n"


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in REFUSED_FLAGS.items() for flag in flags.split()],
)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, poly_file, command, flag):
    poly = poly_file("x1*x2 + x3")
    argv = {
        "dim": ["dim", "--k", "1", poly],
        "bounds": ["bounds", "--k", "1", poly],
        "trace": ["trace", "--k", "1", poly],
        "reduce": ["reduce", "graph", poly_file("p 3\n1 2\n", "g.edges")],
        "verify": ["verify", "--exhaustive", "n=3"],
        "random-corpus": ["random-corpus", "--count", "1"],
    }[command]
    value = {
        "--timing": [],
        "--order": ["perm=1,2,3"],
        "--order-dir": ["min"],
        "--threads": ["2"],
    }.get(flag, ["1"])
    code, out, err = run(capsys, *argv, flag, *value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


def test_text_format_renders(capsys, poly_file):
    path = poly_file("x1*x2 + x3")
    code, out, _ = run(capsys, "dim", "--k", "1", path)
    assert code == 0
    assert "exact_dim" in out and "value: 3" in out


def test_order_flag_restricts_candidates(capsys, poly_file):
    path = poly_file("x1^2 + x2^3")
    code, out, _ = run(
        capsys,
        "dim", "--k", "1", path,
        "--order", "perm=2,1", "--order-dir", "max",
        "--vertex-trials", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    # lex-max under permutation (x2, x1) picks x2^3; its profile at k=1 is 1
    assert report["bounds"]["extremal_lower"] == 1


@pytest.mark.parametrize("text", ["x1^2 + x2^3", "vars: x1 x2\n0"], ids=["poly", "zero"])
@pytest.mark.parametrize("command", ["dim", "bounds"])
def test_order_dir_without_order_exits_2(capsys, poly_file, command, text):
    """--order-dir picks a direction of --order's permutation; alone it is refused, not ignored."""
    code, out, err = run(capsys, command, "--k", "1", poly_file(text), "--order-dir", "max")
    assert (code, out) == (2, "")
    assert err == "input error: --order-dir applies only with --order perm=<1-based indices>\n"
    code, out, err = run(capsys, command, "--k", "1", poly_file(text), "--order", "perm=2,1")
    assert (code, err) == (0, "")


GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("command", ["bounds", "trace", "dim"])
@pytest.mark.parametrize("name", ["rational", "sym_4_8", "multilinear40"])
def test_reports_match_golden_bytes(capsys, name, command):
    """Reports stay byte-identical to the recorded ones (regenerate only on purpose)."""
    poly = GOLDEN_DIR / f"{name}.poly"
    code, out, _ = run(capsys, command, str(poly), "--k", "2", "--format", "json")
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.{command}_k2.json").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("reduce", "graph", str(GOLDEN_DIR / "k3.graph")), "k3.reduce.json"),
        (("reduce", "graph", str(GOLDEN_DIR / "graph6.graph")), "graph6.reduce.json"),
        (("reduce", "complex", str(GOLDEN_DIR / "pure.complex")), "pure.reduce.json"),
        (("reduce", "complex", str(GOLDEN_DIR / "empty.complex")), "empty.reduce.json"),
        (("verify", "--exhaustive", "n=4", "--check-basis"), "exhaustive_n4.verify.json"),
        (("dim", "--mode", "star", str(GOLDEN_DIR / "rational.poly")), "rational.dim_star.json"),
        (("dim", "--mode", "plus", str(GOLDEN_DIR / "rational.poly")), "rational.dim_plus.json"),
        (
            ("dim", "--mode", "star", str(GOLDEN_DIR / "multilinear40.poly")),
            "multilinear40.dim_star.json",
        ),
        (
            ("dim", "--mode", "plus", str(GOLDEN_DIR / "multilinear40.poly")),
            "multilinear40.dim_plus.json",
        ),
        (("verify", "--exhaustive", "n=5", "--check-basis"), "exhaustive_n5.verify.json"),
        (("verify", "--exhaustive", "n=6", "--check-basis"), "exhaustive_n6.verify.json"),
        (("dim", "--k", "2", str(GOLDEN_DIR / "rational.poly")), "rational.dim_k2.txt"),
        (("dim", "--mode", "star", str(GOLDEN_DIR / "rational.poly")), "rational.dim_star.txt"),
        (("bounds", "--k", "2", str(GOLDEN_DIR / "rational.poly")), "rational.bounds_k2.txt"),
        (("trace", "--k", "2", str(GOLDEN_DIR / "rational.poly")), "rational.trace_k2.txt"),
        (("reduce", "graph", str(GOLDEN_DIR / "k3.graph")), "k3.reduce.txt"),
        (("verify", "--exhaustive", "n=4", "--check-basis"), "exhaustive_n4.verify.txt"),
        (("verify", "--exhaustive", "n=7", "--check-basis"), "exhaustive_n7.verify.json"),
    ],
)
def test_reduction_reports_match_golden_bytes(capsys, argv, golden):
    """reduce/verify and dim --mode JSON reports, and text reports of each subcommand, stay
    byte-identical to the recorded ones."""
    fmt = "text" if golden.endswith(".txt") else "json"
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_trace_oracle_report_matches_golden_bytes(capsys):
    """30 variables at k = 10: the oracle builds M's 198 rows, not C(30, 10) of them."""
    argv = ("trace", "--k", "10", str(GOLDEN_DIR / "wide30.poly"), "--oracle", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "wide30.trace_oracle_k10.json").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ("random-corpus", "--count", "5", "--seed", "11"),
            "random_corpus_count5_seed11.json",
        ),
        (
            (
                "trace", "--k", "2", str(GOLDEN_DIR / "rational.poly"),
                "--samples", "20", "--seed", "3",
            ),
            "rational.trace_samples20_seed3_k2.json",
        ),
    ],
)
def test_sampler_and_corpus_reports_match_golden_bytes(capsys, argv, golden):
    """The corpus at its default sizes (8 vars, 10 terms, degree 4) and a seeded sample mean."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--fixed", "d=5", "k=2", "n=7..120", "--format", "json"), "sym_gap_fixed_d5_k2.json"),
        (
            ("--scaled", "kp=1", "dp=2", "np=5", "m=1..30", "--format", "csv"),
            "sym_gap_scaled_k1_d2_n5.csv",
        ),
        (("--fixed", "d=5", "k=2", "n=7..40", "--format", "text"), "sym_gap_fixed_d5_k2.txt"),
        (
            ("--fixed", "d=220", "k=110", f"n=330,{10**45}", "--format", "csv"),
            "sym_gap_long_d220_k110.csv",
        ),
    ],
)
def test_sym_gap_reports_match_golden_bytes(capsys, argv, golden):
    code, out, err = run(capsys, "sym", "gap", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden).read_text()


def _reference_gap_point(p: symmetric.SymGapPoint) -> dict:
    """A point as a dict of JSON values: ints, and fractions as str() and 12-digit Decimal."""

    def dec(q: Fraction) -> str:
        return str(report.DEC12.divide(Decimal(q.numerator), Decimal(q.denominator)))

    return {
        "n": p.n,
        "d": p.d,
        "k": p.k,
        "u": p.u,
        "v": str(p.v.numerator) + "/" + str(p.v.denominator),
        "v_dec": dec(p.v),
        "upper_v": str(p.upper_v.numerator) + "/" + str(p.upper_v.denominator),
        "upper_v_dec": dec(p.upper_v),
        "ratio": str(p.ratio.numerator) + "/" + str(p.ratio.denominator),
        "ratio_dec": dec(p.ratio),
    }


def _reference_gap_report(params: dict, fmt: str) -> str:
    """``sym gap`` output from the stdlib encoder, a plain csv join, or the text writer."""
    if "kp" in params:
        mode = "scaled"
        points = symmetric.sym_gap_series_scaled(
            int(params["kp"]),
            int(params["dp"]),
            int(params["np"]),
            cli._parse_range("m", params["m"]),
        )
    else:
        mode = "fixed"
        points = symmetric.sym_gap_series_fixed(
            int(params["d"]), int(params["k"]), cli._parse_range("n", params["n"])
        )
    rows = [_reference_gap_point(p) for p in points]
    if fmt == "csv":
        lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"command": "sym-gap", "mode": mode, "params": params, "points": rows}
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with contextlib.redirect_stdout(io.StringIO()) as text:
        report._emit_text(payload)
    return text.getvalue()


def _random_gap_params(seed: int) -> dict:
    rng = random.Random(seed)
    if seed % 2:
        dp = rng.randint(2, 5)
        np_ = rng.randint(2 * dp + 1, 2 * dp + 6)
        kp = rng.randint(1, dp - 1)
        return {"kp": str(kp), "dp": str(dp), "np": str(np_), "m": f"1..{rng.randint(1, 40)}"}
    d = rng.randint(2, 12)
    k = rng.randint(1, d - 1)
    # from the least n up to n of some hundred bits (the long cases pass SPLIT_BITS)
    lo, span = rng.choice(
        [(d + k, 30), (rng.randint(d + k, 10**6), 30), (2 ** rng.randint(20, 900), 3)]
    )
    return {"d": str(d), "k": str(k), "n": f"{lo}..{lo + rng.randint(0, span)}"}


LONG_GAP_PARAMS = [{"d": "220", "k": "110", "n": str(n)} for n in (10**45, 330, 329)]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "params",
    [_random_gap_params(seed) for seed in range(12)] + LONG_GAP_PARAMS,
    ids=[f"random{seed}" for seed in range(12)] + ["n=10^45", "n=330", "n=329"],
)
def test_sym_gap_rows_match_the_dict_writers(capsys, params, fmt):
    """Rows filled into json_text's layout write what the per-point dicts wrote."""
    mode = "--scaled" if "kp" in params else "--fixed"
    argv = ("sym", "gap", mode, *(f"{key}={value}" for key, value in params.items()))
    code, out, err = run(capsys, *argv, "--format", fmt)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _reference_gap_report(dict(sorted(params.items())), fmt)
    except ValueError as refusal:
        assert (code, out, err) == (2, "", f"input error: {refusal}\n")
        return
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out == expected


def test_long_gap_cases_take_both_paths_of_every_cell():
    """n = 10^45 sends every cell through exact_str/int_decimal; n = 330 through the fast path.

    A side past the digit limit makes str() raise, so exact_str writes it;
    a side past SPLIT_BITS bits makes frac_dec convert through int_decimal.
    """

    def sides(p):
        return [p.u] + [side for q in p[4:] for side in (q.numerator, q.denominator)]

    limit = sys.get_int_max_str_digits()
    long_sides = sides(symmetric._gap_point(10**45, 220, 110))
    short_sides = sides(symmetric._gap_point(330, 220, 110))
    assert all(len(_digits(side)) > limit for side in long_sides)
    assert all(side.bit_length() > report.SPLIT_BITS for side in long_sides)
    assert all(side.bit_length() <= report.SPLIT_BITS for side in short_sides)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sym_gap_under_a_lowered_digit_limit(capsys, fmt):
    """Sides of at most SPLIT_BITS bits, yet past a lowered digit limit, are written in full."""
    params = {"d": "60", "k": "30", "n": "1000000000000"}
    u, *pairs = symmetric._gap_ints(10**12, 60, 30)
    sides = [u] + [side for pair in pairs for side in pair]
    assert all(side.bit_length() <= report.SPLIT_BITS for side in sides)
    assert max(len(_digits(side)) for side in sides) > 640
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        argv = ("sym", "gap", "--fixed", *(f"{key}={value}" for key, value in params.items()))
        code, out, err = run(capsys, *argv, "--format", fmt)
        sys.set_int_max_str_digits(0)
        expected = _reference_gap_report(params, fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize(
    "q", [Fraction(3**1400, 2**11), Fraction(2**11, 3**1400)], ids=["num", "den"]
)
def test_frac_str_falls_back_under_a_lowered_digit_limit(q):
    """A side of at most SPLIT_BITS bits, yet past the digit limit, is still written in full."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # 3^1400 has 2219 bits and 668 digits
        text = report.frac_str(q)
        dec = report.frac_dec(q)
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(q.numerator.bit_length(), q.denominator.bit_length()) <= report.SPLIT_BITS
    assert text == f"{q.numerator}/{q.denominator}"
    assert dec == str(report.DEC12.divide(Decimal(q.numerator), Decimal(q.denominator)))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sym_gap_work_per_request(capsys, monkeypatch, fmt):
    """One _binoms read per point, and json_text calls that do not grow with the series."""
    calls = {"binoms": 0, "json_text": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(symmetric, "_binoms", counted("binoms", symmetric._binoms))
    monkeypatch.setattr(report, "json_text", counted("json_text", report.json_text))
    per_request = []
    for hi, points in ((10, 4), (200, 194)):
        calls.update(binoms=0, json_text=0)
        argv = ("sym", "gap", "--fixed", "d=5", "k=2", f"n=7..{hi}", "--format", fmt)
        code, _, _ = run(capsys, *argv)
        assert (code, calls["binoms"]) == (0, points)
        per_request.append(calls["json_text"])
    # json: the report, its params and points, and the one point layout
    assert per_request == ([4, 4] if fmt == "json" else [0, 0])


@pytest.mark.parametrize(
    "argv, key",
    [
        (("sym", "gap", "--fixed", "d=5", "k=2", "d=6", "n=9..10"), "d"),
        (("sym", "gap", "--fixed", "d=5", "k=2", "n=7..8", "n=9"), "n"),
        (("sym", "gap", "--scaled", "kp=1", "dp=2", "np=5", "m=1", "m=2"), "m"),
        (("verify", "--exhaustive", "n=4", "n=3"), "n"),
    ],
)
def test_repeated_parameter_key_exits_2(capsys, argv, key):
    """A key given twice is refused, not overwritten by its last value."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert f"key {key!r} given twice" in err


# Exact values past the interpreter's int-to-str digit limit (4300 digits).


def _digits(n: int) -> str:
    return str(Decimal(n))


@pytest.mark.parametrize(
    "command, text, tr_b, fmt",
    [
        # scaled coefficients 2000! and 3!: Tr(B) at k=1 is 2*(2000!)^2 + 1*6^2
        ("dim", "x1^2000*x2 + x2^3", 2 * math.factorial(2000) ** 2 + 36, "json"),
        ("dim", "x1^2000*x2 + x2^3", 2 * math.factorial(2000) ** 2 + 36, "text"),
        ("bounds", "x1^3000 + x2", math.factorial(3000) ** 2 + 1, "json"),
        ("trace", "x1^3000 + x2", math.factorial(3000) ** 2 + 1, "text"),
    ],
    ids=["dim-json", "dim-text", "bounds-json", "trace-text"],
)
def test_long_exact_values_are_written_in_full(capsys, poly_file, command, text, tr_b, fmt):
    assert len(_digits(tr_b)) > sys.get_int_max_str_digits() > 0
    code, out, err = run(capsys, command, "--k", "1", poly_file(text), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["trace"]["tr_b"] == f"{_digits(tr_b)}/1"
    else:
        assert f"  tr_b: {_digits(tr_b)}/1\n" in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sym_gap_writes_a_long_rank_in_full(capsys, fmt):
    n = 10**45
    u = math.comb(n, 110)  # 4772 digits
    argv = ("sym", "gap", "--fixed", "d=220", "k=110", f"n={n}", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if fmt == "json":
        (point,) = json.loads(out, parse_int=Decimal)["points"]
        assert point["u"] == Decimal(u)
        v = symmetric.sym_proxy(n, 220, 110)
        assert point["v"] == f"{_digits(v.numerator)}/{_digits(v.denominator)}"
    else:
        assert out.split("\n")[1].split(",")[3] == _digits(u)


SPLIT_SIZES = sorted({m * report.SPLIT_BITS + d for m in (1, 2, 3, 5, 8) for d in (-1, 0, 1)})


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from(SPLIT_SIZES),
    shape=st.sampled_from(["random", "ones", "power", "nines"]),
    seed=st.integers(0, 2**32),
    negative=st.booleans(),
)
def test_int_decimal_matches_str(bits, shape, seed, negative):
    """The split conversion gives str()'s digits around every split size."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        n = {
            "random": random.Random(seed).getrandbits(bits) | 1 << (bits - 1),
            "ones": (1 << bits) - 1,
            "power": 1 << bits,
            "nines": 10 ** len(str(1 << bits)) - 1,
        }[shape]
        n = -n if negative else n
        assert str(report.int_decimal(n)) == str(n)
        assert report.exact_str(n) == str(n)
        # Both sides long (for most sizes), then one side at most SPLIT_BITS
        # bits and the other as long as n, both ways round.
        rng = random.Random(seed + 1)
        half = rng.getrandbits(bits // 2) + 1
        short = rng.getrandbits(report.SPLIT_BITS) | 1
        for q in (Fraction(n, half), Fraction(n, short), Fraction(short, n)):
            expected = report.DEC12.divide(Decimal(q.numerator), Decimal(q.denominator))
            assert report.frac_dec(q) == str(expected)
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_ints_in_json_and_text_reports(capsys):
    payload = {"long": 10**5000, "short": "5", "list": [3, 10**4400, True, None]}
    text = report.json_text(payload)
    assert text.startswith('{\n  "list": [\n    3,\n    1' + "0" * 4400 + ",\n    true")
    assert '"long": 1' + "0" * 5000 + ",\n" in text
    assert text.endswith('"short": "5"\n}')
    report._emit_text(payload)
    assert capsys.readouterr().out == (
        f"list: [4 entries]\n  3\n  1{'0' * 4400}\n  True\n  None\n"
        f"long: 1{'0' * 5000}\nshort: 5\n"
    )


# Keys and strings with quotes, backslashes, control and non-ASCII characters.
json_strings = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\U0001d11e'), max_size=6)
json_leaves = (
    json_strings
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_json_text_matches_the_stdlib_encoder(value):
    assert report.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class Text(str):
    pass


class Count(int):
    pass


@pytest.mark.parametrize(
    "value",
    [
        True,
        [False, True],
        {"flag": True, "off": [False]},
        None,
        [None, {"a": None}],
        -0.0,
        1e300,
        [-0.0, {"x": 1e300}],
        [[], {}, [[]], [{}]],
        {"a": [], "b": {}, "c": {"d": []}},
        Text("sub\nclass"),
        Count(7),
        [Text("a"), Count(-3), {"k": Text("v"), "n": Count(2**80)}],
    ],
)
def test_json_text_matches_the_stdlib_encoder_on_edge_values(value):
    """Booleans stay true/false though bool is an int; subclasses of str and int are written."""
    assert report.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(1, 2),
        (1, 2),
        {1, 2},
        [(1,)],
        {"a": Fraction(1, 3)},
        {1: "one"},
        {"a": [{None: 1}]},
        {"a": {1, 2}},
    ],
)
def test_json_text_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        report.json_text(value)


NINES = "9" * 4300


@pytest.mark.parametrize(
    "params, message",
    [
        (("--fixed", "d=5", "k=2", "n=9..7"), "empty range '9..7'"),
        (("--scaled", "kp=1", "dp=2", "np=5", "m=3..1"), "empty range '3..1'"),
        (("--fixed", "d=5", "k=2", "n=7..100000000"), "at most 20000 points, got 99999994"),
        (("--fixed", "d=5", "k=2", "n=1..20001"), "at most 20000 points, got 20001"),
        # m has no cap of its own: the point-size cap refuses its point from m=820
        pytest.param(
            ("--scaled", "kp=1", "dp=2", "np=5", "m=2400"),
            "gap point too large: d*b*(d+b) = 323500800 > 35000000, "
            "where d = 4800 and b = bit_length(n) = 14",
            id="scaled-m-2400-point-too-large",
        ),
        pytest.param(
            ("--scaled", "kp=1", "dp=2", "np=5", "m=820"),
            "d*b*(d+b) = 35241960 > 35000000",
            id="scaled-m-820-point-too-large",
        ),
        (
            ("--fixed", "d=10400", "k=5200", "n=15600"),
            "gap point too large: d*b*(d+b) = 1516278400 > 35000000, "
            "where d = 10400 and b = bit_length(n) = 14",
        ),
        (("--fixed", "d=2600", "k=1300", "n=3900..3901"), "= 81494400 > 35000000"),
        (("--scaled", "kp=5", "dp=10", "np=21", "m=1..300"), "= 117507000 > 35000000"),
        (
            ("--fixed", "d=1000", "k=999", "n=4294967294..4294967296"),
            "gap series too large: d*b*(d+b) summed over 3 points = 100137000 > 40000000",
        ),
        (
            ("--scaled", "kp=1", "dp=2", "np=5", "m=1..300"),
            "gap series too large: d*b*(d+b) summed over 300 points = 394727252 > 40000000",
        ),
        (
            ("--fixed", "d=8", "k=3", "n=11..20000"),
            "summed over 19990 points = 46025160 > 40000000",
        ),
        # ranges past the C ssize_t, and two ends of 4300 digits, whose count has 4301
        (
            ("--fixed", "d=5", "k=2", f"n=7..{10**29}"),
            f"at most 20000 points, got {10**29 - 6}",
        ),
        (
            ("--scaled", "kp=1", "dp=2", "np=5", f"m=1..{10**30}"),
            f"at most 20000 points, got {10**30}",
        ),
        pytest.param(
            ("--fixed", "d=5", "k=2", f"n=-{NINES}..{NINES}"),
            f"at most 20000 points, got 1{NINES}\n",
            id="n-count-past-the-digit-limit",
        ),
        pytest.param(
            ("--scaled", "kp=1", "dp=2", "np=5", f"m=-{NINES}..{NINES}"),
            f"at most 20000 points, got 1{NINES}\n",
            id="m-count-past-the-digit-limit",
        ),
        # Each shape is checked before the series' size: n=3899 < d + k is malformed.
        pytest.param(
            ("--fixed", "d=2600", "k=1300", "n=3899..3900"),
            "need n >= d + k for the upper bound (got n=3899)",
            id="malformed-before-too-large",
        ),
    ],
)
def test_sym_gap_series_limits_exit_2_before_any_point(capsys, monkeypatch, params, message):
    def no_point(*args):
        raise AssertionError("a point was computed before the series was checked")

    monkeypatch.setattr(cli.symmetric, "_gap_point", no_point)
    monkeypatch.setattr(cli.symmetric, "_gap_ints", no_point)
    code, out, err = run(capsys, "sym", "gap", *params, "--format", "json")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "params, points",
    [
        (("--fixed", "d=5", "k=2", "n=7..2000"), 1994),
        (("--scaled", "kp=1", "dp=2", "np=5", "m=1..30"), 30),
        (("--scaled", "kp=1", "dp=2", "np=5", "m=300"), 1),
        (("--fixed", "d=6", "k=3", "n=9..1208"), 1200),
        (("--fixed", "d=3", "k=1", "n=4..200"), 197),
        (("--scaled", "kp=1", "dp=3", "np=8", "m=1..3"), 3),
        # m has no cap of its own: m=819 is the largest the point-size cap admits here
        (("--scaled", "kp=1", "dp=2", "np=5", "m=1,301"), 2),
        (("--scaled", "kp=1", "dp=2", "np=5", "m=819"), 1),
    ],
)
def test_sym_gap_limits_admit_long_series(capsys, params, points):
    code, out, _ = run(capsys, "sym", "gap", *params, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["points"]) == points


def test_sym_gap_point_size_bound_is_d_b_times_d_plus_b(capsys, monkeypatch):
    # d = 5: n = 2047 has b = 11, size 5*11*16 = 880; n = 2048 has b = 12, size 1020.
    monkeypatch.setattr(cli, "MAX_GAP_POINT_SIZE", 880)
    code, out, _ = run(capsys, "sym", "gap", "--fixed", "d=5", "k=2", "n=2047", "--format", "json")
    assert code == 0
    code, out, err = run(capsys, "sym", "gap", "--fixed", "d=5", "k=2", "n=2047..2048")
    assert (code, out) == (2, "")
    assert "d*b*(d+b) = 1020 > 880" in err
    # --scaled sizes its largest point: m = 10 gives d = 20, n = 50 (b = 6), 20*6*26 = 3120.
    monkeypatch.setattr(cli, "MAX_GAP_POINT_SIZE", 3119)
    code, _, err = run(capsys, "sym", "gap", "--scaled", "kp=1", "dp=2", "np=5", "m=1..10")
    assert code == 2
    assert "= 3120 > 3119" in err


def test_verify_reads_no_config(capsys, tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2]")
    monkeypatch.setenv(CONFIG_VAR, str(config))
    code, out, err = run(capsys, "verify", "--exhaustive", "n=3", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["all_hold"] is True


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--count", -1, "--count must be in 0..10000, got -1"),
        ("--count", 10_001, "--count must be in 0..10000, got 10001"),
        ("--max-vars", 1, "--max-vars must be in 2..16, got 1"),
        ("--max-vars", 17, "--max-vars must be in 2..16, got 17"),
        ("--max-terms", 0, "--max-terms must be in 1..16, got 0"),
        ("--max-terms", 17, "--max-terms must be in 1..16, got 17"),
        ("--max-degree", -1, "--max-degree must be in 0..16, got -1"),
        ("--max-degree", 17, "--max-degree must be in 0..16, got 17"),
    ],
)
def test_random_corpus_sizes_out_of_range_exit_2(capsys, flag, value, message):
    code, out, err = run(capsys, "random-corpus", flag, str(value), "--format", "json")
    assert (code, out) == (2, "")
    assert message in err


def test_random_corpus_admits_its_size_bounds(capsys):
    sizes = ("--max-vars", "2", "--max-terms", "1", "--max-degree", "0")
    code, out, _ = run(capsys, "random-corpus", "--count", "0", *sizes, "--format", "json")
    assert (code, json.loads(out)["polys"]) == (0, [])
    sizes = ("--max-vars", "16", "--max-terms", "16", "--max-degree", "16")
    code, out, _ = run(capsys, "random-corpus", "--count", "3", *sizes, "--format", "json")
    assert (code, len(json.loads(out)["polys"])) == (0, 3)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("graph", "p 25\n", "vertices limit exceeded: 25 > 24"),
        ("complex", "ground 25\n1 2\n", "ground limit exceeded: 25 > 24"),
    ],
)
def test_reduce_ground_cap_exit_3(capsys, tmp_path, kind, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, "reduce", kind, str(path), "--format", "json")
    assert (code, out) == (3, "")
    assert message in err


def test_reduce_complete_graph_hits_the_row_cap_before_counting(capsys, tmp_path, monkeypatch):
    """K_20's dim_+ matrix passes the row cap; the 2^n face and independent-set counts never run."""

    def refuse(*_):
        raise AssertionError("counted before the capped matrix")

    monkeypatch.setattr(reductions, "_face_marks", refuse)
    monkeypatch.setattr(reductions, "count_independent_sets", refuse)
    edges = "".join(f"{u} {v}\n" for u in range(1, 21) for v in range(u + 1, 21))
    path = tmp_path / "k20.graph"
    path.write_text("p 20\n" + edges)
    code, out, err = run(capsys, "reduce", "graph", str(path), "--format", "json")
    assert (code, out) == (3, "")
    assert "rows limit exceeded" in err


@pytest.mark.parametrize("flag, size", [("--max-rows", 47), ("--max-cols", 120)])
def test_reduce_caps_act_on_the_x_block(capsys, flag, size):
    """graph6's X-row block, the one matrix ``reduce`` builds, has 47 rows
    and 120 columns: a cap at its size passes, one below refuses."""
    argv = ("reduce", "graph", str(DATA / "graph6.graph"), "--format", "json")
    code, out, err = run(capsys, *argv, flag, str(size))
    assert (code, out, err) == (0, (DATA / "graph6.reduce.json").read_text(), "")
    what = flag.removeprefix("--max-")
    message = f"resource limit: {what} limit exceeded: {size} > {size - 1}\n"
    assert run(capsys, *argv, flag, str(size - 1)) == (3, "", message)
