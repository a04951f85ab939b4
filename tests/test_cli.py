"""Command-line interface: reports, exit codes, determinism, config."""

import argparse
import json
import sys
from pathlib import Path

import pytest

from pdrank import cli, polyio

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


def test_dim_k0_any_nonzero_poly_is_one(capsys, poly_file):
    path = poly_file("3*x1^2 - x2 + 1/7")
    code, out, _ = run(capsys, "dim", "--k", "0", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["exact_dim"]["value"] == 1


def test_dim_zero_polynomial_flagged(capsys, poly_file):
    path = poly_file("x1 - x1")
    code, out, _ = run(capsys, "dim", "--k", "1", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["exact_dim"] == {"status": "zero-poly", "value": 0}


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
    assert report["exact_dim"]["status"] == "not-requested"
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


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "--exhaustive", "n=3", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["graphs_checked"] == 8
    assert summary["all_hold"] is True


def test_verify_exhaustive_accepts_n7(capsys, monkeypatch):
    seen = []

    def stub(n, check_basis, threads):
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


@pytest.mark.parametrize("trials", [-5, 10001])
def test_vertex_trials_out_of_range_in_config_exit_2(
    capsys, poly_file, tmp_path, monkeypatch, trials
):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"vertex-trials": trials}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    code, out, err = run(capsys, "bounds", "--k", "1", poly_file("x1 + x2"))
    assert code == 2
    assert not out
    assert "vertex-trials" in err


def test_config_knob_applies_only_where_read(capsys, poly_file, tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"vertex-trials": 20000}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    code, out, _ = run(capsys, "verify", "--exhaustive", "n=3", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_hold"] is True
    code, _, err = run(capsys, "bounds", "--k", "1", poly_file("x1 + x2"))
    assert code == 2
    assert "vertex-trials" in err


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
    path = poly_file("x1*x2 + x3")
    _, out, _ = run(capsys, "dim", "--k", "1", path, "--format", "json", "--timing")
    assert "timings_seconds" in json.loads(out)
    _, out2, _ = run(capsys, "dim", "--k", "1", path, "--format", "json")
    assert "timings_seconds" not in json.loads(out2)


def test_config_file_env(capsys, poly_file, tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max-rows": 2}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    path = poly_file("x1^3*x2^3*x3^3")
    code, _, _ = run(capsys, "dim", "--k", "3", path)
    assert code == 3  # cap from config applies
    # explicit flag overrides the config file
    code2, _, _ = run(capsys, "dim", "--k", "3", path, "--max-rows", "10000")
    assert code2 == 0


def test_config_seed_reaches_dim_report(capsys, poly_file, tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    code, out, _ = run(capsys, "dim", "--k", "1", poly_file("x1*x2 + x3"), "--format", "json")
    report = json.loads(out)
    assert (code, report["seed"]) == (0, 5)
    assert "(seed 5)" in report["provenance"]["extremal_lower"]


# The flags of the knobs each subcommand's handler reads, and the flags of
# its own arguments; every subcommand also takes --format.
KNOB_FLAGS = {
    "dim": "--seed --max-rows --max-cols --elimination-budget --budget "
    "--vertex-trials --order --order-dir --timing",
    "bounds": "--seed --max-rows --max-cols --budget --vertex-trials --order --order-dir --timing",
    "trace": "--seed --max-rows --max-cols --elimination-budget --budget",
    "reduce": "--max-rows --max-cols --elimination-budget",
    "verify": "--threads",
    "random-corpus": "--seed",
}
OWN_FLAGS = {
    "dim": "--k --mode",
    "bounds": "--k",
    "trace": "--k --oracle --samples",
    "reduce": "",
    "verify": "--exhaustive --check-basis",
    "random-corpus": "--count --max-vars --max-terms --max-degree",
}
# Knob flags a subcommand no longer declares, as its handler never read them.
REFUSED_FLAGS = {
    "dim": "--threads",
    "bounds": "--elimination-budget --threads",
    "trace": "--vertex-trials --order --order-dir --timing --threads",
    "reduce": "--seed --budget --threads",
    "verify": "--seed --max-rows --max-cols --elimination-budget --budget",
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
    value = {"--timing": [], "--order": ["perm=1,2,3"], "--order-dir": ["min"]}.get(flag, ["1"])
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
    ],
)
def test_reduction_reports_match_golden_bytes(capsys, argv, golden):
    """reduce/verify and dim --mode reports stay byte-identical to the recorded ones."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()
