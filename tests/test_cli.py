"""CLI tests. Most call ampo.cli.main(argv) in this process through the
`cli` fixture; the process-level behaviour (the `python -m ampo.cli`
entry point, its exit status, and byte-identical output across separate
processes) is checked by the tests that use `run_cli`, and by
criterion 12 in test_acceptance.py."""

import ast
import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ampo import ContractParams, LatticeConfig, MarketParams, validate_checks
import ampo.cli
from ampo.cli import main

BASE = ["--spot", "100", "--strike", "100", "--rate", "0.05", "--vol", "0.5"]


def run_cli(*args):
    """Run `python -m ampo.cli` in a fresh interpreter, with AMPO_OUTPUT unset."""
    env = dict(os.environ)
    env.pop("AMPO_OUTPUT", None)
    return subprocess.run(
        [sys.executable, "-m", "ampo.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def cli(capsys, monkeypatch):
    """Run ampo.cli.main(argv) in this process, with AMPO_OUTPUT unset.

    Returns returncode, stdout and stderr like subprocess.run does.
    """
    monkeypatch.delenv("AMPO_OUTPUT", raising=False)

    def run(*args):
        code = main(list(args))
        out = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out.out, stderr=out.err)

    return run


def test_price_put(cli):
    res = cli("price", "--kind", "put", "--amort", "0.1", *BASE, "--output", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["premium"] == 25.0
    assert out["boundary"] == 50.0
    assert out["regime"] == "continuation"
    assert out["alpha_c"] == 1.6


def test_price_exercise_region(cli):
    res = cli(
        "price", "--kind", "call", "--amort", "0.1", "--spot", "300",
        "--strike", "100", "--rate", "0.05", "--vol", "0.5", "--output", "json",
    )
    out = json.loads(res.stdout)
    assert out["regime"] == "exercise_now"
    assert out["premium"] == 200.0


def test_price_invalid_vol_exits_2():
    res = run_cli("price", "--kind", "put", "--amort", "0.1", "--vol", "0")
    assert res.returncode == 2
    assert "vol must be > 0" in res.stderr


def test_price_call_tiny_amort_at_zero_rate(cli):
    # alpha_c rounds to 1.0 here, but alpha_c - 1 = 8e-300 is resolved
    res = cli("price", "--kind", "call", "--amort", "1e-300", "--rate", "0", "--output", "json")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert math.isfinite(out["premium"]) and math.isfinite(out["boundary"])
    assert out["premium"] > 0.0


def test_price_missing_amort_exits_2(cli):
    res = cli("price", "--kind", "put")
    assert res.returncode == 2
    assert "amort" in res.stderr


def test_greeks_json(cli):
    res = cli("greeks", "--kind", "put", "--amort", "0.1", *BASE, "--output", "json")
    out = json.loads(res.stdout)
    assert out["delta"] == -0.25
    assert out["gamma"] == 0.005
    assert out["theta_explicit"] == 0.0
    assert out["theta_economic"] == -2.5


@pytest.mark.parametrize("kind, spot", [("put", "1e160"), ("call", "1e-170")])
def test_greeks_extreme_spot_finite(cli, kind, spot):
    # Gamma divides V by S twice: S^2 overflows at 1e160 and underflows
    # to 0.0 at 1e-170
    res = cli("greeks", "--kind", kind, "--amort", "0.1", "--spot", spot, "--output", "json")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    out = json.loads(res.stdout)
    for name in ("delta", "gamma", "theta_explicit", "theta_economic", "vega"):
        assert math.isfinite(out[name]), (name, out[name])


def test_price_where_the_log_moneyness_underflows_prints_the_intrinsic_value():
    # gap*S/(alpha*K) underflows to 0; the put is deep in its exercise region
    res = run_cli("price", "--kind", "put", "--spot", "1e-300", "--strike", "1e300", "--amort", "0.1")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    out = dict(line.split(None, 1) for line in res.stdout.splitlines())
    assert (out["premium"], out["regime"]) == ("1e+300", "exercise_now")


def test_price_next_to_the_boundary_at_tiny_vol_prints_one_row():
    # at vol 1.6e-21 the log-moneyness of this spot on the boundary rounds up
    # by an ulp, and alpha*L = 1.4e19*2.2e-16 would overflow exp; the premium
    # is K/gap there, as value matching gives
    from ampo.pricing import _evaluate

    spot = strike = 0.2788563601778613
    vol, q = 1.6268149269322304e-21, 0.0002779811518416014
    res = run_cli(
        "price", "--kind", "call", "--spot", repr(spot), "--rate", "0", "--vol", repr(vol),
        "--strike", repr(strike), "--amort", repr(q), "--output", "csv",
    )
    assert (res.returncode, res.stderr) == (0, "")
    header, *rows = res.stdout.splitlines()
    assert len(rows) == 1
    out = dict(zip(header.split(","), rows[0].split(",")))
    f = _evaluate(MarketParams(spot, 0.0, vol), ContractParams(strike, q, "call"))
    assert out["regime"] == "continuation"
    assert float(out["premium"]) == strike / f.gap


def test_statics_json(cli):
    res = cli("statics", "--kind", "put", "--amort", "0.1", *BASE, "--output", "json")
    out = json.loads(res.stdout)
    assert out["d_premium_dq"] < 0
    assert out["d_boundary_dq"] > 0
    assert out["d2_premium_dsigma_dq"] < 0
    assert "dalphabar_dsigma" in out


def test_examples_1_csv(cli):
    res = cli("examples", "1", "--q-max", "1", "--q-steps", "6", "--output", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "q,effective_maturity,effective_notional"
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) > 0.65


def test_examples_2_csv(cli):
    res = cli("examples", "2", "--q-max", "1", "--q-steps", "6", "--output", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "q,gamma_ratio,theta_ratio"
    last = lines[-1].split(",")
    assert float(last[1]) < 0.80
    assert float(last[2]) < 0.75


def test_examples_3_csv(cli):
    res = cli("examples", "3", "--q-steps", "30", "--output", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == (
        "q,call_positional_vega,put_positional_vega,straddle_positional_vega"
    )
    assert len(lines) == 31


def test_optimize_put(cli):
    res = cli(
        "optimize", "--kind", "put", *BASE, "--budget", "100", "--output", "json"
    )
    out = json.loads(res.stdout)
    assert abs(out["q_star"] - 0.1426) < 0.005
    assert out["boundary_maximum"] is False


def test_validate_pass(cli):
    res = cli("validate", "--kind", "put", "--amort", "0.1", *BASE)
    assert res.returncode == 0


def test_validate_perturbed_fails(cli):
    res = cli(
        "validate", "--kind", "put", "--amort", "0.1", *BASE, "--perturb", "1.01"
    )
    assert res.returncode == 1
    assert "pde_residual" in res.stderr


def test_validate_underresolved_fails(cli):
    res = cli(
        "validate", "--kind", "put", "--amort", "0.1", *BASE,
        "--steps", "200", "--tolerance", "1e-4",
    )
    assert res.returncode == 1
    assert "lattice" in res.stderr


@pytest.mark.parametrize("kind", ["put", "call"])
def test_validate_large_amort_not_refused_on_rate(cli, kind):
    # (2r+q) - (r+q) is off by more than 1e-12 at q = 1e4 through rounding
    # alone; the lattice must run. The spot step of the finite differences
    # shrinks with the exponent (alpha ~ 283 here), so they pass too.
    res = cli("validate", "--kind", kind, "--amort", "1e4", "--output", "json")
    assert res.returncode == 0, res.stderr
    assert "inconsistent" not in res.stderr
    checks = {c["check"]: c for c in json.loads(res.stdout)["rows"]}
    assert checks["lattice_price"]["passed"] and checks["lattice_boundary"]["passed"]
    assert all(c["passed"] for c in checks.values()), checks


@pytest.mark.parametrize(
    "args, spot, perturb, steps, tolerance",
    [
        ((), 100.0, 1.0, 4000, 5e-3),
        (("--perturb", "1.01"), 100.0, 1.01, 4000, 5e-3),
        (("--steps", "200", "--tolerance", "1e-4"), 100.0, 1.0, 200, 1e-4),
        (("--spot", "40"), 40.0, 1.0, 4000, 5e-3),
    ],
)
def test_validate_prints_the_library_checks(cli, args, spot, perturb, steps, tolerance):
    res = cli("validate", "--kind", "put", "--amort", "0.1", *args, "--output", "json")
    m = MarketParams(spot=spot, rate=0.05, vol=0.5)
    c = ContractParams(strike=100.0, amort=0.1, kind="put")
    want = validate_checks(m, c, LatticeConfig(steps=steps, convergence=tolerance), perturb)
    assert json.loads(res.stdout)["rows"] == want
    assert res.returncode == (0 if all(r["passed"] for r in want) else 1)


def test_cli_imports_no_private_ampo_name():
    # the CLI only parses and prints: it reaches the library through public names
    tree = ast.parse(Path(ampo.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ampo")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_module_level_function_and_class_has_a_use():
    # each is exported, read somewhere else in src/ampo, or an entry point
    trees = [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(ampo.cli.__file__).parent.glob("*.py"))
    ]

    def reads(tree):
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)
        )

    read = sum((reads(tree) for _, tree in trees), collections.Counter())
    kept = {"main", "build_parser", "__getattr__", "__dir__"}
    kept.update(name for names in ampo._EXPORTS.values() for name in names)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in kept
        and read[node.name] == reads(node)[node.name]
    ]
    assert unused == []


def test_every_imported_name_is_read_where_it_is_imported():
    # an import a module never reads is a leftover of a deleted use
    unread = []
    for path in sorted(Path(ampo.cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert unread == []


def test_sources_parse_as_the_oldest_python_pyproject_allows():
    # requires-python = ">=3.10": no syntax from a later version
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    paths = sorted(Path(ampo.cli.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_csv_golden_stability():
    a = run_cli("examples", "1", "--q-steps", "8", "--output", "csv")
    b = run_cli("examples", "1", "--q-steps", "8", "--output", "csv")
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_json_round_trip():
    first = run_cli(
        "price", "--kind", "put", "--amort", "0.1", *BASE, "--output", "json"
    )
    out = json.loads(first.stdout)
    second = run_cli(
        "price",
        "--kind", out["kind"],
        "--spot", repr(out["spot"]),
        "--strike", repr(out["strike"]),
        "--rate", repr(out["rate"]),
        "--vol", repr(out["vol"]),
        "--amort", repr(out["amort"]),
        "--output", "json",
    )
    assert second.stdout == first.stdout


def test_config_file_merging(cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# example config\nkind = put\namort = 0.1\nspot = 100\n"
        "strike = 100\nrate = 0.05\nvol = 0.5\noutput = json\n"
    )
    res = cli("price", "--config", str(cfg))
    out = json.loads(res.stdout)
    assert out["premium"] == 25.0
    # explicit flags win over the config file
    res = cli("price", "--config", str(cfg), "--amort", "0.2", "--output", "json")
    out = json.loads(res.stdout)
    assert out["amort"] == 0.2
    assert out["premium"] != 25.0


def test_config_unknown_key(cli, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    res = cli("price", "--kind", "put", "--amort", "0.1", "--config", str(cfg))
    assert res.returncode == 2
    assert "frobnicate" in res.stderr


def test_env_output_default(cli, monkeypatch):
    monkeypatch.setenv("AMPO_OUTPUT", "json")
    res = cli("price", "--kind", "put", "--amort", "0.1", *BASE)
    json.loads(res.stdout)  # parses => env var selected json


def test_env_output_overridden_by_flag(cli, monkeypatch):
    monkeypatch.setenv("AMPO_OUTPUT", "json")
    res = cli("price", "--kind", "put", "--amort", "0.1", *BASE, "--output", "csv")
    assert res.stdout.splitlines()[0].startswith("kind,")


def _assert_argument_error(res, needle):
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]


def test_config_missing_file_exits_2(cli, tmp_path):
    missing = str(tmp_path / "missing.cfg")
    _assert_argument_error(cli("price", "--config", missing), "missing.cfg")


def test_config_non_numeric_value_exits_2(cli, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = put\namort = 0.1\nvol = abc\n")
    _assert_argument_error(cli("price", "--config", str(cfg)), "'abc'")


def test_config_straddle_kind_for_price_exits_2(cli, tmp_path):
    cfg = tmp_path / "straddle.cfg"
    cfg.write_text("kind = straddle\namort = 0.1\n")
    _assert_argument_error(cli("price", "--config", str(cfg)), "'straddle'")


def test_flag_not_a_number_exits_2(cli):
    res = cli("price", "--kind", "put", "--amort", "abc")
    _assert_argument_error(res, "argument --amort: invalid float value: 'abc'")


def test_flag_not_a_number_exits_2_in_a_fresh_interpreter():
    # the parser's error() override, in a real `python -m ampo.cli` process
    res = run_cli("price", "--kind", "put", "--amort", "abc")
    _assert_argument_error(res, "'abc'")


def test_config_key_not_a_flag_of_the_command_exits_2(cli, tmp_path):
    # a config key follows the flag rule: price takes no --budget
    cfg = tmp_path / "price.cfg"
    cfg.write_text("kind = put\namort = 0.1\nbudget = 3\n")
    res = cli("price", "--config", str(cfg))
    _assert_argument_error(res, "unrecognized arguments: --budget=3")


def test_config_unknown_key_with_a_space_in_its_value_exits_2(cli, tmp_path):
    # argparse alone reads such a token as the `example` positional
    cfg = tmp_path / "examples.cfg"
    cfg.write_text("a = b c\n")
    res = cli("examples", "1", "--config", str(cfg))
    _assert_argument_error(res, "unrecognized arguments: --a=b c")


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_examples_3_non_finite_budget_exits_2(cli, budget):
    res = cli("examples", "3", "--budget", budget, "--output", "csv")
    _assert_argument_error(res, f"budget must be finite, got {budget}")


def test_examples_3_near_max_budget_keeps_finite_rows(cli):
    # budget * vega passes the float range before the division by the
    # premium; the rows are the budget-100 rows scaled by 1e305
    rows = {}
    for budget in ("100", "1e307"):
        res = cli("examples", "3", "--q-steps", "2", "--budget", budget, "--output", "csv")
        assert res.returncode == 0
        rows[budget] = [[float(x) for x in line.split(",")] for line in res.stdout.splitlines()[1:]]
    assert len(rows["1e307"]) == 2
    for small, big in zip(rows["100"], rows["1e307"]):
        assert big[0] == small[0]
        for v100, v in zip(small[1:], big[1:]):
            assert math.isfinite(v)
            assert v == pytest.approx(1e305 * v100, rel=1e-14)


def test_optimize_near_max_budget_finds_the_budget_100_optimum(cli):
    out = {}
    for budget in ("100", "1e307"):
        res = cli("optimize", "--kind", "put", "--budget", budget, "--output", "json")
        assert res.returncode == 0
        out[budget] = json.loads(res.stdout)
    big, small = out["1e307"], out["100"]
    assert big["boundary_maximum"] is False and big["multimodal"] is False
    assert abs(big["q_star"] - small["q_star"]) <= 1e-5
    assert abs(small["q_star"] - 0.142613) <= 1e-5
    assert big["positional_vega_at_star"] == pytest.approx(
        1e305 * small["positional_vega_at_star"], rel=1e-14
    )


def test_optimize_overflowing_budget_exits_3(cli):
    res = cli("optimize", "--kind", "put", "--budget", "1e308")
    assert res.returncode == 3
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: positional Vega overflows a float at budget 1e+308")


@pytest.mark.parametrize(
    "vol, rate", [("1e-80", "0.05"), ("1e-170", "0.05"), ("1e-170", "0"), ("1e-200", "0.05"), ("1e-200", "0")]
)
@pytest.mark.parametrize("sub", ["price", "greeks", "statics"])
def test_extreme_vol_exits_2_naming_the_vol(cli, sub, vol, rate):
    res = cli(sub, "--kind", "put", "--amort", "0.1", "--vol", vol, "--rate", rate)
    _assert_argument_error(res, f"vol {float(vol)!r} out of range")


def test_extreme_vol_in_a_fresh_process_prints_no_traceback():
    res = run_cli("price", "--kind", "put", "--amort", "0.1", "--vol", "1e-80")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: vol 1e-80 out of range at rate 0.05: the exponent solve overflows or underflows a float"
    ]


def test_optimize_infinite_q_max_exits_2(cli):
    res = cli("optimize", "--kind", "put", "--q-max", "inf")
    _assert_argument_error(res, "q_range must satisfy 0 < lo < hi")


def test_env_output_invalid_exits_2(cli, monkeypatch):
    monkeypatch.setenv("AMPO_OUTPUT", "xml")
    res = cli("price", "--kind", "put", "--amort", "0.1")
    _assert_argument_error(res, "argument --output: invalid choice: 'xml'")


def test_output_precedence_env_config_flag(cli, monkeypatch, tmp_path):
    # defaults < AMPO_OUTPUT < config file < command-line flags
    monkeypatch.setenv("AMPO_OUTPUT", "json")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text("output = csv\n")
    res = cli("price", "--kind", "put", "--amort", "0.1", "--config", str(cfg))
    assert res.stdout.splitlines()[0].startswith("kind,")
    res = cli("price", "--kind", "put", "--amort", "0.1", "--config", str(cfg), "--output", "table")
    assert res.stdout.splitlines()[0].split() == ["kind", "put"]


def test_examples_2_underflowing_dated_gamma_exits_3(cli):
    # the dated Gamma underflows to 0, or to a subnormal (5.6e-316 at
    # q = 1e5, T = 3.7e-6) that overflows the ratio: both are refused
    cases = [
        (("--vol", "1e-4", "--q-steps", "2"), "q = 0.05", "underflows to 0"),
        (("--vol", "1e-4", "--rate", "2", "--q-min", "1e5", "--q-max", "1e5",
          "--q-steps", "1", "--output", "csv"), "q = 100000.0", "is 5.63"),
    ]
    for args, at, size in cases:
        res = cli("examples", "2", *args)
        assert res.returncode == 3
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert at in lines[0] and f"dated call Gamma {size}" in lines[0]


def test_examples_where_spot_over_strike_underflows_print_no_traceback(cli):
    # S/K = 1e-400 underflows to 0, where log(S/K) raised "math domain error";
    # the dated call takes log S - log K. The AmPO premium underflows to 0,
    # where the dated premium is 0 over a range of T, so no T is a solution
    # and the bracket's lower end, T = 1e-9, is not one: both studies refuse
    # the premium by name
    args = ("--spot", "1e-200", "--strike", "1e200", "--q-steps", "2", "--output", "csv")
    for example in ("1", "2"):
        res = cli("examples", example, *args)
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == (
            "error: AmPO call premium underflows to 0.0 at q = 0.05: no maturity matches it\n"
        )


def test_validate_refuses_a_nan_tolerance_or_fractional_steps(cli):
    # a nan tolerance used to switch the halving check off and exit 0
    for args in (("--tolerance", "nan"), ("--tolerance", "inf"), ("--steps", "2.5")):
        res = cli("validate", "--kind", "put", "--amort", "0.1", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_statics_beyond_boundary_exits_2(cli):
    # spot 300 lies beyond the call boundary 266.67: a request error
    res = cli("statics", "--kind", "call", "--amort", "0.1", "--spot", "300")
    _assert_argument_error(res, "boundary")


_QUOTE_HELP = """\
usage: ampo {name} [-h] [--spot SPOT] [--strike STRIKE] [--rate RATE]
{pad}[--vol VOL] [--kind {{call,put}}] [--amort AMORT]
{pad}[--output {{json,csv,table}}] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --spot SPOT
  --strike STRIKE
  --rate RATE
  --vol VOL
  --kind {{call,put}}
  --amort AMORT
  --output {{json,csv,table}}
  --config CONFIG
"""

HELP = {
    (): """\
usage: ampo [-h] {price,greeks,statics,examples,optimize,validate} ...

Amortizing perpetual option analytics

positional arguments:
  {price,greeks,statics,examples,optimize,validate}
    price               premium, boundary, regime, exponents
    greeks              analytic Greeks
    statics             q-derivatives and mixed partial
    examples            curve data for the case studies
    optimize            best amortization rate per strategy
    validate            oracle and consistency checks

options:
  -h, --help            show this help message and exit
""",
    **{
        (name,): _QUOTE_HELP.format(name=name, pad=" " * len(f"usage: ampo {name} "))
        for name in ("price", "greeks", "statics")
    },
    ("examples",): """\
usage: ampo examples [-h] [--spot SPOT] [--strike STRIKE] [--rate RATE]
                     [--vol VOL] [--output {json,csv,table}] [--config CONFIG]
                     [--q-min Q_MIN] [--q-max Q_MAX] [--q-steps Q_STEPS]
                     [--budget BUDGET]
                     {1,2,3}

positional arguments:
  {1,2,3}

options:
  -h, --help            show this help message and exit
  --spot SPOT
  --strike STRIKE
  --rate RATE
  --vol VOL
  --output {json,csv,table}
  --config CONFIG
  --q-min Q_MIN
  --q-max Q_MAX
  --q-steps Q_STEPS
  --budget BUDGET
""",
    ("optimize",): """\
usage: ampo optimize [-h] [--spot SPOT] [--strike STRIKE] [--rate RATE]
                     [--vol VOL] [--output {json,csv,table}] [--config CONFIG]
                     [--kind {call,put,straddle}] [--q-min Q_MIN]
                     [--q-max Q_MAX] [--q-steps Q_STEPS] [--budget BUDGET]

options:
  -h, --help            show this help message and exit
  --spot SPOT
  --strike STRIKE
  --rate RATE
  --vol VOL
  --output {json,csv,table}
  --config CONFIG
  --kind {call,put,straddle}
  --q-min Q_MIN
  --q-max Q_MAX
  --q-steps Q_STEPS
  --budget BUDGET
""",
    ("validate",): """\
usage: ampo validate [-h] [--spot SPOT] [--strike STRIKE] [--rate RATE]
                     [--vol VOL] [--kind {call,put}] [--amort AMORT]
                     [--output {json,csv,table}] [--config CONFIG]
                     [--steps STEPS] [--tolerance TOLERANCE]
                     [--perturb PERTURB]

options:
  -h, --help            show this help message and exit
  --spot SPOT
  --strike STRIKE
  --rate RATE
  --vol VOL
  --kind {call,put}
  --amort AMORT
  --output {json,csv,table}
  --config CONFIG
  --steps STEPS
  --tolerance TOLERANCE
  --perturb PERTURB
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "ampo")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    # the flags of each subcommand, their order and their choices
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (HELP[command], "")


_MARKET_DEFAULTS = [("spot", 100.0), ("strike", 100.0), ("rate", 0.05), ("vol", 0.5)]
_QUOTE_DEFAULTS = [*_MARKET_DEFAULTS, ("kind", None), ("amort", None), ("output", "table"), ("config", None)]
_Q_DEFAULTS = [("q_max", 1.0), ("q_steps", None), ("budget", 100.0)]


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["price"], _QUOTE_DEFAULTS),
        (["greeks"], _QUOTE_DEFAULTS),
        (["statics"], _QUOTE_DEFAULTS),
        (["examples", "1"], [("example", 1), *_MARKET_DEFAULTS, ("output", "table"), ("config", None),
                             ("q_min", None), *_Q_DEFAULTS]),
        (["optimize"], [*_MARKET_DEFAULTS, ("output", "table"), ("config", None), ("kind", None),
                        ("q_min", 0.001), ("q_max", 1.0), ("q_steps", 201), ("budget", 100.0)]),
        (["validate"], [*_QUOTE_DEFAULTS, ("steps", 4000), ("tolerance", 5e-3), ("perturb", 1.0)]),
    ],
)
def test_parser_defaults_are_pinned(argv, defaults):
    args = ampo.cli.build_parser().parse_args(argv)
    assert list(vars(args).items()) == [("command", argv[0]), *defaults]


def test_import_loads_neither_scipy_nor_numpy():
    # the package has no runtime dependency: neither importing it nor
    # running the lattice loads numpy or scipy
    code = (
        "import sys, ampo, ampo.cli\n"
        "m = ampo.MarketParams(spot=100.0, rate=0.05, vol=0.5)\n"
        "c = ampo.ContractParams(strike=100.0, amort=0.1, kind=ampo.OptionKind.PUT)\n"
        "rep = ampo.lattice_price(ampo.to_equivalent_perpetual(c, m), m, ampo.LatticeConfig(steps=200))\n"
        "assert 'scipy' not in sys.modules and 'numpy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))\n"
        "assert rep.rel_error < 0.05, rep\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _loaded_after(argv):
    """The ampo submodules, and json, dataclasses and inspect, that main(argv)
    loads in a fresh interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, ampo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert ampo.cli.main({argv!r}) == 0\n"
        "loaded = set(sys.modules) - before\n"
        "print(' '.join(sorted(m for m in loaded if m in ('json', 'dataclasses', 'inspect') or m.startswith('ampo.'))))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["price", "--kind", "put", "--amort", "0.1"], {"pricing"}),
        (["greeks", "--kind", "put", "--amort", "0.1"], {"pricing", "greeks"}),
        (["statics", "--kind", "put", "--amort", "0.1"], {"pricing", "statics"}),
        (["examples", "1", "--q-steps", "3", "--output", "csv"], {"pricing", "greeks", "analysis"}),
        (["optimize", "--kind", "put"], {"pricing", "greeks", "analysis"}),
        (["validate", "--kind", "put", "--amort", "0.1", "--steps", "400"], {"pricing", "greeks", "oracle"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, modules):
    want = {"ampo.cli", "ampo.params"} | {f"ampo.{name}" for name in modules}
    loaded = _loaded_after(argv)
    # records keep the dataclass protocol without importing dataclasses (or inspect, which it imports)
    assert not loaded & {"dataclasses", "inspect"}
    assert loaded == want


def test_records_keep_the_dataclass_protocol_when_dataclasses_comes_after_them():
    code = (
        "import sys, ampo\n"
        "m = ampo.MarketParams(spot=100.0, rate=0.05, vol=0.5)\n"
        "rep = ampo.statics_report(m, ampo.ContractParams(strike=100.0, amort=0.1, kind='put'))\n"
        "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "import dataclasses\n"
        "assert all(dataclasses.is_dataclass(r) and dataclasses.is_dataclass(type(r)) for r in (m, rep))\n"
        "assert [f.name for f in dataclasses.fields(m)] == ['spot', 'rate', 'vol']\n"
        "assert type(vars(ampo.MarketParams)['__dataclass_fields__']) is dict\n"
        "assert [f.name for f in dataclasses.fields(rep)][-1] == 'intermediates'\n"
        "assert dataclasses.replace(m, spot=90.0) == ampo.MarketParams(90.0, 0.05, 0.5)\n"
        "assert dataclasses.replace(rep) == rep\n"
        "assert dataclasses.asdict(m) == {'spot': 100.0, 'rate': 0.05, 'vol': 0.5}\n"
        "assert dataclasses.astuple(m) == (100.0, 0.05, 0.5)\n"
        "f = rep.intermediates\n"
        "assert dataclasses.asdict(rep)['intermediates'] == {k: getattr(f, k) for k in f.__match_args__}\n"
        "assert dataclasses.astuple(rep)[-1] == tuple(getattr(f, k) for k in f.__match_args__)\n"
        "assert ampo.MarketParams.__dataclass_params__.frozen\n"
        "try:\n"
        "    m.spot = 1.0\n"
        "except dataclasses.FrozenInstanceError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('assignment accepted')\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_package_names_resolve_on_first_use():
    code = (
        "import importlib, sys, ampo\n"
        "assert not [m for m in sys.modules if m.startswith('ampo.')], sys.modules\n"
        "for name in ampo.__all__:\n"
        "    obj = getattr(ampo, name)\n"
        "    assert obj.__module__.startswith('ampo.'), name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "    assert vars(ampo)[name] is obj, name\n"
        "assert set(ampo.__all__) <= set(dir(ampo))\n"
        "try:\n"
        "    ampo.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('ampo.no_such_name resolved')\n"
        "from ampo import oracle\n"
        "assert oracle is sys.modules['ampo.oracle'] and ampo.oracle is oracle\n"
        "star = {}\n"
        "exec('from ampo import *', star)\n"
        "assert sorted(k for k in star if k != '__builtins__') == sorted(ampo.__all__)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_cli_output_matches_the_golden_corpus(cli):
    # stdout and the exit code of each invocation in tests/golden/index.json,
    # byte for byte; tools/golden.py regenerates the corpus
    index = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
    assert len(index) == 25
    for name, entry in index.items():
        run = cli(*entry["argv"])
        want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        assert (run.returncode, run.stdout) == (entry["exit"], want), name
