"""End-to-end command-line checks: output formats, exit codes, and
reproducibility of emitted tables."""
import json
import math
import os

import pytest

from semicap.cli import main

RLL_FREE = """\
[system]
alphabet = 2
constraint = rll
k = 1
p = 0
"""

RLL_SOFT = """\
[system]
alphabet = 2
constraint = rll
k = 2
p = 0.05
eps = 0, 0.01

[solver]
restarts = 5
trials = 40
"""

FORBIDDEN = """\
[system]
alphabet = 2
constraint = forbidden
forbidden = 11
"""


def soft_with_dimension(d):
    return RLL_SOFT.replace("constraint = rll", f"dimension = {d}\nconstraint = rll")


def write(tmp_path, text, name="sys.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_count_known_row(tmp_path):
    cfg = write(tmp_path, RLL_FREE)
    rc, text = run(["count", "--config", cfg, "--n", "5"], tmp_path)
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# semicap count config_sha256=")
    assert "seed=0" in lines[0]
    assert lines[1] == "n,count,rate"
    n, count, rate = lines[2].split(",")
    assert (n, count) == ("5", "11")
    # rates are printed shortest-round-trip: parsing gives the float back
    assert float(rate) == math.log2(11) / 5
    assert repr(float(rate)) == rate


def test_output_bytes_reproducible(tmp_path):
    cfg = write(tmp_path, RLL_SOFT)
    args = ["capacity", "--config", cfg]
    rc1, a = run(args, tmp_path, "a.csv")
    rc2, b = run(args, tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert a == b


def test_stdout_matches_file(tmp_path, capsys):
    cfg = write(tmp_path, RLL_FREE)
    rc = main(["count", "--config", cfg, "--n-range", "4:8:2"])
    assert rc == 0
    streamed = capsys.readouterr().out
    _, filed = run(["count", "--config", cfg, "--n-range", "4:8:2"], tmp_path)
    assert streamed == filed


def test_jsonl_agrees_with_csv(tmp_path):
    cfg = write(tmp_path, RLL_FREE)
    rc, text = run(["count", "--config", cfg, "--n", "6",
                    "--format", "jsonl"], tmp_path)
    assert rc == 0
    lines = [json.loads(s) for s in text.strip().splitlines()]
    assert lines[0]["command"] == "count"
    assert len(lines[0]["config_sha256"]) == 64
    assert lines[0]["seed"] == 0
    assert lines[1]["n"] == 6
    assert lines[1]["count"] == 18
    _, csv_text = run(["count", "--config", cfg, "--n", "6"], tmp_path, "c.csv")
    csv_rate = float(csv_text.strip().splitlines()[-1].split(",")[-1])
    assert lines[1]["rate"] == csv_rate


def test_capacity_dump(tmp_path):
    cfg = write(tmp_path, RLL_FREE)
    rc, text = run(["capacity", "--config", cfg, "--format", "jsonl"], tmp_path)
    assert rc == 0
    rows = [json.loads(s) for s in text.strip().splitlines()[1:]]
    by_field = {}
    dist = {}
    for r in rows:
        if r.get("field") == "optimizer":
            dist[r["pattern"]] = r["value"]
        else:
            by_field[r["field"]] = r["value"]
    assert by_field["converged"] == 1
    assert by_field["capacity"] == pytest.approx(
        math.log2((1 + math.sqrt(5)) / 2), abs=1e-5)
    assert set(dist) == {"00", "01", "10", "11"}
    assert dist["11"] <= 1e-9
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_indentropy_records(tmp_path):
    cfg = write(tmp_path, RLL_SOFT)
    rc, text = run(["indentropy", "--config", cfg, "--n-range", "3:4",
                    "--format", "jsonl"], tmp_path)
    assert rc == 0
    rows = [json.loads(s) for s in text.strip().splitlines()[1:]]
    kinds = {r["record"] for r in rows}
    assert {"hind", "best", "lower_bound", "lift_rate_error"} <= kinds
    best = next(r for r in rows if r["record"] == "best")
    assert best["value"] == pytest.approx(0.94944, abs=5e-4)
    assert best["feasible"] == 1
    err = next(r for r in rows if r["record"] == "lift_rate_error")
    assert err["value"] <= 1e-12


def test_curve_grid_and_linspace(tmp_path):
    rc, text = run(["curve", "--grid", "0.05,0.2"], tmp_path)
    assert rc == 0
    rows = [s.split(",") for s in text.strip().splitlines()[2:]]
    assert [r[0] for r in rows] == ["0.05", "0.2"]
    assert float(rows[1][1]) > float(rows[0][1])
    rc, text = run(["curve", "--linspace", "0.01:0.2:5"], tmp_path, "l.csv")
    assert rc == 0
    vals = [float(s.split(",")[1]) for s in text.strip().splitlines()[2:]]
    assert len(vals) == 5
    assert vals == sorted(vals)  # the curve rises with the cap


def test_report_bundle(tmp_path):
    cfg = write(tmp_path, RLL_SOFT)
    rc, text = run(["report", "--config", cfg, "--dim", "2",
                    "--format", "jsonl"], tmp_path)
    assert rc == 0
    rows = [json.loads(s) for s in text.strip().splitlines()[1:]]
    quantities = {r["name"]: r["value"] for r in rows
                  if r.get("record") == "quantity"}
    assert quantities["hind"] <= quantities["capacity_1d"] + 1e-9
    assert quantities["best_lower_bound"] >= quantities["hind"] - 1e-9
    edges = [r for r in rows if r.get("record") == "edge"]
    assert edges and all(r["value"] == 1 for r in edges)
    conc = [r for r in rows if r.get("record") == "concentration"]
    assert conc and all(0.0 <= r["value"] <= 1.0 for r in conc)


def test_cyclic_vs_noncyclic_conventions(tmp_path):
    cfg = write(tmp_path, FORBIDDEN)
    rc, text = run(["cyclic-vs-noncyclic", "--config", cfg,
                    "--n-range", "4:7", "--format", "jsonl"], tmp_path)
    assert rc == 0
    rows = [json.loads(s) for s in text.strip().splitlines()]
    body = [r for r in rows if "cyclic" in r]
    assert [(r["cyclic"], r["noncyclic"]) for r in body] \
        == [(7, 8), (11, 13), (18, 21), (29, 34)]
    assert rows[-1]["note"] == "gap_decreasing=False"
    rc, text = run(["cyclic-vs-noncyclic", "--config", cfg,
                    "--n-range", "4:7", "--convention", "halfopen"],
                   tmp_path, "p.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "# gap_decreasing=True"
    assert [int(s.split(",")[3]) for s in lines[2:-1]] == [10, 16, 26, 42]


@pytest.mark.parametrize("system", [
    RLL_FREE,
    "[system]\nconstraint = linear\nwindow = 2\nlinear = 0 0 0 1 <= 0\n",
], ids=["rll p=0", "linear zero-bound row"])
def test_cyclic_vs_noncyclic_reads_what_rows_mean(tmp_path, system):
    # any spelling that only forbids 11 counts as the forbidden-kind config
    rc, text = run(["cyclic-vs-noncyclic", "--config", write(tmp_path, system),
                    "--n-range", "4:7"], tmp_path)
    assert rc == 0
    _, ref = run(["cyclic-vs-noncyclic", "--config", write(tmp_path, FORBIDDEN, "f.ini"),
                  "--n-range", "4:7"], tmp_path, "f.txt")
    assert text.splitlines()[1:] == ref.splitlines()[1:]


def test_linear_kind_matches_rll(tmp_path):
    linear = """\
[system]
alphabet = 2
constraint = linear
window = 2
linear =
  0 0 0 1 <= 0
"""
    a = write(tmp_path, RLL_FREE, "a.ini")
    b = write(tmp_path, linear, "b.ini")
    _, ta = run(["count", "--config", a, "--n-range", "4:9"], tmp_path, "a.csv")
    _, tb = run(["count", "--config", b, "--n-range", "4:9"], tmp_path, "b.csv")
    # same system, so identical rows (headers differ by config hash)
    assert ta.splitlines()[1:] == tb.splitlines()[1:]


def test_seed_flag_lands_in_header(tmp_path):
    cfg = write(tmp_path, RLL_FREE)
    rc, text = run(["count", "--config", cfg, "--n", "4", "--seed", "9"],
                   tmp_path)
    assert rc == 0
    assert "seed=9" in text.splitlines()[0]


def test_threads_option_removed(tmp_path, monkeypatch, capsys):
    # counting runs in one process: there is no --threads flag, and
    # SEMICAP_THREADS is not read
    cfg = write(tmp_path, RLL_FREE)
    assert main(["count", "--config", cfg, "--n", "4", "--threads", "2"]) == 2
    capsys.readouterr()
    _, plain = run(["count", "--config", cfg, "--n-range", "4:8"],
                   tmp_path, "p.csv")
    monkeypatch.setenv("SEMICAP_THREADS", "abc")
    rc, env = run(["count", "--config", cfg, "--n-range", "4:8"],
                  tmp_path, "e.csv")
    assert rc == 0
    assert env == plain


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_on_bad_usage(tmp_path, capsys):
    cfg = write(tmp_path, RLL_FREE)
    assert main(["no-such-command"]) == 2
    assert main(["count"]) == 2                       # --config is required
    assert main(["count", "--config", cfg]) == 2      # no sides given
    assert main(["count", "--config", str(tmp_path / "missing.ini"),
                 "--n", "4"]) == 2
    capsys.readouterr()


def test_exit_on_config_errors(tmp_path, capsys):
    empty = write(tmp_path, "", "empty.ini")
    assert main(["count", "--config", empty, "--n", "4"]) == 2
    unknown = write(tmp_path, RLL_FREE + "colour = blue\n", "unk.ini")
    assert main(["count", "--config", unknown, "--n", "4"]) == 2
    # a key from another constraint kind is rejected, not ignored
    mixed = write(tmp_path, RLL_FREE + "forbidden = 11\n", "mix.ini")
    assert main(["count", "--config", mixed, "--n", "4"]) == 2
    # so is an unknown [solver] key
    solver = write(tmp_path, RLL_FREE + "\n[solver]\nmomentum = 0.9\n", "sol.ini")
    assert main(["capacity", "--config", solver]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("solver, command", [
    ("trials = 0", "report"),
    ("seed = -3", "indentropy"),
    ("seed = -3", "report"),
    ("restarts = -1", "report"),
    ("max_iter = 0", "capacity"),
    ("gap_tol = 0", "capacity"),
    ("gap_tol = -1e-9", "capacity"),
])
def test_exit_on_out_of_range_solver_values(tmp_path, capsys, solver, command):
    cfg = write(tmp_path, RLL_FREE + f"\n[solver]\n{solver}\n")
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "indentropy", "report", "curve"])
def test_exit_on_negative_seed_flag(tmp_path, capsys, command):
    args = [command, "--seed", "-3"]
    if command != "curve":
        args += ["--config", write(tmp_path, RLL_FREE)]
    if command in ("count", "indentropy"):
        args += ["--n", "3"]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("report", []),
    ("cyclic-vs-noncyclic", ["--n", "4"]),
])
def test_exit_on_dimension_below_one(tmp_path, capsys, command, extra):
    cfg = write(tmp_path, FORBIDDEN)
    assert main([command, "--config", cfg, "--dim", "0", *extra]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "indentropy"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_exit_on_non_finite_eps_flag(tmp_path, capsys, command, eps):
    cfg = write(tmp_path, RLL_SOFT)
    assert main([command, "--config", cfg, "--n", "3", "--eps", eps]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "indentropy", "report"])
@pytest.mark.parametrize("eps", ["nan", "0, inf"])
def test_exit_on_non_finite_eps_in_config(tmp_path, capsys, command, eps):
    cfg = write(tmp_path, RLL_FREE + f"eps = {eps}\n")
    args = [command, "--config", cfg] + (["--n", "3"] if command != "report" else [])
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "capacity", "indentropy"])
@pytest.mark.parametrize("system", [
    "constraint = rll\nk = 1\np = inf",
    "constraint = rll\nk = 1\np = nan",
    "constraint = linear\nwindow = 1\nlinear = 0 1 <= inf",
])
def test_exit_on_non_finite_constraint_data(tmp_path, capsys, command, system):
    cfg = write(tmp_path, f"[system]\nalphabet = 2\n{system}\n")
    extra = {"count": ["--n", "3"], "indentropy": ["--n", "2"]}.get(command, [])
    assert main([command, "--config", cfg, *extra]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_capacity_needs_one_dimension(tmp_path, capsys):
    cfg = write(tmp_path, soft_with_dimension(2), "d2.ini")
    assert main(["capacity", "--config", cfg]) == 2
    capsys.readouterr()


def test_exit_cyclic_needs_hard_rows(tmp_path, capsys):
    cfg = write(tmp_path, RLL_SOFT)
    assert main(["cyclic-vs-noncyclic", "--config", cfg, "--n", "4"]) == 2
    capsys.readouterr()


def test_exit_size_guard(tmp_path, capsys):
    cfg = write(tmp_path, soft_with_dimension(3), "big.ini")
    assert main(["count", "--config", cfg, "--n", "30"]) == 3
    capsys.readouterr()


def test_exit_nonconvergence_still_reports(tmp_path):
    # four dual iterations stop short of the certificate
    stall = """\
[system]
alphabet = 2
constraint = rll
k = 2
p = 0.05

[solver]
max_iter = 4
"""
    cfg = write(tmp_path, stall, "stall.ini")
    out = tmp_path / "stall.csv"
    rc = main(["capacity", "--config", cfg, "--out", str(out)])
    assert rc == 4
    text = out.read_text()
    fields = dict(
        line.split(",")[0::2] for line in text.strip().splitlines()[2:]
        if line.split(",")[0] != "optimizer")
    assert fields["converged"] == "0"
    # the best value found is still emitted and is nearly there
    assert float(fields["capacity"]) == pytest.approx(0.976, abs=2e-3)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["count", "--help"]) == 0
    capsys.readouterr()
