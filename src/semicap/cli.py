"""Command-line front end.

Subcommands
-----------
count                admissible-word counts and rates over a range of sides
capacity             1-D capacity with the optimising distribution
indentropy           product-measure entropy bounds over (eps, side) grids
curve                the closed two-site curve for the window-2 cap family
report               inequality-chain report plus a concentration study
cyclic-vs-noncyclic  wrapped vs non-wrapped counting comparison

Every table goes to stdout (or --out PATH) as CSV: one comment line
``# semicap <subcommand> config_sha256=<hash> seed=<n>`` naming the exact
input, a header row, then data rows with floats printed in shortest
round-trip form — reparsing a table reproduces the values bit for bit.
``--format jsonl`` mirrors the same records as JSON lines.

``--seed`` takes an integer >= 0, ``--dim`` one >= 1 (`report` and
`cyclic-vs-noncyclic`) and ``--eps`` a finite number >= 0 (`count` and
`indentropy`); out-of-range values are configuration errors.

Exit codes: 0 success; 2 configuration or usage error; 3 a size guard
refused the computation; 4 numerical non-convergence, no certified
product measure, or a failed consistency check (partial values are still
emitted where they exist).

Everything runs in one process, and every result is deterministic for a
given config and seed.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from semicap.capacity import capacity_1d, internal_capacity_sequence
from semicap.config import ConfigError, SystemConfig
from semicap.indentropy import UncertifiedError, curve_optimum_01p, hind_bound_report
from semicap.lattice_core import (
    SizeGuardError,
    ValidationError,
    pattern_from_index,
)
from semicap.scs_model import EmptySystemError
from semicap.validation import (
    concentration_check,
    cyclic_vs_noncyclic,
    hasse_report,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_GUARD = 3
EXIT_NO_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class _Table:
    """Collects rows and writes them as CSV or JSON lines."""

    def __init__(self, command: str, sha256: str, seed: int, fmt: str):
        self.command = command
        self.sha256 = sha256
        self.seed = seed
        self.fmt = fmt
        self.columns: list[str] = []
        self.rows: list[dict] = []
        self.notes: list[str] = []

    def header(self, *columns: str) -> None:
        self.columns = list(columns)

    def row(self, **values) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def write(self, stream) -> None:
        if self.fmt == "jsonl":
            meta = {"command": self.command, "config_sha256": self.sha256,
                    "seed": self.seed}
            stream.write(json.dumps(meta) + "\n")
            for row in self.rows:
                out = {c: row.get(c) for c in self.columns}
                stream.write(json.dumps(out) + "\n")
            for text in self.notes:
                stream.write(json.dumps({"note": text}) + "\n")
            return
        stream.write(
            f"# semicap {self.command} config_sha256={self.sha256} "
            f"seed={self.seed}\n"
        )
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([
                "" if row.get(c) is None else _fmt(row.get(c))
                for c in self.columns
            ])
        for text in self.notes:
            stream.write(f"# {text}\n")


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------

def _add_common(sub, *, config_required=True):
    if config_required:
        sub.add_argument("--config", required=True, metavar="PATH",
                         help="system definition file (INI; see semicap.config)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="write the table here instead of stdout")


def _seed(args, default: int) -> int:
    if args.seed is None:
        return default
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    return args.seed


def _dim(args, default: int) -> int:
    if args.dim is None:
        return default
    if args.dim < 1:
        raise ConfigError("--dim must be at least 1")
    return args.dim


def _eps(args) -> float | None:
    """The --eps flag, checked as the config's eps values are; None when
    it is not given."""
    if args.eps is not None and not (args.eps >= 0 and np.isfinite(args.eps)):
        raise ConfigError("--eps must be finite and nonnegative")
    return args.eps


def _parse_sides(args, default: list[int] | None = None) -> list[int]:
    """The sides that --n or --n-range name, else `default`; with neither
    flag nor default it is a configuration error."""
    if getattr(args, "n", None) is not None:
        return [args.n]
    raw = getattr(args, "n_range", None)
    if raw is None:
        if default is None:
            raise ConfigError("one of --n or --n-range is required")
        return default
    parts = raw.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("--n-range takes LO:HI or LO:HI:STEP")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise ConfigError(f"bad --n-range {raw!r}") from exc
    if step < 1 or hi < lo:
        raise ConfigError(f"bad --n-range {raw!r}")
    return list(range(lo, hi + 1, step))


def _args_sha(parts) -> str:
    canon = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args) -> tuple[_Table, int]:
    cfg = SystemConfig.load(args.config)
    seed = _seed(args, cfg.solver.seed)
    eps = _eps(args)
    if eps is None:
        eps = cfg.eps_list[0]
    sides = _parse_sides(args)
    table = _Table("count", cfg.sha256, seed, args.format)
    table.header("n", "count", "rate")
    for row in internal_capacity_sequence(cfg.system(), sides, eps):
        table.row(n=row.side, count=row.count, rate=row.rate)
    return table, EXIT_OK


def _cmd_capacity(args) -> tuple[_Table, int]:
    cfg = SystemConfig.load(args.config)
    if cfg.dimension != 1:
        raise ConfigError("capacity is computed for 1-D systems")
    seed = _seed(args, cfg.solver.seed)
    sol = cfg.solver
    result = capacity_1d(cfg.factor(), max_iter=sol.max_iter, gap_tol=sol.gap_tol)
    table = _Table("capacity", cfg.sha256, seed, args.format)
    table.header("field", "pattern", "value")
    table.row(field="capacity", value=result.value)
    table.row(field="duality_gap", value=result.duality_gap)
    table.row(field="iterations", value=result.iterations)
    table.row(field="converged", value=result.converged)
    opt = result.optimizer
    q = opt.alphabet.size
    k = len(opt.shape)
    for i, prob in enumerate(opt.float_probs()):
        digits = "".join(str(d) for d in pattern_from_index(i, q, k))
        table.row(field="optimizer", pattern=digits, value=float(prob))
    return table, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_indentropy(args) -> tuple[_Table, int]:
    cfg = SystemConfig.load(args.config)
    seed = _seed(args, cfg.solver.seed)
    eps = _eps(args)
    eps_list = (eps,) if eps is not None else cfg.eps_list
    sides = _parse_sides(args, default=[2, 3, 4, 5, 6])
    restarts = {} if cfg.solver.restarts is None else {"restarts": cfg.solver.restarts}
    report = hind_bound_report(cfg.factor(), cfg.dimension, eps_list, sides, seed=seed,
                               **restarts)
    table = _Table("indentropy", cfg.sha256, seed, args.format)
    table.header("record", "eps", "n", "value", "feasible", "distance")
    for r in report.rows:
        table.row(record="hind", eps=r.eps, n=r.side, value=r.value,
                  feasible=r.feasible, distance=r.distance)
    best = report.best
    table.row(record="best", eps=best.eps, n=best.side, value=best.value,
              feasible=best.feasible, distance=best.distance)
    table.row(record="lower_bound", eps=best.eps, n=best.side,
              value=best.value, feasible=True)
    table.row(record="lift_rate_error", value=report.lift_rate_error)
    if report.curve_reference is not None:
        table.row(record="curve_reference", value=report.curve_reference)
    return table, EXIT_OK


def _cmd_curve(args) -> tuple[_Table, int]:
    if args.linspace is not None:
        parts = args.linspace.split(":")
        if len(parts) != 3:
            raise ConfigError("--linspace takes LO:HI:COUNT")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad --linspace {args.linspace!r}") from exc
        if count < 2 or hi < lo:
            raise ConfigError(f"bad --linspace {args.linspace!r}")
        grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    else:
        try:
            grid = [float(t) for chunk in args.grid.split(",")
                    for t in chunk.split() if t]
        except ValueError as exc:
            raise ConfigError(f"bad --grid {args.grid!r}") from exc
        if not grid:
            raise ConfigError("empty p grid")
    seed = _seed(args, 0)
    table = _Table("curve", _args_sha(["curve"] + grid), seed, args.format)
    table.header("p", "value", "x", "y")
    for p in grid:
        point = curve_optimum_01p(p)
        table.row(p=p, value=point.value, x=point.x, y=point.y)
    return table, EXIT_OK


def _cmd_report(args) -> tuple[_Table, int]:
    cfg = SystemConfig.load(args.config)
    seed = _seed(args, cfg.solver.seed)
    dim = _dim(args, cfg.dimension)
    restarts = {} if cfg.solver.restarts is None else {"restarts": cfg.solver.restarts}
    table = _Table("report", cfg.sha256, seed, args.format)
    table.header("record", "name", "value")
    try:
        hasse = hasse_report(cfg.factor(), dim, seed=seed, **restarts)
    except (EmptySystemError, UncertifiedError):
        raise
    except ValidationError as exc:
        table.note(f"consistency failure: {exc}")
        return table, EXIT_NO_CONVERGENCE
    for q in hasse.quantities:
        table.row(record="quantity", name=q.name, value=q.value)
        table.row(record="provenance", name=q.name, value=q.provenance)
    for desc, ok, detail in hasse.edges:
        table.row(record="edge", name=desc, value=ok)
    for r in hasse.count_rows:
        table.row(record="count", name=str(r.side), value=r.count)
        table.row(record="count_rate", name=str(r.side), value=r.rate)

    measure = hasse.hind_measure
    eps_pos = [e for e in cfg.eps_list if e > 0] or [0.01]
    period = measure.side
    sides = sorted({period * max(1, round(n / period)) for n in (30, 100, 300)})
    conc = concentration_check(measure, cfg.factor(), eps_pos, sides,
                               cfg.solver.trials, seed)
    table.row(record="concentration_base_distance", value=conc.base_distance)
    for i, eps in enumerate(conc.eps_list):
        for j, n in enumerate(conc.sides):
            table.row(record="concentration", name=f"eps={eps:g},n={n}",
                      value=float(conc.fractions[i, j]))
        table.row(record="concentration_monotone", name=f"eps={eps:g}",
                  value=conc.monotone_in_side[i])
    if not hasse.capacity.converged:
        table.note(f"capacity_1d did not converge: duality gap {hasse.capacity.duality_gap!r}")
    return table, EXIT_OK if hasse.capacity.converged else EXIT_NO_CONVERGENCE


def _cmd_cyclic_vs_noncyclic(args) -> tuple[_Table, int]:
    cfg = SystemConfig.load(args.config)
    if cfg.factor().forbidden is None:
        raise ConfigError("cyclic-vs-noncyclic applies to forbidden-pattern systems")
    seed = _seed(args, cfg.solver.seed)
    dim = _dim(args, cfg.dimension)
    sides = _parse_sides(args)
    report = cyclic_vs_noncyclic(cfg.factor(), sides, dim=dim, mode=cfg.mode,
                                 convention=args.convention)
    table = _Table("cyclic-vs-noncyclic", cfg.sha256, seed, args.format)
    table.header("convention", "n", "cyclic", "noncyclic", "contained", "gap")
    for r in report.rows:
        table.row(convention=report.convention, n=r.side, cyclic=r.cyclic,
                  noncyclic=r.noncyclic, contained=r.contained, gap=r.gap)
    table.note(f"gap_decreasing={report.gap_decreasing}")
    return table, EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicap",
        description="capacity and entropy bounds for semiconstrained systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="admissible-word counts over sides")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None, help="single side")
    sub.add_argument("--n-range", default=None, metavar="LO:HI[:STEP]")
    sub.add_argument("--eps", type=float, default=None,
                     help="relaxation radius (default: first config value)")
    sub.set_defaults(run=_cmd_count)

    sub = subs.add_parser("capacity", help="1-D capacity with optimizer dump")
    _add_common(sub)
    sub.set_defaults(run=_cmd_capacity)

    sub = subs.add_parser("indentropy", help="product-measure entropy bounds")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--n-range", default=None, metavar="LO:HI[:STEP]")
    sub.add_argument("--eps", type=float, default=None,
                     help="single radius overriding the config list")
    sub.set_defaults(run=_cmd_indentropy)

    sub = subs.add_parser("curve", help="two-site curve for window-2 caps")
    _add_common(sub, config_required=False)
    sub.add_argument("--grid", default="0.01,0.05,0.1,0.2",
                     help="comma-separated cap values")
    sub.add_argument("--linspace", default=None, metavar="LO:HI:COUNT",
                     help="evenly spaced grid instead of --grid")
    sub.set_defaults(run=_cmd_curve)

    sub = subs.add_parser("report",
                          help="inequality chain plus concentration study")
    _add_common(sub)
    sub.add_argument("--dim", type=int, default=None,
                     help="target dimension (default: config dimension)")
    sub.set_defaults(run=_cmd_report)

    sub = subs.add_parser("cyclic-vs-noncyclic",
                          help="wrapped vs non-wrapped counting")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--n-range", default=None, metavar="LO:HI[:STEP]")
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--convention", choices=("tile", "halfopen"),
                     default="tile")
    sub.set_defaults(run=_cmd_cyclic_vs_noncyclic)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        table, code = args.run(args)
    except ConfigError as exc:
        print(f"semicap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeGuardError as exc:
        print(f"semicap: refusing oversized computation: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except EmptySystemError as exc:
        print(f"semicap: the configured system is empty: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UncertifiedError as exc:
        print(f"semicap: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValidationError as exc:
        print(f"semicap: invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.out is None:
        table.write(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            table.write(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
