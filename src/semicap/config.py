"""Declarative system definitions for the command line.

A system is described by an INI-style text with two sections::

    [system]
    alphabet = 2            # alphabet size q (symbols are the digits 0..q-1)
    dimension = 1           # >= 2 imposes the 1-D system along every axis
    mode = strict           # strict | weak (axial products only)
    constraint = rll        # rll | forbidden | linear
    k = 2                   # rll: cap the frequency of k+1 consecutive ones
    p = 0.05                # rll: the cap
    eps = 0, 0.01           # finite, >= 0: relaxation radii offered to subcommands

    [solver]
    seed = 0                # >= 0
    restarts = 20           # >= 0 product-measure restarts (10 in `report`)
    max_iter = 50000        # >= 1 capacity: iteration budget of the pressure dual
    gap_tol = 1e-9          # > 0 capacity: duality-gap certificate
    trials = 500            # >= 1 Monte Carlo trials in `report`

    # constraint = forbidden takes instead:
    #   forbidden = 11, 101      (digit strings, all of one length)
    # constraint = linear takes instead:
    #   window = 2               (window length; patterns indexed base-q,
    #                             most significant digit first)
    #   linear =                 (one row per line: q^window coefficients,
    #     0 0 0 1 <= 0.05        a sense token <= or ==, then the bound)

Unknown sections or keys are rejected, as are keys that do not belong to
the chosen constraint kind; every default above is what an omitted key
means.  `sha256` hashes the raw text, so emitted tables can name the exact
configuration that produced them.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field

from semicap.lattice_core import Alphabet, Shape, ValidationError
from semicap.scs_model import (
    ConstraintSet,
    LinearConstraint,
    axial_product,
    fully_constrained,
    rll_constraint,
)

__all__ = ["ConfigError", "SolverOptions", "SystemConfig"]


class ConfigError(ValueError):
    """The configuration text is malformed or inconsistent."""


_SYSTEM_KEYS = {
    "alphabet", "dimension", "mode", "constraint", "k", "p",
    "forbidden", "window", "linear", "eps",
}
_KIND_KEYS = {
    "rll": {"k", "p"},
    "forbidden": {"forbidden"},
    "linear": {"window", "linear"},
}
_SOLVER_KEYS = {"seed", "restarts", "max_iter", "gap_tol", "trials"}


@dataclass(frozen=True)
class SolverOptions:
    seed: int = 0
    restarts: int | None = None   # None: each operation's own default
    max_iter: int = 50000
    gap_tol: float = 1e-9
    trials: int = 500


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for '{key}': {raw!r}") from exc


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """A parsed and validated system description."""

    dimension: int
    mode: str
    eps_list: tuple[float, ...]
    solver: SolverOptions
    sha256: str
    _factor: ConstraintSet = field(repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "SystemConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.parse(text)

    @classmethod
    def parse(cls, text: str) -> "SystemConfig":
        if not text.strip():
            raise ConfigError("empty configuration")
        parser = configparser.ConfigParser(
            interpolation=None, delimiters=("=",),
            comment_prefixes=("#", ";"), inline_comment_prefixes=("#", ";"),
        )
        try:
            parser.read_file(io.StringIO(text))
        except configparser.Error as exc:
            raise ConfigError(f"unparseable configuration: {exc}") from exc

        unknown_sections = set(parser.sections()) - {"system", "solver"}
        if unknown_sections:
            raise ConfigError(f"unknown sections: {sorted(unknown_sections)}")
        if "system" not in parser:
            raise ConfigError("missing [system] section")
        sys_sec = parser["system"]
        bad = set(sys_sec) - _SYSTEM_KEYS
        if bad:
            raise ConfigError(f"unknown [system] keys: {sorted(bad)}")

        kind = _get(sys_sec, "constraint", str, required=True)
        if kind not in _KIND_KEYS:
            raise ConfigError(f"unknown constraint kind {kind!r}")
        common = {"alphabet", "dimension", "mode", "constraint", "eps"}
        inapplicable = (set(sys_sec) - common) - _KIND_KEYS[kind]
        if inapplicable:
            raise ConfigError(
                f"keys {sorted(inapplicable)} do not apply to constraint={kind}"
            )

        q = _get(sys_sec, "alphabet", int, default=2)
        if q < 2:
            raise ConfigError("alphabet size must be at least 2")
        dim = _get(sys_sec, "dimension", int, default=1)
        if dim < 1:
            raise ConfigError("dimension must be at least 1")
        mode = _get(sys_sec, "mode", str, default="strict")
        if mode not in ("strict", "weak"):
            raise ConfigError("mode must be strict or weak")
        eps_list = _get(sys_sec, "eps", _float_list, default=(0.0,))
        if not all(e >= 0 and math.isfinite(e) for e in eps_list):
            raise ConfigError("eps values must be finite and nonnegative")

        solver = SolverOptions()
        if "solver" in parser:
            sol_sec = parser["solver"]
            bad = set(sol_sec) - _SOLVER_KEYS
            if bad:
                raise ConfigError(f"unknown [solver] keys: {sorted(bad)}")
            solver = SolverOptions(
                seed=_get(sol_sec, "seed", int, default=0),
                restarts=_get(sol_sec, "restarts", int),
                max_iter=_get(sol_sec, "max_iter", int, default=50000),
                gap_tol=_get(sol_sec, "gap_tol", float, default=1e-9),
                trials=_get(sol_sec, "trials", int, default=500),
            )
            if solver.seed < 0:
                raise ConfigError("seed must be nonnegative")
            if solver.restarts is not None and solver.restarts < 0:
                raise ConfigError("restarts must be nonnegative")
            if solver.max_iter < 1:
                raise ConfigError("max_iter must be at least 1")
            if not solver.gap_tol > 0:
                raise ConfigError("gap_tol must be positive")
            if solver.trials < 1:
                raise ConfigError("trials must be at least 1")

        alphabet = Alphabet.of_size(q)
        if kind == "rll":
            k = _get(sys_sec, "k", int, required=True)
            p = _get(sys_sec, "p", float, required=True)
            if q != 2:
                raise ConfigError("the rll family is binary; set alphabet = 2")
            try:
                factor = rll_constraint(k, p)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from exc
        elif kind == "forbidden":
            raw = _get(sys_sec, "forbidden", str, required=True)
            pats = tuple(
                p for chunk in raw.split(",") for p in chunk.split() if p
            )
            if not pats:
                raise ConfigError("forbidden list is empty")
            lengths = {len(p) for p in pats}
            if len(lengths) != 1:
                raise ConfigError("forbidden patterns must share one length")
            window = lengths.pop()
            tuples = []
            for pat in pats:
                if not all(ch.isdigit() and int(ch) < q for ch in pat):
                    raise ConfigError(f"pattern {pat!r} has symbols outside 0..{q-1}")
                tuples.append(tuple(int(ch) for ch in pat))
            factor = fully_constrained(alphabet, Shape.segment(window), tuples)
        else:  # linear
            window = _get(sys_sec, "window", int, required=True)
            if window < 1:
                raise ConfigError("window must be at least 1")
            raw = _get(sys_sec, "linear", str, required=True)
            m = q ** window
            rows = []
            for line in raw.splitlines():
                line = line.strip()
                if not line:
                    continue
                tokens = line.split()
                senses = [i for i, t in enumerate(tokens) if t in ("<=", "==")]
                if len(senses) != 1 or senses[0] != len(tokens) - 2:
                    raise ConfigError(
                        f"linear row must be 'coeffs.. <=|== bound': {line!r}"
                    )
                si = senses[0]
                try:
                    coeffs = tuple(float(t) for t in tokens[:si])
                    bound = float(tokens[-1])
                except ValueError as exc:
                    raise ConfigError(f"bad number in row {line!r}") from exc
                if len(coeffs) != m:
                    raise ConfigError(
                        f"row has {len(coeffs)} coefficients, expected {m}"
                    )
                try:
                    rows.append(LinearConstraint(coeffs, bound, tokens[si]))
                except ValidationError as exc:
                    raise ConfigError(f"{exc}: {line!r}") from exc
            if not rows:
                raise ConfigError("linear constraint list is empty")
            factor = ConstraintSet(alphabet, Shape.segment(window), rows)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return cls(dim, mode, eps_list, solver, digest, factor)

    # -- built objects -----------------------------------------------------

    def factor(self) -> ConstraintSet:
        """The 1-D constraint set imposed along each axis."""
        return self._factor

    def system(self):
        """The object of study: the factor itself in 1-D, otherwise its
        strict or weak axial product."""
        if self.dimension == 1:
            return self._factor
        return axial_product(self._factor, self.dimension, self.mode)
