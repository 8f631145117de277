"""Command line interface: amplitude tables, purity reports, parameter
sweeps, the closed-form reflection map, and the self-check suite.

Outputs are byte-deterministic for a fixed config: CSV floats are printed
with %.17g (17 significant digits pin a double exactly), rows keep input
order regardless of --workers, and newlines are always "\\n".

Exit codes: 0 success; 1 failed self checks or an internal consistency
abort; 2 config errors; 3 unconverged quadrature under --strict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Tuple, Union

import numpy as np
import jsonschema
from jsonschema.exceptions import best_match

from . import __version__
from .amplitudes import AmplitudeModel, AmplitudePair, PotentialKind, unitarity_residual
from .analytic import (
    ApproximationInput,
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
    schulman_satisfied,
)
from .kinematics import MassPartition
from .purity import mode_grid, purity_adaptive, purity_out
from .validate import run_all
from .wavefunction import GaussianInState, Mode, ModeWavefunction

__all__ = ["main", "run", "SweepConfig", "SweepRow", "ConfigError"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3

_PROB_ABORT_TOL = 1e-10


class ConfigError(Exception):
    """Configuration rejected; message carries the offending path."""


class SweepAbort(Exception):
    """Internal consistency violation; the whole run must stop."""


# --------------------------------------------------------------------------
# config schemas

_POS = {"type": "number", "exclusiveMinimum": 0}
_RATIO = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_UNIT = {"enum": ["absolute", "b", "M_alpha"]}
_N_OR_PAIR = {
    "oneOf": [
        {"type": "integer", "minimum": 32},
        {
            "type": "array",
            "items": {"type": "integer", "minimum": 32},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

_MASSES = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"mu1": _RATIO, "M": _POS},
            "required": ["mu1"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"m1": _POS, "m2": _POS},
            "required": ["m1", "m2"],
            "additionalProperties": False,
        },
    ]
}

_ENGINE = {
    "type": "object",
    "properties": {
        "rel_tol": {"type": "number", "minimum": 1e-10, "maximum": 0.1},
        "base_n": _N_OR_PAIR,
        "n_cap": _N_OR_PAIR,
        "nsig": {"type": "number", "minimum": 4, "maximum": 16},
        "overlap_n": {"type": "integer", "minimum": 32, "maximum": 4096},
    },
    "additionalProperties": False,
}


def _potential_schema(allow_none: bool) -> dict:
    variants = [
        {
            "type": "object",
            "properties": {"kind": {"const": "hard_core"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "delta"}, "alpha": _POS},
            "required": ["kind", "alpha"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "double_delta"},
                "alpha": _POS,
                "half_separation": _POS,
                "half_separation_times_strength": _POS,
            },
            "required": ["kind", "alpha"],
            "oneOf": [
                {"required": ["half_separation"]},
                {"required": ["half_separation_times_strength"]},
            ],
            "additionalProperties": False,
        },
    ]
    if allow_none:
        variants.append(
            {
                "type": "object",
                "properties": {"kind": {"const": "none"}},
                "required": ["kind"],
                "additionalProperties": False,
            }
        )
    return {"oneOf": variants}


_STATE_POINT = {
    "type": "object",
    "properties": {
        "k": _POS,
        "k_over_b": _POS,
        "sigma1": _POS,
        "sigma2": _POS,
        "sigma1_over_k": _RATIO,
        "sigma2_over_k": _RATIO,
        "a1": {"type": "number"},
        "a2": {"type": "number"},
    },
    "allOf": [
        {"oneOf": [{"required": ["k"]}, {"required": ["k_over_b"]}]},
        {
            "oneOf": [
                {"required": ["sigma1", "sigma2"]},
                {"required": ["sigma1_over_k", "sigma2_over_k"]},
            ]
        },
    ],
    "additionalProperties": False,
}

AMPLITUDES_SCHEMA = {
    "type": "object",
    "properties": {
        "masses": _MASSES,
        "potential": _potential_schema(False),
        "q_grid": {
            "type": "object",
            "properties": {
                "start": _POS,
                "stop": _POS,
                "num": {"type": "integer", "minimum": 2},
                "unit": _UNIT,
            },
            "required": ["start", "stop", "num"],
            "additionalProperties": False,
        },
    },
    "required": ["masses", "potential", "q_grid"],
    "additionalProperties": False,
}

PURITY_SCHEMA = {
    "type": "object",
    "properties": {
        "masses": _MASSES,
        "potential": _potential_schema(True),
        "state": _STATE_POINT,
        "engine": _ENGINE,
    },
    "required": ["masses", "potential", "state"],
    "additionalProperties": False,
}

SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "masses": _MASSES,
        "potential": _potential_schema(False),
        "state": {
            "type": "object",
            "properties": {"sigma1_over_k": _RATIO, "sigma2_over_k": _RATIO},
            "required": ["sigma1_over_k", "sigma2_over_k"],
            "additionalProperties": False,
        },
        "k_axis": {
            "type": "object",
            "properties": {
                "start": _POS,
                "stop": _POS,
                "num": {"type": "integer", "minimum": 1},
                "unit": _UNIT,
            },
            "required": ["start", "stop", "num"],
            "additionalProperties": False,
        },
        "engine": _ENGINE,
    },
    "required": ["masses", "potential", "state", "k_axis"],
    "additionalProperties": False,
}


def _axis_schema(item_schema: dict) -> dict:
    return {
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    "start": item_schema,
                    "stop": item_schema,
                    "num": {"type": "integer", "minimum": 1},
                },
                "required": ["start", "stop", "num"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "values": {"type": "array", "items": item_schema, "minItems": 1}
                },
                "required": ["values"],
                "additionalProperties": False,
            },
        ]
    }


REFLECTMAP_SCHEMA = {
    "type": "object",
    "properties": {"mu1_axis": _axis_schema(_RATIO), "c_axis": _axis_schema(_POS)},
    "required": ["mu1_axis", "c_axis"],
    "additionalProperties": False,
}


# --------------------------------------------------------------------------
# config parsing

def _load_config(path: Path) -> Tuple[dict, str]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


def _check_schema(cfg: dict, schema: dict) -> None:
    validator = jsonschema.Draft202012Validator(schema)
    errors = list(validator.iter_errors(cfg))
    if errors:
        err = best_match(errors)
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ConfigError(f"{path}: {err.message}")


def _masses_from(cfg: dict) -> MassPartition:
    m = cfg["masses"]
    if "mu1" in m:
        return MassPartition(mu1=m["mu1"], M=m.get("M", 1.0))
    return MassPartition.from_masses(m["m1"], m["m2"])


def _potential_from(cfg: dict, mp: MassPartition) -> Optional[AmplitudeModel]:
    pot = cfg["potential"]
    kind = pot["kind"]
    if kind == "none":
        return None
    if kind == "hard_core":
        return AmplitudeModel.hard_core(mp)
    if kind == "delta":
        return AmplitudeModel.dirac_delta(pot["alpha"], mp)
    alpha = pot["alpha"]
    if "half_separation" in pot:
        a = pot["half_separation"]
    else:
        a = pot["half_separation_times_strength"] / (mp.mu_red * alpha)
    return AmplitudeModel.double_dirac_delta(alpha, a, mp)


def _momentum_scale(unit: str, model: Optional[AmplitudeModel]) -> float:
    if unit == "absolute":
        return 1.0
    if model is None or model.kind is PotentialKind.HARD_CORE:
        raise ConfigError(
            f"momentum unit '{unit}' needs a potential with a strength scale"
        )
    if unit == "b":
        return model.strength_scale
    return model.masses.M * model.alpha  # "M_alpha"


def _state_from(
    state_cfg: dict, mp: MassPartition, model: Optional[AmplitudeModel]
) -> GaussianInState:
    if ("sigma1" in state_cfg or "sigma2" in state_cfg) and (
        "sigma1_over_k" in state_cfg or "sigma2_over_k" in state_cfg
    ):
        raise ConfigError("$.state: mixes absolute and relative widths")
    if "k" in state_cfg:
        k = state_cfg["k"]
    else:
        scale = _momentum_scale("b", model)
        k = state_cfg["k_over_b"] * scale
    if "sigma1" in state_cfg:
        s1, s2 = state_cfg["sigma1"], state_cfg["sigma2"]
    else:
        s1 = state_cfg["sigma1_over_k"] * k
        s2 = state_cfg["sigma2_over_k"] * k
    try:
        return GaussianInState(
            k=k,
            sigma1=s1,
            sigma2=s2,
            masses=mp,
            a1=state_cfg.get("a1", 0.0),
            a2=state_cfg.get("a2", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"$.state: {exc}") from exc


@dataclass(frozen=True)
class EngineOptions:
    rel_tol: float = 1e-6
    base_n: Union[int, Tuple[int, int]] = 64
    n_cap: Union[int, Tuple[int, int]] = 1024
    nsig: float = 8.0
    overlap_n: int = 256

    @classmethod
    def from_config(
        cls, cfg: dict, rel_tol_override: Optional[float] = None
    ) -> "EngineOptions":
        eng = cfg.get("engine", {})

        def pair(v):
            return tuple(v) if isinstance(v, list) else v

        rel_tol = eng.get("rel_tol", 1e-6)
        if rel_tol_override is not None:
            if not 1e-10 <= rel_tol_override <= 0.1:
                raise ConfigError(f"--rel-tol out of range [1e-10, 0.1]: {rel_tol_override}")
            rel_tol = rel_tol_override
        opts = cls(
            rel_tol=rel_tol,
            base_n=pair(eng.get("base_n", 64)),
            n_cap=pair(eng.get("n_cap", 1024)),
            nsig=eng.get("nsig", 8.0),
            overlap_n=eng.get("overlap_n", 256),
        )
        for label, value in (("base_n", opts.base_n), ("n_cap", opts.n_cap)):
            for n in value if isinstance(value, tuple) else (value,):
                if n < 32 or (n & (n - 1)) != 0:
                    raise ConfigError(
                        f"$.engine.{label}: must be a power of two >= 32, got {n}"
                    )
        base = opts.base_n if isinstance(opts.base_n, tuple) else (opts.base_n,) * 2
        cap = opts.n_cap if isinstance(opts.n_cap, tuple) else (opts.n_cap,) * 2
        if cap[0] < base[0] or cap[1] < base[1]:
            raise ConfigError(f"$.engine: n_cap {cap} below base_n {base}")
        return opts


def _axis_values(axis_cfg: dict) -> np.ndarray:
    if "values" in axis_cfg:
        return np.asarray(axis_cfg["values"], dtype=float)
    return np.linspace(axis_cfg["start"], axis_cfg["stop"], axis_cfg["num"])


# --------------------------------------------------------------------------
# output helpers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(
    stream: IO[str],
    command: str,
    sha: str,
    columns: Sequence[Tuple[str, str]],
    rows,
) -> None:
    stream.write(f"# scatter-entangle {__version__}\n")
    stream.write(f"# command: {command}\n")
    stream.write(f"# config-sha256: {sha}\n")
    for name, desc in columns:
        stream.write(f"# column {name}: {desc}\n")
    stream.write(",".join(name for name, _ in columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


class _Output:
    """Stdout or a file opened with '\\n' newlines."""

    def __init__(self, path: Optional[Path]):
        self._path = path
        self._stream: Optional[IO[str]] = None

    def __enter__(self) -> IO[str]:
        if self._path is None:
            return sys.stdout
        self._stream = open(self._path, "w", newline="\n")
        return self._stream

    def __exit__(self, *exc) -> None:
        if self._stream is not None:
            self._stream.close()


# --------------------------------------------------------------------------
# subcommands

def cmd_amplitudes(cfg: dict, sha: str, out: Optional[Path]) -> int:
    _check_schema(cfg, AMPLITUDES_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    grid = cfg["q_grid"]
    unit = grid.get("unit", "absolute")
    scale = _momentum_scale(unit, model)
    q_axis = np.linspace(grid["start"], grid["stop"], grid["num"])
    q_abs = q_axis * scale
    t, r = model.amplitudes(q_abs)
    T = np.abs(t) ** 2
    R = np.abs(r) ** 2
    resid = unitarity_residual(AmplitudePair(t, r))
    columns = [
        ("q", f"relative momentum in '{unit}' units"),
        ("re_t", "Re t(q)"),
        ("im_t", "Im t(q)"),
        ("re_r", "Re r(q)"),
        ("im_r", "Im r(q)"),
        ("T", "|t|^2 transmission probability"),
        ("R", "|r|^2 reflection probability"),
        ("unitarity_residual", "| |t|^2 + |r|^2 - 1 |"),
    ]
    rows = (
        (
            float(q_axis[i]),
            float(t[i].real),
            float(t[i].imag),
            float(r[i].real),
            float(r[i].imag),
            float(T[i]),
            float(R[i]),
            float(resid[i]),
        )
        for i in range(len(q_axis))
    )
    with _Output(out) as stream:
        _write_csv(stream, "amplitudes", sha, columns, rows)
    return EXIT_OK


def cmd_purity(
    cfg: dict, sha: str, out: Optional[Path], rel_tol: Optional[float], strict: bool
) -> int:
    _check_schema(cfg, PURITY_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    state = _state_from(cfg["state"], mp, model)
    eng = EngineOptions.from_config(cfg, rel_tol)

    if model is None:
        report = purity_adaptive(
            ModeWavefunction(Mode.IN, state),
            mode_grid(state, Mode.IN, eng.base_n, eng.nsig),
            rel_tol=eng.rel_tol,
            n_cap=eng.n_cap,
        )
        approximations = None
    else:
        report = purity_out(state, model, **asdict(eng))
        t_k, r_k = model.amplitudes(state.k)
        pbar = reflected_gaussian_purity(mp, state.sigma1, state.sigma2)
        approx = ApproximationInput.from_amplitudes(t_k, r_k, pbar)
        approximations = {
            "T": approx.T,
            "R": approx.R,
            "reflected_purity": pbar,
            "purity_C": approx.purity_C(),
            "purity_CR": approx.purity_CR(),
        }

    payload = {
        "version": __version__,
        "command": "purity",
        "config_sha256": sha,
        "inputs": {
            "mu1": mp.mu1,
            "M": mp.M,
            "k": state.k,
            "sigma1": state.sigma1,
            "sigma2": state.sigma2,
            "a1": state.a1,
            "a2": state.a2,
            "potential": cfg["potential"],
            "schulman_satisfied": schulman_satisfied(mp, state.sigma1, state.sigma2),
        },
        "engine": asdict(eng),
        "approximations": approximations,
        "report": report.as_dict(),
    }
    with _Output(out) as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if strict and not report.converged:
        print(
            f"strict: purity unconverged at grid {report.grid_n} "
            f"(refinement error {report.refinement_error:.3e})",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    return EXIT_OK


@dataclass(frozen=True)
class SweepConfig:
    """Parsed sweep request: one potential, one width rule, many k."""

    masses: MassPartition
    model: AmplitudeModel
    sigma1_over_k: float
    sigma2_over_k: float
    k_axis: np.ndarray
    k_abs: np.ndarray
    engine: EngineOptions


@dataclass(frozen=True)
class SweepRow:
    k: float
    mu1: float
    sigma1: float
    sigma2: float
    T: float
    R: float
    purity_C: float
    purity_CR: float
    purity_exact: float
    purity_tra: float
    purity_ref: float
    overlap: float
    grid_N: int
    est_error: float
    converged: bool
    error: Optional[str] = None

    @classmethod
    def failed(cls, k: float, mu1: float, message: str) -> "SweepRow":
        nan = float("nan")
        return cls(
            k=k, mu1=mu1, sigma1=nan, sigma2=nan, T=nan, R=nan,
            purity_C=nan, purity_CR=nan, purity_exact=nan, purity_tra=nan,
            purity_ref=nan, overlap=nan, grid_N=0, est_error=nan,
            converged=False, error=message,
        )

    def as_tuple(self) -> tuple:
        return (
            self.k, self.mu1, self.sigma1, self.sigma2, self.T, self.R,
            self.purity_C, self.purity_CR, self.purity_exact, self.purity_tra,
            self.purity_ref, self.overlap, self.grid_N, self.est_error,
            self.converged, self.error,
        )


SWEEP_COLUMNS = [
    ("k", "central momentum, in the unit given in the k_axis config"),
    ("mu1", "mass fraction m1/(m1+m2)"),
    ("sigma1", "momentum width of particle 1 (absolute units)"),
    ("sigma2", "momentum width of particle 2 (absolute units)"),
    ("T", "|t(k)|^2 at the central momentum"),
    ("R", "|r(k)|^2 at the central momentum"),
    ("purity_C", "constant-amplitude estimate T^2 + R^2"),
    ("purity_CR", "estimate T^2 + R^2 * reflected_purity"),
    ("purity_exact", "quadrature purity of the out-state"),
    ("purity_tra", "transmitted-branch contribution w_t^2 * p_t"),
    ("purity_ref", "reflected-branch contribution w_r^2 * p_r"),
    ("overlap", "|<transmitted|reflected>| on the joint grid"),
    ("grid_N", "largest per-axis node count used"),
    ("est_error", "last successive refinement difference (relative)"),
    ("converged", "true if every branch met rel_tol before the node cap"),
    ("error", "per-point failure message, empty on success"),
]


def _sweep_point(sc: SweepConfig, i: int) -> SweepRow:
    k_axis = float(sc.k_axis[i])
    k = float(sc.k_abs[i])
    mp = sc.masses
    try:
        state = GaussianInState(
            k=k,
            sigma1=sc.sigma1_over_k * k,
            sigma2=sc.sigma2_over_k * k,
            masses=mp,
        )
        t_k, r_k = sc.model.amplitudes(k)
        T = abs(t_k) ** 2
        R = abs(r_k) ** 2
        if abs(T + R - 1.0) > _PROB_ABORT_TOL:
            raise SweepAbort(
                f"unitarity violated at k = {k!r}: T + R - 1 = {T + R - 1.0:.3e}"
            )
        pbar = reflected_gaussian_purity(mp, state.sigma1, state.sigma2)
        approx = ApproximationInput.from_amplitudes(t_k, r_k, pbar)
        rep = purity_out(state, sc.model, **asdict(sc.engine))
        return SweepRow(
            k=k_axis,
            mu1=mp.mu1,
            sigma1=state.sigma1,
            sigma2=state.sigma2,
            T=T,
            R=R,
            purity_C=approx.purity_C(),
            purity_CR=approx.purity_CR(),
            purity_exact=rep.purity,
            purity_tra=rep.purity_tra,
            purity_ref=rep.purity_ref,
            overlap=rep.overlap,
            grid_N=max(rep.grid_n),
            est_error=rep.refinement_error,
            converged=rep.converged,
        )
    except SweepAbort:
        raise
    except Exception as exc:  # recorded in the row; the sweep continues
        return SweepRow.failed(k_axis, mp.mu1, f"{type(exc).__name__}: {exc}")


def cmd_sweep(
    cfg: dict,
    sha: str,
    out: Optional[Path],
    workers: int,
    rel_tol: Optional[float],
    strict: bool,
) -> int:
    _check_schema(cfg, SWEEP_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    unit = cfg["k_axis"].get("unit", "absolute")
    scale = _momentum_scale(unit, model)
    k_axis = _axis_values(cfg["k_axis"])
    sc = SweepConfig(
        masses=mp,
        model=model,
        sigma1_over_k=cfg["state"]["sigma1_over_k"],
        sigma2_over_k=cfg["state"]["sigma2_over_k"],
        k_axis=k_axis,
        k_abs=k_axis * scale,
        engine=EngineOptions.from_config(cfg, rel_tol),
    )

    indices = range(len(k_axis))
    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(lambda i: _sweep_point(sc, i), indices))
        else:
            rows = [_sweep_point(sc, i) for i in indices]
    except SweepAbort as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_FAILED

    with _Output(out) as stream:
        _write_csv(stream, "sweep", sha, SWEEP_COLUMNS, (r.as_tuple() for r in rows))

    bad = [r for r in rows if not r.converged or r.error]
    if strict and bad:
        print(
            f"strict: {len(bad)} of {len(rows)} sweep points unconverged or failed",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    return EXIT_OK


def cmd_reflectmap(cfg: dict, sha: str, out: Optional[Path]) -> int:
    _check_schema(cfg, REFLECTMAP_SCHEMA)
    mu1s = _axis_values(cfg["mu1_axis"])
    cs = _axis_values(cfg["c_axis"])
    columns = [
        ("mu1", "mass fraction m1/(m1+m2)"),
        ("c", "width ratio sigma2/sigma1"),
        ("purity", "closed-form purity of the reflected Gaussian"),
    ]
    rows = (
        (float(mu1), float(c), reflected_gaussian_purity_mu_c(float(mu1), float(c)))
        for mu1 in mu1s
        for c in cs
    )
    with _Output(out) as stream:
        _write_csv(stream, "reflectmap", sha, columns, rows)
    return EXIT_OK


def cmd_validate() -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_FAILED


# --------------------------------------------------------------------------
# entry points

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatter-entangle",
        description="Entanglement from two-body scattering off 1D potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_engine=False):
        sp.add_argument("--config", required=True, type=Path, help="JSON config file")
        sp.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
        if with_engine:
            sp.add_argument(
                "--rel-tol", type=float, default=None, help="override engine rel_tol"
            )
            sp.add_argument(
                "--strict",
                action="store_true",
                help="exit 3 if any quadrature fails to converge",
            )

    add_common(sub.add_parser("amplitudes", help="t(q), r(q) table as CSV"))
    add_common(sub.add_parser("purity", help="single-point purity report as JSON"), True)
    sp_sweep = sub.add_parser("sweep", help="purity vs central momentum as CSV")
    add_common(sp_sweep, True)
    sp_sweep.add_argument(
        "--workers", type=int, default=1, help="thread count (output is order-stable)"
    )
    add_common(sub.add_parser("reflectmap", help="closed-form purity over (mu1, c) as CSV"))
    sub.add_parser("validate", help="run the physics self checks")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate()
    try:
        cfg, sha = _load_config(args.config)
        if args.command == "amplitudes":
            return cmd_amplitudes(cfg, sha, args.out)
        if args.command == "purity":
            return cmd_purity(cfg, sha, args.out, args.rel_tol, args.strict)
        if args.command == "sweep":
            return cmd_sweep(cfg, sha, args.out, args.workers, args.rel_tol, args.strict)
        return cmd_reflectmap(cfg, sha, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())
