"""Command line interface: amplitude tables, purity reports, parameter
sweeps, the closed-form reflection map, and the self-check suite.

Outputs are byte-deterministic for a fixed config: CSV floats are printed
with %.17g (17 significant digits pin a double exactly), rows keep input
order regardless of --workers, and newlines are always "\\n".

The layer is thin: configs become library objects, and each config section
has one schema and one reader here. The schemas check the engine settings'
types and shapes only: purity.check_ladder owns their defaults and
ranges, and returns the completed settings. The CLI runs it once before
any work, so that a bad engine config exits 2 instead of failing row by
row; so do masses and a potential that the library rejects. A state that
the library rejects, or amplitudes that are not finite at the config's own
momenta, are a config error in ``amplitudes`` and
``purity`` and a row error in ``sweep``. So are the quadrature's failures
at one point: a vanishing wave function, non-finite samples, and a squared
norm too large to square, which only a grid that does not resolve the wave
function samples. A momentum of ``amplitudes`` that underflows to 0 in
absolute units is a config error too.
Every input that changes a computed number, the engine's rel_tol included,
comes from the config, whose SHA-256 every output carries; the flags
(--out, --strict, --workers) only route the output, set the exit code or
spread rows over threads.

Exit codes: 0 success; 1 failed self checks, an internal consistency abort
or a defect (an unexpected exception, with its traceback); 2 config errors,
an unreadable --config or an --out that cannot be opened, which every
command opens before it computes; 3 unconverged quadrature under --strict.
A sweep records in a row's error column only the failures that depend on
that point's configuration.

Run as ``scatter-entangle`` or ``python -m scatter_entangle.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from pathlib import Path
from typing import IO, Optional, Sequence, Tuple

import numpy as np
import jsonschema
from jsonschema.exceptions import best_match

from . import __version__
from .amplitudes import AmplitudeModel, AmplitudePair, unitarity_residual
from .analytic import (
    ApproximationInput,
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
    schulman_satisfied,
)
from .kinematics import MassPartition
from .purity import (
    ZeroWavefunctionError,
    check_ladder,
    mode_grid,
    purity_adaptive,
    purity_out,
)
from .validate import run_all
from .wavefunction import GaussianInState, Mode, ModeWavefunction

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3


class ConfigError(Exception):
    """Configuration rejected; message carries the offending path."""


class ConsistencyAbort(Exception):
    """Internal consistency violation; the whole run must stop."""


# failures of the quadrature that depend on the point's configuration: a
# config error in purity, a row error in sweep
_POINT_FAILURES = (ZeroWavefunctionError, FloatingPointError)


# --------------------------------------------------------------------------
# config schemas

_POS = {"type": "number", "exclusiveMinimum": 0}
_RATIO = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_UNIT = {"enum": ["absolute", "b", "M_alpha"]}
# points on an axis: up to a million, so that a huge count is a config error
# rather than an array np.linspace cannot allocate
_NUM = {"type": "integer", "minimum": 1, "maximum": 1_000_000}
_N_OR_PAIR = {
    "oneOf": [
        {"type": "integer"},
        {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}


def _closed(props: dict, *required: str, **extra) -> dict:
    """An object schema that admits no key outside ``props``.

    Its keys come in one fixed order, which is the order in which jsonschema
    reports the errors that best_match picks a message from.
    """
    req = {"required": list(required)} if required else {}
    return {"type": "object", "properties": props, **req, **extra, "additionalProperties": False}


_MASSES = {
    "oneOf": [
        _closed({"mu1": _RATIO, "M": _POS}, "mu1"),
        _closed({"m1": _POS, "m2": _POS}, "m1", "m2"),
    ]
}

# types and shapes only: purity.check_ladder owns the defaults and value ranges
_ENGINE = _closed({"rel_tol": {"type": "number"}, "base_n": _N_OR_PAIR, "n_cap": _N_OR_PAIR})

_POTENTIAL_KINDS = [
    _closed({"kind": {"const": "hard_core"}}, "kind"),
    _closed({"kind": {"const": "delta"}, "alpha": _POS}, "kind", "alpha"),
    _closed(
        {
            "kind": {"const": "double_delta"},
            "alpha": _POS,
            "half_separation": _POS,
            "half_separation_times_strength": _POS,
        },
        "kind",
        "alpha",
        oneOf=[
            {"required": ["half_separation"]},
            {"required": ["half_separation_times_strength"]},
        ],
    ),
]
_POTENTIAL = {"oneOf": _POTENTIAL_KINDS}

_STATE_POINT = _closed(
    {
        "k": _POS,
        "k_over_b": _POS,
        "sigma1": _POS,
        "sigma2": _POS,
        "sigma1_over_k": _RATIO,
        "sigma2_over_k": _RATIO,
        "a1": {"type": "number"},
        "a2": {"type": "number"},
    },
    allOf=[
        {"oneOf": [{"required": ["k"]}, {"required": ["k_over_b"]}]},
        {
            "oneOf": [
                {"required": ["sigma1", "sigma2"]},
                {"required": ["sigma1_over_k", "sigma2_over_k"]},
            ]
        },
    ],
)

# q_grid of amplitudes and k_axis of sweep
_MOMENTUM_AXIS = _closed(
    {"start": _POS, "stop": _POS, "num": _NUM, "unit": _UNIT}, "start", "stop", "num"
)

AMPLITUDES_SCHEMA = _closed(
    {"masses": _MASSES, "potential": _POTENTIAL, "q_grid": _MOMENTUM_AXIS},
    "masses",
    "potential",
    "q_grid",
)

PURITY_SCHEMA = _closed(
    {
        "masses": _MASSES,
        "potential": {"oneOf": [*_POTENTIAL_KINDS, _closed({"kind": {"const": "none"}}, "kind")]},
        "state": _STATE_POINT,
        "engine": _ENGINE,
    },
    "masses",
    "potential",
    "state",
)

SWEEP_SCHEMA = _closed(
    {
        "masses": _MASSES,
        "potential": _POTENTIAL,
        "state": _closed(
            {"sigma1_over_k": _RATIO, "sigma2_over_k": _RATIO}, "sigma1_over_k", "sigma2_over_k"
        ),
        "k_axis": _MOMENTUM_AXIS,
        "engine": _ENGINE,
    },
    "masses",
    "potential",
    "state",
    "k_axis",
)


def _axis_schema(item: dict) -> dict:
    return {
        "oneOf": [
            _closed({"start": item, "stop": item, "num": _NUM}, "start", "stop", "num"),
            _closed({"values": {"type": "array", "items": item, "minItems": 1}}, "values"),
        ]
    }


REFLECTMAP_SCHEMA = _closed(
    {"mu1_axis": _axis_schema(_RATIO), "c_axis": _axis_schema(_POS)}, "mu1_axis", "c_axis"
)


# --------------------------------------------------------------------------
# config parsing

def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is out of range for a double")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)  # which reads an integer beyond a double's range as inf
    return int(text)


def _load_config(path: Path) -> Tuple[dict, str]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        # json.loads accepts NaN and Infinity, which RFC 8259 does not, reads
        # a number beyond a double's range, such as 1e400, as inf, and an
        # integer beyond it as an int that no float() downstream converts; no
        # schema bound stops any of them
        cfg = json.loads(
            raw, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_int
        )
    except ValueError as exc:  # also bytes that are not UTF-8
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
    try:
        if "mu1" in m:
            return MassPartition(mu1=m["mu1"], M=m.get("M", 1.0))
        return MassPartition.from_masses(m["m1"], m["m2"])  # m1 + m2 may overflow
    except ValueError as exc:
        raise ConfigError(f"$.masses: {exc}") from exc


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
    try:
        if "half_separation" in pot:
            a = pot["half_separation"]
        else:  # a may underflow to 0, and mu_red alpha too
            a = pot["half_separation_times_strength"] / (mp.mu_red * alpha)
        return AmplitudeModel.double_dirac_delta(alpha, a, mp)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"$.potential: {exc}") from exc


def _momentum_scale(unit: str, model: Optional[AmplitudeModel]) -> float:
    if unit == "absolute":
        return 1.0
    if model is None or not model.strength_scale:
        raise ConfigError(
            f"momentum unit '{unit}' needs a potential with a strength scale"
        )
    if unit == "b":
        return model.strength_scale
    return model.masses.M * model.alpha  # "M_alpha"


def _state_from(
    state_cfg: dict, mp: MassPartition, model: Optional[AmplitudeModel]
) -> GaussianInState:
    """The in-state of a state config; ValueError if the state rejects it."""
    if ("sigma1" in state_cfg or "sigma2" in state_cfg) and (
        "sigma1_over_k" in state_cfg or "sigma2_over_k" in state_cfg
    ):
        raise ValueError("mixes absolute and relative widths")
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
    return GaussianInState(
        k=k,
        sigma1=s1,
        sigma2=s2,
        masses=mp,
        a1=state_cfg.get("a1", 0.0),
        a2=state_cfg.get("a2", 0.0),
    )


def _engine_from(cfg: dict) -> dict:
    """Keyword arguments of purity_out: $.engine, completed and checked by
    :func:`check_ladder`.

    The config is the only source, so the config's SHA-256 in the output
    pins every setting.
    """
    try:
        return check_ladder(**cfg.get("engine", {}))
    except ValueError as exc:
        raise ConfigError(f"$.engine: {exc}") from exc


def _axis_values(axis_cfg: dict) -> np.ndarray:
    if "values" in axis_cfg:
        return np.asarray(axis_cfg["values"], dtype=float)
    # jsonschema counts a float such as 3.0 as an integer, which np.linspace rejects
    return np.linspace(axis_cfg["start"], axis_cfg["stop"], int(axis_cfg["num"]))


# --------------------------------------------------------------------------
# output helpers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
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
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(name for name, _ in columns)
    writer.writerows((_fmt(v) for v in row) for row in rows)


@contextlib.contextmanager
def _open_out(path: Optional[Path]):
    """Stdout, or a file written with '\\n' newlines; ConfigError if it cannot be opened.

    Commands open it before they compute, so that a bad --out fails at
    once. The file is not truncated on opening: it is written over from its
    start and cut after the last byte written when the block ends without
    an exception, so a run that fails first leaves an existing file as it
    was (and a new one empty).
    """
    if path is None:
        yield sys.stdout
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with open(fd, "w", newline="\n") as stream:
        yield stream
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or device cannot be cut
            stream.truncate()


# --------------------------------------------------------------------------
# subcommands

def _amplitudes(model: AmplitudeModel, q) -> AmplitudePair:
    """``model.amplitudes(q)``, or a ConfigError naming the first momentum
    where they are not finite, as where a scatterer's phase 2 q x overflows."""
    with np.errstate(all="ignore"):  # the check below reports it instead
        t, r = model.amplitudes(q)
    finite = np.ravel(np.isfinite(t) & np.isfinite(r))
    if not finite.all():
        q_bad = float(np.ravel(q)[np.argmin(finite)])
        raise ConfigError(f"amplitudes are not finite at absolute momentum q = {q_bad!r}")
    return AmplitudePair(t, r)


def cmd_amplitudes(cfg: dict, sha: str, out: Optional[Path]) -> int:
    _check_schema(cfg, AMPLITUDES_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    unit = cfg["q_grid"].get("unit", "absolute")
    q_axis = _axis_values(cfg["q_grid"])
    with np.errstate(over="ignore"):  # an infinite q reads as non-finite amplitudes
        q_abs = q_axis * _momentum_scale(unit, model)
    if not np.all(q_abs > 0.0):
        q_bad = float(q_axis[np.argmin(q_abs > 0.0)])
        raise ConfigError(f"momentum q = {q_bad!r} in '{unit}' units underflows to 0")
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
    with _open_out(out) as stream:
        t, r = _amplitudes(model, q_abs)
        T = np.abs(t) ** 2
        R = np.abs(r) ** 2
        resid = unitarity_residual(AmplitudePair(t, r))
        rows = zip(q_axis, t.real, t.imag, r.real, r.imag, T, R, resid)
        _write_csv(stream, "amplitudes", sha, columns, rows)
    return EXIT_OK


def _approximations(model: AmplitudeModel, state: GaussianInState) -> dict:
    """Constant-amplitude estimates at k. Aborts the run if |t|^2 + |r|^2 != 1:
    every amplitude the engine uses comes from the same model."""
    t_k, r_k = _amplitudes(model, state.k)
    pbar = reflected_gaussian_purity(state.masses, state.sigma1, state.sigma2)
    try:
        approx = ApproximationInput.from_amplitudes(t_k, r_k, pbar)
    except ValueError as exc:
        raise ConsistencyAbort(f"unitarity violated at k = {state.k!r}: {exc}") from exc
    return {
        "T": approx.T,
        "R": approx.R,
        "reflected_purity": pbar,
        "purity_C": approx.purity_C(),
        "purity_CR": approx.purity_CR(),
    }


def cmd_purity(cfg: dict, sha: str, out: Optional[Path], strict: bool) -> int:
    _check_schema(cfg, PURITY_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    try:
        state = _state_from(cfg["state"], mp, model)
    except ValueError as exc:
        raise ConfigError(f"$.state: {exc}") from exc
    eng = _engine_from(cfg)

    with _open_out(out) as stream:
        try:
            if model is None:
                report = purity_adaptive(
                    ModeWavefunction(Mode.IN, state),
                    mode_grid(state, Mode.IN, eng["base_n"]),
                    rel_tol=eng["rel_tol"],
                    n_cap=eng["n_cap"],
                )
                approximations = None
            else:
                approximations = _approximations(model, state)
                report = purity_out(state, model, **eng)
        except _POINT_FAILURES as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}") from exc

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
            "engine": eng,
            "approximations": approximations,
            "report": report.as_dict(),
        }
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if strict and not report.converged:
        print(
            f"strict: purity unconverged at grid {report.grid_n} "
            f"(refinement error {report.refinement_error:.3e}, squared norm {report.norm_sq:.6g})",
            file=sys.stderr,
        )
        return EXIT_UNCONVERGED
    return EXIT_OK


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
    ("overlap", "|<transmitted|reflected>|"),
    ("grid_N", "largest per-axis node count used"),
    ("est_error", "estimated relative error of the total"),
    (
        "converged",
        "true if the total's error estimate met rel_tol before the node caps"
        " and the squared norm lies within rel_tol of 1",
    ),
    ("error", "per-point failure message, empty on success"),
]


def _sweep_point(
    model: AmplitudeModel, widths: dict, eng: dict, k_axis: float, k: float
) -> dict:
    """One sweep row, keyed by SWEEP_COLUMNS names.

    A failure that depends on the point's configuration (the state rejects
    its widths, its amplitudes at k are not finite, or its wave function
    vanishes, has non-finite samples or is not resolved by the grid) fills
    only k, mu1 and error and leaves the numbers NaN. Anything else is a
    defect and propagates, so the sweep exits 1.
    """
    mp = model.masses
    row = dict.fromkeys((name for name, _ in SWEEP_COLUMNS), float("nan"))
    row.update(k=k_axis, mu1=mp.mu1, grid_N=0, converged=False, error=None)
    try:
        state = _state_from({"k": k, **widths}, mp, model)
        approx = _approximations(model, state)
    except (ValueError, ConfigError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    try:
        rep = purity_out(state, model, **eng, spectrum=False)  # no column prints it
    except _POINT_FAILURES as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update((name, v) for name, v in approx.items() if name in row)
    row.update(
        sigma1=state.sigma1,
        sigma2=state.sigma2,
        purity_exact=rep.purity,
        purity_tra=rep.purity_tra,
        purity_ref=rep.purity_ref,
        overlap=rep.overlap,
        grid_N=max(rep.grid_n),
        est_error=rep.refinement_error,
        converged=rep.converged,
    )
    return row


def cmd_sweep(cfg: dict, sha: str, out: Optional[Path], workers: int, strict: bool) -> int:
    _check_schema(cfg, SWEEP_SCHEMA)
    mp = _masses_from(cfg)
    model = _potential_from(cfg, mp)
    unit = cfg["k_axis"].get("unit", "absolute")
    scale = _momentum_scale(unit, model)
    k_axis = _axis_values(cfg["k_axis"])
    point = partial(_sweep_point, model, cfg["state"], _engine_from(cfg))
    with np.errstate(over="ignore"):  # an infinite k is its row's error
        ks, ks_abs = k_axis.tolist(), (k_axis * scale).tolist()
    names = [name for name, _ in SWEEP_COLUMNS]
    with _open_out(out) as stream:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(point, ks, ks_abs))
        _write_csv(stream, "sweep", sha, SWEEP_COLUMNS, ([r[n] for n in names] for r in rows))

    bad = [r for r in rows if not r["converged"] or r["error"]]
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
    with _open_out(out) as stream:
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

def _thread_count(text: str) -> int:
    """argparse type of ``--workers``: an int of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatter-entangle",
        description="Entanglement from two-body scattering off 1D potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no flag changes what a run computes: that is the config's alone
    def add_common(sp, with_strict=False):
        sp.add_argument("--config", required=True, type=Path, help="JSON config file")
        sp.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
        if with_strict:
            sp.add_argument(
                "--strict", action="store_true", help="exit 3 if any quadrature fails to converge"
            )

    add_common(sub.add_parser("amplitudes", help="t(q), r(q) table as CSV"))
    add_common(sub.add_parser("purity", help="single-point purity report as JSON"), True)
    sp_sweep = sub.add_parser("sweep", help="purity vs central momentum as CSV")
    add_common(sp_sweep, True)
    sp_sweep.add_argument(
        "--workers", type=_thread_count, default=1, help="thread count >= 1 (order-stable output)"
    )
    add_common(sub.add_parser("reflectmap", help="closed-form purity over (mu1, c) as CSV"))
    sub.add_parser("validate", help="run the physics self checks")
    return parser


# parse_args leaves the parser unchanged, so one parser serves every run
_parser = cache(build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate()
    try:
        cfg, sha = _load_config(args.config)
        if args.command == "amplitudes":
            return cmd_amplitudes(cfg, sha, args.out)
        if args.command == "purity":
            return cmd_purity(cfg, sha, args.out, args.strict)
        if args.command == "sweep":
            return cmd_sweep(cfg, sha, args.out, args.workers, args.strict)
        return cmd_reflectmap(cfg, sha, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConsistencyAbort as exc:
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return EXIT_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
