"""The three benchmark workloads: seeded inputs, the timed call, output checks.

Each workload yields *rounds* of points from its seed. A point is prepared
outside the timed region (state objects, config files), run as one timed
call into the package, and checked afterwards, again outside the timed
region. Seed 0 reproduces the layouts of ROADMAP.md exactly; other seeds
jitter them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_TINY = 1e-12


@dataclass
class Point:
    label: str
    ref_key: Optional[int]  # index into the seed-0 reference list, if any
    payload: dict


@dataclass
class Outcome:
    purity: Optional[float]
    converged: bool
    errors: list


def _check_purity(p, errors):
    if not (isinstance(p, float) and 0.0 < p <= 1.0 + _TINY):
        errors.append(f"purity {p!r} outside (0, 1]")
        return False
    return True


def _check_split(p, p_tra, p_ref, errors):
    if abs(p_tra + p_ref - p) > 4e-16 * p:
        errors.append(f"purity_tra + purity_ref = {p_tra + p_ref!r} != purity {p!r}")


def _check_spectrum(p, spectrum, full_rank, errors):
    """Spectrum sums to 1 and sum(lambda^2) = purity.

    The CLI prints only the head of the spectrum; the entries it drops are
    each below the last printed one and sum to 1 - sum(head), which bounds
    what they add to sum(lambda^2).
    """
    lam = np.asarray(spectrum, dtype=float)
    total = float(lam.sum())
    sq = float(np.sum(lam * lam))
    if np.any(lam < 0.0):
        errors.append("negative Schmidt weight")
    if len(lam) == full_rank:
        if abs(total - 1.0) > _TINY:
            errors.append(f"spectrum sums to {total!r}")
        if abs(sq - p) > _TINY * p:
            errors.append(f"sum(lambda^2) = {sq!r} != purity {p!r}")
        return
    missing = max(1.0 - total, 0.0)
    if total > 1.0 + _TINY:
        errors.append(f"spectrum head sums to {total!r} > 1")
    if not -_TINY * p <= p - sq <= lam[-1] * missing + _TINY * p:
        errors.append(f"sum(lambda^2) of head = {sq!r} inconsistent with purity {p!r}")


class Workload:
    name: str
    rel_tol: float

    def __init__(self, pkg, seed: int, workdir):
        self.pkg = pkg
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.references = None  # seed-0 purities, set by the caller

    def rounds(self):
        raise NotImplementedError

    def prepare(self, point: Point) -> Callable[[], object]:
        raise NotImplementedError

    def check(self, point: Point, out) -> Outcome:
        raise NotImplementedError

    def check_reference(self, point: Point, outcome: Outcome) -> None:
        """Seed 0 only: converged purities must match the stored references."""
        if self.references is None or point.ref_key is None or not outcome.converged:
            return
        if point.ref_key >= len(self.references) or outcome.purity is None:
            return
        ref = self.references[point.ref_key]
        if abs(outcome.purity - ref) > 10.0 * self.rel_tol * abs(ref):
            outcome.errors.append(
                f"purity {outcome.purity!r} differs from seed-0 reference {ref!r}"
            )

    def _cli(self, argv):
        cli = self.pkg.cli
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
            return rc, buf.getvalue()

        return call

    def _config(self, name: str, cfg: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(cfg))
        return str(path)


class ResonanceLadder(Workload):
    """Library ``purity_out`` on the layout of acceptance criterion 10."""

    name = "resonance_ladder"
    rel_tol = 1e-5
    # widest first: the cold node sets of the 1024-, 2048- and 4096-node axes
    # land on the w = 5 points, which sit in the tail anyway
    BANDS = ((5.0, -1), (5.0, +1), (10.0, -1), (10.0, +1), (50.0, -1), (50.0, +1))
    SEED0_OFFSETS = (0.018, 0.022, 0.027, 0.033)
    # The ladder depth of the w = 10 points changes within 2e-4 b of 0.018,
    # so wider jitter would switch a run's median between two ladder depths.
    JITTER = 5e-5

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.mp = pkg.MassPartition(0.2)
        self.model = pkg.AmplitudeModel.double_dirac_delta(
            1.0 / self.mp.mu_red, 10.0, self.mp
        )
        self.q_star = float(pkg.find_resonances(self.model, (0.01, 1.0), count=1)[0])

    def rounds(self):
        r = 0
        while True:
            points = []
            for rr in (2 * r % 4, (2 * r + 1) % 4):
                for j, (w, side) in enumerate(self.BANDS):
                    off = self.SEED0_OFFSETS[rr]
                    if self.seed == 0:
                        key = rr * len(self.BANDS) + j
                    else:
                        off += float(self.rng.uniform(-self.JITTER, self.JITTER))
                        key = None
                    label = f"w{w:g}{'+' if side > 0 else '-'}{off:.5f}"
                    points.append(Point(label, key, {"k": self.q_star + side * off, "w": w}))
            yield points
            r += 1

    def prepare(self, point):
        pkg, k, w = self.pkg, point.payload["k"], point.payload["w"]
        state = pkg.GaussianInState(k=k, sigma1=k / w, sigma2=k / (2 * w), masses=self.mp)
        model = self.model
        purity_out = pkg.purity.purity_out  # looked up now, so a traced pass sees its wrapper

        def call():
            return purity_out(
                state, model, rel_tol=self.rel_tol, base_n=(128, 64), n_cap=(4096, 1024)
            )

        return call

    def check(self, point, rep):
        errors = []
        p = rep.purity
        if _check_purity(p, errors):
            _check_split(p, rep.purity_tra, rep.purity_ref, errors)
            _check_spectrum(p, rep.schmidt_spectrum, len(rep.schmidt_spectrum), errors)
        return Outcome(p, bool(rep.converged), errors)


class ReferenceSweep(Workload):
    """CLI ``sweep --workers 1`` on the ROADMAP reference config, row by row."""

    name = "reference_sweep"
    rel_tol = 1e-5
    CONFIG = {
        "masses": {"mu1": 0.2},
        "potential": {
            "kind": "double_delta",
            "alpha": 6.25,
            "half_separation_times_strength": 10.0,
        },
        "state": {"sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
        "k_axis": {"start": 0.05, "stop": 0.6, "num": 24, "unit": "b"},
        "engine": {"rel_tol": 1e-5, "base_n": 64, "n_cap": 1024},
    }
    # even rows form the first round and odd rows the second, so a run of
    # whole rounds samples the whole axis
    ROUNDS = 2

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        axis = self.CONFIG["k_axis"]
        k_axis = np.linspace(axis["start"], axis["stop"], axis["num"])
        step = float(k_axis[1] - k_axis[0])
        shift = 0.0 if seed == 0 else float(self.rng.uniform(0.0, 0.02)) * step
        self.k_axis = k_axis + shift
        mp = pkg.MassPartition(self.CONFIG["masses"]["mu1"])
        pot = self.CONFIG["potential"]
        alpha = pot["alpha"]
        self.mp = mp
        self.model = pkg.AmplitudeModel.double_dirac_delta(
            alpha, pot["half_separation_times_strength"] / (mp.mu_red * alpha), mp
        )
        self.columns = [name for name, _ in pkg.cli.SWEEP_COLUMNS]

    def rounds(self):
        while True:
            for c in range(self.ROUNDS):
                yield [
                    Point(f"row{i}", i if self.seed == 0 else None, {"k": float(self.k_axis[i])})
                    for i in range(c, len(self.k_axis), self.ROUNDS)
                ]

    def prepare(self, point):
        cfg = dict(self.CONFIG)
        k = point.payload["k"]
        cfg["k_axis"] = {"start": k, "stop": k, "num": 1, "unit": "b"}
        path = self._config("sweep.json", cfg)
        return self._cli(["sweep", "--config", path, "--workers", "1"])

    def check(self, point, out):
        rc, text = out
        errors = []
        if rc != 0:
            return Outcome(None, False, [f"exit code {rc}"])
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if len(lines) != 2 or lines[0].split(",") != self.columns:
            return Outcome(None, False, ["malformed sweep CSV"])
        row = dict(zip(self.columns, lines[1].split(",")))
        if row["error"]:
            return Outcome(None, False, [f"row error: {row['error']}"])
        p = float(row["purity_exact"])
        if _check_purity(p, errors):
            _check_split(p, float(row["purity_tra"]), float(row["purity_ref"]), errors)

        an = self.pkg.analytic
        k_abs = point.payload["k"] * self.model.strength_scale
        t, r = self.model.amplitudes(k_abs)
        s1 = self.CONFIG["state"]["sigma1_over_k"] * k_abs
        s2 = self.CONFIG["state"]["sigma2_over_k"] * k_abs
        pbar = an.reflected_gaussian_purity(self.mp, s1, s2)
        for col, want in (
            ("purity_C", an.approx_C(abs(t) ** 2, abs(r) ** 2)),
            ("purity_CR", an.approx_CR(t, r, pbar)),
        ):
            got = float(row[col])
            if abs(got - want) > 1e-12 * want:
                errors.append(f"{col} = {got!r}, analytic {want!r}")
        return Outcome(p, row["converged"] == "true", errors)


class LightPoints(Workload):
    """In-process ``cli.run(["purity", ...])`` on hard-core and delta configs."""

    name = "light_points"
    rel_tol = 1e-6  # the engine default, which these configs use

    # the corners of the parameter box, where the ladder is deepest (512^2);
    # every run opens with them, so its slowest points and its peak memory
    # do not hinge on a rare draw
    CORNERS = [
        (mu1, s1, s2, kb)
        for mu1 in (0.1, 0.9)
        for s1, s2 in ((0.3, 0.05), (0.05, 0.3))
        for kb in (None, 0.3, 3.0)
    ]

    @staticmethod
    def _point(label, key, mu1, s1, s2, kb):
        """Hard core if ``kb`` is None, else a single delta at k/b = kb."""
        state = {"sigma1_over_k": float(s1), "sigma2_over_k": float(s2)}
        if kb is None:
            potential = {"kind": "hard_core"}
            state["k"] = 1.0
        else:
            potential = {"kind": "delta", "alpha": 1.0}
            state["k_over_b"] = float(kb)
        cfg = {"masses": {"mu1": float(mu1)}, "potential": potential, "state": state}
        return Point(f"{potential['kind']}#{label}", key, cfg)

    def rounds(self):
        seed0 = self.seed == 0
        yield [
            self._point(f"corner{j}", j if seed0 else None, *corner)
            for j, corner in enumerate(self.CORNERS)
        ]
        i = 0
        while True:
            mu1, s1, s2, kb = self.rng.uniform((0.1, 0.05, 0.05, 0.3), (0.9, 0.3, 0.3, 3.0))
            key = len(self.CORNERS) + i if seed0 else None
            yield [self._point(i, key, mu1, s1, s2, None if i % 2 == 0 else kb)]
            i += 1

    def prepare(self, point):
        path = self._config("purity.json", point.payload)
        return self._cli(["purity", "--config", path])

    def check(self, point, out):
        rc, text = out
        if rc != 0:
            return Outcome(None, False, [f"exit code {rc}"])
        errors = []
        rep = json.loads(text)["report"]
        p = rep["purity"]
        if _check_purity(p, errors):
            _check_split(p, rep["purity_tra"], rep["purity_ref"], errors)
            _check_spectrum(p, rep["schmidt_spectrum"], rep["schmidt_rank_full"], errors)
            cfg = point.payload
            if cfg["potential"]["kind"] == "hard_core":
                st = cfg["state"]
                mp = self.pkg.MassPartition(cfg["masses"]["mu1"])
                want = self.pkg.analytic.reflected_gaussian_purity(
                    mp, st["sigma1_over_k"], st["sigma2_over_k"]
                )
                if abs(p - want) > self.rel_tol * want:
                    errors.append(f"hard core purity {p!r} != closed form {want!r}")
        return Outcome(p, bool(rep["converged"]), errors)


WORKLOADS = {w.name: w for w in (ResonanceLadder, ReferenceSweep, LightPoints)}
