"""Seeded inputs, ops and per-op checks of the pvrh benchmark workloads.

Every op drives public entry points of the library (or the `pvrh` command
through `pvrh.cli.main`, in-process) and checks its own output. An op
returns its accuracy figure; a missed check raises `CheckFailed`. The
library only ever receives the generated inputs.

Input of op i depends only on (seed, i), so a run that measures longer
draws more inputs without changing the earlier ones. Functions of the
library are always looked up through their module at call time, so the
traced run's wrappers see every call.

Workloads (closed loop, one caller, next op only after the previous one
returns):

verify_double
    op: `pvrh solve PAIR --phi 0 --tol 1e-9`, then
    `pvrh verify --seed DESCRIPTOR --at X --tol 1e-9` (default bases).
    mix: R2_01 / R2_0 / R2_1 pairs in turn (DoublyTruncAK, TruncAK with
    direction +1, TruncAK with direction -1), random non-resonant real theta
    with 0.02 < |theta_j| < 0.45. X = |x| on the positive axis, cycling
    through the centres of the thirds of [15, 40] (27.5, 19.17, 35.83), so
    that every run covers the range at the same mean cost.
    checks: drift < 1e-3 (criterion 09); descriptor variant; for the
    DoublyTruncAK seed both corner entries vanish within 1e-3
    (criterion 07). TruncAK is a leading-order family that no criterion
    pins; its vanishing entry comes back at 1.5e-3 to 1.8e-2 on these rays,
    so its ops are checked on drift and variant. accuracy figure: the drift.
verify_mp
    op: `pvrh solve` then `pvrh verify ... --dps 30` on a pair from
    `build_trunc_family`. mix: Trunc00 / TruncInf0 in turn, random
    non-resonant theta as above, c0 = r e^{i a}, r in [0.5, 2],
    a in [-pi, pi). |x| cycling through the centres of the thirds of
    [16, 28] (22, 18, 26).
    checks: drift < 1e-3; the recovered pair classifies (tol 1e-9) into the
    built region (R3plus / R3minus). accuracy figure: the drift.
forward_sweep
    op: one fresh pair from the mix below: validate_pair -> char_coords /
    fricke_residual -> classify_region -> solve_rh, then 8 points on the
    ray |x| in [t0, t0 + 20], t0 in [20, 40] (elliptic: one solve_boutroux
    lookup per point as `pvrh eval` does; trunc: one formal series per op).
    mix: 25 % R1 at a fresh phi, |phi| in [0.02, pi/2 - 0.02] (Elliptic);
    10 % R1 at phi = 0 (Trig); 30 % the four generic Trunc variants built
    by build_trunc_family; 15 % resonant families built by
    build_trunc_nongeneric (cases 1-4, nu in {1, 2, 3} on the first
    branch, {2, 3} on the second, where nu = 1 leaves the constant
    invisible); 20 % R2_0 / R2_1 / R2_01. Non-R1 ops use phi = 0.
    checks: classify_region gives the built region; built families keep
    their variant and recover c0 to 1e-9 relative; elliptic modulus
    residuals < 1e-10; fricke residual < 1e-12 (criterion 02). accuracy
    figure: the worst of these errors.
ray_table
    op: one descriptor of a per-run set (6 Elliptic from random R1 pairs on
    the fixed directions ELLIPTIC_PHIS, 2 Trunc, 2 Trig), evaluated at 256
    points on its ray, |x| in [t0, t0 + 20], t0 in [20, 40], as
    `pvrh eval --emit-plot` does:
    solve_boutroux(phase(x)) per elliptic point, which hits the solution
    cache; points inside pole disks are skipped as the command skips them.
    checks: sn first-order identity below 1e-8 at every elliptic point
    (criterion 10, scaled by max(1, |sn'|^2) so points next to a pole
    disk compare relatively); pv_residual on 8 sub-grids of 9 points below
    1e-2 on trunc rays and below 1e2 on trig rays (leading-order family).
    accuracy figure: the worst identity defect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from pvrh import (
    asymptotics,
    boutroux_elliptic,
    char_variety,
    cli,
    mono_core,
    oracle,
    rh_dispatch,
)
from pvrh.errors import InsidePoleDisk, NearPole
from pvrh.mono_core import Mat2C, MonodromyPair, StokesMatrices, ThetaTriple

# Explicit validation tolerance, passed as --tol so PVRH_TOL cannot leak in.
TOL = 1e-9
DRIFT_BOUND = 1e-3          # criterion 09
SIGNATURE_BOUND = 1e-3      # criteria 07 / 08
FRICKE_BOUND = 1e-12        # criterion 02
C0_REL_BOUND = 1e-9
MODULUS_RESIDUAL_BOUND = 1e-10
SN_IDENTITY_BOUND = 1e-8    # criterion 10
# No criterion pins an absolute residual: these catch a broken evaluator,
# with margin over the seed commit's worst case on these rays (300 trunc
# rays: 4.4e-4, TruncInf0; 150 trig rays: 5.9, leading order only).
PV_RESIDUAL_BOUND = {"trunc": 1e-2, "trig": 1e2}

SERIES_ORDER = 8            # `pvrh eval --order` default
RAY_POINTS = 256
RAY_SPAN = 20.0             # `pvrh eval --plot-span` default
SWEEP_POINTS = 8
HALF_PI = 0.5 * math.pi

TRUNC_VARIANTS = ("Trunc00", "Trunc01", "TruncInf0", "TruncInf1")
TRUNC_REGION = {"Trunc00": "R3plus", "TruncInf0": "R3minus",
                "Trunc01": "R4minus", "TruncInf1": "R4plus"}


class CheckFailed(Exception):
    """An op returned, but its output missed a pinned check.

    figure is the op's accuracy figure when the missed check measured it.
    """

    def __init__(self, what: str, figure: Optional[float] = None):
        super().__init__(what)
        self.figure = figure


# ---------------------------------------------------------------------------
# seeded generators

def op_rng(seed: int, stream: str, i: int) -> random.Random:
    """Independent generator for input i of one stream of one run."""
    return random.Random(f"pvrh-bench:{seed}:{stream}:{i}")


def _theta_component(rng: random.Random) -> float:
    while True:
        t = rng.uniform(-0.45, 0.45)
        if abs(t) > 0.02:
            return t


def nonresonant_theta(rng: random.Random) -> ThetaTriple:
    """Real triple whose four signed sums stay 0.05 away from zero.

    With every |theta_j| < 0.45 the sums cannot reach another even
    integer, so every non-resonance condition holds.
    """
    while True:
        t0, t1, ti = (_theta_component(rng) for _ in range(3))
        if all(abs(t0 + s1 * t1 + s2 * ti) > 0.05
               for s1 in (1, -1) for s2 in (1, -1)):
            return ThetaTriple(t0, t1, ti)


def _unit_complex(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def thirds_cycle(i: int, lo: float, hi: float) -> float:
    """Centre of third (middle, low, high)[i % 3] of [lo, hi].

    Oracle cost grows about linearly with |x|, so a fixed cycle keeps the
    mean cost of a run's few ops the same on every seed.
    """
    third = (1, 0, 2)[i % 3]
    return lo + (hi - lo) * (third + 0.5) / 3.0


def r1_pair(rng: random.Random) -> MonodromyPair:
    """Generic pair (all four R1 entries nonzero) through Stokes data."""
    ti = _theta_component(rng)
    s1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
    s2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
    prod = mono_core.product_from_stokes(StokesMatrices(s1, s2, ti))
    t0 = _theta_component(rng)
    tr0 = 2.0 * math.cos(math.pi * t0)
    while True:
        a = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(c) < 0.3:
            continue
        b = (a * (tr0 - a) - 1.0) / c
        if abs(b) <= 4.0:
            break
    m0 = Mat2C(a, b, c, tr0 - a)
    m1 = prod @ m0.inv()
    t1 = cmath.acos(0.5 * m1.trace()) / cmath.pi
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, ti))


def r2_pair(rng: random.Random, region: str) -> MonodromyPair:
    """Pair with one (R2_0, R2_1) or both (R2_01) (1,1) entries zero."""
    th = nonresonant_theta(rng)
    t0, t1, ti = th.theta0, th.theta1, th.thetaInf
    w = cmath.exp(-1j * math.pi * ti)
    tr0 = 2.0 * math.cos(math.pi * t0)
    tr1 = 2.0 * math.cos(math.pi * t1)
    off = _unit_complex(rng, 0.5, 1.5)
    if region == "R2_01":
        m0 = Mat2C(0.0, -1.0 / off, off, tr0)
        m1_12 = w / off
        m1 = Mat2C(0.0, m1_12, -1.0 / m1_12, tr1)
    elif region == "R2_0":
        m1 = Mat2C(0.0, off, -1.0 / off, tr1)
        m0_21 = w / off
        a = _unit_complex(rng, 0.2, 0.8)
        m0 = Mat2C(a, (a * (tr0 - a) - 1.0) / m0_21, m0_21, tr0 - a)
    else:
        m0 = Mat2C(0.0, -1.0 / off, off, tr0)
        m1_12 = w / off
        b = _unit_complex(rng, 0.2, 0.8)
        m1 = Mat2C(b, m1_12, (b * (tr1 - b) - 1.0) / m1_12, tr1 - b)
    return MonodromyPair(m0, m1, th)


# Resonance relation of each (case, branch), solved for the theta component
# that does not enter the family's exponent mu, so the exponential
# correction stays small on the evaluated rays.
def _resonant_theta(case: int, branch: str, nu: int,
                    rng: random.Random) -> ThetaTriple:
    a, b = _theta_component(rng), _theta_component(rng)
    if case == 1:   # mu = 2 t1 + ti - 1: solve for t0
        t1, ti = a, b
        t0 = (t1 + ti + 2 * nu) if branch == "first" \
            else (-t1 - ti - 2 * (nu - 1))
    elif case == 2:  # mu = 2 t0 - ti - 1: solve for t1
        t0, ti = a, b
        t1 = (t0 - ti + 2 * nu) if branch == "first" \
            else (-t0 + ti - 2 * (nu - 1))
    elif case == 3:  # mu = 1 - 2 t1 + ti: solve for t0
        t1, ti = a, b
        t0 = (-t1 + ti + 2 * nu) if branch == "first" \
            else (t1 - ti - 2 * (nu - 1))
    else:           # mu = 1 - 2 t0 - ti: solve for t1
        t0, ti = a, b
        t1 = (-t0 - ti + 2 * nu) if branch == "first" \
            else (t0 + ti - 2 * (nu - 1))
    return ThetaTriple(t0, t1, ti)


# ---------------------------------------------------------------------------
# shared pieces of the ops

def run_cli(argv: List[str]) -> Dict:
    """`pvrh ARGV` in-process; the JSON envelope, or CheckFailed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    body = json.loads(buf.getvalue())
    if status != 0:
        raise CheckFailed(f"pvrh {argv[0]} exit {status}: {body.get('code')}"
                          f" {body.get('message')}")
    return body


def _require(ok: bool, what: str, figure: Optional[float] = None) -> None:
    if not ok:
        raise CheckFailed(what, figure)


def _ray(t0: float, phi: float, n: int) -> List[complex]:
    e = cmath.exp(1j * phi)
    return [(t0 + RAY_SPAN * j / (n - 1)) * e for j in range(n)]


def _elliptic_k(d) -> complex:
    k = cmath.sqrt(d.params["A"])
    return -k if k.real < 0 else k


def _sn_identity_defect(y: complex, yp: complex, k: complex) -> float:
    """Defect of sn'^2 = (1 - sn^2)(1 - k^2 sn^2), read back from (y, y').

    eval_elliptic returns y = (w + 1)/(w - 1) with w = k sn, and
    y' = -k sn' / (w - 1)^2; the identity is scaled by max(1, |sn'|^2).
    """
    w = (y + 1.0) / (y - 1.0)
    s = w / k
    sp = -yp * (w - 1.0) ** 2 / k
    rhs = (1.0 - s * s) * (1.0 - k * k * s * s)
    return abs(sp * sp - rhs) / max(1.0, abs(sp) ** 2)


def _eval_points(d, kind: str, xs: List[complex]
                 ) -> Tuple[List[complex], List[complex], float]:
    """Values at xs as `pvrh eval --emit-plot` makes them, pole disks skipped.

    Elliptic points look the modulus up per point; trunc descriptors build
    their formal series once per call. Returns the kept points, their
    values, and for elliptic descriptors the worst sn identity defect.
    """
    kept, ys = [], []
    worst = 0.0
    if kind == "elliptic":
        k = _elliptic_k(d)
        for x in xs:
            sol = boutroux_elliptic.solve_boutroux(cmath.phase(x))
            try:
                y, yp, _ = asymptotics.eval_elliptic(x, d, sol)
            except (InsidePoleDisk, NearPole):
                continue
            worst = max(worst, _sn_identity_defect(y, yp, k))
            kept.append(x)
            ys.append(y)
    elif kind == "trig":
        for x in xs:
            kept.append(x)
            ys.append(asymptotics.eval_trig(x, d))
    else:
        series = asymptotics.formal_series_pv(
            asymptotics.series_tag_for(d), d.theta, SERIES_ORDER)
        for x in xs:
            kept.append(x)
            ys.append(asymptotics.eval_trunc(x, d, series))
    return kept, ys, worst


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One benchmark workload: per-op inputs from (seed, i), and the op."""

    name = ""
    # Ops every run makes however short it is; accuracy_digits and the
    # traced run's call counts are taken over exactly these ops.
    prefix_ops = 1
    # ops_per_s is the median rate over consecutive windows of this many
    # ops, which a burst of load on the machine moves less than the mean;
    # a run ends on a whole window, so every run has the same input mix.
    # prefix_ops is a multiple of it.
    window_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def op_input(self, i: int) -> Dict:
        raise NotImplementedError

    def run_op(self, inp: Dict) -> float:
        raise NotImplementedError

    @staticmethod
    def describe(inp: Dict) -> str:
        """Canonical text of an input, for the determinism digest."""
        return repr(sorted((k, repr(v)) for k, v in inp.items()))


class VerifyDouble(Workload):
    name = "verify_double"
    prefix_ops = 3
    window_ops = 3
    REGIONS = ("R2_01", "R2_0", "R2_1")
    VARIANTS = {"R2_01": "DoublyTruncAK", "R2_0": "TruncAK", "R2_1": "TruncAK"}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.offset = op_rng(seed, self.name, -1).randrange(3)

    def op_input(self, i: int) -> Dict:
        rng = op_rng(self.seed, self.name, i)
        region = self.REGIONS[(i + self.offset) % 3]
        return {"region": region, "pair": r2_pair(rng, region),
                "t": thirds_cycle(i, 15.0, 40.0)}

    def run_op(self, inp: Dict) -> float:
        pair_json = json.dumps(mono_core.pair_to_json_obj(inp["pair"]))
        desc = run_cli(["solve", pair_json, "--phi", "0", "--tol", repr(TOL)])
        want = self.VARIANTS[inp["region"]]
        _require(desc["variant"] == want,
                 f"variant {desc['variant']} for {inp['region']}")
        out = run_cli(["verify", "--seed", json.dumps(desc),
                       "--at", repr(inp["t"]), "--tol", repr(TOL)])
        drift = float(out["drift"])
        _require(drift < DRIFT_BOUND, f"drift {drift:.3e}", drift)
        if inp["region"] == "R2_01":
            got = mono_core.pair_from_json_obj(out["pair"])
            w = cmath.exp(-1j * math.pi * inp["pair"].theta.thetaInf)
            sig = max(abs(got.m0.m11), abs(got.m1.m11),
                      abs(got.m0.m21 * got.m1.m12 - w))
            _require(sig < SIGNATURE_BOUND, f"corner entries {sig:.3e}")
        return drift


class VerifyMp(Workload):
    name = "verify_mp"
    prefix_ops = 3
    window_ops = 3
    VARIANTS = ("Trunc00", "TruncInf0")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.offset = op_rng(seed, self.name, -1).randrange(2)

    def op_input(self, i: int) -> Dict:
        rng = op_rng(self.seed, self.name, i)
        return {"variant": self.VARIANTS[(i + self.offset) % 2],
                "theta": nonresonant_theta(rng),
                "c0": _unit_complex(rng, 0.5, 2.0),
                "t": thirds_cycle(i, 16.0, 28.0)}

    def run_op(self, inp: Dict) -> float:
        variant = inp["variant"]
        pair, _ = asymptotics.build_trunc_family(variant, inp["c0"],
                                                 inp["theta"], 1.0)
        pair_json = json.dumps(mono_core.pair_to_json_obj(pair))
        desc = run_cli(["solve", pair_json, "--phi", "0", "--tol", repr(TOL)])
        _require(desc["variant"] == variant, f"variant {desc['variant']}")
        out = run_cli(["verify", "--seed", json.dumps(desc),
                       "--at", repr(inp["t"]), "--tol", repr(TOL),
                       "--dps", "30"])
        drift = float(out["drift"])
        _require(drift < DRIFT_BOUND, f"drift {drift:.3e}", drift)
        got = mono_core.pair_from_json_obj(out["pair"])
        region = mono_core.classify_region(got, zero_tol=TOL).tag
        _require(region == TRUNC_REGION[variant], f"recovered region {region}")
        return drift


class ForwardSweep(Workload):
    name = "forward_sweep"
    prefix_ops = 300
    window_ops = 100
    MIX = (("elliptic", 0.25), ("trig", 0.10), ("trunc", 0.30),
           ("nongeneric", 0.15), ("r2", 0.20))
    NG_CHOICES = tuple((case, branch, nu) for case in (1, 2, 3, 4)
                       for branch, nus in (("first", (1, 2, 3)),
                                           ("second", (2, 3)))
                       for nu in nus)

    def op_input(self, i: int) -> Dict:
        rng = op_rng(self.seed, self.name, i)
        u = rng.random()
        for kind, share in self.MIX:
            if u < share:
                break
            u -= share
        inp = {"kind": kind, "phi": 0.0, "t0": rng.uniform(20.0, 40.0)}
        if kind == "elliptic":
            inp["pair"] = r1_pair(rng)
            inp["phi"] = rng.choice((1.0, -1.0)) * rng.uniform(0.02,
                                                               HALF_PI - 0.02)
        elif kind == "trig":
            inp["pair"] = r1_pair(rng)
        elif kind == "trunc":
            inp["variant"] = rng.choice(TRUNC_VARIANTS)
            inp["theta"] = nonresonant_theta(rng)
            inp["c0"] = _unit_complex(rng, 0.5, 2.0)
            inp["utilde"] = _unit_complex(rng, 0.5, 2.0)
        elif kind == "nongeneric":
            case, branch, nu = rng.choice(self.NG_CHOICES)
            inp.update(case=case, branch=branch, nu=nu,
                       theta=_resonant_theta(case, branch, nu, rng),
                       c0=_unit_complex(rng, 0.5, 2.0),
                       utilde=_unit_complex(rng, 0.5, 2.0))
        else:
            inp["region"] = rng.choice(("R2_0", "R2_1", "R2_01"))
            inp["pair"] = r2_pair(rng, inp["region"])
        return inp

    def run_op(self, inp: Dict) -> float:
        kind = inp["kind"]
        c0 = None
        if kind == "trunc":
            pair, _ = asymptotics.build_trunc_family(
                inp["variant"], inp["c0"], inp["theta"], inp["utilde"])
            want_region, want_variant = TRUNC_REGION[inp["variant"]], inp["variant"]
            c0 = inp["c0"]
        elif kind == "nongeneric":
            pair, _ = asymptotics.build_trunc_nongeneric(
                inp["case"], inp["branch"], inp["nu"], inp["c0"],
                inp["theta"], inp["utilde"])
            want_region, want_variant = "R5", "NonGeneric"
            c0 = inp["c0"]
        elif kind == "r2":
            pair = inp["pair"]
            want_region = inp["region"]
            want_variant = VerifyDouble.VARIANTS[want_region]
        else:
            pair = inp["pair"]
            want_region = "R1"
            want_variant = "Elliptic" if kind == "elliptic" else "Trig"

        report = mono_core.validate_pair(pair.m0, pair.m1, pair.theta, TOL)
        _require(report.ok, "pair fails validation")
        fricke = abs(char_variety.fricke_residual(char_variety.char_coords(pair)))
        _require(fricke < FRICKE_BOUND, f"fricke residual {fricke:.3e}",
                 fricke)
        region = mono_core.classify_region(pair, zero_tol=TOL).tag
        _require(region == want_region, f"region {region}, built {want_region}")
        d = rh_dispatch.solve_rh(pair, inp["phi"], zero_tol=TOL)
        _require(d.variant == want_variant, f"variant {d.variant}")
        worst = fricke
        if c0 is not None:
            if kind == "nongeneric":
                _require(d.case == inp["case"], f"case {d.case}")
            err = abs(d.params["c0"] - c0) / abs(c0)
            _require(err < C0_REL_BOUND, f"c0 relative error {err:.3e}", err)
            worst = max(worst, err)
        if kind == "elliptic":
            sol = boutroux_elliptic.solve_boutroux(inp["phi"])
            res = max(abs(r) for r in sol.residuals)
            _require(res < MODULUS_RESIDUAL_BOUND,
                     f"modulus residual {res:.3e}", res)
            worst = max(worst, res)
        xs = _ray(inp["t0"], inp["phi"], SWEEP_POINTS)
        eval_kind = {"Elliptic": "elliptic", "Trig": "trig"}.get(d.variant,
                                                                 "trunc")
        _eval_points(d, eval_kind, xs)
        return worst


class RayTable(Workload):
    name = "ray_table"
    prefix_ops = 30
    window_ops = 10
    # The cost of an elliptic point depends on the modulus alone, and
    # erratically (the AGM in jacobi_sn stalls for some moduli), so the
    # directions are fixed: every run reads the same six moduli.
    ELLIPTIC_PHIS = tuple((-1) ** j * (0.05 + 1.45 * (j + 0.5) / 6.0)
                          for j in range(6))
    KINDS = ("elliptic", "trunc", "elliptic", "elliptic", "trig",
             "elliptic", "trunc", "elliptic", "elliptic", "trig")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = op_rng(seed, self.name, -1)
        self.descriptors = []
        phis = list(self.ELLIPTIC_PHIS)
        for kind in self.KINDS:
            if kind == "elliptic":
                phi = phis.pop()
                d = rh_dispatch.solve_rh(r1_pair(rng), phi, zero_tol=TOL)
            elif kind == "trig":
                phi = 0.0
                d = rh_dispatch.solve_rh(r1_pair(rng), phi, zero_tol=TOL)
            else:
                phi = 0.0
                _, d = asymptotics.build_trunc_family(
                    rng.choice(TRUNC_VARIANTS), _unit_complex(rng, 0.5, 2.0),
                    nonresonant_theta(rng), 1.0)
            self.descriptors.append((kind, phi, d))

    def op_input(self, i: int) -> Dict:
        rng = op_rng(self.seed, self.name, i)
        kind, phi, d = self.descriptors[i % len(self.descriptors)]
        return {"slot": i % len(self.descriptors), "kind": kind, "phi": phi,
                "t0": rng.uniform(20.0, 40.0)}

    def describe(self, inp: Dict) -> str:
        _, _, d = self.descriptors[inp["slot"]]
        return super().describe(inp) + repr(sorted(
            (k, repr(v)) for k, v in d.params.items()))

    def run_op(self, inp: Dict) -> float:
        kind, phi, d = self.descriptors[inp["slot"]]
        xs = _ray(inp["t0"], phi, RAY_POINTS)
        kept, ys, defect = _eval_points(d, kind, xs)
        if kind == "elliptic":
            _require(defect < SN_IDENTITY_BOUND, f"sn identity {defect:.3e}",
                     defect)
            return defect
        bound = PV_RESIDUAL_BOUND[kind]
        for start in range(0, RAY_POINTS - 9, (RAY_POINTS - 9) // 7):
            res = oracle.pv_residual(kept[start:start + 9], ys[start:start + 9],
                                     d.theta)
            _require(res < bound, f"pv residual {res:.3e} on the {kind} ray")
        return 0.0


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (VerifyDouble, VerifyMp, ForwardSweep, RayTable)
}
