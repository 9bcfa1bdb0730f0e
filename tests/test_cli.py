import cmath
import io
import json
import math
import random

import pytest

from pvrh import asymptotics, cli
from pvrh.asymptotics import (
    FormalSeries,
    build_trunc_family,
    build_trunc_nongeneric,
    eval_elliptic,
    eval_trig,
    eval_trunc,
    family_at,
    formal_series_pv,
    phase_shift_breve,
    phase_shift_x0,
    series_tag_for,
)
from pvrh.boutroux_elliptic import solve_boutroux
from pvrh.char_variety import char_coords, fricke_ok
from pvrh.errors import InsidePoleDisk
from pvrh.mono_core import ThetaTriple, pair_from_json_obj, pair_to_json_obj
from pvrh.rh_dispatch import solve_rh, verify

from support import (
    THETA_DESK,
    doubly_truncated_pair,
    formal_series_reference,
    identity_loop_pair,
    pair_diff,
    r2_0_pair,
    random_valid_pair,
)


README_PAIR = ('{"theta": [[0.5,0],[0.5,0],[1,0]], '
               '"m0": [[[0,0],[1,0]],[[-1,0],[0,0]]], '
               '"m1": [[[0,0],[1,0]],[[-1,0],[0,0]]]}')


def run_cli(capsys, argv):
    status = cli.main(argv)
    return status, capsys.readouterr().out


def dtc_json() -> str:
    return json.dumps(pair_to_json_obj(doubly_truncated_pair(THETA_DESK)))


def test_classify_emits_region_and_schema(capsys):
    status, out = run_cli(capsys, ["classify", dtc_json()])
    assert status == 0
    body = json.loads(out)
    assert body["schema"] == cli.SCHEMA_VERSION == "2.0.0"
    assert body["region"] == "R2_01"
    assert body["coords"] == {}


def test_classify_reads_pair_from_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(dtc_json(), encoding="utf-8")
    status, out = run_cli(capsys, ["classify", str(path)])
    assert status == 0
    assert json.loads(out)["region"] == "R2_01"


def test_classify_half_integer_example(capsys):
    rot = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]
    pair = {"theta": [[0.5, 0.0], [0.5, 0.0], [1.0, 0.0]],
            "m0": rot, "m1": rot}
    status, out = run_cli(capsys, ["classify", json.dumps(pair)])
    assert status == 0
    assert json.loads(out)["region"] == "R2_01"


def test_fricke_output_shape(capsys):
    status, out = run_cli(capsys, ["fricke", dtc_json()])
    assert status == 0
    body = json.loads(out)
    assert len(body["point"]) == 3
    assert body["point"][0] == [0.0, 0.0]
    assert body["point"][1] == [0.0, 0.0]
    re, im = body["residual"]
    assert math.hypot(re, im) < 1e-12
    assert len(body["ambient"]) == 3


def test_boutroux_axis_values_and_plot(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    status, out = run_cli(capsys, ["boutroux", "--phi", "0",
                                   "--grid", "5", "--emit-plot", str(csv)])
    assert status == 0
    assert '"A":[0,0]' in out
    assert '"omegaB":null' in out
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "phi,reA,imA"
    assert len(lines) == 6
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 0.5 * math.pi) < 1e-12


def test_output_is_byte_deterministic(capsys):
    _, first = run_cli(capsys, ["boutroux", "--phi", "0.7"])
    _, second = run_cli(capsys, ["boutroux", "--phi", "0.7"])
    assert first == second
    _, third = run_cli(capsys, ["classify", dtc_json()])
    _, fourth = run_cli(capsys, ["classify", dtc_json()])
    assert third == fourth


@pytest.mark.parametrize("order", [8, 16])
def test_solve_then_eval_round_trip(capsys, order):
    status, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    assert status == 0
    body = json.loads(solved)
    assert body["variant"] == "DoublyTruncAK"
    assert body["params"] == {}

    status, out = run_cli(capsys, ["eval", solved.strip(), "--at", "25",
                                   "--order", str(order)])
    assert status == 0
    ev = json.loads(out)
    assert ev["at"] == [25.0, 0.0]
    assert ev["kind"] == "trunc"
    ser = FormalSeries("minus_one", THETA_DESK, order, 0, tuple(
        formal_series_reference("minus_one", THETA_DESK, order)))
    want = ser.eval(25.0)
    assert abs(complex(*ev["y"]) - want) < 1e-12
    assert abs(complex(*ev["yprime"]) - ser.eval_deriv(25.0)) < 1e-8


def test_eval_plot_csv(tmp_path, capsys):
    _, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    csv = tmp_path / "ray.csv"
    status, _ = run_cli(capsys, ["eval", solved.strip(),
                                 "--at", "25", "--grid", "4",
                                 "--plot-span", "3", "--emit-plot", str(csv)])
    assert status == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_re,x_im,y_re,y_im"
    assert len(lines) == 5
    row = [float(v) for v in lines[1].split(",")]
    assert abs(row[0] - 25.0) < 1e-12 and row[1] == 0.0


# a pair for each variant solve_rh returns, and the direction it is solved at
_PAIR_OF_VARIANT = {
    "Elliptic": (random_valid_pair, 0.7),
    "Trig": (random_valid_pair, 0.0),
    "TruncAK": (lambda rng: r2_0_pair(), 0.0),
    "DoublyTruncAK": (lambda rng: doubly_truncated_pair(THETA_DESK), 0.3),
    "TruncInf1": (lambda rng: build_trunc_family(
        "TruncInf1", 0.7 - 0.4j, THETA_DESK, 1.0)[0], 0.0),
    "NonGeneric": (lambda rng: build_trunc_nongeneric(
        1, "first", 1, 0.8 - 0.4j, ThetaTriple(1.2, -0.5, -0.3),
        1.3 + 0.2j)[0], 0.0),
}


@pytest.mark.parametrize("variant", [
    pytest.param("TruncInf1", id="trunc-0.0"),
    pytest.param("Trig", id="trig-0.0"),
    pytest.param("Elliptic", id="elliptic-0.7"),
    pytest.param("TruncAK", id="trunc-0.0-TruncAK"),
    pytest.param("DoublyTruncAK", id="trunc-0.3-DoublyTruncAK"),
    pytest.param("NonGeneric", id="trunc-0.0-NonGeneric"),
])
def test_eval_plot_rows_are_point_values(rng, tmp_path, capsys, monkeypatch,
                                         variant):
    # the descriptor alone picks the family: the envelope names its kind and
    # holds its value at the point, which is the library's family_at, one
    # series is built per command, and each row is the family's value at
    # its point
    make_pair, phi = _PAIR_OF_VARIANT[variant]
    d = solve_rh(make_pair(rng), phi)
    assert d.variant == variant
    kind = {"Elliptic": "elliptic", "Trig": "trig"}.get(variant, "trunc")
    built = []

    def counted_series(*args):
        built.append(args)
        return formal_series_pv(*args)

    monkeypatch.setattr(asymptotics, "formal_series_pv", counted_series)
    csv = tmp_path / "ray.csv"
    x = 22.0 * cmath.exp(1j * phi)
    status, out = run_cli(capsys, [
        "eval", cli.dumps_canonical(cli.descriptor_to_json_obj(d)),
        "--at", f"{x.real!r},{x.imag!r}", "--grid", "33",
        "--plot-span", "8", "--emit-plot", str(csv)])
    assert status == 0
    assert len(built) == (kind == "trunc")
    series = formal_series_pv(series_tag_for(d), d.theta, 8) \
        if kind == "trunc" else None
    body = json.loads(out)
    assert body["kind"] == kind
    assert [complex(*body[k]) for k in ("y", "yprime", "zfrak")] \
        == list(family_at(d, x))
    if kind == "elliptic":
        want = eval_elliptic(x, d, solve_boutroux(cmath.phase(x)))
        assert [complex(*body[k]) for k in ("y", "yprime", "zfrak")] \
            == list(want)
    else:
        want = eval_trunc(x, d, series) if kind == "trunc" else eval_trig(x, d)
        assert complex(*body["y"]) == want
    lines = ["x_re,x_im,y_re,y_im"]
    e = x / abs(x)
    for i in range(33):
        xi = (abs(x) + 8.0 * i / 32) * e
        if kind == "trunc":
            yi = eval_trunc(xi, d, series)
        elif kind == "trig":
            yi = eval_trig(xi, d)
        else:
            try:
                yi = eval_elliptic(xi, d, solve_boutroux(cmath.phase(xi)))[0]
            except InsidePoleDisk:
                continue
        lines.append(",".join(cli._num(v) for v in
                              (xi.real, xi.imag, yi.real, yi.imag)))
    assert csv.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_verify_closes_the_loop_and_plots(tmp_path, capsys):
    _, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    csv = tmp_path / "traj.csv"
    status, out = run_cli(capsys, ["verify", "--seed", solved.strip(),
                                   "--at", "12", "--grid", "9",
                                   "--emit-plot", str(csv)])
    assert status == 0
    body = json.loads(out)
    assert body["bases"][-1] == 12.0
    assert body["drift"] < 1e-6
    assert max(body["residuals"].values()) < 1e-6
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_re,x_im,y_re,y_im,z_re,z_im"
    assert len(lines) == 10

    # the library call behind the command, on the README's descriptor (its
    # half-integer R2_01 pair solved at phi = 0.3): the same bases, pair and
    # drift
    _, solved = run_cli(capsys, ["solve", README_PAIR, "--phi", "0.3"])
    status, out = run_cli(capsys, ["verify", "--seed", solved.strip(),
                                   "--at", "12"])
    assert status == 0
    body = json.loads(out)
    report = verify(cli.descriptor_from_json_obj(json.loads(solved)), 12 + 0j)
    assert list(report.bases) == body["bases"]
    assert pair_diff(report.pair, pair_from_json_obj(body["pair"])) == 0.0
    assert report.drift == body["drift"]


def test_verify_reports_numeric_failure_with_exit_3(capsys):
    # a first-kind seed tuned so the solution value lands on the movable
    # singularity at the seeding point itself
    _, d = build_trunc_family("Trunc00", 1.0, THETA_DESK, 1.0)
    obj = cli.descriptor_to_json_obj(d)
    mu = complex(obj["params"]["mu"])
    lead = complex(obj["params"]["L"])
    ser = formal_series_pv("small0", THETA_DESK, 8)
    obj["params"]["c0"] = -ser.eval(10.0) / (lead * 10.0 ** (mu - 1.0)
                                             * cmath.exp(-10.0))
    seed = cli.dumps_canonical(obj)
    status, out = run_cli(capsys, ["verify", "--seed", seed, "--at", "10"])
    assert status == 3
    body = json.loads(out)
    assert body["schema"] == cli.SCHEMA_VERSION
    assert body["code"] == "HitSingularity"


def test_continue_envelope(capsys):
    status, out = run_cli(capsys, ["continue", dtc_json(), "--to",
                                   str(math.pi)])
    assert status == 0
    body = json.loads(out)
    assert body["half_turns"] == 1
    assert "m0" in body["pair"] and "m1" in body["pair"]
    assert "descriptor" in body


def test_orbit_bookkeeping(capsys):
    status, out = run_cli(capsys, ["orbit", dtc_json(), "--ops", "m",
                                   "--steps", "2"])
    assert status == 0
    orbit = json.loads(out)["orbit"]
    assert [(e["family"], e["index"]) for e in orbit] == \
        [("plain", 1), ("plain", 2)]

    status, out = run_cli(capsys, ["orbit", dtc_json(), "--ops", "s0,shat1",
                                   "--steps", "2"])
    assert status == 0
    orbit = json.loads(out)["orbit"]
    assert [(e["family"], e["index"]) for e in orbit] == \
        [("hat", 0), ("plain", 1)]


def test_continue_and_orbit_stay_on_the_manifold(capsys):
    # x2 = tr(M1 M0) = 2.17 + 0.003i on this pair, so each full turn
    # multiplies the conjugation's condition number by about 2.3: at 12 full
    # turns `continue` printed a pair off the cubic surface, at 512 it
    # exited 2 with ZeroDivisionError, and `orbit --ops m` printed one off
    # it at step 8
    blob = json.dumps(pair_to_json_obj(random_valid_pair(random.Random(7))))
    status, out = run_cli(capsys, ["continue", blob,
                                   "--to", repr(2 * math.pi * 8)])
    assert status == 0
    assert fricke_ok(char_coords(pair_from_json_obj(json.loads(out)["pair"])))
    for turns in (12, -12, 512):
        assert _envelope(*run_cli(capsys, ["continue", blob, "--to",
                                           repr(2 * math.pi * turns)])) \
            == (3, "ToleranceFailure", "continue")
    # the attachment's own pull-back by 12 full turns: no step, yet it exited
    # 0 with elliptic.x0 read off a pair with Fricke residual 1.2e4
    angle = f"--from={24 * math.pi + 0.7!r}"
    assert _envelope(*run_cli(capsys, ["continue", blob, angle, "--to",
                                       repr(24 * math.pi + 0.7)])) \
        == (3, "ToleranceFailure", "continue")
    # M1 M0 = I exactly, so no check trips: the half-turn walk to pi * 2^40
    # never returned; a span of 2^23 half turns or more is too coarse in
    # doubles to tell a pi-multiple
    identity = json.dumps(pair_to_json_obj(identity_loop_pair()))
    assert _envelope(*run_cli(capsys, ["continue", identity, "--to",
                                       repr(math.pi * 2 ** 40)])) \
        == (2, "DomainViolation", "continue")
    # the rotation is one count: the list of its 2^21 full-turn steps made
    # this envelope 8.4 MB
    status, out = run_cli(capsys, ["continue", identity, "--to",
                                   repr(math.pi * 2 ** 22)])
    assert status == 0 and len(out) < 2048
    assert json.loads(out)["half_turns"] == 2 ** 22

    status, out = run_cli(capsys, ["orbit", blob, "--ops", "m",
                                   "--steps", "7"])
    assert status == 0
    assert all(fricke_ok(char_coords(pair_from_json_obj(e["pair"])))
               for e in json.loads(out)["orbit"])
    assert _envelope(*run_cli(capsys, ["orbit", blob, "--ops", "m",
                                       "--steps", "8"])) \
        == (3, "ToleranceFailure", "orbit")


def test_conditions_desk_and_integer(capsys):
    status, out = run_cli(capsys, ["conditions", "--theta", "1/3,1/5,1/7"])
    assert status == 0
    body = json.loads(out)
    assert body["all_hold"] is True
    assert body["regions"] is not None
    assert not any(body["regions"]["empty"].values())

    status, out = run_cli(capsys, ["conditions", "--theta", "1,0.2,0.3"])
    assert status == 0
    body = json.loads(out)
    assert any(body["integer_flags"].values())
    assert body["regions"] is None


def _envelope(status, out):
    body = json.loads(out)
    return status, body["code"], body["location"]


def test_malformed_inputs_exit_1(monkeypatch, capsys):
    status, out = run_cli(capsys, ["classify", '{"theta": nope'])
    assert status == 1
    body = json.loads(out)
    assert body["code"] == "bad-json" and body["schema"] == cli.SCHEMA_VERSION

    # a pair on standard input, well formed and not
    monkeypatch.setattr("sys.stdin", io.StringIO(dtc_json()))
    status, out = run_cli(capsys, ["classify", "-"])
    assert status == 0 and json.loads(out)["region"] == "R2_01"
    monkeypatch.setattr("sys.stdin", io.StringIO("[1,"))
    assert _envelope(*run_cli(capsys, ["classify", "-"])) \
        == (1, "bad-json", "pair")

    no_m1 = {k: v for k, v in json.loads(dtc_json()).items() if k != "m1"}
    assert _envelope(*run_cli(capsys, ["classify", json.dumps(no_m1)])) \
        == (1, "bad-pair-schema", "pair")

    _, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    assert _envelope(*run_cli(capsys, ["eval", solved.strip(),
                                       "--at", "1,2,3"])) \
        == (1, "bad-complex", "--at")
    for blob in ("[]", "{}"):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        assert _envelope(*run_cli(capsys, ["eval", "-", "--at", "25"])) \
            == (1, "bad-descriptor-schema", "descriptor")

    # a param the variant's evaluator reads is missing, or a number is not
    # one (each escaped cli.main as a KeyError or TypeError traceback)
    def solved_at(seed, phi):
        blob = json.dumps(pair_to_json_obj(random_valid_pair(
            random.Random(seed))))
        return json.loads(run_cli(capsys, ["solve", blob, "--phi", phi])[1])

    elliptic, trig = solved_at(7, "0.7"), solved_at(3, "0")
    assert (elliptic["variant"], trig["variant"]) == ("Elliptic", "Trig")
    trunc00 = {"variant": "Trunc00", "theta": [0.3, -0.2, 0.15],
               "params": {"c0": [1.0, 0.0]}, "sector": [-1.5, 1.5]}
    _, boundary = asymptotics.trunc_boundary_families(
        "small0_upper", {"c": 0.5}, THETA_DESK)
    boundary = json.loads(cli.dumps_canonical(
        cli.descriptor_to_json_obj(boundary)))
    del boundary["params"]["series_tag"]
    at = f"--at={30 * math.cos(0.7)!r},{30 * math.sin(0.7)!r}"
    cases = [(["eval"], dict(elliptic, params={}), "params.A", at),
             (["eval"], trunc00, "params.mu", "--at=25"),
             (["eval"], boundary, "params.series_tag", "--at=-25"),
             (["eval"], dict(elliptic, params=dict(elliptic["params"],
                                                   A="abc")), "params.A", at)]
    no_vhat = dict(trig, params={k: v for k, v in trig["params"].items()
                                 if k != "vhat"})
    for params in (no_vhat["params"], dict(trig["params"], vhat="x")):
        for cmd in (["eval"], ["verify", "--seed"]):
            cases.append((cmd, dict(trig, params=params), "params.vhat",
                          "--at=25"))
    for cmd, descriptor, key, point in cases:
        status, out = run_cli(capsys, cmd + [json.dumps(descriptor), point])
        assert _envelope(status, out) \
            == (1, "bad-descriptor-schema", "descriptor"), (descriptor, out)
        assert key in json.loads(out)["message"]
    # params that are no object, a case that is no integer (AttributeError
    # and OverflowError tracebacks)
    for descriptor in (dict(trunc00, params=[]), dict(trunc00, case=math.inf)):
        assert _envelope(*run_cli(capsys, ["eval", json.dumps(descriptor),
                                           "--at=25"])) \
            == (1, "bad-descriptor-schema", "descriptor")
    assert _envelope(*run_cli(capsys, ["verify", "--seed", solved.strip(),
                                       "--at", "12", "--bases", "5,a"])) \
        == (1, "bad-bases", "--bases")

    # a non-finite component (1e400 escaped as an OverflowError traceback,
    # nan exited 2 as a ValueError)
    for theta in ("1,2", "1,x,3", "1e400,0,0", "nan,0,0"):
        assert _envelope(*run_cli(capsys, ["conditions", "--theta", theta])) \
            == (1, "bad-theta", "--theta")

    assert _envelope(*run_cli(capsys, ["orbit", dtc_json(), "--ops", ",",
                                       "--steps", "1"])) \
        == (1, "bad-ops", "--ops")
    assert _envelope(*run_cli(capsys, ["orbit", dtc_json(), "--ops", "m",
                                       "--steps", "0"])) \
        == (1, "bad-steps", "--steps")

    status, out = run_cli(capsys, ["classify", "/no/such/file.json"])
    assert status == 1
    assert json.loads(out)["code"] == "unreadable-input"

    for ops in ("zz", "m_inv"):
        # m_inv is a continuation step, not one of the five orbit operators
        status, out = run_cli(capsys, ["orbit", dtc_json(), "--ops", ops,
                                       "--steps", "1"])
        assert status == 1
        assert json.loads(out)["code"] == "bad-ops"

    status, out = run_cli(capsys, ["solve", dtc_json()])
    assert status == 1
    assert json.loads(out)["code"] == "bad-arguments"

    # the family kind and the phase-shift route follow from the input alone
    assert _envelope(*run_cli(capsys, ["eval", solved.strip(), "--kind",
                                       "trunc", "--at", "25"])) \
        == (1, "bad-arguments", "argv")
    assert _envelope(*run_cli(capsys, ["phase-shift", dtc_json(), "--phi",
                                       "0.7", "--route", "x0"])) \
        == (1, "bad-arguments", "argv")


def test_validation_failures_exit_2(rng, capsys, tmp_path):
    broken = pair_to_json_obj(doubly_truncated_pair(THETA_DESK))
    broken["m0"][0][0] = [0.5, 0.0]
    status, out = run_cli(capsys, ["classify", json.dumps(broken)])
    assert status == 2
    assert json.loads(out)["code"] == "invalid-pair"

    # phi = 0 lies on neither route's rays
    status, out = run_cli(capsys, ["phase-shift", dtc_json(),
                                   "--phi", "0"])
    assert status == 2
    assert json.loads(out)["code"] == "WrongSector"

    status, out = run_cli(capsys, ["solve", dtc_json(), "--phi", "1.6"])
    assert status == 2

    _, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    status, out = run_cli(capsys, ["eval", solved.strip(), "--at", "0,0"])
    assert status == 2
    assert json.loads(out)["code"] == "bad-point"

    # zero and non-finite points (these used to exit 2 as OutsideValidity
    # "arg(x)=nan", located at the subcommand)
    for at in ("0", "nan", "inf", "-inf", "1e400", "25,nan", "inf,1"):
        for cmd in (["eval", solved.strip()], ["verify", "--seed",
                                               solved.strip()]):
            assert _envelope(*run_cli(capsys, cmd + [f"--at={at}"])) \
                == (2, "bad-point", "--at")
    assert _envelope(*run_cli(capsys, ["verify", "--seed", solved.strip(),
                                       "--at", "12", "--bases", "5,13"])) \
        == (2, "bad-bases", "--bases")
    # at 16 digits or fewer the mp chain resolves nothing (these used to
    # exit 3 with ToleranceFailure or SeedDefectTooLarge); dps d keeps about
    # d - 16 digits, so below 30 the drift of this seed reads worse than in
    # doubles (4.7e-2 at 17, 6.3e-9 at 24, against 3.9e-15)
    for dps in ("0", "-3", "5", "12", "16", "17", "20", "29"):
        assert _envelope(*run_cli(capsys, ["verify", "--seed", solved.strip(),
                                           "--at", "12", "--dps", dps])) \
            == (2, "bad-dps", "--dps")

    for phi in ("nan", "inf"):
        assert _envelope(*run_cli(capsys, ["boutroux", "--phi", phi])) \
            == (2, "DomainViolation", "boutroux")

    # a trig descriptor with vhat = 0 in the modes that divide by vhat or
    # take its log (these exited 2 as ZeroDivisionError and ValueError); the
    # exp_minus mode and the degenerate sine case |beta0| < 1e-12 keep y = -1
    _, trig = run_cli(capsys, ["solve", json.dumps(pair_to_json_obj(
        random_valid_pair(random.Random(3)))), "--phi", "0"])
    trig = json.loads(trig)
    assert trig["variant"] == "Trig"
    for beta0, want in (([0.6, 0.1], 2), ([-0.3, 0.1], 2), ([0.1, 0.1], 2),
                        ([0.5, 0.1], 2), ([0.3, 0.1], 0), ([0.0, 0.0], 0)):
        trig["params"].update(beta0=beta0, vhat=[0.0, 0.0])
        blob = json.dumps(trig)
        for cmd in (["eval", blob], ["verify", "--seed", blob]):
            status, out = run_cli(capsys, cmd + ["--at", "25"])
            if want:
                assert _envelope(status, out) \
                    == (2, "DomainViolation", cmd[0])
            else:
                assert status == 0
                if cmd[0] == "eval":
                    assert json.loads(out)["y"] == [-1.0, 0.0]

    # an elliptic descriptor solved at phi = 0.7, evaluated off its ray
    blob = json.dumps(pair_to_json_obj(random_valid_pair(rng)))
    _, elliptic = run_cli(capsys, ["solve", blob, "--phi", "0.7"])
    for arg, want in ((0.7, 0), (0.9, 2)):
        at = f"{30 * math.cos(arg)!r},{30 * math.sin(arg)!r}"
        status, out = run_cli(capsys, ["eval", elliptic.strip(), "--at", at])
        assert status == want
    assert _envelope(status, out) == (2, "OutsideValidity", "eval")

    # a plotted segment must be finite and stay on the ray of --at (inf and
    # nan exited 2 as DomainViolation at eval on the elliptic descriptor; a
    # span below -|x| walked a trunc plot through x = 0 onto the opposite ray)
    csv = tmp_path / "ray.csv"
    at = f"{30 * math.cos(0.7)!r},{30 * math.sin(0.7)!r}"
    cases = [(elliptic.strip(), at, span) for span in ("inf", "-inf", "nan",
                                                       "-40")]
    cases += [(solved.strip(), "20,20", span) for span in ("inf", "nan",
                                                           "-40")]
    cases.append((solved.strip(), "25", "-25"))
    for descriptor, point, span in cases:
        argv = ["eval", descriptor, "--at", point, f"--plot-span={span}",
                "--emit-plot", str(csv)]
        assert _envelope(*run_cli(capsys, argv)) \
            == (2, "bad-plot-span", "--plot-span")
    assert not csv.exists()

    # a NaN base used to escape as a bare KeyError, zero or negative ones
    # as a collapsed ray step (exit 3)
    for bases in ("nan,10", "0,10", "-5,10", "-inf,10"):
        status, out = run_cli(capsys, ["verify", "--seed", solved.strip(),
                                       "--at", "12", f"--bases={bases}"])
        assert status == 2
        assert json.loads(out)["code"] == "bad-bases"

    # an order the series refuses fails validation at --order
    for cmd in (["eval", solved.strip(), "--at", "25"],
                ["verify", "--seed", solved.strip(), "--at", "12"]):
        for order in ("-3", "21"):
            status, out = run_cli(capsys, cmd + [f"--order={order}"])
            assert status == 2
            envelope = json.loads(out)
            assert (envelope["code"], envelope["location"]) == ("bad-order", "--order")

    # a non-finite rotation (--to inf used to escape round() as an
    # OverflowError traceback, --to nan as a bare ValueError)
    for flag, angle in (("--to", "inf"), ("--to", "nan"), ("--to", "-inf"),
                        ("--from", "inf"), ("--from", "nan")):
        argv = ["continue", dtc_json(), "--to", "0", f"{flag}={angle}"]
        assert _envelope(*run_cli(capsys, argv)) \
            == (2, "DomainViolation", "continue")


def test_tolerance_env_and_flag(monkeypatch, capsys):
    softly_off = pair_to_json_obj(doubly_truncated_pair(THETA_DESK))
    softly_off["m0"][0][0] = [1e-5, 0.0]
    blob = json.dumps(softly_off)

    monkeypatch.delenv("PVRH_TOL", raising=False)
    status, _ = run_cli(capsys, ["classify", blob])
    assert status == 2

    monkeypatch.setenv("PVRH_TOL", "1e-2")
    status, _ = run_cli(capsys, ["classify", blob])
    assert status == 0

    # an explicit flag wins over the environment
    monkeypatch.setenv("PVRH_TOL", "1e-12")
    status, _ = run_cli(capsys, ["classify", blob, "--tol", "1e-2"])
    assert status == 0

    monkeypatch.setenv("PVRH_TOL", "abc")
    status, out = run_cli(capsys, ["classify", blob])
    assert status == 1
    assert json.loads(out)["code"] == "bad-tolerance"

    # a NaN tolerance refused every pair, an infinite one accepted anything
    for bad in ("-1", "0", "nan", "inf", "-inf", "1e400"):
        monkeypatch.setenv("PVRH_TOL", bad)
        assert _envelope(*run_cli(capsys, ["classify", blob])) \
            == (1, "bad-tolerance", "env:PVRH_TOL")
    monkeypatch.delenv("PVRH_TOL")
    for bad in ("0", "-1e-3", "nan", "inf", "1e400"):
        assert _envelope(*run_cli(capsys, ["classify", blob,
                                           f"--tol={bad}"])) \
            == (1, "bad-tolerance", "--tol")


def test_phase_shift_success_shape(rng, capsys):
    # needs a pair with generic corner entries; the doubly truncated one
    # is exactly the degenerate case the command rejects.  The direction
    # picks the route: the direct shift on the open quadrants, the breve
    # one on the upper-left rays.
    pair = random_valid_pair(rng)
    blob = json.dumps(pair_to_json_obj(pair))
    for phi, route, shift in ((0.7, "x0", phase_shift_x0),
                              (-0.5, "x0", phase_shift_x0),
                              (2.0, "breve", phase_shift_breve),
                              (3.5, "breve", phase_shift_breve)):
        status, out = run_cli(capsys, ["phase-shift", blob, "--phi", repr(phi)])
        assert status == 0
        body = json.loads(out)
        assert body["route"] == route
        assert complex(*body["shift"]) == shift(pair, phi, solve_boutroux(phi))
        assert len(body["A"]) == 2


def test_main_reuses_one_parser(monkeypatch, capsys):
    # main parses every call with one parser; a call must not leave state
    # in it that the next call sees (--bases, a failed parse)
    _, solved = run_cli(capsys, ["solve", dtc_json(), "--phi", "0.3"])
    verify = ["verify", "--seed", solved.strip(), "--at", "12"]
    argvs = [verify + ["--bases", "10,12"], verify,
             verify + ["--bogus"], ["classify", dtc_json()]]
    built = []
    real = cli.build_parser

    def counting_build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    shared = [run_cli(capsys, argv) for argv in argvs]
    assert len(built) == 1
    assert [status for status, _ in shared] == [0, 0, 1, 0]
    assert json.loads(shared[1][1])["bases"] == [0.8 * 12, 0.9 * 12, 12.0]
    assert json.loads(shared[2][1])["code"] == "bad-arguments"
    for argv, want in zip(argvs, shared):
        cli._parser.cache_clear()
        assert run_cli(capsys, argv) == want
    assert len(built) == 1 + len(argvs)
