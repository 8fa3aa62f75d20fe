"""Command-line integration: exit codes, JSON reports, CSV outputs."""

import csv
import importlib
import json
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

from jtcurv.cli import main
from jtcurv.realizations import AFamily, PhiFamily, phi_family_specialized
from jtcurv.expr import FnExpr

from conftest import SYMMETRIC_A


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip().startswith("{") else None
    return rc, payload, err


@pytest.fixture
def ones_json(tmp_path):
    p = tmp_path / "ones.json"
    A = AFamily({(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)})
    p.write_text(json.dumps(A.to_json()))
    return str(p)


@pytest.fixture
def sym_json(tmp_path):
    p = tmp_path / "sym.json"
    p.write_text(json.dumps(SYMMETRIC_A.to_json()))
    return str(p)


@pytest.fixture
def exp_json(tmp_path):
    x1 = FnExpr.var(1)
    fam = phi_family_specialized(x1.exp(), -((-x1).exp()))
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(fam.to_json()))
    return str(p)


# ---------------------------------------------------------------------------
# check-model


def test_check_model_holding_properties(capsys):
    rc, payload, err = run(capsys, "check-model", "m14",
                           "--properties", "jacobi-tsankov,mixed-tsankov")
    assert rc == 0
    assert payload["verdict"] == "holds"
    assert payload["signature"] == [8, 6]
    names = [c["property"] for c in payload["checks"]]
    assert "jacobi-tsankov" in names and "mixed-tsankov" in names
    assert "PASS jacobi-tsankov" in err


def test_check_model_failing_property(capsys):
    rc, payload, err = run(capsys, "check-model", "m14",
                           "--properties", "2-step-jacobi-nilpotent")
    assert rc == 1
    fail = [c for c in payload["checks"]
            if c["property"] == "2-step-jacobi-nilpotent"][0]
    assert fail["verdict"] == "fails"
    assert fail["witness"]["vector"].startswith("a")
    assert "FAIL 2-step-jacobi-nilpotent" in err


def test_check_model_unknown_property(capsys):
    rc, _, err = run(capsys, "check-model", "m14", "--properties", "bogus")
    assert rc == 2
    assert "unknown property" in err


def test_check_model_file_roundtrip(capsys, tmp_path):
    from jtcurv import build_m14
    p = tmp_path / "model.json"
    p.write_text(json.dumps(build_m14().to_json()))
    rc, payload, _ = run(capsys, "check-model", str(p),
                         "--properties", "jacobi-tsankov")
    assert rc == 0
    assert payload["signature"] == [8, 6]


def test_check_model_missing_file(capsys):
    rc, _, err = run(capsys, "check-model", "/no/such/file.json")
    assert rc == 2


DIM3_FORM = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("form, idx, labels, message", [
    (DIM3_FORM, [0, 1, 0, 5], None, "outside [0, 3)"),
    (DIM3_FORM, [0, 1, 0, -1], None, "outside [0, 3)"),
    # the 2-step-jacobi-nilpotent witness names e2, which has no label
    (DIM3_FORM, [0, 2, 0, 2], ["a", "b"], "2 labels for dimension 3"),
    ([[1, 0, 0], [0, 1], [0, 0, 1]], [0, 1, 0, 1], None, "must be square"),
])
def test_check_model_out_of_range_input_is_usage_error(capsys, tmp_path, form,
                                                       idx, labels, message):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"dim": 3, "form": form, "labels": labels,
                             "tensor": [{"idx": idx, "val": 1}]}))
    rc, payload, err = run(capsys, "check-model", str(p))
    assert rc == 2
    assert payload is None
    assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# symmetry


def test_symmetry_dilatation(capsys):
    rc, payload, _ = run(capsys, "symmetry", "m14",
                         "--generator", "dilatation:2,1/2,1")
    assert rc == 0
    tau = payload["tau"]
    assert tau[0][0] == {"num": "1", "den": "2"}
    assert tau[1][1] == {"num": "2", "den": "1"}
    assert tau[2][2] == {"num": "1", "den": "1"}


def test_symmetry_rotation_and_swaps(capsys):
    for gen in ("swap12", "swap13", "rotation:3/5,4/5"):
        rc, payload, _ = run(capsys, "symmetry", "m14", "--generator", gen)
        assert rc == 0, gen
        assert payload["verdict"] == "holds"


def test_symmetry_bad_dilatation(capsys):
    rc, _, err = run(capsys, "symmetry", "m14", "--generator", "dilatation:2,1,1")
    assert rc == 2
    assert "a1*a2*a3" in err


@pytest.mark.parametrize("params", ["1e160,1e-160,1", "1e-250,1e125,1e125"])
def test_symmetry_float_lift_outside_binary64(capsys, params):
    """A float lift with an entry past binary64 (a1/a2 = 1e320 overflows; with
    a1 = 1e-250 a product of nonzero entries underflows to 0.0) is bad input,
    not a failed claim: exit 2, no verdict, no traceback."""
    rc = main(["--mode", "float", "symmetry", "m14", "--generator",
               f"dilatation:{params}"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: lift entry (b") and "leaves binary64" in err
    assert "Traceback" not in err
    rc, payload, _ = run(capsys, "--mode", "float", "symmetry", "m14",
                         "--generator", "dilatation:1e150,1e-150,1")
    assert rc == 0 and payload["verdict"] == "holds"


@pytest.mark.parametrize("gen, message", [
    ("swap12:5,7", "0 positional arguments but 2"),
    ("swap13:1", "0 positional arguments but 1"),
    ("rotation:3/5,4/5,9", "2 positional arguments but 3"),
    ("reflection", "unknown generator 'reflection'"),
])
def test_symmetry_generator_parameters_are_checked(capsys, gen, message):
    """A generator given more parameters than it takes, or an unknown one,
    is a usage error: no verdict, exit 2."""
    rc, payload, err = run(capsys, "symmetry", "m14", "--generator", gen)
    assert rc == 2
    assert payload is None
    assert err.startswith("error: ") and message in err


def test_symmetry_kernel_dim(capsys):
    rc, payload, _ = run(capsys, "symmetry", "m14", "--kernel-dim")
    assert rc == 0
    assert payload["constraint_rank"] == 6
    assert payload["kernel_dimension"] == 21


def test_symmetry_kernel_random(capsys):
    rc, payload, _ = run(capsys, "--seed", "7", "symmetry", "m14",
                         "--kernel-random")
    assert rc == 0
    tau = payload["tau"]
    for i in range(3):
        for j in range(3):
            want = {"num": "1", "den": "1"} if i == j else {"num": "0", "den": "1"}
            assert tau[i][j] == want


def test_symmetry_requires_an_action(capsys):
    rc, _, err = run(capsys, "symmetry", "m14")
    assert rc == 2


# ---------------------------------------------------------------------------
# geometry


def test_geometry_symmetric_ones_fails(capsys, ones_json):
    rc, payload, err = run(capsys, "--points", "2", "geometry", "m-a",
                           "symmetric", "--params", ones_json)
    assert rc == 1
    res = payload["equation_residuals"]
    assert res == [{"num": "1", "den": "1"}, {"num": "5", "den": "1"},
                   {"num": "5", "den": "1"}]


def test_geometry_symmetric_solution_holds(capsys, sym_json):
    rc, payload, _ = run(capsys, "--points", "3", "geometry", "m-a",
                         "symmetric", "--params", sym_json)
    assert rc == 0
    assert payload["verdict"] == "holds"


def test_geometry_verify_0_model(capsys, sym_json):
    rc, payload, _ = run(capsys, "--points", "2", "geometry", "m-a",
                         "verify-0-model", "--params", sym_json)
    assert rc == 0
    check = payload["checks"][0]
    assert check["stats"]["points_verified"] == 2


def test_geometry_verify_0_model_at_point(capsys, ones_json):
    rc, payload, _ = run(capsys, "geometry", "m-a", "verify-0-model",
                         "--params", ones_json,
                         "--point", json.dumps([1, 2, 3] + [1] * 11))
    assert rc == 0
    assert payload["checks"][0]["stats"]["points_verified"] == 1


def test_geometry_curvature_point(capsys, ones_json):
    rc, payload, _ = run(capsys, "geometry", "m-a", "curvature",
                         "--params", ones_json,
                         "--point", json.dumps([1, 2, 3] + [0] * 11))
    assert rc == 0
    comps = payload["curvature"][0]["components"]
    assert comps  # canonical representatives only
    seen = {tuple(c["idx"]) for c in comps}
    assert all(i < j for (i, j, _, _) in [(t[0], t[1], t[2], t[3]) for t in seen])


def test_geometry_nabla_r_counts(capsys, sym_json, ones_json):
    rc, payload, _ = run(capsys, "geometry", "m-a", "nabla-r",
                         "--params", sym_json, "--order", "1",
                         "--point", json.dumps([1, 2, 3] + [1] * 11))
    assert rc == 0
    assert payload["nabla_r"][0]["nonzero_components"] == 0
    rc, payload, _ = run(capsys, "geometry", "m-a", "nabla-r",
                         "--params", ones_json, "--order", "1",
                         "--point", json.dumps([1, 2, 3] + [1] * 11))
    assert payload["nabla_r"][0]["nonzero_components"] > 0


def test_geometry_xi_sweep_exponential(capsys, exp_json, tmp_path):
    out = tmp_path / "xi.csv"
    rc, payload, _ = run(capsys, "--out", str(out), "geometry", "m-phi", "xi",
                         "--params", exp_json, "--sweep", "x1=0:1:0.25")
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x1", "Xi"]
    assert len(rows) == 6
    assert all(abs(float(r[1])) < 1e-9 for r in rows[1:])


def test_geometry_xi_long_sweep_ends_on_its_stop(capsys, exp_json, tmp_path):
    """Row k is at start + k step: 2438 rows, the last at 24.37, where a
    running sum of steps drifts to 24.36000000000101 and stops a row short."""
    out = tmp_path / "xi.csv"
    rc, payload, _ = run(capsys, "--out", str(out), "geometry", "m-phi", "xi",
                         "--params", exp_json, "--sweep", "x1=0:24.37:0.01")
    assert rc == 0
    assert payload["checks"][0]["stats"] == {"rows": 2438}
    xs = [float(r[0]) for r in list(csv.reader(out.open()))[1:]]
    assert xs == [k * 0.01 for k in range(2438)]
    assert xs[-1] == 2437 * 0.01 and abs(xs[-1] - 24.37) < 1e-12


def test_geometry_xi_point_frame_vs_direct(capsys, exp_json):
    rc, payload, _ = run(capsys, "geometry", "m-phi", "xi",
                         "--params", exp_json,
                         "--point", json.dumps([0.5] + [0] * 13))
    assert rc == 0
    assert abs(payload["xi_frame"] - payload["xi_direct"]) < 1e-9


def test_geometry_geodesic_csv(capsys, ones_json, tmp_path):
    out = tmp_path / "geo.csv"
    P = [1, 0, 0] + [0] * 11
    v = [1, 1, 0] + [0] * 11
    rc, payload, _ = run(capsys, "--out", str(out), "--points", "5",
                         "geometry", "m-a", "geodesic", "--params", ones_json,
                         "--point", json.dumps(P), "--velocity", json.dumps(v),
                         "--t", "2")
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "t"
    assert len(rows) == 6
    # x components stay affine along the trace
    for r in rows[1:]:
        t = float(r[0])
        assert abs(float(r[1]) - (1 + t)) < 1e-12
        assert abs(float(r[2]) - t) < 1e-12


def test_geometry_exp_inverse(capsys, ones_json):
    rc, payload, _ = run(capsys, "--seed", "3", "geometry", "m-a",
                         "exp-inverse", "--params", ones_json)
    assert rc == 0
    assert payload["checks"][0]["stats"]["max_residual"] < 1e-9


@pytest.mark.parametrize("sub", ["geodesic", "exp-inverse"])
def test_float_geodesic_checks_report_the_fit(capsys, exp_json, tmp_path, sub):
    rc, payload, _ = run(capsys, "--out", str(tmp_path / "geo.csv"), "--seed", "2",
                         "--mode", "float", "geometry", "m-phi", sub,
                         "--params", exp_json)
    assert rc == 0
    stats = payload["checks"][0]["stats"]
    assert stats["cheb_degree"] >= 16
    assert 0 <= stats["cheb_tail"] <= 1e-15


@pytest.fixture(params=["1/(x1+3)", "0.5*x1"])
def nonpoly_json(tmp_path, request):
    """A metric on exact data whose first psi is no polynomial over the
    rationals: a rational function, or a float coefficient."""
    from jtcurv.planewave import PlaneWaveMetric
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    psi11 = 1 / (x1 + 3) if request.param == "1/(x1+3)" else 0.5 * x1
    M = PlaneWaveMetric(2, 2, [[0, 1], [1, 0]],
                        {(0, 0): [psi11, x2], (0, 1): [x1, FnExpr.const(0)]})
    p = tmp_path / "nonpoly.json"
    p.write_text(json.dumps(M.to_json()))
    return str(p)


@pytest.mark.parametrize("sub, flag, value", [
    ("geodesic", "--velocity", ["1/2", "2/3", 0, 0, 1, "-1/2"]),
    ("exp-inverse", "--target", [1, "1/3", "-1/2", 0, "3/2", 1]),
])
def test_non_polynomial_metric_takes_the_chebyshev_fit(capsys, nonpoly_json,
                                                      tmp_path, sub, flag, value):
    """Exact points on a non-polynomial psi: the geodesic checks fit
    Chebyshev series instead of integrating polynomials."""
    rc, payload, _ = run(capsys, "--out", str(tmp_path / "geo.csv"), "geometry",
                         nonpoly_json, sub, "--point",
                         json.dumps(["1/2", "-1/3", 1, 2, -1, "1/4"]),
                         flag, json.dumps(value))
    assert rc == 0
    assert payload["checks"][0]["stats"]["cheb_degree"] >= 16


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_geodesic_t_must_be_finite(capsys, ones_json, tmp_path, mode, t):
    rc, payload, err = run(capsys, "--out", str(tmp_path / "geo.csv"), "--mode",
                           mode, "geometry", "m-a", "geodesic", "--params",
                           ones_json, f"--t={t}")
    assert rc == 2
    assert payload is None and "finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
def test_tol_must_be_a_finite_nonnegative_number(capsys, ones_json, tol):
    rc, payload, err = run(capsys, "--tol", tol, "geometry", "m-a",
                           "exp-inverse", "--params", ones_json)
    assert rc == 2
    assert payload is None and "--tol" in err


@pytest.mark.parametrize("sub", ["geodesic", "exp-inverse"])
def test_unconverged_fit_fails_the_check(capsys, exp_json, tmp_path,
                                         monkeypatch, sub):
    """A fit stopped at the degree cap above the tail tolerance is a failed
    check showing its tail, even when the residual is small."""
    cascade = importlib.import_module("jtcurv.geodesic")
    monkeypatch.setattr(cascade, "_CHEB_CAP", 16)
    monkeypatch.setattr(cascade, "_CHEB_TOL", 1e-300)
    with pytest.warns(RuntimeWarning, match="stopped at degree 16"):
        rc, payload, _ = run(capsys, "--out", str(tmp_path / "geo.csv"),
                             "--seed", "2", "--mode", "float", "geometry",
                             "m-phi", sub, "--params", exp_json)
    assert rc == 1
    check = payload["checks"][0]
    assert check["verdict"] == "fails"
    assert check["witness"]["unconverged_fit"]["cheb_degree"] == 16
    assert check["witness"]["unconverged_fit"]["cheb_tail"] > 1e-300


@pytest.mark.parametrize("argv, content", [
    (("check-model", "{}"), '{"form": [[true]], "dim": 1, "tensor": []}'),
    (("check-model", "{}"), '{"form": [[1]], "dim": 1, '
                            '"tensor": [{"idx": [0, 1, 0, 1], "val": null}]}'),
    (("geometry", "m-a", "curvature", "--params", "{}"), '{"a": {"1,1": true}}'),
    (("geometry", "m-a", "curvature", "--params", "{}"), '{"a": {"1,1": null}}'),
    (("geometry", "m-a", "curvature", "--params", "{}"), '{"a": {"1,1": [1]}}'),
    (("geometry", "m-a", "curvature", "--params", "{}"), '{"a": [1]}'),
    (("geometry", "m-phi", "curvature", "--params", "{}"), '{"phi": {"1,1": true}}'),
    (("geometry", "m-phi", "curvature", "--params", "{}"), '{"phi": [1]}'),
    (("geometry", "{}", "curvature"), '{"a": 1, "b": 1, "C": [[null]]}'),
])
def test_malformed_input_file_is_usage_error(capsys, tmp_path, argv, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    rc, _, err = run(capsys, *(a.format(path) for a in argv))
    assert rc == 2
    assert err.startswith("error: malformed")


@pytest.mark.parametrize("content, msg", [
    ('{"a": 1, "b": 1, "C": [[1]], "psi": {"1,1": [{"var": 3}]}}',
     "psi entry 1,1 reads x3"),
    ('{"a": 1, "b": 1, "C": [[1]], "psi": {"2,2": [{"var": 1}]}}',
     "psi entry 2,2 lies outside the x block"),
    ('{"a": 2, "b": 1, "C": [[1]], "psi": {"0,3": [{"var": 1}]}}',
     "psi entry 0,3 lies outside the x block"),
    ('{"a": 1, "b": 1, "C": [[1]], "psi": {"1,1": '
     '[{"op": "compose", "args": [{"var": 2}, {"var": 1}]}]}}',
     "outer function reads x2"),
])
@pytest.mark.parametrize("sub", ["curvature", "geodesic", "nabla-r"])
def test_psi_reading_outside_the_x_block_is_usage_error(capsys, tmp_path,
                                                        content, msg, sub):
    path = tmp_path / "metric.json"
    path.write_text(content)
    n = 2 * json.loads(content)["a"] + 1
    point = json.dumps([1] * n)
    rc, payload, err = run(capsys, "geometry", str(path), sub, "--point", point,
                           "--velocity", point)
    assert rc == 2
    assert payload is None and err.startswith("error: ") and msg in err


@pytest.mark.parametrize("sub", ["curvature", "nabla-r", "geodesic"])
def test_singular_c_is_usage_error(capsys, tmp_path, sub):
    """A singular C is refused when the metric file is read, in every
    subcommand alike: no report, no traceback."""
    path = tmp_path / "metric.json"
    path.write_text('{"a": 1, "b": 1, "C": [[0]], "psi": {"1,1": [{"var": 1}]}}')
    rc, payload, err = run(capsys, "geometry", str(path), sub, "--point", "[1, 1, 1]")
    assert rc == 2
    assert payload is None and "Traceback" not in err
    assert err.splitlines() == ["error: matrix is singular"]


@pytest.mark.parametrize("argv, content", [
    (("check-model", "{}"),
     '{"dim": 2, "form": [[0, 1e400], [3, 0]], "tensor": [], "labels": null}'),
    (("geometry", "m-a", "curvature", "--params", "{}"), '{"a": {"1,1": 1e400}}'),
    (("geometry", "m-phi", "curvature", "--params", "{}"),
     '{"phi": {"1,1": {"op": "*", "args": [1e400, {"var": 1}]}}}'),
    (("geometry", "{}", "geodesic", "--point", "[1, 1, 1]", "--velocity", "[1, 1, 1]"),
     '{"a": 1, "b": 1, "C": [[1e400]], "psi": {"1,1": [{"var": 1}]}}'),
])
def test_infinite_number_in_a_file_is_usage_error(capsys, tmp_path, argv, content):
    """JSON 1e400 parses to an infinite float, which every file refuses: the
    non-symmetric form above passed every check while inf counted as close
    to every number."""
    path = tmp_path / "inf.json"
    path.write_text(content)
    rc, payload, err = run(capsys, *(a.format(path) for a in argv))
    assert rc == 2
    assert payload is None
    assert err.splitlines() == ["error: scalar must be finite, got inf"]


@pytest.mark.parametrize("sub", ["verify-0-model", "xi"])
def test_frame_subcommands_need_the_family_shape(capsys, tmp_path, sub):
    """verify-0-model and xi build the normalized frame, which needs a=3,
    b=8: another shape is a usage error before any point is tried."""
    path = tmp_path / "metric.json"
    path.write_text('{"a": 1, "b": 1, "C": [[1]], "psi": {"1,1": [{"var": 1}]}}')
    rc, payload, err = run(capsys, "geometry", str(path), sub)
    assert rc == 2
    assert payload is None and err.splitlines() == [
        f"error: {sub} needs the a=3, b=8 family of the normalized frame, "
        "got a metric with a=1, b=1"]


@pytest.mark.parametrize("family, content", [
    ("m-a", '{"a": {"1,1": "1/2", "3,3": 7, "0,1": 2}}'),
    ("m-a", '{"a": {"4,1": 1}}'),
    ("m-phi", '{"phi": {"1,3": {"var": 1}}}'),
])
def test_family_key_outside_the_family_is_usage_error(capsys, tmp_path,
                                                      family, content):
    path = tmp_path / "family.json"
    path.write_text(content)
    rc, payload, err = run(capsys, "geometry", family, "symmetric",
                           "--params", str(path))
    assert rc == 2
    assert payload is None and err.startswith("error: unknown family key")


@pytest.mark.parametrize("argv, content, pair", [
    (("geometry", "m-a", "symmetric", "--params", "{}"),
     '{"a": {"1,1": 1, "01,1": 5}}', "'1,1' and '01,1' both name the pair 1,1"),
    (("geometry", "m-phi", "curvature", "--params", "{}"),
     json.dumps({"phi": {**{f"{i},{j}": {"var": i} for i in (1, 2, 3)
                            for j in (1, 2)},
                         " 1,2": (FnExpr.var(1) + FnExpr.const(1)).to_json()}}),
     "'1,2' and ' 1,2' both name the pair 1,2"),
    (("geometry", "{}", "curvature", "--point", "[1, 1, 1]"),
     '{"a": 1, "b": 1, "C": [[1]], "psi": {"1,1": [{"var": 1}], '
     '"01,1": [{"num": "2", "den": "1"}]}}', "'1,1' and '01,1' both name the pair 1,1"),
])
def test_two_keys_naming_one_pair_is_usage_error(capsys, tmp_path, argv,
                                                 content, pair):
    """A family or metric file whose keys "1,1" and "01,1" (or " 1,2") name
    the same pair is refused rather than read with one of them dropped."""
    path = tmp_path / "dup.json"
    path.write_text(content)
    rc, payload, err = run(capsys, *(a.format(path) for a in argv))
    assert rc == 2
    assert payload is None and err.startswith("error: keys ") and pair in err


def test_phi_reading_another_coordinate_is_usage_error(capsys, tmp_path):
    x = [None] + [FnExpr.var(i) for i in (1, 2, 3)]
    phi = {f"{i},{j}": x[i].to_json() for i in (1, 2, 3) for j in (1, 2)}
    phi["1,1"] = (x[1] + x[2]).to_json()
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"phi": phi}))
    rc, payload, err = run(capsys, "geometry", "m-phi", "curvature",
                           "--params", str(path))
    assert rc == 2
    assert payload is None and err.startswith("error: phi[1,1] reads x2")


@pytest.mark.parametrize("value", ["5", "null", "true", "1.5"])
@pytest.mark.parametrize("sub, flag", [("curvature", "--point"),
                                       ("geodesic", "--velocity"),
                                       ("exp-inverse", "--target")])
def test_coordinates_not_a_list_is_usage_error(capsys, ones_json, sub, flag,
                                               value):
    rc, _, err = run(capsys, "geometry", "m-a", sub, "--params", ones_json,
                     flag, value)
    assert rc == 2
    assert err.startswith("error: expected a JSON list")


@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_is_usage_error(capsys, ones_json, points):
    rc, payload, err = run(capsys, "--points", points, "geometry", "m-a",
                           "verify-0-model", "--params", ones_json)
    assert rc == 2
    assert payload is None and "--points" in err


@pytest.mark.parametrize("spec", ["x1=0:1:0", "x1=0:1:-0.5"])
def test_xi_sweep_step_must_be_positive(capsys, exp_json, tmp_path,
                                        monkeypatch, spec):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("the sweep evaluated Xi")

    monkeypatch.setattr("jtcurv.realizations.xi_invariant", no_evaluation)
    rc, _, err = run(capsys, "--out", str(tmp_path / "xi.csv"), "geometry",
                     "m-phi", "xi", "--params", exp_json, "--sweep", spec)
    assert rc == 2
    assert err.startswith("error: sweep step must be positive")


@pytest.mark.parametrize("spec", ["x1=0:inf:1", "x1=-inf:0:1", "x1=nan:1:0.5",
                                  "x1=0:nan:0.5", "x1=0:1:inf", "x1=0:1:nan"])
def test_xi_sweep_bounds_must_be_finite(capsys, exp_json, tmp_path,
                                        monkeypatch, spec):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("the sweep evaluated Xi")

    monkeypatch.setattr("jtcurv.realizations.xi_invariant", no_evaluation)
    rc, _, err = run(capsys, "--out", str(tmp_path / "xi.csv"), "geometry",
                     "m-phi", "xi", "--params", exp_json, "--sweep", spec)
    assert rc == 2
    assert err.startswith("error: sweep bounds must be finite")


def test_xi_sweep_overflow_is_usage_error(capsys, exp_json, tmp_path):
    """exp overflows in the warping functions from x1 = 710 on."""
    rc, _, err = run(capsys, "--out", str(tmp_path / "xi.csv"), "geometry",
                     "m-phi", "xi", "--params", exp_json, "--sweep",
                     "x1=700:720:5")
    assert rc == 2
    assert err.startswith("error: ")


def test_geometry_missing_params(capsys):
    rc, _, err = run(capsys, "geometry", "m-a", "symmetric")
    assert rc == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


#: psi trees FnExpr.from_json refuses: a wrong argument count, a variable
#: index that is not an int, and an exponent that is not an int
MALFORMED_TREES = [
    {"op": "pow", "args": [{"var": 1}]},
    {"op": "+", "args": [{"var": 1}]},
    {"op": "exp", "args": [{"var": 1}, {"var": 1}]},
    {"var": 1.5},
    {"var": True},
    {"op": "pow", "args": [{"var": 1}, 2.5]},
]


@pytest.mark.parametrize("sub", ["curvature", "geodesic"])
@pytest.mark.parametrize("tree", MALFORMED_TREES, ids=json.dumps)
def test_geometry_malformed_psi_tree_exits_2(capsys, tmp_path, sub, tree):
    p = tmp_path / "metric.json"
    p.write_text(json.dumps({"a": 1, "b": 1, "C": [[1]], "psi": {"1,1": [tree]}}))
    rc = main(["geometry", str(p), sub])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("error: ")


# ---------------------------------------------------------------------------
# the README's commands


def readme_commands():
    """The echo and jtcurv lines of the README's sh blocks, continuation
    lines joined: (line, tokens)."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens and tokens[0] in ("echo", "jtcurv"):
                out.append((line, tokens))
    return out


def test_readme_commands_run(capsys, exp_json, tmp_path, monkeypatch):
    """Every jtcurv line of the README runs in a fresh directory after the
    echo lines before it, and exits 1 exactly where the README says so."""
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line, tokens in readme_commands():
        if tokens[0] == "echo":
            assert tokens[2] == ">" and len(tokens) == 4, line
            (tmp_path / tokens[3]).write_text(tokens[1] + "\n")
            continue
        rc = main(tokens[1:])
        capsys.readouterr()
        assert rc == (1 if "exits 1" in line else 0), line
        ran += 1
    assert ran == 16
    # phi.json is the exponential family of the exp_json fixture
    got = PhiFamily.from_json(json.loads((tmp_path / "phi.json").read_text()))
    assert got.to_json() == json.loads(pathlib.Path(exp_json).read_text())
