"""Command-line integration: exit codes, JSON reports, CSV outputs."""

import csv
import json
from fractions import Fraction

import pytest

from jtcurv.cli import main
from jtcurv.realizations import AFamily, phi_family_specialized
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


def test_geometry_missing_params(capsys):
    rc, _, err = run(capsys, "geometry", "m-a", "symmetric")
    assert rc == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
