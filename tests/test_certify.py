"""Contraction constants, existence radii, certificate assembly."""

import importlib
import json
import re

import numpy as np
import pytest

from fracbvp import (
    DomainError,
    GrowthSpec,
    ProblemParams,
    ProblemSpec,
    certify,
    contraction_constant,
    existence_radius,
    parse,
    theta,
)
from fracbvp import cli, greens
from fracbvp.certify import contradiction
from fracbvp.cli import _certificate_lines

# the module, not the function that ``fracbvp.certify`` names
certify_module = importlib.import_module("fracbvp.certify")

EXAMPLE_K = 1.0 / 11.0


def test_theta_example_values(example_params):
    assert abs(theta(example_params) - 2.0) <= 1e-12
    assert abs(theta(ProblemParams(2.0, 0.5, 0.5)) - 5.0 / 3.0) <= 1e-12


def test_theta_exceeds_one_everywhere():
    for alpha in np.linspace(1.05, 2.0, 10):
        for beta in np.linspace(0.05, 0.95, 10):
            assert theta(ProblemParams(float(alpha), float(beta), 0.5)) > 1.0


def test_contraction_constant_example(example_params):
    d = contraction_constant(EXAMPLE_K, max(0.5527021926126314, theta(example_params)))
    assert abs(d - 4.0 / 11.0) <= 1e-12  # theta term dominates


def test_contraction_constant_monotone(example_params):
    rng = np.random.default_rng(307)
    th = theta(example_params)
    for _ in range(50):
        k1, k2 = sorted(rng.uniform(0.0, 5.0, size=2))
        g1, g2 = sorted(rng.uniform(0.0, 5.0, size=2))
        assert contraction_constant(k1, max(g1, th)) <= contraction_constant(k2, max(g1, th))
        assert contraction_constant(k1, max(g1, th)) <= contraction_constant(k1, max(g2, th))


def test_contraction_constant_domain(example_params):
    with pytest.raises(DomainError):
        contraction_constant(-0.1, 1.0)
    with pytest.raises(DomainError):
        contraction_constant(0.1, -1.0)


def test_growth_spec_validation():
    with pytest.raises(DomainError):
        GrowthSpec(1.0, 0.0)
    with pytest.raises(DomainError):
        GrowthSpec(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        GrowthSpec(1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        GrowthSpec(-1.0, 1.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((-1.0, 0.0, -1.0), "growth envelope needs a > 0, got 0.0"),
        ((-1.0, 1.0, -1.0), "growth envelope needs b >= 0, got -1.0"),
        ((-1.0, 1.0), "p_star must be >= 0, got -1.0"),
    ],
    ids=("a", "b", "p_star"),
)
def test_growth_spec_names_the_first_bad_field(fields, message):
    # a record with several bad fields reports the first of a, b, p_star
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        GrowthSpec(*fields)


def test_existence_radius_domain():
    with pytest.raises(DomainError, match="kernel bound must be >= 0"):
        existence_radius(GrowthSpec(1.0, 1.0), -1.0)


def test_existence_radius_closed_forms(example_params):
    # constant growth (b = 0): r = p* a max(G*, theta)
    th = theta(example_params)
    r = existence_radius(GrowthSpec(1.0, 1.0), max(3.1601, th))
    assert r == pytest.approx(3.1601, abs=1e-12)
    # no finite radius once p* b max(G*, theta) reaches 1
    r = existence_radius(GrowthSpec(1.0, 1.0, 1.0), max(3.1601, th))
    assert r is None
    # with the computed bound the theta term dominates the max
    r = existence_radius(GrowthSpec(1.0, 1.0), max(0.5527021926126314, th))
    assert r == pytest.approx(2.0, abs=1e-12)


def test_certify_example_unique(example_spec):
    cert = certify(example_spec, k=EXAMPLE_K, m=65)
    assert cert.unique
    assert abs(cert.d - 4.0 / 11.0) <= 1e-12
    assert abs(cert.k - EXAMPLE_K) <= 1e-15
    assert not cert.estimated_k
    assert cert.gstar_value <= cert.gstar_paper_bound
    assert abs(cert.theta - 2.0) <= 1e-12
    assert abs(cert.gstar_paper_bound - 3.2769594070328654) <= 1e-12


def test_certify_zero_k(example_spec):
    cert = certify(example_spec, k=0.0, m=33)
    assert cert.d == 0.0
    assert cert.unique


def test_certify_large_k_not_unique(example_spec):
    cert = certify(example_spec, k=100.0, m=33)
    assert not cert.unique
    assert cert.d >= 400.0 - 1e-9


def test_certify_estimates_k_when_missing(example_spec):
    cert = certify(example_spec, m=33)
    assert cert.estimated_k
    # sampled bound of the state partials: 5 sin(t)^2 / (11 (e^{2t}+3e^t+1))
    assert abs(cert.k - 0.019485823) <= 1e-6
    assert cert.unique


def test_certify_growth_flags(example_spec):
    with_growth = certify(
        example_spec, k=EXAMPLE_K, growth=GrowthSpec(1.0, 1.0), m=33
    )
    assert with_growth.exists
    assert with_growth.r == pytest.approx(2.0, abs=1e-9)
    no_radius = certify(
        example_spec, k=EXAMPLE_K, growth=GrowthSpec(1.0, 1.0, 1.0), m=33
    )
    assert not no_radius.exists
    assert no_radius.r is None
    without = certify(example_spec, k=EXAMPLE_K, m=33)
    assert not without.exists
    assert without.r is None


def test_a_zero_p_star_is_a_growth_bound_with_radius_zero(example_spec):
    # p_star = 0 bounds |f| by 0, so the smallest radius is r = 0
    cert = certify(example_spec, k=EXAMPLE_K, growth=GrowthSpec(0.0, 1.0), m=33)
    assert cert.r == 0.0
    assert cert.exists


def test_certificate_dict_shape(example_spec):
    cert = certify(example_spec, k=EXAMPLE_K, m=33)
    d = cert.as_dict()
    assert set(d) == {
        "gstar_value",
        "gstar_paper_bound",
        "theta",
        "k",
        "d",
        "unique",
        "r",
        "exists",
        "estimated_k",
    }
    assert d["unique"] == (d["d"] < 1.0)
    assert d["exists"] == (d["r"] is not None)


def test_numpy_k_gives_a_json_ready_certificate(example_spec):
    cert = certify(example_spec, k=np.float64(EXAMPLE_K), m=33)
    d = json.loads(json.dumps(cert.as_dict()))
    assert d["unique"] is True and d["k"] == EXAMPLE_K
    assert "unique=true" in _certificate_lines(cert)


def test_contradiction_refutes_only_what_the_samples_disprove(example_spec):
    linear = parse("3*u + 0.5*v")
    assert contradiction(linear, 3.0, None) is None
    assert contradiction(linear, 2.9, None).startswith("key 'k': 2.9 is below")
    # |1 + u/2| <= 1 + max(|u|, |v|)/2, with equality at u = 10
    affine = parse("1 + 0.5*u")
    assert contradiction(affine, None, GrowthSpec(1.0, 1.0, 0.5)) is None
    assert contradiction(affine, None, GrowthSpec(1.0, 1.0, 0.49)).startswith("key 'p_star'")
    assert contradiction(affine, None, None) is None
    # the example's k = 1/11 stands; its sampled quotients reach 0.0195
    assert contradiction(example_spec.rhs, EXAMPLE_K, None) is None
    assert contradiction(example_spec.rhs, 0.019, None) is not None
    # certify itself takes what it is given
    assert certify(ProblemSpec(example_spec.params, linear), k=0.1, m=33).k == 0.1


def test_every_sampled_check_reads_one_state_lattice():
    # the nested loop t -> u -> v -> probe, written out: 65 t values, 5 nodes
    # per state axis on [-10, 10], probes (u+du, u-du, v+dv, v-dv) with steps
    # 1e-6 (1 + |coordinate|)
    axis = [-10.0, -5.0, 0.0, 5.0, 10.0]
    points = []
    for i in range(65):
        t = i / 64
        for u in axis:
            du = 1e-6 * (1.0 + abs(u))
            for v in axis:
                dv = 1e-6 * (1.0 + abs(v))
                points += [(t, u + du, v), (t, u - du, v), (t, u, v + dv), (t, u, v - dv)]
    want = np.array(points).T.reshape(3, 65, 5, 5, 4)
    lattice = certify_module._LATTICE
    assert len(lattice) == 3
    for got, expected in zip(lattice, want):
        assert got.shape == (65, 5, 5, 4) and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
    # contradiction's 300 points are the rows t = 0, 1/2 and 1
    for got, full in zip(certify_module._CHECK_POINTS, lattice):
        assert got.shape == (3, 5, 5, 4) and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(full[[0, 32, 64]]).tobytes()
    assert certify_module._CHECK_POINTS[0][:, 0, 0, 0].tolist() == [0.0, 0.5, 1.0]


def test_theta_is_computed_once_per_certificate(example_spec, monkeypatch, capsys):
    calls = []
    for module in (certify_module, greens):
        real = module.theta
        monkeypatch.setattr(module, "theta", lambda p, real=real: calls.append(p) or real(p))
    growth = GrowthSpec(1.0, 1.0)
    assert certify(example_spec, k=EXAMPLE_K, growth=growth, m=33).theta == 2.0
    assert len(calls) == 1
    calls.clear()
    # the example prints its certificate's theta
    assert not hasattr(cli, "theta")
    assert cli.main(["example"]) == 0
    assert "theta=2.000000000000\n" in capsys.readouterr().out
    assert len(calls) == 1


def test_contraction_constant_of_the_kernel_bound_is_the_papers_d():
    # for k >= 0, 2k max(g, theta) == max(2k g, 2k theta) bit for bit, as
    # rounding is monotone
    rng = np.random.default_rng(41)
    ks, gs, ths = 10.0 ** rng.uniform(-12.0, 12.0, 500), rng.uniform(0.0, 5.0, 500), rng.uniform(1.0, 5.0, 500)
    edges = [(0.0, 0.5, 2.0), (0.0, 3.0, 2.0), (0.3, 2.0, 2.0), (1e308, 0.5, 2.0), (1e308, 3.0, 2.0)]
    for k, g, th in list(zip(ks.tolist(), gs.tolist(), ths.tolist())) + edges:
        d = contraction_constant(k, max(g, th))
        assert d.hex() == max(2.0 * k * g, 2.0 * k * th).hex(), (k, g, th)
    assert contraction_constant(1e308, 2.0) == float("inf")


def test_a_contraction_constant_of_exactly_one_is_not_unique(example_spec):
    # the example's theta = 2 exceeds its G* = 0.55, so k = 1/4 gives
    # d = 2 * 0.25 * 2 = 1 exactly, with no rounding: a map with d = 1 need
    # not contract
    cert = certify(example_spec, k=0.25, m=33)
    assert (cert.theta, cert.d, cert.unique) == (2.0, 1.0, False)


def test_a_growth_slope_of_exactly_one_has_no_radius():
    # p* b max(G*, theta) = 1 * 0.5 * 2 = 1 exactly: r >= 2 (1 + r/2) = 2 + r
    # holds for no finite r
    assert existence_radius(GrowthSpec(1.0, 1.0, 0.5), 2.0) is None


def test_contradiction_refuses_a_k_a_millionth_below_the_quotients():
    # 3*u + 0.5*v has u-quotients 3 up to roundoff: at most 4.4e-10 max|f|
    # = 1.5e-8 here (max|f| = 35), and 4.2e-10 as sampled.  k = 3 (1 - 1e-6)
    # is 3e-6 below, 200 times that bound and 80 times the slack
    # 1e-9 (k + max|f|) = 3.8e-8, yet 1e4 times below a slack of 1e-3.
    refusal = contradiction(parse("3*u + 0.5*v"), 3.0 * (1 - 1e-6), None)
    assert refusal is not None and refusal.startswith("key 'k': 2.999997 is below")


def test_contradiction_refuses_a_growth_bound_a_millionth_too_low():
    # |1 + u/2| reaches 6.0000055 at u = 10 + du, where psi with b lowered by
    # 1e-6 relative gives 6.0000005: an excess of 5e-6, 700 times the slack
    # 1e-9 (1 + |f|) = 7e-9, yet 140 times below a slack of 1e-4.
    growth = GrowthSpec(1.0, 1.0, 0.5 * (1 - 1e-6))
    refusal = contradiction(parse("1 + 0.5*u"), None, growth)
    assert refusal is not None and refusal.startswith("key 'p_star'")
