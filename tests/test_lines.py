"""Line systems: validation, tightness, the gain-graph bridge, dismantling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gainforge.errors import (
    AngleViolation,
    BadParam,
    NonNegativeThetaMin,
    NormViolation,
    NotTwoEigenvalue,
    PartitionInvalid,
    PartNotTight,
    Timeout,
    UnknownName,
)
from gainforge.gains import Gain, build
from gainforge.lines import (
    LineSystem,
    angle_profile,
    bounds_check,
    dismantle,
    find_basis_partition,
    gain_to_lines,
    geometry_lines,
    lines_to_gain,
    tightness_check,
)
from gainforge.constructions import catalog_entry, complete, fixed_catalog
from gainforge.spectral import TwoEvCertificate, certify_two_ev

ONE = Gain.exact(0, 1)
S3 = math.sqrt(3.0)


# -- validation ------------------------------------------------------------------

def test_columns_must_be_unit():
    with pytest.raises(NormViolation):
        LineSystem(np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_a_nan_column_is_not_unit():
    with pytest.raises(NormViolation, match="column 1 has norm nan"):
        LineSystem(np.array([[1.0, np.nan], [0.0, 0.0]]))


def test_declared_angle_is_enforced():
    cols = np.array([[1.0, 0.8], [0.0, 0.6]])
    with pytest.raises(AngleViolation):
        LineSystem(cols, declared_angle=0.5)
    LineSystem(cols, declared_angle=0.8)  # and this one is fine


def test_matrix_must_be_two_dimensional():
    with pytest.raises(BadParam):
        LineSystem(np.ones(3))


# -- tightness and angles -----------------------------------------------------------

def test_orthonormal_basis_is_tight_with_unit_z():
    rep = tightness_check(LineSystem(np.eye(3)))
    assert rep.is_tight and rep.z == pytest.approx(1.0)
    assert angle_profile(LineSystem(np.eye(3))).classification == "orthogonal"


def test_four_vectors_in_r3_that_fail_tightness():
    cols = np.array([
        [1.0, 0.5, 0.0, 0.5],
        [0.0, S3 / 2, S3 / 3, -S3 / 6],
        [0.0, 0.0, math.sqrt(6) / 3, math.sqrt(6) / 3],
    ])
    system = LineSystem(cols)
    rep = tightness_check(system)
    assert not rep.is_tight
    evs = np.linalg.eigvalsh(cols @ cols.T)
    assert np.allclose(sorted(evs), [1.0, 1.0, 2.0])
    # angles are {0, 1/2}: the graph underneath is a four-cycle
    prof = angle_profile(system)
    assert prof.classification == "A2" and prof.alpha == pytest.approx(0.5)


def test_sic_profiles():
    assert angle_profile(geometry_lines("SIC2")).alpha == pytest.approx(1 / S3)
    prof = angle_profile(geometry_lines("SIC3"))
    assert prof.classification == "A1"
    assert prof.alpha == pytest.approx(0.5)


def test_mub_profiles_have_a_zero_angle():
    prof = angle_profile(geometry_lines("MUB_C3", t=4))
    assert prof.classification == "A2"
    assert prof.alpha == pytest.approx(1 / S3)
    assert prof.values[0] == pytest.approx(0.0, abs=1e-12)


# -- named geometries -----------------------------------------------------------

@pytest.mark.parametrize("name,kw,dim,count,z", [
    ("SIC2", {}, 2, 4, 2.0),
    ("SIC3", {}, 3, 9, 3.0),
    ("MUB_C2", dict(t=3), 2, 6, 3.0),
    ("MUB_C3", dict(t=4), 3, 12, 4.0),
    ("MUB_C4_pair", {}, 4, 8, 2.0),
    ("ETF6", {}, 3, 6, 2.0),
    ("SimplexDiff", dict(m=5), 4, 10, 2.5),
    ("Hexacode", {}, 6, 15, 2.5),
    ("Witting", {}, 4, 40, 10.0),
    ("ST33", {}, 5, 45, 9.0),
    ("CoxeterTodd", dict(base=2), 6, 126, 21.0),
])
def test_geometry_dimensions_and_tightness(name, kw, dim, count, z):
    s = geometry_lines(name, **kw)
    assert (s.dim, s.count) == (dim, count)
    rep = tightness_check(s)
    assert rep.is_tight and rep.z == pytest.approx(z)


def test_geometry_unknown_name():
    with pytest.raises(UnknownName):
        geometry_lines("Penrose")


def test_geometry_rejects_a_parameter_it_does_not_take():
    with pytest.raises(TypeError):
        geometry_lines("SIC2", t=3)
    with pytest.raises(TypeError):
        geometry_lines("MUB_C3", m=3)


# -- the bridge ------------------------------------------------------------------

def test_gain_to_lines_counts_and_angle():
    g = fixed_catalog("GQ22")
    system = gain_to_lines(g)
    assert (system.dim, system.count) == (6, 15)
    assert tightness_check(system).z == pytest.approx(2.5)


def test_round_trip_recovers_the_gains():
    g = catalog_entry("SIC3").build()
    cert = certify_two_ev(g)
    system = gain_to_lines(g, cert)
    h = lines_to_gain(system, alpha=-1.0 / cert.theta2)
    assert np.allclose(h.matrix(), g.matrix(), atol=1e-8)


def test_gain_to_lines_rejects_non_two_ev():
    c4 = build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 0, ONE)])
    with pytest.raises(NotTwoEigenvalue):
        gain_to_lines(c4)


def test_gain_to_lines_guards_against_bogus_certificate():
    cert = TwoEvCertificate(theta1=3.0, theta2=1.0, m=1, a=4.0, k=-3.0,
                            residual=0.0, degree_check=True)
    with pytest.raises(NonNegativeThetaMin):
        gain_to_lines(complete(4), cert)


def test_lines_to_gain_rejects_wrong_alpha():
    with pytest.raises(AngleViolation):
        lines_to_gain(geometry_lines("SIC3"), alpha=0.3)


# -- dismantling ------------------------------------------------------------------

def test_dismantle_mub_c3_by_bases():
    s = geometry_lines("MUB_C3", t=4)
    partition = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    res = dismantle(s, partition, alpha=1 / S3)
    assert all(r.is_tight for r in res.part_reports)
    assert res.union_certificates[0] is None  # a lone basis has no edges
    for t, cert in enumerate(res.union_certificates[1:], start=2):
        assert cert is not None
        assert cert.theta1 == pytest.approx((t - 1) * S3)
        assert cert.theta2 == pytest.approx(-S3)


def test_dismantle_rejects_bad_partitions():
    s = geometry_lines("MUB_C3", t=2)
    with pytest.raises(PartitionInvalid):
        dismantle(s, [[0, 1, 2], [2, 3, 4, 5]], alpha=1 / S3)
    with pytest.raises(PartitionInvalid):
        dismantle(s, [[0, 1, 2]], alpha=1 / S3)
    with pytest.raises(PartNotTight):
        dismantle(s, [[0, 1, 3], [2, 4, 5]], alpha=1 / S3)


def test_find_basis_partition_on_mubs():
    s = geometry_lines("MUB_C3", t=3)
    parts = find_basis_partition(s)
    assert parts is not None and len(parts) == 3
    assert sorted(c for p in parts for c in p) == list(range(9))


def test_find_basis_partition_rejects_indivisible_counts():
    with pytest.raises(BadParam):
        find_basis_partition(geometry_lines("SimplexDiff", m=5))


def test_find_basis_partition_budget_raises_timeout():
    with pytest.raises(Timeout):
        find_basis_partition(geometry_lines("Witting"), budget=10)


# -- bounds ----------------------------------------------------------------------

def test_absolute_bound_values():
    assert bounds_check(2, 1, False).absolute_bound == 4
    assert bounds_check(2, 2, True).absolute_bound == 6
    assert bounds_check(4, 2, True).absolute_bound == 40


def test_bounds_on_a_catalog_graph():
    g = catalog_entry("W4").build()
    rep = bounds_check(2, 1, False, g=g)
    assert rep.absolute_ok and rep.distinct_lines == 4
    assert rep.coclique_ok and rep.max_coclique <= 2


def test_rank_bound_attained_by_the_twelve_mub_lines():
    g = catalog_entry("MUB_C3(4)").build()
    cert = certify_two_ev(g)
    rep = bounds_check(cert.m, 2, True, g=g)
    assert rep.rank_bound == 12 and rep.rank_bound_ok
    assert g.n == rep.rank_bound
