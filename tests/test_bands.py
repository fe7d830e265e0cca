"""Two-polariton free branches, spinor eigenvectors, and band/gap geometry.

The branch invariants are asserted by the validation checks
branch-eigenstructure and branch-symmetries; the tests named after them
here plant a fault of the kind each guards and require the check to fail.
"""

import numpy as np
import pytest

from twopolaritons import validation
from twopolaritons.bands import (
    BRANCHES,
    BandStructure,
    band_structure,
    branch_energy,
    branch_energy_derivative,
    branch_vector,
    incident_state,
)
from twopolaritons.model import PARITY, ModelParams
from twopolaritons.validation import run_checks

RNG = np.random.default_rng(23)

# Closed-form anchors for xi=-0.2, delta=0, g=1 (upper dressed level at k=0
# is (-0.4 + sqrt(0.16 + 4))/2, band edges follow from the branch extrema).
UPPER_LEVEL_K0 = 0.819803902718557
EDGES_DELTA0 = {
    "AA": (1.6396078054371142, 2.439607805437114),
    "AB": (-0.4, 0.4),
    "BB": (-2.439607805437114, -1.6396078054371142),
}


def random_params(rng):
    return ModelParams(
        xi=rng.uniform(-1.0, 1.0),
        delta=rng.uniform(-5.0, 5.0),
        K=rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
    )


def test_branch_energy_frozen_value():
    p = ModelParams(xi=-0.2)
    # AA at q=0, K=0 is twice the upper dressed level at k=0
    assert abs(branch_energy("AA", 0.0, p) - 2.0 * UPPER_LEVEL_K0) < 1e-14


def tamper_energy(monkeypatch, edit):
    """Make the checks see branch_energy(br, q, p) + edit(br, q)."""
    monkeypatch.setattr(validation, "branch_energy",
                        lambda br, q, p: branch_energy(br, q, p) + edit(br, q))


def test_branch_energy_is_sum_of_dressed_levels(monkeypatch):
    # swapping the AB/BA labels keeps the q -> -q map and the trace; only
    # the sum of the dressed levels at K/2 +- q tells the two apart
    swap = {"AB": "BA", "BA": "AB"}
    monkeypatch.setattr(validation, "branch_energy",
                        lambda br, q, p: branch_energy(swap.get(br, br), q, p))
    assert not run_checks(["branch-symmetries"])[0].passed


def test_branch_exchange_symmetry(monkeypatch):
    # AA must be even in q: an odd 1e-11 term fails
    tamper_energy(monkeypatch, lambda br, q: 1e-11 * np.sin(q) * (br == "AA"))
    assert not run_checks(["branch-symmetries"])[0].passed


def test_branch_sum_rule(monkeypatch):
    # the four branches sum to the trace of M(q): a 1e-11 shift of BB fails
    tamper_energy(monkeypatch, lambda br, q: 1e-11 * (br == "BB"))
    assert not run_checks(["branch-symmetries"])[0].passed


def test_branch_vector_is_bloch_eigenstate(monkeypatch):
    # the exchange mirror of a branch spinor solves M(-q), not M(q)
    monkeypatch.setattr(validation, "branch_vector",
                        lambda br, q, p: PARITY @ branch_vector(br, q, p))
    assert not run_checks(["branch-eigenstructure"])[0].passed


def test_branch_vector_exchange_conjugation():
    # Swapping the two excitations flips q and the antisymmetric slot.
    for _ in range(20):
        p = random_params(RNG)
        q = RNG.uniform(-np.pi, np.pi)
        for branch, partner in (("AB", "BA"), ("AA", "AA"), ("BB", "BB")):
            lhs = PARITY @ branch_vector(branch, q, p)
            rhs = branch_vector(partner, -q, p)
            # phase_fix makes both sides real with a fixed sign convention
            assert np.linalg.norm(lhs - rhs) < 1e-10 or \
                np.linalg.norm(lhs + rhs) < 1e-10


def test_branch_energy_derivative_matches_finite_difference():
    h = 1e-6
    for _ in range(30):
        p = random_params(RNG)
        q = RNG.uniform(-np.pi + 0.1, np.pi - 0.1)
        for branch in BRANCHES:
            num = (branch_energy(branch, q + h, p)
                   - branch_energy(branch, q - h, p)) / (2.0 * h)
            assert abs(branch_energy_derivative(branch, q, p) - num) < 1e-6


def test_band_edges_frozen():
    bs = band_structure(ModelParams(xi=-0.2))
    for label, (lo, hi) in EDGES_DELTA0.items():
        got_lo, got_hi = bs.branch_edges[label]
        assert abs(got_lo - lo) < 1e-10
        assert abs(got_hi - hi) < 1e-10


def test_band_edges_mirror_under_detuning_flip():
    # delta -> -delta maps the spectrum to its negative (photon/TLS swap)
    for delta in (0.7, 2.3):
        up = band_structure(ModelParams(xi=-0.2, delta=delta))
        dn = band_structure(ModelParams(xi=-0.2, delta=-delta))
        assert abs(up.branch_edges["AA"][1] + dn.branch_edges["BB"][0]) < 1e-9
        assert abs(up.branch_edges["AB"][0] + dn.branch_edges["AB"][1]) < 1e-9


def test_gap_structure_at_zero_detuning():
    bs = band_structure(ModelParams(xi=-0.2))
    assert isinstance(bs, BandStructure)
    assert len(bs.bands) == 3
    assert len(bs.gaps) == 2
    g1, g2 = bs.gaps
    # index 1 is the topmost gap (between AB and AA here)
    assert g1.index == 1 and g2.index == 2
    assert g1.lo > g2.lo
    assert abs(g1.lo - EDGES_DELTA0["AB"][1]) < 1e-10
    assert abs(g1.hi - EDGES_DELTA0["AA"][0]) < 1e-10
    assert bs.gap_at(1.0) is g1
    assert bs.gap_at(-1.0) is g2
    assert bs.gap_at(0.0) is None  # inside the mixed band


def test_bands_merge_at_strong_hopping():
    # At xi=-0.75, delta=0 all three branch ranges overlap: no gaps at all.
    bs = band_structure(ModelParams(xi=-0.75))
    assert len(bs.gaps) == 0


def test_incident_state_symmetry_and_phase():
    p = ModelParams(xi=-0.2, delta=0.5, K=0.8)
    q = 1.1
    ls = np.arange(-5, 6)
    psi = incident_state("AB", q, p, ls)
    f = branch_vector("AB", q, p).astype(complex)
    for i, l in enumerate(ls):
        expect = 0.5 * (np.exp(1j * q * l) * f
                        + np.exp(-1j * q * l) * (PARITY @ f))
        assert np.linalg.norm(psi[i] - expect) < 1e-14
    # exchange symmetry of the combination: psi(-l) = PARITY psi(l)
    for i, l in enumerate(ls):
        j = np.where(ls == -l)[0][0]
        assert np.linalg.norm(psi[j] - PARITY @ psi[i]) < 1e-14


def test_incident_state_satisfies_site_equation():
    from twopolaritons.model import hop_blocks, bloch_matrices

    p = ModelParams(xi=-0.3, delta=1.2, K=0.6)
    q = 0.9
    e = branch_energy("AA", q, p)
    ls = np.arange(-4, 5)
    psi = incident_state("AA", q, p, ls)
    hp, hm = hop_blocks(p)
    onsite = bloch_matrices(p).onsite
    for i in range(1, len(ls) - 1):
        resid = onsite @ psi[i] + hp @ psi[i - 1] + hm @ psi[i + 1] \
            - e * psi[i]
        assert np.linalg.norm(resid) < 1e-12


def test_branch_label_validation():
    p = ModelParams(xi=-0.2)
    with pytest.raises(Exception):
        branch_energy("AC", 0.3, p)
