"""Site-basis building blocks: parameters, Bloch blocks, residual operator.

The symmetries of the Bloch blocks are asserted by the validation checks
bloch-hermiticity and parity-conjugation, the one-excitation dressed levels
by branch-symmetries; the tests named after them here plant a fault of the
kind each guards and require the check to fail.
"""

import dataclasses

import numpy as np
import pytest

from twopolaritons import bands, model
from twopolaritons.bands import branch_energy, incident_state
from twopolaritons.errors import ParameterError
from twopolaritons.model import (
    PARITY,
    SQRT2,
    ModelParams,
    bloch_matrices,
    bloch_matrix,
    contact_interaction,
    site_residual,
)
from twopolaritons.validation import run_checks

RNG = np.random.default_rng(11)


def random_params(rng, k_zero=False):
    return ModelParams(
        xi=rng.uniform(-1.0, 1.0),
        delta=rng.uniform(-5.0, 5.0),
        K=0.0 if k_zero else rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
    )


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(xi=0.1, g=0.0)
    with pytest.raises(ParameterError):
        ModelParams(xi=np.nan)
    with pytest.raises(ParameterError):
        ModelParams(xi=0.1, delta=np.inf)


def test_params_scale_bound():
    # |xi|, |delta| and g up to SCALE_MAX are accepted, one ulp above refused
    top, above = model.SCALE_MAX, np.nextafter(model.SCALE_MAX, np.inf)
    for name, sign in (("xi", 1.0), ("xi", -1.0), ("delta", 1.0), ("delta", -1.0), ("g", 1.0)):
        kwargs = {"xi": 0.1, name: sign * top}
        assert getattr(ModelParams(**kwargs), name) == sign * top
        kwargs[name] = sign * above
        with pytest.raises(ParameterError, match=f"[|]{name}[|] must not exceed 1e[+]30"):
            ModelParams(**kwargs)


def test_double_root_record_field():
    # sin(K/2) = 0 to rounding at K = 0 and +-2 pi, and at xi = 0 for any K;
    # a record rebuilt from an edited hop_sin derives it afresh
    for k in (0.0, 2.0 * np.pi, -2.0 * np.pi, 1e-300, -1e-17):
        assert bloch_matrices(ModelParams(xi=-0.3, K=k)).double_root
    assert bloch_matrices(ModelParams(xi=0.0, K=1.3)).double_root
    for k in (1e-15, 0.9, np.pi, -3.0):
        assert not bloch_matrices(ModelParams(xi=-0.3, K=k)).double_root
    mats = bloch_matrices(ModelParams(xi=-0.3, delta=0.8))
    bump = np.zeros((4, 4))
    bump[1, 2] = bump[2, 1] = 1e-3
    edited = dataclasses.replace(mats, hop_sin=mats.hop_sin + bump)
    assert mats.double_root and not edited.double_root


def test_params_momentum_folding():
    p = ModelParams(xi=-0.2, K=5.0 * np.pi)
    assert -2.0 * np.pi <= p.K < 2.0 * np.pi
    # K enters only through K/2, so folding by 4*pi must not change physics
    q = 0.7
    assert np.allclose(bloch_matrix(p, q),
                       bloch_matrix(ModelParams(xi=-0.2, K=np.pi), q))


def test_parity_is_involution():
    assert np.array_equal(PARITY @ PARITY, np.eye(4))


def tamper_blocks(monkeypatch, **changes):
    """Make model.bloch_matrices return blocks edited by changes[name](block)."""
    real = model.bloch_matrices

    def tampered(params):
        mats = real(params)
        return dataclasses.replace(mats, **{name: edit(getattr(mats, name))
                                            for name, edit in changes.items()})

    monkeypatch.setattr(model, "bloch_matrices", tampered)


def test_block_symmetry(monkeypatch):
    # the blocks must be exactly symmetric: a 1e-13 defect in one entry fails
    def skew(block):
        out = block.copy()
        out[0, 1] += 1e-13
        return out

    tamper_blocks(monkeypatch, onsite=skew)
    assert not run_checks(["bloch-hermiticity"])[0].passed


def test_record_derives_everything_from_its_blocks():
    # the cached record equals one built afresh from copies of its three
    # blocks, field by field; an edited block, as the tamper seams make it
    # (dataclasses.replace, or a 3-field record), reaches every field
    # derived from it and no other
    mats = bloch_matrices(ModelParams(xi=-0.3, delta=0.8, K=0.9))
    names = [f.name for f in dataclasses.fields(mats)]
    fresh = model.BlochMatrices(onsite=mats.onsite.copy(), hop_cos=mats.hop_cos.copy(),
                                hop_sin=mats.hop_sin.copy())
    for name in names:
        assert np.array_equal(getattr(fresh, name), getattr(mats, name)), name
    for block, derived in (("hop_sin", {"hp", "hm", "mirror_hop", "hop_stack", "hop_norms"}),
                           ("onsite", {"contact", "offdiag_norms"})):
        edited = dataclasses.replace(mats, **{block: 2.0 * getattr(mats, block)})
        changed = {name for name in names
                   if not np.array_equal(getattr(edited, name), getattr(mats, name))}
        assert changed == {block} | derived, block
    edited = dataclasses.replace(mats, hop_sin=2.0 * mats.hop_sin)
    assert np.array_equal(edited.hm, 0.5 * (mats.hop_cos - 2j * mats.hop_sin))


def test_hop_sin_vanishes_at_zero_momentum():
    p = random_params(RNG, k_zero=True)
    assert np.abs(bloch_matrices(p).hop_sin).max() == 0.0


def test_tls_pair_component_does_not_hop():
    # One TLS excitation cannot move by itself; both hopping blocks must
    # therefore annihilate the TLS-pair slot.
    for _ in range(20):
        m = bloch_matrices(random_params(RNG))
        assert np.abs(m.hop_cos[3]).max() == 0.0
        assert np.abs(m.hop_sin[3]).max() == 0.0


def test_bloch_matrix_hermitian_real_momentum(monkeypatch):
    # an imaginary sin block stays symmetric, but M(lam) stops being Hermitian
    tamper_blocks(monkeypatch, hop_sin=lambda block: 1j * block)
    assert not run_checks(["bloch-hermiticity"])[0].passed


def test_bloch_matrix_parity_conjugation(monkeypatch):
    # exchange flips the antisymmetric slot only; a sign on the wrong slot fails
    monkeypatch.setattr(model, "PARITY", np.diag([1.0, -1.0, 1.0, 1.0]))
    assert not run_checks(["parity-conjugation"])[0].passed


def test_bloch_matrix_trace_rule():
    for _ in range(50):
        p = random_params(RNG)
        lam = RNG.uniform(-np.pi, np.pi)
        expect = 4.0 * p.delta + 8.0 * p.xi * np.cos(0.5 * p.K) * np.cos(lam)
        assert abs(np.trace(bloch_matrix(p, lam)) - expect) < 1e-12


def test_contact_block():
    p = ModelParams(xi=-0.3, g=1.7)
    v = contact_interaction(p)
    expect = np.zeros((4, 4))
    expect[1, 3] = expect[3, 1] = -SQRT2 * 1.7
    assert np.array_equal(v, expect)


def tamper_dressed(monkeypatch, edit):
    """Make bands.dressed_energy(kind, x, y, g) return dressed(kind, *edit(x, y, g))."""
    real = bands.dressed_energy
    monkeypatch.setattr(bands, "dressed_energy",
                        lambda kind, x, y, g: real(kind, *edit(x, y, g)))


def test_single_polariton_dispersion(monkeypatch):
    # the dressed levels must be the eigenvalues of the 2x2 photon/TLS block:
    # a coupling off by 1e-11 relative fails the branch-sum clause
    tamper_dressed(monkeypatch, lambda x, y, g: (x, y, g * (1.0 + 1e-11)))
    assert not run_checks(["branch-symmetries"])[0].passed


def test_single_polariton_trace_identity(monkeypatch):
    # the two dressed levels sum to the trace of the block: shifting both
    # bare levels by 1e-11 fails it
    tamper_dressed(monkeypatch, lambda x, y, g: (x + 1e-11, y + 1e-11, g))
    assert not run_checks(["branch-symmetries"])[0].passed


def test_site_residual_window():
    # a free wave solves every site equation away from the contact, and the
    # field must cover exactly one extra site beyond each end of the range
    p = ModelParams(xi=-0.3, delta=0.4, K=0.8)
    field = incident_state("AB", 1.1, p, np.arange(2, 13))
    e = branch_energy("AB", 1.1, p)
    assert site_residual(field, e, (3, 11), p).max() < 1e-12
    assert site_residual(field, e + 0.1, (3, 11), p).min() > 1e-3
    with pytest.raises(ValueError):
        site_residual(field[:-1], e, (3, 11), p)
