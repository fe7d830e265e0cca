"""Named, timed self-checks covering every module plus cross-checks.

Each check re-derives an invariant from scratch and reports pass/fail
with a one-line measurement, so a run documents not just that the suite
passed but by what margin.  Checks read model builders through the
module object at call time; tests exploit that seam to inject faults
and confirm the suite actually catches them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import model
from .bands import band_structure, branch_energy, branch_vector, incident_state
from .bound_states import find_bound_states, rayleigh_quotient
from .channels import channel_expansion, contact_elimination, find_channel_roots
from .errors import ChannelCountError, DegenerateParametersError
from .model import PARITY, ModelParams, single_polariton_energy
from .ring_ed import (
    TwoExcitationBasis,
    band_edge_check,
    build_hamiltonian,
    compare_bound_state,
    jc_pair_levels,
    momentum_blocks,
    translation_operator,
)
from .scattering import solve_scattering

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]

SEED = 20260816
BRANCHES = ("AA", "AB", "BA", "BB")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _draw_params(rng, k_zero=False) -> ModelParams:
    xi = rng.uniform(-1.0, 1.0)
    delta = rng.uniform(-5.0, 5.0)
    k = 0.0 if k_zero else rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
    return ModelParams(xi=xi, delta=delta, K=k)


def _check_bloch_hermiticity(rng):
    worst = 0.0
    for _ in range(200):
        p = _draw_params(rng)
        mats = model.bloch_matrices(p)
        lam = rng.uniform(-np.pi, np.pi)
        m = mats.onsite + mats.hop_cos * np.cos(lam) + mats.hop_sin * np.sin(lam)
        worst = max(worst, np.abs(m - m.conj().T).max())
        hp, hm = model.hop_blocks(p)
        worst = max(worst, np.abs(hm - hp.conj().T).max())
    return worst < 1e-12, f"max Hermiticity defect {worst:.3g} over 200 draws"


def _check_parity_conjugation(rng):
    worst = 0.0
    for _ in range(200):
        p = _draw_params(rng)
        mats = model.bloch_matrices(p)
        lam = rng.uniform(-np.pi, np.pi)
        m_plus = mats.onsite + mats.hop_cos * np.cos(lam) \
            + mats.hop_sin * np.sin(lam)
        m_minus = mats.onsite + mats.hop_cos * np.cos(lam) \
            - mats.hop_sin * np.sin(lam)
        worst = max(worst, np.abs(PARITY @ m_plus @ PARITY - m_minus).max())
    return worst < 1e-12, f"max conjugation defect {worst:.3g} over 200 draws"


def _check_branch_eigenstructure(rng):
    worst_norm, worst_res = 0.0, 0.0
    for _ in range(200):
        p = _draw_params(rng)
        q = rng.uniform(1e-3, np.pi - 1e-3)
        m = model.bloch_matrix(p, q)
        for br in BRANCHES:
            e = branch_energy(br, q, p)
            f = branch_vector(br, q, p)
            worst_norm = max(worst_norm, abs(np.linalg.norm(f) - 1.0))
            worst_res = max(worst_res, np.linalg.norm(m @ f - e * f))
    ok = worst_norm < 1e-12 and worst_res < 1e-10
    return ok, (f"max |norm-1| {worst_norm:.3g}, "
                f"max eigen-residual {worst_res:.3g} over 200 draws")


def _check_branch_symmetries(rng):
    worst_swap, worst_sum, worst_trace = 0.0, 0.0, 0.0
    for _ in range(200):
        p = _draw_params(rng)
        q = rng.uniform(1e-3, np.pi - 1e-3)
        worst_swap = max(worst_swap, abs(
            branch_energy("AB", q, p) - branch_energy("BA", -q, p)))
        total = 0.0
        for br in BRANCHES:
            e = branch_energy(br, q, p)
            total += e
            split = single_polariton_energy(br[0], 0.5 * p.K + q, p) \
                + single_polariton_energy(br[1], 0.5 * p.K - q, p)
            worst_sum = max(worst_sum, abs(e - split))
        expect = 2.0 * (2.0 * p.delta + 4.0 * p.xi
                        * np.cos(0.5 * p.K) * np.cos(q))
        worst_trace = max(worst_trace, abs(total - expect))
    ok = worst_swap < 1e-12 and worst_sum < 1e-10 and worst_trace < 1e-12
    return ok, (f"max AB/BA swap {worst_swap:.3g}, branch-sum "
                f"{worst_sum:.3g}, trace {worst_trace:.3g} over 200 draws")


def _check_channel_roots(rng):
    counted, skipped, worst = 0, 0, 0.0
    sigma = np.inf
    for _ in range(200):
        p = _draw_params(rng)
        e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
        try:
            roots = find_channel_roots(e, p)
        except (ChannelCountError, DegenerateParametersError):
            skipped += 1        # drew a band edge, the 2*delta pole or K = pi
            continue
        counted += 1
        if len(roots) != 3:
            return False, f"{len(roots)} roots at E={e}, params={p}"
        for r in roots:
            m = model.bloch_matrix(p, r.lam)
            worst = max(worst, np.linalg.norm(m @ r.vector - e * r.vector))
            if not r.is_open and not abs(r.z) < 1.0:
                return False, f"closed root with |z| = {abs(r.z)} >= 1"
        phi = np.array([r.vector for r in roots]).T
        sigma = min(sigma, np.linalg.svd(phi, compute_uv=False)[-1])
    ok = counted > 0 and worst < 1e-8 and sigma > 1e-3
    return ok, (f"max root residual {worst:.3g}, min spinor sigma "
                f"{sigma:.3g} over {counted} draws ({skipped} degenerate "
                f"draws skipped)")


def _check_scattering_unitarity(rng):
    # Re f = -2|f|^2 is the optical theorem when AB/BA are the only open
    # channels; with more channels open the flux spreads and only the
    # zero-current certificate applies, so such draws count separately.
    worst_u, worst_eq, worst_res = 0.0, 0.0, 0.0
    two_channel = 0
    for _ in range(40):
        p = ModelParams(xi=rng.uniform(-0.9, -0.1),
                        delta=rng.uniform(-3.0, 3.0), K=0.0)
        q = rng.uniform(0.4, np.pi - 0.4)
        sol = solve_scattering("AB", q, p)
        f_ab = sol.coefficient("AB")
        f_ba = sol.coefficient("BA")
        worst_eq = max(worst_eq, abs(f_ab - f_ba))
        worst_res = max(worst_res, sol.residual_max, sol.current_max)
        if len(sol.open_branches) == 2:
            two_channel += 1
            worst_u = max(worst_u, abs(f_ab.real + 2.0 * abs(f_ab) ** 2))
        if two_channel >= 12:
            break
    ok = two_channel > 0 and worst_u < 1e-8 and worst_eq < 1e-10 \
        and worst_res < 1e-8
    return ok, (f"max |Re f + 2|f|^2| {worst_u:.3g} over {two_channel} "
                f"two-channel draws, max |f_AB - f_BA| {worst_eq:.3g}, "
                f"max certificate {worst_res:.3g}")


def _check_scattering_free_chain(rng):
    """Without the contact interaction and hard core, nothing scatters.

    The contact elimination, with V removed and the TLS-pair slot freed,
    must return the incident spinor at l = 0 and no outgoing wave.  As that
    holds for any W, s = W x must also solve the l = 1 equation for a random x.
    """
    worst = worst_w = 0.0
    slots = [0, 1, 3]       # (p, d_+, t); d_- vanishes at l = 0 by symmetry
    for _ in range(10):
        p = ModelParams(xi=rng.uniform(-0.9, -0.1),
                        delta=rng.uniform(-3.0, 3.0),
                        K=rng.uniform(-0.9 * np.pi, 0.9 * np.pi))
        q = rng.uniform(0.4, np.pi - 0.4)
        e = float(branch_energy("AB", q, p))
        roots = find_channel_roots(e, p)
        inc = incident_state("AB", q, p, np.array([0, 1]))
        w, c, r = contact_elimination(e, roots, p, inc)
        free = (c - model.contact_interaction(p))[np.ix_(slots, slots)]
        b0 = np.zeros(4, dtype=complex)
        b0[slots] = np.linalg.solve(free, r[slots])
        worst = max(worst, float(np.abs(w @ (b0 - inc[0])).max()),
                    float(np.abs(b0 - inc[0]).max()))
        x = np.zeros(4, dtype=complex)
        x[slots] = rng.normal(size=3) + 1j * rng.normal(size=3)
        field = channel_expansion(np.arange(3), roots, w @ x, x)
        worst_w = max(worst_w, float(model.site_residual(field, e, (1, 1), p)[0]))
    ok = worst < 1e-12 and worst_w < 1e-12
    return ok, (f"max |s|, |b_0 - inc_0| without interaction {worst:.3g}, "
                f"l = 1 residual of s = W x {worst_w:.3g} over 10 draws")


def _check_bound_certificates(rng):
    worst_sig, worst_res, worst_ray = 0.0, 0.0, 0.0
    n_states = 0
    for xi, delta, k in ((-0.2, 0.0, 0.0), (-0.2, -2.0, 0.0), (-0.3, -1.0, 0.7)):
        p = ModelParams(xi=xi, delta=delta, K=k)
        for gap in band_structure(p).gaps:
            for st in find_bound_states(p, gap):
                n_states += 1
                worst_sig = max(worst_sig, st.sigma_min)
                worst_res = max(worst_res, st.residual_max)
                worst_ray = max(worst_ray,
                                abs(rayleigh_quotient(st) - st.energy))
    ok = n_states == 6 and worst_sig < 1e-8 and worst_res < 1e-8 \
        and worst_ray < 1e-8
    return ok, (f"{n_states} states; max sigma {worst_sig:.3g}, residual "
                f"{worst_res:.3g}, Rayleigh drift {worst_ray:.3g}")


def _check_ed_construction(rng):
    if TwoExcitationBasis(3).dim != 18:
        return False, "N=3 basis dimension is not 18"
    p = _draw_params(rng, k_zero=True)
    h = build_hamiltonian(8, p)
    defect = (h - h.T)
    if defect.nnz:
        return False, f"H not exactly symmetric, {defect.nnz} entries differ"
    t1 = translation_operator(8)
    comm = abs(h @ t1 - t1 @ h).max()
    sectors = momentum_blocks(h, 8)
    dims = sum(s.dim for s in sectors)
    full = np.sort(np.linalg.eigvalsh(h.toarray()))
    split = np.sort(np.concatenate([s.eigenvalues for s in sectors]))
    mismatch = np.abs(full - split).max()
    ok = comm == 0.0 and dims == 128 and mismatch < 1e-10
    return ok, (f"commutator {comm:.3g}, sector dims {dims}/128, "
                f"sector-vs-full spectrum defect {mismatch:.3g}")


def _check_ed_jc_levels(rng):
    p = ModelParams(xi=0.0, delta=rng.uniform(-3.0, 3.0), K=0.0)
    h = build_hamiltonian(8, p)
    ev = np.sort(np.linalg.eigvalsh(h.toarray()))
    levels = jc_pair_levels(p, 8)
    expanded = np.sort(np.concatenate([[e] * m for e, m in levels]))
    if len(expanded) != len(ev):
        return False, "level multiplicities do not sum to the dimension"
    worst = np.abs(ev - expanded).max()
    return worst < 1e-12, f"max level defect {worst:.3g} at delta={p.delta:.3f}"


def _check_ed_bound_agreement(rng):
    p = ModelParams(xi=-0.2, delta=0.0, K=0.0)
    worst_err, worst_ov = 0.0, 1.0
    for gap in band_structure(p).gaps:
        for st in find_bound_states(p, gap):
            row = compare_bound_state(st, [24])[0]
            worst_err = max(worst_err, row.error)
            worst_ov = min(worst_ov, row.overlap)
    ok = worst_err < 1e-8 and worst_ov > 0.9999
    return ok, (f"max |E_ED - E_b| {worst_err:.3g}, "
                f"min overlap {worst_ov:.10f} at N=24")


def _check_ed_band_edges(rng):
    rep = band_edge_check(ModelParams(xi=-0.2, delta=0.0, K=0.0), 24)
    return rep.ok, (f"{len(rep.violations)} violations, {len(rep.in_gap)} "
                    f"in-gap vs {rep.expected_bound_count} expected")


_CHECKS = (
    ("bloch-hermiticity", _check_bloch_hermiticity),
    ("parity-conjugation", _check_parity_conjugation),
    ("branch-eigenstructure", _check_branch_eigenstructure),
    ("branch-symmetries", _check_branch_symmetries),
    ("channel-roots", _check_channel_roots),
    ("scattering-unitarity", _check_scattering_unitarity),
    ("scattering-free-chain", _check_scattering_free_chain),
    ("bound-certificates", _check_bound_certificates),
    ("ed-construction", _check_ed_construction),
    ("ed-jc-levels", _check_ed_jc_levels),
    ("ed-bound-agreement", _check_ed_bound_agreement),
    ("ed-band-edges", _check_ed_band_edges),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_checks(names=None, seed: int = SEED) -> list:
    """Run the named checks (default: all) and return timed results.

    Each check gets its own deterministic generator, so running a subset
    reproduces exactly what the full suite would have measured.
    """
    wanted = set(CHECK_NAMES if names is None else names)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for i, (name, fn) in enumerate(_CHECKS):
        if name not in wanted:
            continue
        rng = np.random.default_rng(seed + 1000 * i)
        t0 = time.perf_counter()
        try:
            passed, detail = fn(rng)
        except Exception as exc:    # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(
            name=name, passed=bool(passed),
            seconds=time.perf_counter() - t0, detail=detail,
        ))
    return results
