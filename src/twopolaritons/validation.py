"""Named, timed self-checks covering every module plus cross-checks.

Each check re-derives an invariant from scratch and reports pass/fail
with a one-line measurement, so a run documents not just that the suite
passed but by what margin.  A check is the only implementation of its
invariant: the test suite runs the checks rather than copying them.
Checks read model builders through the module object, and every other
solver function through this module's globals, at call time; tests
exploit that seam to inject faults and confirm the suite catches them.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import model
from .bands import band_structure, branch_energy, branch_vector, incident_state
from .bound_states import find_bound_states, rayleigh_quotient
from .channels import channel_expansion, contact_elimination, find_channel_roots
from .model import ModelParams
from .ring_ed import (
    TwoExcitationBasis,
    band_edge_check,
    build_hamiltonian,
    compare_bound_state,
    jc_pair_levels,
    momentum_blocks,
    ring_embedding,
    ring_sector,
    translation_operator,
)
from .scattering import solve_scattering

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]

SEED = 20260816
BRANCHES = ("AA", "AB", "BA", "BB")

#: Random draws of each check that sweeps the whole parameter space.
N_DRAWS = 1000


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
    asym, worst = 0.0, 0.0
    for _ in range(N_DRAWS):
        p = _draw_params(rng)
        mats = model.bloch_matrices(p)
        for block in (mats.onsite, mats.hop_cos, mats.hop_sin):
            asym = max(asym, np.abs(block - block.T).max())
        hp, hm = mats.hop_blocks()
        asym = max(asym, np.abs(hm - hp.conj().T).max())
        m = model.bloch_matrix(p, rng.uniform(-np.pi, np.pi))
        worst = max(worst, np.abs(m - m.conj().T).max())
    ok = asym == 0.0 and worst < 1e-14
    return ok, (f"max block asymmetry and |hm - hp^H| {asym:.3g} (exactly 0 "
                f"required), max M(lam) Hermiticity defect {worst:.3g} over "
                f"{N_DRAWS} draws")


def _check_parity_conjugation(rng):
    # exchanging the two excitations maps relative momentum lam to -lam
    worst = 0.0
    for _ in range(N_DRAWS):
        p = _draw_params(rng)
        lam = rng.uniform(-np.pi, np.pi)
        lhs = model.PARITY @ model.bloch_matrix(p, lam) @ model.PARITY
        worst = max(worst, np.abs(lhs - model.bloch_matrix(p, -lam)).max())
    return worst < 1e-14, (f"max conjugation defect {worst:.3g} over "
                           f"{N_DRAWS} draws")


def _check_branch_eigenstructure(rng):
    worst_norm, worst_res = 0.0, 0.0
    for _ in range(N_DRAWS):
        p = _draw_params(rng)
        q = rng.uniform(-np.pi, np.pi)
        m = model.bloch_matrix(p, q)
        for br in BRANCHES:
            e = branch_energy(br, q, p)
            f = branch_vector(br, q, p)
            worst_norm = max(worst_norm, abs(np.linalg.norm(f) - 1.0))
            worst_res = max(worst_res, np.linalg.norm(m @ f - e * f))
    ok = worst_norm < 1e-12 and worst_res < 1e-10
    return ok, (f"max |norm-1| {worst_norm:.3g}, max eigen-residual "
                f"{worst_res:.3g} over {N_DRAWS} draws")


def _dressed_level(kind, k, p):
    """Upper ('A') or lower ('B') eigenvalue of the photon/TLS block at k."""
    lo, hi = np.linalg.eigvalsh([[2.0 * p.xi * np.cos(k), p.g], [p.g, p.delta]])
    return hi if kind == "A" else lo


def _check_branch_symmetries(rng):
    # E(uv, q) = eps_u(K/2 + q) + eps_v(K/2 - q): q -> -q swaps AB and BA
    # and leaves AA and BB alone, and the four branches sum to the trace
    worst_swap, worst_sum, worst_trace = 0.0, 0.0, 0.0
    for _ in range(N_DRAWS):
        p = _draw_params(rng)
        q = rng.uniform(-np.pi, np.pi)
        energy = {br: branch_energy(br, q, p) for br in BRANCHES}
        for br, mirror in (("AB", "BA"), ("AA", "AA"), ("BB", "BB")):
            worst_swap = max(worst_swap,
                             abs(energy[br] - branch_energy(mirror, -q, p)))
        for br in BRANCHES:
            split = _dressed_level(br[0], 0.5 * p.K + q, p) \
                + _dressed_level(br[1], 0.5 * p.K - q, p)
            worst_sum = max(worst_sum, abs(energy[br] - split))
        expect = 4.0 * p.delta + 8.0 * p.xi * np.cos(0.5 * p.K) * np.cos(q)
        worst_trace = max(worst_trace, abs(sum(energy.values()) - expect))
    ok = worst_swap < 1e-12 and worst_sum < 1e-12 and worst_trace < 1e-12
    return ok, (f"max q -> -q defect {worst_swap:.3g}, branch-sum vs dressed "
                f"levels {worst_sum:.3g}, trace {worst_trace:.3g} over "
                f"{N_DRAWS} draws")


def _check_channel_roots(rng):
    # every draw must give three certified channels: a refusal fails the
    # check (run_checks reports what was raised), none is skipped
    worst_det, worst_res, worst_back = 0.0, 0.0, 0.0
    sigma = np.inf
    for _ in range(N_DRAWS):
        p = _draw_params(rng)
        e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
        roots = find_channel_roots(e, p)
        if roots.z.shape != (3,):
            return False, f"{roots.z.size} roots at E={e}, params={p}"
        # one Bloch matrix M(lam) - E per channel, stacked
        m = model.bloch_matrix(p, roots.lam[:, None, None]) - e * np.eye(4)
        scale = np.maximum(1.0, np.prod(np.linalg.norm(m, axis=2), axis=1))
        worst_det = max(worst_det, float((np.abs(np.linalg.det(m)) / scale).max()))
        res = np.linalg.norm(np.einsum("kij,jk->ki", m, roots.vectors), axis=1)
        worst_res = max(worst_res, float(res.max()))
        closed = ~roots.is_open
        if not (np.abs(roots.z[closed]) < 1.0).all():
            return False, f"closed root with |z| = {np.abs(roots.z[closed]).max()} >= 1"
        back = res[closed] / np.linalg.norm(m[closed], axis=(1, 2))
        worst_back = max(worst_back, float(np.max(back, initial=0.0)))
        sigma = min(sigma, np.linalg.svd(roots.vectors, compute_uv=False)[-1])
    ok = worst_det < 1e-8 and worst_res < 1e-8 and worst_back < 1e-12 \
        and sigma > 1e-3
    return ok, (f"max |det|/row-norm scale {worst_det:.3g}, root residual "
                f"{worst_res:.3g}, closed-root backward error "
                f"{worst_back:.3g}, min spinor sigma {sigma:.3g} over "
                f"{N_DRAWS} draws")


def _check_scattering_unitarity(rng):
    # At K = 0, Re f = -2|f|^2 is the optical theorem when AB/BA are the
    # only open channels, and caps |f|^2 at 1/4; with more channels open
    # the flux spreads and only the zero-current certificate applies, so
    # such draws count separately.  Off K = 0 the certificates must hold
    # as well, where hp != hm and the channel spinors are complex.
    worst_u, worst_cap, worst_eq, worst_res = 0.0, 0.0, 0.0, 0.0
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
            worst_cap = max(worst_cap, abs(f_ab) ** 2)
        if two_channel >= 12:
            break
    for _ in range(20):
        p = ModelParams(xi=rng.uniform(-1.0, -0.05),
                        delta=rng.uniform(-3.0, 3.0),
                        K=rng.uniform(-1.5, 1.5))
        sol = solve_scattering("AB", rng.uniform(0.3, 2.8), p)
        worst_res = max(worst_res, sol.residual_max, sol.current_max)
    ok = two_channel >= 10 and worst_u < 1e-10 and worst_cap <= 0.25 + 1e-12 \
        and worst_eq < 1e-10 and worst_res < 1e-8
    return ok, (f"max |Re f + 2|f|^2| {worst_u:.3g} and max |f|^2 "
                f"{worst_cap:.6f} over {two_channel} two-channel draws, max "
                f"|f_AB - f_BA| {worst_eq:.3g}, max certificate "
                f"{worst_res:.3g} with 20 draws off K = 0")


def _check_scattering_free_chain(rng):
    """Without the contact interaction and hard core, nothing scatters.

    The contact elimination, with V removed and the TLS-pair slot freed,
    must return the incident spinor at l = 0 and no outgoing wave.  As that
    holds for any W, s = W x must also solve the l = 1 equation for a random x.
    The first draw sits at K = 0, the others off it.
    """
    worst = worst_w = 0.0
    slots = [0, 1, 3]       # (p, d_+, t); d_- vanishes at l = 0 by symmetry
    for i in range(10):
        p = ModelParams(xi=rng.uniform(-0.9, -0.1),
                        delta=rng.uniform(-3.0, 3.0),
                        K=0.0 if i == 0 else rng.uniform(-0.9 * np.pi, 0.9 * np.pi))
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
    # both orientations of every element are written independently, so H
    # must be exactly symmetric; T must be an exact permutation commuting
    # exactly with H, and the momentum sectors must rebuild the spectrum.
    # Antipodal pairs, whose orbits are short, exist on the even ring only.
    if TwoExcitationBasis(3).dim != 18:
        return False, "N=3 basis dimension is not 18"
    p = _draw_params(rng, k_zero=True)
    comm, mismatch = 0.0, 0.0
    for n, dim in ((7, 98), (8, 128)):
        h = build_hamiltonian(n, p)
        defect = (h - h.T)
        if defect.nnz:
            return False, f"H not exactly symmetric at N={n}, {defect.nnz} entries differ"
        t1 = translation_operator(n)
        t = t1.toarray()
        perm = ((t == 0.0) | (t == 1.0)).all() and (t.sum(axis=0) == 1.0).all() \
            and (t.sum(axis=1) == 1.0).all()
        if not perm:
            return False, f"translation operator at N={n} is not a permutation"
        comm = max(comm, abs(h @ t1 - t1 @ h).max())
        sectors = momentum_blocks(h, n)
        if sum(s.dim for s in sectors) != dim:
            return False, f"sector dims {sum(s.dim for s in sectors)}/{dim} at N={n}"
        full = np.sort(np.linalg.eigvalsh(h.toarray()))
        split = np.sort(np.concatenate([s.eigenvalues for s in sectors]))
        mismatch = max(mismatch, np.abs(full - split).max())
    ok = comm == 0.0 and mismatch < 1e-10
    return ok, (f"commutator {comm:.3g}, sector dims 98 at N=7 and 128 at "
                f"N=8, sector-vs-full spectrum defect {mismatch:.3g}")


def _check_ed_jc_levels(rng):
    # with xi = 0 the ring decouples into single-site blocks whose level
    # set is known in closed form; g != 1 keeps the coupling's scale visible
    deltas = (0.0, 0.6, rng.uniform(-3.0, 3.0))
    worst = 0.0
    for delta in deltas:
        p = ModelParams(xi=0.0, delta=delta, K=0.0, g=1.1)
        ev = np.sort(np.linalg.eigvalsh(build_hamiltonian(8, p).toarray()))
        levels = jc_pair_levels(p, 8)
        expanded = np.sort(np.repeat([e for e, _ in levels],
                                     [m for _, m in levels]))
        if len(expanded) != len(ev):
            return False, "level multiplicities do not sum to the dimension"
        worst = max(worst, np.abs(ev - expanded).max())
    return worst < 1e-12, (f"max level defect {worst:.3g} at g = 1.1, delta "
                           f"in {{0, 0.6, {deltas[2]:.3f}}}")


def _check_ed_bound_agreement(rng):
    # each K = 0 embedding must also be invariant under the ring translation
    p = ModelParams(xi=-0.2, delta=0.0, K=0.0)
    worst_err, worst_ov, growth, worst_t = 0.0, 1.0, 0.0, 0.0
    for gap in band_structure(p).gaps:
        for st in find_bound_states(p, gap):
            r12, r24 = compare_bound_state(st, [12, 24])
            worst_err = max(worst_err, r24.error)
            worst_ov = min(worst_ov, r24.overlap)
            growth = max(growth, r24.error - r12.error)
            for n in (12, 24):
                psi = ring_embedding(st, n)
                worst_t = max(worst_t, np.linalg.norm(translation_operator(n) @ psi - psi)
                              / np.linalg.norm(psi))
    ok = worst_err < 1e-8 and worst_ov > 0.9999 and growth <= 0.0 \
        and worst_t <= 1e-13
    return ok, (f"max |E_ED - E_b| {worst_err:.3g}, min overlap "
                f"{worst_ov:.10f} at N=24; error growth from N=12 "
                f"{growth:.3g}; max |T psi - psi|/|psi| {worst_t:.3g}")


def _check_ed_band_edges(rng):
    # every sector-0 eigenvalue is attributed once: to a band, a gap or a
    # violation, so the attribution conserves the sector dimension
    p = ModelParams(xi=-0.2, delta=0.0, K=0.0)
    rep = band_edge_check(p, 24)
    dim = ring_sector(p, 24).dim
    counted = sum(rep.band_counts) + len(rep.in_gap) + len(rep.violations)
    ok = rep.ok and rep.expected_bound_count == 2 and counted == dim
    return ok, (f"{len(rep.violations)} violations, {len(rep.in_gap)} "
                f"in-gap vs {rep.expected_bound_count} expected, "
                f"{counted} of {dim} sector-0 eigenvalues attributed")


def _check_branch_edges(rng):
    # every branch value lies inside band_structure's edges, and each edge
    # is attained: a uniform grid refined to spacing 1.5e-6 around each of
    # its local extrema (grid error < 1e-11 at |xi| <= 1) must reach it
    coarse = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    fine = np.linspace(-1.0, 1.0, 2049) * (coarse[1] - coarse[0])
    outside = short = 0.0
    for _ in range(200):
        p = _draw_params(rng)
        edges = band_structure(p).branch_edges
        for br in BRANCHES:
            values = branch_energy(br, coarse, p)
            for side, sign in enumerate((-1.0, 1.0)):
                v = sign * values
                peaks = coarse[(v >= np.roll(v, 1)) & (v >= np.roll(v, -1))]
                dense = sign * branch_energy(br, (peaks[:, None] + fine).ravel(), p)
                best, edge = max(v.max(), dense.max()), sign * edges[br][side]
                outside, short = max(outside, best - edge), max(short, edge - best)
    ok = outside <= 1e-13 and short <= 1e-10
    return ok, (f"max branch value beyond its edge {outside:.3g}, max edge "
                f"beyond the refined-grid extreme {short:.3g} over 200 draws")


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
    ("branch-edges", _check_branch_edges),
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
