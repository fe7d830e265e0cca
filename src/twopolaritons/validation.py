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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model
from .bands import BRANCHES, band_structure, branch_energy, branch_vector, incident_state
from .bound_states import (TOL_EDGE_FACTOR, _certify, _gap_counts, find_bound_states,
                           rayleigh_quotient, search_gaps)
from .channels import (_check_determinant, _closed_channels, _ClosedChannels, channel_expansion,
                       contact_elimination, find_channel_roots)
from .errors import TwoPolaritonError
from .model import ModelParams
from .ring_ed import (
    TwoExcitationBasis,
    band_edge_check,
    build_hamiltonian,
    compare_bound_state,
    jc_pair_levels,
    ring_embedding,
    ring_sector,
    translation_operator,
)
from .scattering import solve_scattering

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]

SEED = 20260816

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
        asym = max(asym, np.abs(mats.hm - mats.hp.conj().T).max())
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


def _level_sum(br, q, p):
    """Energy of branch br at q from _dressed_level: eps_u(K/2 + q) + eps_v(K/2 - q)."""
    return _dressed_level(br[0], 0.5 * p.K + q, p) + _dressed_level(br[1], 0.5 * p.K - q, p)


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
            worst_sum = max(worst_sum, abs(energy[br] - _level_sum(br, q, p)))
        expect = 4.0 * p.delta + 8.0 * p.xi * np.cos(0.5 * p.K) * np.cos(q)
        worst_trace = max(worst_trace, abs(sum(energy.values()) - expect))
    ok = worst_swap < 1e-12 and worst_sum < 1e-12 and worst_trace < 1e-12
    return ok, (f"max q -> -q defect {worst_swap:.3g}, branch-sum vs dressed "
                f"levels {worst_sum:.3g}, trace {worst_trace:.3g} over "
                f"{N_DRAWS} draws")


def _check_channel_roots(rng):
    # every draw must give three certified channels: a refusal fails the
    # check (run_checks reports what was raised), none is skipped.  The
    # N_DRAWS draws at random K are followed by 100 at K = pi/2.  Each open
    # channel's label and lam must give back E from this module's own
    # dressed levels (_level_sum) to 1e-10 max(1, |E|), and its group
    # velocity must be positive and match a central difference of that sum
    worst_det, worst_res, worst_back = 0.0, 0.0, 0.0
    worst_e, worst_v, slowest, n_open = 0.0, 0.0, np.inf, 0
    sigma, h = np.inf, 1e-5     # h: the central difference's step in lam
    for i in range(N_DRAWS + 100):
        p = _draw_params(rng)
        if i >= N_DRAWS:
            p = replace(p, K=np.pi / 2)
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
        for br, lam, v in zip(roots.open_branches, roots.lam[~closed].real,
                              roots.group_velocity[~closed].tolist()):
            worst_e = max(worst_e, abs(_level_sum(br, lam, p) - e) / max(1.0, abs(e)))
            slope = (_level_sum(br, lam + h, p) - _level_sum(br, lam - h, p)) / (2.0 * h)
            worst_v, slowest = max(worst_v, abs(slope - v)), min(slowest, v)
            n_open += 1
    ok = worst_det < 1e-8 and worst_res < 1e-8 and worst_back < 1e-12 \
        and sigma > 1e-3 and worst_e <= 1e-10 and worst_v <= 1e-6 and slowest > 0.0 \
        and n_open > 0
    return ok, (f"max |det|/row-norm scale {worst_det:.3g}, root residual "
                f"{worst_res:.3g}, closed-root backward error "
                f"{worst_back:.3g}, min spinor sigma {sigma:.3g}; open channels: "
                f"max |E(label, lam) - E| {worst_e:.3g} of max(1, |E|), max "
                f"group-velocity defect {worst_v:.3g}, min velocity {slowest:.3g} "
                f"over {n_open} channels; {N_DRAWS} draws and 100 at K = pi/2")


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


def _contact_eigenvalues(e, p):
    return np.linalg.eigvalsh(contact_elimination(e, find_channel_roots(e, p), p)[1][:2, :2])


def _check_bound_certificates(rng):
    """sigma_min, residual and Rayleigh quotient of six reference states, and their spectral flow.

    S(E) is H - E on the contact slots with the sites l != 0 eliminated, so
    at a zero its vanishing eigenvalue falls at the rate <psi|psi>/|b_0|^2,
    the norm of the whole state over that of its contact spinor (first-order
    perturbation theory on the eliminated problem).  For the normalized
    state the central difference in E must be -1/|b_0|^2 to 1e-6, and
    |b_0| <= 1; the difference step stays inside the gap.
    """
    worst_sig, worst_res, worst_ray, worst_flow, max_b0 = 0.0, 0.0, 0.0, 0.0, 0.0
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
                e = st.energy
                h = min(1e-6 * p.g, 0.5 * (e - gap.lo), 0.5 * (gap.hi - e))
                j = int(np.argmin(np.abs(_contact_eigenvalues(e, p))))
                slope = (_contact_eigenvalues(e + h, p)[j]
                         - _contact_eigenvalues(e - h, p)[j]) / (2.0 * h)
                b0_sq = float(np.sum(np.abs(st.contact_spinor) ** 2))
                worst_flow = max(worst_flow, abs(slope * b0_sq + 1.0))
                max_b0 = max(max_b0, np.sqrt(b0_sq))
    ok = n_states == 6 and worst_sig < 1e-8 and worst_res < 1e-8 \
        and worst_ray < 1e-8 and worst_flow <= 1e-6 and max_b0 <= 1.0
    return ok, (f"{n_states} states; max sigma {worst_sig:.3g}, residual "
                f"{worst_res:.3g}, Rayleigh drift {worst_ray:.3g}, spectral flow "
                f"|slope |b_0|^2 + 1| {worst_flow:.3g}, max |b_0| {max_b0:.3g}")


def _state_bits(state) -> tuple:
    """A BoundState as a tuple equal to another's only if every field is equal bit for bit."""
    r = state.roots
    floats = np.array([state.energy, *state.weights, state.residual_max, state.sigma_min])
    arrays = (floats, state.scaled_amplitudes, state.contact_spinor, r.lam, r.z, r.vectors,
              r.is_open, r.group_velocity)
    return (state.gap, r.branch, *(a.tobytes() for a in arrays))


def _check_gap_contact(rng):
    """The lane search's stacked S, lanes and records give find_channel_roots' S and states.

    At the inset ends and three random energies of every gap of a draw, S
    from one stacked evaluation of the unit-norm, ungauged closed channels
    the search solves for (_ClosedChannels.stack and one contact_elimination)
    must equal S from each energy's find_channel_roots ChannelSet to 1e-13
    of |S|: S does not depend on the spinors' phases.  _closed_channels runs
    no determinant check, so the roots of the draw's energies pass
    _check_determinant in one batch, as the search's do.  The inertia count
    of each gap (_gap_counts, which the ring audit reads as its expected
    count) must equal the number of states find_bound_states certifies
    there, and the gap's lane of search_gaps over all the draw's gaps must
    return exactly those states, bit for bit.  A state is built from the
    search's record of E_b, so it must equal a fresh solve of E_b: its
    channels find_channel_roots(E_b)'s (lam, z, labels, is_open and group
    velocities bit for bit, vectors to 1e-15), and its amplitudes, contact
    spinor and weights those _certify builds from that ChannelSet's own
    contact_elimination, to 1e-13 of their largest entry, with sigma_min to
    1e-13 of |S(E_b)|.  Every third draw sits at K = 0 and every third has
    |xi| < 1e-3.
    """
    worst_s = worst_v = worst_x = 0.0
    n_energies = n_roots = n_states = n_gaps = 0
    for i in range(60):
        p = _draw_params(rng, k_zero=i % 3 == 0)
        if i % 3 == 1:
            p = replace(p, xi=1e-3 * p.xi)
        gaps, tol = band_structure(p).gaps, TOL_EDGE_FACTOR * p.g
        energies = []
        for gap in gaps:
            lo, hi = gap.lo + tol, gap.hi - tol
            energies += [lo, hi, *rng.uniform(lo, hi, 3).tolist()]
        if not energies:
            continue
        closed = [_closed_channels(e, p) for e in energies]
        stacked = contact_elimination(np.array(energies)[:, None, None],
                                      _ClosedChannels.stack(closed), p)[1]
        for e, s in zip(energies, stacked[:, :2, :2]):
            ref = contact_elimination(e, find_channel_roots(e, p), p)[1][:2, :2]
            worst_s = max(worst_s, float(np.abs(s - ref).max() / np.abs(ref).max()))
        lam = np.concatenate([c.lam for c in closed])
        at = np.repeat(energies, [len(c.lam) for c in closed])[:, None, None]
        _check_determinant(at, model.bloch_matrices(p), lam)
        n_energies += len(energies)
        n_roots += len(lam)
        for gap, count, lane in zip(gaps, _gap_counts(p, gaps), search_gaps(p, gaps)):
            states = find_bound_states(p, gap)
            if count != len(states):
                return False, (f"inertia count {count} but {len(states)} certified states "
                               f"in gap {gap.index}, params={p}")
            try:
                same = list(map(_state_bits, lane())) == list(map(_state_bits, states))
            except TwoPolaritonError as exc:
                same = exc
            if same is not True:
                return False, (f"the lane search of gap {gap.index} gives other states than "
                               f"find_bound_states ({same}), params={p}")
            n_gaps += 1
            for st in states:
                got, ref = st.roots, find_channel_roots(st.energy, p)
                pairs = [(getattr(got, f), getattr(ref, f))
                         for f in ("lam", "z", "is_open", "group_velocity")]
                same = got.branch == ref.branch and all(
                    x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in pairs)
                if not same:
                    return False, (f"state at E_b = {st.energy} has channels lam {got.lam}, "
                                   f"find_channel_roots {ref.lam}, params={p}")
                worst_v = max(worst_v, float(np.abs(got.vectors - ref.vectors).max()))
                w, c, _ = contact_elimination(st.energy, ref, p)
                fresh = _certify(st.energy, p, gap, ref, w, c)
                for field in ("scaled_amplitudes", "contact_spinor", "weights"):
                    x, y = np.array(getattr(st, field)), np.array(getattr(fresh, field))
                    worst_x = max(worst_x, float(np.abs(x - y).max() / np.abs(y).max()))
                worst_x = max(worst_x, abs(st.sigma_min - fresh.sigma_min)
                              / float(np.abs(c[:2, :2]).max()))
                n_states += 1
    ok = worst_s <= 1e-13 and worst_v <= 1e-15 and worst_x <= 1e-13 and n_states > 0
    return ok, (f"max |S - S_ref|/|S_ref| {worst_s:.3g} over {n_energies} gap energies in one "
                f"stack per draw ({n_roots} roots pass the determinant check), max spinor "
                f"defect {worst_v:.3g} and max state drift from a fresh solve of E_b "
                f"{worst_x:.3g} over {n_states} states, inertia count equals the "
                f"certified count and the lane search the one-gap search in {n_gaps} gaps, "
                f"60 draws")


def _check_ed_construction(rng):
    # both orientations of every element are written independently, so H
    # must be exactly symmetric; T must be an exact permutation commuting
    # exactly with H.  The sectors ring_sector fills from the couplings, with
    # no H, must be labelled n = 0..N-1, pool to the spectrum of the dense H,
    # and each hold the eigenvalues of P^H H P from its own projector P.
    # Antipodal pairs, whose orbits are short, exist on the even ring only.
    if TwoExcitationBasis(3).dim != 18:
        return False, "N=3 basis dimension is not 18"
    p = _draw_params(rng, k_zero=True)
    comm, mismatch, projected = 0.0, 0.0, 0.0
    for n, dim in ((7, 98), (8, 128)):
        h = build_hamiltonian(n, p)
        differ = np.count_nonzero(h != h.T)
        if differ:
            return False, f"H not exactly symmetric at N={n}, {differ} entries differ"
        # T|i> = |step[i]>, so T^-1 H T is H[step][:, step]
        step = translation_operator(n)
        if not np.array_equal(np.sort(step), np.arange(dim)):
            return False, f"translation operator at N={n} is not a permutation"
        comm = max(comm, np.abs(h[np.ix_(step, step)] - h).max())
        # the sector of K = -2 pi j / N is j
        sectors = [ring_sector(replace(p, K=-2.0 * np.pi * j / n), n) for j in range(n)]
        labels = [s.n for s in sectors]
        if labels != list(range(n)):
            return False, f"ring_sector gave sectors {labels} at N={n}"
        if sum(s.dim for s in sectors) != dim:
            return False, f"sector dims {sum(s.dim for s in sectors)}/{dim} at N={n}"
        full = np.linalg.eigvalsh(h)
        split = np.sort(np.concatenate([s.eigenvalues for s in sectors]))
        mismatch = max(mismatch, np.abs(full - split).max())
        for s in sectors:
            proj = s.to_full(np.eye(s.dim))
            own = np.linalg.eigvalsh(proj.conj().T @ h @ proj)
            projected = max(projected, np.abs(own - s.eigenvalues).max())
    ok = comm == 0.0 and mismatch < 1e-10 and projected < 1e-13
    return ok, (f"commutator {comm:.3g}, sectors n = 0..N-1 of dims 98 at N=7 and "
                f"128 at N=8, sector-vs-full spectrum defect {mismatch:.3g}, "
                f"sector vs P^H H P eigenvalues {projected:.3g}")


def _check_ed_jc_levels(rng):
    # with xi = 0 the ring decouples into single-site blocks whose level
    # set is known in closed form; g != 1 keeps the coupling's scale visible
    deltas = (0.0, 0.6, rng.uniform(-3.0, 3.0))
    worst = 0.0
    for delta in deltas:
        p = ModelParams(xi=0.0, delta=delta, K=0.0, g=1.1)
        ev = np.sort(np.linalg.eigvalsh(build_hamiltonian(8, p)))
        levels = jc_pair_levels(p, 8)
        expanded = np.sort(np.repeat([e for e, _ in levels],
                                     [m for _, m in levels]))
        if len(expanded) != len(ev):
            return False, "level multiplicities do not sum to the dimension"
        worst = max(worst, np.abs(ev - expanded).max())
    return worst < 1e-12, (f"max level defect {worst:.3g} at g = 1.1, delta "
                           f"in {{0, 0.6, {deltas[2]:.3f}}}")


def _check_ed_bound_agreement(rng):
    # K = 0 at N = 12 and 24, and K = pi/2 at N = 48, where only the sector
    # of K and the orientation of the mixed slots give a nonzero overlap;
    # each embedding must have the ring translation's eigenvalue e^{-iK}
    worst_err, worst_ov, growth, worst_t = 0.0, 1.0, 0.0, 0.0
    for p, sizes in ((ModelParams(xi=-0.2, delta=0.0, K=0.0), (12, 24)),
                     (ModelParams(xi=-0.3, delta=-1.0, K=np.pi / 2), (48,))):
        for gap in band_structure(p).gaps:
            for st in find_bound_states(p, gap):
                rows = compare_bound_state(st, sizes)
                worst_err = max(worst_err, rows[-1].error)
                worst_ov = min(worst_ov, rows[-1].overlap)
                for small, large in zip(rows, rows[1:]):
                    growth = max(growth, large.error - small.error)
                for n in sizes:
                    psi = ring_embedding(st, n)
                    moved = np.zeros_like(psi)
                    moved[translation_operator(n)] = psi
                    moved -= np.exp(-1j * p.K) * psi
                    worst_t = max(worst_t, np.linalg.norm(moved) / np.linalg.norm(psi))
    ok = worst_err < 1e-8 and worst_ov > 0.9999 and growth <= 0.0 \
        and worst_t <= 1e-13
    return ok, (f"max |E_ED - E_b| {worst_err:.3g}, min overlap "
                f"{worst_ov:.10f} at N=24 (K=0) and N=48 (K=pi/2); error "
                f"growth from N=12 {growth:.3g}; max |T psi - e^-iK psi|/|psi| "
                f"{worst_t:.3g}")


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
    # its local extrema (grid error < 1e-11 at |xi| <= 1) must reach it;
    # the last 100 draws are at K = 0, where the edges are in closed form
    coarse = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    fine = np.linspace(-1.0, 1.0, 2049) * (coarse[1] - coarse[0])
    outside = short = 0.0
    for i in range(300):
        p = _draw_params(rng, k_zero=i >= 200)
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
                f"beyond the refined-grid extreme {short:.3g} over 300 draws "
                f"(100 at K = 0)")


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
    ("gap-contact", _check_gap_contact),
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
