"""Bipartite matching via an entropy-regularized LP and randomized rounding.

The fractional relaxation maximizes sum w x - B sum x log x subject to row
and column sums at most one.  Strict concavity gives a unique interior
optimum of the form x_ij = exp((w_ij - lambda_i - mu_j)/B - 1) with
nonnegative duals, and an l1 perturbation of one weight moves the optimum
by at most sqrt(nU) * delta / B.  Rounding picks a column candidate per row
from the row marginals, then resolves collisions uniformly per column.

Solver: projected Newton on the duals (Bertsekas 1982), annealed over B
from max(w) down to the requested weight, as in epsilon-scaling (Schmitzer,
arXiv:1610.06519), so that every stage starts near its optimum.  A step
solves the free block of the Hessian [[diag(r), X], [X^T, diag(c)]] / B,
scaled to unit diagonal, by one Cholesky solve.  With every dual free the
block is flat along v = (sqrt(r), -sqrt(c)) (row i times v is sqrt(r_i) -
r_i / sqrt(r_i) = 0), so v v^T / |v|^2 is added to give v eigenvalue 1.
eigh, with flat eigenvalues set to 1, runs only when the factorization
fails or a squared pivot is at most 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import couple_discrete, max_overlap_uniform_pair
from .errors import BadParams, DegenerateShape, NoConvergence, ZeroOptimum
from .exact import _hungarian
from .graphs import check_edge, check_weights
from .rng import RandomStream


@dataclass(frozen=True)
class EntMatchingLP:
    """Solved regularized relaxation with duals and diagnostics."""

    x: np.ndarray
    lam: np.ndarray  # row duals, >= 0
    mu: np.ndarray  # column duals, >= 0
    b_reg: float
    iterations: int  # Newton steps over all annealing stages
    max_violation: float  # max positive row/col sum excess
    comp_slack: float  # max |dual * (1 - sum)|


def _x_from_duals(w, lam, mu, b_reg):
    return np.exp((w - lam[:, None] - mu[None, :]) / b_reg - 1.0)


_STAGE_FACTOR = 0.1  # smallest ratio B_{k+1} / B_k between annealing stages
_STAGE_TOL = 0.3  # KKT residual at which an intermediate stage hands over
_MAX_STEPS = 100  # Newton steps allowed per stage
_ARMIJO = 1e-4  # fraction of the predicted decrease a step must achieve
_MAX_MOVE = 10.0  # largest dual move per step, in units of B
_FLAT = 1e-12  # relative Hessian eigenvalue below which a direction counts as flat


def _free_direction(x, root, free, rhs):
    """Solve the free block of the dual Hessian, scaled by 1/root = 1/sqrt(sums)
    to unit diagonal, for rhs; flat directions take eigenvalue 1."""
    from scipy.linalg.lapack import dposv

    nu = x.shape[0]
    inv = free / root
    hess = np.eye(len(root))
    hess[:nu, nu:] = x * inv[:nu, None] * inv[nu:]
    hess[nu:, :nu] = hess[:nu, nu:].T
    if free.all():  # flat along v = (sqrt(r), -sqrt(c)): lift it to 1
        v = root / math.sqrt(root @ root)
        v[nu:] *= -1.0
        hess += v[:, None] * v
    chol, z, info = dposv(hess, rhs)
    if info or chol.diagonal().min() ** 2 <= _FLAT:
        # fallback when the factorization fails or a pivot is flat (the least
        # eigenvalue is at most the least squared pivot): x that underflows
        # beside its sums splits the block into flat components
        ev, vec = np.linalg.eigh(hess)
        ev[ev <= _FLAT * ev[-1]] = 1.0
        z = vec @ ((vec.T @ rhs) / ev)
    return z


def _newton_step(w, theta, x, sums, b_reg):
    """One projected Newton step on the dual D(theta) = sum(theta) + B sum(x).

    ``sums`` holds the row then column sums of x.  Duals within eps of zero
    whose gradient pushes them down go to zero, the others take a Newton
    step; Armijo along the projection arc picks the length.  Returns
    (theta, x), or None when no length passes.
    """
    nu, nv = x.shape
    grad = 1.0 - sums
    if nu != nv and (theta > 0.0).all():
        # D falls linearly along (1_U, -1_V) with slope |nU - nV| and x stays
        # put: move along it until the first dual reaches zero
        t = theta[:nu].min() if nu > nv else -theta[nu:].min()
        theta = np.concatenate([theta[:nu] - t, theta[nu:] + t])
    proj = theta - np.maximum(theta - grad, 0.0)
    eps = min(b_reg, math.sqrt(proj @ proj))
    active = (theta <= eps) & (grad > 0.0)
    free = ~active
    grad_free = grad * free
    root = np.sqrt(np.maximum(sums, 1e-300))
    scale = math.sqrt(b_reg) / root
    d = np.where(active, -theta, -scale * _free_direction(x, root, free, scale * grad_free))
    # no dual moves more than _MAX_MOVE * B: clip each, or if that spoils
    # descent, shorten the whole step
    cap = _MAX_MOVE * b_reg
    alpha = cap / max(cap, float(np.abs(d).max()))
    if alpha < 1.0:
        clipped = d.clip(-cap, cap)
        if grad_free @ clipped < 0.0:
            d, alpha = clipped, 1.0
    slope = float(grad_free @ d)
    for _ in range(50):
        cand = np.maximum(theta + alpha * d, 0.0)
        move = cand - theta
        # D(theta) - D(cand), without cancellation against D itself
        dec = -move.sum() - b_reg * float(
            (x * np.expm1(-(move[:nu, None] + move[None, nu:]) / b_reg)).sum()
        )
        if dec >= _ARMIJO * (-alpha * slope - float((grad - grad_free) @ move)):
            return cand, _x_from_duals(w, cand[:nu], cand[nu:], b_reg)
        alpha *= 0.5
    return None


def solve_lp_ent(
    nu: int,
    nv: int,
    w,
    b_reg: float,
    tol: float = 1e-9,
    dual_history: list | None = None,
) -> EntMatchingLP:
    """Solve the entropy-regularized relaxation to KKT residual ``tol``.

    Residuals driven below tol: positive row/column sum excess and
    complementary slackness |dual * (1 - sum)| divided by max(1, max(w)),
    since the duals scale with w.  The stationarity identity
    x = exp((w - lam - mu)/B - 1) holds exactly by construction.

    Annealed projected Newton: stages at B_0 = max(w) > ... > B_k = b_reg,
    geometric with ratio at most 10, each warm-started from the last; only
    the last is held to ``tol`` and raises NoConvergence, with residuals,
    when it runs out of steps.  ``dual_history`` collects the dual objective
    after each step of the last stage (it never increases).
    """
    w = check_weights((nu, nv), w)
    if not 0 < b_reg < math.inf:
        raise BadParams("regularization weight must be positive and finite")
    top = float(w.max(initial=0.0))
    cs_scale = max(1.0, top)  # the duals, and so the slackness, scale with w
    stages = math.ceil(math.log(top / b_reg) / -math.log(_STAGE_FACTOR)) if top > b_reg else 0
    theta = np.zeros(nu + nv)
    steps = 0
    # trial steps may overflow exp; the Armijo test rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(stages, -1, -1):
            b = b_reg * (top / b_reg) ** (k / stages) if k else b_reg
            x = _x_from_duals(w, theta[:nu], theta[nu:], b)
            for i in range(_MAX_STEPS + 1):
                sums = np.concatenate((x.sum(axis=1), x.sum(axis=0)))
                viol = float(sums.max(initial=1.0)) - 1.0
                cs = float(np.abs(theta * (1.0 - sums)).max(initial=0.0))
                if max(viol, cs / cs_scale) < (tol if k == 0 else _STAGE_TOL) or i == _MAX_STEPS:
                    break
                step = _newton_step(w, theta, x, sums, b)
                if step is None:
                    break
                theta, x = step
                steps += 1
                if k == 0 and dual_history is not None:
                    dual_history.append(float(theta.sum() + b_reg * x.sum()))
    if max(viol, cs / cs_scale) >= tol:
        raise NoConvergence(f"no convergence after {steps} Newton steps", residuals=(viol, cs))
    return EntMatchingLP(x, theta[:nu], theta[nu:], b_reg, steps, viol, cs)


@dataclass(frozen=True)
class RoundingTranscript:
    """Outcome of the two-stage rounding."""

    p: tuple  # per row: chosen column or -1
    candidates: tuple  # per column: tuple of candidate rows
    q: tuple  # per column: chosen row or -1
    matching: tuple  # ((row, col), ...) sorted


def sample_row_choice(row: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over one row: column j w.p. row[j], else -1."""
    cdf = np.cumsum(row)
    if u >= cdf[-1]:
        return -1
    return int(np.searchsorted(cdf, u, side="right"))


def round_matching(x: np.ndarray, rng: RandomStream) -> RoundingTranscript:
    """Round a fractional matching: row candidates, then column choices.

    Pr[p(i) = j] equals x_ij exactly; q(j) is uniform over the candidate
    rows of column j.  One keyed uniform per row and per column.
    """
    x = np.asarray(x, dtype=float)
    nu, nv = x.shape
    if np.any(x.sum(axis=1) > 1.0 + 1e-9):
        raise BadParams("row sums must not exceed 1")
    p = []
    cands: list = [[] for _ in range(nv)]
    for i in range(nu):
        j = sample_row_choice(x[i], rng.random("round", "p", i))
        p.append(j)
        if j >= 0:
            cands[j].append(i)
    q = []
    matching = []
    for j in range(nv):
        if cands[j]:
            pick = cands[j][rng.randint(len(cands[j]), "round", "q", j)]
            q.append(pick)
            matching.append((pick, j))
        else:
            q.append(-1)
    return RoundingTranscript(
        p=tuple(p),
        candidates=tuple(tuple(c) for c in cands),
        q=tuple(q),
        matching=tuple(sorted(matching)),
    )


@dataclass(frozen=True)
class BipartiteMatchResult:
    matching: tuple
    transcript: RoundingTranscript | None
    lp: EntMatchingLP | None
    b_reg: float
    opt: float
    zero_optimum: bool = False

    def weight(self, w) -> float:
        return float(sum(w[i, j] for i, j in self.matching))

    def validate(self, shape) -> None:
        """Check that every cell lies inside ``shape`` and no row or column is used twice."""
        for axis, n in enumerate(shape):
            used = [cell[axis] for cell in self.matching]
            if len(set(used)) < len(used) or not all(0 <= k < n for k in used):
                raise BadParams(f"matching {self.matching} reuses or leaves the range of axis {axis}")


def _b_interval(nu: int, nv: int, w, epsilon: float) -> tuple[float, float]:
    """Check epsilon and the shape; return the optimum of w and the left end
    eps*opt/(nU log nV) of B's sampling interval (the right end is twice it)."""
    if not (0 < epsilon < 0.5):
        raise BadParams("epsilon must lie in (0, 1/2)")
    if nv < 2:
        raise DegenerateShape("need at least two right-side vertices")
    _, opt = _hungarian(w)
    return opt, epsilon * opt / (nu * math.log(nv))


def plip_mwbm(nu: int, nv: int, w, epsilon: float, rng: RandomStream) -> BipartiteMatchResult:
    """Randomized bipartite matching with expected ratio >= 1/2 - epsilon.

    Samples the regularization weight B uniformly from
    [eps*opt/(nU log nV), 2 eps*opt/(nU log nV)], solves the relaxation
    (per-sample guarantee: sum w x >= (1 - 2 eps) opt), and rounds.
    """
    w = check_weights((nu, nv), w)
    opt, scale = _b_interval(nu, nv, w, epsilon)
    if opt <= 0:
        return BipartiteMatchResult((), None, None, 0.0, 0.0, zero_optimum=True)
    b_reg = rng.uniform(scale, 2.0 * scale, "bmatch", "B")
    lp = solve_lp_ent(nu, nv, w, b_reg)
    transcript = round_matching(lp.x, rng)
    return BipartiteMatchResult(transcript.matching, transcript, lp, b_reg, opt)


def lp_stability_check(nu: int, nv: int, w, f: tuple, delta: float, b_reg: float) -> tuple[float, float]:
    """Solve both instances and return (|x - x'|_1, sqrt(nU) * delta / B)."""
    w = np.asarray(w, dtype=float)
    sol1 = solve_lp_ent(nu, nv, w, b_reg)
    w2 = w.copy()
    w2[check_edge((nu, nv), f)] += delta
    sol2 = solve_lp_ent(nu, nv, w2, b_reg)
    lhs = float(np.abs(sol1.x - sol2.x).sum())
    return lhs, math.sqrt(nu) * delta / b_reg


def poisson_binomial_pmf(y) -> np.ndarray:
    """Exact pmf of the number of successes among independent Bernoullis."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > 1):
        raise BadParams("probabilities must lie in [0, 1]")
    pmf = np.array([1.0])
    for p in y:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def collision_value(y) -> float:
    """E[1/(K+1)] for K Poisson-binomial over y; >= 1/2 when sum(y) <= 1.

    This is the expected survival weight of a candidate competing with
    collisions drawn from y.
    """
    pmf = poisson_binomial_pmf(y)
    return float(sum(p / (k + 1.0) for k, p in enumerate(pmf)))


def coupled_plip_mwbm(nu: int, nv: int, w, f: tuple, delta: float, epsilon: float, rng: RandomStream):
    """Coupled runs on w and w + delta*1_f.

    B is coupled with maximal interval overlap; conditioned on equal B the
    row choices p(i) and the column choices q(j) are coupled maximally
    given the two fractional solutions.  Returns a dict with both
    matchings, transcript distances and the B agreement flag.
    """
    if not 0 < delta < math.inf:
        raise BadParams("delta must be positive and finite")
    w = check_weights((nu, nv), w)
    w2 = w.copy()
    w2[check_edge((nu, nv), f)] += delta
    (opt1, s1), (opt2, s2) = _b_interval(nu, nv, w, epsilon), _b_interval(nu, nv, w2, epsilon)
    if opt1 <= 0 or opt2 <= 0:
        raise ZeroOptimum("coupled runs need positive optima")
    b1, b2 = max_overlap_uniform_pair(
        rng.random("bmatch", "B"), rng.random("bmatch", "B", "accept"), s1, 2 * s1, s2, 2 * s2
    )
    lp1 = solve_lp_ent(nu, nv, w, b1)
    lp2 = solve_lp_ent(nu, nv, w2, b2)

    def padded(row):
        slack = max(0.0, 1.0 - row.sum())
        return np.concatenate([row, [slack]])

    p1, p2 = [], []
    for i in range(nu):
        u = rng.random("round", "p", i)
        acc = rng.random("round", "p", i, "accept")
        j1, j2 = couple_discrete(u, acc, padded(lp1.x[i]), padded(lp2.x[i]))
        p1.append(j1 if j1 < nv else -1)
        p2.append(j2 if j2 < nv else -1)
    c1: list = [[] for _ in range(nv)]
    c2: list = [[] for _ in range(nv)]
    for i in range(nu):
        if p1[i] >= 0:
            c1[p1[i]].append(i)
        if p2[i] >= 0:
            c2[p2[i]].append(i)
    m1, m2 = [], []
    q_diff = 0
    for j in range(nv):
        if not c1[j] and not c2[j]:
            continue
        u = rng.random("round", "q", j)
        acc = rng.random("round", "q", j, "accept")
        if c1[j] and c2[j]:
            rows = sorted(set(c1[j]) | set(c2[j]))
            pmf1 = np.array([1.0 / len(c1[j]) if r in c1[j] else 0.0 for r in rows])
            pmf2 = np.array([1.0 / len(c2[j]) if r in c2[j] else 0.0 for r in rows])
            k1, k2 = couple_discrete(u, acc, pmf1, pmf2)
            m1.append((rows[k1], j))
            m2.append((rows[k2], j))
            if rows[k1] != rows[k2]:
                q_diff += 1
        elif c1[j]:
            m1.append((c1[j][int(u * len(c1[j])) % len(c1[j])], j))
            q_diff += 1
        else:
            m2.append((c2[j][int(u * len(c2[j])) % len(c2[j])], j))
            q_diff += 1
    p_diff = sum(1 for a, bb in zip(p1, p2) if a != bb)
    return {
        "matching1": tuple(sorted(m1)),
        "matching2": tuple(sorted(m2)),
        "b1": b1,
        "b2": b2,
        "b_equal": b1 == b2,
        "p1": tuple(p1),
        "p2": tuple(p2),
        "candidates1": tuple(tuple(c) for c in c1),
        "candidates2": tuple(tuple(c) for c in c2),
        "p_diff": p_diff,
        "q_diff": q_diff,
        "lp1": lp1,
        "lp2": lp2,
    }
