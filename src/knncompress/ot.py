"""Histograms on the simplex: Sinkhorn distance, exact EMD, barycenters.

Histograms are 1-D numpy arrays summing to one; the ground metric is a
finite, symmetric, nonnegative ``(d, d)`` cost matrix with zero diagonal.
One Sinkhorn solver, ``sinkhorn_batch``, serves every caller with one
input shape, the distinct histograms of each side and index pairs into
them: ``sinkhorn`` is one batch of one pair, and ``sinkhorn_matrix`` and
``sinkhorn_pairwise`` one cold batch over all their pairs, of which they
return the distances (and converged flags).  Of the dual variables it
returns beta, whose centered form is the approximate gradient of the
distance w.r.t. the second marginal; SHC's descent (``shc.ShcObjective``)
reads it, and seeds each solve with the scaling V of the last.  Both of
its domains run on working blocks of a fixed number of elements, so
beyond what it returns its memory does not grow with the number of
pairs: the linear domain's block holds _LINEAR_BLOCK // d columns, and a
column that leaves it hands its slot to the next pending pair.  Its log
domain (where exp(-lambda M) underflows) starts cold, and solves a
column plain scaling leaves unconverged again with
epsilon-scaling and safeguarded over-relaxation.  The log domain's passes
are absorbed (Schmitzer 2019): linear-domain mat-vecs on a kernel
exp(f0 + logK + g0) whose potentials f0, g0 take the scalings in once
one passes exp(+-_ABSORB).  Each of its stages starts, and the
barycenter iterates, with a hand-written max-shifted log-sum-exp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    BadParameters,
    DimensionMismatch,
    EmptyInput,
    InfeasibleMarginals,
    NonFiniteInput,
    NotConverged,
    NumericalError,
)
from .neighborhood import check_counts
from .optim import _anderson

# entries below this are clamped before Sinkhorn scaling (exact zeros stall
# the iteration); affects distances by O(eps * d * max M)
CLAMP_EPS = 1e-10

# The log domain runs max_iter // _PLAIN_SHARE plain passes first, so a
# column that plain scaling finishes in them keeps plain scaling's result
# and stopping error: criterion 3 compares lambda = 200 distances with
# linear-domain ones to 1e-9, inside either loop's error at tol 1e-9.  A
# column still unconverged is solved again with epsilon-scaling over
# _EPS_STAGES halved lambdas and over-relaxation by _OMEGA.  On hist-tight's
# 36 pairs (lambda 200, tol 1e-6, 2000 passes) omega 1.5 converged 32, 1.7
# 35, and 1.8 and 1.9 all 36, but at 1.8 one criterion-3 pair crossed its
# 1e-9.
_PLAIN_SHARE = 8
_EPS_STAGES = 4
_OMEGA = 1.7

# elements of the log domain's (p, d, d) stacks per block of columns (81
# at d = 20, so hist-tight's 36 pairs are one block), picked for time and
# peak RSS from 2**14 to 2**17 on a 2 MB L2 cache, for the log-sum-exp
# passes and again for the absorbed ones (figures: CHANGES.md)
_LOG_BLOCK = 2**15

# elements of the linear domain's (d, w) working block, w = _LINEAR_BLOCK
# // d columns (1,638 at d = 20): its half-dozen arrays fit a 2 MB L2
# cache.  On hist-shc's 42 descent solves (seeds 1, 2, 1 BLAS thread)
# 2**14 and 2**15 ran equally fast, and 2**13, 2**16 and 2**17 took 10-18%
# longer
_LINEAR_BLOCK = 2**15

# The log domain's absorbed passes fold a column's scalings into its
# potentials, and rebuild its kernel, once some |log u| or |log v| passes
# _ABSORB.  At 50 the scalings stay within exp(+-50) of 1, far inside
# double range; on hist-tight's pairs every threshold from 0 to 300 gave
# the same flags and pass counts, and from 20 up the rebuilds cost nothing
# measurable (figures: CHANGES.md).  Kernel entries below _FLUSH are set
# to zero: scaled by at most exp(+-_ABSORB), they stay 200 orders of
# magnitude below the row sums they enter, and subnormal ones had slowed
# the mat-vecs by a third.
_ABSORB = 50.0
_FLUSH = 1e-250


def check_histograms(H: np.ndarray) -> np.ndarray:
    """Check every row of the (n, d) stack H as a histogram, in one pass."""
    H = np.ascontiguousarray(H, dtype=float)
    if H.ndim != 2:
        raise DimensionMismatch(
            f"histograms must be 1-D, got shape {H.shape[1:]}")
    if not (H >= 0).all():  # also false for NaN
        raise InfeasibleMarginals("histogram has negative or NaN mass")
    mass = H.sum(axis=1)
    off = np.abs(mass - 1.0) > 1e-9
    if off.any():
        raise InfeasibleMarginals(f"histogram mass {mass[off][0]} != 1")
    return H


def check_ground_metric(M: np.ndarray, dim: int | None = None) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"ground metric must be square, got {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise DimensionMismatch(
            f"ground metric dim {M.shape[0]} != histogram dim {dim}")
    if not np.isfinite(M).all():
        raise NonFiniteInput("the ground metric must be finite")
    if np.any(M < 0) or np.any(np.abs(np.diag(M)) > 0):
        raise InfeasibleMarginals("ground metric needs M >= 0 and zero diagonal")
    if np.any(np.abs(M - M.T) > 1e-9 * M.max(initial=0.0)):
        raise InfeasibleMarginals("ground metric must be symmetric")
    return M


def _check_lam_iter(lam, tol, max_iter):
    if not 0 < lam < np.inf:  # also false for NaN
        raise InfeasibleMarginals("lambda must be positive and finite")
    if not 0 < tol < np.inf:
        raise BadParameters("tol must be positive and finite")
    check_counts(1, max_iter=max_iter)


def clamp_histogram(h: np.ndarray) -> np.ndarray:
    """Lift zero bins to CLAMP_EPS and renormalize (Sinkhorn stalls on
    exact zeros); a 2-D stack is clamped row by row."""
    h = np.maximum(np.asarray(h, dtype=float), CLAMP_EPS)
    return h / h.sum(axis=-1, keepdims=True)


@dataclass
class SinkhornSolution:
    distance: float
    dual_beta: np.ndarray
    iterations: int
    converged: bool


def _logsumexp(A, axis):
    """log(exp(A).sum(axis)), shifted by A's max along axis; A finite."""
    m = A.max(axis, keepdims=True)
    return np.log(np.exp(A - m).sum(axis)) + m.squeeze(axis)


def _relaxed(X, Xs, mass, omega):
    """Step of the dual variable X to the over-relaxed X + omega (Xs - X),
    Xs its Sinkhorn step, in the rows where that raises the dual objective;
    to Xs, exactly, in the others and when omega is 1.

    The step s moves the dual objective by sum(mass * (s D - exp((s - 1) D)
    + exp(-D))), D = Xs - X, which is never negative at s = 1 (the
    safeguard of Thibault, Chizat, Dossal, Papadakis 2021).
    """
    if omega == 1.0:
        return Xs
    D = Xs - X
    gain = (mass * (omega * D - np.exp((omega - 1) * D)
                    + np.exp(-D))).sum(axis=1)
    return Xs + np.where(gain >= 0, omega - 1, 0.0)[:, None] * D


def _log_stage(H, Hp, logK, tol, cap, F, G, omega):
    """The scaling iteration at kernel logK for the rows with cap > 0,
    from G, each step over-relaxed by omega where _relaxed allows.  A row
    leaves once the L1 error of both its marginals is below tol or NaN, or
    after cap passes; its F and G are written back then.

    The passes are absorbed (Schmitzer 2019, section 3): each row keeps
    potentials f0, g0 and the kernel Kt = exp(f0_i + logK_ij + g0_j),
    built at the stage's start from F = log H - logsumexp_j(logK_ij + G_j),
    so its rows sum to H.  A pass's log-sum-exps are then log(Kt b) - f0
    over j and log(a Kt) - g0 over i, a = exp(F - f0), b = exp(G - g0):
    two batched mat-vecs and (p, d) exps, not (p, d, d).  A row where some
    |F - f0| or |G - g0| passes _ABSORB takes f0 = F, g0 = G and a rebuilt
    Kt.  In exact arithmetic the steps are the log-sum-exp loop's.
    Returns (converged (p,), passes (p,)).
    """
    conv, passes = np.zeros(len(H), dtype=bool), np.zeros(len(H), dtype=int)
    act = np.flatnonzero(cap > 0)
    Ha, Hpa, Ga, capa = H[act], Hp[act], G[act], cap[act]
    logHa, logHpa = np.log(Ha), np.log(Hpa)
    L = _logsumexp(logK + Ga[:, None, :], 2)
    Fa, it = logHa - L, 0
    f0, g0, Kt = Fa, Ga, _kernel(logK, Fa, Ga)
    while act.size:
        it += 1
        Fa = _relaxed(Fa, logHa - L, Ha, omega)
        a = np.exp(Fa - f0)
        Gs = logHpa + g0 - np.log(np.matmul(a[:, None, :], Kt)[:, 0])
        Ga = _relaxed(Ga, Gs, Hpa, omega)
        Kb = np.matmul(Kt, np.exp(Ga - g0)[:, :, None])[:, :, 0]
        L = np.log(Kb) - f0
        err = np.abs(a * Kb - Ha).sum(axis=1)
        if omega != 1.0:  # else the column sums are Hpa
            err += (Hpa * np.abs(np.expm1(Ga - Gs))).sum(axis=1)
        out = ~(err >= tol) | (it == capa)  # NaN leaves too
        if out.any():
            j, keep = act[out], ~out
            F[j], G[j], passes[j] = Fa[out], Ga[out], it
            conv[j] = err[out] < tol
            act, Ha, Hpa, logHa, logHpa, Fa, Ga, L, capa, f0, g0, Kt = (
                x[keep] for x in (act, Ha, Hpa, logHa, logHpa, Fa, Ga, L,
                                  capa, f0, g0, Kt))
        big = ((np.abs(Fa - f0) > _ABSORB).any(axis=1)
               | (np.abs(Ga - g0) > _ABSORB).any(axis=1))
        if big.any():
            f0 = np.where(big[:, None], Fa, f0)
            g0 = np.where(big[:, None], Ga, g0)
            Kt[big] = K = _kernel(logK, Fa[big], Ga[big])
            L[big] = np.log(K.sum(axis=2)) - Fa[big]
    return conv, passes


def _kernel(logK, F, G):
    """The (p, d, d) stack exp(F_i + logK_ij + G_j) of F, G (p, d), its
    entries below _FLUSH set to zero."""
    K = np.exp(F[:, :, None] + logK + G[:, None, :])
    K[K < _FLUSH] = 0.0
    return K


def _log_scaling(HT, HpT, M, lam, tol, max_iter):
    """The scaling iteration on f = log u, g = log v for the (d, p) blocks
    HT and HpT of clamped first and second marginals, each pass two
    batched mat-vecs on an absorbed (p, d, d) kernel (see _log_stage).

    Every column first runs the plain iteration for max_iter //
    _PLAIN_SHARE passes.  A column still unconverged then is solved again
    cold in the passes left: lam / 2**k for k = _EPS_STAGES, ..., 1, each
    stage from the last one's dual beta = g / lam (epsilon-scaling,
    Schmitzer 2019) and capped at a 2 * _EPS_STAGES-th of those passes,
    then lam, each step over-relaxed by _OMEGA where _relaxed allows.
    Every stage is a working block of columns, each leaving once
    both its marginals are within tol, so a column's result does not
    depend on the others, and it makes at most max_iter passes in all.
    Returns (distances (p,), G (p, d), converged (p,), the most passes a
    column made).
    """
    H, Hp = HT.T, HpT.T
    F, G, logK = np.empty_like(H), np.zeros_like(H), -lam * M
    probe = max_iter // _PLAIN_SHARE
    conv, passes = _log_stage(H, Hp, logK, tol, np.full(len(H), probe), F,
                              G, 1.0)
    s = np.flatnonzero(~conv & (passes == probe))
    if s.size:
        Hs, Hps, Fs, Gs = H[s], Hp[s], F[s], np.zeros_like(H[s])
        cap = np.full(s.size, (max_iter - probe) // (2 * _EPS_STAGES))
        for k in range(_EPS_STAGES, 0, -1):
            passes[s] += _log_stage(Hs, Hps, -(lam / 2**k) * M, tol, cap, Fs,
                                    Gs, _OMEGA)[1]
            Gs *= 2.0
        conv[s], last = _log_stage(Hs, Hps, logK, tol, max_iter - passes[s],
                                   Fs, Gs, _OMEGA)
        F[s], G[s] = Fs, Gs
        passes[s] += last
    dists = (_kernel(logK, F, G) * M).sum(axis=(1, 2))
    return dists, G, conv, int(passes.max())


def sinkhorn(h: np.ndarray, hp: np.ndarray, M: np.ndarray, lam: float,
             tol: float = 1e-9, max_iter: int = 10000) -> SinkhornSolution:
    """Entropy-regularized transport distance between h and hp.

    ``sinkhorn_batch`` on the one pair, looked up in this module when
    called.  The dual beta = log v / lam is recovered from the scaling,
    up to an additive constant; the distance is tr(T M), an upper bound
    on the exact EMD that tightens as lam grows.
    """
    dists, betas, _, conv, it = sinkhorn_batch(
        np.asarray(h, dtype=float)[None], np.asarray(hp, dtype=float)[None],
        M, lam, tol, max_iter, pairs=([0], [0]))
    return SinkhornSolution(distance=float(dists[0]), dual_beta=betas[0],
                            iterations=it, converged=bool(conv[0]))


def sinkhorn_grad_dual(sol: SinkhornSolution) -> np.ndarray:
    """Centered dual beta*: approximate gradient of the Sinkhorn distance
    with respect to its second marginal.

    Centering removes the additive-constant ambiguity of the dual.
    """
    if not sol.converged:
        raise NotConverged("Sinkhorn solution did not converge")
    beta = sol.dual_beta
    return beta - beta.mean()


def sinkhorn_batch(H: np.ndarray, Hp: np.ndarray, M: np.ndarray, lam: float,
                   tol: float = 1e-9, max_iter: int = 10000,
                   V0: np.ndarray | None = None, *, pairs):
    """Solve sinkhorn(H[qi[k]], Hp[pj[k]]) for every pair k of pairs =
    (qi, pj), index arrays into the rows of H and Hp.

    Each distinct marginal is checked and clamped once per call, row by
    row.  Alternating scaling iterations on K = exp(-lam * M) share the
    kernel, so they reduce to matrix products on a (d, w) working block
    of w = _LINEAR_BLOCK // d columns; the K @ V of each iteration's L1
    marginal check is the next one's denominator.  A column leaves the
    block, with its scalings, its distance and a check that they are
    finite, once its violation is below tol or NaN, or after its own
    max_iter passes, so its result does not depend on the other columns
    (up to the last bits the block width moves in BLAS products).  Its
    slot then takes the next pending pair, whose marginals are gathered
    from the clamped rows by qi and pj and whose K @ V0 is computed there,
    with its pass count at 0; once no pair is pending the block is
    compacted, by index, as columns leave.  A column whose distance or
    scalings end non-finite is solved again in the log domain, and every
    column is when K has an exact zero (then no linear pass runs): cold,
    as there a V0 cannot hold a useful log scaling, in blocks of
    _LOG_BLOCK stack elements gathered from the clamped rows.  A finite
    column that did not converge is returned as it is: the log domain's
    passes cost several times as much.  Returns (distances (n,), betas
    (n, d), V (d, n), converged (n,), the most passes a column made in
    the linear domain plus the most in the log domain), n the number of
    pairs.  V seeds warm starts of later calls (SHC's descent keeps it).
    """
    qi, pj = map(np.asarray, pairs)
    if qi.ndim != 1 or qi.shape != pj.shape or not (
            ((0 <= qi) & (qi < len(H))).all()
            and ((0 <= pj) & (pj < len(Hp))).all()):
        raise DimensionMismatch("pairs must be two equal-length index arrays "
                                "into H and Hp")
    Hc = clamp_histogram(check_histograms(H))
    Hpc = Hc if Hp is H else clamp_histogram(check_histograms(Hp))
    d, n = Hc.shape[1], len(qi)
    if Hpc.shape[1] != d:
        raise DimensionMismatch(f"second marginals {Hpc.shape} vs {Hc.shape}")
    M = check_ground_metric(M, d)
    _check_lam_iter(lam, tol, max_iter)
    K = np.exp(-lam * M)
    V = np.ones((d, n)) if V0 is None else np.array(V0, dtype=float)
    if V.shape != (d, n):
        raise DimensionMismatch(f"warm start shape {V.shape} != {(d, n)}")
    if not ((V > 0) & np.isfinite(V)).all():
        raise BadParameters("warm start must be finite and positive")
    dists, conv = np.empty(n), np.zeros(n, dtype=bool)
    ok = np.zeros(n, dtype=bool)  # distance and scalings finite
    with np.errstate(all="ignore"):
        KM, it = K * M, 0
        nxt = min(n, max(1, _LINEAR_BLOCK // d)) if K.all() else 0
        act, passes = np.arange(nxt), np.zeros(nxt, dtype=int)
        Ha, Hpa = Hc.T.take(qi[act], 1), Hpc.T.take(pj[act], 1)
        KV = K @ V[:, act]
        while act.size:
            passes += 1
            Ua = Ha / KV
            Va = Hpa / (K.T @ Ua)
            KV = K @ Va
            T = Ua * KV
            T -= Ha
            err = np.abs(T, out=T).sum(axis=0)
            out = ~(err >= tol) | (passes == max_iter)  # NaN leaves too
            if not out.any():
                continue
            s = np.flatnonzero(out)
            j, Us, Vs = act[s], Ua[:, s], Va[:, s]
            V[:, j], conv[j] = Vs, err[s] < tol
            dists[j] = dj = (Us * (KM @ Vs)).sum(axis=0)
            # finite iff dj is and every scaling is in (0, inf)
            ok[j] = np.isfinite(dj + np.log(Us).sum(axis=0)
                                + np.log(Vs).sum(axis=0))
            it = max(it, passes[s].max())
            r = s[:n - nxt]  # slots that take the next pending pairs
            if r.size:
                new = slice(nxt, nxt + r.size)
                act[r], passes[r], out[r] = np.arange(nxt, new.stop), 0, False
                Ha[:, r], Hpa[:, r] = Hc[qi[new]].T, Hpc[pj[new]].T
                KV[:, r] = K @ V[:, new]
                nxt = new.stop
            if r.size < s.size:  # no pair pending: compact
                keep = np.flatnonzero(~out)
                act, passes, Ha, Hpa, KV = (
                    act[keep], passes[keep], Ha.take(keep, 1),
                    Hpa.take(keep, 1), KV.take(keep, 1))
        G = np.log(V)
        redo, it_log = np.flatnonzero(~ok), 0
        width = max(1, _LOG_BLOCK // d**2)
        for b in range(0, redo.size, width):
            j = redo[b:b + width]
            dists[j], G_log, conv[j], it_b = _log_scaling(
                Hc[qi[j]].T, Hpc[pj[j]].T, M, lam, tol, max_iter)
            G[:, j], V[:, j] = G_log.T, 1.0
            it_log = max(it_log, it_b)
        G /= lam
    return dists, G.T, V, conv, int(it) + it_log


def sinkhorn_matrix(Q, P, M: np.ndarray, lam: float, tol: float = 1e-9,
                    max_iter: int = 10000):
    """Sinkhorn distances between the rows of Q (n, d) and of P (m, d).

    One cold ``sinkhorn_batch`` over all n·m pairs, looked up in this
    module when called, with each row of Q and P checked once; column
    j·n + i is the pair (Q[i], P[j]).  An empty side makes no solve.
    Returns (distances (n, m), converged (n, m)).
    """
    n, m = len(Q), len(P)
    if not (n and m):
        return np.empty((n, m)), np.empty((n, m), bool)
    dists, _, _, conv, _ = sinkhorn_batch(
        Q, P, M, lam, tol, max_iter,
        pairs=(np.tile(np.arange(n), m), np.repeat(np.arange(m), n)))
    return dists.reshape(m, n).T, conv.reshape(m, n).T


def sinkhorn_pairwise(H: np.ndarray, M: np.ndarray, lam: float,
                      tol: float = 1e-9, max_iter: int = 10000) -> np.ndarray:
    """Symmetric (n, n) matrix of Sinkhorn distances among the rows of H:
    one ``sinkhorn_batch`` over the pairs (H[i], H[j]), i < j, mirrored."""
    H = np.asarray(H, dtype=float)
    D = np.zeros((len(H), len(H)))
    i, j = np.triu_indices(len(H), 1)
    if i.size:
        D[i, j] = D[j, i] = sinkhorn_batch(H, H, M, lam, tol, max_iter,
                                           pairs=(i, j))[0]
    return D


# --- exact EMD --------------------------------------------------------------

def emd_exact(h: np.ndarray, hp: np.ndarray, M: np.ndarray) -> float:
    """Exact optimum of the transportation LP min tr(T M), T1 = h, T'1 = hp.

    One HiGHS linear program over the d*d entries of T; the last column
    sum follows from the others and is dropped.  Both marginals are
    divided by their sums first: a mass error the check accepts would
    otherwise move the optimum.  Meant as an oracle at small d; for a 1-D
    line metric it must equal the L1 distance between the cumulative sums.
    """
    h = check_histograms(np.asarray(h, dtype=float)[None])[0]
    hp = check_histograms(np.asarray(hp, dtype=float)[None])[0]
    if h.shape != hp.shape:
        raise DimensionMismatch(f"marginal dims {h.shape} vs {hp.shape}")
    M = check_ground_metric(M, h.shape[0])
    d = h.shape[0]
    sums = np.vstack([np.kron(np.eye(d), np.ones(d)),   # rows of T
                      np.kron(np.ones(d), np.eye(d))])  # columns of T
    res = linprog(M.ravel(), A_eq=sums[:-1],
                  b_eq=np.concatenate([h / h.sum(), hp / hp.sum()])[:-1],
                  bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"EMD linear program failed: {res.message}")
    return float(res.fun)


# --- barycenter --------------------------------------------------------------

def sinkhorn_barycenter(members: np.ndarray, M: np.ndarray, lam: float,
                        tol: float = 1e-9, max_iter: int = 1000) -> np.ndarray:
    """Histogram minimizing sum_i D_S(b, h_i), h_i the rows of members.

    Iterative Bregman projections on the log scalings G, Anderson-mixed
    over 5 steps: G moves by log(b / nu_i), b the geometric mean of the
    free marginals nu_i of the plans onto h_i.  tol bounds its 2-norm at
    the last step, so each nu_i is within L1 exp(tol) - 1 of that step's b.
    """
    if len(members) == 0:
        raise EmptyInput("barycenter of an empty set")
    H = clamp_histogram(check_histograms(members))
    N, d = H.shape
    M = check_ground_metric(M, d)
    _check_lam_iter(lam, tol, max_iter)
    if N == 1:
        return H[0].copy()

    logK = -lam * M

    def step(G):  # G[i] = log v_i
        # F[i] = log u_i projecting onto the fixed marginals h_i
        F = np.log(H) - _logsumexp(logK[None, :, :] + G[:, None, :], 2)
        # free marginals log(K^T u_i); barycenter = geometric mean
        logm = _logsumexp(logK.T[None, :, :] + F[:, None, :], 2)
        logb = logm.mean(axis=0) + G.mean(axis=0)
        logb -= _logsumexp(logb, None)
        return logb[None, :] - logm, np.exp(logb)
    return _anderson(step, np.zeros((N, d)), tol, max_iter, 5,
                     "sinkhorn_barycenter")
