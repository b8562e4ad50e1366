"""Independent correctness checks for the benchmark's operations.

Nothing here calls the package's numerics or certificate code: the
conditional error rates come from Craig's form of the Gaussian tail,

    Q(x)   = (1/pi) int_0^{pi/2} exp(-x^2 / (2 sin^2 th)) dth,
    Q(x)^2 = (1/pi) int_0^{pi/4} exp(-x^2 / (2 sin^2 th)) dth,

averaged over a ~ Gamma(t, 1) in closed form (the Gamma MGF, truncated at a
branch threshold x0 with the regularized incomplete gamma function), and
covers are probed with plain numpy plus local descent.  A later change to
`vlqsim.numerics`, `vlqsim.estimate` or `verify_covering` therefore cannot
weaken these checks.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

# z-test threshold, and the largest relative stderr at which a plain-mode
# (heavy-tailed) estimate is close enough to normal for a z-test.
Z_MAX = 5.0
PLAIN_Z_MAX_REL_SE = 0.1


def _craig_grid(upper: float):
    theta = 0.5 * upper * (_GL_NODES + 1.0)
    return np.sin(theta) ** 2, 0.5 * upper * _GL_WEIGHTS / math.pi


def _upper_gamma(t: int, y: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Gamma(t, y)/Gamma(t), integer t."""
    term = np.ones_like(y)
    acc = np.ones_like(y)
    for k in range(1, t):
        term = term * y / k
        acc = acc + term
    with np.errstate(under="ignore"):
        return np.exp(-y) * acc


def _lower_gamma(t: int, y: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma, by its series below y = 1 so that
    small values keep their relative accuracy."""
    out = 1.0 - _upper_gamma(t, y)
    small = y < 1.0
    if np.any(small):
        ys = y[small]
        term = np.exp(-ys)
        for k in range(1, t + 1):
            term = term * ys / k
        acc = term.copy()
        for k in range(t + 1, t + 40):
            term = term * ys / k
            acc += term
        out[small] = acc
    return out


def rayleigh_q(t: int, s, x0=None, branch: str = "all", square: bool = False) -> np.ndarray:
    """E[Q(sqrt(2 a s))^m ; branch] over a ~ Gamma(t, 1), m = 2 if square.

    branch "all" integrates over every a, "above" over a >= x0 and
    "below" over a < x0.  Vectorized over s and x0.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    sin2, w = _craig_grid(math.pi / 4 if square else math.pi / 2)
    k = s[:, None] / sin2[None, :]
    with np.errstate(under="ignore"):
        f = (1.0 + k) ** (-t)
    if branch != "all":
        y = np.atleast_1d(np.asarray(x0, dtype=float))[:, None] * (1.0 + k)
        f = f * (_upper_gamma(t, y) if branch == "above" else _lower_gamma(t, y))
    return f @ w


def unit_directions(gen: np.random.Generator, t: int, n: int) -> np.ndarray:
    """n directions uniform on the complex unit sphere in C^t."""
    h = gen.standard_normal((n, t)) + 1j * gen.standard_normal((n, t))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def corr2(directions: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """|<x_i, h>|^2 for every direction (rows) and codeword (columns)."""
    return np.abs(directions @ vectors.conj().T) ** 2


def per_direction(scheme: str, t: int, delta: float, c: np.ndarray, P: float, square=False):
    """Exact conditional SER (or its square's mean) of a scheme given the
    direction, from the direction's codeword correlations c (n, |B|).

    bf-flq beamforms on the best codeword.  bf-vlq sends the short word
    (codeword 0) when every codeword clears beta = (t+1) ln P, i.e. when
    a >= beta / (c_min P).  pc-vlq uses the identity precoder (SNR a P / t)
    when a P >= t / delta, otherwise the best codeword.
    """
    c_max = c.max(axis=1)
    if scheme == "bf-flq":
        return rayleigh_q(t, c_max * P, square=square)
    if scheme == "bf-vlq":
        beta = (t + 1) * math.log(P)
        x0 = beta / (np.maximum(c.min(axis=1), 1e-300) * P)
        return rayleigh_q(t, c_max * P, x0, "below", square) + rayleigh_q(
            t, c[:, 0] * P, x0, "above", square
        )
    if scheme == "pc-vlq":
        x0 = np.full(len(c), t / (delta * P))
        return rayleigh_q(t, c_max * P, x0, "below", square) + rayleigh_q(
            t, np.full(len(c), P / t), x0, "above", square
        )
    raise ValueError(f"unknown scheme {scheme}")


def check_sweep(records, reference: dict, conditioning: str, t: int, index_bits: int,
                converse_violations: int) -> list[str]:
    """Failure messages for one sweep's records (empty when all hold).

    reference[scheme][P] holds the reference mean SER, its stderr and the
    per-draw mean of the squared conditional SER (for the true stderr of a
    plain-mode estimate, whose own sample stderr is unreliable because the
    per-draw error rate is heavy-tailed).
    """
    fails = []
    if converse_violations:
        fails.append(f"{converse_violations} converse_check violations")
    for rec in records:
        tag = f"{rec.quantizer_id}@P={rec.P:g}"
        ref = reference[rec.quantizer_id][repr(float(rec.P))]
        vals = (rec.ser, rec.ser_stderr, rec.rate, rec.rate_stderr)
        if not all(math.isfinite(v) for v in vals):
            fails.append(f"{tag}: non-finite record {vals}")
            continue
        if not 0.0 <= rec.ser <= 0.5:
            fails.append(f"{tag}: ser {rec.ser} outside [0, 1/2]")
        if not 1.0 - 1e-12 <= rec.rate <= 1.0 + index_bits + 1e-12:
            fails.append(f"{tag}: rate {rec.rate} outside [1, {1 + index_bits}]")
        se = rec.ser_stderr
        z_applies = True
        if conditioning == "none":
            se_true = math.sqrt(max(ref["ser2"] - ref["ser"] ** 2, 0.0) / rec.samples)
            se = max(se, se_true)
            z_applies = se_true <= PLAIN_Z_MAX_REL_SE * ref["ser"]
        full = float(rayleigh_q(t, rec.P)[0])
        if rec.ser < full - 3.0 * se:
            fails.append(f"{tag}: ser {rec.ser:.6e} below full-CSIT {full:.6e} - 3 se")
        if z_applies:
            z = abs(rec.ser - ref["ser"]) / math.hypot(se, ref["ser_se"])
            if z > Z_MAX:
                fails.append(f"{tag}: ser {rec.ser:.6e} vs reference {ref['ser']:.6e}, z={z:.1f}")
    return fails


def worst_cover(vectors: np.ndarray, gen: np.random.Generator, probes: int,
                starts: int = 8, steps: int = 100) -> float:
    """Smallest max_i |<x_i, h>|^2 found over unit h.

    Uniform probes locate the deepest holes; the worst `starts` probes are
    then pushed further from the codebook by projected descent on a smooth
    p-norm surrogate of the max, with backtracking.
    """
    t = vectors.shape[1]
    worst = []
    for lo in range(0, probes, 1 << 14):
        h = unit_directions(gen, t, min(1 << 14, probes - lo))
        val = corr2(h, vectors).max(axis=1)
        keep = np.argsort(val)[:starts]
        worst.extend(zip(val[keep], h[keep]))
    worst.sort(key=lambda p: p[0])
    h = np.array([p[1] for p in worst[:starts]])
    best = float(worst[0][0])
    for power in (8.0, 32.0, 128.0):
        h = _descend(vectors, h, power, steps)
        best = min(best, float(corr2(h, vectors).max(axis=1).min()))
    return best


def _descend(vectors, h, power, steps):
    def surrogate(x):
        c = corr2(x, vectors)
        m = c.max(axis=1, keepdims=True)
        return m[:, 0] * np.sum((c / m) ** power, axis=1) ** (1.0 / power), c, m

    f, c, m = surrogate(h)
    eta = np.full(len(h), 0.1)
    for _ in range(steps):
        inner = h @ vectors.conj().T  # <x_i, h>
        w = (c / m) ** (power - 1.0)
        grad = (w * inner) @ vectors
        grad -= np.sum(grad * h.conj(), axis=1, keepdims=True).real * h
        norm = np.linalg.norm(grad, axis=1, keepdims=True)
        cand = h - eta[:, None] * grad / np.maximum(norm, 1e-300)
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        f_new, c_new, m_new = surrogate(cand)
        better = f_new < f
        h = np.where(better[:, None], cand, h)
        f = np.where(better, f_new, f)
        c = np.where(better[:, None], c_new, c)
        m = np.where(better[:, None], m_new, m)
        eta = np.where(better, eta * 1.5, eta * 0.5)
        if np.all(eta < 1e-10):
            break
    return h
