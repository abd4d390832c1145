"""Independent oracle implementations used to pin expected values.

Everything here deliberately avoids the package's vectorized code paths:
plain Python loops, cmath powers, and classical formulas, so a shared bug
cannot hide.  The Euler-Maclaurin oracle runs a longer main sum than the
package, with its own truncation rule, and reports its own remainder bound.
"""

from __future__ import annotations

import cmath
import math

# Bernoulli numbers B_2..B_50
_B2K = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6,
    -23749461029 / 870, 8615841276005 / 14322, -7709321041217 / 510,
    2577687858367 / 6, -26315271553053477373 / 1919190, 2929993913841559 / 6,
    -261082718496449122051 / 13530, 1520097643918070802691 / 1806,
    -27833269579301024235023 / 690, 596451111593912163277961 / 282,
    -5609403368997817686249127547 / 46410, 495057205241079648212477525 / 66,
]


def em_zeta_oracle(s: complex, mult: int = 4, corrections: int = 16,
                   derivative: int = 0):
    """(value, remainder_bound) for zeta^(derivative)(s), naive Euler-Maclaurin.

    Truncation is mult times max(20, ceil(2|t|/pi)), a length of this
    oracle's own, longer than the package's at every height.
    """
    s = complex(s)
    n = mult * max(20, math.ceil(2.0 * abs(s.imag) / math.pi))
    val = 0.0 + 0.0j
    amp_sq = 0.0
    for m in range(1, n):
        term = m ** (-s) if derivative == 0 else \
            (-math.log(m)) ** derivative * m ** (-s)
        val += term
        amp_sq += m ** (-2.0 * s.real)
    log_n = math.log(n)
    n_pow = cmath.exp(-s * log_n)

    def tail_part(order):
        # d^order/ds^order of N^{1-s}/(s-1) and N^{-s}/2 via log-derivative
        g = n_pow * n / (s - 1.0)
        h = 0.5 * n_pow
        if order == 0:
            return g + h
        u = -log_n - 1.0 / (s - 1.0)
        if order == 1:
            return g * u - log_n * h
        return g * (u * u + 1.0 / (s - 1.0) ** 2) + log_n * log_n * h

    val += tail_part(derivative)
    fact = 2.0
    prod = [s]                      # prod_{j=0}^{2r-2}(s+j)
    recip = 1.0 / s
    recip2 = 1.0 / (s * s)
    scale = n_pow / n
    for r in range(1, corrections + 1):
        t_r = (_B2K[r - 1] / fact) * prod[0] * scale
        if derivative == 0:
            val += t_r
        elif derivative == 1:
            val += t_r * (recip - log_n)
        else:
            u = recip - log_n
            val += t_r * (u * u - recip2)
        a = s + (2 * r - 1)
        b = s + (2 * r)
        prod[0] = prod[0] * a * b
        recip += 1.0 / a + 1.0 / b
        recip2 += 1.0 / (a * a) + 1.0 / (b * b)
        fact *= (2 * r + 1) * (2 * r + 2)
        scale /= n * n
    m2 = 2 * corrections
    bound = (abs(_B2K[corrections]) / fact) * abs(prod[0]) \
        * n ** (-s.real - m2 - 1) * abs(s + m2 + 1) / (s.real + m2 + 1)
    deriv_slack = (log_n + 3.0) ** derivative
    # the oracle's own rounding noise: correlated phase error times the
    # quadrature amplitude of the summed terms
    fp_noise = 2.5e-16 * math.sqrt(amp_sq) * (1.0 + abs(s.imag) * log_n) \
        * deriv_slack
    return val, bound * deriv_slack + fp_noise + 1e-14 * (1.0 + abs(s.imag))


def lanczos_log_gamma(s: complex) -> complex:
    """Classic g=7, n=9 Lanczos approximation, Re s > 0."""
    coeffs = [
        0.99999999999980993, 676.5203681218851, -1259.1392167224028,
        771.32342877765313, -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
    ]
    s = complex(s)
    if s.imag < 0:
        return lanczos_log_gamma(s.conjugate()).conjugate()
    z = s - 1.0
    acc = coeffs[0]
    for i in range(1, 9):
        acc += coeffs[i] / (z + i)
    t = z + 7.5
    return (0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t
            + cmath.log(acc))


def mangoldt_oracle(n: int) -> float:
    """Lambda(n) by trial division."""
    if n < 2:
        return 0.0
    p = None
    m = n
    for d in range(2, int(math.isqrt(n)) + 1):
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
    if p is None:
        return math.log(n)          # n prime
    return math.log(p) if m == 1 else 0.0


def mangoldt_table_oracle(upto: int) -> list[float]:
    """Lambda(0..upto): math.log(p) stamped on each power of each prime p.

    The prime-power loop the package's vectorized table replaced, over a
    plain Eratosthenes sieve.
    """
    is_prime = bytearray([0, 0]) + bytearray([1]) * (upto - 1)
    for d in range(2, math.isqrt(upto) + 1):
        if is_prime[d]:
            is_prime[d * d::d] = bytes(len(range(d * d, upto + 1, d)))
    out = [0.0] * (upto + 1)
    for p in range(2, upto + 1):
        if is_prime[p]:
            lp = math.log(p)
            pk = p
            while pk <= upto:
                out[pk] = lp
                pk *= p
    return out


def prime_factors_oracle(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def bisect_zero(z_func, lo: float, hi: float, scan_step: float = 1e-6,
                iters: int = 80) -> float:
    """Zero of z_func in (lo, hi): fine-grid scan then pure bisection."""
    a, fa = lo, z_func(lo)
    t = lo + scan_step
    b = None
    while t <= hi:
        ft = z_func(t)
        if fa * ft <= 0.0:
            b, fb = t, ft
            break
        a, fa = t, ft
        t += scan_step
    if b is None:
        raise AssertionError(f"no sign change of Z in ({lo}, {hi})")
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = z_func(mid)
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def sign_change_count(z_func_grid, lo: float, hi: float, step: float) -> int:
    """Exhaustive sign-change count of Z on a uniform grid over (lo, hi)."""
    import numpy as np
    n = int(math.ceil((hi - lo) / step)) + 1
    ts = np.linspace(lo, hi, n)
    zs = z_func_grid(ts)
    sign = np.sign(zs)
    return int((sign[:-1] * sign[1:] < 0).sum())


def em_boundary_loop(s, n, max_order: int, terms: int = 12):
    """Euler-Maclaurin boundary terms one Bernoulli correction at a time.

    The loop that the package's one-pass boundary routine replaced, kept as
    its reference: s is an array, n an int or an array like s.  Returns
    (terms, bound) with terms[j] the j-th s-derivative of N^{-s}/2 +
    N^{1-s}/(s-1) + sum_r B_2r/(2r)! prod_{j<=2r-2}(s+j) N^{1-s-2r}, and
    bound the first omitted correction times |s+2m+1|/(sigma+2m+1).
    """
    import numpy as np
    log_n = np.log(n)
    n_pow = np.exp(-s * log_n)
    half = 0.5 * n_pow
    tail = n_pow * (n / (s - 1.0))
    out = [half + tail]
    if max_order >= 1:
        u_tail = -log_n - 1.0 / (s - 1.0)
        out.append(-log_n * half + tail * u_tail)
    if max_order >= 2:
        out.append(log_n * log_n * half
                   + tail * (u_tail * u_tail + 1.0 / (s - 1.0) ** 2))
    fact = 2.0
    prod = s
    recip = 1.0 / s
    recip2 = recip * recip
    scale = n_pow / n
    for r in range(1, terms + 1):
        t_r = (_B2K[r - 1] / fact) * prod * scale
        u = recip - log_n
        out[0] = out[0] + t_r
        if max_order >= 1:
            out[1] = out[1] + t_r * u
        if max_order >= 2:
            out[2] = out[2] + t_r * (u * u - recip2)
        a = s + (2 * r - 1)
        b = s + (2 * r)
        prod = prod * a * b
        recip = recip + 1.0 / a + 1.0 / b
        recip2 = recip2 + 1.0 / (a * a) + 1.0 / (b * b)
        fact *= (2 * r + 1) * (2 * r + 2)
        scale = scale / (n * n)
    m2 = 2 * terms
    bound = (abs(_B2K[terms]) / fact) * np.abs(prod) * n ** (-s.real - m2 - 1) \
        * np.abs(s + m2 + 1) / (s.real + m2 + 1)
    return out, bound


# ---------------------------------------------------------------------------
# Entry points that only tests call.  Unlike the oracles above, these run
# the package's own code: each is a thin wrapper or a closed formula.


def gram_point(n: int) -> float:
    """Gram point g_n with theta(g_n) = n*pi, for n >= 0."""
    import numpy as np

    from zetamoments import zeros
    if n < 0:
        raise zeros.DomainError(f"gram_point supports n >= 0 (got {n})")
    return float(zeros._gram_points(np.array([n]))[0])


def count_main_term_deviation(cache) -> float:
    """N_found - (T/2pi log(T/2pi) - T/2pi), the coarser asymptotic check."""
    x = cache.t_max / (2.0 * math.pi)
    return len(cache) - (x * math.log(x) - x)


def histogram_from_values(log_values, t_max: float, alpha: complex = 0.0, v_grid=None):
    """moments' large-value histogram over explicit log|zeta| values."""
    import numpy as np

    from zetamoments import moments
    logs = np.asarray(log_values, dtype=np.float64)
    return moments._histogram(logs, t_max, complex(alpha), 0.0, v_grid)


def cauchy_transfer_audit(cache, k: int, ell: int, radius: float) -> float:
    """Sampled slack RHS/LHS of the derivative-moment transfer (pass >= 0.95)."""
    from zetamoments import moments
    return moments.cauchy_transfer_report(cache, k, ell, radius).slack


def chebyshev_psi(x: float) -> float:
    """psi(x) = sum_{n<=x} Lambda(n) from the package's shared sieve."""
    from zetamoments import primes
    nmax = int(math.floor(x))
    return float(primes.shared_sieve(nmax).mangoldt_table(nmax).sum())


def s1_s2(spec, gamma: float) -> tuple[complex, complex]:
    """(S1, S2) at rho = 1/2 + i*gamma: prime sums cut at z, shift lam/log x."""
    from zetamoments import primes
    if spec.split_z is None:
        raise ValueError("spec.split_z is required for the S1/S2 split")
    s = complex(0.5, gamma)
    return (primes.prime_sum(spec, s, p_hi=spec.split_z),
            primes.prime_sum(spec, s, p_lo=spec.split_z))


def em_boundary_sampled(gammas, n, radius: float):
    """The shift table's Euler-Maclaurin boundary coefficients by the route
    that their closed form replaced: the package's _em_boundary at 32 points
    on |alpha| = 2 radius about each 1/2 + i gamma, with truncation n (an
    array like gammas), and the discrete Fourier transform of those samples
    to Taylor coefficients 0..24, one row per height."""
    import numpy as np

    from zetamoments import zetafn
    j = np.arange(25)
    r = 2.0 * radius
    w = np.exp(2j * math.pi * np.arange(32) / 32)[:, None]
    s = (0.5 + 1j * np.asarray(gammas, dtype=np.float64)) + r * w     # (samples, heights)
    n = np.broadcast_to(np.asarray(n, dtype=np.float64), s.shape).ravel()
    boundary, _ = zetafn._em_boundary(s.ravel(), n, 0)
    return boundary[0].reshape(s.shape).T @ (w ** -j / (32 * r ** j))


def rs_correction_complex(t_c, n: int):
    """(-1)^(n-1) sum_{r<=4} C_r(p) eta^(r + 1/2) at complex heights t_c,
    eta = (2 pi / t_c)^(1/2) and p = sqrt(t_c/2pi) - n, by the route that the
    shift table's real Taylor model replaced: Horner's rule in
    v = (p - 1/2)^2 on the package's coefficient table, in complex
    arithmetic."""
    import numpy as np

    from zetamoments import zetafn
    tau = np.sqrt(np.asarray(t_c, dtype=np.complex128).ravel() / zetafn.TWO_PI)
    eta = 1.0 / tau
    u = tau - n - 0.5
    v = u * u
    table = zetafn._C_TABLE[0]
    acc = np.repeat(table[:, -1:], u.size, axis=1).astype(np.complex128)
    for column in table.T[-2::-1]:
        acc *= v
        acc += column[:, None]
    acc[1::2] *= u
    total = acc[4]
    for row in acc[3::-1]:
        total = row + eta * total
    return ((1.0 if n % 2 else -1.0) * np.sqrt(eta) * total).reshape(np.shape(t_c))


def continuous_moment_one_shot(ks: tuple[float, ...], t_max: float,
                               step: float) -> tuple[float, ...]:
    """moments.continuous_moment for a tuple of k by the route that its
    blocked grid replaced: one hardy_z_grid call over every height from
    t = 10 up, then the same composite Simpson sums."""
    import numpy as np

    from zetamoments import zetafn
    n_iv = int(math.ceil((t_max - 1.0) / step))
    n_iv += n_iv % 2
    ts = np.linspace(1.0, t_max, n_iv + 1)
    mods = np.empty(ts.size)
    n_below = int(np.searchsorted(ts, 10.0))
    if n_below:
        mods[:n_below] = np.abs(zetafn.zeta_at_heights(ts[:n_below])[0])
    if n_below < ts.size:
        mods[n_below:] = np.abs(zetafn.hardy_z_grid(ts[n_below:])[0])
    h = (t_max - 1.0) / n_iv
    values = []
    for k in ks:
        f = mods ** (2.0 * k)
        integral = (h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                                + 2.0 * f[2:-2:2].sum())
        values.append(float(integral / t_max))
    return tuple(values)
