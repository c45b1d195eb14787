"""The Harrell-Davis quantile estimator, standard library only.

A run's job times are a fixed mix of instances, so the 90th percentile can
fall right where one instance's times end and the next one's begin; a plain
percentile then reads one or two order statistics of the faster end of one
instance and jumps from run to run.  Harrell and Davis (Biometrika, 1982)
weight every order statistic by a Beta((n+1)p, (n+1)(1-p)) distribution,
which gives a smooth estimate of the same quantile.
"""

import math


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return result


def regularized_beta(a, b, x):
    """I_x(a, b), the Beta(a, b) distribution function at x."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile of ``values``."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cumulative = [regularized_beta(a, b, i / n) for i in range(n + 1)]
    return sum((cumulative[i + 1] - cumulative[i]) * value
               for i, value in enumerate(ordered))
