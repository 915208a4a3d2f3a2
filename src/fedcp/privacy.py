"""Gaussian output perturbation and the zero-concentrated DP ledger.

Privacy is entry-level: neighbouring tensors differ in one replaced entry,
and the noise is calibrated to that shift. Budgets are tracked as rho
values; ``PrivacyAccountant`` composes them (serially within a site, by the
maximum across the disjoint sites). Two conversions report (epsilon,
delta): rho + sqrt(4 rho ln(1/delta)), Bun and Steinke's conversion (TCC
2016), a valid guarantee but a loose one, and the square-root form
sqrt(4 rho ln(1/delta)), which drops the rho term and is not a DP
guarantee; natural logarithms throughout.

``perturb_matrix`` draws its noise with ``gaussian_perturb`` in ``_sgd.c``
when ``_native.LIBRARY`` holds the compiled library: numpy's own ziggurat
for ``Generator.standard_normal``, with numpy's tables, read through the
stream's bit generator under its lock, so the values and the stream's
state afterwards have the bits of the numpy lines that stay as its
reference and fallback.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _native


@dataclass(frozen=True)
class PrivacyParams:
    """Per-epoch, per-factor-matrix budget. ``rho = math.inf`` disables noise."""

    rho: float = 1e-3
    delta: float = 1e-4

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive (math.inf disables noise)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def l2_sensitivity(tau: int, lipschitz: float, eta: float) -> float:
    """Worst-case output shift of a tau-pass run with bounded entry gradients:
    2 * tau * L * eta."""
    if not (tau > 0 and lipschitz > 0 and eta > 0):
        raise ValueError("tau, lipschitz bound, and eta must all be positive")
    return 2.0 * tau * lipschitz * eta


def gaussian_sigma(sensitivity: float, rho: float) -> float:
    """Noise scale sigma = sensitivity * sqrt(1 / (2 rho)); 0 when rho is
    infinite. An infinite sensitivity (an unbounded clip, or a product
    2 * tau * clip * eta past the float range) admits no finite rho, and a
    rho so small that sigma leaves the float range is refused too."""
    if not sensitivity >= 0:
        raise ValueError("sensitivity must be non-negative")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if math.isinf(rho):
        return 0.0
    if math.isinf(sensitivity):
        raise ValueError(
            "sensitivity 2 * tau * clip * eta is infinite (clip = inf, or the product "
            "overflows) and needs rho = inf"
        )
    sigma = sensitivity * math.sqrt(1.0 / (2.0 * rho))
    if math.isinf(sigma):
        raise ValueError(
            f"rho = {rho!r} is too small: the noise scale sensitivity * sqrt(1 / (2 rho)) "
            "overflows"
        )
    return sigma


def perturb_matrix(m: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent N(0, sigma^2) noise per element, drawn from ``rng`` only."""
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    m = np.asarray(m, dtype=np.float64)
    if sigma == 0.0:
        return m.copy()
    if _native.LIBRARY is not None:
        # the draws in C order, as standard_normal fills its array; numpy's
        # draws hold the same lock
        src = np.ascontiguousarray(m)
        out = np.empty(m.shape)
        stream = rng.bit_generator
        with stream.lock:
            _native.LIBRARY.gaussian_perturb(
                stream.ctypes.bit_generator, out.size, src.ctypes.data, sigma, out.ctypes.data
            )
        return out
    # the bits of m + rng.normal(0.0, sigma, m.shape) in one array: normal
    # draws 0.0 + sigma * z, and the 0.0 turns a -0.0 product into +0.0
    out = rng.standard_normal(m.shape)
    out *= sigma
    out += 0.0
    out += m
    return out


def compose_serial(rhos) -> float:
    """Budget of a sequence of releases on the same data: the plain sum."""
    total = 0.0
    for r in rhos:
        if not r >= 0:
            raise ValueError("rho values must be non-negative")
        total += r
    return total


def zcdp_to_dp(rho: float, delta: float) -> float:
    """Bun and Steinke's conversion: epsilon = rho + sqrt(4 rho ln(1/delta)).
    A rho-zCDP release is (epsilon, delta)-DP at this epsilon (TCC 2016,
    Proposition 1.3); it is valid but loose, and tighter valid conversions
    exist (Canonne, Kamath and Steinke, NeurIPS 2020)."""
    return rho + zcdp_to_dp_approx(rho, delta)


def zcdp_to_dp_approx(rho: float, delta: float) -> float:
    """Square-root approximation: epsilon = sqrt(4 rho ln(1/delta)). It
    drops the rho term of ``zcdp_to_dp``, so it is below every epsilon that
    conversion gives and is not a DP guarantee."""
    if not rho >= 0:
        raise ValueError("rho must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(4.0 * rho * math.log(1.0 / delta))


def rho_for_target(epsilon: float, delta: float, epochs: int) -> float:
    """Per-epoch, per-matrix budget whose 2E-fold serial composition meets the
    (epsilon, delta) target under the approximate conversion:
    rho = epsilon^2 / (8 E ln(1/delta))."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not epochs > 0:
        raise ValueError("epochs must be positive")
    return epsilon * epsilon / (8.0 * epochs * math.log(1.0 / delta))


@dataclass(frozen=True)
class LedgerEntry:
    epoch: int
    site_id: int
    matrix_tag: str
    rho: float
    sigma: float
    sensitivity: float


class PrivacyAccountant:
    """Append-only record of every noised release, with the running total.

    This is the one place a run's budget is composed. Releases of one site
    add serially: each site keeps a running sum, from 0.0 in arrival order
    (the sum ``compose_serial`` forms). The sites hold disjoint patients, so
    they compose in parallel: the total is the maximum of the per-site sums
    (McSherry, SIGMOD 2009; Bun and Steinke, TCC 2016). The guarantee is
    entry-level: one replaced tensor entry. Appends may arrive concurrently;
    the ledger is reported in (epoch, site_id, matrix_tag) order regardless
    of arrival order.
    """

    def __init__(self, n_sites: int, delta: float):
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        self.n_sites = n_sites
        self.delta = delta
        self._entries: list[tuple] = []  # LedgerEntry fields, built when read
        self._site_rho = [0.0] * n_sites
        self._lock = threading.Lock()

    def record(self, epoch, site_id, matrix_tag, rho, sigma, sensitivity):
        if not rho >= 0:
            raise ValueError("rho must be non-negative")
        if not 0 <= site_id < self.n_sites:
            raise ValueError(f"site_id {site_id} outside [0, {self.n_sites})")
        if not sigma >= 0:
            raise ValueError("sigma must be non-negative")
        if not sensitivity >= 0:
            raise ValueError("sensitivity must be non-negative")
        with self._lock:
            self._entries.append((epoch, site_id, matrix_tag, rho, sigma, sensitivity))
            self._site_rho[site_id] += rho

    @property
    def ledger(self) -> list[LedgerEntry]:
        with self._lock:
            entries = list(self._entries)
        return [LedgerEntry(*e) for e in sorted(entries, key=lambda e: e[:3])]

    @property
    def rho_total(self) -> float:
        with self._lock:
            return max(self._site_rho)

    def epsilon(self) -> tuple[float, float]:
        """Current epsilon at the accountant's delta: (Bun and Steinke's
        valid conversion, the square-root form that is not a guarantee)."""
        rho = self.rho_total
        return zcdp_to_dp(rho, self.delta), zcdp_to_dp_approx(rho, self.delta)
