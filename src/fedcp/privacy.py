"""Gaussian output perturbation and the zero-concentrated DP ledger.

Privacy is entry-level: neighbouring tensors differ in one replaced entry,
and the noise is calibrated to that shift. Budgets are tracked as rho
values; ``PrivacyAccountant`` composes them (serially within a site, by the
maximum across the disjoint sites). Conversion to (epsilon, delta)
reporting uses the exact form rho + sqrt(4 rho ln(1/delta)) and the
square-root approximation sqrt(4 rho ln(1/delta)); natural logarithms
throughout.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np


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
    2 * tau * clip * eta past the float range) admits no finite rho."""
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
    return sensitivity * math.sqrt(1.0 / (2.0 * rho))


def perturb_matrix(m: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent N(0, sigma^2) noise per element, drawn from ``rng`` only."""
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    m = np.asarray(m, dtype=np.float64)
    if sigma == 0.0:
        return m.copy()
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
    """Exact conversion: epsilon = rho + sqrt(4 rho ln(1/delta))."""
    if not rho >= 0:
        raise ValueError("rho must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return rho + math.sqrt(4.0 * rho * math.log(1.0 / delta))


def zcdp_to_dp_approx(rho: float, delta: float) -> float:
    """Square-root approximation: epsilon = sqrt(4 rho ln(1/delta))."""
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
        self._entries: list[LedgerEntry] = []
        self._site_rho = [0.0] * n_sites
        self._lock = threading.Lock()

    def record(self, epoch, site_id, matrix_tag, rho, sigma, sensitivity):
        if not rho >= 0:
            raise ValueError("rho must be non-negative")
        if not 0 <= site_id < self.n_sites:
            raise ValueError(f"site_id {site_id} outside [0, {self.n_sites})")
        entry = LedgerEntry(epoch, site_id, matrix_tag, rho, sigma, sensitivity)
        with self._lock:
            self._entries.append(entry)
            self._site_rho[site_id] += rho

    @property
    def ledger(self) -> list[LedgerEntry]:
        with self._lock:
            entries = list(self._entries)
        return sorted(entries, key=lambda e: (e.epoch, e.site_id, e.matrix_tag))

    @property
    def rho_total(self) -> float:
        with self._lock:
            return max(self._site_rho)

    def epsilon(self) -> tuple[float, float]:
        """Current (exact, approximate) epsilon at the accountant's delta."""
        rho = self.rho_total
        return zcdp_to_dp(rho, self.delta), zcdp_to_dp_approx(rho, self.delta)
