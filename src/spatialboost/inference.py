"""Centroid selection, Bayesian FDR metrics, and hyperparameter criteria.

Selection thresholds probabilities at 1/(1+gamma); gamma > 0 trades
sensitivity against specificity, with gamma = 1 reducing to the median
probability rule. The EMBFDR variant plugs the EM conditional probabilities
<theta_j> into the BFDR formula to guide the choice of kappa; the stage that
fits the EM per kappa is ``pipeline.scan_kappas``, so this module reads no
model code.

The one tuning guideline is ``xi1_bound``, whose docstring also gives the
stringent bound, the xi0 constraint and the band half-widths sigma s_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spatialboost.errors import ConfigurationError


def threshold(gamma: float) -> float:
    """Selection threshold 1/(1+gamma) of the sensitivity-specificity
    trade-off gamma > 0 of the generalized Hamming gain."""
    if not gamma > 0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    return 1.0 / (1.0 + gamma)


def centroid(pi: np.ndarray, gamma: float) -> np.ndarray:
    """Position-wise expected-gain maximizer: select j iff
    pi_j >= 1/(1+gamma) (boundary included)."""
    cut = threshold(gamma)
    pi = np.asarray(pi, dtype=float)
    if np.any(pi < 0) or np.any(pi > 1):
        raise ConfigurationError("probabilities must lie in [0, 1]")
    return (pi >= cut).astype(np.int8)


def bfdr(pi: np.ndarray, selection: np.ndarray) -> float | None:
    """Bayesian false discovery rate of a selection; ``None`` (the explicit
    no-discoveries sentinel) when the selection is empty."""
    pi = np.asarray(pi, dtype=float)
    sel = np.asarray(selection)
    total = float(sel.sum())
    if total == 0:
        return None
    return float(np.sum(sel * (1.0 - pi)) / total)


@dataclass
class EmbfdrPoint:
    """The centroid selection at one gamma: its threshold, (EM)BFDR and size."""

    gamma: float
    threshold: float
    embfdr: float | None  # None marks an empty selection
    retained: int

    @classmethod
    def of(cls, pi: np.ndarray, gamma: float, sel: np.ndarray) -> "EmbfdrPoint":
        """The point of ``sel``, the centroid selection on ``pi`` at ``gamma``."""
        return cls(float(gamma), threshold(gamma), bfdr(pi, sel), int(sel.sum()))

    @property
    def metric(self) -> str:
        """The (EM)BFDR as the artifacts print it: NA when empty."""
        return "NA" if self.embfdr is None else f"{self.embfdr:.10g}"

    def tsv(self) -> str:
        """gamma, threshold, BFDR (NA when empty) and count, tab-separated."""
        head = f"{self.gamma:.10g}\t{self.threshold:.10g}"
        return f"{head}\t{self.metric}\t{self.retained}"


def embfdr_curve(probabilities: np.ndarray, gammas) -> list[EmbfdrPoint]:
    """Centroid-then-BFDR per gamma, on the EM conditional probabilities
    (the EMBFDR) or on the Gibbs estimates pi_hat (the BFDR)."""
    return [
        EmbfdrPoint.of(probabilities, g, centroid(probabilities, g)) for g in gammas
    ]


def xi1_bound(kappa: float, gamma: float, s: float, xi0: float = 0.0) -> float:
    """Upper bound log(kappa)/2 - xi0 - log(gamma) - s^2/2 (1 - 1/kappa) on
    the gene-boost coefficient xi1 at band width s, returned as is.

    Stringent bound: kappa = s^2, which minimizes it over kappa. xi0
    constraint: bound >= 0. Band half-width sigma s_j at boost b_j, where
    the bound equals xi1 b_j: s_j^2 = 2 kappa/(kappa-1) (log(kappa)/2 - xi0
    - xi1 b_j - log(gamma)); the band collapses where s_j^2 < 0.
    """
    if kappa <= 1:
        raise ConfigurationError(f"kappa must be > 1, got {kappa}")
    if s <= 0 or gamma <= 0:
        raise ConfigurationError("s and gamma must be positive")
    return (
        0.5 * math.log(kappa)
        - xi0
        - math.log(gamma)
        - 0.5 * s * s * (1.0 - 1.0 / kappa)
    )


@dataclass
class SelectionReport:
    """Final per-marker selection at one gamma, with the BFDR point that both
    its file header and its bfdr.tsv row print."""

    snp_ids: list[str]
    probabilities: np.ndarray
    selected: np.ndarray
    point: EmbfdrPoint

    @classmethod
    def build(
        cls, snp_ids: list[str], probabilities: np.ndarray, gamma: float
    ) -> "SelectionReport":
        probabilities = np.asarray(probabilities, dtype=float)
        sel = centroid(probabilities, gamma)
        return cls(
            snp_ids=list(snp_ids),
            probabilities=probabilities,
            selected=sel,
            point=EmbfdrPoint.of(probabilities, gamma, sel),
        )

    def to_tsv(self) -> str:
        lines = [f"# gamma={self.point.gamma:.10g}\tbfdr={self.point.metric}"]
        lines.append("snp\tprobability\tselected")
        for sid, prob, sel in zip(self.snp_ids, self.probabilities, self.selected):
            lines.append(f"{sid}\t{prob:.10g}\t{int(sel)}")
        return "\n".join(lines) + "\n"
